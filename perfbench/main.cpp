// mpr_perfbench — the repo benchmark (see BENCHMARK.json; run it through
// perfbench/run.py, which builds this binary first).
//
//   mpr_perfbench --workload backlog|population|impaired --seed N --seconds S
//                 --trace 0|1 [--size full|tiny] [--out-dir DIR]
//
// A run builds the workload's inputs from --seed, runs one untimed warm-up
// pass, then repeats identical passes (closed loop: a pass starts when the
// previous one ends) until --seconds have elapsed. Times and rates come from
// each part's best time over the passes, set-up from the median pass (see
// end_to_end()). With --trace 1 untraced passes alternate with traced passes,
// which record spans around every call into the simulator; the run then
// prints per-layer metrics instead of end-to-end ones and writes the spans to
// DIR/spans-<workload>-<seed>.jsonl.
//
// Every pass is checked: each completed download delivered exactly its
// object size, population's outcome counts add up to the users attempted,
// every pass (traced or not) reproduces the first pass's simulated outputs
// (sim_digest), and population's final checkpoint loads back equal. The last
// line of stdout is one JSON object {correct, attempted, failed, metrics};
// any failed check is named on stderr and makes the exit code 1.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

#ifndef MPR_PERFBENCH_BUILD_TYPE
#define MPR_PERFBENCH_BUILD_TYPE "unknown"
#endif
#if MPR_AUDIT
#define MPR_PERFBENCH_AUDIT "on"
#else
#define MPR_PERFBENCH_AUDIT "off"
#endif

namespace mpr::perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  Size size{Size::kFull};
  std::string out_dir{".bench_build/perfbench"};
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "mpr_perfbench: %s\nusage: mpr_perfbench --workload backlog|population|impaired "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] [--out-dir DIR]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 120)) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") usage("--size takes full or tiny");
      o.size = v == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--out-dir") {
      o.out_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Peak resident set size of this process image in MiB. Read from VmHWM:
/// getrusage's ru_maxrss survives execve, so under a launcher it can report
/// the launcher's footprint instead of ours.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct TimedPass {
  double wall_s;  // the whole pass, including the set-up probe
  PassResult result;
};

/// End-to-end metrics over the timed (untraced) passes. Every pass repeats
/// the same simulated work, so pass-to-pass differences are host noise. On a
/// shared host that noise comes in multi-second phases of contention (one
/// 20 s backlog run measured 150 ms passes in quiet phases and 220-290 ms in
/// contended ones), which moves a median by the share of the run that was
/// contended, and a long pass rarely fits in one quiet phase. So each part
/// of the pass (one download, matrix entry or campaign) is timed on its own,
/// and wall_s and cpu_s sum each part's best time over the run's passes: the
/// host cost of the whole workload when uncontended. Rates divide the pass's
/// simulated work by that wall_s. setup_s is the median over passes.
std::vector<Metric> end_to_end(const std::vector<TimedPass>& passes, std::uint64_t runs,
                               std::uint64_t completed) {
  const PassResult& first = passes.front().result;
  std::vector<double> best_wall = first.part_wall_s;
  std::vector<double> best_cpu = first.part_cpu_s;
  std::vector<double> setup;
  for (const TimedPass& p : passes) {
    setup.push_back(p.result.setup_s);
    for (std::size_t k = 0; k < best_wall.size() && k < p.result.part_wall_s.size(); ++k) {
      best_wall[k] = std::min(best_wall[k], p.result.part_wall_s[k]);
      best_cpu[k] = std::min(best_cpu[k], p.result.part_cpu_s[k]);
    }
  }
  double wall = 0;
  double cpu = 0;
  for (std::size_t k = 0; k < best_wall.size(); ++k) {
    wall += best_wall[k];
    cpu += best_cpu[k];
  }
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"wall_s", wall, "s"},
      {"setup_s", median(setup), "s"},
      {"cpu_s", cpu, "s"},
      {"sim_mb_per_s", ratio(u(first.counts.delivered_bytes) / kMiB, wall), "MB/s"},
      {"runs_per_s", ratio(u(first.counts.completed), wall), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"completed_frac", ratio(u(completed), u(runs)), "ratio"},
  };
}

/// Per-layer metrics from the traced passes: simulated counts of one pass
/// (identical in every pass) and host times from the recorded spans.
std::vector<Metric> per_layer(const SpanRecorder& rec, const Counts& c,
                              const std::vector<double>& traced_wall_s, unsigned jobs,
                              double untraced_wall_s) {
  std::vector<double> testbed_ns, sample_ns, download_ns, checkpoint_ns, serialize_ns;
  double sum_testbed = 0, sum_download = 0, sum_tcptrace = 0, sum_fold = 0, sum_serial = 0;
  std::uint64_t allocs_download = 0, allocs_testbed = 0, allocs_tcptrace = 0;
  for (const SpanRecorder::Span& s : rec.spans()) {
    const std::string name = s.name;
    const auto ns = static_cast<double>(s.duration_ns());
    if (name == "testbed_build") {
      testbed_ns.push_back(ns);
      sum_testbed += ns;
      allocs_testbed += s.allocs;
    } else if (name == "run_download" || name == "step_loop") {
      download_ns.push_back(ns);
      sum_download += ns;
      allocs_download += s.allocs;
    } else if (name == "tcptrace") {
      sum_tcptrace += ns;
      allocs_tcptrace += s.allocs;
    } else if (name == "sample_user") {
      sample_ns.push_back(ns);
    } else if (name == "sketch_fold") {
      sum_fold += ns;
    } else if (name == "checkpoint_write") {
      checkpoint_ns.push_back(ns);
    } else if (name == "sketch_serialize") {
      serialize_ns.push_back(ns);
    }
    // The work an untraced pass also does, serially: downloads, analysis,
    // sampling, folding and checkpoints (not the extra testbed_build probe).
    if (name == "run_download" || name == "step_loop" || name == "tcptrace" ||
        name == "sample_user" || name == "sketch_fold" || name == "checkpoint_write") {
      sum_serial += ns;
    }
  }
  const auto passes = static_cast<double>(traced_wall_s.size());
  double sum_traced_wall = 0;
  for (const double w : traced_wall_s) sum_traced_wall += w;
  const auto events = static_cast<double>(c.events);
  const double events_all = events * passes;
  const double packets = static_cast<double>(c.pool_allocs + c.pool_reuses);
  const double records_all = static_cast<double>(c.trace_records) * passes;
  const double sketch_all = static_cast<double>(c.sketch_samples) * passes;
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.events", events, "count"},
      {"sim.events_per_mb", ratio(events, u(c.delivered_bytes) / kMiB), "count/MB"},
      {"sim.ns_per_event", ratio(sum_download, events_all), "ns"},
      {"sim.events_per_s", ratio(events_all, sum_download * 1e-9), "1/s"},
      {"sim.parallel_efficiency", ratio(sum_serial * 1e-9, jobs * sum_traced_wall), "ratio"},
      {"net.packets", packets, "count"},
      {"net.pool_miss_ratio", ratio(u(c.pool_allocs), packets), "ratio"},
      {"net.payload_packet_frac", ratio(u(c.data_packets), packets), "ratio"},
      {"net.trace_records", u(c.trace_records), "count"},
      {"net.drops", u(c.trace_drops), "count"},
      {"tcp.data_packets", u(c.data_packets), "count"},
      {"tcp.rexmit_ratio", ratio(u(c.rexmits), u(c.data_packets)), "ratio"},
      {"tcp.rtt_samples", u(c.rtt_samples), "count"},
      {"core.reinjections", u(c.reinjections), "count"},
      {"core.duplicate_frac", ratio(u(c.duplicates), u(c.ofo_samples + c.duplicates)), "ratio"},
      {"core.ofo_samples", u(c.ofo_samples), "count"},
      {"core.ofo_held_frac", ratio(u(c.ofo_held), u(c.ofo_samples)), "ratio"},
      {"core.reorder_peak_kb", u(c.reorder_peak_bytes) / 1024.0, "kB"},
      {"core.fallbacks", u(c.fallbacks), "count"},
      {"core.join_refusals", u(c.join_refusals), "count"},
      {"netem.middlebox_stripped", u(c.mbox_stripped), "count"},
      {"analysis.tcptrace_ms", sum_tcptrace / passes * 1e-6, "ms"},
      {"analysis.tcptrace_ns_per_record", ratio(sum_tcptrace, records_all), "ns"},
      {"analysis.sketch_add_ns", ratio(sum_fold, sketch_all), "ns"},
      {"analysis.sketch_samples", u(c.sketch_samples), "count"},
      {"analysis.sketch_serialize_us", median(serialize_ns) * 1e-3, "us"},
      {"experiment.sample_user_us", median(sample_ns) * 1e-3, "us"},
      {"experiment.testbed_build_us", median(testbed_ns) * 1e-3, "us"},
      {"experiment.run_ms_p50", percentile(download_ns, 0.50) * 1e-6, "ms"},
      {"experiment.run_ms_p99", percentile(download_ns, 0.99) * 1e-6, "ms"},
      {"experiment.checkpoint_write_ms", median(checkpoint_ns) * 1e-6, "ms"},
      {"experiment.setup_share", ratio(sum_testbed, sum_download), "ratio"},
      {"heap.allocs_per_event", ratio(u(allocs_download), events_all), "count"},
      {"heap.setup_allocs_per_run", ratio(u(allocs_testbed), u(testbed_ns.size())), "count"},
      {"heap.analysis_allocs_per_record", ratio(u(allocs_tcptrace), records_all), "count"},
      {"trace.overhead_s",
       *std::min_element(traced_wall_s.begin(), traced_wall_s.end()) - untraced_wall_s, "s"},
      {"trace.spans", u(rec.spans().size()), "count"},
  };
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// min / quartiles / max of one per-pass figure, so a reader can see the
/// host noise behind the reported figures.
template <typename Get>
void print_spread(const char* what, const std::vector<TimedPass>& passes, Get get) {
  std::vector<double> v;
  for (const TimedPass& p : passes) v.push_back(get(p));
  std::sort(v.begin(), v.end());
  std::printf("%s over %zu passes: min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n", what,
              v.size(), v.front(), percentile(v, 0.25), median(v), percentile(v, 0.75), v.back());
}

void print_span_table(const SpanRecorder& rec) {
  std::printf("spans (per name: count, total, self = total - direct children, heap allocs)\n");
  for (const auto& [name, t] : rec.totals_by_name()) {
    std::printf("  %-18s n=%-8llu total=%10.3f ms self=%10.3f ms allocs=%llu\n", name.c_str(),
                static_cast<unsigned long long>(t.count), static_cast<double>(t.total_ns) * 1e-6,
                static_cast<double>(t.self_ns) * 1e-6, static_cast<unsigned long long>(t.allocs));
  }
}

int run(const Options& o) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  if (ec) usage(("cannot create --out-dir " + o.out_dir + ": " + ec.message()).c_str());
  std::unique_ptr<Workload> wl = make_workload(o.workload, o.seed, o.size, nproc, o.out_dir);
  if (wl == nullptr) usage(("unknown workload " + o.workload).c_str());

  std::printf("perfbench workload=%s seed=%llu size=%s seconds=%g trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.size == Size::kTiny ? "tiny" : "full",
              o.seconds, o.trace ? 1 : 0);
  std::printf("build type=%s compiler=\"%s\" audit=%s nproc=%u jobs=%u "
              "(backlog=1 population=nproc impaired=1)\n",
              MPR_PERFBENCH_BUILD_TYPE, __VERSION__, MPR_PERFBENCH_AUDIT, nproc, wl->jobs());
  std::fflush(stdout);

  const Clock::time_point start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<std::string> failures;
  std::uint64_t runs = 0;
  std::uint64_t completed = 0;
  // Warm-up: fills pools and caches, and fixes the reference digest.
  const PassResult warm = wl->pass();
  const auto check_pass = [&](const PassResult& pr, const char* what) {
    failures.insert(failures.end(), pr.failures.begin(), pr.failures.end());
    if (pr.digest != warm.digest) {
      failures.push_back(std::string{"sim_digest: "} + what +
                         " pass differs from the warm-up pass");
    }
    if (pr.part_wall_s.size() != warm.part_wall_s.size()) {
      failures.push_back(std::string{"pass_shape: "} + what + " pass has another part count");
    }
    runs += pr.counts.runs;
    completed += pr.counts.completed;
  };
  check_pass(warm, "warm-up");

  std::vector<TimedPass> timed;
  const auto timed_pass = [&] {
    const Clock::time_point t0 = Clock::now();
    PassResult pr = wl->pass();
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    check_pass(pr, "timed");
    timed.push_back({wall, std::move(pr)});
  };
  // A traced run alternates untraced and traced passes, so both sample the
  // same phases of host contention and their difference is the tracing
  // overhead.
  SpanRecorder rec;
  std::vector<PassResult> traced;
  while (o.trace ? traced.empty() || elapsed() < o.seconds
                 : timed.size() < 3 || elapsed() < o.seconds) {
    timed_pass();
    if (o.trace) {
      traced.push_back(wl->traced_pass(rec));
      check_pass(traced.back(), "traced");
    }
  }
  wl->final_checks(failures);

  const std::vector<Metric> e2e = end_to_end(timed, runs, completed);
  std::vector<Metric> report = e2e;
  print_metrics("end-to-end (sum of each part's best time; setup_s: median; tracing off)", e2e);
  print_spread("pass wall_s", timed, [](const TimedPass& p) { return p.wall_s; });
  print_spread("pass setup_s", timed, [](const TimedPass& p) { return p.result.setup_s; });
  std::printf("passes: warm-up 1, timed %zu, traced %zu; runs per pass %llu\n", timed.size(),
              traced.size(), static_cast<unsigned long long>(warm.counts.runs));
  std::printf("sim_digest %s %016llx\n", o.workload.c_str(),
              static_cast<unsigned long long>(warm.digest));
  if (o.trace) {
    std::vector<double> traced_wall;
    for (const PassResult& pr : traced) traced_wall.push_back(pr.wall_s);
    double untraced_best = timed.front().wall_s;
    for (const TimedPass& p : timed) untraced_best = std::min(untraced_best, p.wall_s);
    report = per_layer(rec, traced.front().counts, traced_wall, wl->jobs(), untraced_best);
    print_metrics("per-layer (traced passes)", report);
    print_span_table(rec);
    const std::string path =
        o.out_dir + "/spans-" + o.workload + "-" + std::to_string(o.seed) + ".jsonl";
    if (!rec.write_jsonl(path)) {
      failures.push_back("spans_write: cannot write " + path);
    } else {
      std::printf("spans written to %s\n", path.c_str());
    }
  }

  // Each pass repeats its checks, so a failing check is reported once with
  // the number of times it failed.
  std::map<std::string, int> failed_checks;
  for (const std::string& f : failures) ++failed_checks[f];
  for (const auto& [what, n] : failed_checks) {
    std::fprintf(stderr, "CHECK FAILED %s (x%d)\n", what.c_str(), n);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failures.empty() ? "true" : "false", static_cast<unsigned long long>(runs),
              static_cast<unsigned long long>(runs - completed));
  for (std::size_t i = 0; i < report.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                report[i].name.c_str(), std::isfinite(report[i].value) ? report[i].value : 0.0,
                report[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace mpr::perfbench

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it rises
  // after the first large free, so whether later large blocks (the capture's
  // 64k-record chunks) come from the heap, and stay resident, depends on the
  // order of frees: one impaired seed measured 7.0 MB and 9.4-9.9 MB peak RSS
  // on different runs. Fixed, large blocks are always mapped and returned on
  // free, and peak_rss_mb follows live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  return mpr::perfbench::run(mpr::perfbench::parse(argc, argv));
}
