// mpr_run — run one measurement on the simulated testbed from the command
// line and print a report (text or JSON).
//
//   mpr_run --mode mp2 --carrier att --cc olia --size 4m --seed 7
//   mpr_run --mode sp-wifi --size 512k --json
//
// Single-run flags (shared with mpr_trace; parsed in cli_flags.h):
//   --mode     sp-wifi | sp-cell | mp2 | mp4        (default mp2)
//   --carrier  att | verizon | vzw | sprint         (default att)
//   --cc       coupled | olia | reno | vegas        (default coupled)
//   --sched    minrtt | roundrobin | rr | weighted | redundant  (default minrtt)
//              weighted takes per-subflow shares, e.g. --sched weighted:2,1
//   --size     object bytes, k/m/g suffixes         (default 4m)
//   --seed     RNG seed                             (default 1)
//   --hotspot  use the public coffee-shop WiFi profile
//   --simsyn   simultaneous SYNs
//   --backup   join cellular in backup mode
//   --codel    CoDel on the cellular downlink
//   --scenario fault-schedule file applied to every rep (see netem/faults.h)
//   --checksum       enable the RFC 6824 §3.3 DSS checksum
//   --no-fallback    refuse plain-TCP fallback (stripped handshakes fail)
//   --teardown       tear down the connection on a checksum failure
//   --max-sim-time   watchdog: abort after this much simulated time (seconds)
//   --max-events     watchdog: abort after this many simulator events
// mpr_run only:
//   --reps     repetitions (default 1)
//   --jobs     worker threads for the reps (default MPR_JOBS, else all cores)
//   --json     machine-readable output
//
// Population-campaign mode (see EXPERIMENTS.md "Population campaigns"):
//   mpr_run --campaign pop.spec --checkpoint pop.ckpt
//   mpr_run --campaign pop.spec --checkpoint pop.ckpt --resume
//
//   --campaign   campaign spec file; replaces the single-run flags above
//   --checkpoint checkpoint path (written atomically every checkpoint-every
//                users and on SIGINT/SIGTERM)
//   --resume     continue from --checkpoint instead of starting over
//   Exit codes: 0 complete, 1 error, 2 failure budget exhausted,
//               128+signal when interrupted (checkpoint written first).
//
// Values are read strictly (sim/parse.h): a number is a decimal token with
// no '+', a count (--seed, --reps, --max-events) takes no sign, and a
// boolean flag is bare or takes true | false | 1 | 0. A bad value (--cc
// olai, --size 4x, --reps -1, --simsyn=no, ...) is reported on stderr with
// the values the flag accepts, and mpr_run exits 1 without running anything.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "experiment/campaign.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "experiment/series.h"
#include "sim/parallel.h"

using namespace mpr;
using namespace mpr::experiment;

namespace {

void print_json(const RunResult& r) {
  std::printf(
      "{\"completed\":%s,\"outcome\":\"%s\",\"download_time_s\":%.6f,"
      "\"cellular_fraction\":%.4f,"
      "\"wifi\":{\"bytes\":%llu,\"loss\":%.5f,\"rtt_samples\":%zu},"
      "\"cellular\":{\"bytes\":%llu,\"loss\":%.5f,\"rtt_samples\":%zu},"
      "\"energy_j\":{\"wifi\":%.3f,\"cellular\":%.3f},"
      "\"reinjections\":%llu,\"redundant_chunks\":%llu,\"penalizations\":%llu}\n",
      r.completed ? "true" : "false", to_string(r.outcome).c_str(), r.download_time_s,
      r.cellular_fraction(),
      static_cast<unsigned long long>(r.wifi.bytes_received), r.wifi.loss_rate(),
      r.wifi.rtt_ms.size(), static_cast<unsigned long long>(r.cellular.bytes_received),
      r.cellular.loss_rate(), r.cellular.rtt_ms.size(), r.wifi_energy_j, r.cellular_energy_j,
      static_cast<unsigned long long>(r.reinjections),
      static_cast<unsigned long long>(r.redundant_chunks),
      static_cast<unsigned long long>(r.penalizations));
}

void print_text(const RunResult& r) {
  std::printf("completed:        %s\n",
              r.completed ? "yes" : (r.failed ? "NO (connection failed)" : "NO (timeout)"));
  std::printf("outcome:          %s\n", to_string(r.outcome).c_str());
  if (r.sim_stats.fallback_plain_tcp > 0 || r.sim_stats.fallback_infinite_mapping > 0) {
    std::printf("fallback:         plain_tcp=%llu infinite_mapping=%llu\n",
                static_cast<unsigned long long>(r.sim_stats.fallback_plain_tcp),
                static_cast<unsigned long long>(r.sim_stats.fallback_infinite_mapping));
  }
  if (r.sim_stats.middlebox_options_stripped > 0 ||
      r.sim_stats.middlebox_packets_mangled > 0) {
    std::printf("middlebox:        stripped=%llu mangled=%llu checksum_failures=%llu\n",
                static_cast<unsigned long long>(r.sim_stats.middlebox_options_stripped),
                static_cast<unsigned long long>(r.sim_stats.middlebox_packets_mangled),
                static_cast<unsigned long long>(r.sim_stats.checksum_failures));
  }
  std::printf("download time:    %.3f s\n", r.download_time_s);
  std::printf("cellular share:   %.1f%%\n", r.cellular_fraction() * 100);
  std::printf("wifi:             %llu bytes, loss %.2f%%\n",
              static_cast<unsigned long long>(r.wifi.bytes_received),
              r.wifi.loss_rate() * 100);
  std::printf("cellular:         %llu bytes, loss %.2f%%\n",
              static_cast<unsigned long long>(r.cellular.bytes_received),
              r.cellular.loss_rate() * 100);
  std::printf("radio energy:     wifi %.1f J, cellular %.1f J\n", r.wifi_energy_j,
              r.cellular_energy_j);
  if (!r.ofo_ms.empty()) {
    const auto s = analysis::summarize(r.ofo_ms);
    std::printf("reorder delay:    mean %.1f ms, max %.1f ms over %zu packets\n", s.mean,
                s.max, s.n);
  }
}

void print_sketch_text(const char* name, const analysis::QSketch& s) {
  if (s.count() == 0) {
    std::printf("%-18s -\n", name);
    return;
  }
  std::printf("%-18s n=%llu  p10=%.3f  p50=%.3f  p90=%.3f  p99=%.3f  max=%.3f\n", name,
              static_cast<unsigned long long>(s.count()), s.quantile(0.10), s.quantile(0.50),
              s.quantile(0.90), s.quantile(0.99), s.max());
}

void print_sketch_json(const char* name, const analysis::QSketch& s, bool trailing_comma) {
  std::printf("\"%s\":{\"n\":%llu,\"p10\":%.6f,\"p50\":%.6f,\"p90\":%.6f,\"p99\":%.6f,"
              "\"max\":%.6f}%s",
              name, static_cast<unsigned long long>(s.count()), s.quantile(0.10),
              s.quantile(0.50), s.quantile(0.90), s.quantile(0.99), s.max(),
              trailing_comma ? "," : "");
}

int run_campaign_cli(tools::Flags& flags, int jobs) {
  CampaignOptions opt;
  opt.checkpoint_path = flags.get("checkpoint", "");
  opt.resume = flags.get_bool("resume");
  opt.jobs = jobs;
  opt.handle_signals = true;
  const bool json = flags.get_bool("json");
  if (!flags.ok()) return 1;

  std::string error;
  const CampaignSpec spec = CampaignSpec::parse_file(flags.get("campaign"), &error);
  if (!error.empty()) {
    std::fprintf(stderr, "mpr_run: --campaign: %s\n", error.c_str());
    return 1;
  }

  const std::optional<CampaignResult> res = run_campaign(spec, opt, &error);
  if (!res) {
    std::fprintf(stderr, "mpr_run: campaign: %s\n", error.c_str());
    return 1;
  }
  const CampaignAggregates& agg = res->agg;

  if (json) {
    std::printf("{\"users\":%llu,\"users_done\":%llu,\"completed\":%llu,\"timeouts\":%llu,"
                "\"quarantined\":%llu,\"delivered_bytes\":%llu,"
                "\"interrupted\":%s,\"budget_exhausted\":%s,",
                static_cast<unsigned long long>(spec.users),
                static_cast<unsigned long long>(res->users_done),
                static_cast<unsigned long long>(agg.completed),
                static_cast<unsigned long long>(agg.timeouts),
                static_cast<unsigned long long>(agg.quarantined()),
                static_cast<unsigned long long>(agg.delivered_bytes),
                res->interrupted ? "true" : "false", res->budget_exhausted ? "true" : "false");
    print_sketch_json("download_time_s", agg.download_time_s, true);
    print_sketch_json("cellular_fraction", agg.cellular_fraction, true);
    print_sketch_json("ofo_delay_ms", agg.ofo_delay_ms, false);
    std::printf("}\n");
  } else {
    std::printf("campaign:         %llu/%llu users done (%llu completed, %llu timeouts, "
                "%llu quarantined)\n",
                static_cast<unsigned long long>(res->users_done),
                static_cast<unsigned long long>(spec.users),
                static_cast<unsigned long long>(agg.completed),
                static_cast<unsigned long long>(agg.timeouts),
                static_cast<unsigned long long>(agg.quarantined()));
    print_sketch_text("download time [s]:", agg.download_time_s);
    print_sketch_text("cellular share:", agg.cellular_fraction);
    print_sketch_text("ofo delay [ms]:", agg.ofo_delay_ms);
    if (agg.quarantined() > 0) {
      std::printf("quarantine:       connection=%llu watchdog=%llu audit=%llu exception=%llu\n",
                  static_cast<unsigned long long>(agg.quarantined_connection),
                  static_cast<unsigned long long>(agg.quarantined_watchdog),
                  static_cast<unsigned long long>(agg.quarantined_audit),
                  static_cast<unsigned long long>(agg.quarantined_exception));
      const std::size_t show = std::min<std::size_t>(agg.quarantine.size(), 10);
      for (std::size_t i = 0; i < show; ++i) {
        const QuarantineRecord& q = agg.quarantine[i];
        std::printf("  user %llu seed %llu [%s]: %s\n",
                    static_cast<unsigned long long>(q.user),
                    static_cast<unsigned long long>(q.seed), q.label.c_str(),
                    q.reason.c_str());
      }
      if (agg.quarantine.size() > show) {
        std::printf("  ... %zu more retained in the checkpoint\n", agg.quarantine.size() - show);
      }
    }
  }

  if (res->budget_exhausted) {
    std::fprintf(stderr, "mpr_run: campaign: failure budget exhausted (%llu quarantined)\n",
                 static_cast<unsigned long long>(agg.quarantined()));
    return 2;
  }
  if (res->interrupted) {
    std::fprintf(stderr, "mpr_run: campaign: interrupted by signal %d, checkpoint written\n",
                 res->signal);
    return 128 + res->signal;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Flags flags{argc, argv};
  if (flags.has("help")) {
    std::printf("see the header of tools/mpr_run.cpp for flags\n");
    return 0;
  }
  const int jobs = flags.parse("jobs", 0, sim::int_from_string<int>,
                               "an integer (<= 0: MPR_JOBS, else all cores)");
  if (flags.has("campaign")) return run_campaign_cli(flags, jobs);

  TestbedConfig tb;
  RunConfig rc;
  rc.file_bytes = 4 << 20;
  tools::parse_run_flags(flags, tb, rc);
  const int reps = flags.parse("reps", 1, sim::int_from_string<int>, "a positive integer");
  if (reps <= 0) flags.error("reps", "expected a positive integer");
  const bool json = flags.get_bool("json");
  if (!flags.ok()) return 1;

  // Reps are independently-seeded simulations: run them across the worker
  // pool, then print in rep order so output is identical at any job count.
  std::vector<RunResult> results(static_cast<std::size_t>(reps));
  sim::parallel_for_index(results.size(), sim::effective_jobs(jobs), [&](std::size_t i) {
    TestbedConfig tbi = tb;
    tbi.seed = tb.seed + static_cast<std::uint64_t>(i);
    results[i] = run_download(tbi, rc);
  });

  for (int i = 0; i < reps; ++i) {
    const RunResult& r = results[static_cast<std::size_t>(i)];
    if (json) {
      print_json(r);
    } else {
      if (reps > 1) std::printf("--- rep %d (seed %llu) ---\n", i,
                                static_cast<unsigned long long>(tb.seed + static_cast<std::uint64_t>(i)));
      print_text(r);
    }
  }
  return 0;
}
