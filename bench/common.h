// Shared helpers for the reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper: it runs
// the measurement campaign on the simulated testbed and prints the same
// rows/series the paper reports, annotated with the paper's reference
// values where the paper gives concrete numbers. Absolute values are not
// expected to match (the substrate is a calibrated simulator); the shape
// is the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "alloc_interposer.h"
#include "analysis/stats.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "experiment/series.h"
#include "experiment/table.h"
#include "net/packet_pool.h"
#include "sim/event_queue.h"
#include "sim/parallel.h"
#include "sim/parse.h"

namespace mpr::bench {

using analysis::Ccdf;
using analysis::Summary;
using analysis::summarize;
using experiment::Carrier;
using experiment::MatrixEntry;
using experiment::PathMode;
using experiment::RunConfig;
using experiment::RunResult;
using experiment::TestbedConfig;

inline constexpr std::uint64_t kKB = 1024;
inline constexpr std::uint64_t kMB = 1024 * 1024;

/// Repetitions per configuration; override with MPR_REPS for longer runs
/// (the paper performs 20 per period and location).
inline int reps(int default_reps) {
  if (const char* env = std::getenv("MPR_REPS"); env != nullptr) {
    const std::optional<int> v = sim::int_from_string<int>(env);
    if (v && *v > 0) return *v;
  }
  return default_reps;
}

inline TestbedConfig testbed_for(Carrier carrier, bool hotspot = false) {
  TestbedConfig tb;
  tb.wifi = hotspot ? netem::wifi_hotspot() : netem::wifi_home();
  tb.cellular = experiment::carrier_profile(carrier);
  return tb;
}

/// Number of parallel campaign jobs this bench will use (MPR_JOBS).
inline unsigned jobs() { return sim::effective_jobs(); }

namespace detail {
inline std::chrono::steady_clock::time_point bench_start;

/// Perf trailer printed at exit: wall clock, simulator events executed
/// (summed over every run's EventQueue) and throughput, plus allocation
/// telemetry — heap allocations per event (global new interposer) and
/// packet-pool traffic (misses vs recycles) — so perf PRs have a
/// trajectory to compare against.
inline void print_perf_trailer() {
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - bench_start).count();
  const std::uint64_t events = sim::EventQueue::total_executed();
  const std::uint64_t heap = heap_allocations();
  const std::uint64_t pool_allocs = net::PacketPool::total_allocs();
  const std::uint64_t pool_reuses = net::PacketPool::total_reuses();
  const std::uint64_t acquires = pool_allocs + pool_reuses;
  std::printf("\n[perf] wall=%.2fs events=%llu rate=%.2fM events/s jobs=%u\n", wall_s,
              static_cast<unsigned long long>(events),
              wall_s > 0 ? static_cast<double>(events) / wall_s * 1e-6 : 0.0, jobs());
  std::printf(
      "[perf] heap_allocs=%llu (%.3f/event) pool_allocs=%llu pool_reuses=%llu "
      "(reuse=%.1f%%)\n",
      static_cast<unsigned long long>(heap),
      events > 0 ? static_cast<double>(heap) / static_cast<double>(events) : 0.0,
      static_cast<unsigned long long>(pool_allocs),
      static_cast<unsigned long long>(pool_reuses),
      acquires > 0 ? 100.0 * static_cast<double>(pool_reuses) / static_cast<double>(acquires)
                   : 0.0);
}
}  // namespace detail

inline void header(const std::string& id, const std::string& title,
                   const std::string& note = "") {
  [[maybe_unused]] static const bool instrumented = [] {
    detail::bench_start = std::chrono::steady_clock::now();
    std::atexit(detail::print_perf_trailer);
    return true;
  }();
  std::printf("\n==== %s: %s ====\n", id.c_str(), title.c_str());
  if (!note.empty()) std::printf("     %s\n", note.c_str());
}

/// Box summary of completed download times, "min/q1/med/q3/max" in seconds.
inline std::string box_s(const std::vector<RunResult>& rs) {
  return experiment::fmt_box(experiment::download_time_summary(rs), "");
}

inline std::string mean_s(const std::vector<RunResult>& rs) {
  const Summary s = experiment::download_time_summary(rs);
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f±%.2f", s.mean, s.stderr_mean);
  return buf;
}

/// Prints one CCDF line: n, min, p50/p75/p90/p99 and max of the sample (ms).
inline void print_ccdf_row(const std::string& label, const std::vector<double>& samples) {
  if (samples.empty()) {
    std::printf("%-22s (no samples)\n", label.c_str());
    return;
  }
  const Ccdf c{samples};
  std::printf(
      "%-22s n=%-7zu min=%-7.1f p50=%-7.1f p75=%-7.1f p90=%-8.1f p99=%-8.1f max=%.1f\n",
      label.c_str(), c.n(), c.sorted_samples().front(), c.value_at_probability(0.5),
      c.value_at_probability(0.25), c.value_at_probability(0.1), c.value_at_probability(0.01),
      c.sorted_samples().back());
}

/// Mean ± stderr string over a per-run statistic.
inline std::string pm(const std::vector<double>& values, int precision = 2) {
  const Summary s = summarize(values);
  if (s.n == 0) return "-";
  return analysis::format_pm(s.mean, s.stderr_mean, precision);
}

}  // namespace mpr::bench
