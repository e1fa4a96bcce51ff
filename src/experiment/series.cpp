#include "experiment/series.h"

#include <algorithm>
#include <numeric>

#include "sim/parallel.h"
#include "sim/rng.h"

namespace mpr::experiment {

std::string period_name(int period) {
  switch (period & 3) {
    case 0: return "night";
    case 1: return "morning";
    case 2: return "afternoon";
    default: return "evening";
  }
}

namespace {

/// One (entry, rep) measurement with its fully-derived testbed config.
struct Cell {
  std::size_t entry;
  TestbedConfig testbed;
};

/// Expands the campaign into cells in legacy execution order: rep-major,
/// order shuffled within each rep round (§3.2). Each cell's seed derives
/// only from (label, rep), so the shuffle decides *when* a cell runs, never
/// what it measures.
std::vector<Cell> build_cells(const std::vector<MatrixEntry>& entries, int reps,
                              std::uint64_t seed) {
  sim::SeedSequence seeds{seed};
  sim::Rng shuffle_rng = seeds.stream("matrix.shuffle");

  std::vector<Cell> cells;
  cells.reserve(entries.size() * static_cast<std::size_t>(std::max(reps, 0)));
  for (int rep = 0; rep < reps; ++rep) {
    const int period = rep % static_cast<int>(kPeriodLoadFactors.size());
    std::vector<std::size_t> order(entries.size());
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), shuffle_rng.engine());

    for (const std::size_t idx : order) {
      const MatrixEntry& e = entries[idx];
      TestbedConfig tb = e.testbed;
      tb.load_factor *= kPeriodLoadFactors[static_cast<std::size_t>(period)];
      tb.seed = seeds.seed_for(e.label + "#" + std::to_string(rep));
      cells.push_back(Cell{idx, tb});
    }
  }
  return cells;
}

/// Runs every cell (in the calling thread when jobs resolves to 1 —
/// replaying the serial schedule exactly — otherwise across a thread pool)
/// and returns results indexed by cell. Cells are independent simulations,
/// so assembly by index makes the output schedule-invariant.
std::vector<RunResult> run_cells(const std::vector<MatrixEntry>& entries,
                                 const std::vector<Cell>& cells, int jobs) {
  std::vector<RunResult> out(cells.size());
  sim::parallel_for_index(cells.size(), sim::effective_jobs(jobs), [&](std::size_t i) {
    out[i] = run_download(cells[i].testbed, entries[cells[i].entry].run);
  });
  return out;
}

}  // namespace

std::map<std::string, std::vector<RunResult>> run_matrix(
    const std::vector<MatrixEntry>& entries, int reps, std::uint64_t seed, int jobs) {
  const std::vector<Cell> cells = build_cells(entries, reps, seed);
  std::vector<RunResult> out = run_cells(entries, cells, jobs);

  // Walking cells in execution order reproduces the legacy grouping: one
  // push per (label, rep), rep-major, so results[label] is in rep order.
  std::map<std::string, std::vector<RunResult>> results;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    results[entries[cells[i].entry].label].push_back(std::move(out[i]));
  }
  return results;
}

std::vector<RunResult> run_series(const TestbedConfig& testbed, const RunConfig& run, int reps,
                                  std::uint64_t seed, int jobs) {
  // Single entry: cell order is rep order, so the per-cell results are the
  // series — no std::map round-trip (which would silently hand back an
  // empty vector if the label key ever drifted).
  const std::vector<MatrixEntry> one{MatrixEntry{"series", testbed, run}};
  return run_cells(one, build_cells(one, reps, seed), jobs);
}

analysis::Summary download_time_summary(const std::vector<RunResult>& rs) {
  std::vector<double> times;
  times.reserve(rs.size());
  for (const RunResult& r : rs) {
    if (r.completed) times.push_back(r.download_time_s);
  }
  return analysis::summarize(std::move(times));
}

double mean_cellular_fraction(const std::vector<RunResult>& rs) {
  if (rs.empty()) return 0.0;
  double sum = 0.0;
  for (const RunResult& r : rs) sum += r.cellular_fraction();
  return sum / static_cast<double>(rs.size());
}

std::vector<double> pooled_rtt_ms(const std::vector<RunResult>& rs, bool cellular) {
  std::vector<double> out;
  for (const RunResult& r : rs) {
    const PathStats& ps = cellular ? r.cellular : r.wifi;
    out.insert(out.end(), ps.rtt_ms.begin(), ps.rtt_ms.end());
  }
  return out;
}

std::vector<double> pooled_ofo_ms(const std::vector<RunResult>& rs) {
  std::vector<double> out;
  for (const RunResult& r : rs) out.insert(out.end(), r.ofo_ms.begin(), r.ofo_ms.end());
  return out;
}

std::vector<double> loss_rates_percent(const std::vector<RunResult>& rs, bool cellular) {
  std::vector<double> out;
  for (const RunResult& r : rs) {
    const PathStats& ps = cellular ? r.cellular : r.wifi;
    if (ps.data_packets_sent > 0) out.push_back(ps.loss_rate() * 100.0);
  }
  return out;
}

std::vector<double> per_run_mean_rtt_ms(const std::vector<RunResult>& rs, bool cellular) {
  std::vector<double> out;
  for (const RunResult& r : rs) {
    const PathStats& ps = cellular ? r.cellular : r.wifi;
    if (ps.rtt_ms.empty()) continue;
    double sum = 0.0;
    for (const double v : ps.rtt_ms) sum += v;
    out.push_back(sum / static_cast<double>(ps.rtt_ms.size()));
  }
  return out;
}

std::vector<double> per_run_mean_ofo_ms(const std::vector<RunResult>& rs) {
  std::vector<double> out;
  for (const RunResult& r : rs) {
    if (r.ofo_ms.empty()) continue;
    double sum = 0.0;
    for (const double v : r.ofo_ms) sum += v;
    out.push_back(sum / static_cast<double>(r.ofo_ms.size()));
  }
  return out;
}

}  // namespace mpr::experiment
