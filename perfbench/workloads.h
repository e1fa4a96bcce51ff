// The benchmark's three workloads (backlog, population, impaired) and the
// simulated-output bookkeeping they share.
//
// A workload is built once per process from (seed, size) and then runs
// identical passes: every pass replays the same generated inputs, so every
// pass must produce the same simulated outputs (the pass digest) and the
// same simulated counts. Passes are timed by the caller with tracing off;
// traced_pass() runs the same simulations with spans around each call into
// the simulator and must reproduce the untraced digest exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "experiment/run.h"
#include "spans.h"

namespace mpr::perfbench {

/// FNV-1a over the simulated outputs of a pass.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add_double(double v);
  void add_bytes(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_{14695981039346656037ull};
};

/// Simulated behaviour of one pass, summed over its downloads. These are
/// the per-layer counts of the traced run; a change that only speeds up the
/// host must leave every one of them unchanged.
struct Counts {
  std::uint64_t runs{0};
  std::uint64_t completed{0};
  std::uint64_t delivered_bytes{0};
  std::uint64_t events{0};
  std::uint64_t pool_allocs{0};
  std::uint64_t pool_reuses{0};
  std::uint64_t data_packets{0};  // server-side payload packets, incl. rexmits
  std::uint64_t rexmits{0};
  std::uint64_t rtt_samples{0};
  std::uint64_t reinjections{0};
  std::uint64_t duplicates{0};
  std::uint64_t ofo_samples{0};
  std::uint64_t ofo_held{0};           // OFO samples with a non-zero delay
  std::uint64_t reorder_peak_bytes{0}; // max over runs; driven runs only
  std::uint64_t fallbacks{0};
  std::uint64_t join_refusals{0};
  std::uint64_t mbox_stripped{0};
  std::uint64_t trace_records{0};
  std::uint64_t trace_drops{0};
  std::uint64_t sketch_samples{0};     // values folded into campaign sketches

  void add_run(const experiment::RunResult& r);
};

/// Adds the simulated outputs of one download to `d`.
void digest_run(Digest& d, const experiment::RunResult& r);

struct PassResult {
  Counts counts;
  std::uint64_t digest{0};
  /// Host seconds from the start of the pass until its first simulated
  /// event executed: input generation, testbed and endpoint construction.
  double setup_s{0};
  /// Host wall and process CPU seconds of each part of the pass, in pass
  /// order: a pass is a fixed list of independent parts (backlog: one
  /// matrix entry; population: one campaign; impaired: one download).
  std::vector<double> part_wall_s;
  std::vector<double> part_cpu_s;
  /// Host seconds of the work that the untraced pass() also does; a traced
  /// pass's value against an untraced one is the tracing overhead.
  double wall_s{0};
  /// Failed correctness checks, each naming the check.
  std::vector<std::string> failures;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual unsigned jobs() const = 0;
  /// One timed pass with tracing off.
  virtual PassResult pass() = 0;
  /// The same simulations with spans recorded into `rec`. For population
  /// the campaigns are followed by a serial per-user pass that must
  /// reproduce their aggregates.
  virtual PassResult traced_pass(SpanRecorder& rec) = 0;
  /// Checks run once after all passes (e.g. checkpoint round-trip).
  virtual void final_checks(std::vector<std::string>& /*failures*/) {}
};

enum class Size { kFull, kTiny };

/// Returns nullptr for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                                      Size size, unsigned nproc,
                                                      const std::string& out_dir);

}  // namespace mpr::perfbench
