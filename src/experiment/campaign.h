// Population-scale measurement campaigns: millions of short downloads
// sampled from carrier / RTT / loss / middlebox-prevalence distributions,
// aggregated into streaming quantile sketches, crash-safe end to end.
//
// The paper's headline results are population statistics (CDFs of download
// time, out-of-order delay, cellular traffic share across many
// measurements). A CampaignSpec describes such a population; the engine
// samples one configuration per user index, runs each user as an isolated
// simulation on sim::parallel_for_index, and folds every result into
// analysis::QSketch aggregates immediately — no per-run result vectors stay
// resident, so a million-user sweep holds O(sketch) memory.
//
// Determinism: user u's testbed seed and sampled configuration derive only
// from (spec.seed, u), and per-user results are merged in user-index order,
// so the population CDFs are bit-identical at any MPR_JOBS and across any
// checkpoint/resume split.
//
// Crash safety: with a checkpoint path configured, a versioned binary
// checkpoint (atomic tmp + rename, FNV-1a-style checksum trailer) is written
// every `checkpoint_every` completed users, and on SIGINT/SIGTERM or a
// stop-hook request the campaign finishes its current block, checkpoints,
// and returns `interrupted`. Resuming replays nothing: it continues from
// `users_done` with the restored sketches, producing output byte-identical
// to an uninterrupted run.
//
// Failure quarantine: a user whose run throws check::AuditError, hits
// RunOutcome::kWatchdogAbort, or fails its connection is recorded (user
// index, seed, sampled-config label, reason) and the campaign continues;
// only when quarantined users exceed `failure_budget` does the sweep stop
// (with a final checkpoint), so one bad draw can never kill a multi-hour
// campaign.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/qsketch.h"
#include "core/coupled_cc.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "experiment/testbed.h"

namespace mpr::experiment {

/// Population description + campaign control knobs. Plain data; the
/// population-defining fields are covered by hash() so a checkpoint can
/// refuse to resume under a different population (checkpoint_every and
/// failure_budget are excluded — changing them between invocations cannot
/// change any user's result).
struct CampaignSpec {
  std::uint64_t users{10000};
  std::uint64_t seed{1};
  /// Checkpoint cadence in completed users (when a checkpoint path is set).
  std::uint64_t checkpoint_every{10000};
  /// The campaign aborts (cleanly, with a final checkpoint) once more than
  /// this many users have been quarantined.
  std::uint64_t failure_budget{1000};

  // --- population mixes (weights are normalized; empty = the default) ---
  std::vector<std::pair<Carrier, double>> carriers;       // default: AT&T 1.0
  std::vector<std::pair<PathMode, double>> modes;         // default: MP-2 1.0
  std::vector<std::pair<core::CcKind, double>> ccs;       // default: coupled 1.0
  std::vector<std::pair<std::uint64_t, double>> sizes;    // default: 256 KiB 1.0
  /// Probability a user's WiFi is the loaded coffee-shop hotspot profile.
  double hotspot_prob{0.0};
  /// Per-user lognormal sigma on both access networks' one-way delays
  /// (heterogeneous geography; 0 = everyone at the calibrated baseline).
  double rtt_sigma{0.0};
  /// Per-user uniform scale on the WiFi wire-loss rates in [lo, hi].
  double loss_scale_lo{1.0};
  double loss_scale_hi{1.0};
  /// Probability a user sits behind an MPTCP-option-stripping middlebox on
  /// the WiFi path (RFC 6824 fallback prevalence; calibrate against the
  /// "From Single Lane to Highways" adoption measurements).
  double mbox_strip_prob{0.0};

  // --- per-run guards ---
  double timeout_s{600.0};
  /// Watchdog hard-stop (simulated seconds; quarantines the run).
  double max_sim_time_s{900.0};
  std::uint64_t max_events{0};

  /// FNV-1a-style hash over the population-defining fields (see struct
  /// comment); its offset basis is not FNV-1a's (see kFnvOffset).
  [[nodiscard]] std::uint64_t hash() const;

  /// Parses the campaign spec text format (one `key value...` per line, `#`
  /// comments; see EXPERIMENTS.md "Population campaigns"). On failure
  /// returns a default spec and a "line N: ..." description in `error`.
  [[nodiscard]] static CampaignSpec parse(std::istream& in, std::string* error = nullptr);
  [[nodiscard]] static CampaignSpec parse_file(const std::string& path,
                                               std::string* error = nullptr);
};

/// One sampled population member: the fully-derived testbed + run config
/// plus a human-readable label ("MP-2/olia/AT&T/256KB/mbox"). Pure function
/// of (spec, user) — this is what makes the campaign schedule-invariant.
struct SampledUser {
  TestbedConfig testbed;
  RunConfig run;
  std::string label;
};
[[nodiscard]] SampledUser sample_user(const CampaignSpec& spec, std::uint64_t user);

/// Why a user was quarantined, with enough context to replay it alone
/// (`mpr_run --seed <seed> ...` per the label).
struct QuarantineRecord {
  std::uint64_t user{0};
  std::uint64_t seed{0};
  std::string label;
  std::string reason;  // "audit:<rule>" | "watchdog" | "connection-failed" | "exception:<what>"
};

/// Streaming population aggregates — the only campaign state that is ever
/// resident (and exactly what a checkpoint persists). serialize() is a pure
/// function of the processed user prefix, so tests compare campaigns for
/// bit-identity by comparing serializations.
struct CampaignAggregates {
  analysis::QSketch download_time_s;   // completed users
  analysis::QSketch cellular_fraction; // completed users
  analysis::QSketch ofo_delay_ms;      // per-packet samples of completed users
  std::uint64_t completed{0};
  std::uint64_t timeouts{0};
  std::uint64_t quarantined_connection{0};
  std::uint64_t quarantined_watchdog{0};
  std::uint64_t quarantined_audit{0};
  std::uint64_t quarantined_exception{0};
  std::uint64_t delivered_bytes{0};
  /// Retained quarantine records, capped at kMaxRetainedQuarantine (the
  /// counters above always count every occurrence).
  std::vector<QuarantineRecord> quarantine;

  static constexpr std::size_t kMaxRetainedQuarantine = 4096;

  [[nodiscard]] std::uint64_t quarantined() const {
    return quarantined_connection + quarantined_watchdog + quarantined_audit +
           quarantined_exception;
  }
  [[nodiscard]] std::uint64_t users_accounted() const {
    return completed + timeouts + quarantined();
  }

  void serialize(std::string& out) const;
  [[nodiscard]] bool deserialize(const char** cursor, const char* end);
};

/// Campaign progress as persisted by a checkpoint: users [0, users_done)
/// are folded into `agg`.
struct CheckpointState {
  std::uint64_t users_done{0};
  CampaignAggregates agg;
};

/// Atomically writes `state` (tmp + rename, versioned header, checksum
/// trailer). Returns false with a description in `error` on I/O failure.
[[nodiscard]] bool write_checkpoint(const std::string& path, const CampaignSpec& spec,
                                    const CheckpointState& state, std::string* error);

/// Loads and validates a checkpoint: magic, version, checksum, spec hash
/// and user count must all match. Any corruption or truncation yields
/// false and a description in `error` — never a silent partial resume.
[[nodiscard]] bool load_checkpoint(const std::string& path, const CampaignSpec& spec,
                                   CheckpointState* state, std::string* error);

struct CampaignOptions {
  /// Empty = no checkpointing (the campaign still quarantines and streams).
  std::string checkpoint_path;
  /// Continue from `checkpoint_path` (which must exist and validate).
  bool resume{false};
  /// Worker threads (0 = MPR_JOBS, else hardware_concurrency).
  int jobs{0};
  /// Install SIGINT/SIGTERM handlers for the duration of the run (CLI use;
  /// tests interrupt deterministically via stop_after_users instead).
  bool handle_signals{false};
  /// Deterministic interruption for tests: stop (checkpoint + return
  /// interrupted) once this many users are done. 0 = never.
  std::uint64_t stop_after_users{0};
  /// Test fault-injection hook, called in the worker before each user's
  /// run; may mutate the sampled configs or throw (a throw is quarantined
  /// exactly like a run-internal failure).
  std::function<void(std::uint64_t user, TestbedConfig& tb, RunConfig& rc)> user_hook;
};

struct CampaignResult {
  CampaignAggregates agg;
  std::uint64_t users_done{0};
  /// Stopped early by signal or stop_after_users; checkpoint written.
  bool interrupted{false};
  /// Stopped early because quarantined() exceeded the failure budget.
  bool budget_exhausted{false};
  int signal{0};  // the interrupting signal, when interrupted by one
};

/// Runs (or resumes) a campaign. Returns nullopt with a description in
/// `error` on a spec/checkpoint error; individual user failures never
/// surface here — they are quarantined into the aggregates.
[[nodiscard]] std::optional<CampaignResult> run_campaign(const CampaignSpec& spec,
                                                         const CampaignOptions& opt,
                                                         std::string* error = nullptr);

}  // namespace mpr::experiment
