// Population campaign engine: quantile-sketch accuracy and merge algebra,
// spec parsing, deterministic aggregation across job counts, checkpoint
// kill/resume bit-identity, failure quarantine, and checkpoint validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/qsketch.h"
#include "analysis/stats.h"
#include "check/audit.h"
#include "experiment/campaign.h"
#include "sim/rng.h"

namespace mpr::experiment {
namespace {

using analysis::QSketch;

// ---------------------------------------------------------------------------
// QSketch
// ---------------------------------------------------------------------------

TEST(QSketch, EmptySketchIsNaN) {
  const QSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.quantile(0.5)));
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(QSketch, ZeroAndNegativeValuesLandInZeroBucket) {
  QSketch s;
  s.add(0.0);
  s.add(-3.0);
  s.add(1e-15);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.zero_count(), 3u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(QSketch, RandomizedAccuracyVsExactQuantiles) {
  // Heavy-tailed sample spanning several decades: exactly what download
  // times look like. Every quantile estimate must sit within the advertised
  // relative accuracy of the exact rank statistic.
  constexpr double kAlpha = 0.01;
  sim::Rng rng{42};
  QSketch s{kAlpha};
  std::vector<double> exact;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.lognormal_median(0.5, 1.5);
    s.add(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const double truth =
        exact[static_cast<std::size_t>(q * static_cast<double>(exact.size() - 1))];
    const double est = s.quantile(q);
    EXPECT_LE(std::abs(est - truth), kAlpha * truth * (1.0 + 1e-9))
        << "q=" << q << " truth=" << truth << " est=" << est;
  }
  EXPECT_EQ(s.count(), exact.size());
  EXPECT_DOUBLE_EQ(s.min(), exact.front());
  EXPECT_DOUBLE_EQ(s.max(), exact.back());
}

TEST(QSketch, MergeIsExactOnCountsAndQuantiles) {
  sim::Rng rng{7};
  QSketch whole;
  QSketch parts[3];
  for (int i = 0; i < 3000; ++i) {
    const double v = rng.exponential(5.0);
    whole.add(v);
    parts[i % 3].add(v);
  }
  QSketch merged;
  // Note the parts interleave the original insertion order, so this also
  // exercises commutativity of the bucket counts.
  merged.merge(parts[0]);
  merged.merge(parts[1]);
  merged.merge(parts[2]);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.bucket_count(), whole.bucket_count());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q)) << "q=" << q;
  }
  EXPECT_NEAR(merged.sum(), whole.sum(), 1e-6 * whole.sum());
}

TEST(QSketch, MergeIsAssociativeOnBucketState) {
  sim::Rng rng{13};
  QSketch a, b, c;
  for (int i = 0; i < 1000; ++i) {
    a.add(rng.lognormal_median(1.0, 1.0));
    b.add(rng.exponential(2.0));
    c.add(rng.uniform(0.0, 100.0));
  }
  // (a ⊕ b) ⊕ c
  QSketch left;
  left.merge(a);
  left.merge(b);
  left.merge(c);
  // a ⊕ (b ⊕ c)
  QSketch bc;
  bc.merge(b);
  bc.merge(c);
  QSketch right;
  right.merge(a);
  right.merge(bc);
  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.zero_count(), right.zero_count());
  EXPECT_EQ(left.bucket_count(), right.bucket_count());
  EXPECT_DOUBLE_EQ(left.min(), right.min());
  EXPECT_DOUBLE_EQ(left.max(), right.max());
  for (const double q : {0.0, 0.05, 0.35, 0.5, 0.77, 0.95, 1.0}) {
    // Quantiles depend only on the (exactly associative) integer bucket
    // counts, so equality here is exact, not approximate.
    EXPECT_DOUBLE_EQ(left.quantile(q), right.quantile(q)) << "q=" << q;
  }
}

TEST(QSketch, MergeRejectsAlphaMismatch) {
  QSketch a{0.01};
  const QSketch b{0.02};
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(QSketch, SerializeRoundTripsBitIdentically) {
  sim::Rng rng{99};
  QSketch s{0.02};
  s.add(0.0);
  for (int i = 0; i < 5000; ++i) s.add(rng.lognormal_median(3.0, 2.0));

  std::string bytes;
  s.serialize(bytes);
  QSketch restored{0.5};  // alpha is restored from the encoding
  const char* cursor = bytes.data();
  ASSERT_TRUE(restored.deserialize(&cursor, bytes.data() + bytes.size()));
  EXPECT_EQ(cursor, bytes.data() + bytes.size());

  std::string again;
  restored.serialize(again);
  EXPECT_EQ(bytes, again);
  EXPECT_DOUBLE_EQ(restored.quantile(0.5), s.quantile(0.5));
  EXPECT_DOUBLE_EQ(restored.relative_accuracy(), 0.02);
}

TEST(QSketch, DeserializeRejectsTruncationAndGarbage) {
  QSketch s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  std::string bytes;
  s.serialize(bytes);

  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                                bytes.size() - 1}) {
    QSketch t;
    const char* cursor = bytes.data();
    EXPECT_FALSE(t.deserialize(&cursor, bytes.data() + cut)) << "cut=" << cut;
    EXPECT_EQ(t.count(), 0u) << "failed deserialize must leave the sketch empty";
  }

  std::string garbage(64, '\xff');
  QSketch t;
  const char* cursor = garbage.data();
  EXPECT_FALSE(t.deserialize(&cursor, garbage.data() + garbage.size()));
}

// ---------------------------------------------------------------------------
// Spec parsing + hashing
// ---------------------------------------------------------------------------

TEST(CampaignSpec, ParsesEveryKey) {
  std::istringstream in{R"(# population
users 500
seed 11
checkpoint-every 64
failure-budget 5
carrier att 0.5
carrier sprint 0.5
mode mp2 0.9
mode sp-wifi 0.1
cc olia 1.0
size 64k 0.75
size 2m 0.25
hotspot-prob 0.25
rtt-sigma 0.4
loss-scale 0.5 2.0
mbox-strip-prob 0.08
timeout 120
max-sim-time 300
max-events 5000000
)"};
  std::string error;
  const CampaignSpec spec = CampaignSpec::parse(in, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(spec.users, 500u);
  EXPECT_EQ(spec.seed, 11u);
  EXPECT_EQ(spec.checkpoint_every, 64u);
  EXPECT_EQ(spec.failure_budget, 5u);
  ASSERT_EQ(spec.carriers.size(), 2u);
  EXPECT_EQ(spec.carriers[1].first, Carrier::kSprint);
  ASSERT_EQ(spec.modes.size(), 2u);
  ASSERT_EQ(spec.ccs.size(), 1u);
  EXPECT_EQ(spec.ccs[0].first, core::CcKind::kOlia);
  ASSERT_EQ(spec.sizes.size(), 2u);
  EXPECT_EQ(spec.sizes[0].first, 64u * 1024);
  EXPECT_EQ(spec.sizes[1].first, 2u * 1024 * 1024);
  EXPECT_DOUBLE_EQ(spec.hotspot_prob, 0.25);
  EXPECT_DOUBLE_EQ(spec.rtt_sigma, 0.4);
  EXPECT_DOUBLE_EQ(spec.loss_scale_lo, 0.5);
  EXPECT_DOUBLE_EQ(spec.loss_scale_hi, 2.0);
  EXPECT_DOUBLE_EQ(spec.mbox_strip_prob, 0.08);
  EXPECT_DOUBLE_EQ(spec.timeout_s, 120.0);
  EXPECT_DOUBLE_EQ(spec.max_sim_time_s, 300.0);
  EXPECT_EQ(spec.max_events, 5000000u);
}

TEST(CampaignSpec, RejectsMalformedInputWithLineNumber) {
  const auto expect_error = [](const std::string& text, const std::string& needle) {
    std::istringstream in{text};
    std::string error;
    (void)CampaignSpec::parse(in, &error);
    EXPECT_FALSE(error.empty()) << text;
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  };
  expect_error("users 10\nbogus-key 3\n", "line 2");
  expect_error("carrier tmobile 1.0\n", "carrier");
  expect_error("mode mp2 -1\n", "mode");
  expect_error("mode mp3 1.0\n", "mode");
  expect_error("cc olai 1.0\n", "cc");
  expect_error("size 4x 1.0\n", "size");
  expect_error("size -1k 1.0\n", "size");
  expect_error("hotspot-prob 1.5\n", "hotspot-prob");
  expect_error("loss-scale 2.0 1.0\n", "loss-scale");
  expect_error("users 10 trailing\n", "trailing");
  expect_error("users 0\n", "users");
  // A sign on a count is an error, never a wrap to 2^64 - k.
  expect_error("users -1\n", "line 1: users");
  expect_error("seed 7\nseed -1\n", "line 2: seed");
  expect_error("checkpoint-every -2\n", "line 1: checkpoint-every");
  expect_error("failure-budget -1\n", "line 1: failure-budget");
  expect_error("max-events -1\n", "line 1: max-events");
  expect_error("users +8\n", "line 1: users");
  expect_error("users 18446744073709551616\n", "line 1: users");
  expect_error("rtt-sigma 1e300\n", "line 1: rtt-sigma");
}

TEST(CampaignSpec, HashCoversPopulationButNotCheckpointKnobs) {
  CampaignSpec a;
  CampaignSpec b = a;
  b.checkpoint_every = 123;
  b.failure_budget = 9;
  EXPECT_EQ(a.hash(), b.hash())
      << "checkpoint cadence must not invalidate an existing checkpoint";
  CampaignSpec c = a;
  c.seed = a.seed + 1;
  EXPECT_NE(a.hash(), c.hash());
  CampaignSpec d = a;
  d.mbox_strip_prob = 0.5;
  EXPECT_NE(a.hash(), d.hash());
}

TEST(CampaignSample, IsAPureFunctionOfSpecAndIndex) {
  CampaignSpec spec;
  spec.hotspot_prob = 0.3;
  spec.rtt_sigma = 0.5;
  spec.mbox_strip_prob = 0.2;
  spec.carriers = {{Carrier::kAtt, 0.5}, {Carrier::kVerizon, 0.5}};
  const SampledUser once = sample_user(spec, 17);
  const SampledUser again = sample_user(spec, 17);
  EXPECT_EQ(once.testbed.seed, again.testbed.seed);
  EXPECT_EQ(once.label, again.label);
  EXPECT_EQ(once.testbed.wifi.owd_down.ns(), again.testbed.wifi.owd_down.ns());
  // Different users draw different seeds (the population is not degenerate).
  EXPECT_NE(once.testbed.seed, sample_user(spec, 18).testbed.seed);
}

// ---------------------------------------------------------------------------
// Campaign engine
// ---------------------------------------------------------------------------

/// Small, fast population used by every engine test: 16 KiB downloads on
/// the default MP-2/coupled/AT&T configuration.
CampaignSpec tiny_spec(std::uint64_t users, std::uint64_t ckpt_every = 16) {
  CampaignSpec spec;
  spec.users = users;
  spec.seed = 5;
  spec.checkpoint_every = ckpt_every;
  spec.failure_budget = users;  // tests tighten this explicitly
  spec.sizes = {{16 * 1024, 1.0}};
  spec.timeout_s = 60.0;
  spec.max_sim_time_s = 120.0;
  return spec;
}

std::string serialized(const CampaignAggregates& agg) {
  std::string out;
  agg.serialize(out);
  return out;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "mpr_campaign_" + name;
}

TEST(Campaign, AccountsForEveryUser) {
  const CampaignSpec spec = tiny_spec(24);
  std::string error;
  const auto res = run_campaign(spec, CampaignOptions{}, &error);
  ASSERT_TRUE(res.has_value()) << error;
  EXPECT_EQ(res->users_done, 24u);
  EXPECT_FALSE(res->interrupted);
  EXPECT_FALSE(res->budget_exhausted);
  EXPECT_EQ(res->agg.users_accounted(), 24u);
  EXPECT_EQ(res->agg.download_time_s.count(), res->agg.completed);
  EXPECT_EQ(res->agg.cellular_fraction.count(), res->agg.completed);
  EXPECT_GT(res->agg.completed, 0u);
  EXPECT_GT(res->agg.delivered_bytes, 0u);
}

TEST(Campaign, BitIdenticalAcrossJobCounts) {
  const CampaignSpec spec = tiny_spec(32);
  std::string error;
  CampaignOptions serial;
  serial.jobs = 1;
  const auto one = run_campaign(spec, serial, &error);
  ASSERT_TRUE(one.has_value()) << error;
  CampaignOptions wide;
  wide.jobs = 8;
  const auto eight = run_campaign(spec, wide, &error);
  ASSERT_TRUE(eight.has_value()) << error;
  EXPECT_EQ(serialized(one->agg), serialized(eight->agg));
}

TEST(Campaign, KillAtRandomBoundaryThenResumeIsBitIdentical) {
  // Property test: interrupt the campaign at a random point, resume from
  // the checkpoint, and require the final aggregates to be byte-identical
  // to an uninterrupted run — at both job counts.
  const CampaignSpec spec = tiny_spec(48, /*ckpt_every=*/8);
  std::string error;
  const auto full = run_campaign(spec, CampaignOptions{}, &error);
  ASSERT_TRUE(full.has_value()) << error;
  const std::string expected = serialized(full->agg);

  sim::Rng rng{2024};
  for (const int jobs : {1, 8}) {
    for (int trial = 0; trial < 3; ++trial) {
      const auto stop_at =
          static_cast<std::uint64_t>(rng.uniform_int(1, static_cast<std::int64_t>(spec.users - 1)));
      const std::string ckpt =
          temp_path("resume_j" + std::to_string(jobs) + "_t" + std::to_string(trial) + ".ckpt");

      CampaignOptions first;
      first.checkpoint_path = ckpt;
      first.jobs = jobs;
      first.stop_after_users = stop_at;
      const auto killed = run_campaign(spec, first, &error);
      ASSERT_TRUE(killed.has_value()) << error;
      ASSERT_TRUE(killed->interrupted);
      ASSERT_LT(killed->users_done, spec.users);
      ASSERT_GE(killed->users_done, stop_at);

      CampaignOptions second;
      second.checkpoint_path = ckpt;
      second.jobs = jobs;
      second.resume = true;
      const auto resumed = run_campaign(spec, second, &error);
      ASSERT_TRUE(resumed.has_value()) << error;
      EXPECT_FALSE(resumed->interrupted);
      EXPECT_EQ(resumed->users_done, spec.users);
      EXPECT_EQ(serialized(resumed->agg), expected)
          << "jobs=" << jobs << " stop_at=" << stop_at;
      std::remove(ckpt.c_str());
    }
  }
}

TEST(Campaign, AuditErrorIsQuarantinedNotFatal) {
  CampaignSpec spec = tiny_spec(20);
  CampaignOptions opt;
  opt.user_hook = [](std::uint64_t user, TestbedConfig&, RunConfig&) {
    if (user % 5 == 0) throw check::synthetic_error("test.rule", "injected");
  };
  std::string error;
  const auto res = run_campaign(spec, opt, &error);
  ASSERT_TRUE(res.has_value()) << error;
  EXPECT_EQ(res->users_done, 20u);
  EXPECT_FALSE(res->budget_exhausted);
  EXPECT_EQ(res->agg.quarantined_audit, 4u);
  EXPECT_EQ(res->agg.users_accounted(), 20u);
  ASSERT_EQ(res->agg.quarantine.size(), 4u);
  EXPECT_EQ(res->agg.quarantine[0].user, 0u);
  EXPECT_EQ(res->agg.quarantine[0].reason, "audit:test.rule");
  EXPECT_FALSE(res->agg.quarantine[0].label.empty());
}

TEST(Campaign, WatchdogAbortIsQuarantined) {
  CampaignSpec spec = tiny_spec(12);
  CampaignOptions opt;
  opt.user_hook = [](std::uint64_t user, TestbedConfig&, RunConfig& rc) {
    if (user % 4 == 1) rc.max_events = 50;  // aborts long before the download ends
  };
  std::string error;
  const auto res = run_campaign(spec, opt, &error);
  ASSERT_TRUE(res.has_value()) << error;
  EXPECT_EQ(res->agg.quarantined_watchdog, 3u);
  EXPECT_EQ(res->agg.users_accounted(), 12u);
  ASSERT_GE(res->agg.quarantine.size(), 1u);
  EXPECT_EQ(res->agg.quarantine[0].reason, "watchdog");
}

TEST(Campaign, FailureBudgetStopsTheSweep) {
  CampaignSpec spec = tiny_spec(40, /*ckpt_every=*/8);
  spec.failure_budget = 3;
  CampaignOptions opt;
  opt.user_hook = [](std::uint64_t, TestbedConfig&, RunConfig&) {
    throw check::synthetic_error("test.flood", "every user fails");
  };
  std::string error;
  const auto res = run_campaign(spec, opt, &error);
  ASSERT_TRUE(res.has_value()) << error;
  EXPECT_TRUE(res->budget_exhausted);
  // The budget trips at the first block boundary past it, never later.
  EXPECT_EQ(res->users_done, 8u);
  EXPECT_EQ(res->agg.quarantined_audit, 8u);
}

TEST(Campaign, BudgetAbortStillWritesACheckpoint) {
  CampaignSpec spec = tiny_spec(40, /*ckpt_every=*/8);
  spec.failure_budget = 3;
  const std::string ckpt = temp_path("budget.ckpt");
  CampaignOptions opt;
  opt.checkpoint_path = ckpt;
  opt.user_hook = [](std::uint64_t, TestbedConfig&, RunConfig&) {
    throw check::synthetic_error("test.flood", "every user fails");
  };
  std::string error;
  const auto res = run_campaign(spec, opt, &error);
  ASSERT_TRUE(res.has_value()) << error;
  ASSERT_TRUE(res->budget_exhausted);
  CheckpointState state;
  ASSERT_TRUE(load_checkpoint(ckpt, spec, &state, &error)) << error;
  EXPECT_EQ(state.users_done, res->users_done);
  EXPECT_EQ(serialized(state.agg), serialized(res->agg));
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint validation
// ---------------------------------------------------------------------------

TEST(Checkpoint, RoundTripsState) {
  const CampaignSpec spec = tiny_spec(100);
  CheckpointState state;
  state.users_done = 32;
  state.agg.completed = 30;
  state.agg.timeouts = 1;
  state.agg.quarantined_audit = 1;
  state.agg.delivered_bytes = 123456;
  state.agg.download_time_s.add(1.5);
  state.agg.quarantine.push_back(
      QuarantineRecord{.user = 7, .seed = 99, .label = "MP-2/x", .reason = "audit:r"});
  const std::string path = temp_path("roundtrip.ckpt");
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, spec, state, &error)) << error;
  CheckpointState loaded;
  ASSERT_TRUE(load_checkpoint(path, spec, &loaded, &error)) << error;
  EXPECT_EQ(loaded.users_done, 32u);
  EXPECT_EQ(serialized(loaded.agg), serialized(state.agg));
  ASSERT_EQ(loaded.agg.quarantine.size(), 1u);
  EXPECT_EQ(loaded.agg.quarantine[0].label, "MP-2/x");
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsCorruptionTruncationAndMismatch) {
  const CampaignSpec spec = tiny_spec(100);
  CheckpointState state;
  state.users_done = 16;
  state.agg.completed = 16;
  state.agg.download_time_s.add(2.0);
  const std::string path = temp_path("valid.ckpt");
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, spec, state, &error)) << error;

  std::string bytes;
  {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = std::move(buf).str();
  }
  const auto write_raw = [](const std::string& p, const std::string& data) {
    std::ofstream out{p, std::ios::binary | std::ios::trunc};
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };
  CheckpointState loaded;

  // Flip one byte in the middle: the checksum must catch it.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  write_raw(path, flipped);
  EXPECT_FALSE(load_checkpoint(path, spec, &loaded, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  // Truncate: rejected, never a partial resume.
  write_raw(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(load_checkpoint(path, spec, &loaded, &error));

  // Not a checkpoint at all.
  write_raw(path, "definitely not a checkpoint");
  EXPECT_FALSE(load_checkpoint(path, spec, &loaded, &error));

  // Valid bytes, wrong population: the spec hash must refuse.
  write_raw(path, bytes);
  CampaignSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_FALSE(load_checkpoint(path, other, &loaded, &error));
  EXPECT_NE(error.find("spec mismatch"), std::string::npos) << error;

  // Missing file.
  std::remove(path.c_str());
  EXPECT_FALSE(load_checkpoint(path, spec, &loaded, &error));
}

TEST(Checkpoint, ResumeWithoutPathIsAnError) {
  CampaignOptions opt;
  opt.resume = true;
  std::string error;
  EXPECT_FALSE(run_campaign(tiny_spec(4), opt, &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace mpr::experiment
