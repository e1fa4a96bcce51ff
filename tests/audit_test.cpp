// Corruption-injection tests for the runtime invariant auditor: each test
// feeds a checker the exact corruption it exists to catch and asserts the
// structured violation (rule + context) comes back. The checker classes are
// always compiled, so this suite runs in MPR_AUDIT=OFF builds too; only the
// end-to-end tests (hooks armed inside the simulator) are audit-gated.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "check/audit.h"
#include "experiment/run.h"
#include "experiment/series.h"

namespace mpr::check {
namespace {

AuditViolation make_violation(std::string rule) {
  AuditViolation v;
  v.rule = std::move(rule);
  return v;
}

/// Captures violations for the current thread instead of throwing.
class Capture {
 public:
  Capture() : scoped_([this](const AuditViolation& v) { seen_.push_back(v); }) {}

  [[nodiscard]] const std::vector<AuditViolation>& seen() const { return seen_; }
  [[nodiscard]] bool saw(const std::string& rule) const {
    for (const AuditViolation& v : seen_)
      if (v.rule == rule) return true;
    return false;
  }

 private:
  std::vector<AuditViolation> seen_;
  ScopedAuditHandler scoped_;
};

TEST(AuditCore, DefaultHandlerThrowsWithContext) {
  try {
    AuditViolation v = make_violation("test.rule");
    v.detail = "boom";
    v.conn = 7;
    v.subflow = 2;
    v.dsn = 99;
    report(std::move(v));
    FAIL() << "report() with the default handler must throw";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.violation().rule, "test.rule");
    EXPECT_EQ(e.violation().conn, 7u);
    EXPECT_EQ(e.violation().subflow, 2);
    EXPECT_EQ(e.violation().dsn, 99u);
    EXPECT_NE(std::string(e.what()).find("test.rule"), std::string::npos);
  }
}

TEST(AuditCore, ViolationsCounterBumps) {
  const std::uint64_t before = violations_total();
  Capture cap;
  report(make_violation("test.count"));
  EXPECT_EQ(violations_total(), before + 1);
  EXPECT_EQ(cap.seen().size(), 1u);
}

TEST(AuditCore, ScopedHandlerRestoresThrowingDefault) {
  {
    Capture cap;
    report(make_violation("test.captured"));
    EXPECT_TRUE(cap.saw("test.captured"));
  }
  EXPECT_THROW(report(make_violation("test.after")), AuditError);
}

// --- event clock ------------------------------------------------------------

TEST(TimeMonotonic, BackwardsTimeIsViolation) {
  Capture cap;
  TimeMonotonicAudit clock;
  clock.on_event(100);
  clock.on_event(100);  // equal is fine (simultaneous events share a tick)
  clock.on_event(250);
  EXPECT_TRUE(cap.seen().empty());
  clock.on_event(249);  // corruption: time runs backwards
  EXPECT_TRUE(cap.saw("event.time_monotonic"));
}

// --- packet pool ledger -----------------------------------------------------

TEST(PoolLedger, DoubleReleaseIsViolation) {
  Capture cap;
  PoolLedger ledger;
  int a = 0;
  ledger.on_acquire(&a);
  ledger.on_release(&a);
  EXPECT_TRUE(cap.seen().empty());
  ledger.on_release(&a);  // corruption: same packet released twice
  EXPECT_TRUE(cap.saw("pool.double_release"));
}

TEST(PoolLedger, DoubleAcquireIsViolation) {
  Capture cap;
  PoolLedger ledger;
  int a = 0;
  ledger.on_acquire(&a);
  ledger.on_acquire(&a);  // corruption: handed out while outstanding
  EXPECT_TRUE(cap.saw("pool.double_acquire"));
}

TEST(PoolLedger, LeakAtTeardownIsViolation) {
  Capture cap;
  PoolLedger ledger;
  int a = 0;
  int b = 0;
  ledger.on_acquire(&a);
  ledger.on_acquire(&b);
  ledger.on_release(&a);
  EXPECT_EQ(ledger.outstanding(), 1u);
  ledger.on_teardown();  // reports via report_nothrow -> captured, not thrown
  EXPECT_TRUE(cap.saw("pool.leak"));
}

TEST(PoolLedger, BalancedTrafficIsClean) {
  Capture cap;
  PoolLedger ledger;
  int a = 0;
  for (int i = 0; i < 3; ++i) {
    ledger.on_acquire(&a);
    ledger.on_release(&a);
  }
  ledger.on_teardown();
  EXPECT_TRUE(cap.seen().empty());
}

// --- DSN space --------------------------------------------------------------

TEST(ConnAudit, DuplicateDeliveryIsViolation) {
  Capture cap;
  ConnAudit audit;
  audit.set_conn(1);
  audit.on_deliver(0, 1000, 10);
  audit.on_deliver(1000, 400, 20);
  EXPECT_TRUE(cap.seen().empty());
  audit.on_deliver(1000, 400, 30);  // corruption: reinjection double-delivers
  ASSERT_TRUE(cap.saw("dsn.deliver"));
  EXPECT_NE(cap.seen().back().detail.find("double delivery"), std::string::npos);
}

TEST(ConnAudit, DeliveryGapIsViolation) {
  Capture cap;
  ConnAudit audit;
  audit.on_deliver(0, 1000, 10);
  audit.on_deliver(3000, 500, 20);  // corruption: bytes [1000,3000) skipped
  ASSERT_TRUE(cap.saw("dsn.deliver"));
  EXPECT_NE(cap.seen().back().detail.find("gap"), std::string::npos);
}

TEST(ConnAudit, FreshMappingsMustTileContiguously) {
  Capture cap;
  ConnAudit audit;
  audit.on_send_chunk(0, 1400, /*reinject=*/false, 0, 10);
  audit.on_send_chunk(1400, 1400, /*reinject=*/false, 1, 20);
  EXPECT_TRUE(cap.seen().empty());
  EXPECT_EQ(audit.mapped_end(), 2800u);
  // Corruption: fresh mapping leaves a hole (or re-maps live space).
  audit.on_send_chunk(4200, 1400, /*reinject=*/false, 0, 30);
  EXPECT_TRUE(cap.saw("dsn.send_gap"));
}

TEST(ConnAudit, ReinjectOutsideMappedSpaceIsViolation) {
  Capture cap;
  ConnAudit audit;
  audit.on_send_chunk(0, 1400, /*reinject=*/false, 0, 10);
  audit.on_send_chunk(0, 1400, /*reinject=*/true, 1, 20);  // legal reinjection
  EXPECT_TRUE(cap.seen().empty());
  audit.on_send_chunk(700, 1400, /*reinject=*/true, 1, 30);  // tail unmapped
  EXPECT_TRUE(cap.saw("dsn.reinject_range"));
}

TEST(ConnAudit, EmptyMappingIsViolation) {
  Capture cap;
  ConnAudit audit;
  audit.on_send_chunk(0, 0, /*reinject=*/false, 0, 10);
  EXPECT_TRUE(cap.saw("dsn.empty_mapping"));
}

TEST(ConnAudit, DataAckPastMappedEdgeIsViolation) {
  Capture cap;
  ConnAudit audit;
  audit.on_send_chunk(0, 1400, /*reinject=*/false, 0, 10);
  audit.on_data_ack(1400, 20);
  EXPECT_TRUE(cap.seen().empty());
  audit.on_data_ack(2000, 30);  // corruption: acks bytes never mapped
  EXPECT_TRUE(cap.saw("dsn.ack_range"));
}

TEST(ConnAudit, DataAckRegressionIsViolation) {
  Capture cap;
  ConnAudit audit;
  audit.on_send_chunk(0, 2800, /*reinject=*/false, 0, 10);
  audit.on_data_ack(2800, 20);
  audit.on_data_ack(1400, 30);  // corruption: cumulative ack moves backwards
  EXPECT_TRUE(cap.saw("dsn.ack_regression"));
}

// --- congestion control -----------------------------------------------------

TEST(CcAudit, CwndBelowOneMssIsViolation) {
  Capture cap;
  cc_bounds(/*cwnd_bytes=*/700.0, /*ssthresh_bytes=*/2800, /*mss=*/1400);
  EXPECT_TRUE(cap.saw("cc.bounds"));
}

TEST(CcAudit, SsthreshBelowTwoMssIsViolation) {
  Capture cap;
  cc_bounds(/*cwnd_bytes=*/14000.0, /*ssthresh_bytes=*/1400, /*mss=*/1400);
  EXPECT_TRUE(cap.saw("cc.bounds"));
}

TEST(CcAudit, SaneWindowIsClean) {
  Capture cap;
  cc_bounds(/*cwnd_bytes=*/14000.0, /*ssthresh_bytes=*/2800, /*mss=*/1400);
  EXPECT_TRUE(cap.seen().empty());
}

TEST(CcAudit, AggregateIncreaseAboveRenoCapIsViolation) {
  Capture cap;
  // LIA/Reno (cap 1.0): adding twice the Reno reference violates RFC 6356 §4.
  cc_aggregate_increase(/*increase_bytes=*/200.0, /*reno_increase_bytes=*/100.0,
                        /*cap_factor=*/1.0);
  EXPECT_TRUE(cap.saw("cc.aggregate_increase"));
}

TEST(CcAudit, OliaCapToleratesRateBalancingTerm) {
  Capture cap;
  // OLIA (cap 1.5) may exceed Reno by its 0.5/w alpha term...
  cc_aggregate_increase(140.0, 100.0, /*cap_factor=*/1.5);
  EXPECT_TRUE(cap.seen().empty());
  // ...but not more, and never a decrease steeper than -0.5/w.
  cc_aggregate_increase(160.0, 100.0, /*cap_factor=*/1.5);
  EXPECT_TRUE(cap.saw("cc.aggregate_increase"));
  cc_aggregate_increase(-60.0, 100.0, /*cap_factor=*/1.5);
  EXPECT_EQ(cap.seen().size(), 2u);
}

TEST(CcAudit, VegasStepWithinOneMssIsClean) {
  Capture cap;
  cc_vegas_adjust(/*delta_bytes=*/1400.0, /*mss=*/1400, /*cwnd_bytes=*/14000.0);
  cc_vegas_adjust(-1400.0, 1400, 14000.0);
  cc_vegas_adjust(0.0, 1400, 14000.0);
  EXPECT_TRUE(cap.seen().empty());
}

TEST(CcAudit, VegasStepBeyondOneMssIsViolation) {
  Capture cap;
  // Corruption: a delay-based adjustment jumping by two MSS in one epoch.
  cc_vegas_adjust(/*delta_bytes=*/2800.0, /*mss=*/1400, /*cwnd_bytes=*/14000.0);
  EXPECT_TRUE(cap.saw("cc.vegas_adjust"));
}

TEST(CcAudit, VegasCwndBelowFloorIsViolation) {
  Capture cap;
  cc_vegas_adjust(/*delta_bytes=*/-1400.0, /*mss=*/1400, /*cwnd_bytes=*/700.0);
  EXPECT_TRUE(cap.saw("cc.vegas_adjust"));
}

// --- scheduler --------------------------------------------------------------

TEST(SchedAudit, PositiveFiniteWeightsAreClean) {
  Capture cap;
  scheduler_weights_valid({}, 1);
  scheduler_weights_valid({1.0, 3.5, 0.25}, 1);
  EXPECT_TRUE(cap.seen().empty());
}

TEST(SchedAudit, NonPositiveOrNanWeightIsViolation) {
  Capture cap;
  scheduler_weights_valid({1.0, 0.0}, 1);  // corruption: zero share
  EXPECT_TRUE(cap.saw("sched.weights"));
  scheduler_weights_valid({-2.0}, 1);
  scheduler_weights_valid({std::nan("")}, 1);
  EXPECT_EQ(cap.seen().size(), 3u);
}

TEST(SchedAudit, StarvedSubflowAheadOfSpaceIsViolation) {
  Capture cap;
  // Space-partitioned order: both fine...
  scheduler_pump_order({{true, 10, 0.0}, {false, 20, 0.0}},
                       /*partition_by_space=*/true, /*order_by_srtt=*/false, 1, 10);
  EXPECT_TRUE(cap.seen().empty());
  // ...corruption: a cwnd-exhausted subflow pumped before one with space
  // (the exact round-robin bug this PR fixes).
  scheduler_pump_order({{false, 10, 0.0}, {true, 20, 0.0}},
                       /*partition_by_space=*/true, /*order_by_srtt=*/false, 1, 20);
  EXPECT_TRUE(cap.saw("sched.starvation"));
}

TEST(SchedAudit, SrttRegressionInMinRttOrderIsViolation) {
  Capture cap;
  scheduler_pump_order({{true, 10, 0.0}, {true, 30, 0.0}},
                       /*partition_by_space=*/false, /*order_by_srtt=*/true, 1, 10);
  EXPECT_TRUE(cap.seen().empty());
  scheduler_pump_order({{true, 30, 0.0}, {true, 10, 0.0}},
                       /*partition_by_space=*/false, /*order_by_srtt=*/true, 1, 20);
  EXPECT_TRUE(cap.saw("sched.order"));
}

TEST(SchedAudit, DeficitRegressionInRoundRobinOrderIsViolation) {
  Capture cap;
  scheduler_pump_order({{true, 0, 100.0}, {true, 0, 200.0}, {false, 0, 50.0}},
                       /*partition_by_space=*/true, /*order_by_srtt=*/false, 1, 10);
  EXPECT_TRUE(cap.seen().empty());
  // Corruption: within the has-space class the deficit runs backwards.
  scheduler_pump_order({{true, 0, 200.0}, {true, 0, 100.0}},
                       /*partition_by_space=*/true, /*order_by_srtt=*/false, 1, 20);
  EXPECT_TRUE(cap.saw("sched.order"));
}

TEST(SchedAudit, RedundantCopyBackToOriginIsViolation) {
  Capture cap;
  redundant_duplicate(/*origin=*/0, /*target=*/1, 1, 2800, 10);
  EXPECT_TRUE(cap.seen().empty());
  redundant_duplicate(/*origin=*/1, /*target=*/1, 1, 2800, 20);  // corruption
  EXPECT_TRUE(cap.saw("sched.redundant_origin"));
}

// --- state machines ---------------------------------------------------------

TEST(TransitionAudit, IllegalEdgeIsViolation) {
  const TransitionAudit table{"test.transition",
                              {"Closed", "Open", "Done"},
                              {{0, 1}, {1, 2}}};
  Capture cap;
  table.on_transition(0, 1, 1, -1, 10);
  table.on_transition(1, 1, 1, -1, 20);  // self-transition always allowed
  table.on_transition(1, 2, 1, -1, 30);
  EXPECT_TRUE(cap.seen().empty());
  table.on_transition(2, 0, 1, -1, 40);  // corruption: Done -> Closed
  ASSERT_TRUE(cap.saw("test.transition"));
  EXPECT_NE(cap.seen().back().detail.find("Done"), std::string::npos);
  EXPECT_NE(cap.seen().back().detail.find("Closed"), std::string::npos);
}

TEST(TransitionAudit, WildcardTargetAlwaysAllowed) {
  const TransitionAudit table{"test.transition", {"A", "B", "Reset"}, {{0, 1}}, /*wildcard_to=*/2};
  Capture cap;
  table.on_transition(0, 2, 1, -1, 10);
  table.on_transition(1, 2, 1, -1, 20);
  EXPECT_TRUE(cap.seen().empty());
}

// --- auditor service --------------------------------------------------------

TEST(Auditor, AggregatesChecksAcrossConnections) {
  Capture cap;
  Auditor auditor;
  ConnAudit& a = auditor.make_conn(1);
  ConnAudit& b = auditor.make_conn(2);
  a.on_send_chunk(0, 1400, false, 0, 10);
  b.on_deliver(0, 1000, 10);
  EXPECT_TRUE(cap.seen().empty());
  EXPECT_GT(auditor.checks(), 0u);
  EXPECT_EQ(auditor.checks(), a.checks() + b.checks());
}

// --- end to end (hooks armed only when MPR_AUDIT=ON) ------------------------

TEST(AuditE2E, DownloadRunsCleanWithHooksArmed) {
#if !MPR_AUDIT
  GTEST_SKIP() << "requires -DMPR_AUDIT=ON";
#else
  const std::uint64_t violations_before = violations_total();
  experiment::TestbedConfig tb;
  experiment::RunConfig rc;
  rc.mode = experiment::PathMode::kMptcp2;
  rc.file_bytes = 256 << 10;
  const experiment::RunResult r = experiment::run_download(tb, rc);
  EXPECT_TRUE(r.completed);
  // Zero checks under an audit build means the hooks were compiled out or
  // never wired -- as much of a bug as a violation.
  EXPECT_GT(r.sim_stats.audit_checks, 0u);
  EXPECT_EQ(violations_total(), violations_before);
#endif
}

TEST(AuditE2E, VegasDownloadRunsCleanWithHooksArmed) {
#if !MPR_AUDIT
  GTEST_SKIP() << "requires -DMPR_AUDIT=ON";
#else
  const std::uint64_t violations_before = violations_total();
  experiment::TestbedConfig tb;
  experiment::RunConfig rc;
  rc.mode = experiment::PathMode::kMptcp2;
  rc.cc = core::CcKind::kVegas;
  rc.file_bytes = 512 << 10;
  const experiment::RunResult r = experiment::run_download(tb, rc);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.sim_stats.audit_checks, 0u);
  EXPECT_EQ(violations_total(), violations_before);
#endif
}

TEST(AuditE2E, WeightedAndRedundantSurviveFaultsAndMiddleboxes) {
#if !MPR_AUDIT
  GTEST_SKIP() << "requires -DMPR_AUDIT=ON";
#else
  // The hostile end-to-end case for the new schedulers: a WiFi blackout, a
  // bursty-loss episode, segment split/coalesce middleboxes AND a mid-run
  // strategy switch, with every checker armed (throwing handler). Delivery
  // must stay exactly-once and violation-free.
  for (const core::SchedulerKind sched :
       {core::SchedulerKind::kWeighted, core::SchedulerKind::kRedundant}) {
    const std::uint64_t violations_before = violations_total();
    experiment::TestbedConfig tb;
    experiment::RunConfig rc;
    rc.mode = experiment::PathMode::kMptcp2;
    rc.scheduler = sched;
    if (sched == core::SchedulerKind::kWeighted) rc.scheduler_weights = {3.0, 1.0};
    rc.file_bytes = 1 << 20;
    rc.faults.outage(1.0, "wifi")
        .restore(3.0, "wifi")
        .burst_loss(4.0, "cell",
                    {.p_good_to_bad = 0.1, .p_bad_to_good = 0.3, .loss_good = 0.01,
                     .loss_bad = 0.4})
        .loss_clear(6.0, "cell")
        .middlebox(0.0, "wifi", netem::MboxOp::kSplit, 2)
        .middlebox(0.0, "cell", netem::MboxOp::kCoalesce, 2)
        .scheduler_change(2.0, "rr")
        .scheduler_change(5.0, to_string(sched),
                          sched == core::SchedulerKind::kWeighted
                              ? std::vector<double>{3.0, 1.0}
                              : std::vector<double>{});
    const experiment::RunResult r = experiment::run_download(tb, rc);
    ASSERT_TRUE(r.completed) << to_string(sched);
    EXPECT_EQ(r.delivered_bytes, rc.file_bytes) << to_string(sched);
    EXPECT_GT(r.sim_stats.audit_checks, 0u);
    EXPECT_EQ(violations_total(), violations_before) << to_string(sched);
  }
#endif
}

TEST(AuditE2E, AuditedMatrixIsBitIdenticalAcrossJobCounts) {
#if !MPR_AUDIT
  GTEST_SKIP() << "requires -DMPR_AUDIT=ON";
#else
  // The audit hooks must not perturb scheduling: MPR_JOBS=1 and =8 must
  // still produce bitwise-identical results with every checker armed.
  experiment::TestbedConfig tb;
  experiment::RunConfig rc;
  rc.mode = experiment::PathMode::kMptcp2;
  rc.file_bytes = 64 << 10;
  const std::vector<experiment::MatrixEntry> entries{{"mp", tb, rc}};
  const std::uint64_t violations_before = violations_total();
  const auto serial = experiment::run_matrix(entries, 4, 42, /*jobs=*/1);
  const auto parallel = experiment::run_matrix(entries, 4, 42, /*jobs=*/8);
  EXPECT_EQ(violations_total(), violations_before);
  ASSERT_EQ(serial.at("mp").size(), parallel.at("mp").size());
  for (std::size_t i = 0; i < serial.at("mp").size(); ++i) {
    const experiment::RunResult& a = serial.at("mp")[i];
    const experiment::RunResult& b = parallel.at("mp")[i];
    EXPECT_EQ(a.download_time_s, b.download_time_s) << i;
    EXPECT_EQ(a.delivered_bytes, b.delivered_bytes) << i;
    EXPECT_EQ(a.reinjections, b.reinjections) << i;
    EXPECT_EQ(a.sim_stats.events_executed, b.sim_stats.events_executed) << i;
    EXPECT_EQ(a.sim_stats.audit_checks, b.sim_stats.audit_checks) << i;
  }
#endif
}

}  // namespace
}  // namespace mpr::check
