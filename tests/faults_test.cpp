// Fault-injection subsystem tests.
//
// Covers the scenario timeline itself (parser, injector bookkeeping) and the
// failure-path hardening it exercises end to end:
//   * the acceptance scenario — a scripted 10 s WiFi blackout in the middle
//     of a 32 MB download: 2-path MPTCP completes with every byte delivered
//     exactly once (stranded DSNs reinjected over cellular) while
//     single-path TCP over the same WiFi stalls for the blackout,
//   * determinism — the same seed + schedule is bit-identical at any job
//     count (run_series jobs=1 vs jobs=2),
//   * MP_JOIN SYN loss — an outage or Bernoulli loss spanning the join is
//     recovered by the connection-level join retry,
//   * ADD_ADDR under loss — a 4-path connection still raises all subflows,
//   * interface down/up — REMOVE_ADDR then re-join mid-download,
//   * all paths dead — the connection errors out instead of hanging,
//   * randomized schedules replayed across reno/coupled/OLIA keep the
//     exactly-once in-order invariant, cross-validated against the
//     tcptrace-style analyzer's per-flow packet accounting.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "analysis/trace_analyzer.h"
#include "app/http.h"
#include "core/connection.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "experiment/series.h"
#include "experiment/testbed.h"
#include "netem/faults.h"

namespace mpr {
namespace {

using core::CcKind;
using experiment::PathMode;
using experiment::RunConfig;
using experiment::RunResult;
using experiment::TestbedConfig;
using netem::FaultEvent;
using netem::FaultSchedule;

// ---------------------------------------------------------------------------
// Scenario parser.

TEST(FaultSchedule, ParsesScenarioText) {
  std::istringstream in{
      "# comment line\n"
      "2.0  wifi  outage\n"
      "12.0 wifi  restore   # trailing comment\n"
      "3.0  cellular rate 0.25\n"
      "4.0  cell  delay 120\n"
      "6.0  wifi  burstloss 0.01 0.3 0.02 0.4\n"
      "9.0  wifi  lossclear\n"
      "20.0 wifi  ifdown\n"
      "30.0 wifi  ifup\n"
      "\n"};
  std::string error;
  const FaultSchedule s = FaultSchedule::parse(in, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(s.size(), 8u);
  EXPECT_EQ(s.events()[0].kind, FaultEvent::Kind::kOutage);
  EXPECT_EQ(s.events()[0].at, sim::Duration::seconds(2));
  EXPECT_EQ(s.events()[0].link, "wifi");
  EXPECT_EQ(s.events()[2].link, "cell");  // "cellular" normalized
  EXPECT_EQ(s.events()[2].kind, FaultEvent::Kind::kRateScale);
  EXPECT_DOUBLE_EQ(s.events()[2].a, 0.25);
  EXPECT_EQ(s.events()[4].kind, FaultEvent::Kind::kBurstLoss);
  EXPECT_DOUBLE_EQ(s.events()[4].d, 0.4);
  EXPECT_EQ(s.events()[7].kind, FaultEvent::Kind::kIfaceUp);
}

TEST(FaultSchedule, RejectsMalformedLines) {
  const auto expect_error = [](const std::string& text) {
    std::istringstream in{text};
    std::string error;
    const FaultSchedule s = FaultSchedule::parse(in, &error);
    EXPECT_FALSE(error.empty()) << "accepted: " << text;
    EXPECT_TRUE(s.empty());
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  };
  expect_error("2.0 wifi explode\n");           // unknown action
  expect_error("abc wifi outage\n");            // bad time
  expect_error("-1 wifi outage\n");             // negative time
  expect_error("2.0 wifi rate\n");              // missing arg
  expect_error("2.0 wifi burstloss 0.1 0.2\n"); // too few args
  expect_error("2.0 wifi\n");                   // missing action
}

TEST(FaultInjector, CountsUnmatchedLinks) {
  TestbedConfig cfg;
  cfg.seed = 1;
  experiment::Testbed tb{cfg};
  netem::FaultInjector injector{tb.sim()};
  injector.bind("wifi", &tb.wifi_access());
  FaultSchedule s;
  s.outage(0.5, "wifi").outage(0.5, "satellite").restore(1.0, "wifi");
  injector.install(s);
  const sim::TimePoint deadline = tb.sim().now() + sim::Duration::seconds(2);
  while (tb.sim().now() < deadline && tb.sim().events().step()) {
  }
  EXPECT_EQ(injector.applied_events(), 2u);
  EXPECT_EQ(injector.unmatched_events(), 1u);
}

// ---------------------------------------------------------------------------
// Acceptance scenario: 10 s WiFi blackout in the middle of a 32 MB download.

constexpr std::uint64_t kBlackoutObject = 32ull << 20;

FaultSchedule wifi_blackout() {
  return FaultSchedule{}.outage(2.0, "wifi").restore(12.0, "wifi");
}

RunConfig blackout_run(PathMode mode) {
  RunConfig rc;
  rc.mode = mode;
  rc.file_bytes = kBlackoutObject;
  rc.timeout = sim::Duration::seconds(600);
  rc.faults = wifi_blackout();
  return rc;
}

TEST(OutageRecovery, MptcpCompletesThroughBlackoutExactlyOnce) {
  const TestbedConfig tb;  // default seed, home WiFi + AT&T LTE
  // Two reps through the campaign runner at different job counts: the same
  // seed + schedule must be bit-identical regardless of MPR_JOBS.
  const std::vector<RunResult> serial =
      experiment::run_series(tb, blackout_run(PathMode::kMptcp2), 2, 42, /*jobs=*/1);
  const std::vector<RunResult> threaded =
      experiment::run_series(tb, blackout_run(PathMode::kMptcp2), 2, 42, /*jobs=*/2);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(threaded.size(), 2u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const RunResult& a = serial[i];
    const RunResult& b = threaded[i];
    ASSERT_TRUE(a.completed) << "rep " << i;
    EXPECT_FALSE(a.failed);
    // Exactly-once delivery: the reorder buffer handed the app precisely the
    // object, despite duplicates absorbed from reinjected data.
    EXPECT_EQ(a.delivered_bytes, kBlackoutObject);
    // The blackout stranded in-flight WiFi data; it was reinjected.
    EXPECT_GT(a.reinjections, 0u);
    // Cellular carried the transfer through the outage.
    EXPECT_GT(a.cellular.bytes_received, a.wifi.bytes_received);
    // Bit-identical across job counts.
    EXPECT_EQ(a.download_time_s, b.download_time_s);
    EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
    EXPECT_EQ(a.duplicate_packets, b.duplicate_packets);
    EXPECT_EQ(a.reinjections, b.reinjections);
    EXPECT_EQ(a.wifi.bytes_received, b.wifi.bytes_received);
    EXPECT_EQ(a.cellular.bytes_received, b.cellular.bytes_received);
    EXPECT_EQ(a.wifi.data_packets_sent, b.wifi.data_packets_sent);
    EXPECT_EQ(a.cellular.data_packets_sent, b.cellular.data_packets_sent);
  }
}

TEST(OutageRecovery, SinglePathWifiStallsForTheBlackout) {
  const TestbedConfig tb;
  RunConfig sp_fault = blackout_run(PathMode::kSingleWifi);
  RunConfig sp_clean = sp_fault;
  sp_clean.faults = FaultSchedule{};

  const RunResult faulted = experiment::run_download(tb, sp_fault);
  const RunResult clean = experiment::run_download(tb, sp_clean);
  ASSERT_TRUE(faulted.completed);
  ASSERT_TRUE(clean.completed);
  EXPECT_EQ(faulted.delivered_bytes, kBlackoutObject);
  // Single-path TCP has nowhere to go: it pays at least ~the outage length
  // (10 s blackout minus the head start already delivered by t=2 s).
  EXPECT_GE(faulted.download_time_s - clean.download_time_s, 8.0);

  // MPTCP over the same faulted testbed routes around the blackout and beats
  // single-path by a wide margin.
  const RunResult mp = experiment::run_download(tb, blackout_run(PathMode::kMptcp2));
  ASSERT_TRUE(mp.completed);
  EXPECT_LT(mp.download_time_s, faulted.download_time_s - 5.0);
}

// ---------------------------------------------------------------------------
// Manual-testbed harness (mirrors mptcp_property_test.cpp) so tests can
// reach the connection object and the packet trace.

struct FaultOutcome {
  bool completed{false};
  bool failed{false};         // client connection errored out
  bool server_failed{false};  // any server-side connection errored out
  bool dsn_in_order{true};
  std::uint64_t conn_delivered{0};
  std::uint64_t next_dsn{0};
  std::uint64_t duplicates{0};
  std::size_t subflows{0};
  std::size_t established_subflows{0};
  std::uint64_t reinjections{0};  // client + server side
  double finish_s{0};
};

struct FaultCase {
  FaultSchedule faults;
  CcKind cc{CcKind::kCoupled};
  std::uint64_t bytes{4ull << 20};
  std::uint64_t seed{11};
  bool mp4{false};
  bool capture_trace{false};
  double deadline_s{300};
  core::MptcpConfig cfg;  // subflow knobs
};

FaultOutcome run_faulted(const FaultCase& fc, experiment::Testbed* keep_tb = nullptr) {
  TestbedConfig tb_cfg;
  tb_cfg.seed = fc.seed;
  tb_cfg.capture_trace = fc.capture_trace;
  // keep_tb lets callers inspect the trace after the run; the testbed must
  // then live in the caller's frame.
  experiment::Testbed local_tb{tb_cfg};
  experiment::Testbed& tb = keep_tb ? *keep_tb : local_tb;

  core::MptcpConfig cfg = fc.cfg;
  cfg.cc = fc.cc;

  std::vector<net::IpAddr> advertise;
  if (fc.mp4) advertise.push_back(experiment::kServerAddr2);
  app::MptcpHttpServer server{tb.server(), experiment::kHttpPort, cfg, advertise,
                              [&fc](std::uint64_t) { return fc.bytes; }};
  app::MptcpHttpClient client{
      tb.client(), cfg,
      {experiment::kClientWifiAddr, experiment::kClientCellAddr},
      net::SocketAddr{experiment::kServerAddr1, experiment::kHttpPort}};

  netem::FaultInjector injector{tb.sim()};
  injector.bind("wifi", &tb.wifi_access());
  injector.bind("cell", &tb.cell_access());
  injector.on_iface_down = [&client](const std::string& link) {
    client.connection().remove_local_addr(link == "wifi" ? experiment::kClientWifiAddr
                                                         : experiment::kClientCellAddr);
  };
  injector.on_iface_up = [&client](const std::string& link) {
    client.connection().add_local_addr(link == "wifi" ? experiment::kClientWifiAddr
                                                      : experiment::kClientCellAddr);
  };
  injector.install(fc.faults);

  FaultOutcome out;
  auto inner = client.connection().on_data;
  client.connection().on_data = [&, inner](std::uint64_t dsn, std::uint32_t len) {
    if (dsn != out.next_dsn) out.dsn_in_order = false;
    out.next_dsn = dsn + len;
    if (inner) inner(dsn, len);
  };
  bool done = false;
  client.get(fc.bytes, [&](const app::FetchResult&) { done = true; });
  const sim::TimePoint deadline =
      tb.sim().now() + sim::Duration::from_seconds(fc.deadline_s);
  while (!done && !client.connection().failed() && tb.sim().now() < deadline &&
         tb.sim().events().step()) {
  }

  out.completed = done;
  out.failed = client.connection().failed();
  out.finish_s = tb.sim().now().to_seconds();
  out.conn_delivered = client.connection().rx().delivered_bytes();
  out.duplicates = client.connection().rx().duplicate_packets();
  // Reinjection happens at the data sender: the server strands and re-sends
  // the dead subflow's DSNs. Count both directions.
  out.reinjections = client.connection().reinjected_chunks();
  for (core::MptcpConnection* conn : server.connections()) {
    out.reinjections += conn->reinjected_chunks();
    out.server_failed = out.server_failed || conn->failed();
  }
  for (const core::MptcpSubflow* sf : client.connection().subflows()) {
    ++out.subflows;
    if (sf->state() == tcp::TcpState::kEstablished) ++out.established_subflows;
  }
  return out;
}

// ---------------------------------------------------------------------------
// MP_JOIN SYN loss: a cellular outage spanning the join phase exhausts the
// TCP-level SYN retries; the connection-level retry must bring the second
// path up once the outage clears.

TEST(JoinRecovery, JoinSynsLostToOutageAreRetried) {
  FaultCase fc;
  // Big enough that the download is still running when the cellular path
  // finally comes up (give-up ~3.3 s, retry lands just after the restore).
  fc.bytes = 16ull << 20;
  fc.seed = 5;
  // Outage from before the join until t=4 s; 1 TCP retry means the endpoint
  // gives up during the blackout and only the connection-level backoff can
  // recover the path.
  fc.faults.outage(0.0, "cell").restore(4.0, "cell");
  fc.cfg.subflow.max_syn_retries = 1;
  const FaultOutcome out = run_faulted(fc);
  ASSERT_TRUE(out.completed);
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.conn_delivered, fc.bytes);
  EXPECT_TRUE(out.dsn_in_order);
  // The cellular subflow eventually joined despite the lost SYNs. The
  // given-up first join attempt stays in the list (closed) beside the
  // retried one.
  EXPECT_GE(out.subflows, 2u);
  EXPECT_EQ(out.established_subflows, 2u);
}

TEST(JoinRecovery, JoinSurvivesBernoulliLossEpisode) {
  FaultCase fc;
  fc.bytes = 2ull << 20;
  fc.seed = 6;
  // 40% i.i.d. loss (Gilbert-Elliott with identical state loss rates) on
  // cellular across the join phase: SYNs and SYN-ACKs are dropped at random,
  // exercising both TCP-level SYN retransmission and the join retry.
  fc.faults
      .burst_loss(0.0, "cell",
                  {.p_good_to_bad = 0.5, .p_bad_to_good = 0.5, .loss_good = 0.4, .loss_bad = 0.4})
      .loss_clear(6.0, "cell");
  const FaultOutcome out = run_faulted(fc);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.conn_delivered, fc.bytes);
  EXPECT_TRUE(out.dsn_in_order);
  EXPECT_EQ(out.established_subflows, 2u);
}

TEST(JoinRecovery, AddAddrPathsComeUpUnderLoss) {
  FaultCase fc;
  fc.bytes = 2ull << 20;
  fc.seed = 7;
  fc.mp4 = true;
  // Heavy loss on the initial (WiFi) path while ADD_ADDR and the extra
  // MP_JOINs are exchanged: all four subflows must still come up.
  fc.faults
      .burst_loss(0.0, "wifi",
                  {.p_good_to_bad = 0.5, .p_bad_to_good = 0.5, .loss_good = 0.3, .loss_bad = 0.3})
      .loss_clear(5.0, "wifi");
  const FaultOutcome out = run_faulted(fc);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.conn_delivered, fc.bytes);
  EXPECT_TRUE(out.dsn_in_order);
  EXPECT_EQ(out.subflows, 4u);
  EXPECT_EQ(out.established_subflows, 4u);
}

// ---------------------------------------------------------------------------
// Interface down/up: REMOVE_ADDR tears the WiFi subflow down, re-ADD_ADDR
// re-joins it, and the transfer still delivers exactly once.

TEST(InterfaceEvents, RemoveAddrThenRejoinMidDownload) {
  FaultCase fc;
  fc.bytes = 8ull << 20;
  fc.seed = 9;
  fc.faults.iface_down(2.0, "wifi").iface_up(6.0, "wifi");
  const FaultOutcome out = run_faulted(fc);
  ASSERT_TRUE(out.completed);
  EXPECT_FALSE(out.failed);
  EXPECT_EQ(out.conn_delivered, fc.bytes);
  EXPECT_TRUE(out.dsn_in_order);
  // The WiFi subflow was killed and re-joined: the dead one stays in the
  // subflow list (closed) next to the replacement.
  EXPECT_GE(out.subflows, 3u);
  EXPECT_GT(out.reinjections, 0u);
}

// ---------------------------------------------------------------------------
// All paths dead: the connection must error out, not hang. Each deadline
// keeps a fixed margin over the dead-path timeout.

constexpr double kDeadS = core::kAllPathsDeadTimeout.to_seconds();

TEST(AllPathsDead, ClientFailsWhenEveryInterfaceGoesAway) {
  FaultCase fc;
  fc.bytes = 8ull << 20;
  fc.seed = 13;
  fc.deadline_s = kDeadS + 115;
  // Both interfaces are removed at t=1.5 s and never return (walked out of
  // range of everything). REMOVE_ADDR kills every subflow at the client;
  // with no viable path past the deadline the client app gets an error.
  fc.faults.iface_down(1.5, "wifi").iface_down(1.5, "cell");
  const FaultOutcome out = run_faulted(fc);
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.failed) << "connection must fail, not hang until the test deadline";
  // Failure arrives around interface removal + the dead deadline — far
  // before the harness deadline.
  EXPECT_LT(out.finish_s, kDeadS + 55);
}

TEST(AllPathsDead, SenderFailsDuringEndlessBlackout) {
  FaultCase fc;
  fc.bytes = 8ull << 20;
  fc.seed = 13;
  fc.deadline_s = kDeadS + 25;
  // Silent blackout of both links: no interface events, every packet
  // dropped. Only the data sender (the server, which has unacked data and
  // sees the RTO spiral) can detect this — exactly TCP's ETIMEDOUT
  // semantics; an idle receiver has no signal to act on.
  fc.faults.outage(1.5, "wifi").outage(1.5, "cell");
  const FaultOutcome out = run_faulted(fc);
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.server_failed) << "the sender must error out of the RTO spiral";
}

TEST(AllPathsDead, InitialHandshakeGivesUpWithError) {
  FaultCase fc;
  fc.bytes = 1ull << 20;
  fc.seed = 14;
  fc.deadline_s = kDeadS + 115;
  fc.faults.outage(0.0, "wifi").outage(0.0, "cell");  // nothing ever gets out
  fc.cfg.subflow.max_syn_retries = 2;
  const FaultOutcome out = run_faulted(fc);
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.failed);
}

// ---------------------------------------------------------------------------
// Randomized fault schedules, replayed across congestion controllers. The
// cellular path stays clean so delivery is always possible; WiFi takes a
// deterministic pseudo-random beating. Invariants: exactly-once in-order
// delivery, and the client-side byte count cross-checks against the
// tcptrace-style analyzer over the packet capture.

FaultSchedule random_wifi_schedule(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::uniform_real_distribution<double> when{0.5, 8.0};
  std::uniform_real_distribution<double> frac{0.0, 1.0};
  FaultSchedule s;
  // 1-2 blackout episodes.
  const int outages = 1 + static_cast<int>(rng() % 2);
  for (int i = 0; i < outages; ++i) {
    const double t = when(rng);
    s.outage(t, "wifi").restore(t + 0.5 + 3.0 * frac(rng), "wifi");
  }
  // A bursty-loss episode.
  const double lt = when(rng);
  s.burst_loss(lt, "wifi",
               {.p_good_to_bad = 0.05 + 0.2 * frac(rng),
                .p_bad_to_good = 0.2 + 0.3 * frac(rng),
                .loss_good = 0.01 * frac(rng),
                .loss_bad = 0.3 + 0.4 * frac(rng)})
      .loss_clear(lt + 1.0 + 3.0 * frac(rng), "wifi");
  // A rate dip and a delay spike.
  const double rt = when(rng);
  s.rate_scale(rt, "wifi", 0.1 + 0.4 * frac(rng)).rate_scale(rt + 2.0, "wifi", 1.0);
  const double dt = when(rng);
  s.delay_add(dt, "wifi", 20.0 + 150.0 * frac(rng)).delay_add(dt + 2.0, "wifi", 0.0);
  return s;
}

using FaultSweepParams = std::tuple<CcKind, std::uint64_t /*schedule seed*/>;

class RandomFaultSweep : public ::testing::TestWithParam<FaultSweepParams> {};

TEST_P(RandomFaultSweep, ExactlyOnceInOrderUnderRandomSchedule) {
  const auto [cc, sched_seed] = GetParam();
  FaultCase fc;
  fc.cc = cc;
  fc.bytes = 4ull << 20;
  fc.seed = 100 + sched_seed;
  fc.faults = random_wifi_schedule(sched_seed);
  fc.capture_trace = true;

  TestbedConfig tb_cfg;
  tb_cfg.seed = fc.seed;
  tb_cfg.capture_trace = true;
  experiment::Testbed tb{tb_cfg};
  const FaultOutcome out = run_faulted(fc, &tb);

  ASSERT_TRUE(out.completed) << "cc=" << static_cast<int>(cc) << " sched=" << sched_seed;
  EXPECT_FALSE(out.failed);
  EXPECT_TRUE(out.dsn_in_order);
  EXPECT_EQ(out.conn_delivered, fc.bytes);
  EXPECT_EQ(out.next_dsn, fc.bytes) << "no bytes past the object may reach the app";

  // Cross-validate the client-side accounting against a tcptrace-style pass
  // over the packet capture: payload delivered on server->client flows must
  // cover the object exactly once plus only duplicated (reinjected /
  // retransmitted-after-delivery) data.
  ASSERT_NE(tb.trace(), nullptr);
  const analysis::TcptraceAnalyzer an{*tb.trace()};
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_rexmit = 0;
  for (const analysis::FlowReport& f : an.flows()) {
    const bool to_client = f.flow.dst.addr == experiment::kClientWifiAddr ||
                           f.flow.dst.addr == experiment::kClientCellAddr;
    const bool from_server = f.flow.src.addr == experiment::kServerAddr1 ||
                             f.flow.src.addr == experiment::kServerAddr2;
    if (!to_client || !from_server) continue;
    trace_bytes += f.bytes_delivered;
    trace_rexmit += f.retransmitted_packets;
    EXPECT_GE(f.data_packets_sent, f.retransmitted_packets);
  }
  // Every application byte crossed the wire at least once...
  EXPECT_GE(trace_bytes, fc.bytes);
  // ...and the overshoot is bounded by data that arrived more than once at
  // the connection level (duplicates) plus subflow-level retransmissions the
  // reorder buffer never saw twice (trimmed overlaps, rexmit of lost data).
  constexpr std::uint64_t kMss = 1400;
  EXPECT_LE(trace_bytes,
            fc.bytes + (out.duplicates + trace_rexmit + out.reinjections + 64) * kMss)
      << "trace says far more payload was delivered than the app accounting allows";
}

TEST_P(RandomFaultSweep, RandomScheduleIsDeterministic) {
  const auto [cc, sched_seed] = GetParam();
  FaultCase fc;
  fc.cc = cc;
  fc.bytes = 2ull << 20;
  fc.seed = 200 + sched_seed;
  fc.faults = random_wifi_schedule(sched_seed);
  const FaultOutcome a = run_faulted(fc);
  const FaultOutcome b = run_faulted(fc);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.finish_s, b.finish_s);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.reinjections, b.reinjections);
  EXPECT_EQ(a.subflows, b.subflows);
}

INSTANTIATE_TEST_SUITE_P(
    Controllers, RandomFaultSweep,
    ::testing::Combine(::testing::Values(CcKind::kReno, CcKind::kCoupled, CcKind::kOlia),
                       ::testing::Values(1ull, 2ull, 3ull)),
    [](const ::testing::TestParamInfo<FaultSweepParams>& info) {
      std::string name = core::to_string(std::get<0>(info.param)) + "_sched" +
                         std::to_string(std::get<1>(info.param));
      for (char& ch : name) {
        if (ch == '-' || ch == '&') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mpr
