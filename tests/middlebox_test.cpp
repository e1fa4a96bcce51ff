// Middlebox interference + RFC 6824 fallback tests.
//
// Covers the middlebox scenario scripting (mbox parser, link validation) and
// the fallback machinery it exercises end to end:
//   * stripped MP_CAPABLE — both ends degrade to plain single-path TCP and
//     the transfer completes byte- and time-identical to a plain-TCP
//     baseline over the same testbed,
//   * stripped MP_JOIN — the subflow is refused, the connection survives,
//   * a strict mid-stream option stripper, NAT sequence rewriting, segment
//     splitting and coalescing — the download still delivers exactly once,
//   * DSS checksum (§3.3) corruption — MP_FAIL (§3.6) closes the subflow or
//     degrades to the infinite mapping (§3.7) on the last one, with
//     exactly-once delivery cross-checked against the tcptrace analyzer,
//   * the run watchdog (max_sim_time / max_events -> kWatchdogAbort),
//   * fallback disabled — stripped handshakes fail fast instead of hanging,
//   * determinism — mbox schedules are bit-identical at any job count.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "analysis/trace_analyzer.h"
#include "app/http.h"
#include "core/connection.h"
#include "experiment/run.h"
#include "experiment/series.h"
#include "experiment/testbed.h"
#include "netem/access.h"
#include "netem/faults.h"
#include "netem/middlebox.h"

namespace mpr {
namespace {

using core::CcKind;
using experiment::PathMode;
using experiment::RunConfig;
using experiment::RunOutcome;
using experiment::RunResult;
using experiment::TestbedConfig;
using netem::FaultEvent;
using netem::FaultSchedule;
using netem::MboxOp;

// ---------------------------------------------------------------------------
// Scenario parser: mbox actions.

TEST(MiddleboxSchedule, ParsesMboxActions) {
  std::istringstream in{
      "0.0  wifi      mbox strip_syn\n"
      "0.5  cell      mbox strip_join\n"
      "1.0  wifi      mbox strip_all   # strict proxy\n"
      "1.5  wifi      mbox nat_seq 100000\n"
      "2.0  cell      mbox split 3\n"
      "2.5  cell      mbox coalesce 2\n"
      "3.0  cellular  mbox corrupt 4\n"
      "4.0  wifi      mbox off\n"};
  std::string error;
  const FaultSchedule s = FaultSchedule::parse(in, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(s.size(), 8u);
  for (const FaultEvent& ev : s.events()) {
    EXPECT_EQ(ev.kind, FaultEvent::Kind::kMiddlebox);
  }
  EXPECT_EQ(s.events()[0].mbox, MboxOp::kStripSyn);
  EXPECT_EQ(s.events()[1].mbox, MboxOp::kStripJoin);
  EXPECT_EQ(s.events()[2].mbox, MboxOp::kStripAll);
  EXPECT_EQ(s.events()[3].mbox, MboxOp::kNatSeq);
  EXPECT_DOUBLE_EQ(s.events()[3].a, 100000.0);
  EXPECT_EQ(s.events()[4].mbox, MboxOp::kSplit);
  EXPECT_DOUBLE_EQ(s.events()[4].a, 3.0);
  EXPECT_EQ(s.events()[5].mbox, MboxOp::kCoalesce);
  EXPECT_EQ(s.events()[6].mbox, MboxOp::kCorrupt);
  EXPECT_EQ(s.events()[6].link, "cell");  // "cellular" normalized
  EXPECT_EQ(s.events()[7].mbox, MboxOp::kOff);
}

TEST(MiddleboxSchedule, RejectsMalformedMboxLines) {
  const auto expect_error = [](const std::string& text, const std::string& at) {
    std::istringstream in{text};
    std::string error;
    const FaultSchedule s = FaultSchedule::parse(in, &error);
    EXPECT_FALSE(error.empty()) << "accepted: " << text;
    EXPECT_TRUE(s.empty());
    EXPECT_NE(error.find(at), std::string::npos) << error;
  };
  expect_error("1.0 wifi mbox\n", "line 1");              // missing subcommand
  expect_error("1.0 wifi mbox explode\n", "line 1");      // unknown subcommand
  // ... and the error lists every name the table accepts.
  expect_error("1.0 wifi mbox explode\n",
               "expected strip_syn | strip_join | strip_all | off | nat_seq | split | corrupt | "
               "coalesce");
  expect_error("1.0 wifi mbox nat_seq\n", "line 1");      // missing offset
  expect_error("1.0 wifi mbox split 0\n", "line 1");      // every-n must be >= 1
  expect_error("1.0 wifi mbox corrupt\n", "line 1");      // missing count
  expect_error("1.0 wifi mbox strip_syn 3\n", "line 1");  // takes no arguments
  // Errors carry the offending line's number, not just "parse error".
  expect_error("0.0 wifi outage\n1.0 wifi mbox explode\n", "line 2");
}

TEST(MiddleboxSchedule, ReportsUnknownLinks) {
  FaultSchedule s;
  s.middlebox(0.0, "wifi", MboxOp::kStripSyn)
      .middlebox(0.0, "satellite", MboxOp::kStripAll)
      .outage(1.0, "lte")
      .middlebox(2.0, "cellular", MboxOp::kCorrupt, 4);  // normalizes to "cell": bound
  // Each unbound name once, in order; "cellular" is bound as "cell".
  EXPECT_EQ(experiment::check_scenario(s),
            "unknown links 'satellite', 'lte' (bound: wifi, cell)");
}

// ---------------------------------------------------------------------------
// run_download-level helpers.

FaultSchedule strip_syn_everywhere() {
  return FaultSchedule{}
      .middlebox(0.0, "wifi", MboxOp::kStripSyn)
      .middlebox(0.0, "cell", MboxOp::kStripSyn);
}

RunConfig mbox_run(FaultSchedule s, std::uint64_t bytes) {
  RunConfig rc;
  rc.mode = PathMode::kMptcp2;
  rc.file_bytes = bytes;
  rc.timeout = sim::Duration::seconds(600);
  rc.faults = std::move(s);
  return rc;
}

// ---------------------------------------------------------------------------
// Stripped MP_CAPABLE: the whole campaign size range must complete over the
// plain-TCP fallback (no MPTCP option ever makes it past the middlebox).

TEST(StripSyn, EveryCampaignSizeCompletesViaFallback) {
  const TestbedConfig tb;
  for (const std::uint64_t bytes :
       {64ull << 10, 512ull << 10, 4ull << 20, 16ull << 20}) {
    const RunResult r = experiment::run_download(tb, mbox_run(strip_syn_everywhere(), bytes));
    ASSERT_TRUE(r.completed) << "size " << bytes;
    EXPECT_EQ(r.outcome, RunOutcome::kCompleted);
    EXPECT_EQ(r.delivered_bytes, bytes);
    // Client endpoint fell back; the server accepted a plain-TCP connection.
    EXPECT_GE(r.sim_stats.fallback_plain_tcp, 2u) << "size " << bytes;
    EXPECT_GT(r.sim_stats.middlebox_options_stripped, 0u);
    // Single-path from the first byte: nothing ever rode cellular.
    EXPECT_EQ(r.cellular.bytes_received, 0u);
    EXPECT_EQ(r.wifi.bytes_received, bytes);
  }
}

// A fallen-back MPTCP connection is plain TCP *end to end* (RFC 6824 §3.7):
// over an identical testbed the stripped-SYN run must match a plain
// single-path TCP baseline byte for byte and tick for tick. Possible only
// because named RNG streams are independent (the MPTCP key draws don't
// perturb the link models) and the middlebox strips options at link ingress,
// before wire serialization.
TEST(StripSyn, MatchesPlainTcpBaselineExactly) {
  const TestbedConfig tb;
  RunConfig mp = mbox_run(strip_syn_everywhere(), 1ull << 20);
  mp.ping_warmup = false;
  RunConfig sp;
  sp.mode = PathMode::kSingleWifi;
  sp.file_bytes = 1ull << 20;
  sp.timeout = sim::Duration::seconds(600);
  sp.ping_warmup = false;

  const RunResult a = experiment::run_download(tb, mp);
  const RunResult b = experiment::run_download(tb, sp);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.download_time_s, b.download_time_s);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(a.wifi.bytes_received, b.wifi.bytes_received);
  EXPECT_EQ(a.wifi.data_packets_sent, b.wifi.data_packets_sent);
  EXPECT_EQ(a.wifi.rexmit_packets, b.wifi.rexmit_packets);
}

// ---------------------------------------------------------------------------
// Interference-kind x congestion-controller matrix: every middlebox
// behaviour, under every controller, must still deliver the object exactly
// once (or degrade per the RFC, but never hang and never corrupt delivery).

enum class MboxKind {
  kStripSyn,
  kStripJoin,
  kStripAllMidstream,
  kNatSeq,
  kSplit,
  kCoalesce,
  kCorrupt,
};

const char* to_cstring(MboxKind k) {
  switch (k) {
    case MboxKind::kStripSyn: return "strip_syn";
    case MboxKind::kStripJoin: return "strip_join";
    case MboxKind::kStripAllMidstream: return "strip_all_midstream";
    case MboxKind::kNatSeq: return "nat_seq";
    case MboxKind::kSplit: return "split";
    case MboxKind::kCoalesce: return "coalesce";
    case MboxKind::kCorrupt: return "corrupt";
  }
  return "?";
}

using MboxMatrixParams = std::tuple<CcKind, MboxKind>;

class MboxMatrix : public ::testing::TestWithParam<MboxMatrixParams> {};

TEST_P(MboxMatrix, DeliversExactlyOnceUnderInterference) {
  const auto [cc, kind] = GetParam();
  std::uint64_t bytes = 2ull << 20;
  bool checksum = false;
  FaultSchedule s;
  switch (kind) {
    case MboxKind::kStripSyn:
      s = strip_syn_everywhere();
      break;
    case MboxKind::kStripJoin:
      s.middlebox(0.0, "cell", MboxOp::kStripJoin);
      break;
    case MboxKind::kStripAllMidstream:
      // The strict proxy appears on cellular while the download is running —
      // after the warm-up pings and the delayed MP_JOIN, so the subflow is
      // established and mid-transfer when its DSS options start vanishing.
      bytes = 8ull << 20;
      s.middlebox(2.0, "cell", MboxOp::kStripAll);
      break;
    case MboxKind::kNatSeq:
      s.middlebox(0.0, "wifi", MboxOp::kNatSeq, 500000)
          .middlebox(0.0, "cell", MboxOp::kNatSeq, 123456);
      break;
    case MboxKind::kSplit:
      s.middlebox(0.0, "cell", MboxOp::kSplit, 4);
      break;
    case MboxKind::kCoalesce:
      s.middlebox(0.0, "cell", MboxOp::kCoalesce, 1.0);
      break;
    case MboxKind::kCorrupt:
      s.middlebox(0.0, "cell", MboxOp::kCorrupt, 4);
      checksum = true;
      break;
  }
  RunConfig rc = mbox_run(std::move(s), bytes);
  rc.cc = cc;
  rc.dss_checksum = checksum;

  const TestbedConfig tb;
  const RunResult r = experiment::run_download(tb, rc);
  ASSERT_TRUE(r.completed) << to_cstring(kind);
  EXPECT_EQ(r.outcome, RunOutcome::kCompleted);
  EXPECT_FALSE(r.failed);
  // Exactly-once delivery regardless of what the wire did to the segments.
  EXPECT_EQ(r.delivered_bytes, bytes);

  switch (kind) {
    case MboxKind::kStripSyn:
      EXPECT_GE(r.sim_stats.fallback_plain_tcp, 2u);
      EXPECT_EQ(r.cellular.bytes_received, 0u);
      break;
    case MboxKind::kStripJoin:
      // The join was refused but the first subflow is unharmed.
      EXPECT_GE(r.sim_stats.join_refusals, 1u);
      EXPECT_EQ(r.sim_stats.fallback_plain_tcp, 0u);
      EXPECT_EQ(r.cellular.bytes_received, 0u);
      EXPECT_EQ(r.wifi.bytes_received, bytes);
      break;
    case MboxKind::kStripAllMidstream:
      // Unmapped payload on cellular closed that subflow (MP_FAIL); the
      // stranded data was reinjected over WiFi.
      EXPECT_GE(r.sim_stats.mp_fail_events, 1u);
      EXPECT_GT(r.sim_stats.middlebox_options_stripped, 0u);
      break;
    case MboxKind::kNatSeq:
      // Sequence rewriting is transparent: both paths stay up and carry data.
      EXPECT_GT(r.sim_stats.middlebox_packets_mangled, 0u);
      EXPECT_GT(r.cellular.bytes_received, 0u);
      EXPECT_GT(r.wifi.bytes_received, 0u);
      EXPECT_EQ(r.sim_stats.fallback_plain_tcp, 0u);
      EXPECT_EQ(r.sim_stats.mp_fail_events, 0u);
      break;
    case MboxKind::kSplit:
      // The tail halves carry no DSS; the receiver re-derives their mapping
      // from the covering head mapping.
      EXPECT_GT(r.sim_stats.middlebox_packets_mangled, 0u);
      break;
    case MboxKind::kCoalesce:
      EXPECT_GT(r.sim_stats.middlebox_packets_mangled, 0u);
      break;
    case MboxKind::kCorrupt:
      // §3.3 checksum caught the mangling; §3.6 MP_FAIL handled it.
      EXPECT_GE(r.sim_stats.checksum_failures, 1u);
      EXPECT_GE(r.sim_stats.mp_fail_events, 1u);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Controllers, MboxMatrix,
    ::testing::Combine(::testing::Values(CcKind::kReno, CcKind::kCoupled, CcKind::kOlia),
                       ::testing::Values(MboxKind::kStripSyn, MboxKind::kStripJoin,
                                         MboxKind::kStripAllMidstream, MboxKind::kNatSeq,
                                         MboxKind::kSplit, MboxKind::kCoalesce,
                                         MboxKind::kCorrupt)),
    [](const ::testing::TestParamInfo<MboxMatrixParams>& info) {
      std::string name = core::to_string(std::get<0>(info.param)) + std::string{"_"} +
                         to_cstring(std::get<1>(info.param));
      for (char& ch : name) {
        if (ch == '-' || ch == '&') ch = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Manual-testbed harness (mirrors faults_test.cpp) so tests can reach the
// connection's fallback state, the server counters and the packet trace.

struct MboxOutcome {
  bool completed{false};
  bool failed{false};
  bool dsn_in_order{true};
  std::uint64_t next_dsn{0};
  std::uint64_t conn_delivered{0};
  std::uint64_t duplicates{0};
  std::uint64_t reinjections{0};  // client + server side
  std::size_t established_subflows{0};
  double finish_s{0};
  core::MptcpConnection::FallbackKind client_fallback{
      core::MptcpConnection::FallbackKind::kNone};
  core::MptcpConnection::FallbackCounters client_counters;
  core::MptcpConnection::FallbackCounters server_counters;
  std::uint64_t server_tcp_accepts{0};
  std::uint64_t server_resets{0};
};

struct MboxCase {
  FaultSchedule faults;
  CcKind cc{CcKind::kCoupled};
  std::uint64_t bytes{4ull << 20};
  std::uint64_t seed{21};
  bool capture_trace{false};
  double deadline_s{300};
  core::MptcpConfig cfg;  // checksum / fallback / subflow knobs
};

MboxOutcome run_mboxed(const MboxCase& mc, experiment::Testbed* keep_tb = nullptr) {
  TestbedConfig tb_cfg;
  tb_cfg.seed = mc.seed;
  tb_cfg.capture_trace = mc.capture_trace;
  experiment::Testbed local_tb{tb_cfg};
  experiment::Testbed& tb = keep_tb ? *keep_tb : local_tb;

  core::MptcpConfig cfg = mc.cfg;
  cfg.cc = mc.cc;

  app::MptcpHttpServer server{tb.server(), experiment::kHttpPort, cfg, {},
                              [&mc](std::uint64_t) { return mc.bytes; }};
  app::MptcpHttpClient client{
      tb.client(), cfg,
      {experiment::kClientWifiAddr, experiment::kClientCellAddr},
      net::SocketAddr{experiment::kServerAddr1, experiment::kHttpPort}};

  netem::FaultInjector injector{tb.sim()};
  injector.bind("wifi", &tb.wifi_access());
  injector.bind("cell", &tb.cell_access());
  injector.install(mc.faults);

  MboxOutcome out;
  auto inner = client.connection().on_data;
  client.connection().on_data = [&, inner](std::uint64_t dsn, std::uint32_t len) {
    if (dsn != out.next_dsn) out.dsn_in_order = false;
    out.next_dsn = dsn + len;
    if (inner) inner(dsn, len);
  };
  bool done = false;
  client.get(mc.bytes, [&](const app::FetchResult&) { done = true; });
  const sim::TimePoint deadline =
      tb.sim().now() + sim::Duration::from_seconds(mc.deadline_s);
  while (!done && !client.connection().failed() && tb.sim().now() < deadline &&
         tb.sim().events().step()) {
  }

  out.completed = done;
  out.failed = client.connection().failed();
  out.finish_s = tb.sim().now().to_seconds();
  out.conn_delivered = client.connection().rx().delivered_bytes();
  out.duplicates = client.connection().rx().duplicate_packets();
  out.reinjections = client.connection().reinjected_chunks();
  out.client_fallback = client.connection().fallback();
  out.client_counters = client.connection().fallback_counters();
  for (core::MptcpConnection* conn : server.connections()) {
    out.reinjections += conn->reinjected_chunks();
    out.server_counters = conn->fallback_counters();
  }
  out.server_tcp_accepts = server.server().tcp_fallback_accepts();
  out.server_resets = server.server().resets_sent();
  for (const core::MptcpSubflow* sf : client.connection().subflows()) {
    if (sf->state() == tcp::TcpState::kEstablished) ++out.established_subflows;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Stripped MP_JOIN, observed at the connection level.

TEST(StripJoin, SubflowRefusedConnectionSurvives) {
  MboxCase mc;
  mc.bytes = 2ull << 20;
  mc.faults.middlebox(0.0, "cell", MboxOp::kStripJoin);
  const MboxOutcome out = run_mboxed(mc);
  ASSERT_TRUE(out.completed);
  EXPECT_FALSE(out.failed);
  EXPECT_TRUE(out.dsn_in_order);
  EXPECT_EQ(out.conn_delivered, mc.bytes);
  // The join SYN reached the server naked; the client saw a plain SYN-ACK
  // and refused the subflow. The first subflow kept the connection alive.
  EXPECT_GE(out.client_counters.join_refusals, 1u);
  EXPECT_EQ(out.established_subflows, 1u);
  EXPECT_EQ(out.client_fallback, core::MptcpConnection::FallbackKind::kNone);
}

// ---------------------------------------------------------------------------
// DSS checksum corruption: §3.6 MP_FAIL on a spare subflow, §3.7 infinite
// mapping on the last one — with exactly-once delivery cross-validated
// against the tcptrace-style analyzer over the packet capture.

TEST(ChecksumCorruption, ExactlyOnceThroughMpFailAndInfiniteMapping) {
  MboxCase mc;
  mc.bytes = 4ull << 20;
  mc.seed = 23;
  mc.capture_trace = true;
  mc.cfg.dss_checksum = true;
  // Both links corrupt: the first failure closes a subflow with MP_FAIL,
  // the next one hits the last subflow and forces the infinite mapping.
  mc.faults.middlebox(0.0, "wifi", MboxOp::kCorrupt, 5).middlebox(0.0, "cell", MboxOp::kCorrupt, 5);

  TestbedConfig tb_cfg;
  tb_cfg.seed = mc.seed;
  tb_cfg.capture_trace = true;
  experiment::Testbed tb{tb_cfg};
  const MboxOutcome out = run_mboxed(mc, &tb);

  ASSERT_TRUE(out.completed);
  EXPECT_FALSE(out.failed);
  EXPECT_TRUE(out.dsn_in_order);
  EXPECT_EQ(out.conn_delivered, mc.bytes);
  EXPECT_EQ(out.next_dsn, mc.bytes) << "no bytes past the object may reach the app";
  EXPECT_GE(out.client_counters.checksum_failures, 1u);
  EXPECT_GE(out.client_counters.mp_fail_sent, 1u);
  EXPECT_GE(out.server_counters.mp_fail_received, 1u);

  // tcptrace cross-check: payload delivered on server->client flows covers
  // the object exactly once plus only bounded duplication (reinjected or
  // retransmitted-after-delivery data).
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
  }
  EXPECT_GE(trace_bytes, mc.bytes);
  constexpr std::uint64_t kMss = 1400;
  EXPECT_LE(trace_bytes,
            mc.bytes + (out.duplicates + trace_rexmit + out.reinjections + 64) * kMss)
      << "trace says far more payload was delivered than the app accounting allows";
}

TEST(ChecksumCorruption, TeardownPolicyFailsTheConnection) {
  MboxCase mc;
  mc.bytes = 4ull << 20;
  mc.seed = 24;
  mc.deadline_s = 120;
  mc.cfg.dss_checksum = true;
  mc.cfg.checksum_teardown = true;
  mc.faults.middlebox(0.0, "wifi", MboxOp::kCorrupt, 4).middlebox(0.0, "cell", MboxOp::kCorrupt, 4);
  const MboxOutcome out = run_mboxed(mc);
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.failed) << "teardown policy must error out, not fall back";
  EXPECT_GE(out.client_counters.checksum_failures, 1u);
  EXPECT_LT(out.finish_s, 60.0) << "teardown must be prompt, not a timeout";
}

// ---------------------------------------------------------------------------
// Fallback disabled: a stripped MP_CAPABLE handshake fails fast — the server
// answers the naked SYN with RST instead of black-holing it.

TEST(FallbackDisabled, StrippedHandshakeFailsFast) {
  MboxCase mc;
  mc.bytes = 1ull << 20;
  mc.seed = 25;
  mc.deadline_s = 120;
  mc.cfg.allow_tcp_fallback = false;
  mc.faults = strip_syn_everywhere();
  const MboxOutcome out = run_mboxed(mc);
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.failed);
  EXPECT_GE(out.server_resets, 1u) << "the plain SYN must be refused, not dropped";
  EXPECT_EQ(out.server_tcp_accepts, 0u);
  EXPECT_LT(out.finish_s, 30.0) << "an RST-refused handshake must not wait for a timeout";
}

TEST(FallbackDisabled, RunReportsConnectionFailed) {
  RunConfig rc = mbox_run(strip_syn_everywhere(), 1ull << 20);
  rc.tcp_fallback = false;
  rc.timeout = sim::Duration::seconds(120);
  const TestbedConfig tb;
  const RunResult r = experiment::run_download(tb, rc);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.outcome, RunOutcome::kConnectionFailed);
  EXPECT_EQ(r.sim_stats.fallback_plain_tcp, 0u);
}

// ---------------------------------------------------------------------------
// Background cross-traffic never passes the middlebox: `corrupt N` counts
// the client's data segments only, however loaded the link.

TEST(MiddleboxCrossTraffic, CorruptFourCorruptsEveryFourthClientSegment) {
  sim::Simulation sim{5};
  net::Network network{sim};
  std::vector<std::uint64_t> corrupted_seqs;
  std::uint64_t delivered = 0;
  network.attach_host(net::IpAddr{1}, [&](net::PacketPtr p) {
    ++delivered;
    if (p->tcp.dss()->checksum != 0) corrupted_seqs.push_back(p->tcp.seq);
  });
  netem::AccessProfile profile = netem::wifi_hotspot();  // background on both links
  profile.ge_down.reset();  // lossless wire: every client segment arrives
  profile.background.on_fraction = 1.0;
  profile.queue_down_bytes = 4 << 20;
  netem::AccessNetwork access{sim, network, net::IpAddr{1}, profile};
  netem::Middlebox& mbox = access.middlebox();
  mbox.set_corrupt_every(4);

  constexpr std::uint64_t kSegments = 40;
  for (std::uint64_t i = 0; i < kSegments; ++i) {
    sim.at(sim::TimePoint::origin() + sim::Duration::millis(20 * static_cast<std::int64_t>(i)),
           [&sim, &network, i] {
             net::PacketPtr p = sim.service<net::PacketPool>().acquire();
             p->src = net::IpAddr{10};
             p->dst = net::IpAddr{1};
             p->payload_bytes = 1000;
             p->tcp.seq = i;
             p->tcp.set_dss(net::DssOption{.has_checksum = true});
             network.send(std::move(p));
           });
  }
  sim.run_for(sim::Duration::seconds(5));

  EXPECT_GT(access.downlink().stats().packets_offered, 2 * kSegments);  // phantoms flowed
  EXPECT_EQ(mbox.stats().packets_seen, kSegments);
  EXPECT_EQ(mbox.stats().payloads_corrupted, kSegments / 4);
  ASSERT_EQ(delivered, kSegments);
  const std::vector<std::uint64_t> every_fourth{3, 7, 11, 15, 19, 23, 27, 31, 35, 39};
  EXPECT_EQ(corrupted_seqs, every_fourth);
}

// ---------------------------------------------------------------------------
// Watchdog: the max_sim_time / max_events caps abort a run deterministically
// with their own outcome, distinguishable from a plain timeout.

TEST(Watchdog, SimTimeCapAbortsTheRun) {
  RunConfig rc = mbox_run(FaultSchedule{}, 32ull << 20);
  rc.max_sim_time = sim::Duration::seconds(1);
  const TestbedConfig tb;
  const RunResult r = experiment::run_download(tb, rc);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.outcome, RunOutcome::kWatchdogAbort);
}

TEST(Watchdog, EventCapAbortsTheRun) {
  RunConfig rc = mbox_run(FaultSchedule{}, 32ull << 20);
  rc.max_events = 5000;
  const TestbedConfig tb;
  const RunResult r = experiment::run_download(tb, rc);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.outcome, RunOutcome::kWatchdogAbort);
  EXPECT_LE(r.sim_stats.events_executed, 5001u);
}

TEST(Watchdog, DrainedQueueReportsTheOutcomeOfARunningClock) {
  // The handshake fails fast and nothing is left to simulate long before
  // the deadline. The outcome is the one a clock kept running would give:
  // the time cap fires first when it is the earlier bound.
  RunConfig rc = mbox_run(strip_syn_everywhere(), 1ull << 20);
  rc.tcp_fallback = false;
  rc.timeout = sim::Duration::seconds(120);
  const TestbedConfig tb;
  rc.max_sim_time = sim::Duration::seconds(60);
  EXPECT_EQ(experiment::run_download(tb, rc).outcome, RunOutcome::kWatchdogAbort);
  rc.max_sim_time = sim::Duration::seconds(120);  // the deadline comes first
  EXPECT_EQ(experiment::run_download(tb, rc).outcome, RunOutcome::kConnectionFailed);
}

TEST(Watchdog, DisabledCapsLeaveRunsUntouched) {
  RunConfig rc = mbox_run(FaultSchedule{}, 512ull << 10);
  const TestbedConfig tb;
  const RunResult r = experiment::run_download(tb, rc);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.outcome, RunOutcome::kCompleted);
}

// ---------------------------------------------------------------------------
// Determinism: middlebox emulation is counter-driven (no RNG), so a faulted
// campaign is bit-identical at any job count.

TEST(MboxDeterminism, BitIdenticalAcrossJobCounts) {
  const TestbedConfig tb;
  RunConfig rc = mbox_run(
      FaultSchedule{}
          .middlebox(0.0, "cell", MboxOp::kCorrupt, 6)
          .middlebox(0.0, "wifi", MboxOp::kSplit, 8),
      2ull << 20);
  rc.dss_checksum = true;
  const std::vector<RunResult> serial = experiment::run_series(tb, rc, 2, 42, /*jobs=*/1);
  const std::vector<RunResult> threaded = experiment::run_series(tb, rc, 2, 42, /*jobs=*/8);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(threaded.size(), 2u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const RunResult& a = serial[i];
    const RunResult& b = threaded[i];
    ASSERT_TRUE(a.completed) << "rep " << i;
    EXPECT_EQ(a.delivered_bytes, 2ull << 20);
    EXPECT_EQ(a.download_time_s, b.download_time_s);
    EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
    EXPECT_EQ(a.duplicate_packets, b.duplicate_packets);
    EXPECT_EQ(a.reinjections, b.reinjections);
    EXPECT_EQ(a.wifi.bytes_received, b.wifi.bytes_received);
    EXPECT_EQ(a.cellular.bytes_received, b.cellular.bytes_received);
    EXPECT_EQ(a.sim_stats.checksum_failures, b.sim_stats.checksum_failures);
    EXPECT_EQ(a.sim_stats.mp_fail_events, b.sim_stats.mp_fail_events);
    EXPECT_EQ(a.sim_stats.middlebox_options_stripped, b.sim_stats.middlebox_options_stripped);
    EXPECT_EQ(a.sim_stats.middlebox_packets_mangled, b.sim_stats.middlebox_packets_mangled);
    EXPECT_EQ(a.sim_stats.fallback_plain_tcp, b.sim_stats.fallback_plain_tcp);
  }
}

// A disabled middlebox (schedule present but "mbox off" before any traffic)
// must reproduce the clean run bit-identically: the interceptor path alone
// may not perturb timing.
TEST(MboxDeterminism, OffMiddleboxMatchesCleanRun) {
  const TestbedConfig tb;
  RunConfig clean = mbox_run(FaultSchedule{}, 1ull << 20);
  RunConfig off = mbox_run(
      FaultSchedule{}.middlebox(0.0, "wifi", MboxOp::kOff).middlebox(0.0, "cell", MboxOp::kOff),
      1ull << 20);
  const RunResult a = experiment::run_download(tb, clean);
  const RunResult b = experiment::run_download(tb, off);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.download_time_s, b.download_time_s);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(a.wifi.bytes_received, b.wifi.bytes_received);
  EXPECT_EQ(a.cellular.bytes_received, b.cellular.bytes_received);
  EXPECT_EQ(a.wifi.data_packets_sent, b.wifi.data_packets_sent);
  EXPECT_EQ(a.cellular.data_packets_sent, b.cellular.data_packets_sent);
}

}  // namespace
}  // namespace mpr
