// MPTCP core tests: the connection-level reorder buffer, subflow
// establishment (delayed vs simultaneous SYN, ADD_ADDR joins), DSS
// data-level transfer, scheduler behaviour, penalization and reinjection.
#include <gtest/gtest.h>

#include <memory>

#include "app/http.h"
#include "core/connection.h"
#include "core/reorder_buffer.h"
#include "core/server.h"
#include "experiment/testbed.h"

namespace mpr::core {
namespace {

using experiment::kClientCellAddr;
using experiment::kClientWifiAddr;
using experiment::kHttpPort;
using experiment::kServerAddr1;
using experiment::kServerAddr2;

// --------------------------------------------------------------------------
// ReorderBuffer.

sim::TimePoint at_ms(double ms) {
  return sim::TimePoint::origin() + sim::Duration::from_millis(ms);
}

TEST(ReorderBuffer, InOrderArrivalsHaveZeroDelay) {
  ReorderBuffer rb{1 << 20};
  std::uint64_t delivered = 0;
  rb.on_deliver = [&](std::uint64_t, std::uint32_t len) { delivered += len; };
  EXPECT_TRUE(rb.insert(0, 1000, at_ms(1), 0));
  EXPECT_TRUE(rb.insert(1000, 1000, at_ms(2), 0));
  EXPECT_EQ(delivered, 2000u);
  EXPECT_EQ(rb.rcv_nxt(), 2000u);
  ASSERT_EQ(rb.ofo_samples().size(), 2u);
  EXPECT_EQ(rb.ofo_samples()[0].delay, sim::Duration::zero());
  EXPECT_EQ(rb.ofo_samples()[1].delay, sim::Duration::zero());
}

TEST(ReorderBuffer, OutOfOrderDelayMeasuredUntilInOrder) {
  ReorderBuffer rb{1 << 20};
  rb.insert(1000, 1000, at_ms(5), 1);   // early packet from fast path
  EXPECT_EQ(rb.rcv_nxt(), 0u);
  EXPECT_EQ(rb.buffered_bytes(), 1000u);
  rb.insert(0, 1000, at_ms(47), 0);     // late packet from slow path
  EXPECT_EQ(rb.rcv_nxt(), 2000u);
  ASSERT_EQ(rb.ofo_samples().size(), 2u);
  // The late packet itself was in order on arrival.
  EXPECT_EQ(rb.ofo_samples()[0].delay, sim::Duration::zero());
  EXPECT_EQ(rb.ofo_samples()[0].subflow_id, 0);
  // The early packet waited 42 ms.
  EXPECT_NEAR(rb.ofo_samples()[1].delay.to_millis(), 42.0, 1e-9);
  EXPECT_EQ(rb.ofo_samples()[1].subflow_id, 1);
}

TEST(ReorderBuffer, DrainsMultipleHeldSegments) {
  ReorderBuffer rb{1 << 20};
  std::vector<std::uint64_t> order;
  rb.on_deliver = [&](std::uint64_t dsn, std::uint32_t) { order.push_back(dsn); };
  rb.insert(2000, 1000, at_ms(1), 1);
  rb.insert(1000, 1000, at_ms(2), 1);
  rb.insert(3000, 1000, at_ms(3), 1);
  // Hold 29 more segments up to DSN 30000, leaving holes at 5000 and 20000,
  // then fill 5000: an insert between held segments.
  for (std::uint64_t dsn = 4000; dsn <= 30000; dsn += 1000) {
    if (dsn != 5000 && dsn != 20000) rb.insert(dsn, 1000, at_ms(4), 1);
  }
  rb.insert(5000, 1000, at_ms(5), 1);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(rb.buffered_bytes(), 29000u);
  // Stage one drains the 19 held segments below the hole at 20000.
  rb.insert(0, 1000, at_ms(10), 0);
  std::vector<std::uint64_t> want;
  for (std::uint64_t dsn = 0; dsn < 20000; dsn += 1000) want.push_back(dsn);
  EXPECT_EQ(order, want);
  EXPECT_EQ(rb.rcv_nxt(), 20000u);
  EXPECT_EQ(rb.buffered_bytes(), 10000u);
  // Stage two: filling the hole drains the other 10.
  rb.insert(20000, 1000, at_ms(20), 0);
  for (std::uint64_t dsn = 20000; dsn <= 30000; dsn += 1000) want.push_back(dsn);
  EXPECT_EQ(order, want);
  EXPECT_EQ(rb.buffered_bytes(), 0u);
  ASSERT_EQ(rb.ofo_samples().size(), 31u);
  EXPECT_NEAR(rb.ofo_samples()[1].delay.to_millis(), 8.0, 1e-9);   // DSN 1000
  EXPECT_NEAR(rb.ofo_samples()[5].delay.to_millis(), 5.0, 1e-9);   // DSN 5000
  EXPECT_NEAR(rb.ofo_samples()[21].delay.to_millis(), 16.0, 1e-9);  // DSN 21000
}

TEST(ReorderBuffer, DuplicatesDetected) {
  ReorderBuffer rb{1 << 20};
  rb.insert(0, 1000, at_ms(1), 0);
  EXPECT_TRUE(rb.insert(0, 1000, at_ms(2), 0));  // already delivered
  EXPECT_EQ(rb.duplicate_packets(), 1u);
  rb.insert(2000, 1000, at_ms(3), 1);
  EXPECT_TRUE(rb.insert(2000, 1000, at_ms(4), 1));  // already held
  EXPECT_EQ(rb.duplicate_packets(), 2u);
  EXPECT_EQ(rb.delivered_bytes(), 1000u);
}

TEST(ReorderBuffer, RefusesBeyondCapacity) {
  ReorderBuffer rb{2500};
  EXPECT_TRUE(rb.insert(1000, 1000, at_ms(1), 0));
  EXPECT_TRUE(rb.insert(2000, 1000, at_ms(1), 0));
  EXPECT_FALSE(rb.insert(3000, 1000, at_ms(1), 0));  // 3000 > 2500
  EXPECT_EQ(rb.window(), 500u);
}

TEST(ReorderBuffer, WindowShrinksWithHeldBytes) {
  ReorderBuffer rb{10000};
  EXPECT_EQ(rb.window(), 10000u);
  rb.insert(5000, 2000, at_ms(1), 0);
  EXPECT_EQ(rb.window(), 8000u);
  rb.insert(0, 5000, at_ms(2), 0);  // drains everything
  EXPECT_EQ(rb.window(), 10000u);
}

TEST(ReorderBuffer, TracksPeakOccupancy) {
  ReorderBuffer rb{1 << 20};
  rb.insert(1000, 1000, at_ms(1), 0);
  rb.insert(3000, 1000, at_ms(1), 0);
  rb.insert(0, 1000, at_ms(2), 0);
  EXPECT_EQ(rb.max_buffered_bytes(), 2000u);
}

// Regression: a segment straddling rcv_nxt (dsn < rcv_nxt < dsn+len) was
// neither duplicate-detected nor drainable, so it occupied buffer bytes
// forever and shrank the advertised window. The overlap must be trimmed and
// the fresh tail delivered.
TEST(ReorderBuffer, SegmentStraddlingRcvNxtTrimmedAndDelivered) {
  ReorderBuffer rb{1 << 20};
  std::vector<std::pair<std::uint64_t, std::uint32_t>> delivered;
  rb.on_deliver = [&](std::uint64_t dsn, std::uint32_t len) { delivered.emplace_back(dsn, len); };
  rb.insert(0, 1000, at_ms(1), 0);
  // Differently-chunked retransmission: [500, 1500) overlaps delivered data.
  EXPECT_TRUE(rb.insert(500, 1000, at_ms(2), 1));
  EXPECT_EQ(rb.rcv_nxt(), 1500u);
  EXPECT_EQ(rb.delivered_bytes(), 1500u);
  EXPECT_EQ(rb.buffered_bytes(), 0u) << "overlap segment must not be held forever";
  EXPECT_EQ(rb.window(), 1u << 20);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[1], (std::pair<std::uint64_t, std::uint32_t>{1000u, 500u}));
  EXPECT_EQ(rb.duplicate_packets(), 1u);  // the partially-duplicate arrival
}

TEST(ReorderBuffer, StraddlingSegmentUnblocksHeldData) {
  ReorderBuffer rb{1 << 20};
  rb.insert(0, 1000, at_ms(1), 0);
  rb.insert(1500, 1000, at_ms(2), 1);  // held: needs [1000, 1500)
  EXPECT_EQ(rb.buffered_bytes(), 1000u);
  // The gap arrives inside a segment that also re-covers [500, 1000).
  EXPECT_TRUE(rb.insert(500, 1000, at_ms(3), 0));
  EXPECT_EQ(rb.rcv_nxt(), 2500u);
  EXPECT_EQ(rb.delivered_bytes(), 2500u);
  EXPECT_EQ(rb.buffered_bytes(), 0u);
}

TEST(ReorderBuffer, HeldSegmentOverlappedByDeliveryIsTrimmedOnDrain) {
  ReorderBuffer rb{1 << 20};
  std::uint64_t delivered = 0;
  rb.on_deliver = [&](std::uint64_t, std::uint32_t len) { delivered += len; };
  rb.insert(1000, 1000, at_ms(1), 1);  // held [1000, 2000)
  // An in-order segment covering [0, 1500) overlaps the held one's head.
  EXPECT_TRUE(rb.insert(0, 1500, at_ms(2), 0));
  EXPECT_EQ(rb.rcv_nxt(), 2000u);
  EXPECT_EQ(delivered, 2000u) << "held tail [1500,2000) must drain, not stall";
  EXPECT_EQ(rb.buffered_bytes(), 0u);
}

TEST(ReorderBuffer, HeldSegmentFullyCoveredByDeliveryIsDropped) {
  ReorderBuffer rb{1 << 20};
  rb.insert(1000, 500, at_ms(1), 1);  // held [1000, 1500)
  EXPECT_TRUE(rb.insert(0, 1500, at_ms(2), 0));
  EXPECT_EQ(rb.rcv_nxt(), 1500u);
  EXPECT_EQ(rb.delivered_bytes(), 1500u);
  EXPECT_EQ(rb.buffered_bytes(), 0u);
  EXPECT_EQ(rb.duplicate_packets(), 1u);
}

// --------------------------------------------------------------------------
// Connection-level integration on a deterministic two-path testbed.

netem::AccessProfile clean_path(const std::string& name, double rate_bps,
                                sim::Duration owd) {
  netem::AccessProfile p;
  p.name = name;
  p.down_rate_bps = rate_bps;
  p.up_rate_bps = rate_bps / 2;
  p.rate_sigma = 0;
  p.owd_down = owd;
  p.owd_up = owd;
  p.queue_down_bytes = 1 << 20;
  p.queue_up_bytes = 1 << 20;
  p.loss_down = 0;
  p.loss_up = 0;
  p.ge_down.reset();
  p.background.on_utilization = 0;
  return p;
}

experiment::TestbedConfig clean_testbed(std::uint64_t seed = 1) {
  experiment::TestbedConfig tb;
  tb.seed = seed;
  tb.wifi = clean_path("wifi", 20e6, sim::Duration::millis(10));
  tb.cellular = clean_path("cell", 10e6, sim::Duration::millis(40));
  tb.capture_trace = true;
  return tb;
}

struct MptcpRig {
  explicit MptcpRig(MptcpConfig config, std::uint64_t object_bytes,
                    bool four_path = false, std::uint64_t seed = 1)
      : tb{clean_testbed(seed)} {
    std::vector<net::IpAddr> advertise;
    if (four_path) advertise.push_back(kServerAddr2);
    server = std::make_unique<app::MptcpHttpServer>(
        tb.server(), kHttpPort, config, advertise,
        [object_bytes](std::uint64_t) { return object_bytes; });
    client = std::make_unique<app::MptcpHttpClient>(
        tb.client(), config, std::vector<net::IpAddr>{kClientWifiAddr, kClientCellAddr},
        net::SocketAddr{kServerAddr1, kHttpPort});
  }

  void run_download(std::uint64_t bytes, sim::Duration limit = sim::Duration::seconds(60)) {
    done = false;
    client->get(bytes, [this](const app::FetchResult& r) {
      done = true;
      fetch = r;
    });
    const sim::TimePoint deadline = tb.sim().now() + limit;
    while (!done && tb.sim().now() < deadline && tb.sim().events().step()) {
    }
  }

  MptcpConnection* server_conn() {
    return server->connections().empty() ? nullptr : server->connections().front();
  }

  experiment::Testbed tb;
  std::unique_ptr<app::MptcpHttpServer> server;
  std::unique_ptr<app::MptcpHttpClient> client;
  bool done{false};
  app::FetchResult fetch;
};

TEST(MptcpConnection, EstablishesInitialAndJoinSubflows) {
  MptcpRig rig{MptcpConfig{}, 1 << 20};
  rig.run_download(1 << 20);
  ASSERT_TRUE(rig.done);
  auto sfs = rig.client->connection().subflows();
  ASSERT_EQ(sfs.size(), 2u);
  EXPECT_EQ(sfs[0]->kind(), MptcpSubflow::HandshakeKind::kCapable);
  EXPECT_EQ(sfs[0]->local().addr, kClientWifiAddr);
  EXPECT_EQ(sfs[1]->kind(), MptcpSubflow::HandshakeKind::kJoin);
  EXPECT_EQ(sfs[1]->local().addr, kClientCellAddr);
  ASSERT_NE(rig.server_conn(), nullptr);
  EXPECT_EQ(rig.server_conn()->subflow_count(), 2u);
}

TEST(MptcpConnection, DelayedSynFollowsDataActivity) {
  MptcpRig rig{MptcpConfig{}, 1 << 20};
  rig.run_download(1 << 20);
  ASSERT_TRUE(rig.done);
  // Find the two SYN send times in the trace.
  sim::TimePoint capable_syn;
  sim::TimePoint join_syn;
  for (const auto& rec : rig.tb.trace()->records()) {
    if (rec.kind != net::TraceEvent::Kind::kSend) continue;
    if ((rec.flags & net::kFlagSyn) == 0 || (rec.flags & net::kFlagAck) != 0) continue;
    if (rec.flow.src.addr == kClientWifiAddr) capable_syn = rec.time;
    if (rec.flow.src.addr == kClientCellAddr && join_syn == sim::TimePoint{}) {
      join_syn = rec.time;
    }
  }
  // The join fires only after the first data-level exchange on WiFi
  // (~2 WiFi RTTs = ~44 ms), not immediately.
  EXPECT_GT((join_syn - capable_syn).to_millis(), 30.0);
}

TEST(MptcpConnection, SimultaneousSynsShareAnInstant) {
  MptcpConfig cfg;
  cfg.simultaneous_syns = true;
  MptcpRig rig{cfg, 1 << 20};
  rig.run_download(1 << 20);
  ASSERT_TRUE(rig.done);
  sim::TimePoint capable_syn;
  sim::TimePoint join_syn;
  for (const auto& rec : rig.tb.trace()->records()) {
    if (rec.kind != net::TraceEvent::Kind::kSend) continue;
    if ((rec.flags & net::kFlagSyn) == 0 || (rec.flags & net::kFlagAck) != 0) continue;
    if (rec.flow.src.addr == kClientWifiAddr) capable_syn = rec.time;
    if (rec.flow.src.addr == kClientCellAddr && join_syn == sim::TimePoint{}) {
      join_syn = rec.time;
    }
  }
  EXPECT_EQ(join_syn, capable_syn);
}

TEST(MptcpConnection, DataDeliveredInDsnOrder) {
  MptcpRig rig{MptcpConfig{}, 4 << 20};
  std::uint64_t next = 0;
  bool ordered = true;
  // Chain onto the HTTP client's delivery callback rather than replacing it.
  auto inner = rig.client->connection().on_data;
  rig.client->connection().on_data = [&, inner](std::uint64_t dsn, std::uint32_t len) {
    if (dsn != next) ordered = false;
    next = dsn + len;
    if (inner) inner(dsn, len);
  };
  rig.run_download(4 << 20);
  ASSERT_TRUE(rig.done);
  EXPECT_TRUE(ordered);
  // The request consumed the first data-level bytes of the client->server
  // direction; the download direction starts at 0 at the client.
  EXPECT_EQ(rig.client->connection().rx().delivered_bytes(), (4u << 20));
}

TEST(MptcpConnection, BothPathsCarryLargeDownload) {
  MptcpRig rig{MptcpConfig{}, 8 << 20};
  rig.run_download(8 << 20);
  ASSERT_TRUE(rig.done);
  const auto sfs = rig.client->connection().subflows();
  EXPECT_GT(sfs[0]->metrics().bytes_received, 1u << 20);
  EXPECT_GT(sfs[1]->metrics().bytes_received, 1u << 20);
}

TEST(MptcpConnection, AggregatesBothPathsBandwidth) {
  // 20 + 10 Mbit/s: an 8 MB download must beat the best single path's
  // theoretical time (8 MB at 20 Mbit/s = 3.3 s) once established.
  MptcpRig rig{MptcpConfig{}, 8 << 20};
  rig.run_download(8 << 20);
  ASSERT_TRUE(rig.done);
  EXPECT_LT(rig.fetch.download_time().to_seconds(), 3.3);
  EXPECT_GT(rig.fetch.download_time().to_seconds(), 8.0 * 8.0 / 30.0);  // capacity bound
}

TEST(MptcpConnection, FourPathUsesAddAddr) {
  MptcpRig rig{MptcpConfig{}, 4 << 20, /*four_path=*/true};
  rig.run_download(4 << 20);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.client->connection().subflow_count(), 4u);
  ASSERT_NE(rig.server_conn(), nullptr);
  EXPECT_EQ(rig.server_conn()->subflow_count(), 4u);
  // Two subflows per client interface.
  int wifi = 0;
  int cell = 0;
  for (const MptcpSubflow* sf : rig.client->connection().subflows()) {
    (sf->local().addr == kClientWifiAddr ? wifi : cell) += 1;
  }
  EXPECT_EQ(wifi, 2);
  EXPECT_EQ(cell, 2);
}

TEST(MptcpConnection, TwoPathWithoutAdvertiseStaysTwoPath) {
  MptcpRig rig{MptcpConfig{}, 1 << 20, /*four_path=*/false};
  rig.run_download(1 << 20);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.client->connection().subflow_count(), 2u);
}

TEST(MptcpConnection, OfoDelayArisesFromPathAsymmetry) {
  MptcpRig rig{MptcpConfig{}, 8 << 20};
  rig.run_download(8 << 20);
  ASSERT_TRUE(rig.done);
  const auto& samples = rig.client->connection().rx().ofo_samples();
  ASSERT_GT(samples.size(), 1000u);
  std::size_t delayed = 0;
  for (const OfoSample& s : samples) {
    if (s.delay > sim::Duration::zero()) ++delayed;
  }
  EXPECT_GT(delayed, samples.size() / 20) << "asymmetric paths must cause reordering";
}

TEST(MptcpConnection, DataFinSignalsEndOfStream) {
  MptcpRig rig{MptcpConfig{}, 64 << 10};
  bool fin_seen = false;
  rig.client->connection().on_data_fin = [&] { fin_seen = true; };
  // The HTTP server never sends DATA_FIN (persistent connection); drive a
  // manual one: use a raw client connection instead.
  MptcpConfig cfg;
  auto conn = std::make_unique<MptcpConnection>(
      rig.tb.client(), cfg, std::vector<net::IpAddr>{kClientWifiAddr, kClientCellAddr},
      net::SocketAddr{kServerAddr1, kHttpPort}, 424242);
  conn->on_data_fin = [&] { fin_seen = true; };
  // Server side: accept and answer with shutdown_data after writing.
  // Reuse the HTTP server: it answers requests but never DATA_FINs, so test
  // the client->server direction instead: client writes then DATA_FINs.
  conn->connect();
  conn->write(app::kRequestBytes);
  rig.tb.sim().run_for(sim::Duration::seconds(2));
  ASSERT_TRUE(conn->established());
  // Server connection received the request; now have the *server* close.
  ASSERT_FALSE(rig.server->connections().empty());
  MptcpConnection* sconn = rig.server->connections().back();
  sconn->shutdown_data();
  rig.tb.sim().run_for(sim::Duration::seconds(2));
  EXPECT_TRUE(fin_seen);
}

TEST(MptcpConnection, SubflowsCloseAfterDataFinAcked) {
  MptcpRig rig{MptcpConfig{}, 64 << 10};
  rig.run_download(64 << 10);
  ASSERT_TRUE(rig.done);
  MptcpConnection* sconn = rig.server_conn();
  ASSERT_NE(sconn, nullptr);
  sconn->shutdown_data();
  rig.tb.sim().run_for(sim::Duration::seconds(5));
  for (const MptcpSubflow* sf : sconn->subflows()) {
    EXPECT_TRUE(sf->state() == tcp::TcpState::kFinWait ||
                sf->state() == tcp::TcpState::kDone)
        << static_cast<int>(sf->state());
  }
}

TEST(MptcpServer, RejectsJoinWithUnknownToken) {
  MptcpRig rig{MptcpConfig{}, 64 << 10};
  net::PacketPtr rogue = rig.tb.client().pool().acquire();
  rogue->src = kClientCellAddr;
  rogue->dst = kServerAddr1;
  rogue->tcp.src_port = 55555;
  rogue->tcp.dst_port = kHttpPort;
  rogue->tcp.flags = net::kFlagSyn;
  rogue->tcp.set_mp_join(net::MpJoinOption{999999, 1});
  rig.tb.client().send(std::move(rogue));
  rig.tb.sim().run_for(sim::Duration::seconds(1));
  EXPECT_EQ(rig.server->server().rejected_joins(), 1u);
  EXPECT_EQ(rig.server->server().connection_count(), 0u);
}

TEST(MptcpConnection, SurvivesMidTransferPathDeath) {
  // Kill the cellular downlink mid-transfer: reinjection must rescue the
  // data stranded on the dead subflow and the download completes over WiFi.
  MptcpRig rig{MptcpConfig{}, 6 << 20};
  bool killed = false;
  rig.tb.sim().after(sim::Duration::millis(600), [&] {
    rig.tb.cell_access().downlink().set_loss_model(
        std::make_unique<net::BernoulliLoss>(1.0, rig.tb.sim().rng("kill")));
    rig.tb.cell_access().uplink().set_loss_model(
        std::make_unique<net::BernoulliLoss>(1.0, rig.tb.sim().rng("kill2")));
    killed = true;
  });
  rig.run_download(6 << 20, sim::Duration::seconds(300));
  EXPECT_TRUE(killed);
  ASSERT_TRUE(rig.done) << "transfer must complete over the surviving path";
  ASSERT_NE(rig.server_conn(), nullptr);
  EXPECT_GT(rig.server_conn()->reinjected_chunks(), 0u);
}

TEST(MptcpConnection, PenalizationFiresWhenReceiveLimited) {
  MptcpConfig cfg;
  cfg.penalization = true;
  cfg.subflow.receive_buffer = 64 * 1024;  // tight: slow path blocks the window
  MptcpRig rig{cfg, 6 << 20};
  rig.run_download(6 << 20, sim::Duration::seconds(120));
  ASSERT_TRUE(rig.done);
  ASSERT_NE(rig.server_conn(), nullptr);
  EXPECT_GT(rig.server_conn()->penalizations(), 0u);
}

TEST(MptcpConnection, NoPenalizationByDefault) {
  MptcpConfig cfg;
  cfg.subflow.receive_buffer = 64 * 1024;
  MptcpRig rig{cfg, 2 << 20};
  rig.run_download(2 << 20, sim::Duration::seconds(120));
  ASSERT_TRUE(rig.done);
  ASSERT_NE(rig.server_conn(), nullptr);
  EXPECT_EQ(rig.server_conn()->penalizations(), 0u);
}

TEST(MptcpScheduler, MinRttPrefersFastPathWhenAppLimited) {
  // Small objects: the scheduler should put (almost) everything on the
  // low-RTT WiFi path.
  MptcpRig rig{MptcpConfig{}, 32 << 10};
  rig.run_download(32 << 10);
  ASSERT_TRUE(rig.done);
  const auto sfs = rig.client->connection().subflows();
  EXPECT_EQ(sfs[0]->metrics().bytes_received, 32u << 10);
  EXPECT_EQ(sfs[1]->metrics().bytes_received, 0u);
}

TEST(MptcpScheduler, RoundRobinUsesSlowPathMore) {
  // App-limited sequence of small fetches: ordering policy decides which
  // path gets the scarce data. Round-robin must touch the slow path;
  // lowest-RTT must not.
  auto cell_bytes = [](SchedulerKind kind) {
    MptcpConfig cfg;
    cfg.scheduler = kind;
    MptcpRig rig{cfg, 24 << 10};
    for (int i = 0; i < 6; ++i) {
      rig.run_download(24 << 10);
      EXPECT_TRUE(rig.done);
    }
    const auto sfs = rig.client->connection().subflows();
    return sfs[1]->metrics().bytes_received;
  };
  const std::uint64_t rr = cell_bytes(SchedulerKind::kRoundRobin);
  const std::uint64_t minrtt = cell_bytes(SchedulerKind::kMinRtt);
  EXPECT_GT(rr, minrtt);
  EXPECT_EQ(minrtt, 0u);
}

TEST(MptcpConnection, DeterministicAcrossRuns) {
  auto run = [] {
    MptcpRig rig{MptcpConfig{}, 1 << 20, false, 99};
    rig.run_download(1 << 20);
    EXPECT_TRUE(rig.done);
    return rig.fetch.download_time();
  };
  EXPECT_EQ(run(), run());
}

TEST(MptcpConnection, PersistentConnectionServesSequentialRequests) {
  MptcpRig rig{MptcpConfig{}, 256 << 10};
  rig.run_download(256 << 10);
  ASSERT_TRUE(rig.done);
  const sim::Duration first = rig.fetch.download_time();
  rig.run_download(256 << 10);
  ASSERT_TRUE(rig.done);
  // Second fetch reuses the established connection: no handshake cost.
  EXPECT_LT(rig.fetch.fetch_time(), first);
  EXPECT_EQ(rig.client->connection().rx().delivered_bytes(), 2u * (256u << 10));
}

}  // namespace
}  // namespace mpr::core
