// TCP endpoint tests: handshake, slow start, congestion avoidance, fast
// retransmit/SACK recovery, RTO behaviour, delayed ACKs, flow control, FIN.
//
// The rig is a clean point-to-point network with deterministic links so
// packet-level behaviour can be asserted exactly; loss is injected by index.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "net/host.h"
#include "net/link.h"
#include "net/network.h"
#include "tcp/endpoint.h"
#include "tcp/listener.h"

namespace mpr::tcp {
namespace {

constexpr net::IpAddr kClientAddr{1};
constexpr net::IpAddr kServerAddr{10};
constexpr std::uint16_t kPort = 8080;

/// Drops exactly the packets whose index (0-based, in link service order)
/// is in `drops`.
class DropByIndex final : public net::LossModel {
 public:
  explicit DropByIndex(std::set<std::uint64_t> drops) : drops_{std::move(drops)} {}
  bool should_drop() override { return drops_.contains(index_++); }

 private:
  std::set<std::uint64_t> drops_;
  std::uint64_t index_{0};
};

class TcpRig {
 public:
  explicit TcpRig(std::uint64_t seed = 1, double rate_bps = 10e6,
                  sim::Duration owd = sim::Duration::millis(10))
      : sim{seed},
        network{sim},
        server{sim, network, {kServerAddr}},
        client{sim, network, {kClientAddr}} {
    net::Link::Config up_cfg{.name = "up", .rate_bps = rate_bps, .prop_delay = owd,
                             .queue_capacity_bytes = 1 << 20};
    net::Link::Config down_cfg{.name = "down", .rate_bps = rate_bps, .prop_delay = owd,
                               .queue_capacity_bytes = 1 << 20};
    auto deliver = [this](net::PacketPtr p) { network.deliver_local(std::move(p)); };
    up = std::make_unique<net::Link>(sim, up_cfg, deliver);
    down = std::make_unique<net::Link>(sim, down_cfg, deliver);
    network.set_access(kClientAddr, up.get(), down.get());
  }

  /// Creates server app (echoing `response_bytes` per request) and client.
  void start(TcpConfig config, std::uint64_t client_write = 0) {
    acceptor = std::make_unique<TcpAcceptor>(server, kPort, config,
                                             [this](TcpEndpoint& ep) { server_ep = &ep; });
    client_ep = std::make_unique<TcpEndpoint>(
        client, net::SocketAddr{kClientAddr, client.ephemeral_port()},
        net::SocketAddr{kServerAddr, kPort}, config);
    client_ep->connect();
    if (client_write > 0) client_ep->write(client_write);
  }

  sim::Simulation sim;
  net::Network network;
  net::Host server;
  net::Host client;
  std::unique_ptr<net::Link> up;
  std::unique_ptr<net::Link> down;
  std::unique_ptr<TcpAcceptor> acceptor;
  std::unique_ptr<TcpEndpoint> client_ep;
  TcpEndpoint* server_ep{nullptr};
};

TEST(TcpHandshake, EstablishesBothEnds) {
  TcpRig rig;
  rig.start(TcpConfig{});
  rig.sim.run_for(sim::Duration::millis(100));
  ASSERT_NE(rig.server_ep, nullptr);
  EXPECT_EQ(rig.client_ep->state(), TcpState::kEstablished);
  EXPECT_EQ(rig.server_ep->state(), TcpState::kEstablished);
}

TEST(TcpHandshake, TakesOneRttPlusService) {
  TcpRig rig;
  bool established = false;
  sim::TimePoint when;
  rig.start(TcpConfig{});
  rig.client_ep->on_established = [&] {
    established = true;
    when = rig.sim.now();
  };
  rig.sim.run_for(sim::Duration::millis(200));
  ASSERT_TRUE(established);
  EXPECT_NEAR((when - sim::TimePoint::origin()).to_millis(), 20.0, 1.0);
}

TEST(TcpHandshake, HandshakeYieldsRttSample) {
  TcpRig rig;
  rig.start(TcpConfig{});
  rig.sim.run_for(sim::Duration::millis(100));
  ASSERT_FALSE(rig.client_ep->metrics().rtt_samples.empty());
  EXPECT_NEAR(rig.client_ep->metrics().rtt_samples[0].to_millis(), 20.0, 1.0);
}

TEST(TcpHandshake, SynLossRecoveredByRetransmission) {
  TcpRig rig;
  rig.up->set_loss_model(std::make_unique<DropByIndex>(std::set<std::uint64_t>{0}));
  rig.start(TcpConfig{});
  rig.sim.run_for(sim::Duration::seconds(5));
  EXPECT_EQ(rig.client_ep->state(), TcpState::kEstablished);
  // Establishment paid the initial RTO (1 s).
  EXPECT_GT(rig.client_ep->metrics().established_time.to_millis(), 1000.0);
}

TEST(TcpHandshake, SynAckLossRecovered) {
  TcpRig rig;
  rig.down->set_loss_model(std::make_unique<DropByIndex>(std::set<std::uint64_t>{0}));
  rig.start(TcpConfig{});
  rig.sim.run_for(sim::Duration::seconds(5));
  EXPECT_EQ(rig.client_ep->state(), TcpState::kEstablished);
}

TEST(TcpHandshake, GivesUpAfterMaxRetries) {
  TcpRig rig;
  rig.up->set_loss_model(std::make_unique<net::BernoulliLoss>(1.0, rig.sim.rng("all")));
  TcpConfig cfg;
  cfg.max_syn_retries = 2;
  rig.start(cfg);
  rig.sim.run_for(sim::Duration::seconds(30));
  EXPECT_EQ(rig.client_ep->state(), TcpState::kClosed);
}

TEST(TcpTransfer, ServerToClientDeliversAllBytes) {
  TcpRig rig;
  std::uint64_t received = 0;
  rig.start(TcpConfig{});
  rig.client_ep->on_data = [&](std::uint64_t, std::uint32_t len) { received += len; };
  rig.client_ep->on_established = [&] { rig.client_ep->write(100); };
  rig.acceptor = nullptr;  // replace app wiring: respond on data
  // Re-create acceptor that writes 300000 bytes upon request.
  rig.server_ep = nullptr;
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, TcpConfig{}, [&rig](TcpEndpoint& ep) {
        rig.server_ep = &ep;
        ep.on_data = [&ep](std::uint64_t, std::uint32_t) { ep.write(300000); };
      });
  rig.sim.run_for(sim::Duration::seconds(10));
  EXPECT_EQ(received, 300000u);
  EXPECT_EQ(rig.client_ep->metrics().bytes_received, 300000u);
}

TEST(TcpTransfer, InOrderDeliveryOffsets) {
  TcpRig rig;
  std::uint64_t next_expected = 0;
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, TcpConfig{}, [](TcpEndpoint& ep) {
        ep.on_data = [&ep](std::uint64_t, std::uint32_t) { ep.write(50000); };
      });
  rig.client_ep = std::make_unique<TcpEndpoint>(
      rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
      TcpConfig{});
  rig.client_ep->on_data = [&](std::uint64_t offset, std::uint32_t len) {
    EXPECT_EQ(offset, next_expected);
    next_expected = offset + len;
  };
  rig.client_ep->connect();
  rig.client_ep->write(100);
  rig.sim.run_for(sim::Duration::seconds(5));
  EXPECT_EQ(next_expected, 50000u);
}

class TcpWindowTest : public ::testing::Test {
 protected:
  /// Runs a large transfer and samples the server cwnd at `at`; returns
  /// cwnd in bytes.
  static double cwnd_at(sim::Duration at, TcpConfig cfg, std::uint64_t response = 10 << 20) {
    TcpRig rig{1, 1e9, sim::Duration::millis(50)};  // fat pipe: no queueing
    rig.acceptor = std::make_unique<TcpAcceptor>(
        rig.server, kPort, cfg, [&rig, response](TcpEndpoint& ep) {
          rig.server_ep = &ep;
          ep.on_data = [&ep, response](std::uint64_t, std::uint32_t) { ep.write(response); };
        });
    rig.client_ep = std::make_unique<TcpEndpoint>(
        rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
        cfg);
    rig.client_ep->connect();
    rig.client_ep->write(100);
    rig.sim.run_for(at);
    return rig.server_ep != nullptr ? rig.server_ep->cwnd_bytes() : 0.0;
  }
};

TEST_F(TcpWindowTest, InitialWindowTenSegments) {
  TcpConfig cfg;
  const double w = cwnd_at(sim::Duration::millis(101), cfg);  // handshake done, no acks yet
  EXPECT_NEAR(w, 10.0 * kMss, 1.0);
}

TEST_F(TcpWindowTest, SlowStartDoublesPerRtt) {
  TcpConfig cfg;
  cfg.initial_ssthresh = kInfiniteSsthresh;
  // RTT 100 ms. The server starts sending at ~150 ms (GET arrival); its
  // first flight is acked at ~250 ms, the second at ~350 ms.
  const double w1 = cwnd_at(sim::Duration::millis(280), cfg);
  const double w2 = cwnd_at(sim::Duration::millis(380), cfg);
  EXPECT_NEAR(w1 / (10.0 * kMss), 2.0, 0.3);
  EXPECT_NEAR(w2 / w1, 2.0, 0.3);
}

TEST_F(TcpWindowTest, SsthreshCapsSlowStart) {
  TcpConfig cfg;
  cfg.initial_ssthresh = 64 * 1024;
  const double w = cwnd_at(sim::Duration::millis(480), cfg);
  // Window exceeds ssthresh only via linear CA growth: ~1-2 MSS per RTT.
  EXPECT_GE(w, 64.0 * 1024);
  EXPECT_LT(w, 64.0 * 1024 + 6.0 * kMss);
}

TEST_F(TcpWindowTest, CongestionAvoidanceGrowsRoughlyOneMssPerRtt) {
  TcpConfig cfg;
  cfg.initial_ssthresh = 64 * 1024;
  const double w1 = cwnd_at(sim::Duration::millis(600), cfg);
  const double w2 = cwnd_at(sim::Duration::millis(1600), cfg);  // +10 RTTs
  const double growth_per_rtt = (w2 - w1) / 10.0 / kMss;
  EXPECT_GT(growth_per_rtt, 0.6);
  EXPECT_LT(growth_per_rtt, 1.6);
}

TEST(TcpRecovery, FastRetransmitRepairsSingleLoss) {
  TcpRig rig;
  // Drop one data packet mid-transfer on the downlink. Index 1 is the
  // SYN-ACK... track data only: use an index well into the transfer.
  rig.down->set_loss_model(std::make_unique<DropByIndex>(std::set<std::uint64_t>{20}));
  std::uint64_t received = 0;
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, TcpConfig{}, [&rig](TcpEndpoint& ep) {
        rig.server_ep = &ep;
        ep.on_data = [&ep](std::uint64_t, std::uint32_t) { ep.write(400000); };
      });
  rig.client_ep = std::make_unique<TcpEndpoint>(
      rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
      TcpConfig{});
  rig.client_ep->on_data = [&](std::uint64_t, std::uint32_t len) { received += len; };
  rig.client_ep->connect();
  rig.client_ep->write(100);
  rig.sim.run_for(sim::Duration::seconds(10));
  EXPECT_EQ(received, 400000u);
  ASSERT_NE(rig.server_ep, nullptr);
  EXPECT_EQ(rig.server_ep->metrics().fast_retransmit_events, 1u);
  EXPECT_EQ(rig.server_ep->metrics().timeouts, 0u) << "loss should not need an RTO";
  EXPECT_EQ(rig.server_ep->metrics().rexmit_packets, 1u);
}

TEST(TcpRecovery, SackRepairsMultipleLossesInOneWindow) {
  TcpRig rig;
  rig.down->set_loss_model(
      std::make_unique<DropByIndex>(std::set<std::uint64_t>{20, 23, 26}));
  std::uint64_t received = 0;
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, TcpConfig{}, [&rig](TcpEndpoint& ep) {
        rig.server_ep = &ep;
        ep.on_data = [&ep](std::uint64_t, std::uint32_t) { ep.write(400000); };
      });
  rig.client_ep = std::make_unique<TcpEndpoint>(
      rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
      TcpConfig{});
  rig.client_ep->on_data = [&](std::uint64_t, std::uint32_t len) { received += len; };
  rig.client_ep->connect();
  rig.client_ep->write(100);
  rig.sim.run_for(sim::Duration::seconds(10));
  EXPECT_EQ(received, 400000u);
  ASSERT_NE(rig.server_ep, nullptr);
  EXPECT_EQ(rig.server_ep->metrics().rexmit_packets, 3u);
  EXPECT_EQ(rig.server_ep->metrics().timeouts, 0u);
}

TEST(TcpRecovery, LossHalvesCwnd) {
  TcpRig rig;
  rig.down->set_loss_model(std::make_unique<DropByIndex>(std::set<std::uint64_t>{40}));
  TcpConfig cfg;
  cfg.initial_ssthresh = kInfiniteSsthresh;
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, cfg, [&rig](TcpEndpoint& ep) {
        rig.server_ep = &ep;
        ep.on_data = [&ep](std::uint64_t, std::uint32_t) { ep.write(4 << 20); };
      });
  rig.client_ep = std::make_unique<TcpEndpoint>(
      rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
      cfg);
  rig.client_ep->connect();
  rig.client_ep->write(100);

  double max_before = 0;
  bool saw_halving = false;
  std::function<void()> watch = [&] {
    if (rig.server_ep != nullptr) {
      const double w = rig.server_ep->cwnd_bytes();
      if (w < max_before * 0.6 && max_before > 20 * kMss) saw_halving = true;
      max_before = std::max(max_before, w);
    }
    rig.sim.after(sim::Duration::millis(5), watch);
  };
  rig.sim.after(sim::Duration::millis(5), watch);
  rig.sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(8));
  EXPECT_TRUE(saw_halving);
}

TEST(TcpRecovery, TailLossRecoveredByRto) {
  TcpRig rig;
  // The request is packet 0 upstream; the response is 3 packets; drop the
  // last one (no dupacks possible).
  rig.down->set_loss_model(std::make_unique<DropByIndex>(std::set<std::uint64_t>{3}));
  std::uint64_t received = 0;
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, TcpConfig{}, [&rig](TcpEndpoint& ep) {
        rig.server_ep = &ep;
        ep.on_data = [&ep](std::uint64_t, std::uint32_t) { ep.write(4000); };
      });
  rig.client_ep = std::make_unique<TcpEndpoint>(
      rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
      TcpConfig{});
  rig.client_ep->on_data = [&](std::uint64_t, std::uint32_t len) { received += len; };
  rig.client_ep->connect();
  rig.client_ep->write(100);
  rig.sim.run_for(sim::Duration::seconds(10));
  EXPECT_EQ(received, 4000u);
  ASSERT_NE(rig.server_ep, nullptr);
  EXPECT_GE(rig.server_ep->metrics().timeouts, 1u);
}

TEST(TcpRecovery, RtoBackoffGrowsExponentially) {
  TcpRig rig;
  rig.start(TcpConfig{});
  rig.sim.run_for(sim::Duration::millis(100));
  ASSERT_EQ(rig.client_ep->state(), TcpState::kEstablished);
  // Cut the uplink entirely, then send data from the client.
  rig.up->set_loss_model(std::make_unique<net::BernoulliLoss>(1.0, rig.sim.rng("cut")));
  rig.client_ep->write(1000);
  rig.sim.run_for(sim::Duration::seconds(10));
  EXPECT_GE(rig.client_ep->metrics().timeouts, 3u);
  EXPECT_GT(rig.client_ep->rto(), sim::Duration::seconds(1));
}

TEST(TcpAcks, DelayedAcksReduceAckTraffic) {
  // Past the quick-ack start the client ACKs every second segment, so its
  // pure ACKs fall well short of the data segments it receives.
  TcpRig rig;
  std::uint64_t acks = 0;
  std::uint64_t data_segments = 0;
  rig.network.add_observer([&](const net::TraceEvent& ev) {
    const net::Packet& p = ev.packet;
    if (ev.kind == net::TraceEvent::Kind::kDeliver && p.dst == kClientAddr &&
        p.payload_bytes > 0) {
      ++data_segments;
    }
    if (ev.kind == net::TraceEvent::Kind::kSend && p.payload_bytes == 0 &&
        p.tcp.has(net::kFlagAck) && !p.tcp.has(net::kFlagSyn) && p.src == kClientAddr) {
      ++acks;
    }
  });
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, TcpConfig{}, [](TcpEndpoint& ep) {
        ep.on_data = [&ep](std::uint64_t, std::uint32_t) { ep.write(500000); };
      });
  rig.client_ep = std::make_unique<TcpEndpoint>(
      rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
      TcpConfig{});
  rig.client_ep->connect();
  rig.client_ep->write(100);
  rig.sim.run_for(sim::Duration::seconds(20));
  EXPECT_EQ(rig.client_ep->metrics().bytes_received, 500000u);
  EXPECT_GE(data_segments, 500000u / kMss);
  EXPECT_LT(acks, data_segments * 3 / 4);
}

TEST(TcpFlowControl, SenderRespectsReceiveWindow) {
  TcpRig rig;
  TcpConfig cfg;
  cfg.receive_buffer = 8 * 1400;  // tiny advertised window
  std::uint64_t max_flight = 0;
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, cfg, [&rig](TcpEndpoint& ep) {
        rig.server_ep = &ep;
        ep.on_data = [&ep](std::uint64_t, std::uint32_t) { ep.write(300000); };
      });
  rig.client_ep = std::make_unique<TcpEndpoint>(
      rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
      cfg);
  rig.client_ep->connect();
  rig.client_ep->write(100);
  std::function<void()> watch = [&] {
    if (rig.server_ep != nullptr) {
      max_flight = std::max(max_flight, rig.server_ep->bytes_in_flight());
    }
    rig.sim.after(sim::Duration::millis(1), watch);
  };
  rig.sim.after(sim::Duration::millis(1), watch);
  rig.sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(20));
  EXPECT_EQ(rig.client_ep->metrics().bytes_received, 300000u);
  EXPECT_LE(max_flight, cfg.receive_buffer + kMss);
}

TEST(TcpClose, FinHandshakeReachesDone) {
  TcpRig rig;
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, TcpConfig{}, [&rig](TcpEndpoint& ep) {
        rig.server_ep = &ep;
        ep.on_data = [&ep](std::uint64_t, std::uint32_t) {
          ep.write(5000);
          ep.shutdown_write();
        };
      });
  rig.client_ep = std::make_unique<TcpEndpoint>(
      rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
      TcpConfig{});
  bool peer_fin = false;
  rig.client_ep->on_peer_fin = [&] {
    peer_fin = true;
    rig.client_ep->shutdown_write();
  };
  rig.client_ep->connect();
  rig.client_ep->write(100);
  rig.sim.run_for(sim::Duration::seconds(5));
  EXPECT_TRUE(peer_fin);
  EXPECT_EQ(rig.server_ep->state(), TcpState::kDone);
  EXPECT_EQ(rig.client_ep->state(), TcpState::kDone);
}

TEST(TcpMetrics, LossRateMatchesInjectedLoss) {
  TcpRig rig{42};
  rig.down->set_loss_model(std::make_unique<net::BernoulliLoss>(0.02, rig.sim.rng("loss")));
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, TcpConfig{}, [&rig](TcpEndpoint& ep) {
        rig.server_ep = &ep;
        ep.on_data = [&ep](std::uint64_t, std::uint32_t) { ep.write(3 << 20); };
      });
  rig.client_ep = std::make_unique<TcpEndpoint>(
      rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
      TcpConfig{});
  rig.client_ep->connect();
  rig.client_ep->write(100);
  rig.sim.run_for(sim::Duration::seconds(60));
  EXPECT_EQ(rig.client_ep->metrics().bytes_received, 3u << 20);
  ASSERT_NE(rig.server_ep, nullptr);
  EXPECT_NEAR(rig.server_ep->metrics().loss_rate(), 0.02, 0.012);
}

TEST(TcpMetrics, RttSamplesReflectPathRtt) {
  TcpRig rig{7, 100e6, sim::Duration::millis(30)};
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, TcpConfig{}, [&rig](TcpEndpoint& ep) {
        rig.server_ep = &ep;
        ep.on_data = [&ep](std::uint64_t, std::uint32_t) { ep.write(200000); };
      });
  rig.client_ep = std::make_unique<TcpEndpoint>(
      rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
      TcpConfig{});
  rig.client_ep->connect();
  rig.client_ep->write(100);
  rig.sim.run_for(sim::Duration::seconds(10));
  ASSERT_NE(rig.server_ep, nullptr);
  ASSERT_GT(rig.server_ep->metrics().rtt_samples.size(), 10u);
  for (const sim::Duration d : rig.server_ep->metrics().rtt_samples) {
    EXPECT_GE(d.to_millis(), 60.0 - 1.0);   // at least 2x owd
    EXPECT_LE(d.to_millis(), 60.0 + 60.0);  // plus delack/serialization slack
  }
}

TEST(TcpMetrics, FirstSynTimeRecorded) {
  TcpRig rig;
  rig.sim.run_for(sim::Duration::millis(500));
  rig.start(TcpConfig{});
  EXPECT_EQ(rig.client_ep->metrics().first_syn_time.to_millis(), 500.0);
}

TEST(TcpTransfer, BidirectionalDataFlows) {
  TcpRig rig;
  std::uint64_t client_received = 0;
  std::uint64_t server_received = 0;
  rig.acceptor = std::make_unique<TcpAcceptor>(
      rig.server, kPort, TcpConfig{}, [&](TcpEndpoint& ep) {
        rig.server_ep = &ep;
        ep.on_data = [&](std::uint64_t, std::uint32_t len) { server_received += len; };
        ep.write(50000);
      });
  rig.client_ep = std::make_unique<TcpEndpoint>(
      rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
      TcpConfig{});
  rig.client_ep->on_data = [&](std::uint64_t, std::uint32_t len) { client_received += len; };
  rig.client_ep->connect();
  rig.client_ep->write(70000);
  rig.sim.run_for(sim::Duration::seconds(10));
  EXPECT_EQ(client_received, 50000u);
  EXPECT_EQ(server_received, 70000u);
}

TEST(TcpTransfer, SsthreshInfinityKeepsExponentialGrowth) {
  // Ablation from §3.1: with ssthresh = infinity a loss-free path never
  // leaves slow start and the transfer completes faster.
  auto run_time = [](std::uint64_t ssthresh) {
    TcpRig rig{3, 50e6, sim::Duration::millis(40)};
    sim::TimePoint done;
    rig.acceptor = std::make_unique<TcpAcceptor>(
        rig.server, kPort,
        TcpConfig{.initial_ssthresh = ssthresh},
        [ssthresh](TcpEndpoint& ep) {
          ep.on_data = [&ep](std::uint64_t, std::uint32_t) { ep.write(8 << 20); };
        });
    TcpConfig ccfg;
    ccfg.initial_ssthresh = ssthresh;
    rig.client_ep = std::make_unique<TcpEndpoint>(
        rig.client, net::SocketAddr{kClientAddr, 40000}, net::SocketAddr{kServerAddr, kPort},
        ccfg);
    std::uint64_t received = 0;
    rig.client_ep->on_data = [&](std::uint64_t, std::uint32_t len) {
      received += len;
      if (received == (8u << 20)) done = rig.sim.now();
    };
    rig.client_ep->connect();
    rig.client_ep->write(100);
    rig.sim.run_for(sim::Duration::seconds(60));
    EXPECT_EQ(received, 8u << 20);
    return done;
  };
  const sim::TimePoint capped = run_time(64 * 1024);
  const sim::TimePoint uncapped = run_time(kInfiniteSsthresh);
  EXPECT_LT(uncapped, capped);
}

}  // namespace
}  // namespace mpr::tcp
