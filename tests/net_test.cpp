// Unit tests for the network substrate: packets, loss models, links
// (serialization, queueing, FIFO ordering, gating), routing and host demux.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/host.h"
#include "net/link.h"
#include "net/loss.h"
#include "net/network.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulation.h"

namespace mpr::net {
namespace {

Packet make_data_packet(IpAddr src, IpAddr dst, std::uint32_t payload) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.tcp.src_port = 1000;
  p.tcp.dst_port = 2000;
  p.payload_bytes = payload;
  return p;
}

/// Pooled variant for the ownership (send) paths.
PacketPtr pooled_data_packet(sim::Simulation& sim, IpAddr src, IpAddr dst,
                             std::uint32_t payload) {
  PacketPtr p = sim.service<PacketPool>().acquire();
  p->src = src;
  p->dst = dst;
  p->tcp.src_port = 1000;
  p->tcp.dst_port = 2000;
  p->payload_bytes = payload;
  return p;
}

TEST(PacketTest, WireBytesIncludesHeaders) {
  Packet p = make_data_packet(IpAddr{1}, IpAddr{2}, 1000);
  EXPECT_EQ(p.wire_bytes(), 1040u);  // 40-byte IP+TCP header
}

TEST(PacketTest, WireBytesIncludesOptions) {
  Packet p = make_data_packet(IpAddr{1}, IpAddr{2}, 0);
  const std::uint32_t base = p.wire_bytes();
  p.tcp.set_dss(DssOption{});
  EXPECT_EQ(p.wire_bytes(), base + 20);
  p.tcp.sack.push_back(SackBlock{0, 10});
  p.tcp.sack.push_back(SackBlock{20, 30});
  EXPECT_EQ(p.wire_bytes(), base + 20 + 2 + 16);
  p.tcp.set_mp_capable(MpCapableOption{});
  p.tcp.set_mp_join(MpJoinOption{});
  p.tcp.set_add_addr(AddAddrOption{});
  EXPECT_EQ(p.wire_bytes(), base + 20 + 18 + 12 + 12 + 8);
}

TEST(PacketTest, FlagsAndFlowKey) {
  Packet p = make_data_packet(IpAddr{1}, IpAddr{2}, 0);
  p.tcp.flags = kFlagSyn | kFlagAck;
  EXPECT_TRUE(p.tcp.has(kFlagSyn));
  EXPECT_TRUE(p.tcp.has(kFlagAck));
  EXPECT_FALSE(p.tcp.has(kFlagFin));
  const FlowKey f = p.flow();
  EXPECT_EQ(f.src.addr, IpAddr{1});
  EXPECT_EQ(f.dst.port, 2000);
  EXPECT_EQ(f.reversed().src.port, 2000);
}

TEST(PacketTest, ToStringRendersFlagsAndSeq) {
  Packet p = make_data_packet(IpAddr{1}, IpAddr{2}, 99);
  p.tcp.flags = kFlagSyn;
  p.tcp.seq = 7;
  const std::string s = to_string(p);
  EXPECT_NE(s.find("[S]"), std::string::npos);
  EXPECT_NE(s.find("seq=7"), std::string::npos);
  EXPECT_NE(s.find("len=99"), std::string::npos);
}

// Fill every Packet field — header, timestamps, SACK, and a random subset of
// options — with draws from `rng`, through the public mutators.
void scribble_packet(Packet& p, sim::Rng& rng) {
  p.uid = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  p.src = IpAddr{static_cast<std::uint32_t>(rng.uniform_int(1, 255))};
  p.dst = IpAddr{static_cast<std::uint32_t>(rng.uniform_int(1, 255))};
  p.payload_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 1460));
  p.is_retransmit = rng.chance(0.5);
  p.first_sent_time = sim::TimePoint::from_ns(rng.uniform_int(1, 1'000'000));
  p.enqueue_time = sim::TimePoint::from_ns(rng.uniform_int(1, 1'000'000));
  p.tcp.src_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
  p.tcp.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
  p.tcp.flags = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
  p.tcp.seq = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  p.tcp.ack = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  p.tcp.wnd = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  const auto blocks = rng.uniform_int(0, static_cast<std::int64_t>(kMaxSackBlocks));
  for (std::int64_t i = 0; i < blocks; ++i) {
    const auto b = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    p.tcp.sack.push_back(SackBlock{b, b + 1000});
  }
  if (rng.chance(0.7)) {
    DssOption& dss = p.tcp.ensure_dss();
    dss.dsn = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    dss.length = static_cast<std::uint32_t>(rng.uniform_int(1, 1460));
    dss.has_data_ack = rng.chance(0.8);
    dss.data_ack = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    dss.data_fin = rng.chance(0.1);
    dss.has_checksum = rng.chance(0.5);
    dss.checksum = dss_checksum(dss.dsn, dss.length);
  }
  if (rng.chance(0.5)) p.tcp.set_mp_capable(MpCapableOption{1, 2});
  if (rng.chance(0.5)) p.tcp.set_mp_join(MpJoinOption{42, 3, true});
  if (rng.chance(0.5)) p.tcp.set_add_addr(AddAddrOption{IpAddr{9}, 4});
  if (rng.chance(0.5)) p.tcp.set_remove_addr(RemoveAddrOption{IpAddr{9}, 7});
  if (rng.chance(0.5)) p.tcp.set_mp_prio(MpPrioOption{false});
  if (rng.chance(0.5)) p.tcp.set_mp_fail(MpFailOption{123, true});
}

// Field-for-field comparison of a recycled packet against a fresh default
// one (cannot memcmp: padding bytes are not specified after copy-assign).
void expect_packet_is_fresh(const Packet& p, PacketPool* expected_pool) {
  const Packet fresh;
  EXPECT_EQ(p.uid, fresh.uid);
  EXPECT_EQ(p.src, fresh.src);
  EXPECT_EQ(p.dst, fresh.dst);
  EXPECT_EQ(p.payload_bytes, fresh.payload_bytes);
  EXPECT_EQ(p.is_retransmit, fresh.is_retransmit);
  EXPECT_EQ(p.first_sent_time.ns(), fresh.first_sent_time.ns());
  EXPECT_EQ(p.enqueue_time.ns(), fresh.enqueue_time.ns());
  EXPECT_EQ(p.origin_pool, expected_pool);
  EXPECT_EQ(p.tcp.src_port, fresh.tcp.src_port);
  EXPECT_EQ(p.tcp.dst_port, fresh.tcp.dst_port);
  EXPECT_EQ(p.tcp.flags, fresh.tcp.flags);
  EXPECT_EQ(p.tcp.seq, fresh.tcp.seq);
  EXPECT_EQ(p.tcp.ack, fresh.tcp.ack);
  EXPECT_EQ(p.tcp.wnd, fresh.tcp.wnd);
  EXPECT_FALSE(p.tcp.has_any_option());
  EXPECT_EQ(p.tcp.dss(), nullptr);
  EXPECT_EQ(p.tcp.mp_capable(), nullptr);
  EXPECT_EQ(p.tcp.mp_join(), nullptr);
  EXPECT_EQ(p.tcp.add_addr(), nullptr);
  EXPECT_EQ(p.tcp.remove_addr(), nullptr);
  EXPECT_EQ(p.tcp.mp_prio(), nullptr);
  EXPECT_EQ(p.tcp.mp_fail(), nullptr);
  EXPECT_TRUE(p.tcp.sack.empty());
  EXPECT_EQ(p.wire_bytes(), fresh.wire_bytes());
  // The presence mask is authoritative, but the value slots must also reset
  // so a recycled packet is indistinguishable from a fresh one even through
  // a stale pointer or a later ensure_dss() (which must hand back zeroes).
  Packet& mut = const_cast<Packet&>(p);
  EXPECT_EQ(mut.tcp.ensure_dss().dsn, 0u);
  EXPECT_EQ(mut.tcp.ensure_dss().length, 0u);
  EXPECT_FALSE(mut.tcp.ensure_dss().has_data_ack);
  EXPECT_FALSE(mut.tcp.ensure_dss().has_checksum);
  mut.tcp.clear_dss();
}

TEST(PacketPoolTest, RecycledPacketMatchesFreshFieldForField) {
  sim::Simulation sim{404};
  PacketPool& pool = sim.service<PacketPool>();
  sim::Rng rng = sim.rng("pool.reuse");
  for (int round = 0; round < 200; ++round) {
    Packet* raw = nullptr;
    {
      PacketPtr p = pool.acquire();
      raw = p.get();
      scribble_packet(*p, rng);
    }  // recycled here
    PacketPtr again = pool.acquire();
    ASSERT_EQ(again.get(), raw) << "freelist should hand back the same slot";
    expect_packet_is_fresh(*again, &pool);
  }
  // One heap allocation total: two acquires per round, all but the first
  // served from the freelist.
  EXPECT_EQ(pool.stats().allocs, 1u);
  EXPECT_EQ(pool.stats().reuses, 399u);
}

TEST(LossTest, NoLossNeverDrops) {
  NoLoss m;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(m.should_drop());
}

TEST(LossTest, BernoulliMatchesProbability) {
  sim::Simulation sim{3};
  BernoulliLoss m{0.2, sim.rng("loss")};
  int drops = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) drops += m.should_drop() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / kTrials, 0.2, 0.015);
}

TEST(LossTest, GilbertElliottMatchesSteadyState) {
  sim::Simulation sim{3};
  GilbertElliottLoss::Params params{.p_good_to_bad = 0.01,
                                    .p_bad_to_good = 0.2,
                                    .loss_good = 0.005,
                                    .loss_bad = 0.3};
  GilbertElliottLoss m{params, sim.rng("ge")};
  int drops = 0;
  constexpr int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) drops += m.should_drop() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / kTrials, m.steady_state_loss(), 0.004);
}

TEST(LossTest, GilbertElliottIsBursty) {
  // Consecutive drops should be far more common than under i.i.d. loss with
  // the same average rate.
  sim::Simulation sim{5};
  GilbertElliottLoss::Params params{.p_good_to_bad = 0.004,
                                    .p_bad_to_good = 0.25,
                                    .loss_good = 0.001,
                                    .loss_bad = 0.5};
  GilbertElliottLoss m{params, sim.rng("ge")};
  int drops = 0;
  int consecutive = 0;
  bool prev = false;
  constexpr int kTrials = 300000;
  for (int i = 0; i < kTrials; ++i) {
    const bool d = m.should_drop();
    drops += d ? 1 : 0;
    if (d && prev) ++consecutive;
    prev = d;
  }
  const double rate = static_cast<double>(drops) / kTrials;
  const double p_consec = static_cast<double>(consecutive) / drops;
  EXPECT_GT(p_consec, 3 * rate);  // i.i.d. would give ~rate
}

class LinkTest : public ::testing::Test {
 protected:
  sim::Simulation sim{1};
  std::vector<Packet> delivered;
  std::vector<sim::TimePoint> times;

  Link make_link(Link::Config cfg) {
    return Link{sim, cfg, [this](PacketPtr p) {
                  delivered.push_back(*p);  // copy out; the handle recycles
                  times.push_back(sim.now());
                }};
  }

  PacketPtr packet(std::uint32_t payload) {
    return pooled_data_packet(sim, IpAddr{1}, IpAddr{2}, payload);
  }
};

TEST_F(LinkTest, SerializationPlusPropagationDelay) {
  // 1000B payload -> 1040B wire = 8320 bits at 8.32 Mbit/s = 1 ms, +5 ms prop.
  Link link = make_link({.name = "l", .rate_bps = 8.32e6,
                         .prop_delay = sim::Duration::millis(5),
                         .queue_capacity_bytes = 100000});
  link.send(packet(1000));
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_NEAR(times[0].to_millis(), 6.0, 1e-6);
}

TEST_F(LinkTest, BackToBackPacketsSerialize) {
  Link link = make_link({.name = "l", .rate_bps = 8.32e6,
                         .prop_delay = sim::Duration::millis(5),
                         .queue_capacity_bytes = 100000});
  for (int i = 0; i < 3; ++i) link.send(packet(1000));
  sim.run();
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_NEAR(times[0].to_millis(), 6.0, 1e-6);
  EXPECT_NEAR(times[1].to_millis(), 7.0, 1e-6);
  EXPECT_NEAR(times[2].to_millis(), 8.0, 1e-6);
}

TEST_F(LinkTest, QueueOverflowDropsTail) {
  Link link = make_link({.name = "l", .rate_bps = 1e6,
                         .prop_delay = sim::Duration::millis(1),
                         .queue_capacity_bytes = 3000});
  for (int i = 0; i < 10; ++i) link.send(packet(1000));
  sim.run();
  EXPECT_LT(delivered.size(), 10u);
  EXPECT_GT(link.stats().packets_dropped_queue, 0u);
  EXPECT_EQ(link.stats().packets_dropped_queue + link.stats().packets_delivered, 10u);
}

TEST_F(LinkTest, WireLossDropsButKeepsServing) {
  Link link = make_link({.name = "l", .rate_bps = 1e9,
                         .prop_delay = sim::Duration::millis(1),
                         .queue_capacity_bytes = 1 << 20});
  link.set_loss_model(std::make_unique<BernoulliLoss>(0.5, sim.rng("l")));
  for (int i = 0; i < 2000; ++i) link.send(packet(100));
  sim.run();
  EXPECT_GT(link.stats().packets_dropped_wire, 700u);
  EXPECT_GT(delivered.size(), 700u);
  EXPECT_EQ(link.stats().packets_dropped_wire + delivered.size(), 2000u);
}

TEST_F(LinkTest, ExtraDelayPreservesFifoOrder) {
  // First packet gets +50 ms ARQ stall; second none. Delivery must stay
  // in order (head-of-line blocking), not reorder.
  Link link = make_link({.name = "l", .rate_bps = 1e9,
                         .prop_delay = sim::Duration::millis(1),
                         .queue_capacity_bytes = 1 << 20});
  int count = 0;
  link.set_extra_delay_fn([&count]() {
    return (count++ == 0) ? sim::Duration::millis(50) : sim::Duration::zero();
  });
  PacketPtr a = packet(100);
  a->tcp.seq = 1;
  PacketPtr b = packet(100);
  b->tcp.seq = 2;
  link.send(std::move(a));
  link.send(std::move(b));
  sim.run();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].tcp.seq, 1u);
  EXPECT_EQ(delivered[1].tcp.seq, 2u);
  EXPECT_GE(times[1], times[0]);
  EXPECT_GT(times[0].to_millis(), 50.0);
}

TEST_F(LinkTest, GateDefersServiceStart) {
  Link link = make_link({.name = "l", .rate_bps = 1e9,
                         .prop_delay = sim::Duration::millis(1),
                         .queue_capacity_bytes = 1 << 20});
  link.set_gate_fn([](sim::TimePoint now) {
    return std::max(now, sim::TimePoint::origin() + sim::Duration::millis(300));
  });
  link.send(packet(100));
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_GT(times[0].to_millis(), 300.0);
}

TEST_F(LinkTest, RateFnConsultedPerPacket) {
  Link link = make_link({.name = "l", .rate_bps = 1e6,
                         .prop_delay = sim::Duration::zero(),
                         .queue_capacity_bytes = 1 << 20});
  int calls = 0;
  link.set_rate_fn([&calls](sim::TimePoint) {
    ++calls;
    return 1e9;
  });
  for (int i = 0; i < 5; ++i) link.send(packet(100));
  sim.run();
  EXPECT_EQ(calls, 5);
}

TEST(NetworkTest, RoutesViaUplinkBySource) {
  sim::Simulation sim{1};
  Network net{sim};
  std::vector<Packet> at_server;
  net.attach_host(IpAddr{10}, [&](PacketPtr p) { at_server.push_back(*p); });
  Link up{sim, {.name = "up", .rate_bps = 1e6, .prop_delay = sim::Duration::millis(3),
                .queue_capacity_bytes = 1 << 20},
          [&net](PacketPtr p) { net.deliver_local(std::move(p)); }};
  Link down{sim, {.name = "down", .rate_bps = 1e6, .prop_delay = sim::Duration::millis(3),
                  .queue_capacity_bytes = 1 << 20},
            [&net](PacketPtr p) { net.deliver_local(std::move(p)); }};
  net.set_access(IpAddr{1}, &up, &down);

  net.send(pooled_data_packet(sim, IpAddr{1}, IpAddr{10}, 100));
  sim.run();
  ASSERT_EQ(at_server.size(), 1u);
  EXPECT_EQ(up.stats().packets_delivered, 1u);
  EXPECT_EQ(down.stats().packets_delivered, 0u);
}

TEST(NetworkTest, RoutesViaDownlinkByDestination) {
  sim::Simulation sim{1};
  Network net{sim};
  std::vector<Packet> at_client;
  net.attach_host(IpAddr{1}, [&](PacketPtr p) { at_client.push_back(*p); });
  Link up{sim, {.name = "up", .rate_bps = 1e6, .prop_delay = sim::Duration::millis(3),
                .queue_capacity_bytes = 1 << 20},
          [&net](PacketPtr p) { net.deliver_local(std::move(p)); }};
  Link down{sim, {.name = "down", .rate_bps = 1e6, .prop_delay = sim::Duration::millis(3),
                  .queue_capacity_bytes = 1 << 20},
            [&net](PacketPtr p) { net.deliver_local(std::move(p)); }};
  net.set_access(IpAddr{1}, &up, &down);

  net.send(pooled_data_packet(sim, IpAddr{10}, IpAddr{1}, 100));
  sim.run();
  ASSERT_EQ(at_client.size(), 1u);
  EXPECT_EQ(down.stats().packets_delivered, 1u);
}

TEST(NetworkTest, WiredFallbackWithoutAccessLinks) {
  sim::Simulation sim{1};
  Network net{sim};
  std::vector<sim::TimePoint> times;
  net.attach_host(IpAddr{10}, [&](PacketPtr) { times.push_back(sim.now()); });
  net.send(pooled_data_packet(sim, IpAddr{11}, IpAddr{10}, 100));
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0] - sim::TimePoint::origin(), net.wired_delay());
}

TEST(NetworkTest, ObserversSeeSendAndDeliver) {
  sim::Simulation sim{1};
  Network net{sim};
  net.attach_host(IpAddr{10}, [](PacketPtr) {});
  int sends = 0;
  int delivers = 0;
  net.add_observer([&](const TraceEvent& ev) {
    if (ev.kind == TraceEvent::Kind::kSend) ++sends;
    if (ev.kind == TraceEvent::Kind::kDeliver) ++delivers;
  });
  net.send(pooled_data_packet(sim, IpAddr{11}, IpAddr{10}, 100));
  sim.run();
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(delivers, 1);
}

TEST(NetworkTest, UnattachedDestinationIsSilentlyDropped) {
  sim::Simulation sim{1};
  Network net{sim};
  net.send(pooled_data_packet(sim, IpAddr{11}, IpAddr{99}, 100));
  sim.run();  // must not crash
  SUCCEED();
}

TEST(HostTest, DemuxesByFlowKey) {
  sim::Simulation sim{1};
  Network net{sim};
  Host host{sim, net, {IpAddr{1}, IpAddr{2}}};
  int flow_a = 0;
  int listener = 0;
  const FlowKey key{SocketAddr{IpAddr{1}, 2000}, SocketAddr{IpAddr{10}, 1000}};
  host.register_flow(key, [&](PacketPtr) { ++flow_a; });
  host.listen(2000, [&](PacketPtr) { ++listener; });

  net.send(pooled_data_packet(sim, IpAddr{10}, IpAddr{1}, 10));  // ports 1000->2000
  // A different remote port: should hit the listener, not the flow.
  PacketPtr other = pooled_data_packet(sim, IpAddr{10}, IpAddr{1}, 10);
  other->tcp.src_port = 1001;
  net.send(std::move(other));
  sim.run();
  EXPECT_EQ(flow_a, 1);
  EXPECT_EQ(listener, 1);
}

TEST(HostTest, UnmatchedPacketsCounted) {
  sim::Simulation sim{1};
  Network net{sim};
  Host host{sim, net, {IpAddr{1}}};
  net.send(pooled_data_packet(sim, IpAddr{10}, IpAddr{1}, 10));
  sim.run();
  EXPECT_EQ(host.unmatched_packets(), 1u);
}

TEST(HostTest, UnregisterStopsDelivery) {
  sim::Simulation sim{1};
  Network net{sim};
  Host host{sim, net, {IpAddr{1}}};
  int hits = 0;
  const FlowKey key{SocketAddr{IpAddr{1}, 2000}, SocketAddr{IpAddr{10}, 1000}};
  host.register_flow(key, [&](PacketPtr) { ++hits; });
  host.unregister_flow(key);
  net.send(pooled_data_packet(sim, IpAddr{10}, IpAddr{1}, 10));
  sim.run();
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(host.unmatched_packets(), 1u);
}

TEST(HostTest, EphemeralPortsAreUnique) {
  sim::Simulation sim{1};
  Network net{sim};
  Host host{sim, net, {IpAddr{1}}};
  const std::uint16_t a = host.ephemeral_port();
  const std::uint16_t b = host.ephemeral_port();
  EXPECT_NE(a, b);
}

TEST(HostTest, SendStampsUniquePacketIds) {
  sim::Simulation sim{1};
  Network net{sim};
  Host host{sim, net, {IpAddr{1}}};
  std::vector<std::uint64_t> uids;
  net.attach_host(IpAddr{10}, [&](PacketPtr p) { uids.push_back(p->uid); });
  host.send(pooled_data_packet(sim, IpAddr{1}, IpAddr{10}, 10));
  host.send(pooled_data_packet(sim, IpAddr{1}, IpAddr{10}, 10));
  sim.run();
  ASSERT_EQ(uids.size(), 2u);
  EXPECT_NE(uids[0], uids[1]);
  EXPECT_NE(uids[0], 0u);
}

// ---------------------------------------------------------------------------
// Event-free cross-traffic: the link replays phantom arrivals and service
// completions lazily, in the order the per-packet event path ran them.

/// Phantom arrivals from a fixed script.
class ScriptedCrossTraffic final : public CrossTraffic {
 public:
  explicit ScriptedCrossTraffic(std::vector<Arrival> script) : script_{std::move(script)} {}
  const Arrival* peek() override { return next_ < script_.size() ? &script_[next_] : nullptr; }
  void pop() override { ++next_; }

 private:
  std::vector<Arrival> script_;
  std::size_t next_{0};
};

sim::TimePoint at_us(std::int64_t us) { return sim::TimePoint::from_ns(us * 1000); }

// 1000 wire bytes at 8 Mbit/s: every phantom serializes in exactly 1 ms.
constexpr double kOneMsPerKb = 8e6;

TEST_F(LinkTest, SameInstantTieServesTheEarlierScheduledFirst) {
  // A real packet offered at 10 ms by an event scheduled at 2 ms, and a
  // phantom arriving at 10 ms. Whichever was scheduled at the earlier
  // instant is served first; the other waits one service time.
  for (const bool phantom_scheduled_first : {true, false}) {
    sim::Simulation s{1};
    std::vector<sim::TimePoint> real_done;
    Link link{s,
              {.name = "l", .rate_bps = kOneMsPerKb, .prop_delay = sim::Duration::zero(),
               .queue_capacity_bytes = 1 << 20},
              [&](PacketPtr) { real_done.push_back(s.now()); }};
    ScriptedCrossTraffic phantom{
        {{at_us(10'000), at_us(phantom_scheduled_first ? 1'000 : 3'000), 1000}}};
    link.set_cross_traffic(&phantom);
    s.at(at_us(2'000), [&] {
      s.at(at_us(10'000), [&] { link.send(pooled_data_packet(s, IpAddr{1}, IpAddr{2}, 960)); });
    });
    s.run_until(at_us(20'000));
    ASSERT_EQ(real_done.size(), 1u);
    EXPECT_EQ(real_done[0], at_us(phantom_scheduled_first ? 12'000 : 11'000))
        << "phantom scheduled first: " << phantom_scheduled_first;
    EXPECT_EQ(link.stats().packets_delivered, 2u);
  }
}

/// Ten phantoms offered at t = 0 keep the link busy until 10 ms; `swap`
/// runs at 4.5 ms, mid-way through the fifth phantom's service.
std::vector<CrossTraffic::Arrival> busy_period() {
  return std::vector<CrossTraffic::Arrival>(10, {at_us(0), at_us(0), 1000});
}

TEST_F(LinkTest, LossSwapMidBusyPeriodAppliesToLaterCompletionsOnly) {
  Link link = make_link({.name = "l", .rate_bps = kOneMsPerKb,
                         .prop_delay = sim::Duration::zero(), .queue_capacity_bytes = 1 << 20});
  ScriptedCrossTraffic phantoms{busy_period()};
  link.set_cross_traffic(&phantoms);
  sim.at(at_us(4'500), [&] { link.set_loss_model(std::make_unique<AlwaysDrop>()); });
  sim.run_until(at_us(20'000));
  EXPECT_EQ(link.stats().packets_delivered, 4u);     // completions at 1..4 ms
  EXPECT_EQ(link.stats().packets_dropped_wire, 6u);  // completions at 5..10 ms
}

TEST_F(LinkTest, RateSwapMidBusyPeriodAppliesToLaterServiceStartsOnly) {
  Link link = make_link({.name = "l", .rate_bps = kOneMsPerKb,
                         .prop_delay = sim::Duration::zero(), .queue_capacity_bytes = 1 << 20});
  ScriptedCrossTraffic phantoms{busy_period()};
  link.set_cross_traffic(&phantoms);
  sim.at(at_us(4'500), [&] {
    link.set_rate_fn([](sim::TimePoint) { return 2 * kOneMsPerKb; });
  });
  sim.run_until(at_us(20'000));
  // Five services at the old rate (the one in progress at 4.5 ms keeps it),
  // five at double rate.
  EXPECT_EQ(link.stats().busy_time, sim::Duration::millis(5) + sim::Duration::micros(2'500));
  EXPECT_EQ(link.stats().packets_delivered, 10u);
}

TEST_F(LinkTest, ExtraDelaySwapMidBusyPeriodAppliesToLaterCompletionsOnly) {
  Link link = make_link({.name = "l", .rate_bps = kOneMsPerKb,
                         .prop_delay = sim::Duration::zero(), .queue_capacity_bytes = 1 << 20});
  int old_calls = 0;
  int new_calls = 0;
  link.set_extra_delay_fn([&] {
    ++old_calls;
    return sim::Duration::zero();
  });
  ScriptedCrossTraffic phantoms{busy_period()};
  link.set_cross_traffic(&phantoms);
  sim.at(at_us(4'500), [&] {
    link.set_extra_delay_fn([&] {
      ++new_calls;
      return sim::Duration::zero();
    });
  });
  sim.run_until(at_us(20'000));
  (void)link.stats();
  EXPECT_EQ(old_calls, 4);
  EXPECT_EQ(new_calls, 6);
}

TEST(LinkGateTest, SharedGateSeesBothLinksInTimeOrder) {
  // The downlink carries dense phantom traffic but is never touched by a
  // real packet until the end; the uplink's real packets consult the gate
  // throughout. Sharing the gate makes the downlink replay its phantom
  // service starts before each uplink call; without sharing, the final
  // replay calls the gate with instants long past.
  std::vector<CrossTraffic::Arrival> script;
  for (std::int64_t us = 500; us < 50'000; us += 1'500) script.push_back({at_us(us), at_us(0), 1000});
  for (const bool shared : {true, false}) {
    sim::Simulation s{1};
    const auto sink = [](PacketPtr) {};
    Link up{s, {.name = "up", .rate_bps = kOneMsPerKb, .queue_capacity_bytes = 1 << 20}, sink};
    Link down{s, {.name = "down", .rate_bps = kOneMsPerKb, .queue_capacity_bytes = 1 << 20},
              sink};
    std::vector<sim::TimePoint> calls;
    const Link::GateFn gate = [&calls](sim::TimePoint now) {
      calls.push_back(now);
      return now;
    };
    if (shared) {
      Link::share_gate(up, down, gate);
    } else {
      up.set_gate_fn(gate);
      down.set_gate_fn(gate);
    }
    ScriptedCrossTraffic phantoms{script};
    down.set_cross_traffic(&phantoms);
    for (std::int64_t us = 1'000; us < 50'000; us += 7'000) {
      s.at(at_us(us), [&] { up.send(pooled_data_packet(s, IpAddr{1}, IpAddr{2}, 100)); });
    }
    s.run_until(at_us(60'000));
    EXPECT_EQ(down.stats().packets_delivered, script.size());
    ASSERT_EQ(calls.size(), script.size() + 7);
    EXPECT_EQ(std::is_sorted(calls.begin(), calls.end()), shared) << "shared: " << shared;
  }
}

TEST_F(LinkTest, StatsReadAfterRunUntilCountExactlyUpToThatInstant) {
  // Phantoms arrive at 1, 2, ..., 10 ms and each serves for 1 ms.
  std::vector<CrossTraffic::Arrival> script;
  for (std::int64_t ms = 1; ms <= 10; ++ms) {
    script.push_back({at_us(ms * 1'000), at_us((ms - 1) * 1'000), 1000});
  }
  Link link = make_link({.name = "l", .rate_bps = kOneMsPerKb,
                         .prop_delay = sim::Duration::zero(), .queue_capacity_bytes = 1 << 20});
  ScriptedCrossTraffic phantoms{script};
  link.set_cross_traffic(&phantoms);

  sim.run_until(at_us(5'000));  // the arrival at exactly 5 ms counts
  EXPECT_EQ(link.stats().packets_offered, 5u);
  EXPECT_EQ(link.stats().packets_delivered, 4u);  // the fifth completes at 6 ms
  EXPECT_EQ(link.queued_packets(), 0u);
  sim.run_until(at_us(5'999));
  EXPECT_EQ(link.stats().packets_delivered, 4u);
  sim.run_until(at_us(6'000));
  EXPECT_EQ(link.stats().packets_offered, 6u);
  EXPECT_EQ(link.stats().packets_delivered, 5u);
  EXPECT_EQ(link.stats().busy_time, sim::Duration::millis(6));
}

}  // namespace
}  // namespace mpr::net
