// Queue-discipline tests: drop-tail semantics, CoDel's standing-queue
// detection and control law, and the metric cache (Linux tcp_metrics).
#include <gtest/gtest.h>

#include "net/packet_pool.h"
#include "net/queue.h"
#include "tcp/metrics_cache.h"

namespace mpr::net {
namespace {

PacketPtr pkt(PacketPool& pool, std::uint32_t payload = 1460) {
  PacketPtr p = pool.acquire();
  p->payload_bytes = payload;
  return p;
}

sim::TimePoint at_ms(double ms) {
  return sim::TimePoint::origin() + sim::Duration::from_millis(ms);
}

TEST(DropTail, FifoOrderPreserved) {
  PacketPool pool;
  DropTailQueue q{1 << 20};
  for (std::uint64_t i = 0; i < 5; ++i) {
    PacketPtr p = pkt(pool);
    p->tcp.seq = i;
    ASSERT_TRUE(q.enqueue(std::move(p), at_ms(0)));
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    const PacketPtr out = q.dequeue(at_ms(1)).packet;
    ASSERT_TRUE(static_cast<bool>(out));
    EXPECT_EQ(out->tcp.seq, i);
  }
  EXPECT_FALSE(static_cast<bool>(q.dequeue(at_ms(2))));
}

TEST(DropTail, RefusesBeyondCapacityAndReportsDrop) {
  PacketPool pool;
  DropTailQueue q{3000};
  int drops = 0;
  q.set_drop_hook([&](const QueueItem&) { ++drops; });
  EXPECT_TRUE(q.enqueue(pkt(pool, 1460), at_ms(0)));
  EXPECT_TRUE(q.enqueue(pkt(pool, 1460), at_ms(0)));  // 3000 bytes wire: fits at 1500x2
  EXPECT_FALSE(q.enqueue(pkt(pool, 1460), at_ms(0)));
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(q.packets(), 2u);
  // The rejected packet went straight back to the freelist.
  EXPECT_EQ(pool.stats().outstanding, 2u);
}

TEST(DropTail, AlwaysAdmitsFirstPacket) {
  PacketPool pool;
  DropTailQueue q{100};  // smaller than one packet
  EXPECT_TRUE(q.enqueue(pkt(pool, 1460), at_ms(0)));
  EXPECT_EQ(q.packets(), 1u);
}

TEST(DropTail, ByteAccountingExact) {
  PacketPool pool;
  DropTailQueue q{1 << 20};
  PacketPtr p = pkt(pool, 1000);
  const std::uint64_t wire = p->wire_bytes();
  q.enqueue(std::move(p), at_ms(0));
  EXPECT_EQ(q.bytes(), wire);
  (void)q.dequeue(at_ms(1));
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(Codel, NoDropsBelowTarget) {
  PacketPool pool;  // declared before the queue: outlives queued handles
  CodelQueue q{{.target = sim::Duration::millis(5),
                .interval = sim::Duration::millis(100),
                .capacity_bytes = 1 << 20}};
  int drops = 0;
  q.set_drop_hook([&](const QueueItem&) { ++drops; });
  // Packets dequeued 1 ms after enqueue: sojourn < target, never drop.
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(q.enqueue(pkt(pool), at_ms(round * 2.0)));
    EXPECT_TRUE(static_cast<bool>(q.dequeue(at_ms(round * 2.0 + 1.0))));
  }
  EXPECT_EQ(drops, 0);
  EXPECT_EQ(q.codel_drops(), 0u);
}

TEST(Codel, DropsOnStandingQueue) {
  PacketPool pool;  // declared before the queue: outlives queued handles
  CodelQueue q{{.target = sim::Duration::millis(5),
                .interval = sim::Duration::millis(100),
                .capacity_bytes = 4 << 20}};
  int drops = 0;
  q.set_drop_hook([&](const QueueItem&) { ++drops; });
  // Build a standing queue: enqueue much faster than dequeue, with every
  // dequeued packet having waited ~50 ms (> target) for > interval.
  double now = 0;
  for (int round = 0; round < 600; ++round) {
    q.enqueue(pkt(pool), at_ms(now));
    q.enqueue(pkt(pool), at_ms(now));
    (void)q.dequeue(at_ms(now + 50.0));
    now += 2.0;
  }
  EXPECT_GT(q.codel_drops(), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(drops), q.codel_drops());
}

TEST(Codel, RecoversWhenQueueDrains) {
  PacketPool pool;  // declared before the queue: outlives queued handles
  CodelQueue q{{.target = sim::Duration::millis(5),
                .interval = sim::Duration::millis(100),
                .capacity_bytes = 4 << 20}};
  // Standing-queue phase.
  double now = 0;
  for (int round = 0; round < 400; ++round) {
    q.enqueue(pkt(pool), at_ms(now));
    q.enqueue(pkt(pool), at_ms(now));
    (void)q.dequeue(at_ms(now + 60.0));
    now += 2.0;
  }
  const std::uint64_t drops_after_phase1 = q.codel_drops();
  EXPECT_GT(drops_after_phase1, 0u);
  // Drain completely, then run under-target traffic: no further drops.
  while (static_cast<bool>(q.dequeue(at_ms(now)))) {
  }
  now += 100.0;
  for (int round = 0; round < 100; ++round) {
    q.enqueue(pkt(pool), at_ms(now));
    EXPECT_TRUE(static_cast<bool>(q.dequeue(at_ms(now + 1.0))));
    now += 2.0;
  }
  EXPECT_EQ(q.codel_drops(), drops_after_phase1);
}

TEST(Codel, HardCapStillBounds) {
  PacketPool pool;  // declared before the queue: outlives queued handles
  CodelQueue q{{.target = sim::Duration::millis(5),
                .interval = sim::Duration::millis(100),
                .capacity_bytes = 4000}};
  int drops = 0;
  q.set_drop_hook([&](const QueueItem&) { ++drops; });
  for (int i = 0; i < 10; ++i) q.enqueue(pkt(pool, 1460), at_ms(0));
  EXPECT_LE(q.bytes(), 4000u + 1500u);
  EXPECT_GT(drops, 0);
}

}  // namespace
}  // namespace mpr::net

namespace mpr::tcp {
namespace {

TEST(MetricsCache, StoreAndLookup) {
  MetricsCache cache;
  EXPECT_FALSE(cache.lookup_ssthresh(net::IpAddr{1}).has_value());
  cache.store_ssthresh(net::IpAddr{1}, 20000);
  ASSERT_TRUE(cache.lookup_ssthresh(net::IpAddr{1}).has_value());
  EXPECT_EQ(*cache.lookup_ssthresh(net::IpAddr{1}), 20000u);
  EXPECT_FALSE(cache.lookup_ssthresh(net::IpAddr{2}).has_value());
  cache.store_ssthresh(net::IpAddr{1}, 9000);  // overwrite
  EXPECT_EQ(*cache.lookup_ssthresh(net::IpAddr{1}), 9000u);
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace mpr::tcp
