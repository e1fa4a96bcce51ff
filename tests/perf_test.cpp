// Perf-contract tests (label: perf) for the zero-allocation packet hot path.
//
// The contract: once a simulation reaches steady state, forwarding a packet
// performs no heap traffic — every acquire is served from the PacketPool
// freelist. These tests pin that property so a future change that quietly
// reintroduces per-packet allocations fails CI rather than a benchmark run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include <gtest/gtest.h>

#include "app/http.h"
#include "experiment/run.h"
#include "experiment/testbed.h"
#include "net/link.h"
#include "net/packet_pool.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "tcp/endpoint.h"

namespace mpr {
namespace {

/// Pushes `count` pooled packets through `link` and drains the simulation.
void blast(sim::Simulation& sim, net::Link& link, net::PacketPool& pool, int count) {
  for (int i = 0; i < count; ++i) {
    net::PacketPtr p = pool.acquire();
    p->payload_bytes = 1400;
    link.send(std::move(p));
  }
  sim.run();
}

TEST(PacketHotPath, LinkForwardingReusesPoolAfterWarmup) {
  sim::Simulation sim;
  net::PacketPool& pool = sim.service<net::PacketPool>();
  std::uint64_t delivered = 0;
  net::Link link{sim,
                 {.name = "l", .rate_bps = 1e9, .prop_delay = sim::Duration::micros(50),
                  .queue_capacity_bytes = 64 * 1024 * 1024},
                 [&delivered](net::PacketPtr p) { delivered += p->payload_bytes; }};

  // Warm-up wave establishes the pool population (every packet is a miss).
  blast(sim, link, pool, 1000);
  const net::PacketPool::Stats warm = pool.stats();
  EXPECT_EQ(warm.outstanding, 0u);

  // Same-sized waves afterwards must be served entirely from the freelist.
  blast(sim, link, pool, 1000);
  blast(sim, link, pool, 1000);
  const net::PacketPool::Stats steady = pool.stats();
  EXPECT_EQ(steady.allocs, warm.allocs) << "steady-state pool miss on the link path";
  EXPECT_EQ(steady.high_water, warm.high_water);
  EXPECT_EQ(steady.reuses, warm.reuses + 2000u);
  EXPECT_EQ(delivered, 3000u * 1400u);
}

TEST(PacketHotPath, DownloadSteadyStateHasZeroPoolMisses) {
  // A windowed TCP download over the testbed: after slow start fills the
  // bottleneck queue, the number of packets simultaneously in flight is
  // bounded, so the pool stops growing. The access network is made
  // deterministic (no rate variation, background bursts or random loss) so
  // "steady state" is exact: warm up for the first 8 simulated seconds of a
  // 64 MB transfer (~22 Mbit/s WiFi → transfer still mid-flight), snapshot
  // the miss count, then run to completion and require it unchanged.
  constexpr std::uint64_t kFileBytes = 64ull << 20;
  experiment::TestbedConfig cfg;
  cfg.wifi.rate_sigma = 0;
  cfg.wifi.rate_max_factor = 1.0;
  cfg.wifi.ge_down.reset();
  cfg.wifi.loss_down = 0;
  cfg.wifi.loss_up = 0;
  cfg.wifi.background = netem::BackgroundTraffic::Config{.on_utilization = 0.0};
  cfg.wifi.bg_up_utilization = 0;
  experiment::Testbed tb{cfg};
  sim::Simulation& sim = tb.sim();

  tcp::TcpConfig tcfg;
  const auto object_size = [](std::uint64_t) { return kFileBytes; };
  app::TcpHttpServer server{tb.server(), experiment::kHttpPort, tcfg, object_size};
  app::TcpHttpClient client{tb.client(), tcfg, experiment::kClientWifiAddr,
                            net::SocketAddr{experiment::kServerAddr1, experiment::kHttpPort}};

  bool done = false;
  client.get(kFileBytes, [&done](const app::FetchResult&) { done = true; });

  const sim::TimePoint warmup_end = sim.now() + sim::Duration::seconds(8);
  while (!done && sim.now() < warmup_end && sim.events().step()) {
  }
  ASSERT_FALSE(done) << "transfer finished inside the warm-up window; grow kFileBytes";

  const net::PacketPool& pool = sim.service<net::PacketPool>();
  const net::PacketPool::Stats warm = pool.stats();
  EXPECT_GT(warm.reuses, warm.allocs) << "pool not recycling during warm-up";

  const sim::TimePoint deadline = sim.now() + sim::Duration::seconds(3600);
  while (!done && sim.now() < deadline && sim.events().step()) {
  }
  ASSERT_TRUE(done);

  const net::PacketPool::Stats steady = pool.stats();
  EXPECT_EQ(steady.allocs, warm.allocs)
      << "pool miss after warm-up: a packet path allocated in steady state";
  EXPECT_EQ(steady.high_water, warm.high_water);
  EXPECT_GT(steady.reuses, warm.reuses);
}

TEST(SchedulerThroughput, BacklogDownloadMeetsEventRateFloor) {
  // Regression pin for the hot-path work (flat sequence tables, timing
  // wheel, hot/cold Packet split, stable-slot event actions, RNG fast
  // paths): a backlog-style two-path download must sustain a minimum event
  // rate. The floor is deliberately conservative — roughly half of what the
  // reference container sustains — so it trips on "someone reintroduced a
  // node-based container / per-call distribution object" regressions, not
  // on machine jitter. Override with MPR_PERF_FLOOR_EVENTS_PER_SEC (0
  // disables).
  //
  // The floor is a per-download time budget expressed in events/s. It was
  // set at 2.2e6 events/s when this download executed 189,146 events, a
  // budget of 189,146 / 2.2e6 = 86.0 ms. Event-free background
  // cross-traffic removed the phantom packet events and left 156,444 events
  // with the same simulated outcome, so the same 86.0 ms budget reads
  // 2.2e6 * 156,444 / 189,146 = 1.8196e6, rounded to 1.82e6 events/s. Any
  // later change to this download's exact event count converts the floor
  // the same way, by the ratio of the new count to the old.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    (defined(MPR_AUDIT) && MPR_AUDIT)
  GTEST_SKIP() << "event-rate floor is only meaningful in uninstrumented builds";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "event-rate floor is only meaningful in uninstrumented builds";
#endif
#endif
#ifndef NDEBUG
  GTEST_SKIP() << "event-rate floor is only meaningful in optimized builds";
#endif
  double floor_eps = 1.82e6;
  if (const char* env = std::getenv("MPR_PERF_FLOOR_EVENTS_PER_SEC")) {
    floor_eps = std::atof(env);
    if (floor_eps <= 0) GTEST_SKIP() << "floor disabled via MPR_PERF_FLOOR_EVENTS_PER_SEC";
  }

  experiment::TestbedConfig tb;
  tb.seed = 1;
  experiment::RunConfig rc;
  rc.mode = experiment::PathMode::kMptcp2;
  rc.cc = core::CcKind::kReno;
  rc.file_bytes = 64ull << 20;
  rc.timeout = sim::Duration::seconds(7200);

  // Warm-up run (pool population, page faults), then best-of-3 timed runs:
  // the max filters out transient scheduling noise on shared CI machines,
  // which a single sample would fold into the rate.
  (void)experiment::run_download(tb, rc);
  double rate = 0;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t before = sim::EventQueue::total_executed();
    const auto t0 = std::chrono::steady_clock::now();
    const experiment::RunResult r = experiment::run_download(tb, rc);
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t events = sim::EventQueue::total_executed() - before;
    ASSERT_TRUE(r.completed);
    ASSERT_GT(events, 150000u) << "download too small to measure an event rate";
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    rate = std::max(rate, static_cast<double>(events) / secs);
  }
  RecordProperty("events_per_sec", static_cast<int64_t>(rate));
  EXPECT_GE(rate, floor_eps)
      << "scheduler throughput regressed: " << rate / 1e6 << " Mev/s (floor "
      << floor_eps / 1e6 << " Mev/s)";
}

}  // namespace
}  // namespace mpr
