// Application-layer tests: ping warm-up, HTTP request/response semantics
// over both stacks, and the streaming workload driver.
#include <gtest/gtest.h>

#include "app/http.h"
#include "app/ping.h"
#include "app/streaming.h"
#include "experiment/testbed.h"

namespace mpr::app {
namespace {

using experiment::kClientCellAddr;
using experiment::kClientWifiAddr;
using experiment::kHttpPort;
using experiment::kServerAddr1;
using experiment::TestbedConfig;

TestbedConfig quiet_config(std::uint64_t seed = 1) {
  TestbedConfig tb;
  tb.seed = seed;
  // Deterministic paths: strip stochastic elements, keep RRC on cellular.
  tb.wifi.rate_sigma = 0;
  tb.wifi.ge_down.reset();
  tb.wifi.loss_down = 0;
  tb.wifi.loss_up = 0;
  tb.wifi.background.on_utilization = 0;
  tb.cellular.rate_sigma = 0;
  tb.cellular.loss_down = 0;
  tb.cellular.arq.retx_prob = 0;
  tb.cellular.background.on_utilization = 0;
  return tb;
}

TEST(Ping, WarmsUpCellularRadio) {
  experiment::Testbed tb{quiet_config()};
  PingAgent agent{tb.client(), kClientCellAddr, kServerAddr1};
  bool done = false;
  sim::TimePoint when;
  agent.ping(2, [&] {
    done = true;
    when = tb.sim().now();
  });
  tb.sim().run_for(sim::Duration::seconds(10));
  ASSERT_TRUE(done);
  EXPECT_EQ(agent.replies(), 2);
  // First ping pays the RRC promotion (~300 ms) + 2 RTTs.
  EXPECT_GT(when.to_millis(), 300.0);
  EXPECT_TRUE(tb.cell_access().rrc()->connected_at(tb.sim().now()));
}

TEST(Ping, WifiPingIsFast) {
  experiment::Testbed tb{quiet_config()};
  PingAgent agent{tb.client(), kClientWifiAddr, kServerAddr1};
  bool done = false;
  sim::TimePoint when;
  agent.ping(2, [&] {
    done = true;
    when = tb.sim().now();
  });
  tb.sim().run_for(sim::Duration::seconds(5));
  ASSERT_TRUE(done);
  EXPECT_LT(when.to_millis(), 100.0);
}

TEST(Ping, TimesOutOnDeadPath) {
  experiment::Testbed tb{quiet_config()};
  tb.cell_access().uplink().set_loss_model(
      std::make_unique<net::BernoulliLoss>(1.0, tb.sim().rng("cut")));
  PingAgent agent{tb.client(), kClientCellAddr, kServerAddr1};
  bool done = false;
  agent.ping(2, [&] { done = true; });
  tb.sim().run_for(sim::Duration::seconds(10));
  EXPECT_TRUE(done);  // completes via timeouts
  EXPECT_EQ(agent.replies(), 0);
}

TEST(HttpTcp, DownloadTimeSemantics) {
  experiment::Testbed tb{quiet_config()};
  TcpHttpServer server{tb.server(), kHttpPort, tcp::TcpConfig{},
                       [](std::uint64_t) { return 64ull << 10; }};
  TcpHttpClient client{tb.client(), tcp::TcpConfig{}, kClientWifiAddr,
                       net::SocketAddr{kServerAddr1, kHttpPort}};
  FetchResult result;
  bool done = false;
  tb.sim().run_for(sim::Duration::millis(250));  // connect at t=250ms
  client.get(64 << 10, [&](const FetchResult& r) {
    result = r;
    done = true;
  });
  tb.sim().run_for(sim::Duration::seconds(10));
  ASSERT_TRUE(done);
  EXPECT_EQ(result.first_syn_time.to_millis(), 250.0);
  EXPECT_GT(result.complete_time, result.first_syn_time);
  EXPECT_EQ(result.download_time(), result.complete_time - result.first_syn_time);
  EXPECT_EQ(result.bytes, 64u << 10);
}

TEST(HttpTcp, SequentialRequestsOnPersistentConnection) {
  experiment::Testbed tb{quiet_config()};
  int served = 0;
  TcpHttpServer server{tb.server(), kHttpPort, tcp::TcpConfig{},
                       [&](std::uint64_t idx) {
                         ++served;
                         return (idx + 1) * 10000;  // growing objects
                       }};
  TcpHttpClient client{tb.client(), tcp::TcpConfig{}, kClientWifiAddr,
                       net::SocketAddr{kServerAddr1, kHttpPort}};
  std::vector<std::uint64_t> sizes;
  std::function<void(int)> next = [&](int n) {
    if (n == 0) return;
    client.get(static_cast<std::uint64_t>(sizes.size() + 1) * 10000,
               [&, n](const FetchResult& r) {
                 sizes.push_back(r.bytes);
                 next(n - 1);
               });
  };
  next(3);
  tb.sim().run_for(sim::Duration::seconds(30));
  EXPECT_EQ(served, 3);
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{10000, 20000, 30000}));
}

TEST(HttpMptcp, ObjectSizeFunctionDrivesResponses) {
  experiment::Testbed tb{quiet_config()};
  core::MptcpConfig cfg;
  MptcpHttpServer server{tb.server(), kHttpPort, cfg, {},
                         [](std::uint64_t idx) { return idx == 0 ? 100000 : 5000; }};
  MptcpHttpClient client{tb.client(), cfg, {kClientWifiAddr, kClientCellAddr},
                         net::SocketAddr{kServerAddr1, kHttpPort}};
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  client.get(100000, [&](const FetchResult& r) {
    first = r.bytes;
    client.get(5000, [&](const FetchResult& r2) { second = r2.bytes; });
  });
  tb.sim().run_for(sim::Duration::seconds(30));
  EXPECT_EQ(first, 100000u);
  EXPECT_EQ(second, 5000u);
}

TEST(Streaming, WorkloadPresetsMatchTable7) {
  const StreamingWorkload android = StreamingWorkload::netflix_android();
  EXPECT_NEAR(static_cast<double>(android.prefetch_bytes) / (1024 * 1024), 39.6, 0.5);
  EXPECT_NEAR(static_cast<double>(android.block_bytes) / (1024 * 1024), 5.08, 0.1);
  EXPECT_NEAR(android.period.to_seconds(), 72.0, 0.1);

  const StreamingWorkload ipad = StreamingWorkload::netflix_ipad();
  EXPECT_NEAR(static_cast<double>(ipad.prefetch_bytes) / (1024 * 1024), 14.6, 0.5);
  EXPECT_NEAR(ipad.period.to_seconds(), 10.2, 0.1);

  EXPECT_EQ(ipad.object_size(0), ipad.prefetch_bytes);
  EXPECT_EQ(ipad.object_size(1), ipad.block_bytes);
  EXPECT_EQ(ipad.object_size(7), ipad.block_bytes);
}

TEST(Streaming, SessionFetchesPrefetchAndAllBlocks) {
  experiment::Testbed tb{quiet_config()};
  StreamingWorkload wl;
  wl.prefetch_bytes = 2 << 20;
  wl.block_bytes = 256 << 10;
  wl.period = sim::Duration::from_seconds(1.0);
  wl.blocks = 5;

  core::MptcpConfig cfg;
  MptcpHttpServer server{tb.server(), kHttpPort, cfg, {},
                         [wl](std::uint64_t idx) { return wl.object_size(idx); }};
  MptcpHttpClient client{tb.client(), cfg, {kClientWifiAddr, kClientCellAddr},
                         net::SocketAddr{kServerAddr1, kHttpPort}};
  StreamingSession session{tb.sim(), client, wl};
  session.start();
  tb.sim().run_for(sim::Duration::seconds(60));
  ASSERT_TRUE(session.finished());
  const StreamingResult& r = session.result();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.block_times.size(), 5u);
  EXPECT_GT(r.prefetch_time.to_seconds(), 0.0);
  // On clean 20+10 Mbit/s paths, 256 KB blocks finish well within 1 s.
  EXPECT_EQ(r.late_blocks, 0u);
}

// ---------------------------------------------------------------------------
// Playback-buffer accounting: account_block is pure, so the underrun and
// frame-deadline metrics can be validated against hand-computed schedules.

TEST(Streaming, AccountBlockHandComputedSchedule) {
  StreamingWorkload wl;
  wl.period = sim::Duration::from_seconds(2.0);
  wl.frames_per_block = 48;  // 24 fps x 2 s, frame spacing 1/24 s

  StreamingResult r;
  bool late = false;
  // Block 1: on time (exactly the period is NOT late).
  late = account_block(wl, sim::Duration::from_seconds(2.0), late, r);
  EXPECT_FALSE(late);
  // Blocks 2+3: a two-block stall = ONE underrun episode.
  late = account_block(wl, sim::Duration::from_seconds(2.5), late, r);
  EXPECT_TRUE(late);
  late = account_block(wl, sim::Duration::from_seconds(3.0), late, r);
  EXPECT_TRUE(late);
  // Block 4: recovery.
  late = account_block(wl, sim::Duration::from_seconds(1.0), late, r);
  EXPECT_FALSE(late);
  // Block 5: a second, separate episode.
  late = account_block(wl, sim::Duration::from_seconds(2.25), late, r);
  EXPECT_TRUE(late);

  EXPECT_EQ(r.block_times.size(), 5u);
  EXPECT_EQ(r.late_blocks, 3u);
  EXPECT_EQ(r.underruns, 2u) << "consecutive late blocks merge into one episode";
  EXPECT_NEAR(r.underrun_time.to_seconds(), 0.5 + 1.0 + 0.25, 1e-9);
  EXPECT_EQ(r.frames_total, 5u * 48u);
  // Frame misses: ceil(lateness / (1/24 s)) per late block.
  //   0.5 s  -> ceil(12.0) = 12
  //   1.0 s  -> ceil(24.0) = 24
  //   0.25 s -> ceil(6.0)  = 6
  EXPECT_EQ(r.deadline_missed_frames, 12u + 24u + 6u);
}

TEST(Streaming, AccountBlockCapsMissesAtTheBlocksOwnFrames) {
  StreamingWorkload wl;
  wl.period = sim::Duration::from_seconds(1.0);
  wl.frames_per_block = 10;
  StreamingResult r;
  // 5 s late on a 1 s block: every slot in the interval missed, but a block
  // only carries 10 frames.
  account_block(wl, sim::Duration::from_seconds(6.0), false, r);
  EXPECT_EQ(r.deadline_missed_frames, 10u);
  EXPECT_NEAR(r.underrun_time.to_seconds(), 5.0, 1e-9);
}

TEST(Streaming, AccountBlockFractionalLatenessRoundsUp) {
  StreamingWorkload wl;
  wl.period = sim::Duration::from_seconds(1.0);
  wl.frames_per_block = 4;  // frame spacing 0.25 s
  StreamingResult r;
  // 0.01 s late: the first frame slot is already blown -> ceil -> 1 miss.
  account_block(wl, sim::Duration::from_seconds(1.01), false, r);
  EXPECT_EQ(r.deadline_missed_frames, 1u);
}

TEST(Streaming, FrameAccountingDisabledWhenFramesPerBlockIsZero) {
  StreamingWorkload wl;
  wl.period = sim::Duration::from_seconds(1.0);
  wl.frames_per_block = 0;
  StreamingResult r;
  account_block(wl, sim::Duration::from_seconds(3.0), false, r);
  EXPECT_EQ(r.frames_total, 0u);
  EXPECT_EQ(r.deadline_missed_frames, 0u);
  EXPECT_EQ(r.underruns, 1u);  // stall accounting still runs
}

TEST(Streaming, UnderrunsAndMissesOnAsymmetricTwoPathTopology) {
  // Two-path topology with a deliberate asymmetry: WiFi throttled to a
  // trickle, cellular carrying the real load. Blocks of 384 KB against a
  // 1 s period over ~2.3 Mbit/s aggregate take ~1.3 s: every block is late,
  // one long rebuffer episode.
  experiment::Testbed tb{quiet_config(5)};
  tb.wifi_access().downlink().set_rate_fn([](sim::TimePoint) { return 0.3e6; });
  tb.cell_access().downlink().set_rate_fn([](sim::TimePoint) { return 2.0e6; });
  StreamingWorkload wl;
  wl.prefetch_bytes = 128 << 10;
  wl.block_bytes = 384 << 10;
  wl.period = sim::Duration::from_seconds(1.0);
  wl.blocks = 4;
  wl.frames_per_block = 24;

  core::MptcpConfig cfg;
  MptcpHttpServer server{tb.server(), kHttpPort, cfg, {},
                         [wl](std::uint64_t idx) { return wl.object_size(idx); }};
  MptcpHttpClient client{tb.client(), cfg, {kClientWifiAddr, kClientCellAddr},
                         net::SocketAddr{kServerAddr1, kHttpPort}};
  StreamingSession session{tb.sim(), client, wl};
  bool finished_cb = false;
  session.on_finished = [&finished_cb] { finished_cb = true; };
  session.start();
  tb.sim().run_for(sim::Duration::seconds(300));
  ASSERT_TRUE(session.finished());
  EXPECT_TRUE(finished_cb);

  const StreamingResult& r = session.result();
  EXPECT_EQ(r.late_blocks, 4u);
  EXPECT_EQ(r.underruns, 1u) << "4 consecutive late blocks are one rebuffer episode";
  EXPECT_GT(r.underrun_time.to_seconds(), 0.0);
  EXPECT_EQ(r.frames_total, 4u * 24u);
  EXPECT_GT(r.deadline_missed_frames, 0u);
  EXPECT_LE(r.deadline_missed_frames, r.frames_total);

  // Cross-check the counters against replaying the recorded block times
  // through the pure accounting function.
  StreamingResult replay;
  bool late = false;
  for (const sim::Duration d : r.block_times) {
    late = account_block(wl, d, late, replay);
  }
  EXPECT_EQ(replay.underruns, r.underruns);
  EXPECT_EQ(replay.deadline_missed_frames, r.deadline_missed_frames);
  EXPECT_EQ(replay.underrun_time.ns(), r.underrun_time.ns());
}

TEST(Streaming, LateBlocksDetectedOnSlowPath) {
  experiment::Testbed tb{quiet_config()};
  // Throttle WiFi so a block cannot finish within the period.
  tb.wifi_access().downlink().set_rate_fn([](sim::TimePoint) { return 0.8e6; });
  tb.cell_access().downlink().set_rate_fn([](sim::TimePoint) { return 0.8e6; });
  StreamingWorkload wl;
  wl.prefetch_bytes = 256 << 10;
  wl.block_bytes = 512 << 10;  // ~5 s at 0.8 Mbit/s
  wl.period = sim::Duration::from_seconds(1.0);
  wl.blocks = 3;

  core::MptcpConfig cfg;
  MptcpHttpServer server{tb.server(), kHttpPort, cfg, {},
                         [wl](std::uint64_t idx) { return wl.object_size(idx); }};
  MptcpHttpClient client{tb.client(), cfg, {kClientWifiAddr, kClientCellAddr},
                         net::SocketAddr{kServerAddr1, kHttpPort}};
  StreamingSession session{tb.sim(), client, wl};
  session.start();
  tb.sim().run_for(sim::Duration::seconds(300));
  ASSERT_TRUE(session.finished());
  EXPECT_EQ(session.result().late_blocks, 3u);
}

}  // namespace
}  // namespace mpr::app
