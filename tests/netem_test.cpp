// Unit tests for the wireless emulation layer: rate process, ARQ delay,
// RRC state machine, background traffic, access profiles.
#include <gtest/gtest.h>

#include "net/network.h"
#include "net/packet_pool.h"
#include "netem/access.h"
#include "netem/arq.h"
#include "netem/background.h"
#include "netem/rate_process.h"
#include "netem/rrc.h"
#include "sim/simulation.h"

namespace mpr::netem {
namespace {

TEST(RateProcessTest, ConstantWhenSigmaZero) {
  sim::Simulation sim{1};
  RateProcess rp{{.base_bps = 5e6, .sigma = 0.0}, sim.rng("r")};
  sim.run_for(sim::Duration::seconds(10));
  EXPECT_DOUBLE_EQ(rp.rate_bps(sim.now()), 5e6);
}

TEST(RateProcessTest, StaysWithinBounds) {
  sim::Simulation sim{2};
  RateProcess rp{{.base_bps = 10e6,
                  .sigma = 1.2,
                  .resample_interval = sim::Duration::millis(10),
                  .min_bps = 1e5,
                  .max_factor = 1.0},
                 sim.rng("r")};
  for (int i = 0; i < 1000; ++i) {
    sim.run_for(sim::Duration::millis(10));
    const double r = rp.rate_bps(sim.now());
    EXPECT_GE(r, 1e5);
    EXPECT_LE(r, 10e6);
  }
}

TEST(RateProcessTest, PiecewiseConstantBetweenResamples) {
  sim::Simulation sim{3};
  RateProcess rp{{.base_bps = 10e6, .sigma = 0.8,
                  .resample_interval = sim::Duration::millis(100)},
                 sim.rng("r")};
  sim.run_for(sim::Duration::millis(105));
  const double r1 = rp.rate_bps(sim.now());
  sim.run_for(sim::Duration::millis(10));  // still same window
  EXPECT_DOUBLE_EQ(rp.rate_bps(sim.now()), r1);
}

TEST(RateProcessTest, ActuallyDips) {
  sim::Simulation sim{4};
  RateProcess rp{{.base_bps = 10e6, .sigma = 1.0,
                  .resample_interval = sim::Duration::millis(10), .max_factor = 1.0},
                 sim.rng("r")};
  int deep_dips = 0;
  for (int i = 0; i < 2000; ++i) {
    sim.run_for(sim::Duration::millis(10));
    if (rp.rate_bps(sim.now()) < 3e6) ++deep_dips;
  }
  EXPECT_GT(deep_dips, 100);  // sigma 1.0: P(F > 3.3) ~ 12%
}

TEST(ArqTest, ZeroProbabilityNeverDelays) {
  sim::Simulation sim{1};
  ArqDelayModel m{{.retx_prob = 0.0}, sim.rng("a")};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(m.extra_delay(), sim::Duration::zero());
}

TEST(ArqTest, DelayQuantizedByRounds) {
  sim::Simulation sim{2};
  ArqDelayModel m{{.retx_prob = 1.0, .round_delay = sim::Duration::millis(10), .max_rounds = 4},
                  sim.rng("a")};
  for (int i = 0; i < 200; ++i) {
    const sim::Duration d = m.extra_delay();
    // With retx_prob 1.0 every packet takes max_rounds rounds (+-20% jitter).
    EXPECT_GE(d.to_millis(), 4 * 10 * 0.8 - 1e-9);
    EXPECT_LE(d.to_millis(), 4 * 10 * 1.2 + 1e-9);
  }
}

TEST(ArqTest, DelayFrequencyMatchesProbability) {
  sim::Simulation sim{3};
  ArqDelayModel m{{.retx_prob = 0.25, .round_delay = sim::Duration::millis(10), .max_rounds = 3},
                  sim.rng("a")};
  int delayed = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (m.extra_delay() > sim::Duration::zero()) ++delayed;
  }
  EXPECT_NEAR(static_cast<double>(delayed) / kTrials, 0.25, 0.02);
}

TEST(RrcTest, FirstPacketPaysPromotion) {
  RrcStateMachine rrc{{.promotion_delay = sim::Duration::millis(300),
                       .idle_timeout = sim::Duration::seconds(5)}};
  const sim::TimePoint t0 = sim::TimePoint::origin() + sim::Duration::seconds(1);
  EXPECT_EQ(rrc.on_traffic(t0), t0 + sim::Duration::millis(300));
  EXPECT_EQ(rrc.promotions(), 1u);
}

TEST(RrcTest, ConnectedTrafficNotDelayed) {
  RrcStateMachine rrc{{.promotion_delay = sim::Duration::millis(300),
                       .idle_timeout = sim::Duration::seconds(5)}};
  const sim::TimePoint t0 = sim::TimePoint::origin() + sim::Duration::seconds(1);
  (void)rrc.on_traffic(t0);
  const sim::TimePoint t1 = t0 + sim::Duration::millis(400);  // after promotion
  EXPECT_EQ(rrc.on_traffic(t1), t1);
  EXPECT_EQ(rrc.promotions(), 1u);
}

TEST(RrcTest, PacketDuringPromotionWaitsForReady) {
  RrcStateMachine rrc{{.promotion_delay = sim::Duration::millis(300),
                       .idle_timeout = sim::Duration::seconds(5)}};
  const sim::TimePoint t0 = sim::TimePoint::origin();
  const sim::TimePoint ready = rrc.on_traffic(t0);
  const sim::TimePoint t1 = t0 + sim::Duration::millis(100);  // mid-promotion
  EXPECT_EQ(rrc.on_traffic(t1), ready);
}

TEST(RrcTest, DemotesAfterIdleTimeout) {
  RrcStateMachine rrc{{.promotion_delay = sim::Duration::millis(300),
                       .idle_timeout = sim::Duration::seconds(5)}};
  const sim::TimePoint t0 = sim::TimePoint::origin();
  (void)rrc.on_traffic(t0);
  const sim::TimePoint t1 = t0 + sim::Duration::seconds(10);  // idle > 5 s
  EXPECT_EQ(rrc.on_traffic(t1), t1 + sim::Duration::millis(300));
  EXPECT_EQ(rrc.promotions(), 2u);
}

// Phantoms never reach the deliver callback: utilization is read from the
// link's stats, which count them.
TEST(BackgroundTest, InjectsAtConfiguredUtilization) {
  sim::Simulation sim{7};
  net::Link link{sim,
                 {.name = "l", .rate_bps = 10e6, .prop_delay = sim::Duration::millis(1),
                  .queue_capacity_bytes = 1 << 20},
                 [](net::PacketPtr) {}};
  BackgroundTraffic bg{sim, link,
                       {.on_utilization = 0.5, .on_fraction = 1.0,
                        .mean_on = sim::Duration::seconds(10)},
                       sim.rng("bg")};
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(20));
  const double delivered_bytes = static_cast<double>(link.stats().bytes_delivered);
  const double achieved = delivered_bytes * 8.0 / 20.0 / 10e6;
  EXPECT_NEAR(achieved, 0.5, 0.05);
  EXPECT_GT(bg.packets_injected(), 0u);
}

TEST(BackgroundTest, OnOffDutyCycle) {
  sim::Simulation sim{8};
  net::Link link{sim,
                 {.name = "l", .rate_bps = 10e6, .prop_delay = sim::Duration::millis(1),
                  .queue_capacity_bytes = 1 << 20},
                 [](net::PacketPtr) {}};
  BackgroundTraffic bg{sim, link,
                       {.on_utilization = 0.8, .on_fraction = 0.25,
                        .mean_on = sim::Duration::seconds(1)},
                       sim.rng("bg")};
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(60));
  const double delivered_bytes = static_cast<double>(link.stats().bytes_delivered);
  const double achieved = delivered_bytes * 8.0 / 60.0 / 10e6;
  // Long-run utilization = on_utilization * on_fraction = 0.2.
  EXPECT_NEAR(achieved, 0.2, 0.06);
}

TEST(BackgroundTest, StopHaltsInjection) {
  sim::Simulation sim{9};
  net::Link link{sim,
                 {.name = "l", .rate_bps = 10e6, .prop_delay = sim::Duration::millis(1),
                  .queue_capacity_bytes = 1 << 20},
                 [](net::PacketPtr) {}};
  BackgroundTraffic bg{sim, link,
                       {.on_utilization = 0.5, .on_fraction = 1.0,
                        .mean_on = sim::Duration::seconds(10)},
                       sim.rng("bg")};
  sim.run_for(sim::Duration::seconds(1));
  bg.stop();
  const std::uint64_t before = bg.packets_injected();
  sim.run_for(sim::Duration::seconds(5));
  EXPECT_EQ(bg.packets_injected(), before);
}

TEST(BackgroundTest, PacketsInjectedCountsExactlyUpToTheRunUntilInstant) {
  const BackgroundTraffic::Config cfg{.on_utilization = 0.6, .on_fraction = 0.5,
                                      .mean_on = sim::Duration::millis(200)};
  const net::Link::Config link_cfg{.name = "l", .rate_bps = 10e6,
                                   .prop_delay = sim::Duration::millis(1),
                                   .queue_capacity_bytes = 1 << 20};
  const sim::TimePoint t = sim::TimePoint::origin() + sim::Duration::millis(1500);

  // Reference: the same arrival process, walked directly through its
  // CrossTraffic interface (its link is never touched again).
  sim::Simulation ref_sim{21};
  net::Link ref_link{ref_sim, link_cfg, [](net::PacketPtr) {}};
  BackgroundTraffic ref{ref_sim, ref_link, cfg, ref_sim.rng("bg")};
  std::uint64_t expected = 0;
  for (const net::CrossTraffic::Arrival* a = ref.peek(); a->when <= t; a = ref.peek()) {
    ++expected;
    ref.pop();
  }
  ASSERT_GT(expected, 0u);

  sim::Simulation sim{21};
  net::Link link{sim, link_cfg, [](net::PacketPtr) {}};
  BackgroundTraffic bg{sim, link, cfg, sim.rng("bg")};
  sim.run_until(t);
  EXPECT_EQ(bg.packets_injected(), expected);
  EXPECT_EQ(link.stats().packets_offered, expected);
}

TEST(ProfilesTest, AllProfilesHaveSaneParameters) {
  for (const AccessProfile& p :
       {wifi_home(), wifi_hotspot(), att_lte(), verizon_lte(), sprint_evdo()}) {
    EXPECT_GT(p.down_rate_bps, 0) << p.name;
    EXPECT_GT(p.up_rate_bps, 0) << p.name;
    EXPECT_GT(p.queue_down_bytes, 0u) << p.name;
    EXPECT_GT(p.owd_down, sim::Duration::zero()) << p.name;
    EXPECT_LE(p.rate_max_factor, 1.5) << p.name;
  }
}

TEST(ProfilesTest, CellularHasRrcWifiDoesNot) {
  EXPECT_FALSE(wifi_home().has_rrc);
  EXPECT_FALSE(wifi_hotspot().has_rrc);
  EXPECT_TRUE(att_lte().has_rrc);
  EXPECT_TRUE(verizon_lte().has_rrc);
  EXPECT_TRUE(sprint_evdo().has_rrc);
}

TEST(ProfilesTest, ThreeGIsSlowerAndFurther) {
  const AccessProfile sprint = sprint_evdo();
  const AccessProfile att = att_lte();
  EXPECT_LT(sprint.down_rate_bps, att.down_rate_bps / 5);
  EXPECT_GT(sprint.rrc.promotion_delay, att.rrc.promotion_delay);
}

TEST(ProfilesTest, HotspotIsLossierThanHome) {
  const AccessProfile home = wifi_home();
  const AccessProfile hotspot = wifi_hotspot();
  ASSERT_TRUE(home.ge_down && hotspot.ge_down);
  net::GilbertElliottLoss home_loss{*home.ge_down, sim::Rng{1}};
  net::GilbertElliottLoss hs_loss{*hotspot.ge_down, sim::Rng{1}};
  EXPECT_GT(hs_loss.steady_state_loss(), home_loss.steady_state_loss());
  EXPECT_GT(hotspot.background.on_utilization, home.background.on_utilization);
}

TEST(AccessNetworkTest, BuildsAndRegistersWithNetwork) {
  sim::Simulation sim{11};
  net::Network network{sim};
  int delivered = 0;
  network.attach_host(net::IpAddr{10}, [&](net::PacketPtr) { ++delivered; });
  AccessNetwork access{sim, network, net::IpAddr{1}, wifi_home()};

  net::PacketPtr p = sim.service<net::PacketPool>().acquire();
  p->src = net::IpAddr{1};
  p->dst = net::IpAddr{10};
  p->payload_bytes = 100;
  network.send(std::move(p));
  sim.run_for(sim::Duration::seconds(1));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(access.uplink().stats().packets_delivered, 1u);
}

TEST(AccessNetworkTest, CellularRrcDelaysColdStart) {
  sim::Simulation sim{12};
  net::Network network{sim};
  sim::TimePoint arrival;
  network.attach_host(net::IpAddr{10}, [&](net::PacketPtr) { arrival = sim.now(); });
  AccessProfile profile = att_lte();
  profile.rate_sigma = 0;  // deterministic
  profile.arq.retx_prob = 0;
  AccessNetwork access{sim, network, net::IpAddr{2}, profile};

  net::PacketPtr p = sim.service<net::PacketPool>().acquire();
  p->src = net::IpAddr{2};
  p->dst = net::IpAddr{10};
  p->payload_bytes = 100;
  network.send(std::move(p));
  sim.run_for(sim::Duration::seconds(2));
  // One-way delay must include the 300 ms promotion.
  EXPECT_GT((arrival - sim::TimePoint::origin()).to_millis(), 300.0);
  EXPECT_EQ(access.rrc()->promotions(), 1u);
}

TEST(AccessNetworkTest, FaultRateScaleAppliesToLaterServiceStartsOnly) {
  // Ten phantoms offered at t = 0 keep the downlink busy, 1 ms each; the
  // fault doubles the rate at 4.5 ms. The phantom in service then keeps
  // the old rate, so the busy period is 5 ms + 5 x 0.5 ms.
  class TenAtZero final : public net::CrossTraffic {
   public:
    const Arrival* peek() override { return left_ > 0 ? &arrival_ : nullptr; }
    void pop() override { --left_; }

   private:
    Arrival arrival_{sim::TimePoint::origin(), sim::TimePoint::origin(), 1000};
    int left_{10};
  } phantoms;
  sim::Simulation sim{13};
  net::Network network{sim};
  AccessProfile profile = wifi_home();
  profile.down_rate_bps = 8e6;
  profile.rate_sigma = 0;
  profile.ge_down.reset();
  profile.background.on_utilization = 0;
  AccessNetwork access{sim, network, net::IpAddr{1}, profile};
  access.set_rate_scale(1.0);  // installs the composing rate fn
  access.downlink().set_cross_traffic(&phantoms);
  sim.at(sim::TimePoint::origin() + sim::Duration::micros(4'500),
         [&] { access.set_rate_scale(2.0); });
  sim.run_for(sim::Duration::millis(20));
  EXPECT_EQ(access.downlink().stats().packets_delivered, 10u);
  EXPECT_EQ(access.downlink().stats().busy_time, sim::Duration::micros(7'500));
}

}  // namespace
}  // namespace mpr::netem
