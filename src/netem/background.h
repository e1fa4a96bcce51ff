// Background cross-traffic generator.
//
// Phantom packets occupy an access link's queue and serialization time,
// reproducing contention from other users of the same AP/backhaul (the
// coffee-shop hotspot of Fig 6, and milder time-of-day load on the home
// network). The process is a modulated Poisson source: exponential ON/OFF
// phases; during ON phases packets arrive at a rate targeting
// `on_utilization` of the link's base rate.
//
// The generator is a pure arrival process (net::CrossTraffic): it schedules
// no events and creates no Packets. The link pulls arrivals when it catches
// up (see net/link.h); the ON/OFF phases and exponential gaps are drawn in
// the order an event-per-arrival generator would draw them, and each
// arrival carries the instant such a generator would have scheduled it.
#pragma once

#include <cstdint>

#include "net/link.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace mpr::netem {

class BackgroundTraffic final : public net::CrossTraffic {
 public:
  struct Config {
    double on_utilization{0.6};   // fraction of link rate consumed while ON
    double on_fraction{0.5};      // long-run fraction of time in ON phase
    sim::Duration mean_on{sim::Duration::seconds(2)};
    std::uint32_t packet_bytes{1460};  // wire size of a phantom packet
  };

  /// Starts generating immediately. `link` must outlive this object.
  BackgroundTraffic(sim::Simulation& sim, net::Link& link, Config config, sim::Rng rng);

  BackgroundTraffic(const BackgroundTraffic&) = delete;
  BackgroundTraffic& operator=(const BackgroundTraffic&) = delete;

  /// No arrivals after now (phantoms already queued still drain).
  void stop() { link_.set_cross_traffic(nullptr); }
  /// Phantoms offered to the link up to now.
  [[nodiscard]] std::uint64_t packets_injected() {
    link_.catch_up();
    return injected_;
  }

  [[nodiscard]] const Arrival* peek() override;
  void pop() override {
    pending_ = false;
    ++injected_;
  }

 private:
  [[nodiscard]] sim::Duration mean_off() const {
    const double f = config_.on_fraction;
    if (f >= 1.0) return sim::Duration::zero();
    return config_.mean_on * ((1.0 - f) / f);
  }

  net::Link& link_;
  Config config_;
  sim::Rng rng_;
  double mean_gap_s_;
  bool on_{false};
  sim::TimePoint phase_end_{};
  sim::TimePoint clock_;  // instant of the generator's latest (virtual) event
  bool pending_{false};
  Arrival next_{};
  std::uint64_t injected_{0};
};

}  // namespace mpr::netem
