#include "netem/background.h"

#include <algorithm>
#include <utility>

namespace mpr::netem {

BackgroundTraffic::BackgroundTraffic(sim::Simulation& sim, net::Link& link, Config config,
                                     sim::Rng rng)
    : link_{link},
      config_{config},
      rng_{std::move(rng)},
      mean_gap_s_{static_cast<double>(config.packet_bytes) * 8.0 /
                  (link.config().rate_bps * config.on_utilization)},
      clock_{sim.now()} {
  if (config_.on_utilization > 0.0 && config_.on_fraction > 0.0) link_.set_cross_traffic(this);
}

const net::CrossTraffic::Arrival* BackgroundTraffic::peek() {
  // Walks the chain of generator events from clock_: each one advances the
  // ON/OFF phases past its instant, then sleeps through an OFF phase (next
  // event at the phase end) or draws the gap to the next arrival event. An
  // arrival landing at or after its phase's end offers nothing and is just
  // the next generator event.
  while (!pending_) {
    while (clock_ >= phase_end_) {
      on_ = !on_;
      const sim::Duration mean = on_ ? config_.mean_on : mean_off();
      const double len_s = std::max(rng_.exponential(std::max(mean.to_seconds(), 1e-3)), 1e-4);
      phase_end_ = phase_end_ + sim::Duration::from_seconds(len_s);
    }
    const sim::TimePoint scheduled_at = clock_;
    if (!on_) {
      clock_ = phase_end_;
      continue;
    }
    clock_ = clock_ + sim::Duration::from_seconds(rng_.exponential(mean_gap_s_));
    if (clock_ < phase_end_) {
      next_ = Arrival{clock_, scheduled_at, config_.packet_bytes};
      pending_ = true;
    }
  }
  return &next_;
}

}  // namespace mpr::netem
