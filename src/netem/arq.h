// Link-layer ARQ (local retransmission) delay model.
//
// Cellular RANs retransmit corrupted frames locally (RLC/HARQ), transparent
// to TCP. The paper (§2.1) credits this for near-zero TCP-level loss on
// 3G/4G at the cost of added delay and delay variability. We model it as a
// per-packet extra delay: with probability `retx_prob` a packet needs
// 1..max_rounds local retransmissions, each costing one ARQ round trip.
// Combined with the link's in-order delivery this produces head-of-line
// blocking delay spikes.
#pragma once

#include "sim/rng.h"
#include "sim/time.h"

namespace mpr::netem {

class ArqDelayModel {
 public:
  struct Config {
    double retx_prob{0.0};
    sim::Duration round_delay{sim::Duration::millis(8)};
    int max_rounds{3};
  };

  ArqDelayModel(Config config, sim::Rng rng)
      : config_{config}, rng_{std::move(rng)} {}

  [[nodiscard]] sim::Duration extra_delay() {
    if (!rng_.chance(config_.retx_prob)) return sim::Duration::zero();
    // Geometric-ish number of rounds, truncated.
    int rounds = 1;
    while (rounds < config_.max_rounds && rng_.chance(config_.retx_prob)) ++rounds;
    // Small uniform jitter so delays are not perfectly quantized.
    const double jitter = rng_.uniform(0.8, 1.2);
    return config_.round_delay * static_cast<double>(rounds) * jitter;
  }

 private:
  Config config_;
  sim::Rng rng_;
};

}  // namespace mpr::netem
