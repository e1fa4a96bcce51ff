// Time-varying link rate.
//
// Cellular downlink capacity as seen by one UE varies with channel quality
// and the eNodeB scheduler. We model it as a piecewise-constant process:
// every `resample_interval` the rate becomes base_bps / F where
// F ~ lognormal(median 1, sigma). F's heavy right tail produces occasional
// deep rate dips — which, combined with deep drop-tail buffers, is the
// mechanism behind cellular "bufferbloat" RTT spikes (paper §5.1).
#pragma once

#include <algorithm>
#include <cmath>

#include "sim/rng.h"
#include "sim/time.h"

namespace mpr::netem {

class RateProcess {
 public:
  struct Config {
    double base_bps{10e6};
    double sigma{0.0};  // 0 => constant rate
    sim::Duration resample_interval{sim::Duration::millis(200)};
    double min_bps{64e3};
    double max_factor{1.5};  // cap on rate above base (dips are the point)
  };

  RateProcess(Config config, sim::Rng rng)
      : config_{config}, rng_{std::move(rng)}, current_bps_{config.base_bps} {}

  /// Rate in bits/s at `now`. Calls must come in non-decreasing time order
  /// (a link's service starts, replayed phantom starts included, do).
  [[nodiscard]] double rate_bps(sim::TimePoint now) {
    if (config_.sigma <= 0.0) return config_.base_bps;
    while (now >= next_resample_) {
      // log(median=1.0) == 0.0, hoisted out of the resample loop; identical
      // arithmetic to lognormal_median(1.0, sigma).
      const double factor = rng_.lognormal_log_median(0.0, config_.sigma);
      current_bps_ = std::clamp(config_.base_bps / factor, config_.min_bps,
                                config_.base_bps * config_.max_factor);
      next_resample_ = next_resample_ + config_.resample_interval;
    }
    return current_bps_;
  }

 private:
  Config config_;
  sim::Rng rng_;
  double current_bps_;
  sim::TimePoint next_resample_{};
};

}  // namespace mpr::netem
