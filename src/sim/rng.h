// Deterministic random-number streams.
//
// Every stochastic component draws from its own named stream derived from a
// single master seed, so experiments are reproducible and adding a new
// component does not perturb the draws of existing ones.
//
// Each distribution method constructs its std:: distribution object fresh
// per call, so no state (such as the polar method's spare normal deviate)
// carries from one draw to the next. RngSequence.* in tests/sim_test.cpp
// pins that draw pattern; the golden digests depend on it.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <string_view>

namespace mpr::sim {

/// One random stream. Thin wrapper over mt19937_64 with the distributions
/// the simulator actually needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() { return uniform(0.0, 1.0); }
  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }
  /// Bernoulli trial with success probability p. Degenerate p (<=0, >=1)
  /// consumes no engine draw.
  [[nodiscard]] bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }
  /// Exponential with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }
  /// Normal with the given mean / stddev.
  [[nodiscard]] double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }
  /// Lognormal such that the *median* of the result is `median` and the
  /// underlying normal has standard deviation `sigma` (in log space).
  [[nodiscard]] double lognormal_median(double median, double sigma) {
    return lognormal_log_median(std::log(median), sigma);
  }
  /// Same, with log(median) precomputed by the caller (hot resample loops).
  [[nodiscard]] double lognormal_log_median(double log_median, double sigma) {
    return std::lognormal_distribution<double>{log_median, sigma}(engine_);
  }
  /// Pareto with shape alpha and minimum xm (heavy-tailed sizes/delays).
  [[nodiscard]] double pareto(double alpha, double xm) {
    const double u = 1.0 - uniform();  // in (0, 1]
    return xm / std::pow(u, 1.0 / alpha);
  }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Derives child seeds from (master_seed, stream name) via FNV-1a + splitmix.
/// The same master seed and name always yield the same stream.
class SeedSequence {
 public:
  explicit SeedSequence(std::uint64_t master_seed) : master_{master_seed} {}

  [[nodiscard]] std::uint64_t seed_for(std::string_view name) const;
  [[nodiscard]] Rng stream(std::string_view name) const { return Rng{seed_for(name)}; }
  [[nodiscard]] std::uint64_t master() const { return master_; }

 private:
  std::uint64_t master_;
};

}  // namespace mpr::sim
