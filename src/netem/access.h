// Access-network profiles and builder.
//
// An AccessProfile bundles every emulation parameter for one client
// interface (WiFi or cellular). `profiles.cpp` provides the five calibrated
// profiles used throughout the reproduction:
//   wifi_home()     — Comcast residential WiFi (paper's default path)
//   wifi_hotspot()  — loaded public coffee-shop WiFi (Fig 6/7, Table 4)
//   att_lte()       — AT&T 4G LTE
//   verizon_lte()   — Verizon 4G LTE
//   sprint_evdo()   — Sprint 3G EVDO
// Calibration targets are the single-path loss/RTT bands of Tables 2-5.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "net/link.h"
#include "net/loss.h"
#include "net/network.h"
#include "netem/arq.h"
#include "netem/background.h"
#include "netem/energy.h"
#include "netem/middlebox.h"
#include "netem/rate_process.h"
#include "netem/rrc.h"
#include "sim/simulation.h"

namespace mpr::netem {

struct AccessProfile {
  std::string name{"access"};

  // Capacity.
  double down_rate_bps{20e6};
  double up_rate_bps{5e6};
  double rate_sigma{0.0};  // lognormal dip factor sigma (see RateProcess)
  sim::Duration rate_resample{sim::Duration::millis(200)};
  /// Cap on rate relative to base. 1.0 (cellular): capacity only dips below
  /// the nominal rate; >1.0 (WiFi): mild symmetric variation.
  double rate_max_factor{1.0};
  /// Run-to-run (location/day) capacity variation: the base rate of each
  /// built access network is multiplied once by lognormal(median 1, sigma).
  /// The paper aggregates measurements across towns and days (§3), so its
  /// per-carrier statistics mix good and bad radio conditions; this knob
  /// reproduces that between-run spread.
  double rate_run_sigma{0.0};

  // Base one-way propagation delay (client <-> server, wired part included).
  sim::Duration owd_down{sim::Duration::millis(10)};
  sim::Duration owd_up{sim::Duration::millis(10)};

  // Drop-tail queue depth (bufferbloat knob).
  std::uint64_t queue_down_bytes{128 * 1024};
  std::uint64_t queue_up_bytes{64 * 1024};
  /// Replace the downlink drop-tail with CoDel (extension: the §5.1
  /// bufferbloat counterfactual — what if the RAN ran modern AQM).
  bool codel_downlink{false};
  sim::Duration codel_target{sim::Duration::millis(5)};
  sim::Duration codel_interval{sim::Duration::millis(100)};

  // Wire loss. If `ge_down` is set it overrides the Bernoulli model downlink.
  double loss_down{0.0};
  double loss_up{0.0};
  std::optional<net::GilbertElliottLoss::Params> ge_down;

  // Link-layer ARQ (cellular local retransmission).
  ArqDelayModel::Config arq{};

  // RRC state machine (cellular only).
  bool has_rrc{false};
  RrcStateMachine::Config rrc{};

  // Background cross-traffic on the downlink.
  BackgroundTraffic::Config background{.on_utilization = 0.0};
  double bg_up_utilization{0.0};  // optional uplink contention

  // Device radio power model for this interface (energy extension, §6).
  RadioPowerProfile power{RadioPowerProfile::wifi()};
};

/// The five calibrated profiles.
[[nodiscard]] AccessProfile wifi_home();
[[nodiscard]] AccessProfile wifi_hotspot();
[[nodiscard]] AccessProfile att_lte();
[[nodiscard]] AccessProfile verizon_lte();
[[nodiscard]] AccessProfile sprint_evdo();

/// A built access network: the two links plus their stochastic models.
/// Owns everything; register it with the network via build_access().
class AccessNetwork {
 public:
  AccessNetwork(sim::Simulation& sim, net::Network& network, net::IpAddr client_addr,
                const AccessProfile& profile);

  AccessNetwork(const AccessNetwork&) = delete;
  AccessNetwork& operator=(const AccessNetwork&) = delete;

  [[nodiscard]] net::Link& uplink() { return *up_; }
  [[nodiscard]] net::Link& downlink() { return *down_; }
  [[nodiscard]] const AccessProfile& profile() const { return profile_; }
  [[nodiscard]] RrcStateMachine* rrc() { return rrc_.get(); }

  /// Takes the interface out of range (all packets dropped) or restores its
  /// configured loss behaviour. Used by the handover experiments.
  void set_down(bool down);
  [[nodiscard]] bool is_down() const { return down_state_; }

  // --- Fault-injection hooks (netem::FaultInjector) ---

  /// Scales both directions' service rate by `factor` (1.0 = nominal),
  /// composing with the profile's RateProcess if one is running. Clamped
  /// below so a scripted "rate 0" degrades to a crawl, not a divide-by-zero.
  void set_rate_scale(double factor);
  [[nodiscard]] double rate_scale() const { return fault_rate_scale_; }

  /// Extra one-way delay applied to every packet in both directions, on top
  /// of any ARQ stall the profile models.
  void set_fault_extra_delay(sim::Duration d);

  /// Overrides the downlink wire-loss model with a Gilbert-Elliott episode
  /// until clear_loss_override(). While the link is down the override is
  /// only recorded; set_down(false) restores into the override.
  void set_loss_override(const net::GilbertElliottLoss::Params& params);
  void clear_loss_override();

  /// Middlebox interposed on both directions of this access network.
  /// Created lazily so an untouched access path keeps a zero-overhead
  /// ingress (bit-identical to builds without middlebox support).
  [[nodiscard]] Middlebox& middlebox() {
    if (!mbox_) {
      mbox_ = std::make_unique<Middlebox>(sim_, profile_.name);
      mbox_->attach_uplink(*up_);
      mbox_->attach_downlink(*down_);
    }
    return *mbox_;
  }
  [[nodiscard]] bool has_middlebox() const { return mbox_ != nullptr; }
  [[nodiscard]] const Middlebox* middlebox_if() const { return mbox_.get(); }

 private:
  void install_loss_models();
  /// Replays both links' phantom traffic up to now; called before changing
  /// state their rate/delay callbacks read.
  void catch_up_links();

  sim::Simulation& sim_;
  AccessProfile profile_;
  bool down_state_{false};
  double fault_rate_scale_{1.0};
  sim::Duration fault_extra_delay_{};
  std::optional<net::GilbertElliottLoss::Params> loss_override_;
  std::unique_ptr<net::Link> up_;
  std::unique_ptr<net::Link> down_;
  std::unique_ptr<Middlebox> mbox_;
  std::unique_ptr<RateProcess> down_rate_;
  std::unique_ptr<RateProcess> up_rate_;
  std::unique_ptr<ArqDelayModel> arq_down_;
  std::unique_ptr<ArqDelayModel> arq_up_;
  std::unique_ptr<RrcStateMachine> rrc_;
  std::unique_ptr<BackgroundTraffic> background_;
  std::unique_ptr<BackgroundTraffic> background_up_;
};

}  // namespace mpr::netem
