// MPTCP congestion controllers (paper §2.2.2).
//
// All three share slow start and halve-on-loss (inherited from
// RenoFamilyCc); they differ in the congestion-avoidance increase:
//
//  reno    — uncoupled New Reno on every subflow (tcp::NewRenoCc shared
//            across subflows; its increase uses only per-flow state, so a
//            shared instance *is* the uncoupled baseline).
//  coupled — LIA (RFC 6356), MPTCP's default:
//              w_i += min(alpha/w_total, 1/w_i) per packet acked, with
//              alpha = w_total * max_i(w_i/rtt_i^2) / (sum_i w_i/rtt_i)^2.
//  olia    — opportunistic linked increases (Khalili et al., CoNEXT'12):
//              w_i += (w_i/rtt_i^2) / (sum_p w_p/rtt_p)^2 + alpha_i/w_i,
//            where alpha_i shifts window between "best" paths (largest
//            inter-loss throughput estimate l_i^2/rtt_i) and max-window
//            paths.
//  vegas   — delay-based, uncoupled (tcp::VegasCc shared across subflows):
//            each path nudges its window by one MSS per RTT toward an
//            alpha..beta packet queue-occupancy target.
//
// Windows are computed in MSS units internally; increases are applied in
// bytes with appropriate byte counting.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "sim/parse.h"
#include "tcp/congestion.h"

namespace mpr::core {

enum class CcKind { kReno, kCoupled, kOlia, kVegas };

/// The congestion-control names the CLIs and the campaign spec accept.
inline constexpr sim::Name<CcKind> kCcNames[] = {
    {"coupled", CcKind::kCoupled}, {"olia", CcKind::kOlia}, {"reno", CcKind::kReno},
    {"vegas", CcKind::kVegas}};

[[nodiscard]] inline std::string to_string(CcKind k) { return sim::name_of(kCcNames, k); }
[[nodiscard]] inline std::optional<CcKind> cc_from_string(std::string_view s) {
  return sim::from_name(kCcNames, s);
}
[[nodiscard]] std::unique_ptr<tcp::CongestionControl> make_congestion_control(CcKind k);

/// LIA — RFC 6356 "coupled" (the MPTCP default in the paper).
class LiaCc final : public tcp::RenoFamilyCc {
 protected:
  double ca_increase_bytes(tcp::FlowCc& flow, std::uint64_t acked_bytes) override;
};

/// OLIA — Khalili et al.
class OliaCc final : public tcp::RenoFamilyCc {
 public:
  void register_flow(tcp::FlowCc& flow) override;
  void unregister_flow(tcp::FlowCc& flow) override;

 protected:
  double ca_increase_bytes(tcp::FlowCc& flow, std::uint64_t acked_bytes) override;
  // OLIA's coupled term is bounded by 1/w_i and its alpha term by 0.5/w_i,
  // so the per-ack increase can legitimately reach 1.5x the Reno reference.
  [[nodiscard]] double ca_increase_cap_factor() const override { return 1.5; }
  void note_bytes_acked(tcp::FlowCc& flow, std::uint64_t acked) override;
  void note_loss(tcp::FlowCc& flow) override;

 private:
  struct PathState {
    double bytes_since_loss{0};          // l1_i
    double bytes_between_last_losses{0};  // l2_i
    [[nodiscard]] double smoothed_bytes() const {
      return std::max(bytes_since_loss, bytes_between_last_losses);
    }
  };
  /// alpha_i for `flow` given the current path sets (|R| = #flows).
  [[nodiscard]] double alpha_for(const tcp::FlowCc& flow) const;

  std::unordered_map<const tcp::FlowCc*, PathState> paths_;
};

}  // namespace mpr::core
