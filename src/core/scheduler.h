// MPTCP packet scheduling policy.
//
// The scheduler decides which subflow new connection-level data is offered
// to first. Scheduling is expressed as a pumping order: subflows earlier in
// the order pull chunks from the connection first. Four strategies:
//
//  minrtt     — lowest smoothed RTT first (the Linux default the paper
//               measured).
//  weighted   — deficit round-robin over bytes/weight: the subflow with
//               the fewest scheduled data-level bytes per unit of share
//               pulls first. Shares come from MptcpConfig::scheduler_weights
//               (by subflow id; missing or non-positive entries count as
//               1.0). Subflows without congestion-window space are moved to
//               the back of the order so a stalled path cannot soak up
//               fresh chunks it can never send (it would strand them until
//               RTO reinjection).
//  roundrobin — weighted with every share 1.0: data spreads evenly
//               regardless of RTT, and no share is enforced.
//  redundant  — lowest-RTT pumping order, but every fresh chunk handed to
//               one subflow is also duplicated onto another established
//               subflow ("Is two greater than one?"-style redundant
//               dispatch). First arrival wins at the receiver's reorder
//               buffer; the losing copy is absorbed as a duplicate, so DSN
//               exactly-once delivery holds. Duplicates are accounted as
//               reinjections in the DSN audit (they never map new space).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/parse.h"

namespace mpr::core {

class MptcpSubflow;

enum class SchedulerKind { kMinRtt, kRoundRobin, kWeighted, kRedundant };

/// The scheduler names the CLIs and fault scenarios accept ("roundrobin"
/// is kRoundRobin's canonical name, "rr" its alias).
inline constexpr sim::Name<SchedulerKind> kSchedulerNames[] = {
    {"minrtt", SchedulerKind::kMinRtt}, {"roundrobin", SchedulerKind::kRoundRobin},
    {"rr", SchedulerKind::kRoundRobin}, {"weighted", SchedulerKind::kWeighted},
    {"redundant", SchedulerKind::kRedundant}};

[[nodiscard]] inline std::string to_string(SchedulerKind k) {
  return sim::name_of(kSchedulerNames, k);
}
[[nodiscard]] inline std::optional<SchedulerKind> scheduler_from_string(std::string_view s) {
  return sim::from_name(kSchedulerNames, s);
}

/// The dispatch strategy of one connection: its kind plus, for kWeighted,
/// the per-subflow shares. A plain value; `order()` covers every kind.
class PacketScheduler {
 public:
  /// `weights` are per-subflow-id shares, only meaningful for kWeighted
  /// (ignored by the other strategies).
  explicit PacketScheduler(SchedulerKind kind, std::vector<double> weights = {});

  [[nodiscard]] SchedulerKind kind() const { return kind_; }
  /// Reorders `subflows` into pumping order (most preferred first).
  void order(std::vector<MptcpSubflow*>& subflows) const;
  /// Redundant dispatch: fresh chunks handed to one subflow are also
  /// duplicated onto another established subflow by the connection.
  [[nodiscard]] bool redundant() const { return kind_ == SchedulerKind::kRedundant; }
  /// The deficit weight applied to `subflow_id` (1.0 unless the scheduler
  /// is weighted and a share was configured for that id).
  [[nodiscard]] double weight(std::uint8_t subflow_id) const {
    return subflow_id < weights_.size() ? weights_[subflow_id] : 1.0;
  }
  /// Share enforcement: a subflow ahead of its weighted byte share declines
  /// fresh data while another usable subflow lags behind its share (the
  /// pumping order alone cannot cap a path — every subflow would still fill
  /// its congestion window).
  [[nodiscard]] bool enforces_shares() const { return kind_ == SchedulerKind::kWeighted; }

 private:
  SchedulerKind kind_;
  /// Sanitized shares (non-finite or non-positive -> 1.0); empty unless
  /// kind_ is kWeighted, so every other kind weighs each subflow 1.0.
  std::vector<double> weights_;
};

}  // namespace mpr::core
