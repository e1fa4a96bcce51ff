#include "core/coupled_cc.h"

#include <algorithm>
#include <cmath>
#include <memory>

namespace mpr::core {
namespace {

/// Window in MSS units (>= a small floor to keep the formulas stable).
double wnd_pkts(const tcp::FlowCc& f) {
  return std::max(f.cwnd_bytes() / static_cast<double>(f.mss()), 0.1);
}

double rtt_seconds(const tcp::FlowCc& f) {
  return std::max(f.srtt().to_seconds(), 1e-4);
}

}  // namespace

std::unique_ptr<tcp::CongestionControl> make_congestion_control(CcKind k) {
  switch (k) {
    case CcKind::kReno: return std::make_unique<tcp::NewRenoCc>();
    case CcKind::kCoupled: return std::make_unique<LiaCc>();
    case CcKind::kOlia: return std::make_unique<OliaCc>();
    case CcKind::kVegas: return std::make_unique<tcp::VegasCc>();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// LIA (RFC 6356).

double LiaCc::ca_increase_bytes(tcp::FlowCc& flow, std::uint64_t acked_bytes) {
  double w_total = 0.0;
  double max_term = 0.0;  // max_i w_i / rtt_i^2
  double sum_term = 0.0;  // sum_i w_i / rtt_i
  for (const tcp::FlowCc* f : flows()) {
    const double w = wnd_pkts(*f);
    const double rtt = rtt_seconds(*f);
    w_total += w;
    max_term = std::max(max_term, w / (rtt * rtt));
    sum_term += w / rtt;
  }
  if (w_total <= 0.0 || sum_term <= 0.0) return 0.0;
  const double alpha = w_total * max_term / (sum_term * sum_term);

  const double per_pkt =
      std::min(alpha / w_total, 1.0 / wnd_pkts(flow));  // Δw_i per packet acked
  return per_pkt * static_cast<double>(acked_bytes);    // byte-counted
}

// ---------------------------------------------------------------------------
// OLIA.

void OliaCc::register_flow(tcp::FlowCc& flow) {
  RenoFamilyCc::register_flow(flow);
  paths_.emplace(&flow, PathState{});
}

void OliaCc::unregister_flow(tcp::FlowCc& flow) {
  RenoFamilyCc::unregister_flow(flow);
  paths_.erase(&flow);
}

void OliaCc::note_bytes_acked(tcp::FlowCc& flow, std::uint64_t acked) {
  paths_[&flow].bytes_since_loss += static_cast<double>(acked);
}

void OliaCc::note_loss(tcp::FlowCc& flow) {
  PathState& st = paths_[&flow];
  st.bytes_between_last_losses = st.bytes_since_loss;
  st.bytes_since_loss = 0.0;
}

double OliaCc::alpha_for(const tcp::FlowCc& flow) const {
  const auto& all = flows();
  const std::size_t n = all.size();
  if (n < 2) return 0.0;

  // Best paths: argmax_p l_p^2 / rtt_p ; max-window paths: argmax_p w_p.
  double best_quality = -1.0;
  double max_w = -1.0;
  for (const tcp::FlowCc* f : all) {
    const auto it = paths_.find(f);
    const double l = it != paths_.end() ? it->second.smoothed_bytes() : 0.0;
    best_quality = std::max(best_quality, l * l / rtt_seconds(*f));
    max_w = std::max(max_w, wnd_pkts(*f));
  }
  constexpr double kRel = 1.0 - 1e-9;
  std::size_t n_best_not_max = 0;
  std::size_t n_max = 0;
  bool flow_in_best_not_max = false;
  bool flow_in_max = false;
  for (const tcp::FlowCc* f : all) {
    const auto it = paths_.find(f);
    const double l = it != paths_.end() ? it->second.smoothed_bytes() : 0.0;
    const bool is_best = l * l / rtt_seconds(*f) >= best_quality * kRel;
    const bool is_max = wnd_pkts(*f) >= max_w * kRel;
    if (is_max) {
      ++n_max;
      if (f == &flow) flow_in_max = true;
    } else if (is_best) {
      ++n_best_not_max;
      if (f == &flow) flow_in_best_not_max = true;
    }
  }

  if (n_best_not_max == 0) return 0.0;  // collected set empty: alpha_i = 0
  const double nn = static_cast<double>(n);
  if (flow_in_best_not_max) {
    return 1.0 / (nn * static_cast<double>(n_best_not_max));
  }
  if (flow_in_max) {
    return -1.0 / (nn * static_cast<double>(n_max));
  }
  return 0.0;
}

double OliaCc::ca_increase_bytes(tcp::FlowCc& flow, std::uint64_t acked_bytes) {
  double denom = 0.0;  // sum_p w_p / rtt_p
  for (const tcp::FlowCc* f : flows()) {
    denom += wnd_pkts(*f) / rtt_seconds(*f);
  }
  if (denom <= 0.0) return 0.0;

  const double w = wnd_pkts(flow);
  const double rtt = rtt_seconds(flow);
  const double coupled_term = (w / (rtt * rtt)) / (denom * denom);
  const double alpha_term = alpha_for(flow) / w;
  // Δw_i per packet acked can be slightly negative (alpha < 0 on
  // max-window paths); clamp so a single ack cannot collapse the window.
  const double per_pkt = std::max(coupled_term + alpha_term, -0.5 / w);
  return per_pkt * static_cast<double>(acked_bytes);
}

}  // namespace mpr::core
