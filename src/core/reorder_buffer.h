// Connection-level receive reorder buffer.
//
// MPTCP delivers data to the application in data-sequence order. Segments
// arriving in subflow order may still be out of order in DSN space when the
// other path lags — the buffer holds them and records, per packet, the
// out-of-order delay: time from arrival at the buffer until its DSN becomes
// in-order (paper §3.3; zero for in-order arrivals). This is the
// instrumentation behind Fig 13 and Table 6.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/flat_vec.h"
#include "sim/time.h"

namespace mpr::core {

struct OfoSample {
  sim::Duration delay;       // 0 for packets already in DSN order on arrival
  std::uint8_t subflow_id{0};
  std::uint32_t len{0};
};

class ReorderBuffer {
 public:
  /// `capacity_bytes` bounds buffered out-of-order data; the remaining space
  /// is the connection-level receive window the endpoint advertises.
  explicit ReorderBuffer(std::uint64_t capacity_bytes) : capacity_{capacity_bytes} {}

  /// In-order data ready for the application: (dsn, len).
  std::function<void(std::uint64_t, std::uint32_t)> on_deliver;

  /// Offers a segment. Duplicates (reinjected data, spurious retransmits)
  /// are detected by DSN and dropped. Returns false if the segment was
  /// refused for lack of buffer space (cannot happen when the sender
  /// respects the advertised window).
  bool insert(std::uint64_t dsn, std::uint32_t len, sim::TimePoint arrival,
              std::uint8_t subflow_id);

  [[nodiscard]] std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t buffered_bytes() const { return buffered_bytes_; }
  [[nodiscard]] std::uint64_t window() const {
    return capacity_ > buffered_bytes_ ? capacity_ - buffered_bytes_ : 0;
  }
  [[nodiscard]] std::uint64_t delivered_bytes() const { return delivered_bytes_; }
  [[nodiscard]] std::uint64_t duplicate_packets() const { return duplicates_; }

  /// One sample per delivered packet, in delivery order.
  [[nodiscard]] const sim::FlatVec<OfoSample>& ofo_samples() const { return samples_; }

  /// Peak buffer occupancy observed (buffer-sizing ablation).
  [[nodiscard]] std::uint64_t max_buffered_bytes() const { return max_buffered_; }

 private:
  bool insert_impl(std::uint64_t dsn, std::uint32_t len, sim::TimePoint arrival,
                   std::uint8_t subflow_id);

  struct Held {
    std::uint32_t len{0};
    sim::TimePoint arrival;
    std::uint8_t subflow_id{0};
  };

  std::uint64_t capacity_;
  std::uint64_t rcv_nxt_{0};
  // Held segments by DSN, drained in order from the front. Population is
  // bounded by the receive window and only grows when paths diverge.
  sim::SeqFlatMap<Held> held_;
  std::uint64_t buffered_bytes_{0};
  std::uint64_t max_buffered_{0};
  std::uint64_t delivered_bytes_{0};
  std::uint64_t duplicates_{0};
  sim::FlatVec<OfoSample> samples_;
};

}  // namespace mpr::core
