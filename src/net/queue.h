// Queue disciplines for links.
//
// DropTailQueue is the default and models the deep dumb buffers behind the
// paper's cellular bufferbloat findings (§5.1). CodelQueue implements the
// CoDel AQM (Nichols & Jacobson; RFC 8289) as the counterfactual: what the
// same radio links would look like with modern queue management — used by
// the extension bench.
//
// Queues hold QueueItems: an owning PacketPtr handle plus its wire size, so
// admitting, dequeuing and AQM-dropping a packet never moves a Packet, and a
// drop simply lets the handle destruct, recycling the packet into the
// simulation's pool. An item with an empty handle is a phantom: background
// cross-traffic that occupies queue bytes and airtime but is no Packet (see
// net::Link and netem::BackgroundTraffic).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/flat_vec.h"
#include "sim/time.h"

namespace mpr::net {

/// One queued transmission: a real packet, or a phantom of `wire_bytes`
/// when `packet` is empty. A default-constructed item is "no item".
struct QueueItem {
  PacketPtr packet;
  std::uint32_t wire_bytes{0};
  sim::TimePoint enqueue_time;  // stamped by the queue (CoDel sojourn time)

  QueueItem() = default;
  // Implicit: a real packet converts to its item.
  QueueItem(PacketPtr p)  // NOLINT(google-explicit-constructor)
      : packet{std::move(p)}, wire_bytes{packet->wire_bytes()} {}
  [[nodiscard]] static QueueItem phantom(std::uint32_t bytes) {
    QueueItem item;
    item.wire_bytes = bytes;
    return item;
  }

  [[nodiscard]] bool is_phantom() const { return !packet; }
  [[nodiscard]] explicit operator bool() const { return wire_bytes != 0; }
};

class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  /// Offers an item. Returns false if dropped at enqueue (queue full) — a
  /// rejected packet is recycled; the drop hook fires for every dropped
  /// item, at enqueue or inside dequeue (AQM).
  virtual bool enqueue(QueueItem item, sim::TimePoint now) = 0;

  /// Next item to transmit, or an empty item when the queue is empty.
  /// AQM disciplines may drop items internally here; those are reported
  /// via the drop hook.
  virtual QueueItem dequeue(sim::TimePoint now) = 0;

  [[nodiscard]] virtual std::uint64_t bytes() const = 0;
  [[nodiscard]] virtual std::size_t packets() const = 0;
  /// Queued items that are real packets (not phantoms).
  [[nodiscard]] std::size_t real_packets() const { return real_packets_; }

  /// Invoked for every item the discipline drops after admission.
  void set_drop_hook(std::function<void(const QueueItem&)> hook) { drop_hook_ = std::move(hook); }

 protected:
  void report_drop(const QueueItem& item) {
    if (drop_hook_) drop_hook_(item);
  }
  /// Bookkeeping for real_packets(): call on every admitted / removed item.
  void note_admitted(const QueueItem& item) { real_packets_ += item.is_phantom() ? 0 : 1; }
  void note_removed(const QueueItem& item) { real_packets_ -= item.is_phantom() ? 0 : 1; }

 private:
  std::function<void(const QueueItem&)> drop_hook_;
  std::size_t real_packets_{0};
};

/// FIFO with a byte cap; always admits at least one packet.
class DropTailQueue final : public QueueDiscipline {
 public:
  explicit DropTailQueue(std::uint64_t capacity_bytes) : capacity_{capacity_bytes} {}

  bool enqueue(QueueItem item, sim::TimePoint now) override;
  QueueItem dequeue(sim::TimePoint now) override;
  [[nodiscard]] std::uint64_t bytes() const override { return bytes_; }
  [[nodiscard]] std::size_t packets() const override { return queue_.size(); }

 private:
  std::uint64_t capacity_;
  std::uint64_t bytes_{0};
  // FlatRing, not std::deque: a deque frees its map blocks inside pop_front,
  // putting operator delete in dequeue's emitted code (see sim/flat_vec.h).
  sim::FlatRing<QueueItem> queue_;
};

/// CoDel (RFC 8289): drops at dequeue when the standing (sojourn) delay has
/// exceeded `target` for at least `interval`, with the sqrt control law.
/// A byte cap still bounds worst-case memory.
class CodelQueue final : public QueueDiscipline {
 public:
  struct Params {
    sim::Duration target{sim::Duration::millis(5)};
    sim::Duration interval{sim::Duration::millis(100)};
    std::uint64_t capacity_bytes{4 * 1024 * 1024};
    std::uint32_t mtu_bytes{1540};
  };

  explicit CodelQueue(Params params) : params_{params} {}

  bool enqueue(QueueItem item, sim::TimePoint now) override;
  QueueItem dequeue(sim::TimePoint now) override;
  [[nodiscard]] std::uint64_t bytes() const override { return bytes_; }
  [[nodiscard]] std::size_t packets() const override { return queue_.size(); }
  [[nodiscard]] std::uint64_t codel_drops() const { return codel_drops_; }

 private:
  struct Front {
    QueueItem item;  // empty item <=> queue was empty
    bool ok_to_drop{false};
  };
  Front do_dequeue(sim::TimePoint now);
  [[nodiscard]] sim::TimePoint control_law(sim::TimePoint t) const {
    return t + params_.interval * (1.0 / std::sqrt(static_cast<double>(count_)));
  }

  Params params_;
  std::uint64_t bytes_{0};
  sim::FlatRing<QueueItem> queue_;  // see DropTailQueue::queue_

  sim::TimePoint first_above_time_{};
  bool has_first_above_{false};
  bool dropping_{false};
  sim::TimePoint drop_next_{};
  std::uint32_t count_{0};
  std::uint64_t codel_drops_{0};
};

}  // namespace mpr::net
