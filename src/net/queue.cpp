#include "net/queue.h"

#include <utility>

namespace mpr::net {

// ---------------------------------------------------------------------------
// DropTailQueue.

bool DropTailQueue::enqueue(QueueItem item, sim::TimePoint now) {
  const std::uint64_t wire = item.wire_bytes;
  if (bytes_ + wire > capacity_ && !queue_.empty()) {
    report_drop(item);  // item destructs at return: packet recycled
    return false;
  }
  item.enqueue_time = now;
  bytes_ += wire;
  note_admitted(item);
  queue_.push_back(std::move(item));
  return true;
}

QueueItem DropTailQueue::dequeue(sim::TimePoint /*now*/) {
  if (queue_.empty()) return QueueItem{};
  QueueItem item = queue_.pop_front();
  bytes_ -= item.wire_bytes;
  note_removed(item);
  return item;
}

// ---------------------------------------------------------------------------
// CodelQueue.

bool CodelQueue::enqueue(QueueItem item, sim::TimePoint now) {
  const std::uint64_t wire = item.wire_bytes;
  if (bytes_ + wire > params_.capacity_bytes && !queue_.empty()) {
    report_drop(item);
    return false;
  }
  item.enqueue_time = now;
  bytes_ += wire;
  note_admitted(item);
  queue_.push_back(std::move(item));
  return true;
}

CodelQueue::Front CodelQueue::do_dequeue(sim::TimePoint now) {
  Front f;
  if (queue_.empty()) {
    has_first_above_ = false;
    return f;
  }
  QueueItem item = queue_.pop_front();
  bytes_ -= item.wire_bytes;
  note_removed(item);

  const sim::Duration sojourn = now - item.enqueue_time;
  if (sojourn < params_.target || bytes_ <= params_.mtu_bytes) {
    // Out of the "standing queue" regime.
    has_first_above_ = false;
  } else if (!has_first_above_) {
    has_first_above_ = true;
    first_above_time_ = now + params_.interval;
  } else if (now >= first_above_time_) {
    f.ok_to_drop = true;
  }
  f.item = std::move(item);
  return f;
}

QueueItem CodelQueue::dequeue(sim::TimePoint now) {
  Front f = do_dequeue(now);
  if (!f.item) {
    dropping_ = false;
    return QueueItem{};
  }

  if (dropping_) {
    if (!f.ok_to_drop) {
      dropping_ = false;
    } else {
      while (dropping_ && now >= drop_next_) {
        report_drop(f.item);
        ++codel_drops_;
        ++count_;
        f = do_dequeue(now);  // previous front recycled by the assignment
        if (!f.item) {
          dropping_ = false;
          return QueueItem{};
        }
        if (!f.ok_to_drop) {
          dropping_ = false;
        } else {
          drop_next_ = control_law(drop_next_);
        }
      }
    }
  } else if (f.ok_to_drop) {
    report_drop(f.item);
    ++codel_drops_;
    f = do_dequeue(now);
    dropping_ = true;
    // Restart the control law near where it left off if we were recently
    // dropping (RFC 8289 §5.4).
    if (count_ > 2 && now - drop_next_ < params_.interval * 8.0) {
      count_ -= 2;
    } else {
      count_ = 1;
    }
    drop_next_ = control_law(now);
    if (!f.item) return QueueItem{};
  }
  return std::move(f.item);
}

}  // namespace mpr::net
