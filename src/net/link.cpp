#include "net/link.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mpr::net {

Link::Link(sim::Simulation& sim, Config config, DeliverFn deliver)
    : sim_{sim}, config_{std::move(config)}, deliver_{std::move(deliver)} {
  assert(deliver_);
  assert(config_.rate_bps > 0);
  set_queue_discipline(std::make_unique<DropTailQueue>(config_.queue_capacity_bytes));
}

void Link::set_queue_discipline(std::unique_ptr<QueueDiscipline> q) {
  assert(q != nullptr);
  queue_ = std::move(q);
  // In-queue drops (AQM) count as queue drops alongside enqueue rejections.
  queue_->set_drop_hook([this](const QueueItem& item) {
    ++stats_.packets_dropped_queue;
    if (item.packet && drop_observer_) drop_observer_(*item.packet);
  });
}

void Link::set_loss_model(std::unique_ptr<LossModel> m) {
  catch_up();
  loss_ = std::move(m);
}

void Link::set_rate_fn(RateFn f) {
  catch_up();
  rate_fn_ = std::move(f);
}

void Link::set_extra_delay_fn(ExtraDelayFn f) {
  catch_up();
  extra_delay_fn_ = std::move(f);
}

void Link::set_gate_fn(GateFn f) {
  catch_up();
  gate_fn_ = std::move(f);
}

void Link::share_gate(Link& a, Link& b, const GateFn& f) {
  a.set_gate_fn(f);
  b.set_gate_fn(f);
  a.gate_sibling_ = &b;
  b.gate_sibling_ = &a;
}

void Link::set_cross_traffic(CrossTraffic* source) {
  assert(source == nullptr || cross_ == nullptr);
  catch_up();
  cross_ = source;
  pull_arrival();
}

void Link::send(PacketPtr p) {
  if (ingress_) {
    ingress_(std::move(p));
    return;
  }
  send_direct(std::move(p));
}

void Link::send_direct(PacketPtr p) {
  catch_up();
  ++stats_.packets_offered;
  // The discipline's drop hook accounts for rejected packets.
  if (queue_->enqueue(std::move(p), sim_.now()) && !serving_) {
    start_service(sim_.now(), now_key());
  }
  arm_wake();
}

void Link::catch_up() {
  if (cross_ == nullptr && !serving_phantom_) return;
  catch_up_to(now_key());
}

void Link::catch_up_to(Key limit) {
  if (busy_) return;
  busy_ = true;
  for (;;) {
    const Key arrival{arrival_.when.ns(), arrival_.scheduled_at.ns(), arrival_order_};
    if (serving_phantom_ && (!arrival_pending_ || service_end_ < arrival)) {
      if (!(service_end_ < limit)) break;
      phantom_completes();
    } else if (arrival_pending_ && arrival < limit) {
      phantom_arrives();
    } else {
      break;
    }
  }
  busy_ = false;
  arm_wake();
}

void Link::pull_arrival() {
  const CrossTraffic::Arrival* a = cross_ != nullptr ? cross_->peek() : nullptr;
  arrival_pending_ = a != nullptr;
  if (a != nullptr) {
    arrival_ = *a;
    arrival_order_ = next_order_++;
  }
}

void Link::phantom_arrives() {
  const Key ctx{arrival_.when.ns(), arrival_.scheduled_at.ns(), arrival_order_};
  ++stats_.packets_offered;
  if (queue_->enqueue(QueueItem::phantom(arrival_.wire_bytes), arrival_.when) && !serving_) {
    start_service(arrival_.when, ctx);
  }
  // The generator schedules its next arrival after offering this one.
  cross_->pop();
  pull_arrival();
}

void Link::phantom_completes() {
  const Key ctx = service_end_;
  const sim::TimePoint done = sim::TimePoint::from_ns(ctx.when);
  serving_ = false;
  serving_phantom_ = false;
  if (wake_ != sim::kInvalidEventId) {
    sim_.cancel(wake_);
    wake_ = sim::kInvalidEventId;
  }
  if (loss_->should_drop()) {
    ++stats_.packets_dropped_wire;
  } else {
    deliver_after_service(done, service_bytes_, PacketPtr{});
  }
  start_service(done, ctx);
}

void Link::start_service(sim::TimePoint t, Key ctx) {
  QueueItem item = queue_->dequeue(t);
  if (!item) return;
  serving_ = true;

  sim::TimePoint start = t;
  if (gate_fn_) {
    // The sibling sharing the gate first replays its traffic up to this
    // instant, so the gate sees both links' calls in time order.
    const bool was_busy = std::exchange(busy_, true);
    if (gate_sibling_ != nullptr) gate_sibling_->catch_up_to(Key{ctx.when, ctx.sched, 0});
    start = std::max(t, gate_fn_(t));
    busy_ = was_busy;
  }
  const double rate = rate_fn_ ? rate_fn_(t) : config_.rate_bps;
  const sim::Duration tx = sim::Duration::from_seconds(static_cast<double>(item.wire_bytes) * 8.0 /
                                                       std::max(rate, 1.0));
  stats_.busy_time += tx;
  const sim::TimePoint done = start + tx;

  if (item.is_phantom()) {
    serving_phantom_ = true;
    service_end_ = Key{done.ns(), t.ns(), next_order_++};
    service_bytes_ = item.wire_bytes;
    return;
  }
  // 16-byte capture (this + pooled handle): fits the inline event action.
  sim_.at(done, [this, pkt = std::move(item.packet)]() mutable { finish_real(std::move(pkt)); });
}

void Link::finish_real(PacketPtr p) {
  catch_up();
  serving_ = false;
  if (loss_->should_drop()) {
    ++stats_.packets_dropped_wire;
    if (drop_observer_) drop_observer_(*p);
    p.reset();  // recycle before the next service starts
  } else {
    const std::uint32_t wire = p->wire_bytes();
    deliver_after_service(sim_.now(), wire, std::move(p));
  }
  start_service(sim_.now(), now_key());
  arm_wake();
}

void Link::deliver_after_service(sim::TimePoint done, std::uint32_t wire_bytes, PacketPtr p) {
  sim::Duration extra = extra_delay_fn_ ? extra_delay_fn_() : sim::Duration::zero();
  if (extra < sim::Duration::zero()) extra = sim::Duration::zero();
  sim::TimePoint deliver_at = done + config_.prop_delay + extra;
  // In-order delivery: a stalled packet blocks everything behind it.
  if (deliver_at < last_delivery_) deliver_at = last_delivery_;
  last_delivery_ = deliver_at;
  ++stats_.packets_delivered;
  stats_.bytes_delivered += wire_bytes;
  if (!p) return;  // a phantom leaves the model here
  sim_.at(deliver_at, [this, pkt = std::move(p)]() mutable { deliver_(std::move(pkt)); });
}

void Link::arm_wake() {
  if (!serving_phantom_ || wake_ != sim::kInvalidEventId || queue_->real_packets() == 0) return;
  assert(service_end_.when >= sim_.now().ns());
  wake_ = sim_.at(sim::TimePoint::from_ns(service_end_.when), [this] { on_wake(); });
}

void Link::on_wake() {
  wake_ = sim::kInvalidEventId;
  // Through the completion this wake was armed for, which starts the next
  // service at its own instant.
  catch_up_to(Key{service_end_.when, service_end_.sched, service_end_.order + 1});
}

}  // namespace mpr::net
