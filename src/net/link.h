// Unidirectional link: drop-tail byte queue -> serialization at a (possibly
// time-varying) rate -> wire loss -> propagation delay (+ per-packet extra
// delay, e.g. link-layer ARQ stalls) -> delivery.
//
// Delivery order is FIFO even when extra delay varies: cellular RLC delivers
// in sequence, so a delayed packet head-of-line blocks the ones behind it.
// This is the mechanism behind the RTT spikes the paper observes on 3G.
//
// Background cross-traffic (a CrossTraffic source, netem::BackgroundTraffic)
// is event-free. Its phantom packets are queue items without a Packet: each
// time the link is touched — a real arrival or completion, a setter, a stats
// read, or the gate it shares with its sibling link — it first replays every
// phantom arrival and phantom service completion due before the touch,
// making the same drop-tail, loss, ARQ, delivery-floor and stats decisions
// the per-packet event path made. Virtual events are ordered against the
// running real event by (time, scheduled-at instant): a phantom at time t
// comes first only if it was scheduled at an earlier instant (see
// sim::EventQueue::scheduled_at). The only event phantoms ever schedule is
// a wake at the end of a phantom's service when a real packet waits behind
// it, so the real packet starts service at its own instant.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/loss.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/queue.h"
#include "sim/simulation.h"

namespace mpr::net {

/// A pure arrival process of phantom packets, pulled by the link it feeds.
class CrossTraffic {
 public:
  struct Arrival {
    sim::TimePoint when;
    /// The instant an event-driven generator would have scheduled this
    /// arrival (its previous generator event).
    sim::TimePoint scheduled_at;
    std::uint32_t wire_bytes{0};
  };

  virtual ~CrossTraffic() = default;
  /// The next arrival not yet offered, or nullptr when the source is done.
  [[nodiscard]] virtual const Arrival* peek() = 0;
  /// Consumes the arrival peek() returned.
  virtual void pop() = 0;
};

class Link {
 public:
  struct Config {
    std::string name{"link"};
    double rate_bps{10e6};
    sim::Duration prop_delay{sim::Duration::millis(5)};
    std::uint64_t queue_capacity_bytes{256 * 1024};
  };

  /// Counts cover real and phantom packets alike.
  struct Stats {
    std::uint64_t packets_offered{0};
    std::uint64_t packets_delivered{0};
    std::uint64_t packets_dropped_queue{0};
    std::uint64_t packets_dropped_wire{0};
    std::uint64_t bytes_delivered{0};
    /// Accumulated transmission (serialization) time — the radio's active
    /// airtime, used by the energy model.
    sim::Duration busy_time{};
  };

  using DeliverFn = std::function<void(PacketPtr)>;
  /// Service rate in bits/s at the given instant (a service start; lazily
  /// replayed phantom starts pass their own, possibly past, instant).
  using RateFn = std::function<double(sim::TimePoint)>;
  /// Extra one-way delay added to a packet (ARQ retransmission stalls etc.).
  using ExtraDelayFn = std::function<sim::Duration()>;
  /// Earliest time service may start (radio promotion gate). Also informs the
  /// gate that traffic is flowing (refreshes inactivity timers).
  using GateFn = std::function<sim::TimePoint(sim::TimePoint now)>;
  /// Ingress interceptor (middlebox). Receives every real packet offered to
  /// the link *before* queueing/serialization, so a mangled packet serializes
  /// at its post-mangle wire size. The interceptor forwards (possibly other)
  /// packets via send_direct(), or swallows them. Phantoms bypass it.
  using IngressFn = std::function<void(PacketPtr)>;

  Link(sim::Simulation& sim, Config config, DeliverFn deliver);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offers a packet to the queue; drops (recycles) if the queue is full.
  /// Routed through the ingress interceptor when one is installed.
  void send(PacketPtr p);

  /// Offers a packet to the queue, bypassing the ingress interceptor.
  void send_direct(PacketPtr p);

  void set_ingress(IngressFn f) { ingress_ = std::move(f); }

  // Setters apply from now on: each first catches the link up, so phantom
  // completions before the change still see the old model.
  void set_loss_model(std::unique_ptr<LossModel> m);
  /// Replaces the queue discipline (default: DropTailQueue of
  /// queue_capacity_bytes). Must be called before traffic flows.
  void set_queue_discipline(std::unique_ptr<QueueDiscipline> q);
  void set_rate_fn(RateFn f);
  void set_extra_delay_fn(ExtraDelayFn f);
  void set_gate_fn(GateFn f);
  /// Installs one gate on two links (a cellular interface's uplink and
  /// downlink share its radio). Before either link consults the gate, the
  /// other catches up to that instant, so the gate sees calls in time order.
  static void share_gate(Link& a, Link& b, const GateFn& f);
  /// Observer invoked for every real packet dropped (queue or wire), for
  /// tracing. Phantom drops count in stats() only.
  void set_drop_observer(std::function<void(const Packet&)> f) { drop_observer_ = std::move(f); }
  /// Attaches (or, with nullptr, detaches) the link's one phantom source.
  /// The source must stay alive while attached.
  void set_cross_traffic(CrossTraffic* source);

  /// Replays phantom traffic due before the current instant (see header).
  /// Every public entry point does this itself; owners call it before
  /// changing state that the link's callbacks read.
  void catch_up();

  [[nodiscard]] const Stats& stats() {
    catch_up();
    return stats_;
  }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint64_t queued_bytes() {
    catch_up();
    return queue_->bytes();
  }
  [[nodiscard]] std::size_t queued_packets() {
    catch_up();
    return queue_->packets();
  }

 private:
  /// Position in the merged order of real and virtual events: time, then
  /// scheduled-at instant, then the link's own creation order (for two
  /// virtual events scheduled at the same instant).
  struct Key {
    std::int64_t when;
    std::int64_t sched;
    std::uint64_t order;
    [[nodiscard]] bool operator<(const Key& o) const {
      if (when != o.when) return when < o.when;
      if (sched != o.sched) return sched < o.sched;
      return order < o.order;
    }
  };

  /// Key of the running real event (or of a touch outside the event loop).
  /// Order 0 sorts it before every virtual event scheduled at the same
  /// instant, whose orders start at 1.
  [[nodiscard]] Key now_key() const {
    return Key{sim_.now().ns(), sim_.events().scheduled_at().ns(), 0};
  }
  /// Replays every virtual event ordered before `limit`.
  void catch_up_to(Key limit);
  void phantom_arrives();
  void phantom_completes();
  void pull_arrival();
  /// Starts the next service at `t` in context `ctx` (the event doing it).
  void start_service(sim::TimePoint t, Key ctx);
  void finish_real(PacketPtr p);
  void deliver_after_service(sim::TimePoint done, std::uint32_t wire_bytes, PacketPtr p);
  /// Schedules the wake at the end of the phantom in service when a real
  /// packet waits behind it.
  void arm_wake();
  void on_wake();

  sim::Simulation& sim_;
  Config config_;
  DeliverFn deliver_;
  std::unique_ptr<LossModel> loss_{std::make_unique<NoLoss>()};
  RateFn rate_fn_;
  ExtraDelayFn extra_delay_fn_;
  GateFn gate_fn_;
  Link* gate_sibling_{nullptr};
  IngressFn ingress_;
  std::function<void(const Packet&)> drop_observer_;

  std::unique_ptr<QueueDiscipline> queue_;
  bool serving_{false};
  sim::TimePoint last_delivery_;  // FIFO floor for deliveries
  Stats stats_;

  // Phantom cross-traffic state.
  CrossTraffic* cross_{nullptr};
  bool arrival_pending_{false};
  CrossTraffic::Arrival arrival_{};
  std::uint64_t arrival_order_{0};
  bool serving_phantom_{false};
  Key service_end_{};  // completion of the phantom in service
  std::uint32_t service_bytes_{0};
  std::uint64_t next_order_{1};
  sim::EventId wake_{sim::kInvalidEventId};
  bool busy_{false};  // inside catch-up or a gate call: re-entry is a no-op
};

}  // namespace mpr::net
