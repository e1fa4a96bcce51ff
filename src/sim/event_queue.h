// Discrete-event scheduler.
//
// A two-tier scheduler: a cache-friendly 4-ary min-heap for the dense
// near-term events (packet hops, ACK deliveries) and a hierarchical timing
// wheel (sim/timing_wheel.h) for far-out timers (RTO, delayed-ACK,
// retries), which are armed constantly and cancelled almost always. All
// simulator components schedule through this queue; there is no other
// source of time.
//
// Ordering contract (unchanged from the single-heap design): events run in
// exact (when, seq) order, where seq is assigned at schedule time — FIFO
// among events scheduled for the same instant. The wheel never reorders
// anything: it hands entries to the heap no later than their due time
// (a slot's start is <= every due time inside it), and the heap is the
// sole execution source. Routing between tiers therefore cannot change
// outputs; runs stay bit-identical to the pure-heap scheduler.
//
// Cancellation uses a generation/tombstone slot scheme instead of a hash
// set: every pending event owns a slot in a recycled slot table, its id
// encodes (slot, generation), and cancel() just tombstones the slot. A
// tombstone parked in the wheel is swept in bulk when its slot opens — it
// never travels through the heap at all, which is what makes the timer
// arm/cancel churn of every data flight cheap.
//
// Data layout: the heap sifts only 16-byte (when, seq, slot) records —
// seq and slot share one word, with seq in the high bits so the packed
// compare still orders FIFO at equal times. The 64-byte actions never
// move: they live in a chunked slot arena whose chunks are stable for the
// arena's lifetime, so an action is relocated exactly once (schedule time,
// into its slot) and then executed *in place* — not moved out per event,
// not shuffled by heap sifts, not reallocated when the slot table grows.
// Slot liveness/generation sits in a separate dense meta array so the
// tombstone sweep at the heap top touches 8-byte records, not action
// cache lines.
//
// Scheduled-at instants: every slot also records now() at the moment its
// event was scheduled, and while an event runs, scheduled_at() reports it.
// Lazily replayed processes (net::Link's background cross-traffic) use it
// to place their own virtual events at the same instant relative to the
// running one: a virtual event at time t runs before the real event at t
// only if it was scheduled at an earlier instant.
//
// Dispatch: step(), run() and run_until() share one loop body — make the
// heap top the earliest live event, pop it, run its action in place.
// Events sharing an instant therefore run one at a time in seq order, and
// an action may cancel any later event, same instant included.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>

#include "check/audit.h"
#include "sim/flat_vec.h"
#include "sim/inline_function.h"
#include "sim/time.h"
#include "sim/timing_wheel.h"

namespace mpr::sim {

/// Token identifying a scheduled event; valid until the event fires or is
/// cancelled. Id 0 is never issued.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Inline capacity of an event action. Every closure scheduled anywhere in
/// the simulator must fit (checked at compile time): the packet hot path
/// schedules one action per link hop, and a heap-backed std::function here
/// cost an allocation per hop. 64 bytes = 8 pointers, comfortably above the
/// largest real capture (this + a pooled packet handle + a couple of words).
inline constexpr std::size_t kEventActionCapacity = 64;

class EventQueue {
 public:
  using Action = InlineFunction<void(), kEventActionCapacity>;

  /// Events at least this far ahead of now() go to the timing wheel; nearer
  /// ones (packet hops, same-instant work) go straight to the heap. Sized
  /// so every protocol timer (delayed-ACK 40ms, RTO >= 200ms) wheels while
  /// sub-RTT packet events never pay the wheel detour.
  static constexpr std::int64_t kWheelMinDelayNs = 16'000'000;

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time. Advances only while events run.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `action` at absolute time `when` (must be >= now()).
  EventId schedule_at(TimePoint when, Action action);

  /// Schedules `action` after `delay` (clamped to >= 0).
  EventId schedule_after(Duration delay, Action action);

  /// Cancels a pending event. Returns true if the event was still pending.
  bool cancel(EventId id);

  /// Runs a single event. Returns false if the queue was empty.
  bool step();

  /// Runs events until the queue drains or `deadline` is passed. Events at
  /// exactly `deadline` still run; now() never exceeds `deadline` afterwards.
  void run_until(TimePoint deadline);

  /// Runs until the queue drains.
  void run();

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Number of live pending events.
  [[nodiscard]] std::size_t pending() const { return live_count_; }

  /// The instant at which the currently executing event was scheduled;
  /// TimePoint::max() when no event is executing (a touch from outside the
  /// event loop comes after every event at now()).
  [[nodiscard]] TimePoint scheduled_at() const { return TimePoint::from_ns(dispatch_sched_ns_); }

  /// Total events executed so far (for instrumentation and benchmarks).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Events executed by every EventQueue already destroyed, process-wide.
  /// Benches use this for aggregate events/sec across campaign runs (each
  /// run owns one queue and accumulates here when it is torn down).
  [[nodiscard]] static std::uint64_t total_executed() {
    return total_executed_.load(std::memory_order_relaxed);
  }

  // Exposed for the layout pins and the sift-move bench/test: the heap
  // permutes HeapRec values only; actions stay put in the slot arena.
  struct HeapRec {
    std::int64_t when_ns;
    std::uint64_t seq_slot;  // (seq << kSlotIndexBits) | slot
  };
  /// Slot indices fit 24 bits: 16.7M *simultaneously pending* events, ~3
  /// orders of magnitude above any real run. seq gets the remaining 40
  /// bits, monotonically increasing per queue — the packed word compares
  /// (seq, slot) lexicographically, and since seqs are unique the slot
  /// bits never decide an ordering.
  static constexpr unsigned kSlotIndexBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotIndexBits;

 private:
  struct SlotMeta {
    std::uint32_t gen{0};
    std::uint32_t live{0};
  };
  static_assert(sizeof(SlotMeta) == 8, "tombstone sweep walks 8-byte meta records");

  // Actions live in fixed-size chunks that never move once allocated, so
  // executing in place stays valid even when an action schedules enough
  // new events to grow the slot table mid-call.
  static constexpr unsigned kArenaChunkBits = 8;  // 256 actions per chunk
  static constexpr std::size_t kArenaChunkSize = std::size_t{1} << kArenaChunkBits;

  [[nodiscard]] static EventId encode(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(slot) + 1);
  }
  [[nodiscard]] static std::uint64_t pack(std::uint64_t seq, std::uint32_t slot) {
    return (seq << kSlotIndexBits) | slot;
  }
  [[nodiscard]] static std::uint32_t slot_of(std::uint64_t seq_slot) {
    return static_cast<std::uint32_t>(seq_slot & (kMaxSlots - 1));
  }
  [[nodiscard]] static bool rec_less(const HeapRec& a, const HeapRec& b) {
    if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
    return a.seq_slot < b.seq_slot;
  }

  [[nodiscard]] Action& arena_action(std::uint32_t slot) {
    return arena_[slot >> kArenaChunkBits][slot & (kArenaChunkSize - 1)];
  }

  std::uint32_t acquire_slot(Action&& action);
  void release_slot(std::uint32_t slot);  // bumps generation, recycles

  // Appends one arena chunk. Out of line and cold: acquire_slot is on the
  // audited hot path, and this is its only allocation.
  [[gnu::noinline, gnu::cold]] void grow_arena();

  void heap_push(HeapRec rec);
  void heap_pop_top();

  /// Makes heap_[0] the globally earliest live event: sweeps tombstoned
  /// heap tops and drains the wheel whenever a wheel slot could start at or
  /// before the heap top (bounded by `limit_ns` so run_until never opens
  /// slots beyond its deadline). Returns false when nothing live remains
  /// at or before the limit.
  bool prepare_top(std::int64_t limit_ns);

  /// Pops the heap top (prepare_top made it live), advances now() to its
  /// time, executes its action in place, then recycles the slot.
  void execute_top();

  // FlatVec, not std::vector: these five grow on the audited hot path, and
  // FlatVec keeps the reallocation out of line (see sim/flat_vec.h).
  FlatVec<HeapRec> heap_;
  FlatVec<SlotMeta> meta_;  // dense: liveness/generation only
  FlatVec<std::int64_t> sched_ns_;  // per slot: now() when its event was scheduled
  FlatVec<Action*> arena_;  // stable owned chunks of actions (freed in dtor)
  std::size_t slot_count_{0};
  FlatVec<std::uint32_t> free_slots_;
  TimingWheel wheel_;
  std::int64_t wheel_next_due_ns_{kNoWheelEvent};
  TimePoint now_{};
  std::uint64_t next_seq_{0};
  std::size_t live_count_{0};
  std::uint64_t executed_{0};

  static constexpr std::int64_t kNoWheelEvent = std::numeric_limits<std::int64_t>::max();
  std::int64_t dispatch_sched_ns_{kNoWheelEvent};  // see scheduled_at()

#if MPR_AUDIT
  check::TimeMonotonicAudit clock_audit_;
#endif

  static std::atomic<std::uint64_t> total_executed_;
};

// What the sift actually moves: fixed 16-byte records, 4 per cache line —
// a 4-ary node's children span exactly one line. The meta records the
// tombstone sweep walks are 8 bytes. Growing either past this fails the
// build before it quietly doubles sift traffic.
static_assert(sizeof(EventQueue::HeapRec) == 16);
static_assert(std::is_trivially_copyable_v<EventQueue::HeapRec>);

}  // namespace mpr::sim
