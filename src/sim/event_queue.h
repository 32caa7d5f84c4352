// Discrete-event simulation engine.
//
// Events run in (time, sequence) order: ties execute in scheduling order, so
// runs are fully deterministic. The queue is a radix heap over that 128-bit
// key, read as 32 digits of 4 bits (DESIGN.md §5). Every pending key lies
// above the base, the key of the last popped event, and an event sits in the
// bucket of the highest digit in which its key differs from the base and its
// value there. A pop takes the lowest non-empty bucket, makes its minimum the
// new base and moves the bucket's other events to buckets of lower digits,
// so an event moves at most 32 times, and in practice a few, however many
// events are pending. Keys are unique, so the pop order is exactly
// (time, sequence).
//
// Events are arbitrary callables kept in a reusable slot table, and the
// buckets are lists linked through the slots, so the queue needs no storage
// beyond the run's peak of pending events, and once the table has grown to
// that peak, scheduling an event whose callable fits in std::function's
// inline buffer allocates nothing. A handle allows cancellation (e.g., a
// pending connection-timeout event canceled when the connection closes
// first).
//
// A driver that knows its future events in advance can queue them lazily yet
// break ties as if it had queued them all at once: reserve_seqs() hands it the
// sequence numbers schedule_at() would have taken, and schedule_reserved()
// queues an event under one of them later.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace silkroad::sim {

class Simulator;

/// Cancellation handle for a scheduled event. Copyable; cancel() is
/// idempotent and a no-op once the event has fired, even if its slot now
/// holds a newer event. A handle must not be used after its Simulator is
/// destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from running if it has not run yet.
  void cancel() const noexcept;

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, std::uint32_t slot, std::uint32_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// The event loop. Not thread-safe by design (simulations are
/// single-threaded and deterministic). Neither copyable nor movable: its
/// handles point at it.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotonically non-decreasing across callbacks.
  Time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `when` (must be >= now()). Returns a
  /// handle usable to cancel the event.
  EventHandle schedule_at(Time when, Callback fn) {
    return push(when, next_seq_++, std::move(fn));
  }

  /// Schedules `fn` after `delay` from now.
  EventHandle schedule_after(Time delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Reserves the `n` sequence numbers the next `n` schedule_at() calls
  /// would have taken and returns the first; later calls take the ones after
  /// them.
  std::uint64_t reserve_seqs(std::uint64_t n) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedules `fn` at (`when`, `seq`), where `seq` comes from reserve_seqs()
  /// and is used once. `when` must be >= now(), and the key must follow the
  /// last popped event's (an SR_CHECK): an event scheduled by a running one
  /// must carry a larger sequence number if it is due at the same instant.
  EventHandle schedule_reserved(Time when, std::uint64_t seq, Callback fn) {
    return push(when, seq, std::move(fn));
  }

  /// Runs every event due at or before `deadline`, then advances time to
  /// `deadline` if the last executed event was earlier.
  void run_until(Time deadline);

  /// Runs to queue exhaustion.
  void run();

  /// Executes at most one event; returns false if the queue is empty.
  bool step();

  /// Scheduled events not yet popped, canceled ones included.
  std::size_t pending_events() const noexcept { return size_; }
  /// Events that ran; a canceled event never counts.
  std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  friend class EventHandle;

  /// Holds one pending event from schedule until it is popped: its
  /// callback, its key and the next slot of its bucket, so the buckets take
  /// no storage of their own. `generation` counts the slot's reuses, so a
  /// handle to an earlier occupant no longer matches it.
  struct Slot {
    Callback fn;
    Time when = 0;
    std::uint64_t seq = 0;
    std::uint32_t next = 0;
    std::uint32_t generation = 0;
    bool canceled = false;
  };
  /// A bucket's lowest key and the slot holding it.
  struct Min {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  EventHandle push(Time when, std::uint64_t seq, Callback fn);
  /// Files slot `index`, whose key must lie above the base, in its bucket.
  void place(std::uint32_t index);
  void cancel(std::uint32_t slot, std::uint32_t generation) noexcept;
  /// Pops and runs the first live event due at or before `deadline`,
  /// discarding canceled events on the way; false if there is none.
  bool step_until(Time deadline);

  Time now_ = 0;
  /// Sequence numbers start at 1, so (now, 0) lies below every key that can
  /// still be scheduled.
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  /// The base: the last popped key, or (now, 0) if the queue ran empty on a
  /// canceled event due after now.
  Time base_when_ = 0;
  std::uint64_t base_seq_ = 0;
  /// Bucket 16 * d + v holds the keys whose highest 4-bit digit differing
  /// from the base is digit d, with value v there; digits 0-15 are `seq`'s
  /// and 16-31 `when`'s, lowest first. A bucket is an unordered list of
  /// slots linked through Slot::next, starting at its head; every key in it
  /// lies below every key in a higher bucket.
  std::array<std::uint32_t, 512> heads_{};
  /// The lowest key in each non-empty bucket, kept as slots are filed, so
  /// that neither a pop nor a peek walks its bucket.
  std::array<Min, 512> mins_{};
  /// Bit b % 64 of word b / 64 is set while bucket b is non-empty; a head
  /// and a minimum mean nothing while their bit is clear.
  std::array<std::uint64_t, 8> occupied_{};
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

inline void EventHandle::cancel() const noexcept {
  if (sim_ != nullptr) sim_->cancel(slot_, generation_);
}

}  // namespace silkroad::sim
