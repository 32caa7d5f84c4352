// Discrete-event simulation engine.
//
// A binary-heap scheduler over (time, sequence) keys; ties execute in
// scheduling order so runs are fully deterministic. Events are arbitrary
// callables kept in a reusable slot table, so once the table and the heap
// have grown to the run's peak, scheduling an event whose callable fits in
// std::function's inline buffer allocates nothing. A handle allows
// cancellation (e.g., a pending connection-timeout event canceled when the
// connection closes first).
#pragma once

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
  EventHandle schedule_at(Time when, Callback fn);

  /// Schedules `fn` after `delay` from now.
  EventHandle schedule_after(Time delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs every event due at or before `deadline`, then advances time to
  /// `deadline` if the last executed event was earlier.
  void run_until(Time deadline);

  /// Runs to queue exhaustion.
  void run();

  /// Executes at most one event; returns false if the queue is empty.
  bool step();

  /// Scheduled events not yet popped, canceled ones included.
  std::size_t pending_events() const noexcept { return heap_.size(); }
  /// Events that ran; a canceled event never counts.
  std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  friend class EventHandle;

  /// A heap entry. The callback stays in its slot, so the heap moves 24
  /// bytes per swap.
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// Holds one pending event's callback from schedule until its entry is
  /// popped. `generation` counts the slot's reuses, so a handle to an
  /// earlier occupant no longer matches it.
  struct Slot {
    Callback fn;
    std::uint32_t generation = 0;
    bool canceled = false;
  };

  void cancel(std::uint32_t slot, std::uint32_t generation) noexcept;
  /// Pops and runs the first live event due at or before `deadline`,
  /// discarding canceled events on the way; false if there is none.
  bool step_until(Time deadline);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;  // std::push_heap/pop_heap order under Later
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

inline void EventHandle::cancel() const noexcept {
  if (sim_ != nullptr) sim_->cancel(slot_, generation_);
}

}  // namespace silkroad::sim
