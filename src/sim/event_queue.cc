#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "check/sr_check.h"

namespace silkroad::sim {

EventHandle Simulator::schedule_at(Time when, Callback fn) {
  SR_CHECKF(when >= now_, "cannot schedule in the past (when=%llu now=%llu)",
            static_cast<unsigned long long>(when),
            static_cast<unsigned long long>(now_));
  std::uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  heap_.push_back(Entry{when, next_seq_++, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle{this, index, slot.generation};
}

void Simulator::cancel(std::uint32_t slot, std::uint32_t generation) noexcept {
  if (slots_[slot].generation == generation) slots_[slot].canceled = true;
}

bool Simulator::step_until(Time deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry top = heap_.back();
    heap_.pop_back();
    // Move the callback out and free the slot before the call: the callback
    // may schedule events, which can reuse the slot or grow the table.
    Slot& slot = slots_[top.slot];
    Callback fn = std::move(slot.fn);
    slot.fn = nullptr;
    const bool canceled = slot.canceled;
    slot.canceled = false;
    ++slot.generation;
    free_slots_.push_back(top.slot);
    if (canceled) continue;
    now_ = top.when;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

bool Simulator::step() { return step_until(kTimeInfinity); }

void Simulator::run_until(Time deadline) {
  while (step_until(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace silkroad::sim
