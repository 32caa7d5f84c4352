#include "sim/event_queue.h"

#include <bit>
#include <utility>

#include "check/sr_check.h"

namespace silkroad::sim {

EventHandle Simulator::push(Time when, std::uint64_t seq, Callback fn) {
  SR_CHECKF(when >= now_, "cannot schedule in the past (when=%llu now=%llu)",
            static_cast<unsigned long long>(when),
            static_cast<unsigned long long>(now_));
  // A canceled event popped last can leave the base ahead of the clock; with
  // nothing queued, the base may move back to it.
  if (size_ == 0 && base_when_ > now_) {
    base_when_ = now_;
    base_seq_ = 0;
  }
  SR_CHECKF(when > base_when_ || (when == base_when_ && seq > base_seq_),
            "event key (%llu, %llu) does not follow the last popped key "
            "(%llu, %llu)",
            static_cast<unsigned long long>(when),
            static_cast<unsigned long long>(seq),
            static_cast<unsigned long long>(base_when_),
            static_cast<unsigned long long>(base_seq_));
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
  slot.when = when;
  slot.seq = seq;
  place(index);
  ++size_;
  return EventHandle{this, index, slot.generation};
}

void Simulator::place(std::uint32_t index) {
  Slot& slot = slots_[index];
  // The highest digit in which the key differs from the base, and the key's
  // value in it, which exceeds the base's.
  unsigned digit;
  std::uint64_t word;
  if (slot.when != base_when_) {
    digit = 16 + (63 - static_cast<unsigned>(
                           std::countl_zero(slot.when ^ base_when_))) / 4;
    word = slot.when;
  } else {
    digit = (63 - static_cast<unsigned>(
                      std::countl_zero(slot.seq ^ base_seq_))) / 4;
    word = slot.seq;
  }
  const unsigned b =
      digit * 16 + static_cast<unsigned>(word >> (4 * (digit % 16)) & 15);
  const std::uint64_t bit = std::uint64_t{1} << (b % 64);
  Min& min = mins_[b];
  if ((occupied_[b / 64] & bit) == 0) {
    occupied_[b / 64] |= bit;
    slot.next = kNoSlot;
    min = Min{slot.when, slot.seq, index};
  } else {
    slot.next = heads_[b];
    if (slot.when < min.when || (slot.when == min.when && slot.seq < min.seq)) {
      min = Min{slot.when, slot.seq, index};
    }
  }
  heads_[b] = index;
}

void Simulator::cancel(std::uint32_t slot, std::uint32_t generation) noexcept {
  if (slots_[slot].generation == generation) slots_[slot].canceled = true;
}

bool Simulator::step_until(Time deadline) {
  while (size_ != 0) {
    unsigned w = 0;
    while (occupied_[w] == 0) ++w;
    const unsigned b =
        64 * w + static_cast<unsigned>(std::countr_zero(occupied_[w]));
    const Min top = mins_[b];
    // Peek only: an event scheduled after the run stops may still fall
    // between the deadline and `top`, so the base must stay below it.
    if (top.when > deadline) return false;
    base_when_ = top.when;
    base_seq_ = top.seq;
    // Every other slot of the bucket shares the new base's digits down to
    // bucket b's, so it lands in a bucket of a lower digit.
    occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    for (std::uint32_t i = heads_[b]; i != kNoSlot;) {
      const std::uint32_t next = slots_[i].next;
      if (i != top.slot) {
        SR_CHECKF(slots_[i].when != top.when || slots_[i].seq != top.seq,
                  "two events share the key (%llu, %llu)",
                  static_cast<unsigned long long>(top.when),
                  static_cast<unsigned long long>(top.seq));
        place(i);
      }
      i = next;
    }
    --size_;
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
