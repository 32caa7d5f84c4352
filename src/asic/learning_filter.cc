#include "asic/learning_filter.h"

namespace silkroad::asic {

void LearningFilter::learn(const net::FiveTuple& flow, std::uint64_t value) {
  events_.push_back(LearnEvent{flow, value});
  if (events_.size() >= config_.capacity) {
    flush_now();
    return;
  }
  if (events_.size() == 1) {
    // First event after an empty filter arms the notification timer.
    timeout_event_ = sim_.schedule_after(config_.timeout, [this] { flush_now(); });
  }
}

void LearningFilter::flush_now() {
  timeout_event_.cancel();
  if (events_.empty()) return;
  batch_.clear();
  for (const auto& event : events_) {
    if (drop_hook_ && drop_hook_(event)) {
      dropped_events_.inc();
      continue;
    }
    batch_.push_back(event);
  }
  events_.clear();
  flushes_.inc();
  sink_(batch_);
}

void LearningFilter::reset() {
  timeout_event_.cancel();
  events_.clear();
}

}  // namespace silkroad::asic
