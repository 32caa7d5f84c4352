#include "asic/learning_filter.h"

namespace silkroad::asic {

void LearningFilter::learn(const net::FiveTuple& flow, std::uint32_t value) {
  if (pending_.contains(flow)) {
    duplicate_events_.inc();
    return;
  }
  pending_.emplace(flow, LearnEvent{flow, value, sim_.now()});
  order_.push_back(flow);
  if (pending_.size() >= config_.capacity) {
    flush_now();
    return;
  }
  if (pending_.size() == 1) {
    // First event after an empty filter arms the notification timer.
    timeout_event_ = sim_.schedule_after(config_.timeout, [this] { flush_now(); });
  }
}

void LearningFilter::flush_now() {
  timeout_event_.cancel();
  if (pending_.empty()) return;
  std::vector<LearnEvent> batch;
  batch.reserve(order_.size());
  for (const auto& flow : order_) {
    const auto it = pending_.find(flow);
    if (it == pending_.end()) continue;
    if (drop_hook_ && drop_hook_(it->second)) {
      dropped_events_.inc();
      continue;
    }
    batch.push_back(it->second);
  }
  pending_.clear();
  order_.clear();
  flushes_.inc();
  sink_(std::move(batch));
}

void LearningFilter::reset() {
  timeout_event_.cancel();
  pending_.clear();
  order_.clear();
}

}  // namespace silkroad::asic
