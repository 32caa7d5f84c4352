// Connection learning filter (paper §4.1, §4.3).
//
// ASICs batch "new flow" events in a hardware learning filter (originally for
// L2 MAC learning), and the switch CPU is notified when the filter fills or a
// timeout expires. The batch+timeout behaviour is what creates *pending
// connections* — flows whose packets are in flight before their ConnTable
// entry exists — and therefore the PCC hazard SilkRoad's TransitTable closes.
// The hardware also suppresses duplicate events from later packets of a
// flow; the switch model never sends one (a pending flow's later packets
// find its record), so this filter keeps no per-flow index.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/five_tuple.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"

namespace silkroad::asic {

/// One learned event: the new connection plus an opaque value the learner
/// chose for it (SilkRoad's switch passes the flow's 8-byte record handle).
struct LearnEvent {
  net::FiveTuple flow;
  std::uint64_t value = 0;
};

class LearningFilter {
 public:
  struct Config {
    /// Capacity in events, one per new flow, before an immediate flush
    /// ("up to thousands of requests").
    std::size_t capacity = 2048;
    /// Notification timeout; the paper expects 500 µs – 5 ms.
    sim::Time timeout = 1 * sim::kMillisecond;
  };

  /// Receives each flushed batch; the vector is reused after the call.
  using FlushSink = std::function<void(const std::vector<LearnEvent>&)>;

  /// Fault-injection hook: returns true to lose this event at flush time.
  /// The filter still clears its own state (the hardware did notify; the
  /// PCI-E message was lost), so only a CPU-side re-learn sweep can recover
  /// the flow — exactly the failure mode a dropped notification creates.
  using DropHook = std::function<bool(const LearnEvent& event)>;

  LearningFilter(sim::Simulator& simulator, const Config& config,
                 FlushSink sink)
      : sim_(simulator), config_(config), sink_(std::move(sink)) {}

  LearningFilter(const LearningFilter&) = delete;
  LearningFilter& operator=(const LearningFilter&) = delete;

  /// Data-plane hook: called once per new flow, on a ConnTable miss by a
  /// flow not yet pending. Flushes synchronously when the filter fills.
  void learn(const net::FiveTuple& flow, std::uint64_t value);

  /// Forces an immediate flush (used at teardown and in tests).
  void flush_now();

  /// Drops all buffered events and cancels the notification timer (switch
  /// crash: the hardware filter loses power with everything else).
  void reset();

  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  std::size_t pending_count() const noexcept { return events_.size(); }
  std::uint64_t flushes() const noexcept { return flushes_.value(); }
  std::uint64_t dropped_events() const noexcept {
    return dropped_events_.value();
  }
  const Config& config() const noexcept { return config_; }

 private:
  sim::Simulator& sim_;
  Config config_;
  FlushSink sink_;
  /// Buffered events in arrival order, the order they flush in.
  std::vector<LearnEvent> events_;
  /// The batch handed to the sink; kept to reuse its capacity.
  std::vector<LearnEvent> batch_;
  sim::EventHandle timeout_event_;
  DropHook drop_hook_;
  obs::Counter flushes_;
  obs::Counter dropped_events_;
};

}  // namespace silkroad::asic
