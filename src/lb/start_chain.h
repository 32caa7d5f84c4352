// Lazy replay of a recorded flow list, shared by lb::Scenario and
// lb::PacketLevelRunner.
//
// Queuing every flow's events before the first one runs puts the whole
// replay in the event queue. A StartChain queues only the next flow start,
// in (start, index) order: each start, as it fires, queues the one after it.
// Every flow owns a block of sequence numbers reserved up front, in index
// order, exactly the ones the eager loop would have given its events, so
// same-instant ties break as if everything had been queued at the start
// (DESIGN.md §5). Each event a start queues has a larger key than the start
// itself, so the pop order equals the eager one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"
#include "workload/flow_gen.h"

namespace silkroad::lb {

class StartChain {
 public:
  /// Called at flow `index`'s start with the first sequence number of its
  /// block; the rest of the block is the callee's to schedule under.
  using OnStart = std::function<void(std::size_t index, std::uint64_t seq)>;

  /// Reserves `seqs_per_flow` sequence numbers per flow and queues the
  /// first start. `flows` must outlive the run; a flow that ends before it
  /// starts fails an SR_CHECK naming its index.
  void begin(sim::Simulator& sim, const std::vector<workload::Flow>& flows,
             std::uint64_t seqs_per_flow, OnStart on_start);

 private:
  /// Queues the start at position `pos` of the (start, index) order.
  void schedule(std::size_t pos);
  std::size_t index_at(std::size_t pos) const {
    return order_.empty() ? pos : order_[pos];
  }

  sim::Simulator* sim_ = nullptr;
  const std::vector<workload::Flow>* flows_ = nullptr;
  /// Flow indices in (start, index) order; empty when the flows already are
  /// in that order, as generated ones are.
  std::vector<std::size_t> order_;
  std::uint64_t first_seq_ = 0;
  std::uint64_t seqs_per_flow_ = 0;
  OnStart on_start_;
};

}  // namespace silkroad::lb
