// Per-connection-consistency auditor (paper §2.1 definition).
//
// PCC holds for connection c iff every packet of c maps to the DIP its first
// packet mapped to. The tracker records the first mapping of each flow and
// flags any later observation that differs. A flow is counted broken at most
// once. Observations are supplied by the scenario driver, which probes every
// active flow of a VIP exactly when the balancer reports a mapping-risk
// event — between such events the mapping function is constant, so this
// audit is exact, not sampled. The driver keeps one tracker per VIP, and its
// map is the VIP's only set of established flows: a sweep walks it and
// judges each entry in place.
#pragma once

#include <cstdint>
#include <optional>

#include "net/endpoint.h"
#include "net/five_tuple.h"
#include "net/flat_map.h"
#include "net/hash.h"
#include "sim/time.h"

namespace silkroad::lb {

class PccTracker {
 public:
  /// One established flow's audit state.
  struct FlowState {
    net::Endpoint dip;  ///< where its first packet went
    bool violated = false;
    /// Its server went away (its DIP was removed from service): the
    /// connection is broken by the server, not by the load balancer, so
    /// later re-mappings are not LB-induced PCC violations — the accounting
    /// the paper's evaluation uses.
    bool exempt = false;
  };

  /// Registers a flow's first mapping. Returns false when the flow is
  /// already tracked; it then keeps its own.
  bool flow_started(const net::FiveTuple& flow, const net::Endpoint& dip,
                    sim::Time now);

  /// The tracked flow's state, or nullptr.
  FlowState* find(const net::FiveTuple& flow) { return active_.find(flow); }
  /// Stops tracking a flow and hands back its state.
  std::optional<FlowState> take(const net::FiveTuple& flow) {
    return active_.take(flow);
  }

  /// Judges one packet of the flow `state` belongs to: `dip` is where it
  /// went, nullopt when it was dropped or unmapped (the connection cannot
  /// proceed). Returns true when this packet breaks the flow; a flow breaks
  /// at most once, and an exempt flow never does.
  bool judge(FlowState& state, const std::optional<net::Endpoint>& dip);

  /// Tuple-keyed forms of find + judge and take.
  void observe(const net::FiveTuple& flow, const net::Endpoint& dip,
               sim::Time /*now*/) {
    if (FlowState* state = find(flow)) judge(*state, dip);
  }
  void flow_finished(const net::FiveTuple& flow) { take(flow); }

  std::uint64_t flows_seen() const noexcept { return flows_seen_; }
  std::uint64_t violations() const noexcept { return violations_; }
  std::size_t active_flows() const noexcept { return active_.size(); }

  /// The tracked flows in hash order (entry.key the flow, entry.value its
  /// state): deterministic for a fixed sequence of starts and ends.
  auto begin() { return active_.begin(); }
  auto end() { return active_.end(); }
  auto begin() const { return active_.begin(); }
  auto end() const { return active_.end(); }

 private:
  net::FlatMap<net::FiveTuple, FlowState, net::FiveTupleHash> active_;
  std::uint64_t flows_seen_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace silkroad::lb
