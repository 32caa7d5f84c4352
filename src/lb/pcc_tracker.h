// Per-connection-consistency auditor (paper §2.1 definition).
//
// PCC holds for connection c iff every packet of c maps to the DIP its first
// packet mapped to. The tracker records the first mapping of each flow and
// flags any later observation that differs. A flow is counted broken at most
// once. Observations are supplied by the scenario driver, which probes every
// active flow of a VIP exactly when the balancer reports a mapping-risk
// event — between such events the mapping function is constant, so this
// audit is exact, not sampled.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/endpoint.h"
#include "net/five_tuple.h"
#include "net/flat_map.h"
#include "net/hash.h"
#include "sim/time.h"

namespace silkroad::lb {

class PccTracker {
 public:
  /// Registers a flow's first mapping.
  void flow_started(const net::FiveTuple& flow, const net::Endpoint& dip,
                    sim::Time now);

  /// Records a later mapping observation; a mismatch marks the flow broken.
  void observe(const net::FiveTuple& flow, const net::Endpoint& dip,
               sim::Time now);

  /// Records that a flow's packet was dropped / unmapped mid-life (counts as
  /// a violation: the connection cannot proceed).
  void observe_unmapped(const net::FiveTuple& flow, sim::Time now);

  /// Removes bookkeeping for an ended flow.
  void flow_finished(const net::FiveTuple& flow);

  /// Stops auditing a flow whose server went away (its DIP was removed from
  /// service): the connection is broken by the server, not by the load
  /// balancer, so later re-mappings must not count as LB-induced PCC
  /// violations — the accounting the paper's evaluation uses.
  void exempt_flow(const net::FiveTuple& flow);

  std::uint64_t flows_seen() const noexcept { return flows_seen_; }
  std::uint64_t violations() const noexcept { return violations_; }
  double violation_fraction() const noexcept {
    return flows_seen_ == 0
               ? 0.0
               : static_cast<double>(violations_) /
                     static_cast<double>(flows_seen_);
  }
  std::size_t active_flows() const noexcept { return active_.size(); }

  /// Violation timestamps (for per-minute series in Figs. 16-18).
  const std::vector<sim::Time>& violation_times() const noexcept {
    return violation_times_;
  }

  /// Which flow broke, and when — the forensics pipeline resolves the flow
  /// to its trace-ring journey and the update spans overlapping it.
  struct ViolationRecord {
    net::FiveTuple flow;
    sim::Time at = 0;
  };
  const std::vector<ViolationRecord>& violation_records() const noexcept {
    return violation_records_;
  }

  /// First-assigned DIP of an active flow, if tracked.
  std::optional<net::Endpoint> assigned_dip(const net::FiveTuple& flow) const;

 private:
  struct FlowState {
    net::Endpoint dip;
    bool violated = false;
    bool exempt = false;
  };

  net::FlatMap<net::FiveTuple, FlowState, net::FiveTupleHash> active_;
  std::uint64_t flows_seen_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<sim::Time> violation_times_;
  std::vector<ViolationRecord> violation_records_;
};

}  // namespace silkroad::lb
