#include "lb/pcc_tracker.h"

namespace silkroad::lb {

void PccTracker::flow_started(const net::FiveTuple& flow,
                              const net::Endpoint& dip, sim::Time /*now*/) {
  ++flows_seen_;
  active_.try_emplace(flow, FlowState{dip, false, false});
}

void PccTracker::observe(const net::FiveTuple& flow, const net::Endpoint& dip,
                         sim::Time now) {
  FlowState* state = active_.find(flow);
  if (state == nullptr || state->exempt) return;
  if (!state->violated && !(state->dip == dip)) {
    state->violated = true;
    ++violations_;
    violation_times_.push_back(now);
    violation_records_.push_back({flow, now});
  }
}

void PccTracker::observe_unmapped(const net::FiveTuple& flow, sim::Time now) {
  FlowState* state = active_.find(flow);
  if (state == nullptr || state->exempt) return;
  if (!state->violated) {
    state->violated = true;
    ++violations_;
    violation_times_.push_back(now);
    violation_records_.push_back({flow, now});
  }
}

void PccTracker::flow_finished(const net::FiveTuple& flow) {
  active_.erase(flow);
}

void PccTracker::exempt_flow(const net::FiveTuple& flow) {
  if (FlowState* state = active_.find(flow)) state->exempt = true;
}

std::optional<net::Endpoint> PccTracker::assigned_dip(
    const net::FiveTuple& flow) const {
  const FlowState* state = active_.find(flow);
  if (state == nullptr) return std::nullopt;
  return state->dip;
}

}  // namespace silkroad::lb
