#include "lb/pcc_tracker.h"

namespace silkroad::lb {

bool PccTracker::flow_started(const net::FiveTuple& flow,
                              const net::Endpoint& dip, sim::Time /*now*/) {
  ++flows_seen_;
  return active_.try_emplace(flow, FlowState{dip, false, false}).second;
}

bool PccTracker::judge(FlowState& state,
                       const std::optional<net::Endpoint>& dip) {
  if (state.exempt || state.violated || (dip && *dip == state.dip)) {
    return false;
  }
  state.violated = true;
  ++violations_;
  return true;
}

}  // namespace silkroad::lb
