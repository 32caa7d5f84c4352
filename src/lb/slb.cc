#include "lb/slb.h"

#include <algorithm>

namespace silkroad::lb {

void SoftwareLoadBalancer::add_vip(const net::Endpoint& vip,
                                   const std::vector<net::Endpoint>& dips) {
  VipState state;
  state.dips = dips;
  state.maglev = MaglevTable(dips, config_.maglev_table_size);
  vips_.insert_or_assign(vip, std::move(state));
}

void SoftwareLoadBalancer::request_update(const workload::DipUpdate& update) {
  const auto it = vips_.find(update.vip);
  if (it == vips_.end()) return;
  VipState& state = it->second;
  // Atomic update semantics (§2.1): VIPTable is locked and new connections
  // buffered while the Maglev table rebuilds, so existing flows — pinned in
  // ConnTable — are never re-hashed. In simulation the swap is a single
  // synchronous step, faithfully giving zero PCC violations.
  if (update.action == workload::UpdateAction::kAddDip) {
    state.dips.push_back(update.dip);
  } else {
    state.dips.erase(
        std::remove(state.dips.begin(), state.dips.end(), update.dip),
        state.dips.end());
  }
  state.maglev.set_backends(state.dips);
  // Existing connections stay pinned via conn_table_, so no mapping-risk
  // event is raised for them; the callback is still invoked so the auditor
  // can verify that claim rather than trust it. The probe sweep it triggers
  // re-enters process_packet().
  if (risk_cb_) risk_cb_(update.vip);
}

void SoftwareLoadBalancer::bind_metrics(obs::MetricsRegistry& registry) {
  packets_ = registry.counter("silkroad_slb_packets_total",
                              "packets handled in SLB software");
  new_conns_ = registry.counter(
      "silkroad_slb_new_conns_total",
      "connections pinned into the SLB's software ConnTable");
  conn_table_hits_ = registry.counter("silkroad_slb_conn_table_hits_total",
                                      "packets served from an existing pin");
}

PacketResult SoftwareLoadBalancer::process_packet(const net::Packet& packet) {
  const auto vip_it = vips_.find(packet.flow.dst);
  if (vip_it == vips_.end()) return {};
  if (packets_ != nullptr) packets_->inc();
  PacketResult result;
  result.handled_by_slb = true;
  result.added_latency = static_cast<sim::Time>(
      latency_dist_.sample(latency_rng_) * static_cast<double>(sim::kMicrosecond));
  if (const auto pinned = conn_table_.find(packet.flow);
      pinned != conn_table_.end()) {
    if (conn_table_hits_ != nullptr) conn_table_hits_->inc();
    if (packet.fin) {
      result.dip = pinned->second;
      conn_table_.erase(pinned);
      return result;
    }
    result.dip = pinned->second;
    return result;
  }
  const auto dip = vip_it->second.maglev.select(packet.flow);
  if (!dip) return result;
  if (!packet.fin) {
    conn_table_.emplace(packet.flow, *dip);
    if (new_conns_ != nullptr) new_conns_->inc();
  }
  result.dip = dip;
  return result;
}

}  // namespace silkroad::lb
