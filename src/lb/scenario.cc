#include "lb/scenario.h"

#include <map>
#include <type_traits>

#include "check/sr_check.h"

namespace silkroad::lb {

Scenario::Scenario(sim::Simulator& simulator, LoadBalancer& lb,
                   ScenarioConfig config)
    : sim_(simulator), lb_(lb), config_(std::move(config)) {
  SR_CHECKF(config_.vip_loads.size() == config_.dip_pools.size(),
            "one initial DIP pool per VIP load (%zu loads, %zu pools)",
            config_.vip_loads.size(), config_.dip_pools.size());
  for (std::size_t i = 0; i < config_.vip_loads.size(); ++i) {
    lb_.add_vip(config_.vip_loads[i].vip, config_.dip_pools[i]);
    registry_[config_.vip_loads[i].vip] = VipRegistry{};
  }
  lb_.set_mapping_risk_callback(
      [this](const net::Endpoint& vip) { on_mapping_risk(vip); });
  flow_gen_ = std::make_unique<workload::FlowGenerator>(
      sim_, config_.vip_loads, config_.seed);

  updates_applied_ = metrics_.counter("silkroad_scenario_updates_applied_total",
                                      "DIP-pool updates delivered to the LB");
  cpu_redirects_ =
      metrics_.counter("silkroad_scenario_cpu_redirects_total",
                       "packets the LB reported as CPU-redirected");
  unmapped_starts_ =
      metrics_.counter("silkroad_scenario_unmapped_starts_total",
                       "SYNs that received no DIP (connection never opened)");
  flows_started_ = metrics_.counter("silkroad_scenario_flows_started_total",
                                    "flows that established a mapping");
  flows_finished_ = metrics_.counter("silkroad_scenario_flows_finished_total",
                                     "flows whose FIN was delivered");
  metrics_.register_callback(
      "silkroad_scenario_flows_seen", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(pcc_totals().flows); },
      "flows the PCC tracker has observed");
  metrics_.register_callback(
      "silkroad_scenario_violations_total", obs::MetricKind::kCounter,
      [this] { return static_cast<double>(pcc_totals().violations); },
      "PCC violations detected by the audit");
  metrics_.register_callback(
      "silkroad_scenario_active_flows", obs::MetricKind::kGauge,
      [this] {
        std::size_t total = 0;
        for (const auto& [vip, reg] : registry_) {
          total += reg.pcc.active_flows();
        }
        return static_cast<double>(total);
      },
      "currently established flows across all VIPs");
  metrics_.register_callback(
      "silkroad_scenario_slb_traffic_fraction", obs::MetricKind::kGauge,
      [this] {
        return total_bytes_ <= 0 ? 0.0 : slb_bytes_ / total_bytes_;
      },
      "fraction of bytes carried by software load balancers");
}

ScenarioStats Scenario::run() {
  // Group same-instant updates (rolling-reboot bursts) so the whole batch's
  // server-liveness changes are visible to the PCC audit before any probe
  // fires: a flow whose server leaves in the batch is server-broken, not
  // LB-broken, even if a sibling update also re-mapped it.
  std::map<sim::Time, std::vector<workload::DipUpdate>> by_time;
  for (const auto& update : config_.updates) {
    by_time[update.at].push_back(update);
  }
  for (const auto& [at, batch] : by_time) {
    sim_.schedule_at(at, [this, batch] {
      settle_volume();
      for (const auto& update : batch) {
        if (update.action == workload::UpdateAction::kRemoveDip) {
          down_dips_.insert(update.dip);
        } else {
          down_dips_.erase(update.dip);
        }
      }
      for (const auto& update : batch) {
        lb_.request_update(update);
        updates_applied_->inc();
      }
      // Audit the balancer's structural invariants at t_req of every update
      // batch (the other half of each update window is audited at the
      // mapping-risk callback, i.e. t_exec).
      lb_.self_check();
    });
  }
  if (config_.replay_flows.empty()) {
    flow_gen_->start(
        config_.horizon,
        [this](const workload::Flow& f) { on_flow_start(f); },
        [this](const workload::Flow& f) { on_flow_end(f); });
  } else {
    // Lazy replay: the queue holds the next start and the started flows'
    // ends. Flow i's start and end take sequence numbers 2i and 2i + 1 of the
    // block reserved here, the ones queuing both events of every flow up front
    // would have given them. config_ outlives the run, so the events name the
    // flow by index rather than copy it.
    starts_.begin(sim_, config_.replay_flows, 2,
                  [this](std::size_t i, std::uint64_t seq) {
                    auto end = [this, i] {
                      on_flow_end(config_.replay_flows[i]);
                    };
                    static_assert(sizeof(end) <= 16 &&
                                      std::is_trivially_copyable_v<decltype(end)>,
                                  "replay events must fit std::function's "
                                  "inline buffer");
                    sim_.schedule_reserved(config_.replay_flows[i].end,
                                           seq + 1, end);
                    on_flow_start(config_.replay_flows[i]);
                  });
  }
  sim_.run();
  settle_volume();
  lb_.self_check();  // final audit once every event has drained

  const PccTotals pcc = pcc_totals();
  ScenarioStats stats;
  stats.flows = pcc.flows;
  stats.violations = pcc.violations;
  stats.violation_fraction =
      pcc.flows == 0 ? 0.0
                     : static_cast<double>(pcc.violations) /
                           static_cast<double>(pcc.flows);
  stats.slb_bytes = slb_bytes_;
  stats.total_bytes = total_bytes_;
  stats.slb_traffic_fraction =
      total_bytes_ <= 0 ? 0.0 : slb_bytes_ / total_bytes_;
  stats.updates_applied = updates_applied_->value();
  stats.cpu_redirects = cpu_redirects_->value();
  stats.unmapped_starts = unmapped_starts_->value();
  const double minutes = sim::to_seconds(config_.horizon) / 60.0;
  stats.violations_per_minute =
      minutes <= 0 ? 0.0 : static_cast<double>(stats.violations) / minutes;
  return stats;
}

Scenario::PccTotals Scenario::pcc_totals() const {
  PccTotals totals;
  for (const auto& [vip, reg] : registry_) {
    totals.flows += reg.pcc.flows_seen();
    totals.violations += reg.pcc.violations();
  }
  return totals;
}

std::vector<net::FiveTuple> Scenario::active_flows() const {
  std::vector<net::FiveTuple> out;
  for (const auto& [vip, reg] : registry_) {
    for (const auto& entry : reg.pcc) out.push_back(entry.key);
  }
  return out;
}

void Scenario::exempt_flows_on_dip(const net::Endpoint& dip) {
  for (auto& [vip, reg] : registry_) {
    for (auto& entry : reg.pcc) {
      if (entry.value.dip == dip) entry.value.exempt = true;
    }
  }
}

void Scenario::exempt_flow(const net::FiveTuple& flow) {
  const auto reg_it = registry_.find(flow.dst);
  if (reg_it == registry_.end()) return;
  if (PccTracker::FlowState* state = reg_it->second.pcc.find(flow)) {
    state->exempt = true;
  }
}

void Scenario::on_flow_start(const workload::Flow& flow) {
  settle_volume();
  net::Packet syn;
  syn.flow = flow.tuple;
  syn.syn = true;
  syn.size_bytes = 64;
  const PacketResult result = lb_.process_packet(syn);
  if (result.redirected_to_cpu) cpu_redirects_->inc();
  if (!result.dip) {
    unmapped_starts_->inc();
    return;  // No pool / not a VIP: connection never establishes.
  }
  flows_started_->inc();
  auto& vip_reg = registry_[flow.tuple.dst];
  vip_reg.pcc.flow_started(flow.tuple, *result.dip, sim_.now());
  vip_reg.rate_bps += flow.rate_bps;
  vip_reg.at_slb = lb_.vip_at_slb(flow.tuple.dst);
  total_rate_bps_ += flow.rate_bps;
  if (vip_reg.at_slb) slb_rate_bps_ += flow.rate_bps;
}

void Scenario::on_flow_end(const workload::Flow& flow) {
  const auto reg_it = registry_.find(flow.tuple.dst);
  if (reg_it == registry_.end()) return;  // Was never established.
  VipRegistry& vip_reg = reg_it->second;
  // Take the flow out before delivering the FIN: the FIN may trigger a
  // mapping-risk event inside the balancer (e.g., Duet migrating back when
  // the last blocking flow ends), and the probe sweep must not synthesize a
  // packet for a connection that has already sent its final one.
  std::optional<PccTracker::FlowState> state = vip_reg.pcc.take(flow.tuple);
  if (!state) return;  // Was never established.
  settle_volume();
  vip_reg.rate_bps -= flow.rate_bps;
  total_rate_bps_ -= flow.rate_bps;
  if (vip_reg.at_slb) slb_rate_bps_ -= flow.rate_bps;

  net::Packet fin;
  fin.flow = flow.tuple;
  fin.fin = true;
  fin.size_bytes = 64;
  const PacketResult result = lb_.process_packet(fin);
  // The closing packet is still subject to the PCC audit.
  audit(vip_reg.pcc, *state, flow.tuple, result.dip);
  flows_finished_->inc();
}

void Scenario::audit(PccTracker& pcc, PccTracker::FlowState& state,
                     const net::FiveTuple& flow,
                     const std::optional<net::Endpoint>& dip) {
  if (down_dips_.contains(state.dip)) {
    // The flow's server left service: the connection is dead regardless of
    // what the balancer does with its (now pointless) packets.
    state.exempt = true;
    return;
  }
  if (pcc.judge(state, dip) && violation_cb_) violation_cb_(flow, sim_.now());
}

void Scenario::on_mapping_risk(const net::Endpoint& vip) {
  const auto reg_it = registry_.find(vip);
  if (reg_it == registry_.end()) return;
  VipRegistry& vip_reg = reg_it->second;
  settle_volume();
  // Probe every active flow of this VIP: its next packet's mapping. The
  // sweep walks the VIP's map in hash order, which the model sees (DESIGN.md
  // §5, "Determinism").
  for (auto& entry : vip_reg.pcc) {
    net::Packet probe;
    probe.flow = entry.key;
    probe.size_bytes = 1000;
    const PacketResult result = lb_.process_packet(probe);
    if (result.redirected_to_cpu) cpu_redirects_->inc();
    audit(vip_reg.pcc, entry.value, entry.key, result.dip);
  }
  // The event may mark a mode flip (e.g., Duet migration): re-split rates.
  const bool now_at_slb = lb_.vip_at_slb(vip);
  if (now_at_slb != vip_reg.at_slb) {
    slb_rate_bps_ += now_at_slb ? vip_reg.rate_bps : -vip_reg.rate_bps;
    vip_reg.at_slb = now_at_slb;
  }
  // Mapping-risk events fire exactly when consistency machinery commits
  // (VIPTable flips, migrations): audit the balancer in its new state.
  lb_.self_check();
}

void Scenario::settle_volume() {
  const sim::Time now = sim_.now();
  if (now <= last_settle_) return;
  const double dt = sim::to_seconds(now - last_settle_);
  slb_bytes_ += slb_rate_bps_ / 8.0 * dt;
  total_bytes_ += total_rate_bps_ / 8.0 * dt;
  last_settle_ = now;
}

}  // namespace silkroad::lb
