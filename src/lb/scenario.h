// Scenario driver: wires a workload (flow arrivals + DIP-pool updates) to a
// LoadBalancer implementation and audits PCC and SLB load.
//
// Flow-level fidelity argument (DESIGN.md §6): between the mapping-risk
// events a balancer reports, its mapping function is constant; the driver
// probes every active flow of the affected VIP at each such event, so every
// mapping change any real packet could have observed is detected, under the
// conservative assumption that flows always have packets in flight (the
// regime the paper targets: data-center RTTs of microseconds to 250 µs).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lb/load_balancer.h"
#include "lb/pcc_tracker.h"
#include "lb/start_chain.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "workload/flow_gen.h"
#include "workload/update_gen.h"

namespace silkroad::lb {

struct ScenarioConfig {
  /// Arrival window; flows may outlive it and all are drained to completion.
  sim::Time horizon = 10 * sim::kMinute;
  std::uint64_t seed = 42;
  /// VIP loads (flow arrival processes).
  std::vector<workload::FlowGenerator::VipLoad> vip_loads;
  /// Initial DIP pools, one per VIP (parallel to vip_loads).
  std::vector<std::vector<net::Endpoint>> dip_pools;
  /// Pre-generated update schedule.
  std::vector<workload::DipUpdate> updates;
  /// Trace replay: when non-empty, these flows are scheduled verbatim and
  /// the per-VIP arrival generators are not used (vip_loads then only
  /// declares the VIPs and their pools). See workload/trace.h for the CSV
  /// import path.
  std::vector<workload::Flow> replay_flows;
};

/// Snapshot view assembled from the scenario's metrics registry at the end
/// of run() — the registry is the source of truth (see Scenario::metrics()).
struct ScenarioStats {
  std::uint64_t flows = 0;
  std::uint64_t violations = 0;
  double violation_fraction = 0;
  double slb_bytes = 0;
  double total_bytes = 0;
  double slb_traffic_fraction = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t cpu_redirects = 0;
  std::uint64_t unmapped_starts = 0;
  /// Violations per simulated minute of the arrival window.
  double violations_per_minute = 0;
};

class Scenario {
 public:
  Scenario(sim::Simulator& simulator, LoadBalancer& lb, ScenarioConfig config);

  /// Runs the scenario to completion and returns the statistics.
  ScenarioStats run();

  // --- Chaos-harness support -------------------------------------------------

  /// Currently established flows across all VIPs.
  std::vector<net::FiveTuple> active_flows() const;
  /// Marks a DIP out of service for the audit's server-breakage exemption —
  /// for liveness changes injected outside the scenario's update schedule
  /// (health checkers, fault injectors).
  void note_dip_down(const net::Endpoint& dip) { down_dips_.insert(dip); }
  void note_dip_up(const net::Endpoint& dip) { down_dips_.erase(dip); }
  /// Exempts every active flow currently assigned to `dip` (its server is
  /// gone; the connections are dead regardless of the balancer).
  void exempt_flows_on_dip(const net::Endpoint& dip);
  /// Exempts one flow from the PCC audit (e.g. fleet failover blast radius).
  void exempt_flow(const net::FiveTuple& flow);

  /// Invoked the instant the audit charges a flow with a PCC violation —
  /// the only per-flow violation report, and the harness's chance to
  /// capture forensics (obs::assemble_forensics) while the trace ring still
  /// holds the flow's journey.
  using ViolationCallback =
      std::function<void(const net::FiveTuple& flow, sim::Time at)>;
  void set_violation_callback(ViolationCallback cb) {
    violation_cb_ = std::move(cb);
  }

  /// Driver-side telemetry (silkroad_scenario_*): update/redirect counters
  /// plus pull gauges over the PCC tracker and traffic split. Snapshot it
  /// alongside the balancer's own registry for a complete picture.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

 private:
  void on_flow_start(const workload::Flow& flow);
  void on_flow_end(const workload::Flow& flow);
  void on_mapping_risk(const net::Endpoint& vip);
  /// Integrates traffic volume up to now with the current rate split.
  void settle_volume();

  struct VipRegistry {
    /// The VIP's established flows, each held once with its audit state.
    PccTracker pcc;
    double rate_bps = 0;
    bool at_slb = false;
  };

  /// Audits one packet of `flow` against its entry `state` in `pcc`, first
  /// exempting a flow whose assigned DIP is out of service (server-induced
  /// breakage is not an LB PCC violation).
  void audit(PccTracker& pcc, PccTracker::FlowState& state,
             const net::FiveTuple& flow,
             const std::optional<net::Endpoint>& dip);
  /// Established flows and PCC violations, summed over the VIPs.
  struct PccTotals {
    std::uint64_t flows = 0;
    std::uint64_t violations = 0;
  };
  PccTotals pcc_totals() const;

  sim::Simulator& sim_;
  LoadBalancer& lb_;
  ScenarioConfig config_;
  std::unique_ptr<workload::FlowGenerator> flow_gen_;
  /// Queues replay_flows' starts one at a time.
  StartChain starts_;
  std::unordered_map<net::Endpoint, VipRegistry, net::EndpointHash> registry_;
  /// DIPs currently removed from service (maintained from the update stream).
  std::unordered_set<net::Endpoint, net::EndpointHash> down_dips_;
  double slb_rate_bps_ = 0;
  double total_rate_bps_ = 0;
  double slb_bytes_ = 0;
  double total_bytes_ = 0;
  sim::Time last_settle_ = 0;
  obs::MetricsRegistry metrics_;
  ViolationCallback violation_cb_;
  obs::Counter* updates_applied_ = nullptr;
  obs::Counter* cpu_redirects_ = nullptr;
  obs::Counter* unmapped_starts_ = nullptr;
  obs::Counter* flows_started_ = nullptr;
  obs::Counter* flows_finished_ = nullptr;
};

}  // namespace silkroad::lb
