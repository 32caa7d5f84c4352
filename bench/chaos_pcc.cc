// Chaos regression bench (DESIGN.md §11): one fixed-seed run of the seeded
// fault-injection harness (tests/chaos_test.cc) with its headline numbers
// emitted for the bench-regression gate. The contract the gate enforces:
//   * pcc_violations == 0 and converged == 1, exactly — robustness is a
//     correctness property, not a tolerance band;
//   * fault/retry/resync/blast-radius counts stay inside a drift budget, so
//     a change that silently stops exercising a fault path fails the gate.
#include <unordered_map>

#include "bench_common.h"
#include "core/health_checker.h"
#include "deploy/fleet.h"
#include "fault/fault_injector.h"
#include "lb/scenario.h"

using namespace silkroad;

namespace {

using namespace bench::chaos;
using bench::dips_of;
using bench::vip_of;

constexpr std::uint64_t kSeed = 0;

core::SilkRoadSwitch::Config chaos_switch_config() {
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(4096);
  config.use_transit_table = true;
  config.enable_version_reuse = false;
  config.max_pending_inserts = 512;
  config.degraded_enter_backlog = 256;
  config.degraded_exit_backlog = 32;
  config.relearn_timeout = 20 * sim::kMillisecond;
  return config;
}

}  // namespace

int main() {
  bench::print_header(
      "chaos — PCC under combined fault injection (fixed seed)",
      "§4 PCC holds under control-plane faults; §7 quantifies the blast "
      "radius of a switch loss (flows pinned in switch-local state)");

  sim::Simulator sim;
  deploy::SilkRoadFleet fleet(sim, chaos_switch_config(), kSwitches,
                              0xFEE7ULL + kSeed, channel_config(kSeed));

  obs::MetricsRegistry fault_registry;
  fault::FaultPlan plan = fault::FaultPlan::random(
      kSeed, {.horizon = kHorizon,
              .switches = kSwitches,
              .dips = kVips * kDipsPerVip,
              .include_crash = true});
  fault::FaultInjector injector(sim, plan, kSeed ^ 0x5EEDULL, &fault_registry);
  for (std::size_t i = 0; i < kSwitches; ++i) {
    fleet.switch_at(i).set_fault_hooks({injector.cpu_delay_hook(i),
                                        injector.learn_drop_hook(i),
                                        injector.insert_fail_hook(i)});
    fleet.set_channel_loss_hook(i, injector.channel_loss_hook(i));
  }

  lb::ScenarioConfig scenario_config;
  scenario_config.horizon = kHorizon;
  scenario_config.seed = 0xC4405ULL ^ kSeed;
  std::unordered_map<net::Endpoint, std::size_t, net::EndpointHash> dip_index;
  for (std::size_t v = 0; v < kVips; ++v) {
    workload::FlowGenerator::VipLoad load;
    load.vip = vip_of(v);
    load.arrivals_per_min = 4800;
    load.profile = {"chaos", 2.0, 10.0, 1e6, 5e6};
    scenario_config.vip_loads.push_back(load);
    scenario_config.dip_pools.push_back(dips_of(v, kDipsPerVip));
    for (std::size_t i = 0; i < kDipsPerVip; ++i) {
      dip_index[dips_of(v, kDipsPerVip)[i]] = v * kDipsPerVip + i;
    }
    const sim::Time base = (3 + 6 * v) * sim::kSecond;
    const auto dip = dips_of(v, kDipsPerVip)[7];
    scenario_config.updates.push_back({base, vip_of(v), dip,
                                       workload::UpdateAction::kRemoveDip,
                                       workload::UpdateCause::kServiceUpgrade});
    scenario_config.updates.push_back({base + 3 * sim::kSecond, vip_of(v), dip,
                                       workload::UpdateAction::kAddDip,
                                       workload::UpdateCause::kServiceUpgrade});
  }
  lb::Scenario scenario(sim, fleet, scenario_config);

  core::HealthChecker checker(
      sim, fleet,
      {.probe_interval = 500 * sim::kMillisecond,
       .failure_threshold = 2,
       .resilient_in_place = false,
       .recovery_threshold = 2,
       .flap_penalty = 2.0,
       .flap_suppress_threshold = 4.0,
       .flap_decay = 1.0},
      [&](const net::Endpoint& dip) {
        return injector.dip_alive(dip_index.at(dip), sim.now());
      });
  checker.set_failure_callback(
      [&](const net::Endpoint&, const net::Endpoint& dip) {
        scenario.note_dip_down(dip);
        scenario.exempt_flows_on_dip(dip);
      });
  checker.set_recovery_callback(
      [&](const net::Endpoint&, const net::Endpoint& dip) {
        scenario.note_dip_up(dip);
      });
  for (std::size_t v = 0; v < kVips; ++v) {
    for (const auto& dip : dips_of(v, kDipsPerVip)) {
      checker.watch(vip_of(v), dip);
    }
  }

  std::uint64_t crash_exempted = 0;
  std::uint64_t crash_pinned = 0;
  injector.schedule_crashes(
      [&](std::size_t index) {
        crash_pinned += fleet.switch_at(index).failover_blast_radius().size();
        for (const auto& flow : scenario.active_flows()) {
          if (const auto route = fleet.route_of(flow);
              route && *route == index) {
            scenario.exempt_flow(flow);
            ++crash_exempted;
          }
        }
        fleet.fail_switch(index);
      },
      [&](std::size_t index) { fleet.restore_switch(index); });
  fleet.set_membership_callback([&](std::size_t index, bool alive) {
    if (!alive) return;
    for (const auto& flow : scenario.active_flows()) {
      if (const auto route = fleet.route_of(flow); route && *route == index) {
        scenario.exempt_flow(flow);
        ++crash_exempted;
      }
    }
  });

  sim.schedule_at(2 * kHorizon, [&] { checker.stop(); });

  const lb::ScenarioStats stats = scenario.run();
  fleet.self_check();
  const auto fleet_snap = fleet.metrics_snapshot();

  std::printf("\n%-34s %14s\n", "headline", "value");
  const auto row = [](const char* name, double value) {
    std::printf("%-34s %14.0f\n", name, value);
  };
  row("flows", static_cast<double>(stats.flows));
  row("pcc_violations", static_cast<double>(stats.violations));
  row("faults_injected", static_cast<double>(injector.injected_total()));
  row("ctrl_retries", static_cast<double>(fleet.ctrl_retries()));
  row("ctrl_resyncs", static_cast<double>(fleet.ctrl_resyncs()));
  row("relearns", fleet_snap.value_of("silkroad_relearns_total"));
  row("blast_radius_rerouted", static_cast<double>(crash_exempted));
  row("blast_radius_pinned", static_cast<double>(crash_pinned));
  row("converged", fleet.converged() ? 1 : 0);

  bench::headline("pcc_violations", static_cast<double>(stats.violations),
                  "PCC violations across the whole chaos run (must be 0)");
  bench::headline("converged", fleet.converged() ? 1.0 : 0.0,
                  "every replica matched the controller state at quiesce");
  bench::headline("flows", static_cast<double>(stats.flows),
                  "flows completing during the run");
  bench::headline("faults_injected", static_cast<double>(injector.injected_total()),
                  "fault edges injected across all kinds");
  bench::headline("ctrl_retries", static_cast<double>(fleet.ctrl_retries()),
                  "control-channel retransmissions");
  bench::headline("ctrl_resyncs", static_cast<double>(fleet.ctrl_resyncs()),
                  "full-state resyncs after retry exhaustion or restore");
  bench::headline("relearns", fleet_snap.value_of("silkroad_relearns_total"),
                  "pending inserts recovered after a lost notification");
  bench::headline("blast_radius_rerouted", static_cast<double>(crash_exempted),
                  "flows re-hashed across the crash/restore ECMP changes");
  bench::headline("blast_radius_pinned", static_cast<double>(crash_pinned),
                  "flows pinned in the dead switch's local state (§7 cost)");
  bench::emit_headlines("chaos_pcc");
  return stats.violations == 0 && fleet.converged() ? 0 : 1;
}
