// Seeded chaos harness (ISSUE: robustness; DESIGN.md §11).
//
// Every seed builds a 3-switch fleet behind lossy, reordering control
// channels, generates a randomized FaultPlan covering every fault kind
// (CPU stall/slowdown, learning-notification loss, cuckoo-insert failures,
// control-channel loss, DIP flapping, a full switch crash/restore), runs a
// two-VIP workload through the lb::Scenario PCC audit, and asserts:
//   * zero PCC violations — version pinning + TransitTable + resync keep
//     every surviving flow consistent; flows whose server died or whose
//     ECMP route moved across a crash are exempted (their blast radius is
//     printed, quantifying the §7 failover cost);
//   * zero invariant-auditor findings (Scenario self_checks continuously);
//   * every replica converged to the controller's membership at quiesce.
//
// Usage: chaos_test [--seed-range=a:b] [--restore-heavy]
//   (default 0:20, end exclusive)
//
// --restore-heavy stresses the incremental-sync ladder (DESIGN.md §16):
// every injected restore is followed by a re-kill while the resync session's
// chunks are still in flight, then a second restore — the catch-up must
// resume from the last checkpointed chunk watermark, not restart from zero.
// In this mode every seed always dumps its span tree and per-switch capacity
// JSON under SILKROAD_TELEMETRY_DIR (CI bundles them into the forensics
// artifact even when the seed passes).
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "core/health_checker.h"
#include "deploy/fleet.h"
#include "fault/fault_injector.h"
#include "lb/scenario.h"
#include "obs/exporters.h"
#include "obs/forensics.h"

namespace silkroad {
namespace {

constexpr std::size_t kSwitches = 3;
constexpr std::size_t kVips = 2;
constexpr std::size_t kDipsPerVip = 8;
constexpr sim::Time kHorizon = 30 * sim::kSecond;

net::Endpoint vip_of(std::size_t v) {
  return {net::IpAddress::v4(0x14000001 + static_cast<std::uint32_t>(v)), 80};
}

std::vector<net::Endpoint> dips_of(std::size_t v) {
  std::vector<net::Endpoint> dips;
  for (std::size_t i = 0; i < kDipsPerVip; ++i) {
    dips.push_back({net::IpAddress::v4(0x0A000000 +
                                       static_cast<std::uint32_t>(
                                           v * 256 + i)),
                    20});
  }
  return dips;
}

core::SilkRoadSwitch::Config chaos_switch_config() {
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(4096);
  config.use_transit_table = true;
  // Version reuse would recycle version numbers while old pins still hold
  // them; the chaos runs keep the full 6-bit space instead.
  config.enable_version_reuse = false;
  config.max_pending_inserts = 512;
  config.degraded_enter_backlog = 256;
  config.degraded_exit_backlog = 32;
  config.relearn_timeout = 20 * sim::kMillisecond;
  return config;
}

fault::ControlChannel::Config chaos_channel_config(std::uint64_t seed) {
  fault::ControlChannel::Config channel;
  channel.base_delay = 200 * sim::kMicrosecond;
  channel.jitter = 100 * sim::kMicrosecond;
  channel.drop_probability = 0.05;
  channel.reorder_probability = 0.05;
  channel.reorder_extra = 300 * sim::kMicrosecond;
  channel.retry_timeout = 1 * sim::kMillisecond;
  channel.retry_backoff = 2.0;
  channel.resync_after_retries = 5;
  channel.seed = 0xC0117301ULL ^ seed;
  return channel;
}

sim::Simulator* g_sim = nullptr;
deploy::SilkRoadFleet* g_fleet = nullptr;

extern "C" void chaos_alarm(int) {
  if (g_sim != nullptr) {
    std::fprintf(stderr, "WEDGED at t=%.6fs pending=%zu executed=%llu\n",
                 sim::to_seconds(g_sim->now()), g_sim->pending_events(),
                 static_cast<unsigned long long>(g_sim->executed_events()));
    if (g_fleet != nullptr) {
      for (std::size_t i = 0; i < g_fleet->size(); ++i) {
        const auto& sw = g_fleet->switch_at(i);
        std::fprintf(stderr,
                     "  sw%zu pending=%zu degraded=%d in_flight=%d queued=%zu "
                     "software=%zu\n",
                     i, sw.pending_insertions(), sw.in_degraded_mode() ? 1 : 0,
                     sw.update_in_flight() ? 1 : 0, sw.queued_updates(),
                     sw.software_flows());
      }
    }
  }
  _exit(3);
}

bool run_seed(std::uint64_t seed, bool restore_heavy) {
  sim::Simulator sim;
  deploy::SilkRoadFleet fleet(sim, chaos_switch_config(), kSwitches,
                              0xFEE7ULL + seed, chaos_channel_config(seed));

  obs::MetricsRegistry fault_registry;
  fault::FaultPlan plan = fault::FaultPlan::random(
      seed, {.horizon = kHorizon,
             .switches = kSwitches,
             .dips = kVips * kDipsPerVip,
             .include_crash = true});
  fault::FaultInjector injector(sim, plan, seed ^ 0x5EEDULL, &fault_registry);
  for (std::size_t i = 0; i < kSwitches; ++i) {
    fleet.switch_at(i).set_fault_hooks({injector.cpu_delay_hook(i),
                                        injector.learn_drop_hook(i),
                                        injector.insert_fail_hook(i)});
    fleet.set_channel_loss_hook(i, injector.channel_loss_hook(i));
  }

  // Workload: two VIPs of short-lived flows, plus a scheduled maintenance
  // cycle per VIP so planned 3-step updates overlap the injected faults.
  lb::ScenarioConfig scenario_config;
  scenario_config.horizon = kHorizon;
  scenario_config.seed = 0xC4405ULL ^ seed;
  std::unordered_map<net::Endpoint, std::size_t, net::EndpointHash> dip_index;
  for (std::size_t v = 0; v < kVips; ++v) {
    workload::FlowGenerator::VipLoad load;
    load.vip = vip_of(v);
    load.arrivals_per_min = 4800;  // 80 flows/s
    load.profile = {"chaos", 2.0, 10.0, 1e6, 5e6};
    scenario_config.vip_loads.push_back(load);
    scenario_config.dip_pools.push_back(dips_of(v));
    for (std::size_t i = 0; i < kDipsPerVip; ++i) {
      dip_index[dips_of(v)[i]] = v * kDipsPerVip + i;
    }
    const sim::Time base = (3 + 6 * v) * sim::kSecond;
    const auto dip = dips_of(v)[7];
    scenario_config.updates.push_back({base, vip_of(v), dip,
                                       workload::UpdateAction::kRemoveDip,
                                       workload::UpdateCause::kServiceUpgrade});
    scenario_config.updates.push_back({base + 3 * sim::kSecond, vip_of(v), dip,
                                       workload::UpdateAction::kAddDip,
                                       workload::UpdateCause::kServiceUpgrade});
  }
  lb::Scenario scenario(sim, fleet, scenario_config);
  // The first flow the audit charges, for the forensics report on failure.
  struct Charge {
    net::FiveTuple flow;
    sim::Time at = 0;
  };
  std::optional<Charge> first_violation;
  scenario.set_violation_callback(
      [&](const net::FiveTuple& flow, sim::Time at) {
        if (!first_violation) first_violation = Charge{flow, at};
      });

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
  // The checker announces transitions *before* mutating the balancer: mark
  // the server dead (and its flows exempt) while the old mapping still holds.
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
    for (const auto& dip : dips_of(v)) checker.watch(vip_of(v), dip);
  }

  // Crash blast radius: flows routed to the dying switch re-hash onto peers
  // that cannot reproduce software/degraded pins or old-version mappings.
  // They are exempt from the PCC audit and reported as the failover cost.
  std::uint64_t crash_exempted = 0;
  std::uint64_t crash_pinned = 0;
  const auto kill_switch = [&](std::size_t index) {
    crash_pinned += fleet.switch_at(index).failover_blast_radius().size();
    for (const auto& flow : scenario.active_flows()) {
      if (const auto route = fleet.route_of(flow); route && *route == index) {
        scenario.exempt_flow(flow);
        ++crash_exempted;
      }
    }
    fleet.fail_switch(index);
  };
  // Restore-heavy: re-kill shortly after each injected restore — usually
  // while the resync session's chunks are still in the air — then restore
  // again. kill_switch handles both outcomes of the race: a still-restoring
  // switch carries no ECMP flows (nothing to exempt), a just-rejoined one is
  // exempted exactly like a first crash. Bounded so late-horizon restores
  // cannot cascade past quiesce.
  std::uint64_t rekills = 0;
  injector.schedule_crashes(kill_switch, [&](std::size_t index) {
    fleet.restore_switch(index);
    if (!restore_heavy || rekills >= 3) return;
    ++rekills;
    sim.schedule_after(300 * sim::kMicrosecond,
                       [&kill_switch, index] { kill_switch(index); });
    sim.schedule_after(2500 * sim::kMicrosecond,
                       [&fleet, index] { fleet.restore_switch(index); });
  });
  fleet.set_membership_callback([&](std::size_t index, bool alive) {
    if (!alive) return;  // fail-time exemptions happen in the crash hook
    // A restored switch pulls its ECMP share back; those flows' state lives
    // on the survivors, so their next packet is a fresh admission.
    for (const auto& flow : scenario.active_flows()) {
      if (const auto route = fleet.route_of(flow); route && *route == index) {
        scenario.exempt_flow(flow);
        ++crash_exempted;
      }
    }
  });

  // All fault windows close by 85% of the horizon; two extra probe rounds of
  // slack let declared-dead DIPs recover, then the probe loop winds down so
  // the event queue can drain.
  sim.schedule_at(2 * kHorizon, [&] { checker.stop(); });

  if (std::getenv("CHAOS_HEARTBEAT") != nullptr) {
    std::fprintf(stderr, "%s", plan.to_string().c_str());
    auto beat = std::make_shared<std::function<void()>>();
    *beat = [&sim, &scenario, &fleet, beat] {
      std::fprintf(stderr, "  t=%.2fs active=%zu pending=%zu+%zu+%zu\n",
                   sim::to_seconds(sim.now()), scenario.active_flows().size(),
                   fleet.switch_at(0).pending_insertions(),
                   fleet.switch_at(1).pending_insertions(),
                   fleet.switch_at(2).pending_insertions());
      // Stop beating once the run has drained so the heartbeat itself does
      // not keep the event queue alive past quiesce.
      const bool drained = sim.now() >= 2 * kHorizon &&
                           scenario.active_flows().empty() &&
                           fleet.ctrl_outstanding() == 0;
      if (!drained) sim.schedule_after(sim::kSecond / 20, *beat);
    };
    sim.schedule_after(sim::kSecond / 20, *beat);
  }

  g_sim = &sim;
  g_fleet = &fleet;
  if (std::getenv("CHAOS_HEARTBEAT") != nullptr) {
    std::signal(SIGALRM, chaos_alarm);
    alarm(15);
  }
  const lb::ScenarioStats stats = scenario.run();
  alarm(0);
  g_sim = nullptr;
  g_fleet = nullptr;

  const bool converged = fleet.converged();
  const std::size_t outstanding = fleet.ctrl_outstanding();
  // Quiescence evaluation of the convergence observatory (DESIGN.md §17):
  // recompute lags + SLO and run the digest comparison on every switch.
  obs::FleetObserver& observer = *fleet.observer();
  observer.evaluate(sim.now());
  const auto fleet_snap = fleet.metrics_snapshot();
  std::printf(
      "seed %3llu: flows=%llu violations=%llu faults=%llu "
      "(stall=%llu slow=%llu learn=%llu insert=%llu chan=%llu flap=%llu "
      "crash=%llu) ctrl[retries=%llu resyncs=%llu] "
      "sync[delta=%llu full=%llu empty=%llu chunks=%llu bytes=%llu] "
      "degraded_transitions=%.0f "
      "shed=%.0f relearns=%.0f blast[routed=%llu pinned=%llu] "
      "checker[fail=%llu recover=%llu suppressed=%llu] converged=%d "
      "obs[lag_max=%llu slo_ok=%d burn_ms=%.3f diverged=%llu "
      "selfchecks=%llu]\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(stats.flows),
      static_cast<unsigned long long>(stats.violations),
      static_cast<unsigned long long>(injector.injected_total()),
      static_cast<unsigned long long>(
          injector.injected(fault::FaultKind::kCpuStall)),
      static_cast<unsigned long long>(
          injector.injected(fault::FaultKind::kCpuSlowdown)),
      static_cast<unsigned long long>(
          injector.injected(fault::FaultKind::kLearnDrop)),
      static_cast<unsigned long long>(
          injector.injected(fault::FaultKind::kInsertFail)),
      static_cast<unsigned long long>(
          injector.injected(fault::FaultKind::kChannelLoss)),
      static_cast<unsigned long long>(
          injector.injected(fault::FaultKind::kDipFlap)),
      static_cast<unsigned long long>(
          injector.injected(fault::FaultKind::kSwitchCrash)),
      static_cast<unsigned long long>(fleet.ctrl_retries()),
      static_cast<unsigned long long>(fleet.ctrl_resyncs()),
      static_cast<unsigned long long>(fleet.delta_sessions()),
      static_cast<unsigned long long>(fleet.full_sessions()),
      static_cast<unsigned long long>(fleet.empty_sessions()),
      static_cast<unsigned long long>(fleet.ctrl_resync_chunks()),
      static_cast<unsigned long long>(fleet.ctrl_resync_bytes()),
      fleet_snap.value_of("silkroad_degraded_mode_transitions_total"),
      fleet_snap.value_of("silkroad_pending_shed_total"),
      fleet_snap.value_of("silkroad_relearns_total"),
      static_cast<unsigned long long>(crash_exempted),
      static_cast<unsigned long long>(crash_pinned),
      static_cast<unsigned long long>(checker.failures_detected()),
      static_cast<unsigned long long>(checker.recoveries_detected()),
      static_cast<unsigned long long>(checker.recoveries_suppressed()),
      converged ? 1 : 0,
      static_cast<unsigned long long>([&observer] {
        std::uint64_t max_lag = 0;
        for (std::size_t i = 0; i < observer.switches(); ++i) {
          max_lag = std::max(max_lag, observer.lag_positions(i));
        }
        return max_lag;
      }()),
      observer.slo_ok() ? 1 : 0,
      static_cast<double>(observer.slo_burn_ns()) / 1e6,
      static_cast<unsigned long long>(observer.divergences()),
      static_cast<unsigned long long>(observer.selfchecks()));

  bool ok = true;
  if (stats.violations != 0) {
    std::fprintf(stderr, "seed %llu: %llu PCC violations\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(stats.violations));
    ok = false;
  }
  if (!converged) {
    std::fprintf(stderr, "seed %llu: fleet did not converge at quiesce\n",
                 static_cast<unsigned long long>(seed));
    ok = false;
  }
  if (outstanding != 0) {
    std::fprintf(stderr, "seed %llu: %zu control messages still outstanding\n",
                 static_cast<unsigned long long>(seed), outstanding);
    ok = false;
  }
  if (stats.flows == 0) {
    std::fprintf(stderr, "seed %llu: workload generated no flows\n",
                 static_cast<unsigned long long>(seed));
    ok = false;
  }
  // Span-tree completeness: every update intent the controller minted must
  // have run each observed channel/switch leg to a terminal state — finish,
  // skip, abandon, or subsumption by that switch's resync escalation. An
  // orphan step event here means an update_id was lost somewhere in the
  // channel/CPU/protocol machinery.
  const auto span_problems = fleet.spans().audit_complete();
  if (!span_problems.empty()) {
    for (const auto& problem : span_problems) {
      std::fprintf(stderr, "seed %llu: span audit: %s\n",
                   static_cast<unsigned long long>(seed), problem.c_str());
    }
    ok = false;
  }
  if (fleet.spans().total_started() == 0) {
    std::fprintf(stderr, "seed %llu: no update spans were minted\n",
                 static_cast<unsigned long long>(seed));
    ok = false;
  }
  // Convergence observatory (DESIGN.md §17): a quiesced, converged fleet
  // must show zero silent divergences, a met SLO, and incrementally-
  // maintained digests that survive a full recompute.
  if (observer.divergences() != 0) {
    std::fprintf(stderr, "seed %llu: %llu silent divergences detected\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(observer.divergences()));
    ok = false;
  }
  if (!observer.slo_ok()) {
    std::fprintf(stderr, "seed %llu: convergence SLO violated at quiesce\n",
                 static_cast<unsigned long long>(seed));
    ok = false;
  }
  if (!observer.verify_digests()) {
    std::fprintf(stderr, "seed %llu: digest self-check failed\n",
                 static_cast<unsigned long long>(seed));
    ok = false;
  }

  // On failure, leave a durable incident record for the CI artifact upload:
  // the full span set, plus (when a flow actually broke) a forensics report
  // interleaving its journey with the overlapping update spans.
  if (!ok) {
    const std::string dir = obs::telemetry_dir_from_env();
    if (!dir.empty()) {
      char stem[64];
      std::snprintf(stem, sizeof stem, "chaos_seed%llu",
                    static_cast<unsigned long long>(seed));
      obs::write_file(dir + "/" + std::string(stem) + "_spans.json",
                      fleet.spans().to_json());
      obs::write_file(dir + "/" + std::string(stem) + "_fleet.json",
                      observer.to_json());
      // Divergence episodes carry their own ForensicsReports (assembled by
      // the observer's callback with per-VIP attribution attached).
      for (std::size_t i = 0; i < fleet.divergence_reports().size(); ++i) {
        char name[96];
        std::snprintf(name, sizeof name, "%s_divergence%zu", stem, i);
        obs::write_forensics(fleet.divergence_reports()[i], dir, name);
      }
      if (first_violation) {
        const auto route = fleet.route_of(first_violation->flow);
        const auto& sw = fleet.switch_at(route.value_or(0));
        auto report = obs::assemble_forensics(
            sw.trace(), &fleet.spans(), net::flow_id(first_violation->flow),
            "chaos PCC violation", first_violation->at);
        // Capacity section (DESIGN.md §15): was the offending switch's SRAM
        // under pressure or exhausting when the flow broke?
        report.attach_capacity(sw.capacity().to_text(),
                               sw.capacity().to_json());
        obs::write_forensics(report, dir, std::string(stem) + "_forensics");
        obs::write_file(dir + "/" + std::string(stem) + "_capacity.json",
                        sw.capacity().to_json());
      }
      std::fprintf(stderr, "seed %llu: telemetry written under %s\n",
                   static_cast<unsigned long long>(seed), dir.c_str());
    }
  }

  // Restore-heavy runs always leave their evidence behind, pass or fail: the
  // full span tree (session/chunk spans included) and every switch's live
  // capacity ledger, bundled by CI into the forensics artifact.
  if (restore_heavy) {
    const std::string dir = obs::telemetry_dir_from_env();
    if (!dir.empty()) {
      char stem[64];
      std::snprintf(stem, sizeof stem, "restore_heavy_seed%llu",
                    static_cast<unsigned long long>(seed));
      obs::write_file(dir + "/" + std::string(stem) + "_spans.json",
                      fleet.spans().to_json());
      obs::write_file(dir + "/" + std::string(stem) + "_fleet.json",
                      observer.to_json());
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        obs::write_file(dir + "/" + std::string(stem) + "_sw" +
                            std::to_string(i) + "_capacity.json",
                        fleet.switch_at(i).capacity().to_json());
      }
    }
  }

  // Final structural audit of every live switch (aborts on a finding).
  fleet.self_check();
  return ok;
}

}  // namespace
}  // namespace silkroad

int main(int argc, char** argv) {
  unsigned long long begin = 0;
  unsigned long long end = 20;
  bool restore_heavy = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed-range=", 13) == 0) {
      if (std::sscanf(argv[i] + 13, "%llu:%llu", &begin, &end) != 2 ||
          begin >= end) {
        std::fprintf(stderr, "bad --seed-range, expected a:b with a<b\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--restore-heavy") == 0) {
      restore_heavy = true;
    } else {
      std::fprintf(stderr, "usage: %s [--seed-range=a:b] [--restore-heavy]\n",
                   argv[0]);
      return 2;
    }
  }
  int failed = 0;
  for (unsigned long long seed = begin; seed < end; ++seed) {
    if (!silkroad::run_seed(seed, restore_heavy)) ++failed;
  }
  if (failed != 0) {
    std::fprintf(stderr, "%d/%llu chaos seeds FAILED\n", failed, end - begin);
    return 1;
  }
  std::printf("all %llu chaos seeds passed\n", end - begin);
  return 0;
}
