// Hot-path observability overhead gate (DESIGN.md §14).
//
// The data-plane telemetry added on top of the base counters (per-DIP
// new-connection counters and active-connection gauges) must cost <5% of
// the telemetry-off packet path, measured by bench::measure_overhead() over
// the packet-level auditor. Telemetry must never change sim-visible
// behavior.
#include <vector>

#include "bench_common.h"
#include "core/silkroad_switch.h"
#include "lb/packet_level.h"
#include "workload/flow_gen.h"
#include "workload/update_gen.h"

using namespace silkroad;

namespace {

// One replay costs about 0.5 s of CPU; a run makes four, as this gate's runs
// did before the shared measurement loop.
constexpr int kReplays = 4;

struct Workload {
  std::vector<workload::Flow> flows;
  std::vector<workload::DipUpdate> updates;
};

Workload make_workload() {
  Workload w;
  sim::Simulator gen_sim;
  workload::FlowGenerator gen(
      gen_sim,
      {{bench::vip_of(0), 1200.0, workload::FlowProfile::hadoop(), false}},
      0x0B5ULL);
  gen.start(sim::kMinute,
            [&w](const workload::Flow& f) { w.flows.push_back(f); },
            [](const workload::Flow&) {});
  gen_sim.run();
  workload::UpdateGenerator ugen({.seed = 0x0B6ULL}, bench::vip_of(0),
                                 bench::dips_of(0, 16));
  w.updates = ugen.generate(20.0, sim::kMinute);
  return w;
}

struct Outcome {
  /// What the packet-level audit saw: must not depend on telemetry.
  struct Behavior {
    std::uint64_t flows = 0;
    std::uint64_t packets = 0;
    std::uint64_t violations = 0;
    std::uint64_t unmapped_flows = 0;
    bool operator==(const Behavior&) const = default;
  } behavior;
  /// silkroad_dip_new_conns_total series registered (0 when telemetry off)
  /// and the connections they counted.
  std::size_t dip_series = 0;
  double dip_new_conns = 0;
  bool operator==(const Outcome&) const = default;
};

/// Replays `w` once through a fresh simulator and switch.
Outcome replay(const Workload& w, bool telemetry) {
  sim::Simulator sim;
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(50'000);
  config.data_plane_telemetry = telemetry;
  core::SilkRoadSwitch sw(sim, config);
  sw.add_vip(bench::vip_of(0), bench::dips_of(0, 16));
  lb::PacketLevelRunner runner(sim, sw,
                               {.packet_interval = 20 * sim::kMillisecond});
  const auto stats = runner.run(w.flows, w.updates);
  Outcome outcome{
      {stats.flows, stats.packets, stats.violations, stats.unmapped_flows}};
  for (const auto& sample : sw.metrics().snapshot().samples) {
    if (sample.name == "silkroad_dip_new_conns_total") {
      ++outcome.dip_series;
      outcome.dip_new_conns += sample.value;
    }
  }
  return outcome;
}

}  // namespace

int main() {
  bench::print_header(
      "hot-path observability overhead — per-DIP connection telemetry",
      "telemetry must be cheap enough to leave on: total packet-path "
      "overhead <5%");

  const Workload w = make_workload();
  const auto [pct, off, on, replays_identical] = bench::measure_overhead(
      kReplays, [&w](bool telemetry) { return replay(w, telemetry); });

  std::printf("\n%-28s %12s %12s\n", "", "telemetry off", "on");
  std::printf("%-28s %12llu %12llu\n", "packets (one replay)",
              static_cast<unsigned long long>(off.behavior.packets),
              static_cast<unsigned long long>(on.behavior.packets));
  std::printf("%-28s %12zu %12zu\n", "dip_new_conns series",
              off.dip_series, on.dip_series);
  std::printf("%-28s %12.0f %12.0f\n", "dip_new_conns sum",
              off.dip_new_conns, on.dip_new_conns);
  std::printf("%-28s %12.2f%%\n", "obs_overhead_pct", pct);

  const bool behavior_identical =
      replays_identical && off.behavior == on.behavior;
  const bool dip_conns_iff_telemetry =
      on.dip_series > 0 && on.dip_new_conns > 0 && off.dip_series == 0;

  // Absolute times are machine-dependent and deliberately NOT headlines; the
  // baseline pins the relative overhead and the behavior checks.
  bench::headline("obs_overhead_pct", pct,
                  "telemetry-on CPU over telemetry-off, percent (budget: <5)");
  bench::headline("behavior_identical", behavior_identical ? 1.0 : 0.0,
                  "telemetry changed no sim-visible outcome (must be 1)");
  bench::headline("dip_conns_iff_telemetry",
                  dip_conns_iff_telemetry ? 1.0 : 0.0,
                  "silkroad_dip_new_conns_total series exist and count "
                  "connections iff telemetry on (must be 1)");
  bench::emit_headlines("obs_overhead");

  if (!behavior_identical || !dip_conns_iff_telemetry) return 1;
  return pct < 5.0 ? 0 : 1;
}
