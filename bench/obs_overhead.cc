// Hot-path observability overhead gate (DESIGN.md §14).
//
// The data-plane telemetry added on top of the base counters (per-DIP
// new-connection counters and active-connection gauges) must cost <5% of
// the telemetry-off packet path, measured span_overhead-style as the median
// per-pair CPU ratio over interleaved on/off runs of the packet-level
// auditor. Each run replays the workload kReplays times, so a run lasts long
// enough for host noise to stay small next to it. Telemetry must never
// change sim-visible behavior.
#include <algorithm>
#include <ctime>
#include <vector>

#include "bench_common.h"
#include "core/silkroad_switch.h"
#include "lb/packet_level.h"
#include "workload/flow_gen.h"
#include "workload/update_gen.h"

using namespace silkroad;

namespace {

constexpr int kPairs = 7;
constexpr int kReplays = 4;

net::Endpoint vip_ep() { return {net::IpAddress::v4(0x14000001), 80}; }

std::vector<net::Endpoint> make_dips(int n) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back(
        {net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(i)), 20});
  }
  return dips;
}

struct Workload {
  std::vector<workload::Flow> flows;
  std::vector<workload::DipUpdate> updates;
};

Workload make_workload() {
  Workload w;
  sim::Simulator gen_sim;
  workload::FlowGenerator gen(
      gen_sim,
      {{vip_ep(), 1200.0, workload::FlowProfile::hadoop(), false}},
      0x0B5ULL);
  gen.start(sim::kMinute,
            [&w](const workload::Flow& f) { w.flows.push_back(f); },
            [](const workload::Flow&) {});
  gen_sim.run();
  workload::UpdateGenerator ugen({.seed = 0x0B6ULL}, vip_ep(), make_dips(16));
  w.updates = ugen.generate(20.0, sim::kMinute);
  return w;
}

/// Process CPU time (see span_overhead.cc): immune to scheduler noise on
/// shared CI machines; the packet-level run is single-threaded.
double cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

struct RunResult {
  double cpu_ms = 0;
  lb::PacketLevelRunner::Stats stats;  // of the first replay
  /// Every replay of the run produced `stats`.
  bool replays_identical = true;
  /// silkroad_dip_new_conns_total series registered (0 when telemetry off)
  /// and the connections they counted, in the first replay.
  std::size_t dip_series = 0;
  double dip_new_conns = 0;
};

bool same_stats(const lb::PacketLevelRunner::Stats& a,
                const lb::PacketLevelRunner::Stats& b) {
  return a.flows == b.flows && a.packets == b.packets &&
         a.violations == b.violations && a.unmapped_flows == b.unmapped_flows;
}

/// Replays `w` kReplays times, each through a fresh simulator and switch.
RunResult run_once(const Workload& w, bool telemetry) {
  const double start = cpu_ms();
  RunResult result;
  for (int replay = 0; replay < kReplays; ++replay) {
    sim::Simulator sim;
    core::SilkRoadSwitch::Config config;
    config.conn_table = core::SilkRoadSwitch::conn_table_for(50'000);
    config.data_plane_telemetry = telemetry;
    core::SilkRoadSwitch sw(sim, config);
    sw.add_vip(vip_ep(), make_dips(16));
    lb::PacketLevelRunner runner(sim, sw,
                                 {.packet_interval = 20 * sim::kMillisecond});
    const auto stats = runner.run(w.flows, w.updates);
    if (replay > 0) {
      result.replays_identical =
          result.replays_identical && same_stats(stats, result.stats);
      continue;
    }
    result.stats = stats;
    for (const auto& sample : sw.metrics().snapshot().samples) {
      if (sample.name == "silkroad_dip_new_conns_total") {
        ++result.dip_series;
        result.dip_new_conns += sample.value;
      }
    }
  }
  result.cpu_ms = cpu_ms() - start;
  return result;
}

}  // namespace

int main() {
  bench::print_header(
      "hot-path observability overhead — per-DIP connection telemetry",
      "telemetry must be cheap enough to leave on: total packet-path "
      "overhead <5%");

  // Interleaved telemetry-off/on pairs of the packet-level audit over a
  // SilkRoadSwitch; warm-up pair untimed; median per-pair CPU ratio.
  const Workload w = make_workload();
  const RunResult warm_up = run_once(w, false);
  (void)run_once(w, true);
  RunResult off;
  RunResult on;
  std::vector<double> ratios;
  // Every replay of every measured run must match the warm-up's.
  bool behavior_identical = warm_up.replays_identical;
  for (int rep = 0; rep < kPairs; ++rep) {
    const RunResult u = run_once(w, /*telemetry=*/false);
    const RunResult t = run_once(w, /*telemetry=*/true);
    if (rep == 0 || u.cpu_ms < off.cpu_ms) off = u;
    if (rep == 0 || t.cpu_ms < on.cpu_ms) on = t;
    if (u.cpu_ms > 0) ratios.push_back(t.cpu_ms / u.cpu_ms);
    for (const RunResult* r : {&u, &t}) {
      behavior_identical = behavior_identical && r->replays_identical &&
                           same_stats(r->stats, warm_up.stats);
    }
  }
  std::sort(ratios.begin(), ratios.end());
  const double overhead_pct =
      ratios.empty() ? 0.0 : 100.0 * (ratios[ratios.size() / 2] - 1.0);

  std::printf("\n%-28s %12s %12s\n", "", "telemetry off", "on");
  std::printf("%-28s %12.1f %12.1f\n", "cpu_ms (min of pairs)", off.cpu_ms,
              on.cpu_ms);
  std::printf("%-28s %12llu %12llu\n", "packets (one replay)",
              static_cast<unsigned long long>(off.stats.packets),
              static_cast<unsigned long long>(on.stats.packets));
  std::printf("%-28s %12zu %12zu\n", "dip_new_conns series",
              off.dip_series, on.dip_series);
  std::printf("%-28s %12.0f %12.0f\n", "dip_new_conns sum",
              off.dip_new_conns, on.dip_new_conns);
  std::printf("%-28s %12.2f%%  (median of %zu interleaved pairs)\n",
              "obs_overhead_pct", overhead_pct, ratios.size());

  const bool dip_conns_iff_telemetry =
      on.dip_series > 0 && on.dip_new_conns > 0 && off.dip_series == 0;

  // Absolute times are machine-dependent and deliberately NOT headlines; the
  // baseline pins the relative overhead and the behavior checks.
  bench::headline("obs_overhead_pct", overhead_pct,
                  "telemetry-on CPU over telemetry-off, percent (budget: <5)");
  bench::headline("behavior_identical", behavior_identical ? 1.0 : 0.0,
                  "telemetry changed no sim-visible outcome (must be 1)");
  bench::headline("dip_conns_iff_telemetry",
                  dip_conns_iff_telemetry ? 1.0 : 0.0,
                  "silkroad_dip_new_conns_total series exist and count "
                  "connections iff telemetry on (must be 1)");
  bench::emit_headlines("obs_overhead");

  if (!behavior_identical || !dip_conns_iff_telemetry) return 1;
  return overhead_pct < 5.0 ? 0 : 1;
}
