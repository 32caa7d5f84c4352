// Capacity-ledger overhead gate (DESIGN.md §15): the chaos fleet's dense
// maintenance cycle with Config::capacity_telemetry off vs on, priced by
// bench::measure_overhead(). The ledger's contract is that it is cheap
// enough to leave on everywhere: the per-packet cost is one uint64 compare
// (the poll rate limiter) and one occupancy read per table at most once per
// 10 ms of sim time. The headline capacity_overhead_pct must stay under 5% of the
// untracked run, and the committed baseline pins that. The ledger only
// observes: it must never change behavior.

#include "bench_common.h"

using namespace silkroad;

namespace {

// One replay per run. Ten invocations each at one and two replays showed no
// narrower spread of the gated ratio at two, which doubled this bench's CPU
// (EXPERIMENTS.md).
constexpr int kReplays = 1;

struct Outcome {
  bench::chaos::MaintenanceCycle::Behavior behavior;
  std::size_t ledger_tables = 0;
  std::uint64_t alarm_transitions = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome replay(bool ledger_enabled) {
  core::SilkRoadSwitch::Config config =
      bench::chaos::MaintenanceCycle::switch_config();
  config.capacity_telemetry = ledger_enabled;
  bench::chaos::MaintenanceCycle cycle(config);
  Outcome outcome{cycle.run()};
  for (std::size_t s = 0; s < cycle.fleet.size(); ++s) {
    const auto& ledger = cycle.fleet.switch_at(s).capacity();
    outcome.ledger_tables += ledger.table_count();
    outcome.alarm_transitions += ledger.total_transitions();
  }
  return outcome;
}

}  // namespace

int main() {
  bench::print_header(
      "capacity ledger overhead — chaos-style control plane, ledger on vs off",
      "the SRAM ledger must be cheap enough to leave on: <5% CPU overhead");

  const auto [pct, base, tracked, replays_identical] =
      bench::measure_overhead(kReplays, replay);

  std::printf("\n%-28s %12s %12s\n", "", "ledger off", "ledger on");
  std::printf("%-28s %12llu %12llu\n", "flows",
              static_cast<unsigned long long>(base.behavior.flows),
              static_cast<unsigned long long>(tracked.behavior.flows));
  std::printf("%-28s %12zu %12zu\n", "ledger tables", base.ledger_tables,
              tracked.ledger_tables);
  std::printf("%-28s %12llu %12llu\n", "alarm transitions",
              static_cast<unsigned long long>(base.alarm_transitions),
              static_cast<unsigned long long>(tracked.alarm_transitions));
  std::printf("%-28s %12.2f%%\n", "capacity_overhead_pct", pct);

  const bool behavior_identical = replays_identical &&
                                  base.behavior == tracked.behavior &&
                                  base.behavior.converged;
  // The disabled side registers no tables at all; the enabled side carries
  // the four SRAM-bearing tables on every switch.
  const bool ledger_live =
      base.ledger_tables == 0 &&
      tracked.ledger_tables == 4 * bench::chaos::kSwitches;

  // Absolute CPU ms is machine-dependent and deliberately NOT a headline; the
  // committed baseline pins the relative overhead and the sim-side counts.
  bench::headline("capacity_overhead_pct", pct,
                  "ledger-on CPU time over ledger-off, percent (budget: <5)");
  bench::headline("ledger_tables", static_cast<double>(tracked.ledger_tables),
                  "SRAM tables registered across the fleet (4 per switch)");
  bench::headline("behavior_identical", behavior_identical ? 1.0 : 0.0,
                  "the ledger changed no sim-visible outcome (must be 1)");
  bench::emit_headlines("capacity_overhead");

  if (!behavior_identical || !ledger_live) return 1;
  return pct < 5.0 ? 0 : 1;
}
