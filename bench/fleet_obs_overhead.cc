// Fleet convergence-observatory overhead gate (DESIGN.md §17).
//
// The FleetObserver rides every journal append, every in-order delivery,
// and every watermark advance — the update-heavy control-plane path. This
// bench pins its cost with interleaved observer-off/on pairs of an
// identical seeded update storm through a 3-switch fleet. Two
// noise-independent estimators are computed — the median per-pair CPU
// ratio, and the ratio of the minimum CPU across all runs of each side
// (best-of-N) — and the gated headline is the smaller: additive machine
// noise inflates one or the other (a burst during a single quiet-minimum
// run skews best-of-N; a noisy phase spanning several pairs skews the
// median), but a real regression raises the entire distribution and
// therefore both. Hard <5% budget enforced by the exit code. The observer
// must never change sim-visible behavior, its incremental digests must
// survive a full recompute — at the end and in every round-robin
// self-check of every run — and a fault-free storm must end with zero
// silent divergences and a met convergence SLO.
#include <algorithm>
#include <ctime>
#include <random>
#include <vector>

#include "bench_common.h"
#include "deploy/fleet.h"

using namespace silkroad;

namespace {

// Each run must be long enough (~100ms) that per-pair CPU ratios are stable
// on a noisy shared machine; the median over the pairs absorbs the rest.
constexpr int kPairs = 9;
constexpr std::size_t kSwitches = 3;
constexpr std::size_t kVips = 2;
constexpr std::size_t kDipsPerVip = 16;
constexpr int kBatches = 300;
constexpr int kUpdatesPerBatch = 50;

net::Endpoint vip_of(std::size_t v) {
  return {net::IpAddress::v4(0x14000001 + static_cast<std::uint32_t>(v)), 80};
}

std::vector<net::Endpoint> dips_of(std::size_t v) {
  std::vector<net::Endpoint> dips;
  for (std::size_t i = 0; i < kDipsPerVip; ++i) {
    dips.push_back({net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(
                                                        v * 256 + i)),
                    20});
  }
  return dips;
}

/// Process CPU time (see span_overhead.cc): immune to scheduler noise on
/// shared CI machines; the fleet run is single-threaded.
double cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

struct RunResult {
  double cpu_ms = 0;
  std::uint64_t journal_head = 0;
  std::uint64_t retries = 0;
  std::uint64_t sessions = 0;
  bool converged = false;
  // Observer-side outcomes (observer-on runs only).
  bool digests_ok = true;
  std::uint64_t divergences = 0;
  std::uint64_t selfchecks = 0;
  std::uint64_t selfcheck_failures = 0;
  bool slo_ok = true;
};

RunResult run_once(bool observe) {
  const double start = cpu_ms();
  sim::Simulator sim;
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(8192);
  fault::ControlChannel::Config channel;
  channel.base_delay = 100 * sim::kMicrosecond;
  channel.jitter = 50 * sim::kMicrosecond;
  channel.seed = 0x0B57ULL;
  deploy::SyncConfig sync;
  sync.observe_convergence = observe;
  deploy::SilkRoadFleet fleet(sim, config, kSwitches, 0xFEE7ULL, channel,
                              sync);
  for (std::size_t v = 0; v < kVips; ++v) fleet.add_vip(vip_of(v), dips_of(v));
  sim.run();

  // Seeded storm of paired remove/add updates: heavy append + delivery +
  // watermark traffic, membership bounded, identical across on/off runs.
  std::mt19937_64 rng(0x51172D17ULL);
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int i = 0; i < kUpdatesPerBatch; ++i) {
      const std::size_t v = rng() % kVips;
      const net::Endpoint dip = dips_of(v)[rng() % kDipsPerVip];
      workload::DipUpdate update;
      update.vip = vip_of(v);
      update.dip = dip;
      update.action = i % 2 == 0 ? workload::UpdateAction::kRemoveDip
                                 : workload::UpdateAction::kAddDip;
      update.cause = workload::UpdateCause::kServiceUpgrade;
      fleet.request_update(update);
    }
    sim.run();
  }

  RunResult result;
  result.cpu_ms = cpu_ms() - start;
  result.journal_head = fleet.journal_head();
  result.retries = fleet.ctrl_retries();
  result.sessions =
      fleet.delta_sessions() + fleet.full_sessions() + fleet.empty_sessions();
  result.converged = fleet.converged();
  if (obs::FleetObserver* observer = fleet.observer(); observer != nullptr) {
    observer->evaluate(sim.now());
    result.digests_ok = observer->verify_digests();
    result.divergences = observer->divergences();
    result.selfchecks = observer->selfchecks();
    result.selfcheck_failures = observer->selfcheck_failures();
    result.slo_ok = observer->slo_ok();
  }
  return result;
}

}  // namespace

int main() {
  bench::print_header(
      "fleet convergence-observatory overhead — digests on the update path",
      "the FleetObserver's incremental digests + lag accounting must cost "
      "<5% of the observer-off update-heavy control path and change nothing");

  (void)run_once(false);  // warm-up pair discarded, except its self-checks
  std::uint64_t selfcheck_failures = run_once(true).selfcheck_failures;
  RunResult off;
  RunResult on;
  std::vector<double> ratios;
  for (int rep = 0; rep < kPairs; ++rep) {
    const RunResult u = run_once(/*observe=*/false);
    const RunResult t = run_once(/*observe=*/true);
    if (rep == 0 || u.cpu_ms < off.cpu_ms) off = u;
    if (rep == 0 || t.cpu_ms < on.cpu_ms) on = t;
    if (u.cpu_ms > 0) ratios.push_back(t.cpu_ms / u.cpu_ms);
    selfcheck_failures += t.selfcheck_failures;
  }
  std::sort(ratios.begin(), ratios.end());
  const double median_pct =
      ratios.empty() ? 0.0 : 100.0 * (ratios[ratios.size() / 2] - 1.0);
  const double best_of_pct =
      off.cpu_ms > 0 ? 100.0 * (on.cpu_ms / off.cpu_ms - 1.0) : 0.0;
  const double overhead_pct = std::min(median_pct, best_of_pct);

  std::printf("\n%zu switches, %zu vips x %zu dips, %d batches x %d updates\n",
              kSwitches, kVips, kDipsPerVip, kBatches, kUpdatesPerBatch);
  std::printf("%-28s %12s %12s\n", "", "observer off", "on");
  std::printf("%-28s %12.1f %12.1f\n", "cpu_ms (min of pairs)", off.cpu_ms,
              on.cpu_ms);
  std::printf("%-28s %12llu %12llu\n", "journal head",
              static_cast<unsigned long long>(off.journal_head),
              static_cast<unsigned long long>(on.journal_head));
  std::printf("%-28s %12llu %12llu\n", "digest selfchecks", 0ULL,
              static_cast<unsigned long long>(on.selfchecks));
  std::printf("%-28s %12llu %12llu  (all runs)\n", "digest selfcheck failures",
              0ULL, static_cast<unsigned long long>(selfcheck_failures));
  std::printf("%-28s %12.2f%%  (median of %zu interleaved pairs)\n",
              "fleet_obs_overhead_median_pct", median_pct, ratios.size());
  std::printf("%-28s %12.2f%%  (ratio of best-of-run CPU minima)\n",
              "fleet_obs_overhead_best_pct", best_of_pct);
  std::printf("%-28s %12.2f%%  (min of the two estimators)\n",
              "fleet_obs_overhead_pct", overhead_pct);

  const bool behavior_identical =
      off.journal_head == on.journal_head && off.retries == on.retries &&
      off.sessions == on.sessions && off.converged && on.converged;

  // Absolute times are machine-dependent and deliberately NOT headlines; the
  // baseline pins the invariants and the relative overhead.
  bench::headline("fleet_obs_overhead_pct", overhead_pct,
                  "observer-on over observer-off CPU, percent; min of the "
                  "median-pair and best-of-run estimators (budget: <5)");
  bench::headline("fleet_obs_overhead_median_pct", median_pct,
                  "median per-pair CPU ratio, percent (diagnostic)");
  bench::headline("fleet_obs_overhead_best_pct", best_of_pct,
                  "ratio of best-of-run CPU minima, percent (diagnostic)");
  bench::headline("behavior_identical", behavior_identical ? 1.0 : 0.0,
                  "observer changed no sim-visible outcome (must be 1)");
  bench::headline("digests_verified", on.digests_ok ? 1.0 : 0.0,
                  "incremental digests equal full recompute (must be 1)");
  bench::headline("zero_divergences", on.divergences == 0 ? 1.0 : 0.0,
                  "fault-free storm produced no silent divergence (must be 1)");
  bench::headline("slo_ok", on.slo_ok ? 1.0 : 0.0,
                  "convergence SLO met at quiescence (must be 1)");
  bench::emit_headlines("fleet_obs_overhead");

  if (!behavior_identical || !on.digests_ok || on.divergences != 0 ||
      !on.slo_ok || selfcheck_failures != 0) {
    return 1;
  }
  return overhead_pct < 5.0 ? 0 : 1;
}
