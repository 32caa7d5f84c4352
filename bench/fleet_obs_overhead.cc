// Fleet convergence-observatory overhead gate (DESIGN.md §17).
//
// The FleetObserver rides every journal append, every in-order delivery,
// and every watermark advance — the update-heavy control-plane path. This
// bench prices it with bench::measure_overhead() over an identical seeded
// update storm through a 3-switch fleet, observer off vs on. Hard <5%
// budget enforced by the exit code. The observer must never change
// sim-visible behavior, its incremental digests must survive a full
// recompute — at the end and in every round-robin self-check of every
// replay — and a fault-free storm must end with zero silent divergences and
// a met convergence SLO.
#include <random>

#include "bench_common.h"
#include "deploy/fleet.h"

using namespace silkroad;

namespace {

// Two replays make an off run about 0.3 s of CPU, at least as long as this
// gate's runs were before the control path got cheaper.
constexpr int kReplays = 2;
constexpr std::size_t kSwitches = 3;
constexpr std::size_t kVips = 2;
constexpr std::size_t kDipsPerVip = 16;
constexpr int kBatches = 300;
constexpr int kUpdatesPerBatch = 50;

struct Outcome {
  /// What the fleet saw: must not depend on the observer.
  struct Behavior {
    std::uint64_t journal_head = 0;
    std::uint64_t retries = 0;
    std::uint64_t sessions = 0;
    bool converged = false;
    bool operator==(const Behavior&) const = default;
  } behavior;
  // Observer-side outcomes (observer-on replays only).
  bool digests_ok = true;
  std::uint64_t divergences = 0;
  std::uint64_t selfchecks = 0;
  std::uint64_t selfcheck_failures = 0;
  bool slo_ok = true;
  bool operator==(const Outcome&) const = default;
};

Outcome replay(bool observe) {
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
  for (std::size_t v = 0; v < kVips; ++v) {
    fleet.add_vip(bench::vip_of(v), bench::dips_of(v, kDipsPerVip));
  }
  sim.run();

  // Seeded storm of paired remove/add updates: heavy append + delivery +
  // watermark traffic, membership bounded, identical across on/off replays.
  std::mt19937_64 rng(0x51172D17ULL);
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int i = 0; i < kUpdatesPerBatch; ++i) {
      const std::size_t v = rng() % kVips;
      workload::DipUpdate update;
      update.vip = bench::vip_of(v);
      update.dip = bench::dips_of(v, kDipsPerVip)[rng() % kDipsPerVip];
      update.action = i % 2 == 0 ? workload::UpdateAction::kRemoveDip
                                 : workload::UpdateAction::kAddDip;
      update.cause = workload::UpdateCause::kServiceUpgrade;
      fleet.request_update(update);
    }
    sim.run();
  }

  Outcome outcome{{fleet.journal_head(), fleet.ctrl_retries(),
                   fleet.delta_sessions() + fleet.full_sessions() +
                       fleet.empty_sessions(),
                   fleet.converged()}};
  if (obs::FleetObserver* observer = fleet.observer(); observer != nullptr) {
    observer->evaluate(sim.now());
    outcome.digests_ok = observer->verify_digests();
    outcome.divergences = observer->divergences();
    outcome.selfchecks = observer->selfchecks();
    outcome.selfcheck_failures = observer->selfcheck_failures();
    outcome.slo_ok = observer->slo_ok();
  }
  return outcome;
}

}  // namespace

int main() {
  bench::print_header(
      "fleet convergence-observatory overhead — digests on the update path",
      "the FleetObserver's incremental digests + lag accounting must cost "
      "<5% of the observer-off update-heavy control path and change nothing");

  // Self-check failures summed over every observer-on replay, warm-up
  // included.
  std::uint64_t selfcheck_failures = 0;
  const auto [pct, off, on, replays_identical] =
      bench::measure_overhead(kReplays, [&selfcheck_failures](bool observe) {
        const Outcome outcome = replay(observe);
        selfcheck_failures += outcome.selfcheck_failures;
        return outcome;
      });

  std::printf("\n%zu switches, %zu vips x %zu dips, %d batches x %d updates\n",
              kSwitches, kVips, kDipsPerVip, kBatches, kUpdatesPerBatch);
  std::printf("%-28s %12s %12s\n", "", "observer off", "on");
  std::printf("%-28s %12llu %12llu\n", "journal head",
              static_cast<unsigned long long>(off.behavior.journal_head),
              static_cast<unsigned long long>(on.behavior.journal_head));
  std::printf("%-28s %12llu %12llu\n", "digest selfchecks", 0ULL,
              static_cast<unsigned long long>(on.selfchecks));
  std::printf("%-28s %12llu %12llu  (all runs)\n",
              "digest selfcheck failures", 0ULL,
              static_cast<unsigned long long>(selfcheck_failures));
  std::printf("%-28s %12.2f%%\n", "fleet_obs_overhead_pct", pct);

  const bool behavior_identical =
      off.behavior == on.behavior && off.behavior.converged;

  // Absolute times are machine-dependent and deliberately NOT headlines; the
  // baseline pins the invariants and the relative overhead.
  bench::headline("fleet_obs_overhead_pct", pct,
                  "observer-on over observer-off CPU, percent (budget: <5)");
  bench::headline("behavior_identical", behavior_identical ? 1.0 : 0.0,
                  "observer changed no sim-visible outcome (must be 1)");
  bench::headline("digests_verified", on.digests_ok ? 1.0 : 0.0,
                  "incremental digests equal full recompute (must be 1)");
  bench::headline("zero_divergences", on.divergences == 0 ? 1.0 : 0.0,
                  "fault-free storm produced no silent divergence (must be 1)");
  bench::headline("slo_ok", on.slo_ok ? 1.0 : 0.0,
                  "convergence SLO met at quiescence (must be 1)");
  bench::emit_headlines("fleet_obs_overhead");

  if (!behavior_identical || !replays_identical || !on.digests_ok ||
      on.divergences != 0 || !on.slo_ok || selfcheck_failures != 0) {
    return 1;
  }
  return pct < 5.0 ? 0 : 1;
}
