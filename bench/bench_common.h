// Shared helpers for the per-figure/table bench harnesses.
//
// Every harness prints (a) the series the paper plots, (b) the paper's
// headline numbers for side-by-side comparison, and (c) the scale it ran at.
// Scale: PCC scenario benches replay minutes of scaled-down traffic instead
// of the paper's one-hour 2.77M-conn/min traces; set SILKROAD_BENCH_SCALE
// (default 1.0, e.g. 4.0 for a longer, denser run) to trade time for
// fidelity. Analytic benches (memory/cost models) are exact and unscaled.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <type_traits>
#include <vector>

#include "deploy/fleet.h"
#include "lb/scenario.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "sim/distributions.h"

namespace silkroad::bench {

inline double scale_factor() {
  const char* env = std::getenv("SILKROAD_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline void print_header(const std::string& title, const std::string& paper_note) {
  std::printf("=====================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_note.c_str());
  std::printf("=====================================================================\n");
}

/// Prints a CDF as "value  cumulative%" rows at standard grid points.
inline void print_cdf(const sim::EmpiricalCdf& cdf, const char* value_label,
                      const std::vector<double>& percentiles = {
                          0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0}) {
  std::printf("%-14s %12s\n", "CDF%", value_label);
  for (const double p : percentiles) {
    std::printf("%-14.0f %12.4g\n", 100 * p, cdf.quantile(p));
  }
}

/// Fraction of samples in `cdf` exceeding `threshold`, in percent.
inline double percent_above(const sim::EmpiricalCdf& cdf, double threshold) {
  return 100.0 * (1.0 - cdf.cdf(threshold));
}

// --- Machine-readable headline numbers (DESIGN.md §9) -----------------------
//
// Each harness records the numbers it prints as headline gauges and emits
// them as BENCH_<name>.json (obs JSON exporter format) so CI and plotting
// scripts consume the same values the console shows. Files land in
// SILKROAD_BENCH_JSON_DIR when set, else the working directory.

/// Process-wide registry backing headline().
inline obs::MetricsRegistry& headlines() {
  static obs::MetricsRegistry registry;
  return registry;
}

/// Records one headline number, e.g. headline("pcc_violation_fraction", f).
inline void headline(const std::string& name, double value,
                     const std::string& help = "") {
  headlines().gauge(name, help)->set(value);
}

/// Writes the accumulated headlines as BENCH_<bench>.json and reports the
/// path on stdout. Call once at the end of main().
inline std::string emit_headlines(const std::string& bench) {
  const char* dir = std::getenv("SILKROAD_BENCH_JSON_DIR");
  const std::string path = std::string(dir == nullptr ? "." : dir) +
                           "/BENCH_" + bench + ".json";
  obs::write_file(path, obs::to_json(headlines().snapshot()));
  std::printf("headline JSON: %s\n", path.c_str());
  return path;
}

// --- Overhead gates (DESIGN.md §12, §14, §15, §17) --------------------------
//
// Each telemetry layer is priced by toggling it off and on around one seeded
// workload. measure_overhead() owns the measurement; a bench supplies only
// the workload, its outcome checks and its headlines.

/// Process CPU time: the benches are single-threaded and CPU-bound, so this
/// is the throughput signal — and unlike wall clock it is immune to the
/// scheduler and to noisy neighbors on shared CI machines.
inline double cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

template <typename Outcome>
struct Overhead {
  /// Median per-pair on/off CPU ratio, as a percent over 1.
  double pct = 0;
  /// Each side's outcome in the warm-up pair.
  Outcome off;
  Outcome on;
  /// Every replay of every measured run matched its side's warm-up outcome.
  bool replays_identical = true;
};

/// Measured pairs per gate: enough for a median that one noisy pair cannot
/// move, few enough to keep the bench-gate job in minutes.
inline constexpr int kOverheadPairs = 10;

/// The median of `v`: its middle value, or the mean of its two middle values.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Prices a toggled layer. `replay(on)` runs the workload once through a
/// fresh simulator and balancer and returns its outcome. An untimed warm-up
/// pair (cold caches, page faults) records each side's reference outcome;
/// then kOverheadPairs off/on pairs, alternating which side runs first, each
/// run calling `replay` `replays` times and comparing every outcome with its
/// side's reference (==). Both sides of a pair see the same machine
/// conditions, the median of the per-pair ratios is robust to load drift
/// across the measurement, and half the pairs run each order, so a penalty
/// on whichever run goes first or second cancels in the median. Printed, not
/// gated: each side's median run, the ratio quartiles, and the median ratio
/// of each order.
template <typename Replay>
auto measure_overhead(int replays, const Replay& replay) {
  Overhead<std::invoke_result_t<const Replay&, bool>> result;
  result.off = replay(false);
  result.on = replay(true);
  const auto run = [&](bool on) {
    const double start = cpu_ms();
    for (int i = 0; i < replays; ++i) {
      if (!(replay(on) == (on ? result.on : result.off))) {
        result.replays_identical = false;
      }
    }
    return cpu_ms() - start;
  };

  std::vector<double> off_ms;
  std::vector<double> on_ms;
  std::vector<double> ratios[2];  // by order: [0] off first, [1] on first
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const bool on_first = pair % 2 == 1;
    const double first = run(on_first);
    const double second = run(!on_first);
    const double off = on_first ? second : first;
    const double on = on_first ? first : second;
    off_ms.push_back(off);
    on_ms.push_back(on);
    if (off > 0) ratios[on_first ? 1 : 0].push_back(on / off);
  }
  std::vector<double> all = ratios[0];
  all.insert(all.end(), ratios[1].begin(), ratios[1].end());
  std::sort(all.begin(), all.end());
  // Quartiles as the medians of the lower and upper halves.
  const auto half = static_cast<std::ptrdiff_t>(all.size() / 2);
  const double q1 =
      median(std::vector<double>(all.begin(), all.begin() + half));
  const double q3 = median(std::vector<double>(all.end() - half, all.end()));
  const auto pct = [](double ratio) { return 100.0 * (ratio - 1.0); };
  result.pct = all.empty() ? 0.0 : pct(median(all));
  std::printf("\n%-28s %12.1f %12.1f  (off, on; %d replays per run)\n",
              "cpu_ms (median run)", median(off_ms), median(on_ms), replays);
  std::printf("%-28s %11.2f%% %11.2f%% %11.2f%%  (q1, median, q3 of %zu "
              "alternating pairs)\n",
              "on/off overhead", pct(q1), result.pct, pct(q3), all.size());
  std::printf("%-28s %11.2f%% %11.2f%%  (median of the %zu off-first and "
              "%zu on-first pairs)\n",
              "  by order", pct(median(ratios[0])), pct(median(ratios[1])),
              ratios[0].size(), ratios[1].size());
  std::printf("%-28s %12s  (every measured replay, both sides)\n",
              "replays match warm-up", result.replays_identical ? "yes" : "no");
  return result;
}

/// VIP `v` of a bench fleet: 20.0.0.(v+1):80.
inline net::Endpoint vip_of(std::size_t v) {
  return {net::IpAddress::v4(0x14000001 + static_cast<std::uint32_t>(v)), 80};
}

/// The first `n` DIPs of VIP `v`: 10.0.v.i:20.
inline std::vector<net::Endpoint> dips_of(std::size_t v, std::size_t n) {
  std::vector<net::Endpoint> dips;
  for (std::size_t i = 0; i < n; ++i) {
    dips.push_back(
        {net::IpAddress::v4(0x0A000000 +
                            static_cast<std::uint32_t>(v * 256 + i)),
         20});
  }
  return dips;
}

// --- The chaos fleet (DESIGN.md §11) -----------------------------------------
//
// chaos_pcc, capacity_overhead and span_overhead drive one fleet geometry:
// three switches behind lossy control channels serving 2 VIPs x 8 DIPs for a
// 30 s arrival window.

namespace chaos {

inline constexpr std::size_t kSwitches = 3;
inline constexpr std::size_t kVips = 2;
inline constexpr std::size_t kDipsPerVip = 8;
inline constexpr sim::Time kHorizon = 30 * sim::kSecond;

/// 5% drops and 5% reorders; retransmit after 1 ms with doubling backoff,
/// and resync a session after 5 retries.
inline fault::ControlChannel::Config channel_config(std::uint64_t seed) {
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

/// The capacity- and span-overhead gates' workload: the chaos fleet (seed 0)
/// under a dense maintenance cycle — 9,600 arrivals/min per VIP, and each
/// VIP's last DIP removed or re-added every 400 ms, the VIPs 200 ms apart —
/// so connection learning, DIP-pool version churn, span minting, channel
/// retransmits and the ledger's poll sites all run continuously. Toggle the
/// layer under test through the config or on `fleet`, then run().
struct MaintenanceCycle {
  static core::SilkRoadSwitch::Config switch_config() {
    core::SilkRoadSwitch::Config config;
    config.conn_table = core::SilkRoadSwitch::conn_table_for(4096);
    config.enable_version_reuse = false;
    return config;
  }

  explicit MaintenanceCycle(
      const core::SilkRoadSwitch::Config& config = switch_config())
      : fleet(sim, config, kSwitches, 0xFEE7ULL, channel_config(0)) {}

  /// What the scenario saw: the layer under test must not change it.
  struct Behavior {
    std::uint64_t flows = 0;
    std::uint64_t violations = 0;
    bool converged = false;
    bool operator==(const Behavior&) const = default;
  };

  Behavior run() {
    lb::ScenarioConfig scenario_config;
    scenario_config.horizon = kHorizon;
    scenario_config.seed = 0xC4405ULL;
    for (std::size_t v = 0; v < kVips; ++v) {
      workload::FlowGenerator::VipLoad load;
      load.vip = vip_of(v);
      load.arrivals_per_min = 9600;
      load.profile = {"maintenance", 2.0, 10.0, 1e6, 5e6};
      scenario_config.vip_loads.push_back(load);
      scenario_config.dip_pools.push_back(dips_of(v, kDipsPerVip));
      const auto dip = dips_of(v, kDipsPerVip).back();
      bool remove = true;
      for (sim::Time at = sim::kSecond; at < kHorizon;
           at += 400 * sim::kMillisecond) {
        scenario_config.updates.push_back(
            {at + static_cast<sim::Time>(v) * 200 * sim::kMillisecond,
             vip_of(v), dip,
             remove ? workload::UpdateAction::kRemoveDip
                    : workload::UpdateAction::kAddDip,
             workload::UpdateCause::kServiceUpgrade});
        remove = !remove;
      }
    }
    lb::Scenario scenario(sim, fleet, scenario_config);
    const lb::ScenarioStats stats = scenario.run();
    return {stats.flows, stats.violations, fleet.converged()};
  }

  sim::Simulator sim;
  deploy::SilkRoadFleet fleet;
};

}  // namespace chaos
}  // namespace silkroad::bench
