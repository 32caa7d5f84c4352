// Live SRAM capacity ledger (DESIGN.md §15).
//
// The static models (asic/sram.h, asic/resources.h, core/memory_model.h)
// answer "does this layout fit?"; the ledger answers the runtime questions
// the paper's whole premise turns on (§4.4, figs. 12/18): how full is each
// SRAM-bearing table *right now*, how hard is the insertion machinery
// working to keep it that way, which VIP owns the bytes, and when — at the
// current fill trend — does the table exhaust.
//
// The ledger lives below asic/core in the link order, so it knows nothing
// about cuckoo tables or blooms: it reads its owner through a read-only
// Source that fills one plain TableUsage row per table and one VipUsage row
// per live VIP. SilkRoadSwitch is that Source for its four tables (ConnTable,
// transit bloom, learning filter, DIP-pool table); the ledger keeps only its
// own state: each table's alarm level, transition count and fill history.
//
// poll(now) reads each table's occupancy and nothing else: it refreshes the
// per-table history that feeds the exhaustion forecast and runs the alarm
// state machine. Alarms have three raised levels (kWatch/kPressure/kCritical)
// with hysteresis — a level is entered at its enter threshold and left only
// at the lower exit threshold, so an occupancy hovering on a boundary yields
// exactly one transition per true crossing, never a flap (same idiom as the
// switch's degraded-mode gate). Each transition records one
// kCapacityAlarmRaise/kCapacityAlarmClear trace event in the owner's ring —
// the same ring the degradation machinery and forensics reports consume.
//
// bind_metrics() publishes the per-table view as pull callbacks on the
// registry (silkroad_capacity_* gauges/counters), so /metrics,
// TimeSeriesRecorder retention, and the JSON exporters see the ledger with no
// double-counting: the ledger never re-registers a series an owner already
// exports, it only adds the capacity view. to_text()/to_json() render the
// /capacity and /capacity.json scrape routes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace silkroad::obs {

/// Alarm severity. Ordering is meaningful: higher = worse.
enum class CapacityLevel : std::uint8_t {
  kOk = 0,
  kWatch = 1,
  kPressure = 2,
  kCritical = 3,
};

const char* to_string(CapacityLevel level) noexcept;

/// Straight-line fill forecast from the occupancy history window.
struct CapacityForecast {
  bool valid = false;           ///< enough history and a meaningful trend
  double occupancy = 0;         ///< latest sampled occupancy (0..1)
  double slope_per_s = 0;       ///< d(occupancy)/dt over the window
  double seconds_to_full = -1;  ///< time until occupancy 1.0; -1 = not filling
};

/// One SRAM-bearing table as its owner reads it.
struct TableUsage {
  struct Stage {
    unsigned stage = 0;
    std::uint64_t used = 0;
    std::uint64_t capacity = 0;
  };

  std::uint64_t entries = 0;
  /// 0 for a byte-sized table (the transit bloom).
  std::uint64_t capacity_entries = 0;
  std::uint64_t bytes = 0;
  double occupancy = 0;  ///< live fill fraction (0..1)
  /// Per-stage usage of a staged table, filled only when asked for.
  std::vector<Stage> stages;
  /// Monotonic counters of the insertion machinery (kick chains, failed
  /// inserts, evictions, filter false-positive churn), in render order.
  std::vector<std::pair<const char*, std::uint64_t>> pressures;

  std::uint64_t headroom_entries() const noexcept {
    return capacity_entries > entries ? capacity_entries - entries : 0;
  }
};

/// One VIP's share of the SRAM: live entries and attributed bytes.
struct VipUsage {
  std::string vip;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
};

class ResourceLedger {
 public:
  /// Read-only view of the tables, implemented by their owner (never
  /// deleted through this base). Reads run on the caller of poll() or of a
  /// renderer.
  class Source {
   public:
    /// Table `table`'s live fill fraction: the only read poll() makes, so it
    /// must not allocate.
    virtual double table_occupancy(std::size_t table) const = 0;
    /// Table `table`'s row; per-stage usage only when `with_stages`.
    virtual TableUsage table_usage(std::size_t table,
                                   bool with_stages) const = 0;
    /// One row per live VIP, sorted by name.
    virtual std::vector<VipUsage> vip_usage() const = 0;
  };

  /// Alarm thresholds, as occupancy fractions: a raised level is entered
  /// at its enter value and left only at or below its lower exit value.
  static constexpr double kWatchEnter = 0.70;
  static constexpr double kWatchExit = 0.65;
  static constexpr double kPressureEnter = 0.85;
  static constexpr double kPressureExit = 0.80;
  static constexpr double kCriticalEnter = 0.95;
  static constexpr double kCriticalExit = 0.90;
  static_assert(kWatchExit < kWatchEnter && kPressureExit < kPressureEnter &&
                    kCriticalExit < kCriticalEnter,
                "every level needs a hysteresis band");
  static_assert(kWatchEnter < kPressureEnter && kPressureEnter < kCriticalEnter,
                "levels are ordered kWatch < kPressure < kCritical");
  /// Occupancy samples retained per table for the forecast window.
  static constexpr std::size_t kHistory = 64;
  /// Minimum samples before a forecast is offered.
  static constexpr std::size_t kForecastMinSamples = 8;
  static_assert(kForecastMinSamples >= 2 && kForecastMinSamples <= kHistory);

  /// Table i of `source` is named `table_names[i]`; each name is interned in
  /// `trace` (may be null), where alarm transitions are recorded under it.
  /// `source` must outlive the ledger.
  ResourceLedger(const std::vector<std::string>& table_names,
                 const Source& source, TraceRing* trace);

  /// Publishes the per-table view as pull callbacks:
  /// silkroad_capacity_{occupancy,used_entries,headroom_entries,used_bytes,
  /// fragmentation,alarm_level,exhaustion_s} gauges and
  /// silkroad_capacity_alarm_transitions_total counters, labelled by table.
  void bind_metrics(MetricsRegistry& registry);

  /// Reads every table's occupancy: appends to its history (at most one
  /// sample per distinct `now`) and runs the alarm state machine. Allocates
  /// nothing; hot paths should still rate-limit (SilkRoadSwitch polls at most
  /// once per 10 ms of sim time).
  void poll(sim::Time now);

  // --- introspection (all reflect the last poll) ---------------------------
  CapacityLevel level(std::size_t table) const;
  std::uint64_t transitions(std::size_t table) const;
  std::uint64_t total_transitions() const noexcept { return transitions_; }
  CapacityForecast forecast(std::size_t table) const;
  std::size_t table_count() const noexcept { return tables_.size(); }
  /// Worst level across all tables.
  CapacityLevel worst_level() const;

  /// Straight-line least-squares fit over (t, occupancy) points; shared by
  /// the ledger and by anything forecasting from TimeSeriesRecorder series.
  static CapacityForecast linear_forecast(
      const std::vector<std::pair<sim::Time, double>>& points,
      std::size_t min_samples);

  /// Human rendering (the /capacity scrape route).
  std::string to_text() const;
  /// Machine rendering (the /capacity.json scrape route + telemetry dump).
  std::string to_json() const;

 private:
  struct Table {
    std::string name;
    CapacityLevel level = CapacityLevel::kOk;
    std::uint64_t transitions = 0;
    std::uint32_t trace_scope = kNoScope;
    /// Oldest first, at most kHistory samples (reserved up front).
    std::vector<std::pair<sim::Time, double>> history;
  };

  const Table& table_at(std::size_t table) const;
  void run_alarm(Table& table, double occupancy);
  static double fragmentation_of(const std::vector<TableUsage::Stage>& stages);

  const Source& source_;
  TraceRing* trace_;
  std::vector<Table> tables_;
  std::uint64_t transitions_ = 0;
};

}  // namespace silkroad::obs
