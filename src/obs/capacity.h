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
// about cuckoo tables or blooms: owners register a named table with a set of
// probe callbacks (entries / capacity / bytes / per-stage usage) plus any
// number of named pressure probes (kick chains, failed inserts, filter
// churn). SilkRoadSwitch registers its ConnTable, transit bloom, learning
// filter, and DIP-pool tables in init_metrics(); anything else that owns
// SRAM can do the same.
//
// poll(now) samples every probe: it refreshes the per-table occupancy
// history ring that feeds the exhaustion forecast and runs the alarm state
// machine. Alarms have three raised levels (kWatch/kPressure/kCritical) with
// hysteresis — a level is entered at its enter threshold and left only at
// the lower exit threshold, so an occupancy hovering on a boundary yields
// exactly one transition per true crossing, never a flap (same idiom as the
// switch's degraded-mode gate). Each transition records one
// kCapacityAlarmRaise/kCapacityAlarmClear trace event in the bound ring —
// the same ring the degradation machinery and forensics reports consume.
//
// bind_metrics() publishes everything as pull callbacks on the registry
// (silkroad_capacity_* gauges/counters), so /metrics, TimeSeriesRecorder
// retention, and the JSON exporters see the ledger with no double-counting:
// the ledger never re-registers a series an owner already exports, it only
// adds the capacity view. to_text()/to_json() render the /capacity and
// /capacity.json scrape routes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
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

class ResourceLedger {
 public:
  struct StageUsage {
    unsigned stage = 0;
    std::uint64_t used = 0;
    std::uint64_t capacity = 0;
  };

  /// Probe callbacks for one SRAM-bearing table. `entries`/`bytes` are
  /// required; `capacity_entries` of 0 means the structure is byte-sized
  /// rather than slot-sized (occupancy then comes from `occupancy` if set,
  /// else stays 0). All callbacks run on the caller of poll()/render — they
  /// must be cheap and touch only state safe to read from there.
  struct TableProbe {
    std::function<std::uint64_t()> entries;
    std::function<std::uint64_t()> capacity_entries;
    std::function<std::uint64_t()> bytes;
    std::function<std::uint64_t()> capacity_bytes;      ///< optional budget
    std::function<double()> occupancy;                  ///< optional override
    std::function<std::vector<StageUsage>()> stages;    ///< optional
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

  /// Registers a table under `name` (unique; re-registering replaces the
  /// probes but keeps alarm state and history — a reconfigured owner does
  /// not reset its trend). Returns the table index.
  std::size_t register_table(const std::string& name, TableProbe probe);

  /// Adds a named pressure probe under a registered table: a monotonic
  /// counter the insertion machinery exposes (kick chains, failed inserts,
  /// evictions, filter false-positive churn). Rendered with per-table
  /// context in /capacity; never re-registered on the metrics registry.
  void add_pressure(const std::string& table, const std::string& name,
                    std::function<std::uint64_t()> value);

  /// Registers per-VIP attribution probes (live entries and attributed
  /// bytes). Re-registering a VIP replaces its probes.
  void register_vip(const std::string& vip,
                    std::function<std::uint64_t()> entries,
                    std::function<std::uint64_t()> bytes);

  /// Alarm transitions are recorded here (scope = interned table name).
  void bind_trace(TraceRing* ring);

  /// Publishes the capacity view as pull callbacks: per-table
  /// silkroad_capacity_{occupancy,headroom_entries,used_bytes,
  /// fragmentation,alarm_level,exhaustion_s} gauges,
  /// silkroad_capacity_alarm_transitions_total counters, and per-VIP
  /// silkroad_capacity_vip_{entries,bytes} gauges. Tables/VIPs registered
  /// *after* bind_metrics are picked up on their registration.
  void bind_metrics(MetricsRegistry& registry);

  /// Samples every table: appends to the occupancy history (at most one
  /// sample per distinct `now`) and runs the alarm state machine. Cheap
  /// enough to call from control-plane paths; hot paths should rate-limit
  /// (SilkRoadSwitch polls at most once per 10 ms of sim time).
  void poll(sim::Time now);

  // --- introspection (all reflect the last poll) ---------------------------
  CapacityLevel level(const std::string& table) const;
  std::uint64_t transitions(const std::string& table) const;
  std::uint64_t total_transitions() const noexcept { return transitions_; }
  CapacityForecast forecast(const std::string& table) const;
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
  struct Pressure {
    std::string name;
    std::function<std::uint64_t()> value;
  };

  struct Table {
    std::string name;
    TableProbe probe;
    std::vector<Pressure> pressures;
    CapacityLevel level = CapacityLevel::kOk;
    std::uint64_t transitions = 0;
    std::uint32_t trace_scope = kNoScope;
    std::deque<std::pair<sim::Time, double>> history;
    double last_occupancy = 0;
  };

  struct Vip {
    std::string vip;
    std::function<std::uint64_t()> entries;
    std::function<std::uint64_t()> bytes;
  };

  const Table* find_table(const std::string& name) const;
  Table* find_table(const std::string& name);
  double sample_occupancy(const Table& table) const;
  void run_alarm(Table& table, double occupancy);
  void publish_table_metrics(std::size_t index);
  void publish_vip_metrics(std::size_t index);
  static double fragmentation_of(const std::vector<StageUsage>& stages);

  std::vector<Table> tables_;
  std::vector<Vip> vips_;
  TraceRing* trace_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  std::uint64_t transitions_ = 0;
  bool polled_ = false;
  sim::Time last_poll_ = 0;
};

}  // namespace silkroad::obs
