// Time-series recorder over the metrics registry (DESIGN.md §10).
//
// A Snapshot is a point in time; SilkRoad's interesting behavior is temporal
// (occupancy ramps while DIP pools churn, insert-latency tails during update
// bursts). TimeSeriesRecorder samples any snapshot source at a fixed sim-time
// interval into bounded ring-buffered series and derives per-interval series
// on the fly:
//
//   <name>            raw counter/gauge value at each sample
//   <name>:rate       counter delta per second over the last interval
//   <name>:p50, :p99  histogram quantiles of values recorded in the interval
//   <name>:mean       mean of values recorded in the interval
//   <name>:count_rate histogram recordings per second over the interval
//
// Derived histogram series are computed from cumulative-bucket deltas between
// consecutive snapshots, so they describe only the traffic of that interval,
// not the since-boot distribution. Intervals in which a histogram saw no
// recordings produce no :pNN/:mean points (gaps, not zeros).
//
// Storage is a bounded deque per series (Options::capacity points); sampling
// is O(series). The recorder belongs to the simulation thread, which samples
// it and renders it (DESIGN.md §13).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace silkroad::obs {

class TimeSeriesRecorder {
 public:
  /// Produces the snapshot to sample; typically MetricsRegistry::snapshot or
  /// a fleet-wide aggregate (deploy::SilkRoadFleet::metrics_snapshot).
  using Source = std::function<Snapshot()>;

  struct Options {
    sim::Time interval = sim::kSecond;  ///< sampling period (sim time)
    std::size_t capacity = 1024;        ///< max points retained per series
  };

  /// Metrics carrying per-DIP series labeled vip="..",dip=".." whose
  /// cross-DIP spread is summarized per VIP at each sample: gauges
  /// contribute their level, counters their per-interval delta. Each
  /// (metric, vip) with a nonzero mean yields two derived series —
  /// `<name>:imbalance_maxmean{vip=...}` (max/mean across DIPs, 1.0 =
  /// perfectly balanced) and `<name>:imbalance_cv{vip=...}` (coefficient
  /// of variation, 0.0 = perfectly balanced) — plus the latest stats in
  /// imbalance_json().
  static constexpr std::array<const char*, 2> kImbalanceMetrics = {
      "silkroad_dip_active_conns", "silkroad_dip_new_conns_total"};

  /// One (time, value) observation. Times are sim-time nanoseconds.
  struct Point {
    sim::Time at = 0;
    double value = 0;
  };

  /// Aggregate over the most recent points of one series.
  struct WindowStats {
    std::size_t count = 0;
    double min = 0;
    double mean = 0;
    double max = 0;
  };

  /// Latest per-(metric, vip) load-imbalance summary across that VIP's DIPs
  /// (kImbalanceMetrics).
  struct ImbalanceStat {
    sim::Time at = 0;
    std::size_t dips = 0;   ///< DIP series contributing to the sample
    double mean = 0;        ///< mean per-DIP value
    double max = 0;         ///< hottest DIP's value
    double max_mean = 0;    ///< max/mean — 1.0 is perfectly balanced
    double cv = 0;          ///< stddev/mean — 0.0 is perfectly balanced
  };

  TimeSeriesRecorder(Source source, const Options& options);
  explicit TimeSeriesRecorder(Source source)
      : TimeSeriesRecorder(std::move(source), Options{}) {}
  /// Convenience: records `registry.snapshot()`. The registry must outlive
  /// the recorder.
  TimeSeriesRecorder(const MetricsRegistry& registry, const Options& options);
  explicit TimeSeriesRecorder(const MetricsRegistry& registry)
      : TimeSeriesRecorder(registry, Options{}) {}
  ~TimeSeriesRecorder() { detach(); }

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  /// Takes one sample at sim-time `at`. Usable directly (tests, custom
  /// drivers) or indirectly via attach().
  void sample(sim::Time at);

  /// Samples immediately at sim.now(), then re-samples every interval until
  /// `until` (inclusive bound on sample times). With the default unbounded
  /// `until` the recorder keeps one event pending forever: drive the sim with
  /// run_until(), not run(), and detach() when done. `sim` must outlive the
  /// recorder, whose destructor detaches.
  void attach(sim::Simulator& sim, sim::Time until = sim::kTimeInfinity);

  /// Cancels the pending self-scheduled sample, if any. Idempotent.
  void detach();

  /// Points of one series, oldest first (a copy; series names include the
  /// derived suffixes, e.g. "silkroad_conn_table_inserts_total:rate").
  std::vector<Point> find(const std::string& name,
                          const std::string& labels = "") const;

  /// Min/mean/max over the last `last_n` points of a series (0 = all
  /// retained points). count == 0 when the series is absent or empty.
  WindowStats window(const std::string& name, const std::string& labels = "",
                     std::size_t last_n = 0) const;

  std::size_t sample_count() const;
  std::size_t series_count() const;

  /// CSV with header "t_seconds,name,labels,value"; one row per point,
  /// series in (name, labels) order, points oldest first.
  std::string to_csv() const;

  /// {"interval_ns":..,"samples":..,"series":[{"name","labels",
  ///  "points":[[t_seconds,value],...]},...]} — served by the ScrapeServer
  /// as /timeseries.json.
  std::string to_json() const;

  /// Latest imbalance stats for (metric, vip), or a zero-count default when
  /// that pair never produced a sample.
  ImbalanceStat imbalance(const std::string& metric,
                          const std::string& vip) const;

  /// Per-metric, per-VIP imbalance report — latest stats plus windowed
  /// max/mean of the :imbalance_maxmean and :imbalance_cv series — served by
  /// the ScrapeServer as /imbalance.json.
  std::string imbalance_json() const;

 private:
  using SeriesKey = std::pair<std::string, std::string>;  // (name, labels)

  void push(const SeriesKey& key, sim::Time at, double value);
  void compute_imbalance(const Snapshot& snap, sim::Time at, bool derive);
  void schedule_next();

  Source source_;
  Options options_;

  std::map<SeriesKey, std::deque<Point>> series_;
  /// Latest imbalance stats keyed by (metric, vip).
  std::map<SeriesKey, ImbalanceStat> imbalance_;
  /// The previous sample's snapshot and time (valid once samples_ > 0).
  Snapshot prev_;
  sim::Time prev_at_ = 0;
  std::size_t samples_ = 0;

  sim::Simulator* sim_ = nullptr;
  sim::Time until_ = sim::kTimeInfinity;
  sim::EventHandle pending_;
};

}  // namespace silkroad::obs
