// Unified metrics registry — the single source of truth for every counter,
// gauge, and histogram in the repository (DESIGN.md §9).
//
// Hot-path cost is one plain add on a pre-resolved handle; nothing is
// formatted, hashed, or allocated per event. Aggregation happens only at
// snapshot() time, which walks the registry and materializes a Snapshot the
// exporters (exporters.h) render as Prometheus text or JSON.
//
// Naming scheme (Prometheus conventions):
//   silkroad_<subsystem>_<quantity>[_total|_bytes|_ns]   e.g.
//   silkroad_conn_table_hits_total, silkroad_cpu_queue_depth.
// Labels are pre-rendered strings ('stage="2"'); a (name, labels) pair
// identifies a time series. Requesting the same pair twice returns the same
// handle, so independent subsystems can share a series without
// double-counting.
//
// Counters wrap modulo 2^64 (overflow is defined, not checked): at one
// increment per simulated nanosecond that is ~584 years of sim time.
// Handles stay valid for the registry's lifetime (deque storage, no
// reallocation). A registry has one writer thread, the simulation thread,
// which also takes every snapshot (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace silkroad::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind) noexcept;

/// Log-linear (HdrHistogram-style) bucket geometry of Histogram: values
/// below 2^(log2_sub+1) get exact unit buckets; each higher power-of-two
/// range [2^e, 2^(e+1)) is split into 2^log2_sub linear buckets, covering the
/// full 64-bit range.
std::size_t hdr_bucket_count(unsigned log2_subdivisions) noexcept;
/// Bucket holding `value`.
std::size_t hdr_bucket_index(std::uint64_t value,
                             unsigned log2_subdivisions) noexcept;
/// Smallest value mapping to bucket `index` (inclusive); the bucket covers
/// [lower_bound(i), lower_bound(i+1)).
std::uint64_t hdr_bucket_lower_bound(std::size_t index,
                                     unsigned log2_subdivisions) noexcept;

/// Monotone event count; wraps modulo 2^64.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (queue depth, occupancy).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-linear histogram over unsigned 64-bit values (HdrHistogram-style):
/// each power-of-two range is subdivided into 2^log2_subdivisions linear
/// buckets, giving a bounded relative error of 1/subdivisions across the
/// whole 64-bit range with ~256 buckets. record() is branch-light bit
/// arithmetic plus two adds (bucket and sum).
class Histogram {
 public:
  struct Options {
    /// log2 of the linear subdivisions per power-of-two range (2 -> 4
    /// sub-buckets, ~25% worst-case relative bucket width).
    unsigned log2_subdivisions = 2;
  };

  explicit Histogram(const Options& options);

  void record(std::uint64_t value) noexcept {
    ++buckets_[bucket_index(value)];
    sum_ += value;
  }

  /// Bucket holding `value`. Values below the subdivision count get exact
  /// unit buckets; above, the index combines the exponent with the top
  /// `log2_subdivisions` mantissa bits.
  std::size_t bucket_index(std::uint64_t value) const noexcept {
    return hdr_bucket_index(value, log2_sub_);
  }
  /// Smallest value mapping to bucket `index` (inclusive). The bucket covers
  /// [lower_bound(i), lower_bound(i+1)).
  std::uint64_t bucket_lower_bound(std::size_t index) const noexcept {
    return hdr_bucket_lower_bound(index, log2_sub_);
  }
  std::size_t bucket_count() const noexcept { return bucket_count_; }
  std::uint64_t bucket_value(std::size_t index) const noexcept {
    return buckets_[index];
  }

  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept { return sum_; }

 private:
  unsigned log2_sub_;
  std::size_t bucket_count_;
  std::unique_ptr<std::uint64_t[]> buckets_;
  std::uint64_t sum_ = 0;
};

/// One non-empty histogram bucket in a snapshot: cumulative count of values
/// <= `upper_bound` (the bucket's inclusive upper edge).
struct HistogramBucket {
  std::uint64_t upper_bound = 0;
  std::uint64_t cumulative_count = 0;
};

/// One rendered time series. Counter/gauge carry `value`; histograms carry
/// cumulative `buckets` + count + sum.
struct MetricSample {
  std::string name;
  std::string labels;  ///< pre-rendered, e.g. R"(stage="2")"; may be empty
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;
  std::vector<HistogramBucket> buckets;
  std::uint64_t count = 0;
  double sum = 0;
};

/// Quantile `q` (in [0,1]) of a histogram sample: finds the log-linear bucket
/// holding rank max(1, q*count) and interpolates linearly inside it, so the
/// result inherits the histogram's bounded relative error. Values below the
/// subdivision count sit in exact unit buckets and come back exact. Returns
/// NaN when `sample` is not a histogram or is empty; the unbounded top
/// bucket resolves to its lower edge.
double histogram_quantile(const MetricSample& sample, double q);

struct Snapshot {
  std::vector<MetricSample> samples;

  /// First sample matching (name, labels), or nullptr.
  const MetricSample* find(const std::string& name,
                           const std::string& labels = "") const;
  /// Convenience: the counter/gauge value of (name, labels), or `fallback`.
  double value_of(const std::string& name, const std::string& labels = "",
                  double fallback = 0) const;
  /// histogram_quantile() of the (name, labels) series; NaN when the series
  /// is absent, empty, or not a histogram.
  double quantile(const std::string& name, const std::string& labels,
                  double q) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under (name, labels), creating it on
  /// first use. SR_CHECK-fails if the pair is already registered as a
  /// different kind.
  Counter* counter(const std::string& name, const std::string& help = "",
                   const std::string& labels = "");
  Gauge* gauge(const std::string& name, const std::string& help = "",
               const std::string& labels = "");
  Histogram* histogram(const std::string& name, const std::string& help = "",
                       const std::string& labels = "",
                       const Histogram::Options& options = {});

  /// Registers a pull metric: `fn` is evaluated at snapshot() time. Use for
  /// values another structure already maintains (table occupancy, queue
  /// depth) so there is exactly one source of truth and no double counting.
  void register_callback(const std::string& name, MetricKind kind,
                         std::function<double()> fn,
                         const std::string& help = "",
                         const std::string& labels = "");

  /// Materializes every registered series, sorted by (name, labels) so
  /// exporter output is deterministic.
  Snapshot snapshot() const;

  std::size_t series_count() const;

  /// Merges snapshots from several registries (e.g. one per fleet switch):
  /// samples with the same (name, labels, kind) are summed — counters,
  /// gauges, and histograms alike (gauge sums are the fleet-wide level).
  /// Every part must be sorted by (name, labels), as snapshot() leaves it,
  /// and so is the result. A merged sample keeps its first part's help;
  /// samples of one (name, labels) but different kinds stay apart, in the
  /// order their kinds first appear.
  static Snapshot aggregate(const std::vector<Snapshot>& parts);

 private:
  struct Series {
    std::string name;
    std::string labels;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;
  };

  Series* find_or_create(const std::string& name, const std::string& labels,
                         const std::string& help, MetricKind kind);

  std::deque<Series> series_;
};

}  // namespace silkroad::obs
