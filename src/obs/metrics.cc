#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "check/sr_check.h"

namespace silkroad::obs {

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    default: return "histogram";
  }
}

// ---------------------------------------------------------------------------
// HDR bucket geometry
// ---------------------------------------------------------------------------

std::size_t hdr_bucket_count(unsigned log2_sub) noexcept {
  // Values < 2^(log2_sub+1) get exact/linear buckets; each higher power-of-two
  // range [2^e, 2^(e+1)) contributes 2^log2_sub buckets, up to e = 63.
  const std::size_t sub = std::size_t{1} << log2_sub;
  return 2 * sub + (63 - (log2_sub + 1) + 1) * sub;
}

std::size_t hdr_bucket_index(std::uint64_t value, unsigned log2_sub) noexcept {
  const std::uint64_t sub = std::uint64_t{1} << log2_sub;
  if (value < 2 * sub) return static_cast<std::size_t>(value);
  const unsigned exponent = std::bit_width(value) - 1;  // >= log2_sub + 1
  const unsigned shift = exponent - log2_sub;
  const std::uint64_t mantissa = (value >> shift) & (sub - 1);
  return static_cast<std::size_t>((exponent - log2_sub + 1) * sub + mantissa);
}

std::uint64_t hdr_bucket_lower_bound(std::size_t index,
                                     unsigned log2_sub) noexcept {
  const std::uint64_t sub = std::uint64_t{1} << log2_sub;
  if (index < 2 * sub) return index;
  const std::uint64_t exponent = index / sub + log2_sub - 1;
  const std::uint64_t mantissa = index % sub;
  return (std::uint64_t{1} << exponent) +
         (mantissa << (exponent - log2_sub));
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(const Options& options)
    : log2_sub_(std::min(options.log2_subdivisions, 6u)),
      bucket_count_(hdr_bucket_count(log2_sub_)),
      buckets_(std::make_unique<std::uint64_t[]>(bucket_count_)) {}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < bucket_count_; ++i) total += bucket_value(i);
  return total;
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

double histogram_quantile(const MetricSample& sample, double q) {
  if (sample.kind != MetricKind::kHistogram || sample.count == 0 ||
      sample.buckets.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank =
      std::max(1.0, q * static_cast<double>(sample.count));
  std::uint64_t prev_cumulative = 0;
  std::uint64_t lower = 0;  // upper edge of the previous non-empty bucket
  for (const auto& bucket : sample.buckets) {
    if (static_cast<double>(bucket.cumulative_count) >= rank) {
      if (bucket.upper_bound == ~std::uint64_t{0}) {
        // Unbounded top bucket: no upper edge to interpolate toward.
        return static_cast<double>(lower);
      }
      const std::uint64_t in_bucket =
          bucket.cumulative_count - prev_cumulative;
      if (in_bucket == 0) return static_cast<double>(bucket.upper_bound);
      const double pos = (rank - static_cast<double>(prev_cumulative)) /
                         static_cast<double>(in_bucket);
      return static_cast<double>(lower) +
             (static_cast<double>(bucket.upper_bound) -
              static_cast<double>(lower)) *
                 pos;
    }
    prev_cumulative = bucket.cumulative_count;
    lower = bucket.upper_bound;
  }
  return static_cast<double>(lower);
}

const MetricSample* Snapshot::find(const std::string& name,
                                   const std::string& labels) const {
  for (const auto& sample : samples) {
    if (sample.name == name && sample.labels == labels) return &sample;
  }
  return nullptr;
}

double Snapshot::value_of(const std::string& name, const std::string& labels,
                          double fallback) const {
  const MetricSample* sample = find(name, labels);
  return sample == nullptr ? fallback : sample->value;
}

double Snapshot::quantile(const std::string& name, const std::string& labels,
                          double q) const {
  const MetricSample* sample = find(name, labels);
  if (sample == nullptr) return std::numeric_limits<double>::quiet_NaN();
  return histogram_quantile(*sample, q);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::Series* MetricsRegistry::find_or_create(
    const std::string& name, const std::string& labels,
    const std::string& help, MetricKind kind) {
  for (auto& series : series_) {
    if (series.name == name && series.labels == labels) {
      SR_CHECKF(series.kind == kind,
                "metric %s{%s} re-registered as %s but exists as %s",
                name.c_str(), labels.c_str(), to_string(kind),
                to_string(series.kind));
      return &series;
    }
  }
  Series& series = series_.emplace_back();
  series.name = name;
  series.labels = labels;
  series.help = help;
  series.kind = kind;
  return &series;
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const std::string& labels) {
  return &find_or_create(name, labels, help, MetricKind::kCounter)->counter;
}

Gauge* MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const std::string& labels) {
  return &find_or_create(name, labels, help, MetricKind::kGauge)->gauge;
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      const std::string& labels,
                                      const Histogram::Options& options) {
  Series* series = find_or_create(name, labels, help, MetricKind::kHistogram);
  if (!series->histogram) {
    series->histogram = std::make_unique<Histogram>(options);
  }
  return series->histogram.get();
}

void MetricsRegistry::register_callback(const std::string& name,
                                        MetricKind kind,
                                        std::function<double()> fn,
                                        const std::string& help,
                                        const std::string& labels) {
  SR_CHECK(kind != MetricKind::kHistogram);
  Series* series = find_or_create(name, labels, help, kind);
  series->callback = std::move(fn);
}

std::size_t MetricsRegistry::series_count() const { return series_.size(); }

namespace {

/// Renders a histogram into a sample's cumulative bucket list.
void render_histogram(const Histogram& hist, MetricSample& sample) {
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < hist.bucket_count(); ++i) {
    const std::uint64_t n = hist.bucket_value(i);
    if (n == 0) continue;
    // A zero-delta floor marker at the bucket's lower edge keeps
    // quantile interpolation inside the true bucket: without it a run
    // of empty buckets would stretch the interpolation span down to
    // the previous occupied bucket.
    const std::uint64_t lower = hist.bucket_lower_bound(i);
    if (lower > 0 && (sample.buckets.empty() ||
                      sample.buckets.back().upper_bound < lower - 1)) {
      sample.buckets.push_back({lower - 1, cumulative});
    }
    cumulative += n;
    const std::uint64_t upper = i + 1 < hist.bucket_count()
                                    ? hist.bucket_lower_bound(i + 1) - 1
                                    : ~std::uint64_t{0};
    sample.buckets.push_back({upper, cumulative});
  }
  sample.count = cumulative;
  sample.sum = static_cast<double>(hist.sum());
}

bool series_less(const MetricSample& a, const MetricSample& b) {
  if (a.name != b.name) return a.name < b.name;
  return a.labels < b.labels;
}

bool same_series(const MetricSample& a, const MetricSample& b) {
  return a.name == b.name && a.labels == b.labels;
}

/// Sums cumulative bucket list `b` into `a`: the union of their bounds, with
/// the counts de-cumulated, added and re-cumulated.
void merge_buckets(std::vector<HistogramBucket>& a,
                   const std::vector<HistogramBucket>& b) {
  std::vector<HistogramBucket> out;
  std::size_t i = 0, j = 0;
  std::uint64_t prev_a = 0, prev_b = 0, cumulative = 0;
  while (i < a.size() || j < b.size()) {
    std::uint64_t bound = 0;
    std::uint64_t delta = 0;
    const bool take_a =
        j >= b.size() || (i < a.size() && a[i].upper_bound <= b[j].upper_bound);
    const bool take_b =
        i >= a.size() || (j < b.size() && b[j].upper_bound <= a[i].upper_bound);
    if (take_a) {
      bound = a[i].upper_bound;
      delta += a[i].cumulative_count - prev_a;
      prev_a = a[i].cumulative_count;
      ++i;
    }
    if (take_b) {
      bound = b[j].upper_bound;
      delta += b[j].cumulative_count - prev_b;
      prev_b = b[j].cumulative_count;
      ++j;
    }
    cumulative += delta;
    out.push_back({bound, cumulative});
  }
  a = std::move(out);
}

}  // namespace

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  snap.samples.reserve(series_.size());
  for (const auto& series : series_) {
    MetricSample sample;
    sample.name = series.name;
    sample.labels = series.labels;
    sample.help = series.help;
    sample.kind = series.kind;
    if (series.callback) {
      sample.value = series.callback();
    } else if (series.kind == MetricKind::kCounter) {
      sample.value = static_cast<double>(series.counter.value());
    } else if (series.kind == MetricKind::kGauge) {
      sample.value = series.gauge.value();
    } else if (series.histogram) {
      render_histogram(*series.histogram, sample);
    }
    snap.samples.push_back(std::move(sample));
  }
  std::sort(snap.samples.begin(), snap.samples.end(), series_less);
  return snap;
}

Snapshot MetricsRegistry::aggregate(const std::vector<Snapshot>& parts) {
  for (const auto& part : parts) {
    SR_CHECKF(std::is_sorted(part.samples.begin(), part.samples.end(),
                             series_less),
              "aggregate() takes snapshots sorted by (name, labels)");
  }
  // One k-way pass: each step takes the smallest (name, labels) left at any
  // part's head and folds every part's samples of it in, in part order. A
  // sample of a kind not yet merged for the series is appended after the
  // series' other kinds, so kinds keep the order they first appear in.
  Snapshot merged;
  std::vector<std::size_t> head(parts.size(), 0);
  for (;;) {
    const MetricSample* next = nullptr;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      const auto& samples = parts[p].samples;
      if (head[p] < samples.size() &&
          (next == nullptr || series_less(samples[head[p]], *next))) {
        next = &samples[head[p]];
      }
    }
    if (next == nullptr) break;
    const std::size_t first = merged.samples.size();
    for (std::size_t p = 0; p < parts.size(); ++p) {
      const auto& samples = parts[p].samples;
      for (; head[p] < samples.size() && same_series(samples[head[p]], *next);
           ++head[p]) {
        const MetricSample& sample = samples[head[p]];
        const auto into = std::find_if(
            merged.samples.begin() + static_cast<std::ptrdiff_t>(first),
            merged.samples.end(),
            [&sample](const MetricSample& m) { return m.kind == sample.kind; });
        if (into == merged.samples.end()) {
          merged.samples.push_back(sample);
          continue;
        }
        into->value += sample.value;
        into->count += sample.count;
        into->sum += sample.sum;
        if (!sample.buckets.empty()) merge_buckets(into->buckets, sample.buckets);
      }
    }
  }
  return merged;
}

}  // namespace silkroad::obs
