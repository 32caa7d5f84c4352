#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>

#include "obs/exporters.h"

namespace silkroad::obs {

namespace {

/// Interval-local quantiles derived from every histogram series, with
/// their series-name suffixes.
constexpr std::pair<double, const char*> kQuantiles[] = {{0.50, ":p50"},
                                                         {0.99, ":p99"}};

/// Cumulative count of `buckets` at inclusive bound `upper` (the count of
/// recorded values <= upper).
std::uint64_t cumulative_at(const std::vector<HistogramBucket>& buckets,
                            std::uint64_t upper) {
  std::uint64_t cumulative = 0;
  for (const auto& bucket : buckets) {
    if (bucket.upper_bound > upper) break;
    cumulative = bucket.cumulative_count;
  }
  return cumulative;
}

/// Extracts `key`'s value from a pre-rendered label string like
/// vip="20.0.0.1:80",dip="10.0.0.1:20". Returns false when the key is
/// absent. Values are assumed quote-free (endpoints and identifiers are).
bool label_value(const std::string& labels, const std::string& key,
                 std::string& out) {
  const std::string needle = key + "=\"";
  std::size_t pos = 0;
  while ((pos = labels.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || labels[pos - 1] == ',') {
      const std::size_t start = pos + needle.size();
      const std::size_t end = labels.find('"', start);
      if (end == std::string::npos) return false;
      out = labels.substr(start, end - start);
      return true;
    }
    ++pos;
  }
  return false;
}

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(Source source, const Options& options)
    : source_(std::move(source)), options_(options) {
  if (options_.interval == 0) options_.interval = 1;
  if (options_.capacity == 0) options_.capacity = 1;
}

TimeSeriesRecorder::TimeSeriesRecorder(const MetricsRegistry& registry,
                                       const Options& options)
    : TimeSeriesRecorder([&registry] { return registry.snapshot(); },
                         options) {}

void TimeSeriesRecorder::push(const SeriesKey& key, sim::Time at,
                              double value) {
  std::deque<Point>& points = series_[key];
  points.push_back({at, value});
  while (points.size() > options_.capacity) points.pop_front();
}

void TimeSeriesRecorder::sample(sim::Time at) {
  Snapshot snap = source_();
  const bool derive = samples_ > 0 && at > prev_at_;
  const double dt = derive ? sim::to_seconds(at - prev_at_) : 0.0;
  for (const auto& sample : snap.samples) {
    if (sample.kind != MetricKind::kHistogram) {
      push({sample.name, sample.labels}, at, sample.value);
      if (sample.kind == MetricKind::kCounter && derive) {
        const MetricSample* prev = prev_.find(sample.name, sample.labels);
        const double before = prev == nullptr ? 0.0 : prev->value;
        const double delta = std::max(0.0, sample.value - before);
        push({sample.name + ":rate", sample.labels}, at, delta / dt);
      }
      continue;
    }
    if (!derive) continue;
    const MetricSample* prev = prev_.find(sample.name, sample.labels);
    const std::uint64_t prev_count = prev == nullptr ? 0 : prev->count;
    const double prev_sum = prev == nullptr ? 0.0 : prev->sum;
    if (sample.count <= prev_count) continue;  // quiet interval: leave a gap
    const std::uint64_t delta_count = sample.count - prev_count;
    push({sample.name + ":count_rate", sample.labels}, at,
         static_cast<double>(delta_count) / dt);
    push({sample.name + ":mean", sample.labels}, at,
         (sample.sum - prev_sum) / static_cast<double>(delta_count));
    // Interval-local distribution: de-cumulate against the previous
    // snapshot bound-by-bound (the bucket set only grows, so every previous
    // bound appears in the current list).
    MetricSample delta;
    delta.kind = MetricKind::kHistogram;
    delta.count = delta_count;
    std::uint64_t prev_delta_cum = 0;
    std::uint64_t prev_bound = 0;
    bool have_prev_bound = false;
    for (const auto& bucket : sample.buckets) {
      const std::uint64_t before =
          prev == nullptr ? 0 : cumulative_at(prev->buckets, bucket.upper_bound);
      const std::uint64_t delta_cum = bucket.cumulative_count - before;
      if (delta_cum > prev_delta_cum) {
        // This bucket gained mass in the interval. Emit a zero-delta floor
        // marker at the preceding bound first (same trick as the snapshot's
        // floor markers) so quantile interpolation stays inside this bucket
        // even when the buckets below it only held previous-interval mass.
        if (have_prev_bound &&
            (delta.buckets.empty() ||
             delta.buckets.back().upper_bound < prev_bound)) {
          delta.buckets.push_back({prev_bound, prev_delta_cum});
        }
        delta.buckets.push_back({bucket.upper_bound, delta_cum});
      }
      prev_delta_cum = delta_cum;
      prev_bound = bucket.upper_bound;
      have_prev_bound = true;
    }
    for (const auto& [q, suffix] : kQuantiles) {
      push({sample.name + suffix, sample.labels}, at,
           histogram_quantile(delta, q));
    }
  }
  compute_imbalance(snap, at, derive);
  prev_ = std::move(snap);
  prev_at_ = at;
  ++samples_;
}

void TimeSeriesRecorder::compute_imbalance(const Snapshot& snap, sim::Time at,
                                           bool derive) {
  for (const std::string metric : kImbalanceMetrics) {
    // Group the metric's per-DIP samples by VIP. Gauges contribute their
    // level; counters the per-interval delta (so the index describes this
    // interval's arrivals, not since-boot totals).
    std::map<std::string, std::vector<double>> by_vip;
    for (const auto& sample : snap.samples) {
      if (sample.name != metric ||
          sample.kind == MetricKind::kHistogram) {
        continue;
      }
      std::string vip;
      std::string dip;
      if (!label_value(sample.labels, "vip", vip) ||
          !label_value(sample.labels, "dip", dip)) {
        continue;
      }
      double v = sample.value;
      if (sample.kind == MetricKind::kCounter) {
        if (!derive) continue;
        const MetricSample* prev = prev_.find(sample.name, sample.labels);
        v = std::max(0.0, sample.value - (prev == nullptr ? 0.0 : prev->value));
      }
      by_vip[vip].push_back(v);
    }
    for (const auto& [vip, values] : by_vip) {
      double sum = 0;
      double max = 0;
      for (const double v : values) {
        sum += v;
        max = std::max(max, v);
      }
      const double n = static_cast<double>(values.size());
      const double mean = sum / n;
      if (mean <= 0.0) continue;  // idle interval: gap, not a 0/0 spike
      double var = 0;
      for (const double v : values) var += (v - mean) * (v - mean);
      var /= n;
      ImbalanceStat stat;
      stat.at = at;
      stat.dips = values.size();
      stat.mean = mean;
      stat.max = max;
      stat.max_mean = max / mean;
      stat.cv = std::sqrt(var) / mean;
      const std::string label = "vip=\"" + vip + "\"";
      push({metric + ":imbalance_maxmean", label}, at, stat.max_mean);
      push({metric + ":imbalance_cv", label}, at, stat.cv);
      imbalance_[{metric, vip}] = stat;
    }
  }
}

void TimeSeriesRecorder::attach(sim::Simulator& sim, sim::Time until) {
  detach();
  sim_ = &sim;
  until_ = until;
  sample(sim.now());
  schedule_next();
}

void TimeSeriesRecorder::schedule_next() {
  const sim::Time now = sim_->now();
  if (now >= until_ || until_ - now < options_.interval) return;
  pending_ = sim_->schedule_after(options_.interval, [this] {
    sample(sim_->now());
    schedule_next();
  });
}

void TimeSeriesRecorder::detach() { pending_.cancel(); }

std::vector<TimeSeriesRecorder::Point> TimeSeriesRecorder::find(
    const std::string& name, const std::string& labels) const {
  const auto it = series_.find({name, labels});
  if (it == series_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

TimeSeriesRecorder::WindowStats TimeSeriesRecorder::window(
    const std::string& name, const std::string& labels,
    std::size_t last_n) const {
  WindowStats stats;
  const auto it = series_.find({name, labels});
  if (it == series_.end() || it->second.empty()) return stats;
  const std::deque<Point>& points = it->second;
  const std::size_t n =
      last_n == 0 ? points.size() : std::min(last_n, points.size());
  double sum = 0;
  for (std::size_t i = points.size() - n; i < points.size(); ++i) {
    const double v = points[i].value;
    if (stats.count == 0 || v < stats.min) stats.min = v;
    if (stats.count == 0 || v > stats.max) stats.max = v;
    sum += v;
    ++stats.count;
  }
  stats.mean = sum / static_cast<double>(stats.count);
  return stats;
}

std::size_t TimeSeriesRecorder::sample_count() const { return samples_; }

std::size_t TimeSeriesRecorder::series_count() const { return series_.size(); }

std::string TimeSeriesRecorder::to_csv() const {
  std::string out = "t_seconds,name,labels,value\n";
  for (const auto& [key, points] : series_) {
    std::string labels = "\"";
    for (const char c : key.second) {
      labels += c;
      if (c == '"') labels += '"';  // CSV escaping doubles quotes
    }
    labels += "\"";
    for (const Point& point : points) {
      out += format_number(sim::to_seconds(point.at));
      out += ",";
      out += key.first;
      out += ",";
      out += labels;
      out += ",";
      out += format_number(point.value);
      out += "\n";
    }
  }
  return out;
}

TimeSeriesRecorder::ImbalanceStat TimeSeriesRecorder::imbalance(
    const std::string& metric, const std::string& vip) const {
  const auto it = imbalance_.find({metric, vip});
  return it == imbalance_.end() ? ImbalanceStat{} : it->second;
}

std::string TimeSeriesRecorder::imbalance_json() const {
  std::string out = "{\"interval_ns\":";
  out += std::to_string(options_.interval);
  out += ",\"metrics\":[";
  bool first_metric = true;
  for (const std::string metric : kImbalanceMetrics) {
    if (!first_metric) out += ",";
    first_metric = false;
    out += "\n  {\"metric\":\"";
    out += json_escape(metric);
    out += "\",\"vips\":[";
    bool first_vip = true;
    for (const auto& [key, stat] : imbalance_) {
      if (key.first != metric) continue;
      if (!first_vip) out += ",";
      first_vip = false;
      const std::string label = "vip=\"" + key.second + "\"";
      const WindowStats maxmean = window(metric + ":imbalance_maxmean", label);
      const WindowStats cv = window(metric + ":imbalance_cv", label);
      out += "\n    {\"vip\":\"";
      out += json_escape(key.second);
      out += "\",\"at_seconds\":";
      out += format_number(sim::to_seconds(stat.at));
      out += ",\"dips\":";
      out += std::to_string(stat.dips);
      out += ",\"mean\":";
      out += format_number(stat.mean);
      out += ",\"max\":";
      out += format_number(stat.max);
      out += ",\"max_mean\":";
      out += format_number(stat.max_mean);
      out += ",\"cv\":";
      out += format_number(stat.cv);
      out += ",\"window\":{\"points\":";
      out += std::to_string(maxmean.count);
      out += ",\"maxmean_mean\":";
      out += format_number(maxmean.mean);
      out += ",\"maxmean_max\":";
      out += format_number(maxmean.max);
      out += ",\"cv_mean\":";
      out += format_number(cv.mean);
      out += ",\"cv_max\":";
      out += format_number(cv.max);
      out += "}}";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

std::string TimeSeriesRecorder::to_json() const {
  std::string out = "{\"interval_ns\":";
  out += std::to_string(options_.interval);
  out += ",\"samples\":";
  out += std::to_string(samples_);
  out += ",\"series\":[";
  bool first = true;
  for (const auto& [key, points] : series_) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"name\":\"";
    out += json_escape(key.first);
    out += "\",\"labels\":\"";
    out += json_escape(key.second);
    out += "\",\"points\":[";
    bool first_point = true;
    for (const Point& point : points) {
      if (!first_point) out += ",";
      first_point = false;
      out += "[";
      out += format_number(sim::to_seconds(point.at));
      out += ",";
      out += format_number(point.value);
      out += "]";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace silkroad::obs
