#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "core/silkroad_switch.h"
#include "lb/slb.h"
#include "obs/exporters.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/scrape_server.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "http_get.h"

namespace silkroad::obs {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SameSeriesReturnsSameHandle) {
  MetricsRegistry registry;
  Counter* a = registry.counter("silkroad_x_total", "help");
  Counter* b = registry.counter("silkroad_x_total");
  EXPECT_EQ(a, b);
  a->inc(3);
  b->inc();
  EXPECT_EQ(a->value(), 4u);
  EXPECT_EQ(registry.series_count(), 1u);
}

TEST(MetricsRegistry, LabelsDistinguishSeries) {
  MetricsRegistry registry;
  Counter* green = registry.counter("pkts", "", R"(color="green")");
  Counter* red = registry.counter("pkts", "", R"(color="red")");
  EXPECT_NE(green, red);
  green->inc(2);
  red->inc(5);
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("pkts", R"(color="green")"), 2);
  EXPECT_EQ(snap.value_of("pkts", R"(color="red")"), 5);
  EXPECT_EQ(snap.value_of("pkts", R"(color="blue")", -1), -1);
}

TEST(MetricsRegistry, SnapshotIsSortedAndDeterministic) {
  MetricsRegistry registry;
  registry.counter("zeta");
  registry.counter("alpha");
  registry.gauge("mid");
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      snap.samples.begin(), snap.samples.end(),
      [](const MetricSample& a, const MetricSample& b) {
        return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
      }));
}

TEST(MetricsRegistry, CallbackIsEvaluatedAtSnapshotTime) {
  MetricsRegistry registry;
  double level = 1.0;
  registry.register_callback("depth", MetricKind::kGauge,
                             [&level] { return level; });
  EXPECT_EQ(registry.snapshot().value_of("depth"), 1.0);
  level = 42.0;
  EXPECT_EQ(registry.snapshot().value_of("depth"), 42.0);
}

TEST(Counter, OverflowWrapsModulo64Bits) {
  Counter c;
  c.inc(~std::uint64_t{0});  // 2^64 - 1
  c.inc(5);
  EXPECT_EQ(c.value(), 4u);
}

TEST(MetricsRegistry, AggregateSumsMatchingSeries) {
  MetricsRegistry a, b;
  a.counter("pkts")->inc(10);
  b.counter("pkts")->inc(32);
  a.gauge("occ")->set(0.5);
  b.gauge("occ")->set(0.25);
  b.counter("only_b")->inc(7);
  const Snapshot merged =
      MetricsRegistry::aggregate({a.snapshot(), b.snapshot()});
  EXPECT_EQ(merged.value_of("pkts"), 42);
  EXPECT_EQ(merged.value_of("occ"), 0.75);
  EXPECT_EQ(merged.value_of("only_b"), 7);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, SmallValuesGetExactUnitBuckets) {
  Histogram h(Histogram::Options{.log2_subdivisions = 2});  // 4 subdivisions
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(h.bucket_index(v), v) << "value " << v;
    EXPECT_EQ(h.bucket_lower_bound(v), v);
  }
}

TEST(Histogram, EveryValueFallsInsideItsBucketBounds) {
  Histogram h(Histogram::Options{.log2_subdivisions = 2});
  const std::uint64_t probes[] = {
      0,    1,    3,         4,             5, 7, 8, 9, 15, 16, 17, 100,
      1023, 1024, 1'000'000, 1'000'000'000, std::uint64_t{1} << 40,
      ~std::uint64_t{0}};
  for (const std::uint64_t v : probes) {
    const std::size_t i = h.bucket_index(v);
    ASSERT_LT(i, h.bucket_count()) << "value " << v;
    EXPECT_LE(h.bucket_lower_bound(i), v) << "value " << v;
    if (i + 1 < h.bucket_count()) {
      EXPECT_LT(v, h.bucket_lower_bound(i + 1)) << "value " << v;
    }
  }
}

TEST(Histogram, BucketBoundsAreMonotone) {
  Histogram h(Histogram::Options{.log2_subdivisions = 2});
  for (std::size_t i = 0; i + 1 < h.bucket_count(); ++i) {
    EXPECT_LT(h.bucket_lower_bound(i), h.bucket_lower_bound(i + 1))
        << "bucket " << i;
  }
}

TEST(Histogram, CountAndSumTrackRecords) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  h->record(1);
  h->record(100);
  h->record(10'000);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum(), 10'101u);
  const Snapshot snap = registry.snapshot();
  const MetricSample* sample = snap.find("lat");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->kind, MetricKind::kHistogram);
  EXPECT_EQ(sample->count, 3u);
  ASSERT_FALSE(sample->buckets.empty());
  // Buckets are cumulative: the last non-empty bucket holds the full count.
  EXPECT_EQ(sample->buckets.back().cumulative_count, 3u);
}

// ---------------------------------------------------------------------------
// Histogram quantiles (Snapshot::quantile / histogram_quantile)
// ---------------------------------------------------------------------------

TEST(HistogramQuantile, ExactForUnitBuckets) {
  // Default log2_subdivisions=2: values below 8 land in exact unit buckets,
  // so interpolated quantiles match the textbook percentile exactly.
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  for (std::uint64_t v = 1; v <= 4; ++v) h->record(v);
  const Snapshot snap = registry.snapshot();
  // rank(q) = max(1, q*4); each unit bucket spans (v-1, v].
  EXPECT_DOUBLE_EQ(snap.quantile("lat", "", 0.25), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile("lat", "", 0.50), 2.0);
  EXPECT_DOUBLE_EQ(snap.quantile("lat", "", 0.75), 3.0);
  EXPECT_DOUBLE_EQ(snap.quantile("lat", "", 1.00), 4.0);
  EXPECT_NEAR(snap.quantile("lat", "", 0.99), 3.96, 1e-9);
  // q below the first sample's rank clamps to the first value's bucket.
  EXPECT_LE(snap.quantile("lat", "", 0.0), 1.0);
}

TEST(HistogramQuantile, FloorMarkerKeepsEstimateInsideTrueBucket) {
  // 400 lands in bucket [384, 447] (width 64). Without the floor-marker
  // bucket the interpolation span would stretch down to 0 and p50 would
  // come out near 224; with it the error is bounded by the bucket width.
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  for (int i = 0; i < 100; ++i) h->record(400);
  const Snapshot snap = registry.snapshot();
  EXPECT_NEAR(snap.quantile("lat", "", 0.50), 400.0, 64.0);
  EXPECT_NEAR(snap.quantile("lat", "", 0.99), 400.0, 64.0);
}

TEST(HistogramQuantile, SingleBucketKeepsAllQuantilesInsideIt) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  for (int i = 0; i < 100; ++i) h->record(700);  // one log-linear bucket
  const Snapshot snap = registry.snapshot();
  const std::size_t bucket =
      hdr_bucket_index(700, Histogram::Options{}.log2_subdivisions);
  const double lower = static_cast<double>(
      hdr_bucket_lower_bound(bucket, Histogram::Options{}.log2_subdivisions));
  const double upper = static_cast<double>(hdr_bucket_lower_bound(
      bucket + 1, Histogram::Options{}.log2_subdivisions));
  for (const double q : {0.01, 0.5, 0.99, 0.999}) {
    const double est = snap.quantile("lat", "", q);
    EXPECT_GE(est, lower) << "q=" << q;
    EXPECT_LE(est, upper) << "q=" << q;
  }
}

TEST(HistogramQuantile, OverflowBucketReturnsLastFiniteEdge) {
  // Values beyond the top bounded bucket land in the unbounded overflow
  // bucket, which has no upper edge to interpolate toward: every quantile
  // that falls there reports the last finite edge instead of garbage.
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  for (int i = 0; i < 10; ++i) h->record(~std::uint64_t{0});
  const Snapshot snap = registry.snapshot();
  const double p50 = snap.quantile("lat", "", 0.50);
  const double p999 = snap.quantile("lat", "", 0.999);
  EXPECT_TRUE(std::isfinite(p50));
  EXPECT_GT(p50, 0.0);
  EXPECT_DOUBLE_EQ(p50, p999);  // no spread inside the unbounded bucket
}

TEST(HistogramQuantile, ExactBoundaryValueStaysInItsBucket) {
  // A power-of-two boundary value belongs to exactly one bucket; the
  // quantile estimate must stay inside that bucket's bounds.
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  const std::uint64_t boundary = 256;
  for (int i = 0; i < 50; ++i) h->record(boundary);
  const std::size_t sub = Histogram::Options{}.log2_subdivisions;
  const std::size_t bucket = hdr_bucket_index(boundary, sub);
  EXPECT_GE(boundary, hdr_bucket_lower_bound(bucket, sub));
  EXPECT_LT(boundary, hdr_bucket_lower_bound(bucket + 1, sub));
  const double est = registry.snapshot().quantile("lat", "", 0.5);
  EXPECT_GE(est, static_cast<double>(hdr_bucket_lower_bound(bucket, sub)));
  EXPECT_LE(est, static_cast<double>(hdr_bucket_lower_bound(bucket + 1, sub)));
}

TEST(HistogramQuantile, NanForMissingEmptyOrNonHistogram) {
  MetricsRegistry registry;
  registry.gauge("g")->set(5);
  registry.histogram("empty");
  const Snapshot snap = registry.snapshot();
  EXPECT_TRUE(std::isnan(snap.quantile("nope", "", 0.5)));
  EXPECT_TRUE(std::isnan(snap.quantile("g", "", 0.5)));
  EXPECT_TRUE(std::isnan(snap.quantile("empty", "", 0.5)));
}

// ---------------------------------------------------------------------------
// MetricsRegistry::aggregate edge cases
// ---------------------------------------------------------------------------

TEST(Aggregate, DisjointLabelSetsStaySeparate) {
  MetricsRegistry a, b;
  a.counter("pkts", "", R"(color="green")")->inc(2);
  b.counter("pkts", "", R"(color="red")")->inc(5);
  const Snapshot merged =
      MetricsRegistry::aggregate({a.snapshot(), b.snapshot()});
  ASSERT_EQ(merged.samples.size(), 2u);
  EXPECT_EQ(merged.value_of("pkts", R"(color="green")"), 2);
  EXPECT_EQ(merged.value_of("pkts", R"(color="red")"), 5);
}

TEST(Aggregate, PullCallbacksEvaluatePerSnapshotAndSum) {
  // Each snapshot() evaluates the pull callback once; aggregating two
  // snapshots of the same registry therefore double-counts by design —
  // aggregate() is for snapshots of *distinct* registries.
  MetricsRegistry registry;
  int calls = 0;
  registry.register_callback("depth", MetricKind::kGauge,
                             [&calls] { return static_cast<double>(++calls); });
  const Snapshot first = registry.snapshot();
  const Snapshot second = registry.snapshot();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(first.value_of("depth"), 1.0);
  EXPECT_EQ(second.value_of("depth"), 2.0);
  const Snapshot merged = MetricsRegistry::aggregate({first, second});
  EXPECT_EQ(merged.value_of("depth"), 3.0);
}

TEST(Aggregate, EmptySnapshotsMergeToIdentity) {
  EXPECT_TRUE(MetricsRegistry::aggregate({}).samples.empty());
  MetricsRegistry registry;
  registry.counter("pkts")->inc(9);
  const Snapshot merged =
      MetricsRegistry::aggregate({Snapshot{}, registry.snapshot(), Snapshot{}});
  ASSERT_EQ(merged.samples.size(), 1u);
  EXPECT_EQ(merged.value_of("pkts"), 9);
}

TEST(Aggregate, KindsOfOneSeriesStayApartInTheOrderTheyAppear) {
  MetricsRegistry a, b, c;
  a.counter("x", "from a")->inc(2);
  b.gauge("x", "from b")->set(0.5);
  c.counter("x", "from c")->inc(3);
  const Snapshot merged =
      MetricsRegistry::aggregate({a.snapshot(), b.snapshot(), c.snapshot()});
  ASSERT_EQ(merged.samples.size(), 2u);
  EXPECT_EQ(merged.samples[0].kind, MetricKind::kCounter);
  EXPECT_EQ(merged.samples[0].value, 5);
  EXPECT_EQ(merged.samples[0].help, "from a");  // the first part's help
  EXPECT_EQ(merged.samples[1].kind, MetricKind::kGauge);
  EXPECT_EQ(merged.samples[1].value, 0.5);
  const Snapshot reversed =
      MetricsRegistry::aggregate({b.snapshot(), c.snapshot(), a.snapshot()});
  ASSERT_EQ(reversed.samples.size(), 2u);
  EXPECT_EQ(reversed.samples[0].kind, MetricKind::kGauge);
  EXPECT_EQ(reversed.samples[1].kind, MetricKind::kCounter);
  EXPECT_EQ(reversed.samples[1].help, "from c");
}

TEST(AggregateDeathTest, RefusesAPartNotSortedByNameAndLabels) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Snapshot unsorted;
  unsorted.samples.resize(2);
  unsorted.samples[0].name = "b";
  unsorted.samples[1].name = "a";
  EXPECT_DEATH(MetricsRegistry::aggregate({unsorted}), "sorted");
}

TEST(Aggregate, HistogramBucketsMergeCumulatively) {
  MetricsRegistry a, b;
  Histogram* ha = a.histogram("lat");
  Histogram* hb = b.histogram("lat");
  for (int i = 0; i < 10; ++i) ha->record(2);
  for (int i = 0; i < 10; ++i) hb->record(1000);
  const Snapshot merged =
      MetricsRegistry::aggregate({a.snapshot(), b.snapshot()});
  const MetricSample* lat = merged.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 20u);
  EXPECT_EQ(lat->buckets.back().cumulative_count, 20u);
  // Half the mass at 2, half near 1000: the median sits between them and
  // p99 lands in 1000's bucket.
  const double p99 = histogram_quantile(*lat, 0.99);
  EXPECT_NEAR(p99, 1000.0, 256.0);
}

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

TEST(TraceRing, WraparoundKeepsNewestEvents) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    ring.record_at(static_cast<sim::Time>(i), EventKind::kLearn, kNoScope,
                   kNoVersion, i);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].id, i + 2) << "oldest-first order";
  }
}

TEST(TraceRing, InternIsIdempotentAndFindable) {
  TraceRing ring(8);
  const std::uint32_t a = ring.intern("20.0.0.1:80");
  const std::uint32_t b = ring.intern("20.0.0.1:80");
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 1u);
  EXPECT_EQ(ring.find_scope("20.0.0.1:80"), a);
  EXPECT_EQ(ring.find_scope("never-interned"), std::nullopt);
  EXPECT_EQ(ring.scope_name(a), "20.0.0.1:80");
}

TEST(TraceRing, TailForFiltersByScopeAndVersion) {
  TraceRing ring(16);
  const std::uint32_t vip1 = ring.intern("vip1");
  const std::uint32_t vip2 = ring.intern("vip2");
  ring.record(EventKind::kVersionAllocate, vip1, 3);
  ring.record(EventKind::kVersionAllocate, vip1, 4);
  ring.record(EventKind::kVersionAllocate, vip2, 3);
  ring.record(EventKind::kLearn, vip1);  // version-less event of vip1

  const auto all_vip1 = ring.tail_for(vip1, std::nullopt, 16);
  EXPECT_EQ(all_vip1.size(), 3u);

  const auto v3 = ring.tail_for(vip1, 3, 16);
  ASSERT_EQ(v3.size(), 2u);  // the v=3 allocation plus the version-less learn
  EXPECT_EQ(v3[0].version, 3u);
  EXPECT_EQ(v3[1].kind, EventKind::kLearn);

  const auto limited = ring.tail_for(vip1, std::nullopt, 2);
  ASSERT_EQ(limited.size(), 2u);
  EXPECT_EQ(limited[1].kind, EventKind::kLearn);  // newest retained
}

TEST(TraceRing, ClockStampsEvents) {
  sim::Simulator sim;
  TraceRing ring(4, &sim);
  sim.schedule_at(1500, [&ring] { ring.record(EventKind::kLearn); });
  sim.run();
  EXPECT_EQ(ring.events().at(0).at, 1500);
}

// ---------------------------------------------------------------------------
// Exporters (golden outputs)
// ---------------------------------------------------------------------------

TEST(Exporters, PrometheusGolden) {
  MetricsRegistry registry;
  registry.counter("silkroad_packets_total", "Packets processed")->inc(12);
  registry.gauge("silkroad_occupancy", "", R"(stage="1")")->set(0.5);
  const std::string out = to_prometheus(registry.snapshot());
  EXPECT_EQ(out,
            "# TYPE silkroad_occupancy gauge\n"
            "silkroad_occupancy{stage=\"1\"} 0.5\n"
            "# HELP silkroad_packets_total Packets processed\n"
            "# TYPE silkroad_packets_total counter\n"
            "silkroad_packets_total 12\n");
}

TEST(Exporters, PrometheusHistogramHasCumulativeBucketsAndInf) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat_ns");
  h->record(1);
  h->record(1);
  h->record(1000);
  const std::string out = to_prometheus(registry.snapshot());
  EXPECT_NE(out.find("# TYPE lat_ns histogram"), std::string::npos);
  EXPECT_NE(out.find("lat_ns_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(out.find("lat_ns_sum 1002"), std::string::npos);
  EXPECT_NE(out.find("lat_ns_count 3"), std::string::npos);
}

TEST(Exporters, JsonGolden) {
  MetricsRegistry registry;
  registry.counter("pkts")->inc(7);
  const std::string out = to_json(registry.snapshot());
  EXPECT_EQ(out,
            "{\"metrics\":[\n"
            "  {\"name\":\"pkts\",\"labels\":\"\",\"kind\":\"counter\","
            "\"value\":7}\n"
            "]}\n");
}

TEST(Exporters, ChromeTraceRendersEveryTrack) {
  // The ring's tracks: one per scope, in first-seen order.
  TraceRing ring(16);
  const std::uint32_t vip = ring.intern("20.0.0.1:80");
  ring.record_at(1000, EventKind::kLearn, vip, 2, /*id=*/0x42);
  ring.record_at(2000, EventKind::kDegradedEnter, kNoScope);
  ring.record_at(3000, EventKind::kCuckooInsert, vip, 2, 0x42);
  std::vector<ChromeTrack> tracks = ring_tracks(ring);
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0].tid, vip);
  EXPECT_EQ(tracks[0].name, "20.0.0.1:80");
  EXPECT_EQ(tracks[0].events.size(), 2u);
  EXPECT_EQ(tracks[1].tid, kNoScope);
  EXPECT_EQ(tracks[1].name, "switch");
  // A span's track, with its duration.
  ChromeTrack& span_track = tracks.emplace_back();
  span_track.pid = 1;
  span_track.tid = 7;
  span_track.name = "update#7";
  span_track.events.push_back(
      {2000, EventKind::kFlip, 0, kNoVersion, 7, 1, 2});
  span_track.events.push_back(
      {2500, EventKind::kIntent, kControllerLeg, kNoVersion, 7, 0, 0});
  span_track.duration = ChromeDuration{"update", 1500, 3000};

  const std::string out = to_chrome_trace(tracks, "{\"recorded\":3}");
  EXPECT_NE(out.find("\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":"
                     "\"20.0.0.1:80\"}"),
            std::string::npos);
  EXPECT_NE(out.find("\"args\":{\"name\":\"update#7\"}"), std::string::npos);
  EXPECT_NE(out.find("{\"ph\":\"X\",\"pid\":1,\"tid\":7,\"ts\":1.500,"
                     "\"dur\":1.500,\"name\":\"update\"}"),
            std::string::npos);
  EXPECT_NE(out.find("\"name\":\"learn\",\"s\":\"t\",\"args\":{\"version\":2,"
                     "\"id\":66,\"arg0\":0,\"arg1\":0}"),
            std::string::npos);
  EXPECT_NE(out.find("\"name\":\"flip\",\"s\":\"t\",\"args\":{\"switch\":0,"
                     "\"arg0\":1,\"arg1\":2}"),
            std::string::npos);
  EXPECT_NE(out.find("\"name\":\"intent\",\"s\":\"t\",\"args\":{\"switch\":"
                     "null"),
            std::string::npos);
  EXPECT_EQ(out.find("\"ph\":\"X\",\"pid\":0"), std::string::npos)
      << "a track without a duration draws none";
  EXPECT_NE(out.find("\"displayTimeUnit\":\"ms\",\"otherData\":"
                     "{\"recorded\":3}}"),
            std::string::npos);
  EXPECT_EQ(to_chrome_trace({}).find("otherData"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TimeSeriesRecorder
// ---------------------------------------------------------------------------

TEST(TimeSeriesRecorder, CounterRawAndRateSeries) {
  MetricsRegistry registry;
  Counter* c = registry.counter("pkts");
  TimeSeriesRecorder recorder(registry);
  recorder.sample(0);
  c->inc(100);
  recorder.sample(sim::kSecond);
  c->inc(50);
  recorder.sample(2 * sim::kSecond);

  const auto raw = recorder.find("pkts");
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(raw[0].value, 0);
  EXPECT_EQ(raw[1].value, 100);
  EXPECT_EQ(raw[2].value, 150);

  const auto rate = recorder.find("pkts:rate");
  ASSERT_EQ(rate.size(), 2u);  // first sample has no previous to diff
  EXPECT_DOUBLE_EQ(rate[0].value, 100.0);  // 100 in 1 s
  EXPECT_DOUBLE_EQ(rate[1].value, 50.0);
  EXPECT_EQ(rate[0].at, sim::kSecond);
  EXPECT_EQ(recorder.sample_count(), 3u);
}

TEST(TimeSeriesRecorder, HistogramIntervalQuantilesAndGaps) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  TimeSeriesRecorder recorder(registry);
  recorder.sample(0);
  for (std::uint64_t v = 1; v <= 4; ++v) h->record(v);
  recorder.sample(sim::kSecond);
  // Quiet interval: no recordings => no derived points (gap, not zero).
  recorder.sample(2 * sim::kSecond);

  const auto p50 = recorder.find("lat:p50");
  ASSERT_EQ(p50.size(), 1u);
  EXPECT_DOUBLE_EQ(p50[0].value, 2.0);  // exact: unit buckets
  const auto p99 = recorder.find("lat:p99");
  ASSERT_EQ(p99.size(), 1u);
  const auto mean = recorder.find("lat:mean");
  ASSERT_EQ(mean.size(), 1u);
  EXPECT_DOUBLE_EQ(mean[0].value, 2.5);  // (1+2+3+4)/4
  const auto count_rate = recorder.find("lat:count_rate");
  ASSERT_EQ(count_rate.size(), 1u);
  EXPECT_DOUBLE_EQ(count_rate[0].value, 4.0);  // 4 records in 1 s
}

TEST(TimeSeriesRecorder, HistogramDeltaIsolatesTheInterval) {
  // The second interval's quantiles must reflect only the second interval's
  // values, even though snapshots are cumulative since boot.
  MetricsRegistry registry;
  Histogram* h = registry.histogram("lat");
  TimeSeriesRecorder recorder(registry);
  recorder.sample(0);
  for (int i = 0; i < 100; ++i) h->record(1);
  recorder.sample(sim::kSecond);
  for (int i = 0; i < 100; ++i) h->record(1000);
  recorder.sample(2 * sim::kSecond);

  const auto p50 = recorder.find("lat:p50");
  ASSERT_EQ(p50.size(), 2u);
  EXPECT_NEAR(p50[0].value, 1.0, 1.0);
  EXPECT_NEAR(p50[1].value, 1000.0, 128.0);  // not dragged down by the 1s
}

TEST(TimeSeriesRecorder, CapacityBoundsRetainedPoints) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("occ");
  TimeSeriesRecorder::Options opts;
  opts.capacity = 4;
  TimeSeriesRecorder recorder(registry, opts);
  for (int i = 0; i < 10; ++i) {
    g->set(i);
    recorder.sample(static_cast<sim::Time>(i) * sim::kSecond);
  }
  const auto points = recorder.find("occ");
  ASSERT_EQ(points.size(), 4u);  // oldest evicted
  EXPECT_EQ(points.front().value, 6);
  EXPECT_EQ(points.back().value, 9);
}

TEST(TimeSeriesRecorder, WindowStatsOverLastN) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("occ");
  TimeSeriesRecorder recorder(registry);
  const double values[] = {5, 1, 9, 3};
  for (int i = 0; i < 4; ++i) {
    g->set(values[i]);
    recorder.sample(static_cast<sim::Time>(i) * sim::kSecond);
  }
  const auto all = recorder.window("occ");
  EXPECT_EQ(all.count, 4u);
  EXPECT_EQ(all.min, 1);
  EXPECT_EQ(all.max, 9);
  EXPECT_DOUBLE_EQ(all.mean, 4.5);
  const auto last2 = recorder.window("occ", "", 2);
  EXPECT_EQ(last2.count, 2u);
  EXPECT_EQ(last2.min, 3);
  EXPECT_EQ(last2.max, 9);
  EXPECT_EQ(recorder.window("absent").count, 0u);
}

TEST(TimeSeriesRecorder, CsvAndJsonRenderPoints) {
  MetricsRegistry registry;
  registry.counter("pkts")->inc(7);
  TimeSeriesRecorder recorder(registry);
  recorder.sample(sim::kSecond);
  const std::string csv = recorder.to_csv();
  EXPECT_EQ(csv.rfind("t_seconds,name,labels,value\n", 0), 0u);
  EXPECT_NE(csv.find("1,pkts,\"\",7"), std::string::npos);
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("\"interval_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pkts\""), std::string::npos);
  EXPECT_NE(json.find("[1,7]"), std::string::npos);
}

TEST(TimeSeriesRecorder, AttachSamplesOnTheSimClock) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Gauge* g = registry.gauge("occ");
  TimeSeriesRecorder::Options opts;
  opts.interval = 100 * sim::kMillisecond;
  TimeSeriesRecorder recorder(registry, opts);
  recorder.attach(sim, sim.now() + sim::kSecond);  // bounded: sim.run() is ok
  g->set(3);
  sim.run();
  recorder.detach();
  const auto points = recorder.find("occ");
  // Immediate sample at t=0 plus one per 100 ms through t=1 s inclusive.
  EXPECT_EQ(points.size(), 11u);
  EXPECT_EQ(points.back().at, sim::kSecond);
}

// ---------------------------------------------------------------------------
// Flow journeys (forensics.h)
// ---------------------------------------------------------------------------

TEST(FlowJourney, ReconstructsOneFlow) {
  TraceRing ring(64);
  const std::uint32_t vip = ring.intern("20.0.0.1:80");
  const std::uint64_t flow = 0xABCDEF0123456789ull;
  ring.record_at(100, EventKind::kLearn, vip, 7, flow);
  ring.record_at(150, EventKind::kRelearn, vip, 7, flow);
  ring.record_at(200, EventKind::kCuckooInsert, vip, 7, flow, /*moves=*/0);
  // A different flow: must not leak into this journey.
  ring.record_at(120, EventKind::kLearn, vip, 7, flow + 1);
  // A flow the pending queue shed has a journey of its own.
  ring.record_at(300, EventKind::kLearn, vip, 7, flow + 2);
  ring.record_at(310, EventKind::kInsertShed, vip, 7, flow + 2);

  const auto journey = journey_of(ring, flow);
  ASSERT_TRUE(journey.has_value());
  EXPECT_EQ(journey->flow_id, flow);
  EXPECT_EQ(journey->scope, vip);
  EXPECT_EQ(journey->version, 7u);
  EXPECT_EQ(journey->first, 100u);
  EXPECT_EQ(journey->last, 200u);
  ASSERT_EQ(journey->events.size(), 3u);
  EXPECT_EQ(journey->events[0].kind, EventKind::kLearn);
  EXPECT_EQ(journey->events[1].kind, EventKind::kRelearn);
  EXPECT_EQ(journey->events[2].kind, EventKind::kCuckooInsert);
  EXPECT_TRUE(journey->installed);
  EXPECT_FALSE(journey->software_fallback);

  const auto shed = journey_of(ring, flow + 2);
  ASSERT_TRUE(shed.has_value());
  ASSERT_EQ(shed->events.size(), 2u);
  EXPECT_EQ(shed->events[1].kind, EventKind::kInsertShed);
  EXPECT_FALSE(shed->installed);

  EXPECT_EQ(journey_of(ring, 0x1234).has_value(), false);
}

TEST(FlowJourney, ReconstructCapsFlowsFirstSeen) {
  TraceRing ring(2 * kMaxJourneys);
  for (std::uint64_t f = 1; f <= kMaxJourneys + 10; ++f) {
    ring.record_at(static_cast<sim::Time>(f), EventKind::kLearn, kNoScope,
                   kNoVersion, f);
  }
  const auto all = journeys(ring);
  ASSERT_EQ(all.size(), kMaxJourneys);
  EXPECT_EQ(all.front().flow_id, 1u);  // first-seen order
  EXPECT_EQ(all.back().flow_id, kMaxJourneys);
  // journey_of() is uncapped: a flow past the cap still has its journey.
  EXPECT_TRUE(journey_of(ring, kMaxJourneys + 10).has_value());
}

TEST(FlowJourney, ChromeTraceHasFlowTracksAndInstallSpan) {
  TraceRing ring(64);
  const std::uint32_t vip = ring.intern("20.0.0.1:80");
  const std::uint64_t flow = 0x42;
  ring.record_at(100, EventKind::kLearn, vip, 1, flow);
  ring.record_at(200, EventKind::kCuckooInsert, vip, 1, flow);
  const auto all = journeys(ring);
  ASSERT_EQ(all.size(), 1u);
  const auto tracks = journey_tracks(ring, all);
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].name, "flow 0x0000000000000042 vip=20.0.0.1:80");
  ASSERT_TRUE(tracks[0].duration.has_value());
  EXPECT_EQ(tracks[0].duration->name, "install");
  EXPECT_EQ(tracks[0].duration->begin, 100);
  EXPECT_EQ(tracks[0].duration->end, 200);
  const std::string out = to_chrome_trace(tracks);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);  // install span
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // event instants
}

// ---------------------------------------------------------------------------
// ScrapeServer (real sockets on loopback, ephemeral port)
// ---------------------------------------------------------------------------

TEST(ScrapeServer, ServesAllEndpointsOverLoopback) {
  MetricsRegistry registry;
  Counter* packets = registry.counter("silkroad_packets_total");
  packets->inc(12);
  registry.histogram("lat_ns")->record(500);
  registry.gauge("silkroad_dip_active_conns", "", "dip=\"d\",vip=\"V\"")
      ->set(4);
  TimeSeriesRecorder recorder(registry);
  recorder.sample(sim::kSecond);

  // Every handler notes whether it ran anywhere but on this, the publishing
  // thread: the server thread must only ever serve the published copy.
  const std::thread::id publisher = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  const auto on_publisher = [&](auto render) {
    return [&off_thread, publisher, render] {
      if (std::this_thread::get_id() != publisher) off_thread.fetch_add(1);
      return render();
    };
  };
  ScrapeServer server;  // port 0 = ephemeral
  server.handle("/metrics", "text/plain; version=0.0.4", on_publisher([&] {
                  return to_prometheus(registry.snapshot());
                }));
  server.handle("/timeseries.json", "application/json",
                on_publisher([&] { return recorder.to_json(); }));
  server.handle("/tables", "application/json", on_publisher([] {
                  return std::string("{\"conn_table\":{}}");
                }));
  server.handle("/profile", "application/json", on_publisher([&] {
                  return to_profile_json(registry.snapshot());
                }));
  server.handle("/imbalance.json", "application/json",
                on_publisher([&] { return recorder.imbalance_json(); }));
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0u);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("silkroad_packets_total 12"), std::string::npos);

  // A scrape serves the last publish(), not the live registry.
  packets->inc(30);
  const std::string stale = http_get(server.port(), "/metrics");
  EXPECT_NE(stale.find("silkroad_packets_total 12"), std::string::npos);
  server.publish();
  const std::string fresh = http_get(server.port(), "/metrics");
  EXPECT_NE(fresh.find("silkroad_packets_total 42"), std::string::npos);

  const std::string healthz = http_get(server.port(), "/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("ok"), std::string::npos);

  const std::string series = http_get(server.port(), "/timeseries.json");
  EXPECT_NE(series.find("200 OK"), std::string::npos);
  EXPECT_NE(series.find("\"interval_ns\""), std::string::npos);

  const std::string tables = http_get(server.port(), "/tables");
  EXPECT_NE(tables.find("200 OK"), std::string::npos);
  EXPECT_NE(tables.find("conn_table"), std::string::npos);

  const std::string profile = http_get(server.port(), "/profile");
  EXPECT_NE(profile.find("200 OK"), std::string::npos);
  EXPECT_NE(profile.find("\"name\":\"lat_ns\""), std::string::npos);
  EXPECT_NE(profile.find("\"p999\":"), std::string::npos);

  const std::string imbalance = http_get(server.port(), "/imbalance.json");
  EXPECT_NE(imbalance.find("200 OK"), std::string::npos);
  EXPECT_NE(imbalance.find("\"vip\":\"V\""), std::string::npos);
  EXPECT_NE(imbalance.find("\"max_mean\""), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  EXPECT_GE(server.requests_served(), 9u);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ScrapeServer, UnknownPathAnswersWithRouteIndex) {
  ScrapeServer server;
  server.handle("/fleet", "text/plain", [] { return std::string("fleet\n"); });
  server.handle("/capacity", "text/plain", [] { return std::string("{}"); });
  server.handle("/profile", "application/json",
                [] { return std::string("{}"); });
  server.handle("/imbalance.json", "application/json",
                [] { return std::string("{}"); });
  server.handle_prefix("/update", "text/plain", [] {
    return std::vector<std::pair<std::string, std::string>>{{"1", "{}"}};
  });
  ASSERT_TRUE(server.start());

  // A mistyped scrape is self-correcting: the 404 body indexes every
  // registered route (sorted — routes_ is a std::map), including the
  // implicit /healthz and the prefix routes.
  const std::string missing = http_get(server.port(), "/flee");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_NE(missing.find("not found: /flee"), std::string::npos);
  EXPECT_NE(missing.find("/fleet"), std::string::npos);
  EXPECT_NE(missing.find("/capacity"), std::string::npos);
  EXPECT_NE(missing.find("/profile"), std::string::npos);
  EXPECT_NE(missing.find("/imbalance.json"), std::string::npos);
  EXPECT_NE(missing.find("/healthz"), std::string::npos);
  EXPECT_NE(missing.find("/update/<id>"), std::string::npos);
  EXPECT_NE(http_get(server.port(), "/update/1").find("200 OK"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/update/2").find("404"),
            std::string::npos);
  server.stop();
}

TEST(ScrapeServer, SurvivesAScraperThatHangsUp) {
  // A timed-out scraper sends its GET and closes before reading. The
  // server's next send on that socket fails with EPIPE; it must not raise
  // SIGPIPE, which would kill the process.
  ScrapeServer server;
  server.handle("/big", "text/plain",
                [] { return std::string(16u << 20, 'x'); });
  ASSERT_TRUE(server.start());
  for (int i = 0; i < 3; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::string request = "GET /big HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    ::close(fd);
  }
  EXPECT_NE(http_get(server.port(), "/healthz").find("200 OK"),
            std::string::npos);
  EXPECT_EQ(server.requests_served(), 4u);
  server.stop();
}

TEST(ScrapeServer, EnvPortParsing) {
  std::uint16_t port = 1;
  ::unsetenv("SILKROAD_SCRAPE_PORT");
  EXPECT_FALSE(scrape_port_from_env(port));
  ::setenv("SILKROAD_SCRAPE_PORT", "9100", 1);
  EXPECT_TRUE(scrape_port_from_env(port));
  EXPECT_EQ(port, 9100u);
  ::setenv("SILKROAD_SCRAPE_PORT", "0", 1);
  EXPECT_TRUE(scrape_port_from_env(port));
  EXPECT_EQ(port, 0u);
  ::setenv("SILKROAD_SCRAPE_PORT", "70000", 1);
  EXPECT_FALSE(scrape_port_from_env(port));
  ::setenv("SILKROAD_SCRAPE_PORT", "not-a-port", 1);
  EXPECT_FALSE(scrape_port_from_env(port));
  ::unsetenv("SILKROAD_SCRAPE_PORT");
}

// ---------------------------------------------------------------------------
// Switch integration: event order and zero double-counting
// ---------------------------------------------------------------------------

net::Endpoint vip_ep() { return {net::IpAddress::v4(0x14000001), 80}; }

std::vector<net::Endpoint> make_dips(int n) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back(
        {net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(i)), 20});
  }
  return dips;
}

net::Packet packet_of(std::uint32_t client, bool syn) {
  net::Packet p;
  p.flow = {{net::IpAddress::v4(0x0B000000 + client), 1234}, vip_ep(),
            net::Protocol::kTcp};
  p.syn = syn;
  p.size_bytes = 100;
  return p;
}

core::SilkRoadSwitch::Config small_config() {
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(4096);
  config.learning = {.capacity = 64, .timeout = sim::kMillisecond};
  config.cpu = {.tasks_per_second = 200'000.0};
  return config;
}

TEST(SwitchTelemetry, PccUpdateEventsArriveInProtocolOrder) {
  sim::Simulator sim;
  core::SilkRoadSwitch sw(sim, small_config());
  const auto dips = make_dips(8);
  sw.add_vip(vip_ep(), dips);
  for (std::uint32_t i = 0; i < 32; ++i) sw.process_packet(packet_of(i, true));
  sw.request_update({sim.now(), vip_ep(), dips[0],
                     workload::UpdateAction::kRemoveDip,
                     workload::UpdateCause::kServiceUpgrade});
  sim.run();

  // A switch outside a fleet records the update on a span of its own.
  ASSERT_EQ(sw.spans().total_started(), 1u);
  const UpdateSpan* span = sw.spans().find(1);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->intent.dip, dips[0]);
  std::vector<EventKind> protocol;
  for (const Event& event : span->events) protocol.push_back(event.kind);
  const std::vector<EventKind> expected = {
      EventKind::kIntent, EventKind::kQueueStage, EventKind::kStep1Open,
      EventKind::kFlip, EventKind::kFinish};
  EXPECT_EQ(protocol, expected) << "one update => step1-open, flip, finish";
  EXPECT_TRUE(sw.spans().audit_complete().empty());
  // The ring keeps flow and table events only.
  for (const Event& event : sw.trace().events()) {
    EXPECT_FALSE(is_span_kind(event.kind)) << to_string(event.kind);
  }
}

TEST(SwitchTelemetry, LegacyStatsViewMatchesRegistryExactly) {
  sim::Simulator sim;
  core::SilkRoadSwitch sw(sim, small_config());
  const auto dips = make_dips(8);
  sw.add_vip(vip_ep(), dips);
  for (std::uint32_t i = 0; i < 200; ++i) {
    sw.process_packet(packet_of(i, true));
    sw.process_packet(packet_of(i, false));
  }
  sw.request_update({sim.now(), vip_ep(), dips[1],
                     workload::UpdateAction::kRemoveDip,
                     workload::UpdateCause::kServiceUpgrade});
  sim.run();

  // The Stats struct is a snapshot view over the registry: every field must
  // equal the registry series it is assembled from — same source, counted
  // exactly once.
  const auto stats = sw.stats();
  const Snapshot snap = sw.metrics().snapshot();
  EXPECT_EQ(static_cast<double>(stats.packets),
            snap.value_of("silkroad_packets_total"));
  EXPECT_EQ(static_cast<double>(stats.conn_table_hits),
            snap.value_of("silkroad_conn_table_hits_total"));
  EXPECT_EQ(static_cast<double>(stats.learns),
            snap.value_of("silkroad_learns_total"));
  EXPECT_EQ(static_cast<double>(stats.inserts),
            snap.value_of("silkroad_inserts_total"));
  EXPECT_EQ(static_cast<double>(stats.updates_completed),
            snap.value_of("silkroad_updates_completed_total"));
  EXPECT_GT(stats.packets, 0u);
  EXPECT_GT(stats.inserts, 0u);
  EXPECT_EQ(stats.updates_completed, 1u);

  // Pull gauges are live views of the same structures (no second bookkeeping).
  EXPECT_EQ(snap.value_of("silkroad_connections_installed"),
            static_cast<double>(sw.conn_table().size()));

  // The packet-latency histogram saw exactly one record per processed packet.
  const MetricSample* latency = snap.find("silkroad_packet_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, stats.packets);

  // Per-stage ConnTable counters count data-plane lookups only: with no
  // meter attached every packet does exactly one lookup, which stage 0
  // always examines (the CPU's insertion-time lookups are not packets).
  EXPECT_EQ(snap.value_of("silkroad_conn_table_stage_packets_total",
                          "stage=\"0\""),
            snap.value_of("silkroad_packets_total"));
  for (std::size_t stage = 0; stage < small_config().conn_table.stages;
       ++stage) {
    const std::string label = "stage=\"" + std::to_string(stage) + "\"";
    EXPECT_EQ(
        snap.value_of("silkroad_conn_table_stage_packets_total", label),
        snap.value_of("silkroad_conn_table_stage_hits_total", label) +
            snap.value_of("silkroad_conn_table_stage_misses_total", label))
        << label;
  }
}

TEST(SwitchTelemetry, RecorderCapturesInsertLatencyTailUnderChurn) {
  // Acceptance criterion (ISSUE): after a churn phase, the recorder's p99
  // series for ConnTable insert latency is non-empty.
  sim::Simulator sim;
  core::SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(vip_ep(), make_dips(8));
  TimeSeriesRecorder::Options opts;
  opts.interval = 10 * sim::kMillisecond;
  TimeSeriesRecorder recorder(sw.metrics(), opts);
  recorder.attach(sim);
  for (std::uint32_t i = 0; i < 400; ++i) {
    sim.schedule_at(static_cast<sim::Time>(i) * sim::kMillisecond / 4,
                    [&sw, i] { sw.process_packet(packet_of(i, true)); });
  }
  sim.run_until(200 * sim::kMillisecond);
  recorder.detach();
  sim.run();

  EXPECT_FALSE(recorder.find("silkroad_insert_latency_ns:p99").empty());
  EXPECT_FALSE(recorder.find("silkroad_insert_latency_ns:p50").empty());
  EXPECT_FALSE(recorder.find("silkroad_inserts_total:rate").empty());
  // Every sampled p99 is a sane latency (positive, below a second).
  for (const auto& point : recorder.find("silkroad_insert_latency_ns:p99")) {
    EXPECT_GT(point.value, 0.0);
    EXPECT_LT(point.value, 1e9);
  }
}

TEST(SwitchTelemetry, JourneysReconstructFromSwitchTrace) {
  sim::Simulator sim;
  core::SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(vip_ep(), make_dips(8));
  for (std::uint32_t i = 0; i < 64; ++i) sw.process_packet(packet_of(i, true));
  sim.run();

  const auto all = journeys(sw.trace());
  ASSERT_GE(all.size(), 32u);
  for (const auto& journey : all) {
    EXPECT_NE(journey.flow_id, 0u);
    ASSERT_FALSE(journey.events.empty());
    EXPECT_EQ(journey.events.front().kind, EventKind::kLearn);
    for (std::size_t i = 1; i < journey.events.size(); ++i) {
      EXPECT_LE(journey.events[i - 1].at, journey.events[i].at);
    }
  }
  // The install pipeline ran: some journey reached the ConnTable.
  EXPECT_TRUE(std::any_of(all.begin(), all.end(),
                          [](const FlowJourney& j) { return j.installed; }));
}

TEST(SwitchTelemetry, TraceDroppedGaugeTracksRingWraparound) {
  sim::Simulator sim;
  core::SilkRoadSwitch sw(sim, small_config());
  EXPECT_EQ(sw.metrics().snapshot().value_of("obs_trace_dropped_total"), 0.0);
  // Overflow the 4096-slot ring directly; the pull counter must follow.
  for (std::uint64_t i = 0; i < 5000; ++i) {
    sw.trace().record(EventKind::kLearn, kNoScope, kNoVersion, i);
  }
  EXPECT_GT(sw.trace().dropped(), 0u);
  EXPECT_EQ(sw.metrics().snapshot().value_of("obs_trace_dropped_total"),
            static_cast<double>(sw.trace().dropped()));
}

TEST(SwitchTelemetry, StageSeriesFollowTheStageChain) {
  // A lookup that first matched at stage s missed at every stage before it,
  // so each stage examines exactly the lookups its predecessor missed. A
  // table sized for 256 connections holds 200 flows across all four stages.
  sim::Simulator sim;
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(256);
  core::SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(8));
  constexpr std::uint32_t kFlows = 200;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    sw.process_packet(packet_of(i, true));
  }
  sim.run();
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    sw.process_packet(packet_of(i, false));
  }
  const Snapshot snap = sw.metrics().snapshot();
  const auto value = [&snap](const char* series, std::size_t stage) {
    return snap.value_of(
        std::string("silkroad_conn_table_stage_") + series + "_total",
        "stage=\"" + std::to_string(stage) + "\"");
  };
  EXPECT_EQ(value("packets", 0), snap.value_of("silkroad_packets_total"));
  const std::size_t stages = config.conn_table.stages;
  for (std::size_t stage = 0; stage < stages; ++stage) {
    EXPECT_GT(value("hits", stage), 0.0) << "stage " << stage;
    EXPECT_EQ(value("packets", stage),
              value("hits", stage) + value("misses", stage))
        << "stage " << stage;
    if (stage + 1 < stages) {
      EXPECT_EQ(value("packets", stage + 1), value("misses", stage))
          << "stage " << stage;
    }
  }
}

// ---------------------------------------------------------------------------
// Load-imbalance telemetry
// ---------------------------------------------------------------------------

TEST(TimeSeriesRecorder, ImbalanceFromGaugeLevels) {
  MetricsRegistry registry;
  registry.gauge("silkroad_dip_active_conns", "", "dip=\"a\",vip=\"V\"")
      ->set(10);
  registry.gauge("silkroad_dip_active_conns", "", "dip=\"b\",vip=\"V\"")
      ->set(30);
  registry.gauge("silkroad_dip_active_conns", "", "dip=\"c\",vip=\"W\"")
      ->set(5);
  TimeSeriesRecorder recorder(registry);
  recorder.sample(sim::kSecond);

  const auto v = recorder.imbalance("silkroad_dip_active_conns", "V");
  EXPECT_EQ(v.dips, 2u);
  EXPECT_DOUBLE_EQ(v.mean, 20.0);
  EXPECT_DOUBLE_EQ(v.max, 30.0);
  EXPECT_DOUBLE_EQ(v.max_mean, 1.5);
  EXPECT_DOUBLE_EQ(v.cv, 0.5);  // stddev 10 over mean 20
  // The single-DIP VIP is perfectly balanced by definition.
  const auto w = recorder.imbalance("silkroad_dip_active_conns", "W");
  EXPECT_EQ(w.dips, 1u);
  EXPECT_DOUBLE_EQ(w.max_mean, 1.0);
  EXPECT_DOUBLE_EQ(w.cv, 0.0);
  // Derived series carry the same values, labeled by VIP.
  const auto maxmean = recorder.find(
      "silkroad_dip_active_conns:imbalance_maxmean", "vip=\"V\"");
  ASSERT_EQ(maxmean.size(), 1u);
  EXPECT_DOUBLE_EQ(maxmean[0].value, 1.5);
  // A never-sampled pair reports the zero default.
  EXPECT_EQ(recorder.imbalance("silkroad_dip_active_conns", "nope").dips, 0u);
}

TEST(TimeSeriesRecorder, ImbalanceFromCounterDeltasNeedsTwoSamples) {
  MetricsRegistry registry;
  Counter* a =
      registry.counter("silkroad_dip_new_conns_total", "", "dip=\"a\",vip=\"V\"");
  Counter* b =
      registry.counter("silkroad_dip_new_conns_total", "", "dip=\"b\",vip=\"V\"");
  a->inc(100);
  b->inc(100);
  TimeSeriesRecorder recorder(registry);
  recorder.sample(sim::kSecond);
  // One sample: counters have no interval delta yet — no imbalance point.
  EXPECT_TRUE(recorder
                  .find("silkroad_dip_new_conns_total:imbalance_maxmean",
                        "vip=\"V\"")
                  .empty());
  // Second interval: a gains 30, b gains 10 — the imbalance is the *new*
  // connection skew of that interval, not of the since-boot totals.
  a->inc(30);
  b->inc(10);
  recorder.sample(2 * sim::kSecond);
  const auto stat = recorder.imbalance("silkroad_dip_new_conns_total", "V");
  EXPECT_EQ(stat.dips, 2u);
  EXPECT_DOUBLE_EQ(stat.mean, 20.0);
  EXPECT_DOUBLE_EQ(stat.max_mean, 1.5);
}

TEST(TimeSeriesRecorder, ImbalanceJsonRendersLatestAndWindow) {
  MetricsRegistry registry;
  Gauge* hot =
      registry.gauge("silkroad_dip_active_conns", "", "dip=\"a\",vip=\"V\"");
  registry.gauge("silkroad_dip_active_conns", "", "dip=\"b\",vip=\"V\"")
      ->set(10);
  TimeSeriesRecorder recorder(registry);
  hot->set(10);
  recorder.sample(sim::kSecond);
  hot->set(30);
  recorder.sample(2 * sim::kSecond);

  const std::string json = recorder.imbalance_json();
  EXPECT_NE(json.find("\"metric\":\"silkroad_dip_active_conns\""),
            std::string::npos);
  EXPECT_NE(json.find("\"vip\":\"V\""), std::string::npos);
  EXPECT_NE(json.find("\"max_mean\":1.5"), std::string::npos);  // latest
  EXPECT_NE(json.find("\"window\""), std::string::npos);
  EXPECT_NE(json.find("\"points\":2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// /profile exporter
// ---------------------------------------------------------------------------

TEST(Exporters, ProfileJsonHasQuantilesOfNonEmptyHistograms) {
  MetricsRegistry registry;
  Histogram* lat = registry.histogram("p_latency_ns", "", "stage=\"s\"");
  for (std::uint64_t v = 1; v <= 1000; ++v) lat->record(v);
  registry.histogram("empty_lat");  // count 0 — must be skipped
  registry.counter("unrelated_total")->inc(5);

  const std::string json = to_profile_json(registry.snapshot());
  EXPECT_NE(json.find("\"name\":\"p_latency_ns\""), std::string::npos);
  for (const char* q : {"\"p50\":", "\"p90\":", "\"p99\":", "\"p999\":"}) {
    EXPECT_NE(json.find(q), std::string::npos) << q;
  }
  EXPECT_EQ(json.find("empty_lat"), std::string::npos);
  EXPECT_EQ(json.find("unrelated_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Switch integration: per-DIP telemetry and /profile
// ---------------------------------------------------------------------------

TEST(SwitchTelemetry, PerDipCountersTrackLearnsAndFinsDrainGauges) {
  sim::Simulator sim;
  core::SilkRoadSwitch sw(sim, small_config());
  const auto dips = make_dips(4);
  sw.add_vip(vip_ep(), dips);
  constexpr std::uint32_t kFlows = 120;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    sw.process_packet(packet_of(i, true));
  }
  sim.run();

  const auto sum_over_dips = [&](const std::string& name) {
    double sum = 0;
    for (const auto& sample : sw.metrics().snapshot().samples) {
      if (sample.name == name) sum += sample.value;
    }
    return sum;
  };
  // Every learned flow was attributed to exactly one DIP.
  EXPECT_EQ(sum_over_dips("silkroad_dip_new_conns_total"),
            static_cast<double>(kFlows));
  EXPECT_EQ(sum_over_dips("silkroad_dip_active_conns"),
            static_cast<double>(kFlows));

  // FINs release the connections; the active gauges must drain to zero
  // while the monotone new-conn counters keep their totals.
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    auto fin = packet_of(i, false);
    fin.fin = true;
    sw.process_packet(fin);
  }
  sim.run();
  EXPECT_EQ(sum_over_dips("silkroad_dip_active_conns"), 0.0);
  EXPECT_EQ(sum_over_dips("silkroad_dip_new_conns_total"),
            static_cast<double>(kFlows));
}

TEST(SwitchTelemetry, ProfileJsonServesExactPacketLatency) {
  sim::Simulator sim;
  const auto config = small_config();
  core::SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(4));
  constexpr std::uint32_t kFlows = 50;
  constexpr std::uint32_t kRounds = 8;  // one SYN round, then data packets
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    for (std::uint32_t i = 0; i < kFlows; ++i) {
      sw.process_packet(packet_of(i, round == 0));
    }
    sim.run();
  }

  const Snapshot snap = sw.metrics().snapshot();
  // Nothing took the redirect path, so every packet was charged exactly
  // the pipeline latency.
  ASSERT_EQ(snap.value_of("silkroad_syn_false_positives_total"), 0.0);
  ASSERT_EQ(snap.value_of("silkroad_transit_false_positives_total"), 0.0);
  ASSERT_EQ(snap.value_of("silkroad_software_fallback_total"), 0.0);
  const double packets = snap.value_of("silkroad_packets_total");
  ASSERT_EQ(packets, static_cast<double>(kFlows * kRounds));
  const double pipeline_ns =
      static_cast<double>(core::SilkRoadSwitch::kPipelineLatency);
  ASSERT_EQ(pipeline_ns, 400.0);

  const std::string json = to_profile_json(snap);
  const std::string entry =
      "{\"name\":\"silkroad_packet_latency_ns\",\"labels\":\"\",\"count\":" +
      format_number(packets) + ",\"sum\":" +
      format_number(packets * pipeline_ns) + ",\"mean\":400,";
  EXPECT_NE(json.find(entry), std::string::npos) << json;
  EXPECT_EQ(json.find("\"sampling\""), std::string::npos);
}

TEST(SwitchTelemetry, TelemetryOffLeavesDataPlaneSeriesSilent) {
  sim::Simulator sim;
  auto config = small_config();
  config.data_plane_telemetry = false;
  core::SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(4));
  for (std::uint32_t i = 0; i < 200; ++i) {
    sw.process_packet(packet_of(i, true));
  }
  sim.run();

  const Snapshot snap = sw.metrics().snapshot();
  for (const auto& sample : snap.samples) {
    EXPECT_NE(sample.name, "silkroad_dip_new_conns_total");
    EXPECT_NE(sample.name, "silkroad_dip_active_conns");
  }
  // The base packet counters are unconditional — telemetry off only
  // disables the *added* profiling layers.
  EXPECT_GT(snap.value_of("silkroad_packets_total"), 0.0);
}

TEST(SlbTelemetry, BindMetricsCountsPacketsPinsAndHits) {
  MetricsRegistry registry;
  lb::SoftwareLoadBalancer slb;
  slb.bind_metrics(registry);
  slb.add_vip(vip_ep(), make_dips(4));
  for (std::uint32_t i = 0; i < 50; ++i) {
    slb.process_packet(packet_of(i, true));   // pin
    slb.process_packet(packet_of(i, false));  // hit
  }
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("silkroad_slb_packets_total"), 100.0);
  EXPECT_EQ(snap.value_of("silkroad_slb_new_conns_total"), 50.0);
  EXPECT_EQ(snap.value_of("silkroad_slb_conn_table_hits_total"), 50.0);
}

}  // namespace
}  // namespace silkroad::obs
