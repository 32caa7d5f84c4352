// SRAM capacity ledger tests (DESIGN.md §15).
//
// Three concerns: (1) reconciliation — the live ledger, the switch's
// MemoryUsage auditor view, and the static Fig. 12 formulas in
// core/memory_model.h must agree on the ConnTable and TransitTable bytes,
// so the runtime telemetry can never drift from the sizing math; (2) the
// alarm state machine — hysteresis yields exactly one trace event per true
// threshold crossing, never a flap, and a poll reads occupancy only; (3) the
// exhaustion forecast and the rendered /capacity(.json) documents.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/memory_model.h"
#include "core/silkroad_switch.h"
#include "obs/capacity.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace silkroad {
namespace {

net::Packet syn_packet(const net::Endpoint& vip, std::uint32_t client) {
  net::Packet packet;
  packet.flow = {{net::IpAddress::v4(0x0a000000u + client), 40000},
                 vip,
                 net::Protocol::kTcp};
  packet.syn = true;
  packet.size_bytes = 64;
  return packet;
}

std::vector<net::Endpoint> four_dips() {
  return {*net::Endpoint::parse("10.0.0.1:8080"),
          *net::Endpoint::parse("10.0.0.2:8080"),
          *net::Endpoint::parse("10.0.0.3:8080"),
          *net::Endpoint::parse("10.0.0.4:8080")};
}

double gauge(const obs::Snapshot& snap, const char* name,
             const std::string& labels) {
  return snap.value_of(name, labels, -1.0);
}

/// A one-table Source whose occupancy the test sets; it counts its reads.
class FakeSource : public obs::ResourceLedger::Source {
 public:
  double occupancy = 0;
  mutable std::size_t occupancy_reads = 0;
  mutable std::size_t usage_reads = 0;
  mutable std::size_t vip_reads = 0;

  double table_occupancy(std::size_t) const override {
    ++occupancy_reads;
    return occupancy;
  }
  obs::TableUsage table_usage(std::size_t, bool) const override {
    ++usage_reads;
    obs::TableUsage usage;
    usage.occupancy = occupancy;
    return usage;
  }
  std::vector<obs::VipUsage> vip_usage() const override {
    ++vip_reads;
    return {};
  }
};

// ---------------------------------------------------------------------------
// Reconciliation: ledger == MemoryUsage auditor == Fig. 12 formulas
// ---------------------------------------------------------------------------

TEST(CapacityLedger, ReconcilesWithStaticModels) {
  sim::Simulator sim;
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(100'000);
  core::SilkRoadSwitch sw(sim, config);

  const net::Endpoint vip = *net::Endpoint::parse("20.0.0.1:80");
  sw.add_vip(vip, four_dips());
  for (std::uint32_t client = 0; client < 512; ++client) {
    sw.process_packet(syn_packet(vip, client));
  }
  sim.run();  // drain learning + insertion so every entry is installed

  const auto usage = sw.memory_usage();
  const obs::Snapshot snap = sw.metrics().snapshot();
  const std::string conn = R"(table="conn_table")";
  const std::string transit = R"(table="transit_table")";
  const std::string pool = R"(table="dip_pool_table")";

  // Live ledger vs the switch's own MemoryUsage auditor.
  EXPECT_EQ(gauge(snap, "silkroad_capacity_used_bytes", conn),
            static_cast<double>(usage.conn_table_bytes));
  EXPECT_EQ(gauge(snap, "silkroad_capacity_used_bytes", pool),
            static_cast<double>(usage.dip_pool_table_bytes));
  EXPECT_EQ(gauge(snap, "silkroad_capacity_used_bytes", transit),
            static_cast<double>(usage.transit_table_bytes));

  // Live ledger vs the Fig. 12 static formulas: the provisioned ConnTable
  // SRAM equals conn_table_bytes() at the paper's 16b digest + 6b version
  // entry, and the transit bloom is the paper's 256 B constant.
  const auto& table = sw.conn_table();
  const core::SilkRoadFootprint fig12 = core::silkroad_footprint(
      table.capacity(), /*dips=*/4, /*versions=*/1, /*ipv6=*/false);
  EXPECT_EQ(static_cast<std::size_t>(
                gauge(snap, "silkroad_capacity_used_bytes", conn)),
            fig12.conn_table);
  EXPECT_EQ(static_cast<std::size_t>(
                gauge(snap, "silkroad_capacity_used_bytes", transit)),
            fig12.transit_table);

  // Entry accounting: used == installed cuckoo entries, headroom closes the
  // gap to capacity, occupancy is their ratio.
  EXPECT_EQ(gauge(snap, "silkroad_capacity_used_entries", conn),
            static_cast<double>(table.size()));
  EXPECT_EQ(gauge(snap, "silkroad_capacity_headroom_entries", conn),
            static_cast<double>(table.capacity() - table.size()));
  EXPECT_NEAR(gauge(snap, "silkroad_capacity_occupancy", conn),
              static_cast<double>(table.size()) /
                  static_cast<double>(table.capacity()),
              1e-9);
  EXPECT_GT(table.size(), 0u);
}

TEST(CapacityLedger, PerVipAttributionSumsToConnTable) {
  sim::Simulator sim;
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(100'000);
  core::SilkRoadSwitch sw(sim, config);

  const net::Endpoint vip_a = *net::Endpoint::parse("20.0.0.1:80");
  const net::Endpoint vip_b = *net::Endpoint::parse("20.0.0.2:443");
  sw.add_vip(vip_a, four_dips());
  sw.add_vip(vip_b, {*net::Endpoint::parse("10.0.1.1:8443"),
                     *net::Endpoint::parse("10.0.1.2:8443")});
  for (std::uint32_t client = 0; client < 300; ++client) {
    sw.process_packet(syn_packet(vip_a, client));
  }
  for (std::uint32_t client = 1000; client < 1200; ++client) {
    sw.process_packet(syn_packet(vip_b, client));
  }
  sim.run();

  const obs::Snapshot snap = sw.metrics().snapshot();
  const double a = gauge(snap, "silkroad_capacity_vip_entries",
                         R"(vip="20.0.0.1:80")");
  const double b = gauge(snap, "silkroad_capacity_vip_entries",
                         R"(vip="20.0.0.2:443")");
  EXPECT_GT(a, 0);
  EXPECT_GT(b, 0);
  EXPECT_EQ(a + b, static_cast<double>(sw.conn_table().size()));

  // Attributed bytes: each VIP owns its entries' word share plus its own
  // pool table; both probes must be live (nonzero once entries exist).
  EXPECT_GT(gauge(snap, "silkroad_capacity_vip_bytes",
                  R"(vip="20.0.0.1:80")"),
            0);
  EXPECT_GT(gauge(snap, "silkroad_capacity_vip_bytes",
                  R"(vip="20.0.0.2:443")"),
            0);
}

// ---------------------------------------------------------------------------
// Alarm hysteresis: exactly one trace event per true crossing
// ---------------------------------------------------------------------------

struct AlarmCounts {
  std::uint64_t raises = 0;
  std::uint64_t clears = 0;
};

AlarmCounts count_alarm_events(const obs::TraceRing& ring) {
  AlarmCounts counts;
  for (const auto& event : ring.events()) {
    if (event.kind == obs::EventKind::kCapacityAlarmRaise) {
      ++counts.raises;
    } else if (event.kind == obs::EventKind::kCapacityAlarmClear) {
      ++counts.clears;
    }
  }
  return counts;
}

TEST(CapacityLedger, AlarmHysteresisOneEventPerCrossing) {
  obs::TraceRing ring(256);
  FakeSource source;
  obs::ResourceLedger ledger({"t"}, source, &ring);
  EXPECT_EQ(ring.find_scope("t").value_or(0), 1u);  // interned up front

  using Level = obs::CapacityLevel;
  const std::vector<std::tuple<double, Level, std::uint64_t>> steps = {
      // occupancy, expected level after poll, expected TOTAL transitions
      {0.50, Level::kOk, 0},        // below every threshold
      {0.71, Level::kWatch, 1},     // crosses watch_enter (0.70)
      {0.69, Level::kWatch, 1},     // inside band (> watch_exit 0.65): no flap
      {0.66, Level::kWatch, 1},     // still inside the band
      {0.65, Level::kOk, 2},        // at watch_exit: one clear
      {0.96, Level::kCritical, 5},  // jumps all three enter thresholds
      {0.91, Level::kCritical, 5},  // above critical_exit (0.90): holds
      {0.90, Level::kPressure, 6},  // one clear
      {0.78, Level::kWatch, 7},     // below pressure_exit, above watch_exit
      {0.10, Level::kOk, 8},        // final clear
  };
  sim::Time now = 0;
  for (const auto& [occupancy, level, transitions] : steps) {
    source.occupancy = occupancy;
    now += sim::kSecond;
    ledger.poll(now);
    EXPECT_EQ(ledger.level(0), level) << "at occupancy " << occupancy;
    EXPECT_EQ(ledger.total_transitions(), transitions)
        << "at occupancy " << occupancy;
  }
  EXPECT_EQ(ledger.transitions(0), 8u);
  EXPECT_EQ(ledger.worst_level(), Level::kOk);

  // The trace ring saw exactly one event per transition: 4 raises (watch,
  // then watch+pressure+critical) and 4 clears.
  const AlarmCounts counts = count_alarm_events(ring);
  EXPECT_EQ(counts.raises, 4u);
  EXPECT_EQ(counts.clears, 4u);

  // Each event's arg0 is the level AFTER the crossing; the first raise
  // lands on kWatch.
  for (const auto& event : ring.events()) {
    if (event.kind == obs::EventKind::kCapacityAlarmRaise) {
      EXPECT_EQ(event.arg0, static_cast<std::uint64_t>(Level::kWatch));
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Exhaustion forecast
// ---------------------------------------------------------------------------

TEST(CapacityLedger, ForecastProjectsLinearFill) {
  std::vector<std::pair<sim::Time, double>> points;
  for (int i = 0; i < 10; ++i) {
    points.emplace_back(static_cast<sim::Time>(i) * sim::kSecond,
                        0.20 + 0.05 * i);
  }
  const auto forecast = obs::ResourceLedger::linear_forecast(points, 8);
  ASSERT_TRUE(forecast.valid);
  EXPECT_NEAR(forecast.occupancy, 0.65, 1e-9);
  EXPECT_NEAR(forecast.slope_per_s, 0.05, 1e-9);
  EXPECT_NEAR(forecast.seconds_to_full, (1.0 - 0.65) / 0.05, 1e-6);
}

TEST(CapacityLedger, ForecastFlatAndShortWindows) {
  std::vector<std::pair<sim::Time, double>> flat;
  for (int i = 0; i < 10; ++i) {
    flat.emplace_back(static_cast<sim::Time>(i) * sim::kSecond, 0.40);
  }
  const auto steady = obs::ResourceLedger::linear_forecast(flat, 8);
  ASSERT_TRUE(steady.valid);
  EXPECT_NEAR(steady.slope_per_s, 0.0, 1e-9);
  EXPECT_EQ(steady.seconds_to_full, -1);  // not filling

  const std::vector<std::pair<sim::Time, double>> few = {
      {0, 0.1}, {sim::kSecond, 0.2}};
  EXPECT_FALSE(obs::ResourceLedger::linear_forecast(few, 8).valid);
}

TEST(CapacityLedger, ForecastThroughPolledHistory) {
  FakeSource source;
  obs::ResourceLedger ledger({"ramp"}, source, nullptr);

  static_assert(obs::ResourceLedger::kForecastMinSamples == 8);
  for (int i = 0; i < 8; ++i) {
    // No forecast until the eighth sample lands.
    EXPECT_FALSE(ledger.forecast(0).valid) << "after " << i << " samples";
    source.occupancy = 0.10 * i;
    ledger.poll(static_cast<sim::Time>(i) * sim::kSecond);
  }
  const auto forecast = ledger.forecast(0);
  ASSERT_TRUE(forecast.valid);
  EXPECT_NEAR(forecast.slope_per_s, 0.10, 1e-9);
  EXPECT_NEAR(forecast.seconds_to_full, (1.0 - 0.70) / 0.10, 1e-6);

  // Re-polling the same timestamp replaces the sample instead of duplicating
  // the time point (keeps the regression well-conditioned).
  source.occupancy = 0.75;
  ledger.poll(7 * sim::kSecond);
  const auto updated = ledger.forecast(0);
  ASSERT_TRUE(updated.valid);
  EXPECT_NEAR(updated.occupancy, 0.75, 1e-9);
}

TEST(CapacityLedger, PollReadsOnlyOccupancy) {
  FakeSource source;
  obs::ResourceLedger ledger({"t"}, source, nullptr);
  // 36 flat samples, then a ramp of 64: the history keeps the last
  // kHistory samples, so the forecast sees the ramp alone.
  static_assert(obs::ResourceLedger::kHistory == 64);
  for (int i = 0; i < 100; ++i) {
    source.occupancy = i < 36 ? 0.5 : 0.5 + 0.001 * (i - 36);
    ledger.poll(static_cast<sim::Time>(i) * sim::kMillisecond);
  }
  EXPECT_EQ(source.occupancy_reads, 100u);
  EXPECT_EQ(source.usage_reads, 0u);
  EXPECT_EQ(source.vip_reads, 0u);
  const auto forecast = ledger.forecast(0);
  ASSERT_TRUE(forecast.valid);
  EXPECT_NEAR(forecast.slope_per_s, 1.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

TEST(CapacityLedger, RendersTextAndJson) {
  sim::Simulator sim;
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(100'000);
  core::SilkRoadSwitch sw(sim, config);
  sw.add_vip(*net::Endpoint::parse("20.0.0.1:80"), four_dips());
  for (std::uint32_t client = 0; client < 64; ++client) {
    sw.process_packet(syn_packet(*net::Endpoint::parse("20.0.0.1:80"),
                                 client));
  }
  sim.run();

  const std::string text = sw.capacity().to_text();
  EXPECT_NE(text.find("silkroad capacity ledger"), std::string::npos);
  EXPECT_NE(text.find("conn_table"), std::string::npos);
  EXPECT_NE(text.find("per-VIP attribution"), std::string::npos);
  EXPECT_NE(text.find("20.0.0.1:80"), std::string::npos);

  const std::string json = sw.capacity().to_json();
  for (const char* needle :
       {R"("name":"conn_table")", R"("name":"transit_table")",
        R"("name":"learning_filter")", R"("name":"dip_pool_table")",
        R"("vip":"20.0.0.1:80")", R"("alarm_transitions_total")",
        R"("forecast")", R"("worst_level")"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  // Structurally balanced (no JSON parser in-tree; brace/bracket discipline
  // plus the needle checks pin the schema).
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.back(), '\n');

  // The debug report embeds the same ledger table.
  EXPECT_NE(sw.debug_report().find("silkroad capacity ledger"),
            std::string::npos);
}

TEST(CapacityLedger, VipRowsAreLiveAndSortedByName) {
  sim::Simulator sim;
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(100'000);
  core::SilkRoadSwitch sw(sim, config);
  // Added in reverse name order.
  sw.add_vip(*net::Endpoint::parse("20.0.0.2:80"), four_dips());
  sw.add_vip(*net::Endpoint::parse("20.0.0.1:80"), four_dips());

  for (const std::string& doc :
       {sw.capacity().to_text(), sw.capacity().to_json()}) {
    const std::size_t first = doc.find("20.0.0.1:80");
    const std::size_t second = doc.find("20.0.0.2:80");
    ASSERT_NE(first, std::string::npos) << doc;
    ASSERT_NE(second, std::string::npos) << doc;
    EXPECT_LT(first, second) << doc;
  }

  // A reset switch holds no VIP until it is provisioned again, and lists
  // none.
  sw.reset();
  EXPECT_EQ(sw.capacity().to_text().find("per-VIP attribution"),
            std::string::npos);
  EXPECT_NE(sw.capacity().to_json().find("\"vips\":[\n]"), std::string::npos)
      << sw.capacity().to_json();
}

}  // namespace
}  // namespace silkroad
