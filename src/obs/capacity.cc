#include "obs/capacity.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "check/sr_check.h"
#include "obs/exporters.h"

namespace silkroad::obs {

namespace {

double enter_threshold(CapacityLevel level) {
  switch (level) {
    case CapacityLevel::kWatch: return ResourceLedger::kWatchEnter;
    case CapacityLevel::kPressure: return ResourceLedger::kPressureEnter;
    case CapacityLevel::kCritical: return ResourceLedger::kCriticalEnter;
    case CapacityLevel::kOk: break;
  }
  return 0;
}

double exit_threshold(CapacityLevel level) {
  switch (level) {
    case CapacityLevel::kWatch: return ResourceLedger::kWatchExit;
    case CapacityLevel::kPressure: return ResourceLedger::kPressureExit;
    case CapacityLevel::kCritical: return ResourceLedger::kCriticalExit;
    case CapacityLevel::kOk: break;
  }
  return 0;
}

}  // namespace

const char* to_string(CapacityLevel level) noexcept {
  switch (level) {
    case CapacityLevel::kOk: return "ok";
    case CapacityLevel::kWatch: return "watch";
    case CapacityLevel::kPressure: return "pressure";
    case CapacityLevel::kCritical: return "critical";
  }
  return "unknown";
}

const ResourceLedger::Table* ResourceLedger::find_table(
    const std::string& name) const {
  for (const auto& table : tables_) {
    if (table.name == name) return &table;
  }
  return nullptr;
}

ResourceLedger::Table* ResourceLedger::find_table(const std::string& name) {
  for (auto& table : tables_) {
    if (table.name == name) return &table;
  }
  return nullptr;
}

std::size_t ResourceLedger::register_table(const std::string& name,
                                           TableProbe probe) {
  SR_CHECK(probe.entries != nullptr);
  SR_CHECK(probe.bytes != nullptr);
  if (Table* existing = find_table(name)) {
    existing->probe = std::move(probe);
    return static_cast<std::size_t>(existing - tables_.data());
  }
  Table table;
  table.name = name;
  table.probe = std::move(probe);
  if (trace_ != nullptr) table.trace_scope = trace_->intern(name);
  tables_.push_back(std::move(table));
  const std::size_t index = tables_.size() - 1;
  if (registry_ != nullptr) publish_table_metrics(index);
  return index;
}

void ResourceLedger::add_pressure(const std::string& table_name,
                                  const std::string& name,
                                  std::function<std::uint64_t()> value) {
  Table* table = find_table(table_name);
  SR_CHECKF(table != nullptr, "capacity: unknown table '%s'",
            table_name.c_str());
  for (auto& pressure : table->pressures) {
    if (pressure.name == name) {
      pressure.value = std::move(value);
      return;
    }
  }
  table->pressures.push_back({name, std::move(value)});
}

void ResourceLedger::register_vip(const std::string& vip,
                                  std::function<std::uint64_t()> entries,
                                  std::function<std::uint64_t()> bytes) {
  for (auto& existing : vips_) {
    if (existing.vip == vip) {
      existing.entries = std::move(entries);
      existing.bytes = std::move(bytes);
      return;
    }
  }
  vips_.push_back({vip, std::move(entries), std::move(bytes)});
  if (registry_ != nullptr) publish_vip_metrics(vips_.size() - 1);
}

void ResourceLedger::bind_trace(TraceRing* ring) {
  trace_ = ring;
  if (trace_ == nullptr) return;
  for (auto& table : tables_) {
    table.trace_scope = trace_->intern(table.name);
  }
}

void ResourceLedger::bind_metrics(MetricsRegistry& registry) {
  registry_ = &registry;
  for (std::size_t i = 0; i < tables_.size(); ++i) publish_table_metrics(i);
  for (std::size_t i = 0; i < vips_.size(); ++i) publish_vip_metrics(i);
}

double ResourceLedger::sample_occupancy(const Table& table) const {
  if (table.probe.occupancy) return table.probe.occupancy();
  if (table.probe.capacity_entries) {
    const std::uint64_t capacity = table.probe.capacity_entries();
    if (capacity > 0) {
      return static_cast<double>(table.probe.entries()) /
             static_cast<double>(capacity);
    }
  }
  if (table.probe.capacity_bytes) {
    const std::uint64_t budget = table.probe.capacity_bytes();
    if (budget > 0) {
      return static_cast<double>(table.probe.bytes()) /
             static_cast<double>(budget);
    }
  }
  return 0;
}

void ResourceLedger::run_alarm(Table& table, double occupancy) {
  // Hysteresis: raise through every enter threshold occupancy clears, then
  // lower while at or below the current level's exit threshold. One trace
  // event per level crossed — a sample hovering inside a band changes
  // nothing (same idiom as the switch's degraded-mode gate).
  while (table.level < CapacityLevel::kCritical) {
    const auto next =
        static_cast<CapacityLevel>(static_cast<std::uint8_t>(table.level) + 1);
    if (occupancy < enter_threshold(next)) break;
    table.level = next;
    ++table.transitions;
    ++transitions_;
    if (trace_ != nullptr) {
      trace_->record(EventKind::kCapacityAlarmRaise, table.trace_scope,
                     kNoVersion, 0, static_cast<std::uint64_t>(table.level),
                     static_cast<std::uint64_t>(occupancy * 10000));
    }
  }
  while (table.level > CapacityLevel::kOk &&
         occupancy <= exit_threshold(table.level)) {
    table.level =
        static_cast<CapacityLevel>(static_cast<std::uint8_t>(table.level) - 1);
    ++table.transitions;
    ++transitions_;
    if (trace_ != nullptr) {
      trace_->record(EventKind::kCapacityAlarmClear, table.trace_scope,
                     kNoVersion, 0, static_cast<std::uint64_t>(table.level),
                     static_cast<std::uint64_t>(occupancy * 10000));
    }
  }
}

void ResourceLedger::poll(sim::Time now) {
  for (auto& table : tables_) {
    const double occupancy = sample_occupancy(table);
    table.last_occupancy = occupancy;
    if (!table.history.empty() && table.history.back().first == now) {
      table.history.back().second = occupancy;
    } else {
      table.history.emplace_back(now, occupancy);
      while (table.history.size() > kHistory) {
        table.history.pop_front();
      }
    }
    run_alarm(table, occupancy);
  }
  polled_ = true;
  last_poll_ = now;
}

CapacityLevel ResourceLedger::level(const std::string& name) const {
  const Table* table = find_table(name);
  SR_CHECKF(table != nullptr, "capacity: unknown table '%s'", name.c_str());
  return table->level;
}

std::uint64_t ResourceLedger::transitions(const std::string& name) const {
  const Table* table = find_table(name);
  SR_CHECKF(table != nullptr, "capacity: unknown table '%s'", name.c_str());
  return table->transitions;
}

CapacityLevel ResourceLedger::worst_level() const {
  CapacityLevel worst = CapacityLevel::kOk;
  for (const auto& table : tables_) {
    worst = std::max(worst, table.level);
  }
  return worst;
}

CapacityForecast ResourceLedger::forecast(const std::string& name) const {
  const Table* table = find_table(name);
  SR_CHECKF(table != nullptr, "capacity: unknown table '%s'", name.c_str());
  const std::vector<std::pair<sim::Time, double>> points(
      table->history.begin(), table->history.end());
  return linear_forecast(points, kForecastMinSamples);
}

CapacityForecast ResourceLedger::linear_forecast(
    const std::vector<std::pair<sim::Time, double>>& points,
    std::size_t min_samples) {
  CapacityForecast out;
  if (points.empty()) return out;
  out.occupancy = points.back().second;
  if (points.size() < std::max<std::size_t>(min_samples, 2)) return out;
  if (points.back().first <= points.front().first) return out;

  // Least-squares slope of occupancy over seconds, anchored at the window
  // start to keep the sums small.
  const double t0 = sim::to_seconds(points.front().first);
  double sum_t = 0, sum_y = 0, sum_tt = 0, sum_ty = 0;
  for (const auto& [at, value] : points) {
    const double t = sim::to_seconds(at) - t0;
    sum_t += t;
    sum_y += value;
    sum_tt += t * t;
    sum_ty += t * value;
  }
  const double n = static_cast<double>(points.size());
  const double denom = n * sum_tt - sum_t * sum_t;
  if (denom <= 0) return out;
  out.valid = true;
  out.slope_per_s = (n * sum_ty - sum_t * sum_y) / denom;
  if (out.occupancy >= 1.0) {
    out.seconds_to_full = 0;
  } else if (out.slope_per_s > 1e-12) {
    out.seconds_to_full = (1.0 - out.occupancy) / out.slope_per_s;
  }
  return out;
}

double ResourceLedger::fragmentation_of(const std::vector<StageUsage>& stages) {
  // Stage skew: the spread between the fullest and emptiest stage's
  // occupancy. A skewed cuckoo table fails inserts well before its global
  // occupancy says it should, so this is the "wasted headroom" gauge.
  double lo = 1.0, hi = 0.0;
  std::size_t counted = 0;
  for (const auto& stage : stages) {
    if (stage.capacity == 0) continue;
    const double occ = static_cast<double>(stage.used) /
                       static_cast<double>(stage.capacity);
    lo = std::min(lo, occ);
    hi = std::max(hi, occ);
    ++counted;
  }
  return counted < 2 ? 0.0 : hi - lo;
}

void ResourceLedger::publish_table_metrics(std::size_t index) {
  const std::string labels = "table=\"" + tables_[index].name + "\"";
  auto& registry = *registry_;
  registry.register_callback(
      "silkroad_capacity_occupancy", MetricKind::kGauge,
      [this, index] { return sample_occupancy(tables_[index]); },
      "Live fill fraction of the table (0..1)", labels);
  registry.register_callback(
      "silkroad_capacity_used_entries", MetricKind::kGauge,
      [this, index] {
        return static_cast<double>(tables_[index].probe.entries());
      },
      "Live entries installed in the table", labels);
  registry.register_callback(
      "silkroad_capacity_headroom_entries", MetricKind::kGauge,
      [this, index] {
        const auto& probe = tables_[index].probe;
        if (!probe.capacity_entries) return 0.0;
        const std::uint64_t capacity = probe.capacity_entries();
        const std::uint64_t used = probe.entries();
        return capacity > used ? static_cast<double>(capacity - used) : 0.0;
      },
      "Entries still insertable before the table is full", labels);
  registry.register_callback(
      "silkroad_capacity_used_bytes", MetricKind::kGauge,
      [this, index] {
        return static_cast<double>(tables_[index].probe.bytes());
      },
      "Live SRAM bytes the table occupies", labels);
  registry.register_callback(
      "silkroad_capacity_fragmentation", MetricKind::kGauge,
      [this, index] {
        const auto& probe = tables_[index].probe;
        return probe.stages ? fragmentation_of(probe.stages()) : 0.0;
      },
      "Occupancy spread between fullest and emptiest stage (0 = even)",
      labels);
  registry.register_callback(
      "silkroad_capacity_alarm_level", MetricKind::kGauge,
      [this, index] {
        return static_cast<double>(tables_[index].level);
      },
      "Capacity alarm level as of the last poll (0=ok..3=critical)", labels);
  registry.register_callback(
      "silkroad_capacity_alarm_transitions_total", MetricKind::kCounter,
      [this, index] {
        return static_cast<double>(tables_[index].transitions);
      },
      "Alarm level crossings (raise + clear) since start", labels);
  registry.register_callback(
      "silkroad_capacity_exhaustion_s", MetricKind::kGauge,
      [this, index] {
        const std::vector<std::pair<sim::Time, double>> points(
            tables_[index].history.begin(), tables_[index].history.end());
        const CapacityForecast f =
            linear_forecast(points, kForecastMinSamples);
        return f.valid ? f.seconds_to_full : -1.0;
      },
      "Straight-line seconds until the table is full (-1 = not filling)",
      labels);
}

void ResourceLedger::publish_vip_metrics(std::size_t index) {
  const std::string labels = "vip=\"" + vips_[index].vip + "\"";
  auto& registry = *registry_;
  registry.register_callback(
      "silkroad_capacity_vip_entries", MetricKind::kGauge,
      [this, index] {
        return static_cast<double>(vips_[index].entries());
      },
      "Live ConnTable entries attributed to the VIP", labels);
  registry.register_callback(
      "silkroad_capacity_vip_bytes", MetricKind::kGauge,
      [this, index] {
        return static_cast<double>(vips_[index].bytes());
      },
      "SRAM bytes attributed to the VIP (ConnTable share + pool table)",
      labels);
}

std::string ResourceLedger::to_text() const {
  std::string out;
  append(out, "=== silkroad capacity ledger ===\n");
  append(out, "%-18s %-9s %7s %22s %12s %6s %12s\n", "table", "level", "occ",
         "used/capacity", "bytes", "frag", "exhaustion");
  for (const auto& table : tables_) {
    const double occupancy = sample_occupancy(table);
    const std::uint64_t entries = table.probe.entries();
    const std::uint64_t capacity =
        table.probe.capacity_entries ? table.probe.capacity_entries() : 0;
    const double fragmentation =
        table.probe.stages ? fragmentation_of(table.probe.stages()) : 0.0;
    const std::vector<std::pair<sim::Time, double>> points(
        table.history.begin(), table.history.end());
    const CapacityForecast forecast =
        linear_forecast(points, kForecastMinSamples);
    char used_cap[32];
    if (capacity > 0) {
      std::snprintf(used_cap, sizeof used_cap, "%" PRIu64 "/%" PRIu64, entries,
                    capacity);
    } else {
      std::snprintf(used_cap, sizeof used_cap, "%" PRIu64, entries);
    }
    char exhaustion[24];
    if (forecast.valid && forecast.seconds_to_full >= 0) {
      std::snprintf(exhaustion, sizeof exhaustion, "%.1fs",
                    forecast.seconds_to_full);
    } else {
      std::snprintf(exhaustion, sizeof exhaustion, "-");
    }
    append(out, "%-18s %-9s %6.1f%% %22s %10" PRIu64 " B %6.2f %12s\n",
           table.name.c_str(), to_string(table.level), occupancy * 100,
           used_cap, table.probe.bytes(), fragmentation, exhaustion);
    if (!table.pressures.empty()) {
      append(out, "  pressure:");
      for (const auto& pressure : table.pressures) {
        append(out, " %s=%" PRIu64, pressure.name.c_str(), pressure.value());
      }
      out += "\n";
    }
    if (table.probe.stages) {
      const auto stages = table.probe.stages();
      if (!stages.empty()) {
        append(out, "  stages:");
        for (const auto& stage : stages) {
          const double occ =
              stage.capacity == 0
                  ? 0.0
                  : static_cast<double>(stage.used) /
                        static_cast<double>(stage.capacity);
          append(out, " s%u=%.1f%%", stage.stage, occ * 100);
        }
        out += "\n";
      }
    }
  }
  if (!vips_.empty()) {
    append(out, "per-VIP attribution:\n");
    for (const auto& vip : vips_) {
      append(out, "  %-22s entries=%-8" PRIu64 " bytes=%" PRIu64 "\n",
             vip.vip.c_str(), vip.entries(), vip.bytes());
    }
  }
  append(out, "alarm transitions: %" PRIu64 " (worst level: %s)\n",
         transitions_, to_string(worst_level()));
  return out;
}

std::string ResourceLedger::to_json() const {
  std::string out = "{\"tables\":[";
  bool first_table = true;
  for (const auto& table : tables_) {
    if (!first_table) out += ",";
    first_table = false;
    const std::uint64_t capacity =
        table.probe.capacity_entries ? table.probe.capacity_entries() : 0;
    const std::uint64_t entries = table.probe.entries();
    const std::vector<std::pair<sim::Time, double>> points(
        table.history.begin(), table.history.end());
    const CapacityForecast forecast =
        linear_forecast(points, kForecastMinSamples);
    append(out,
           "\n  {\"name\":\"%s\",\"level\":\"%s\",\"occupancy\":%s,"
           "\"entries\":%" PRIu64 ",\"capacity_entries\":%" PRIu64
           ",\"headroom_entries\":%" PRIu64 ",\"bytes\":%" PRIu64
           ",\"fragmentation\":%s,\"alarm_transitions\":%" PRIu64,
           json_escape(table.name).c_str(), to_string(table.level),
           format_number(sample_occupancy(table)).c_str(), entries, capacity,
           capacity > entries ? capacity - entries : 0, table.probe.bytes(),
           format_number(table.probe.stages
                             ? fragmentation_of(table.probe.stages())
                             : 0.0)
               .c_str(),
           table.transitions);
    append(out,
           ",\"forecast\":{\"valid\":%s,\"slope_per_s\":%s,"
           "\"seconds_to_full\":%s}",
           forecast.valid ? "true" : "false",
           format_number(forecast.slope_per_s).c_str(),
           format_number(forecast.seconds_to_full).c_str());
    out += ",\"pressure\":{";
    bool first_pressure = true;
    for (const auto& pressure : table.pressures) {
      if (!first_pressure) out += ",";
      first_pressure = false;
      append(out, "\"%s\":%" PRIu64, json_escape(pressure.name).c_str(),
             pressure.value());
    }
    out += "}";
    if (table.probe.stages) {
      out += ",\"stages\":[";
      bool first_stage = true;
      for (const auto& stage : table.probe.stages()) {
        if (!first_stage) out += ",";
        first_stage = false;
        append(out, "{\"stage\":%u,\"used\":%" PRIu64 ",\"capacity\":%" PRIu64
                    "}",
               stage.stage, stage.used, stage.capacity);
      }
      out += "]";
    }
    out += "}";
  }
  out += "\n],\"vips\":[";
  bool first_vip = true;
  for (const auto& vip : vips_) {
    if (!first_vip) out += ",";
    first_vip = false;
    append(out, "\n  {\"vip\":\"%s\",\"entries\":%" PRIu64 ",\"bytes\":%" PRIu64
                "}",
           json_escape(vip.vip).c_str(), vip.entries(), vip.bytes());
  }
  append(out, "\n],\"alarm_transitions_total\":%" PRIu64
              ",\"worst_level\":\"%s\"}\n",
         transitions_, to_string(worst_level()));
  return out;
}

}  // namespace silkroad::obs
