#include "obs/capacity.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "check/sr_check.h"
#include "obs/exporters.h"

namespace silkroad::obs {

namespace {

/// Each raised level's enter and exit thresholds, indexed by CapacityLevel.
constexpr double kEnter[] = {0, ResourceLedger::kWatchEnter,
                             ResourceLedger::kPressureEnter,
                             ResourceLedger::kCriticalEnter};
constexpr double kExit[] = {0, ResourceLedger::kWatchExit,
                            ResourceLedger::kPressureExit,
                            ResourceLedger::kCriticalExit};

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

ResourceLedger::ResourceLedger(const std::vector<std::string>& table_names,
                               const Source& source, TraceRing* trace)
    : source_(source), trace_(trace) {
  tables_.reserve(table_names.size());
  for (const std::string& name : table_names) {
    Table& table = tables_.emplace_back();
    table.name = name;
    if (trace_ != nullptr) table.trace_scope = trace_->intern(name);
    table.history.reserve(kHistory);
  }
}

void ResourceLedger::bind_metrics(MetricsRegistry& registry) {
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    const std::string labels = "table=\"" + tables_[i].name + "\"";
    registry.register_callback(
        "silkroad_capacity_occupancy", MetricKind::kGauge,
        [this, i] { return source_.table_occupancy(i); },
        "Live fill fraction of the table (0..1)", labels);
    registry.register_callback(
        "silkroad_capacity_used_entries", MetricKind::kGauge,
        [this, i] {
          return static_cast<double>(source_.table_usage(i, false).entries);
        },
        "Live entries installed in the table", labels);
    registry.register_callback(
        "silkroad_capacity_headroom_entries", MetricKind::kGauge,
        [this, i] {
          return static_cast<double>(
              source_.table_usage(i, false).headroom_entries());
        },
        "Entries still insertable before the table is full", labels);
    registry.register_callback(
        "silkroad_capacity_used_bytes", MetricKind::kGauge,
        [this, i] {
          return static_cast<double>(source_.table_usage(i, false).bytes);
        },
        "Live SRAM bytes the table occupies", labels);
    registry.register_callback(
        "silkroad_capacity_fragmentation", MetricKind::kGauge,
        [this, i] {
          return fragmentation_of(source_.table_usage(i, true).stages);
        },
        "Occupancy spread between fullest and emptiest stage (0 = even)",
        labels);
    registry.register_callback(
        "silkroad_capacity_alarm_level", MetricKind::kGauge,
        [this, i] { return static_cast<double>(tables_[i].level); },
        "Capacity alarm level as of the last poll (0=ok..3=critical)", labels);
    registry.register_callback(
        "silkroad_capacity_alarm_transitions_total", MetricKind::kCounter,
        [this, i] { return static_cast<double>(tables_[i].transitions); },
        "Alarm level crossings (raise + clear) since start", labels);
    registry.register_callback(
        "silkroad_capacity_exhaustion_s", MetricKind::kGauge,
        [this, i] {
          const CapacityForecast f = forecast(i);
          return f.valid ? f.seconds_to_full : -1.0;
        },
        "Straight-line seconds until the table is full (-1 = not filling)",
        labels);
  }
}

const ResourceLedger::Table& ResourceLedger::table_at(std::size_t table) const {
  SR_CHECKF(table < tables_.size(), "capacity: no table %zu", table);
  return tables_[table];
}

void ResourceLedger::run_alarm(Table& table, double occupancy) {
  // Hysteresis: raise through every enter threshold occupancy clears, then
  // lower while at or below the current level's exit threshold. One trace
  // event per level crossed — a sample hovering inside a band changes
  // nothing (same idiom as the switch's degraded-mode gate).
  const auto move_to = [&](std::size_t to, EventKind kind) {
    table.level = static_cast<CapacityLevel>(to);
    ++table.transitions;
    ++transitions_;
    if (trace_ != nullptr) {
      trace_->record(kind, table.trace_scope, kNoVersion, 0, to,
                     static_cast<std::uint64_t>(occupancy * 10000));
    }
  };
  const auto rank = [&table] { return static_cast<std::size_t>(table.level); };
  while (table.level < CapacityLevel::kCritical &&
         occupancy >= kEnter[rank() + 1]) {
    move_to(rank() + 1, EventKind::kCapacityAlarmRaise);
  }
  while (table.level > CapacityLevel::kOk && occupancy <= kExit[rank()]) {
    move_to(rank() - 1, EventKind::kCapacityAlarmClear);
  }
}

void ResourceLedger::poll(sim::Time now) {
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    Table& table = tables_[i];
    const double occupancy = source_.table_occupancy(i);
    auto& history = table.history;
    if (!history.empty() && history.back().first == now) {
      history.back().second = occupancy;
    } else {
      if (history.size() == kHistory) history.erase(history.begin());
      history.emplace_back(now, occupancy);
    }
    run_alarm(table, occupancy);
  }
}

CapacityLevel ResourceLedger::level(std::size_t table) const {
  return table_at(table).level;
}

std::uint64_t ResourceLedger::transitions(std::size_t table) const {
  return table_at(table).transitions;
}

CapacityLevel ResourceLedger::worst_level() const {
  CapacityLevel worst = CapacityLevel::kOk;
  for (const auto& table : tables_) {
    worst = std::max(worst, table.level);
  }
  return worst;
}

CapacityForecast ResourceLedger::forecast(std::size_t table) const {
  return linear_forecast(table_at(table).history, kForecastMinSamples);
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

double ResourceLedger::fragmentation_of(
    const std::vector<TableUsage::Stage>& stages) {
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

std::string ResourceLedger::to_text() const {
  std::string out;
  append(out, "=== silkroad capacity ledger ===\n");
  append(out, "%-18s %-9s %7s %22s %12s %6s %12s\n", "table", "level", "occ",
         "used/capacity", "bytes", "frag", "exhaustion");
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    const Table& table = tables_[i];
    const TableUsage usage = source_.table_usage(i, /*with_stages=*/true);
    const CapacityForecast forecast =
        linear_forecast(table.history, kForecastMinSamples);
    char used_cap[32];
    if (usage.capacity_entries > 0) {
      std::snprintf(used_cap, sizeof used_cap, "%" PRIu64 "/%" PRIu64,
                    usage.entries, usage.capacity_entries);
    } else {
      std::snprintf(used_cap, sizeof used_cap, "%" PRIu64, usage.entries);
    }
    char exhaustion[24];
    if (forecast.valid && forecast.seconds_to_full >= 0) {
      std::snprintf(exhaustion, sizeof exhaustion, "%.1fs",
                    forecast.seconds_to_full);
    } else {
      std::snprintf(exhaustion, sizeof exhaustion, "-");
    }
    append(out, "%-18s %-9s %6.1f%% %22s %10" PRIu64 " B %6.2f %12s\n",
           table.name.c_str(), to_string(table.level), usage.occupancy * 100,
           used_cap, usage.bytes, fragmentation_of(usage.stages), exhaustion);
    if (!usage.pressures.empty()) {
      append(out, "  pressure:");
      for (const auto& [name, value] : usage.pressures) {
        append(out, " %s=%" PRIu64, name, value);
      }
      out += "\n";
    }
    if (!usage.stages.empty()) {
      append(out, "  stages:");
      for (const auto& stage : usage.stages) {
        const double occ =
            stage.capacity == 0 ? 0.0
                                : static_cast<double>(stage.used) /
                                      static_cast<double>(stage.capacity);
        append(out, " s%u=%.1f%%", stage.stage, occ * 100);
      }
      out += "\n";
    }
  }
  const std::vector<VipUsage> vips = source_.vip_usage();
  if (!vips.empty()) {
    append(out, "per-VIP attribution:\n");
    for (const auto& vip : vips) {
      append(out, "  %-22s entries=%-8" PRIu64 " bytes=%" PRIu64 "\n",
             vip.vip.c_str(), vip.entries, vip.bytes);
    }
  }
  append(out, "alarm transitions: %" PRIu64 " (worst level: %s)\n",
         transitions_, to_string(worst_level()));
  return out;
}

std::string ResourceLedger::to_json() const {
  std::string out = "{\"tables\":[";
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (i > 0) out += ",";
    const Table& table = tables_[i];
    const TableUsage usage = source_.table_usage(i, /*with_stages=*/true);
    const CapacityForecast forecast =
        linear_forecast(table.history, kForecastMinSamples);
    append(out,
           "\n  {\"name\":\"%s\",\"level\":\"%s\",\"occupancy\":%s,"
           "\"entries\":%" PRIu64 ",\"capacity_entries\":%" PRIu64
           ",\"headroom_entries\":%" PRIu64 ",\"bytes\":%" PRIu64
           ",\"fragmentation\":%s,\"alarm_transitions\":%" PRIu64,
           json_escape(table.name).c_str(), to_string(table.level),
           format_number(usage.occupancy).c_str(), usage.entries,
           usage.capacity_entries, usage.headroom_entries(), usage.bytes,
           format_number(fragmentation_of(usage.stages)).c_str(),
           table.transitions);
    append(out,
           ",\"forecast\":{\"valid\":%s,\"slope_per_s\":%s,"
           "\"seconds_to_full\":%s}",
           forecast.valid ? "true" : "false",
           format_number(forecast.slope_per_s).c_str(),
           format_number(forecast.seconds_to_full).c_str());
    out += ",\"pressure\":{";
    const char* sep = "";
    for (const auto& [name, value] : usage.pressures) {
      append(out, "%s\"%s\":%" PRIu64, sep, json_escape(name).c_str(), value);
      sep = ",";
    }
    out += "}";
    if (!usage.stages.empty()) {
      out += ",\"stages\":[";
      sep = "";
      for (const auto& stage : usage.stages) {
        append(out,
               "%s{\"stage\":%u,\"used\":%" PRIu64 ",\"capacity\":%" PRIu64
               "}",
               sep, stage.stage, stage.used, stage.capacity);
        sep = ",";
      }
      out += "]";
    }
    out += "}";
  }
  out += "\n],\"vips\":[";
  const char* sep = "";
  for (const auto& vip : source_.vip_usage()) {
    append(out,
           "%s\n  {\"vip\":\"%s\",\"entries\":%" PRIu64 ",\"bytes\":%" PRIu64
           "}",
           sep, json_escape(vip.vip).c_str(), vip.entries, vip.bytes);
    sep = ",";
  }
  append(out, "\n],\"alarm_transitions_total\":%" PRIu64
              ",\"worst_level\":\"%s\"}\n",
         transitions_, to_string(worst_level()));
  return out;
}

}  // namespace silkroad::obs
