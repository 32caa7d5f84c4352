#include "obs/exporters.h"

#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <vector>

namespace silkroad::obs {

namespace {

std::string series_name(const MetricSample& sample, const char* suffix = "",
                        const std::string& extra_label = "") {
  std::string out = sample.name;
  out += suffix;
  std::string labels = sample.labels;
  if (!extra_label.empty()) {
    if (!labels.empty()) labels += ",";
    labels += extra_label;
  }
  if (!labels.empty()) {
    out += "{";
    out += labels;
    out += "}";
  }
  return out;
}

}  // namespace

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

std::string format_number(double v) {
  char buf[64];
  if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string to_prometheus(const Snapshot& snapshot) {
  std::string out;
  const std::string* last_family = nullptr;
  for (const auto& sample : snapshot.samples) {
    // HELP/TYPE once per family (label variants share the headers).
    if (last_family == nullptr || *last_family != sample.name) {
      if (!sample.help.empty()) {
        append(out, "# HELP %s %s\n", sample.name.c_str(),
               sample.help.c_str());
      }
      append(out, "# TYPE %s %s\n", sample.name.c_str(),
             to_string(sample.kind));
      last_family = &sample.name;
    }
    if (sample.kind == MetricKind::kHistogram) {
      for (const auto& bucket : sample.buckets) {
        append(out, "%s %" PRIu64 "\n",
               series_name(sample, "_bucket",
                           "le=\"" + std::to_string(bucket.upper_bound) + "\"")
                   .c_str(),
               bucket.cumulative_count);
      }
      append(out, "%s %" PRIu64 "\n",
             series_name(sample, "_bucket", "le=\"+Inf\"").c_str(),
             sample.count);
      append(out, "%s %s\n", series_name(sample, "_sum").c_str(),
             format_number(sample.sum).c_str());
      append(out, "%s %" PRIu64 "\n", series_name(sample, "_count").c_str(),
             sample.count);
    } else {
      append(out, "%s %s\n", series_name(sample).c_str(),
             format_number(sample.value).c_str());
    }
  }
  return out;
}

std::string to_json(const Snapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& sample : snapshot.samples) {
    if (!first) out += ",";
    first = false;
    append(out, "\n  {\"name\":\"%s\",\"labels\":\"%s\",\"kind\":\"%s\"",
           json_escape(sample.name).c_str(),
           json_escape(sample.labels).c_str(), to_string(sample.kind));
    if (sample.kind == MetricKind::kHistogram) {
      append(out, ",\"count\":%" PRIu64 ",\"sum\":%s,\"buckets\":[",
             sample.count, format_number(sample.sum).c_str());
      bool first_bucket = true;
      for (const auto& bucket : sample.buckets) {
        if (!first_bucket) out += ",";
        first_bucket = false;
        append(out, "{\"le\":%" PRIu64 ",\"count\":%" PRIu64 "}",
               bucket.upper_bound, bucket.cumulative_count);
      }
      out += "]}";
    } else {
      append(out, ",\"value\":%s}", format_number(sample.value).c_str());
    }
  }
  out += "\n]}\n";
  return out;
}

std::string to_profile_json(const Snapshot& snapshot) {
  std::string out = "{\"histograms\":[";
  bool first = true;
  for (const auto& sample : snapshot.samples) {
    if (sample.kind != MetricKind::kHistogram || sample.count == 0) continue;
    if (!first) out += ",";
    first = false;
    const double mean = sample.sum / static_cast<double>(sample.count);
    append(out,
           "\n  {\"name\":\"%s\",\"labels\":\"%s\",\"count\":%" PRIu64
           ",\"sum\":%s,\"mean\":%s",
           json_escape(sample.name).c_str(),
           json_escape(sample.labels).c_str(), sample.count,
           format_number(sample.sum).c_str(), format_number(mean).c_str());
    for (const auto& [key, q] : {std::pair<const char*, double>{"p50", 0.50},
                                 {"p90", 0.90},
                                 {"p99", 0.99},
                                 {"p999", 0.999}}) {
      append(out, ",\"%s\":%s", key,
             format_number(histogram_quantile(sample, q)).c_str());
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string to_chrome_trace(const TraceRing& ring) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&out, &first](const char* fmt, auto... args) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    append(out, fmt, args...);
  };

  // Track names: pid 0 is the switch; each scope (VIP) is a tid.
  std::vector<bool> seen_scope;
  for (const auto& event : ring.events()) {
    if (event.scope >= seen_scope.size()) seen_scope.resize(event.scope + 1);
    if (!seen_scope[event.scope]) {
      seen_scope[event.scope] = true;
      const std::string name = event.scope == kNoScope
                                   ? std::string("switch")
                                   : ring.scope_name(event.scope);
      emit("{\"ph\":\"M\",\"pid\":0,\"tid\":%u,\"name\":\"thread_name\","
           "\"args\":{\"name\":\"%s\"}}",
           event.scope, json_escape(name).c_str());
    }
  }

  for (const auto& event : ring.events()) {
    const double us = static_cast<double>(event.at) / 1e3;
    const char* name = to_string(event.kind);
    const std::string args =
        "{\"version\":" +
        (event.version == kNoVersion ? std::string("null")
                                     : std::to_string(event.version)) +
        ",\"arg0\":" + std::to_string(event.arg0) +
        ",\"arg1\":" + std::to_string(event.arg1) + "}";
    switch (event.kind) {
      case TraceEventKind::kUpdateStep1Open:
        emit("{\"ph\":\"B\",\"pid\":0,\"tid\":%u,\"ts\":%.3f,"
             "\"name\":\"pcc-update\",\"args\":%s}",
             event.scope, us, args.c_str());
        break;
      case TraceEventKind::kUpdateFinish:
        emit("{\"ph\":\"E\",\"pid\":0,\"tid\":%u,\"ts\":%.3f,"
             "\"name\":\"pcc-update\",\"args\":%s}",
             event.scope, us, args.c_str());
        break;
      default:
        emit("{\"ph\":\"i\",\"pid\":0,\"tid\":%u,\"ts\":%.3f,"
             "\"name\":\"%s\",\"s\":\"t\",\"args\":%s}",
             event.scope, us, name, args.c_str());
        break;
    }
  }
  append(out, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
              "{\"recorded\":%" PRIu64 ",\"dropped\":%" PRIu64 "}}\n",
         ring.total_recorded(), ring.dropped());
  return out;
}

bool write_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written =
      content.empty() ? 0 : std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = std::fclose(f) == 0 && written == content.size();
  return ok;
}

}  // namespace silkroad::obs
