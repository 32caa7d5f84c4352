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

void append_event_args(std::string& out, const Event& event) {
  if (is_span_kind(event.kind)) {
    if (event.scope == kControllerLeg) {
      out += "\"switch\":null";
    } else {
      append(out, "\"switch\":%u", event.scope);
    }
  } else if (event.version == kNoVersion) {
    append(out, "\"version\":null,\"id\":%" PRIu64, event.id);
  } else {
    append(out, "\"version\":%u,\"id\":%" PRIu64, event.version, event.id);
  }
  append(out, ",\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64, event.arg0,
         event.arg1);
}

std::string to_chrome_trace(const std::vector<ChromeTrack>& tracks,
                            std::string_view other_data) {
  std::string out = "{\"traceEvents\":[";
  const char* sep = "\n  ";
  for (const ChromeTrack& track : tracks) {
    append(out, "%s{\"ph\":\"M\",\"pid\":%u,\"tid\":%" PRIu64
                ",\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
           sep, track.pid, track.tid, json_escape(track.name).c_str());
    sep = ",\n  ";
    if (const auto& span = track.duration) {
      append(out, "%s{\"ph\":\"X\",\"pid\":%u,\"tid\":%" PRIu64
                  ",\"ts\":%.3f,\"dur\":%.3f,\"name\":\"%s\"}",
             sep, track.pid, track.tid, static_cast<double>(span->begin) / 1e3,
             static_cast<double>(span->end - span->begin) / 1e3,
             json_escape(span->name).c_str());
    }
    for (const Event& event : track.events) {
      append(out, "%s{\"ph\":\"i\",\"pid\":%u,\"tid\":%" PRIu64
                  ",\"ts\":%.3f,\"name\":\"%s\",\"s\":\"t\",\"args\":{",
             sep, track.pid, track.tid, static_cast<double>(event.at) / 1e3,
             to_string(event.kind));
      append_event_args(out, event);
      out += "}}";
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"";
  if (!other_data.empty()) {
    out += ",\"otherData\":";
    out += other_data;
  }
  out += "}\n";
  return out;
}

std::vector<ChromeTrack> ring_tracks(const TraceRing& ring) {
  std::vector<ChromeTrack> tracks;
  std::vector<std::size_t> track_of;  // scope -> index + 1, 0 = none yet
  for (const Event& event : ring.events()) {
    if (event.scope >= track_of.size()) track_of.resize(event.scope + 1);
    if (track_of[event.scope] == 0) {
      ChromeTrack& track = tracks.emplace_back();
      track.tid = event.scope;
      track.name = event.scope == kNoScope ? std::string("switch")
                                           : ring.scope_name(event.scope);
      track_of[event.scope] = tracks.size();
    }
    tracks[track_of[event.scope] - 1].events.push_back(event);
  }
  return tracks;
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
