// Exporters for the telemetry layer (DESIGN.md §9): render a metrics
// Snapshot as Prometheus text-format or JSON, and tracks of events as Chrome
// trace-event JSON loadable in chrome://tracing / https://ui.perfetto.dev.
//
// All exporters are pure string builders over immutable snapshots — safe to
// call at any point of a run; write_file() is the only one touching the
// filesystem (cstdio, atomicity not required for telemetry dumps).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace silkroad::obs {

/// Formats a double the way Prometheus/JSON expect: integers without a
/// fractional part, everything else with enough digits to round-trip.
std::string format_number(double v);

/// Minimal JSON string escaping (quotes, backslash, newline, tab).
std::string json_escape(std::string_view s);

/// Appends printf-formatted text to `out`; one call renders at most 511
/// bytes. Shared by the obs text and JSON renderers.
void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Prometheus exposition text format (version 0.0.4): "# HELP"/"# TYPE"
/// headers per metric family, histograms as cumulative `_bucket{le=...}`
/// series plus `_sum` and `_count`.
std::string to_prometheus(const Snapshot& snapshot);

/// JSON object {"metrics": [{"name", "labels", "kind", "value", ...}]}.
/// Histograms carry "count", "sum", and a "buckets" array of {le, count}.
std::string to_json(const Snapshot& snapshot);

/// Latency-profile summary served as /profile: every non-empty histogram
/// series rendered as {"name","labels","count","sum","mean","p50","p90",
/// "p99","p999"} — among them the exact per-packet
/// silkroad_packet_latency_ns and the learn-to-install
/// silkroad_insert_latency_ns.
std::string to_profile_json(const Snapshot& snapshot);

/// A duration bar on a Chrome track.
struct ChromeDuration {
  std::string name;
  sim::Time begin = 0;
  sim::Time end = 0;
};

/// One Chrome trace thread: a named (pid, tid) track with an instant per
/// event and at most one duration.
struct ChromeTrack {
  std::uint32_t pid = 0;
  std::uint64_t tid = 0;
  std::string name;
  std::vector<Event> events;
  std::optional<ChromeDuration> duration;
};

/// An event's arguments as JSON members: "switch" for a span event,
/// "version" and "id" for a ring event, then "arg0" and "arg1".
void append_event_args(std::string& out, const Event& event);

/// Chrome trace-event JSON of `tracks` (sim-time microseconds), with
/// `other_data`, a JSON object, as "otherData" when given.
std::string to_chrome_trace(const std::vector<ChromeTrack>& tracks,
                            std::string_view other_data = {});

/// A trace ring's tracks: pid 0, one per scope (tid = scope id), named after
/// its VIP ("switch" for scope 0).
std::vector<ChromeTrack> ring_tracks(const TraceRing& ring);

/// Writes `content` to `path` (truncating). Returns false on I/O error.
bool write_file(const std::string& path, std::string_view content);

}  // namespace silkroad::obs
