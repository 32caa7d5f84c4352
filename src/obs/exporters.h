// Exporters for the telemetry layer (DESIGN.md §9): render a metrics
// Snapshot as Prometheus text-format or JSON, and a TraceRing as Chrome
// trace-event JSON loadable in chrome://tracing / https://ui.perfetto.dev.
//
// All exporters are pure string builders over immutable snapshots — safe to
// call at any point of a run; write_file() is the only one touching the
// filesystem (cstdio, atomicity not required for telemetry dumps).
#pragma once

#include <string>
#include <string_view>

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

/// Chrome trace-event JSON. The 3-step PCC protocol renders as duration
/// events (update-step1-open opens a span on the VIP's track, update-finish
/// closes it, the flip is an instant marker inside); all other events are
/// instants on their scope's track. Timestamps are sim-time microseconds.
std::string to_chrome_trace(const TraceRing& ring);

/// Writes `content` to `path` (truncating). Returns false on I/O error.
bool write_file(const std::string& path, std::string_view content);

}  // namespace silkroad::obs
