// PCC incident forensics (DESIGN.md §12).
//
// When the invariant auditor trips or a chaos run fails its PCC audit, the
// question is always causal: which update window was in flight while this
// flow's packets were being mapped, and what did the lossy control channel
// do to it? A ForensicsReport answers that offline: it interleaves the
// offending flow's journey (journey.h) with every update/resync span
// (span.h) that overlapped it — including dropped and retransmitted channel
// legs — into one timeline ordered by sim time, rendered as text and JSON
// and written to SILKROAD_TELEMETRY_DIR.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/journey.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace silkroad::obs {

struct ForensicsReport {
  std::string reason;
  std::uint64_t flow_id = 0;  ///< net::flow_id; 0 = no specific flow
  /// The report window: the flow journey's [first, last] when a journey was
  /// found, otherwise the whole trace-ring range; stretched to cover the
  /// detection time when the caller knows it.
  sim::Time window_first = 0;
  sim::Time window_last = 0;
  std::optional<FlowJourney> journey;
  /// Copies of every span overlapping the window, ascending id.
  std::vector<UpdateSpan> spans;

  struct Entry {
    sim::Time at = 0;
    std::string source;  ///< "flow", "ctx", "update#<id>", "resync#<id>"
    std::string line;
  };
  /// The merged story, ordered by sim time (stable: flow events before span
  /// events at equal timestamps).
  std::vector<Entry> timeline;

  /// SRAM capacity-ledger snapshot at assembly time (DESIGN.md §15): the
  /// human table (ResourceLedger::to_text) and the /capacity.json document
  /// (ResourceLedger::to_json). Both empty when the failing component
  /// carries no ledger; callers fill them via attach_capacity().
  std::string capacity_text;
  std::string capacity_json;
  void attach_capacity(std::string text, std::string json) {
    capacity_text = std::move(text);
    capacity_json = std::move(json);
  }

  /// Silent-divergence attribution (DESIGN.md §17): the DivergenceFinding's
  /// per-VIP membership deltas and resync-session records, as text and JSON
  /// (DivergenceFinding::to_text/to_json). Both empty unless the report was
  /// assembled by the convergence observatory's divergence callback.
  std::string divergence_text;
  std::string divergence_json;
  void attach_divergence(std::string text, std::string json) {
    divergence_text = std::move(text);
    divergence_json = std::move(json);
  }

  std::string to_text() const;
  std::string to_json() const;
};

/// Builds the report from one switch's trace ring and the fleet's span
/// collector. `flow_id` of 0 (no specific flow — e.g. an invariant-audit
/// failure) widens the window to the whole ring and omits the journey.
/// `spans` may be null (report then carries trace events only).
/// `detected_at` is when the failure was detected (the PCC audit's charge
/// time). A flow can break without a traced event of its own — one still
/// waiting for its ConnTable insert when the VIPTable flips last appears at
/// its learn, before the update started — so the window is stretched to
/// reach it, and the span that broke the flow is in the report.
ForensicsReport assemble_forensics(
    const TraceRing& ring, const SpanCollector* spans, std::uint64_t flow_id,
    std::string reason, std::optional<sim::Time> detected_at = std::nullopt);

/// $SILKROAD_TELEMETRY_DIR, or "" when unset/empty.
std::string telemetry_dir_from_env();

/// Writes <dir>/<stem>.txt and <dir>/<stem>.json. Returns false if either
/// write failed (missing directory, permissions).
bool write_forensics(const ForensicsReport& report, const std::string& dir,
                     const std::string& stem);

}  // namespace silkroad::obs
