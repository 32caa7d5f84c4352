// Views over the two event stores (DESIGN.md §10, §12).
//
// A flow journey is one connection's events from a switch's trace ring
// (learn → transit-false-positive? → cuckoo-insert | insert-fail →
// software-fallback? → aged-out); ring wraparound truncates it.
//
// When the invariant auditor trips or a chaos run fails its PCC audit, the
// question is causal: which update window was in flight while this flow's
// packets were being mapped, and what did the lossy control channel do to
// it? A ForensicsReport interleaves the flow's journey (or, for a report
// without a flow, the whole ring) with every span that overlapped it —
// channel legs and each step of the 3-step protocol — into one timeline
// ordered by sim time, rendered as text and JSON and written to
// SILKROAD_TELEMETRY_DIR.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/exporters.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace silkroad::obs {

/// One connection's events from a switch's trace ring.
struct FlowJourney {
  std::uint64_t flow_id = 0;           ///< net::flow_id, never 0
  std::uint32_t scope = kNoScope;      ///< VIP scope, first one seen
  std::uint32_t version = kNoVersion;  ///< DIP-pool version, first one seen
  sim::Time first = 0;                 ///< timestamp of the first event
  sim::Time last = 0;                  ///< timestamp of the last event
  std::vector<Event> events;           ///< this flow's events, oldest first

  bool installed = false;          ///< reached the ConnTable (cuckoo insert)
  bool install_failed = false;     ///< BFS budget exhausted at least once
  bool software_fallback = false;  ///< pinned to the slow-path exact table
  bool aged_out = false;           ///< collected by the aging sweep
};

/// Most flows journeys() reconstructs: the ring holds a sample of traffic
/// anyway, so this bounds work, not fidelity.
inline constexpr std::size_t kMaxJourneys = 256;

/// The ring's events grouped by flow, first-seen order, kMaxJourneys at most.
std::vector<FlowJourney> journeys(const TraceRing& ring);

/// The journey of `flow_id`, or nullopt if the ring has no events for it.
std::optional<FlowJourney> journey_of(const TraceRing& ring,
                                      std::uint64_t flow_id);

/// Chrome tracks of `journeys`: pid 1, one per flow ("flow 0x<id>
/// vip=<name>"), with an "install" duration from learn to placement.
std::vector<ChromeTrack> journey_tracks(
    const TraceRing& ring, const std::vector<FlowJourney>& journeys);

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
    /// "flow" (the journey), "ring" (any ring event, when there is no
    /// journey) or the span's label ("update#<id>", ...).
    std::string source;
    std::string line;
  };
  /// The merged story, ordered by sim time (stable: ring events before span
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

/// Builds the report from one switch's trace ring and the span collector it
/// records onto. `flow_id` of 0 (no specific flow — e.g. an invariant-audit
/// failure or a fleet divergence) omits the journey; a report without a
/// journey widens the window to the whole ring and its timeline carries
/// every ring event. `spans` may be null (no span lines then).
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
