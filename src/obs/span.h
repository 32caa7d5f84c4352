// Causal update-span tracing (DESIGN.md §12).
//
// Every DIP-update intent is assigned an update_id that rides inside the
// ControlChannel payload — surviving retransmits, duplicate deliveries, and
// resync escalation — and is stamped onto the switch-side 3-step protocol
// execution it causes. The SpanCollector gathers these observations into one
// UpdateSpan per intent, forming a tree:
//
//   intent (controller)
//     ├─ per-switch channel leg: send → transmit/drop/retry* → deliver|dup
//     ├─ per-switch CPU queue wait: queue-stage → step1-open
//     └─ per-switch protocol execution: step1-open → flip → finish
//
// A fleet's switches record onto the fleet's collector, a lone switch onto
// its own (its spans have no channel leg).
//
// Resync escalations mint their own spans that link (subsume) every update
// the bulk transfer supersedes; the diff updates a resync synthesizes are
// child spans (parent_id = the resync span's id). Per-hop durations feed the
// silkroad_update_propagation_ns{hop=...} histograms (the issue's
// update_propagation_seconds family, in this repo's integer-nanosecond
// histogram convention) through the existing metrics registry.
//
// The collector is deliberately not a ring: spans are evicted oldest-first
// past `capacity`, and audit_complete() can prove that every observed leg
// ran to a terminal state (finish / skip / abandon / subsumed-by-resync) —
// the chaos suite asserts that over every seed it runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/time.h"
#include "workload/update_gen.h"

namespace silkroad::obs {

/// One update intent's (or resync escalation's) full causal record.
struct UpdateSpan {
  std::uint64_t id = 0;
  /// For resync-synthesized diff updates and chunk spans: the resync
  /// session span that caused them.
  std::uint64_t parent_id = 0;
  bool resync = false;  ///< true for resync-escalation (session) spans
  /// True for one chunk leg of a resync session (parent_id = the session);
  /// its channel leg must end in kResyncApply, abandonment, or subsumption.
  bool chunk = false;
  /// For resync/chunk spans: the switch whose channel escalated.
  std::uint32_t resync_switch = kControllerLeg;
  /// The intent as minted (resync and chunk spans leave this zeroed).
  workload::DipUpdate intent;
  sim::Time intent_at = 0;
  std::vector<Event> events;  ///< record order == causal order per leg
  /// Resync spans: ids of the updates the bulk transfer superseded.
  std::vector<std::uint64_t> subsumed;

  /// "update#<id>", "resync#<id>" or "chunk#<id>".
  std::string label() const;
  /// label() and what the span carries: "update#3 add-dip dip=.. vip=..",
  /// "resync#4 switch=1 subsumes 2 update(s)", "chunk#5 switch=1 of
  /// resync#4". Forensics lists spans by it; it names their Chrome tracks.
  std::string describe() const;
  /// This span's events on one switch leg, in record order.
  std::vector<Event> leg(std::uint32_t switch_index) const;
  bool has(EventKind kind, std::uint32_t switch_index) const;
  sim::Time first() const;
  sim::Time last() const;
};

class SpanCollector {
 public:
  explicit SpanCollector(std::size_t capacity = 8192);

  /// Tracing master switch (bench/span_overhead.cc measures the delta).
  /// While disabled, begin_update() returns 0 (payloads stay untraced) and
  /// record() is a cheap early-out.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  /// Mints a collector-unique id, stamps it into `update`, and opens the
  /// span with a kIntent event. `parent_id` links resync-synthesized
  /// children.
  std::uint64_t begin_update(workload::DipUpdate& update, sim::Time now,
                             std::uint64_t parent_id = 0);

  /// Opens a resync span for `switch_index`, recording one kSubsume event
  /// per superseded update id.
  std::uint64_t begin_resync(std::uint32_t switch_index, sim::Time now,
                             const std::vector<std::uint64_t>& subsumed);

  /// Opens a chunk span: one channel leg of resync session `parent_id`
  /// toward `switch_index`, carrying `entries` journal records as chunk
  /// number `chunk_index`. The returned id rides inside the ResyncChunk
  /// payload so the channel records every transmission/drop/retry on it.
  std::uint64_t begin_chunk(std::uint32_t switch_index, sim::Time now,
                            std::uint64_t parent_id, std::uint64_t chunk_index,
                            std::uint64_t entries);

  /// Appends one event to span `id`; no-op when id is 0, tracing is
  /// disabled, or the span was evicted. kFinish feeds the per-hop histograms.
  void record(std::uint64_t id, EventKind kind, std::uint32_t switch_index,
              sim::Time at, std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  /// Registers silkroad_update_propagation_ns{hop=...} histograms plus the
  /// silkroad_spans_active gauge in `registry`.
  void bind_metrics(MetricsRegistry& registry);

  const UpdateSpan* find(std::uint64_t id) const;
  /// All retained spans, ascending id (== creation order).
  std::vector<const UpdateSpan*> all() const;
  /// Spans whose [first(), last()] interval intersects [lo, hi].
  std::vector<const UpdateSpan*> overlapping(sim::Time lo, sim::Time hi) const;

  std::size_t size() const noexcept { return spans_.size(); }
  std::uint64_t total_started() const noexcept { return next_id_ - 1; }
  std::uint64_t events_recorded() const noexcept { return events_recorded_; }

  /// Structural audit over every retained span: each observed channel leg
  /// must reach a terminal state (delivered→staged→finished, skipped,
  /// abandoned, or subsumed by a resync of the same switch), every finished
  /// leg must carry the full step1-open/flip chain, and every resync chunk
  /// leg must end applied (kResyncApply), abandoned, or subsumed. Returns one
  /// human-readable problem per violation; empty == complete. Call only at
  /// quiesce (an in-flight update is legitimately incomplete).
  std::vector<std::string> audit_complete() const;

  /// {"spans": [...]} — every retained span with its event list.
  std::string to_json() const;
  /// One span as a JSON object, or "null" for an unknown id.
  std::string span_json(std::uint64_t id) const;

 private:
  /// Mints the next id and opens its span with `first` (its id filled in),
  /// evicting the oldest span past capacity.
  UpdateSpan& open(sim::Time now, Event first);
  void finish_histograms(const UpdateSpan& span, std::uint32_t switch_index,
                         sim::Time finish_at);

  bool enabled_ = true;
  std::size_t capacity_;
  std::uint64_t next_id_ = 1;
  std::uint64_t events_recorded_ = 0;
  std::map<std::uint64_t, UpdateSpan> spans_;
  Histogram* h_channel_ = nullptr;
  Histogram* h_queue_ = nullptr;
  Histogram* h_execute_ = nullptr;
  Histogram* h_total_ = nullptr;
};

/// Chrome tracks of every retained span: pid 1, one track per span (tid =
/// span id) with a duration from its first to its last event and an instant
/// per event.
std::vector<ChromeTrack> span_tracks(const SpanCollector& spans);

}  // namespace silkroad::obs
