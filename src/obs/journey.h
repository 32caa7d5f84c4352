// Flow-journey reconstruction from the trace ring (DESIGN.md §10).
//
// The TraceRing is a flat event stream; a PCC question ("did flow X keep its
// DIP across the update?") is per-connection. Flow-identified events carry
// the connection's 64-bit net::flow_id in an arg slot (arg0 for
// learn/fallback/aging/transit events, arg1 for ConnTable cuckoo events —
// see trace.h); FlowJourneyTracer groups the ring by that id into
// chronological journeys:
//
//   learn → transit-false-positive? → cuckoo-insert | insert-fail →
//   software-fallback? → aged-out
//
// and attaches the VIP's 3-step update-protocol events that overlapped the
// journey as context, so one flow's timeline reads directly against the
// version flips that could have broken it. Journeys export as Chrome
// trace-event JSON (one track per flow, a duration span from learn to
// install) or as auditor-style text.
//
// Reconstruction is a pure function of the ring contents — sampled by
// nature: events lost to ring wraparound simply truncate journeys.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace silkroad::obs {

/// One connection's event timeline plus overlapping VIP update context.
struct FlowJourney {
  std::uint64_t flow_id = 0;           ///< net::flow_id, never 0
  std::uint32_t scope = kNoScope;      ///< VIP scope, first one seen
  std::uint32_t version = kNoVersion;  ///< DIP-pool version, first one seen
  sim::Time first = 0;                 ///< timestamp of the first event
  sim::Time last = 0;                  ///< timestamp of the last event
  std::vector<TraceEvent> events;      ///< this flow's events, oldest first
  /// VIP update-protocol events (step1-open / flip / finish) on the same
  /// scope within [first, last], oldest first.
  std::vector<TraceEvent> context;

  bool installed = false;          ///< reached the ConnTable (cuckoo insert)
  bool install_failed = false;     ///< BFS budget exhausted at least once
  bool software_fallback = false;  ///< pinned to the slow-path exact table
  bool aged_out = false;           ///< collected by the aging sweep
};

struct JourneyOptions {
  /// Max distinct flows reconstructed (first-seen order); the ring holds a
  /// sample of traffic anyway, so this bounds work, not fidelity.
  std::size_t max_flows = 256;
};

class FlowJourneyTracer {
 public:
  /// The flow id carried by `event`, or 0 when the event kind has no
  /// per-flow identity (update protocol, version lifecycle, meter events).
  static std::uint64_t flow_id_of(const TraceEvent& event) noexcept;

  /// Groups the ring's flow-identified events into journeys, first-seen
  /// order, at most `options.max_flows` of them.
  static std::vector<FlowJourney> reconstruct(
      const TraceRing& ring, const JourneyOptions& options = {});

  /// The single journey of `flow_id`, or nullopt if the ring has no events
  /// for it.
  static std::optional<FlowJourney> journey_of(const TraceRing& ring,
                                               std::uint64_t flow_id);

  /// Chrome trace-event JSON: pid 1, one track (tid) per journey named
  /// "flow 0x<id> vip=<name>", a "install" duration span from the learn
  /// event to the install/fallback outcome, instants for every event, and
  /// "ctx:" instants for overlapping update-protocol steps.
  static std::string to_chrome_trace(const TraceRing& ring,
                                     const std::vector<FlowJourney>& journeys);

  /// Multi-line human rendering of one journey (format_event() per line,
  /// context lines marked with "ctx").
  static std::string format(const TraceRing& ring, const FlowJourney& journey);
};

}  // namespace silkroad::obs
