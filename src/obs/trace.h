// One event vocabulary for the telemetry layer (DESIGN.md §9, §12). Two
// stores hold `Event`s and differ only in retention: a switch's TraceRing of
// flow and table events (below; fixed capacity, oldest overwritten first,
// O(1) and string-free per event), and the update spans of a SpanCollector
// (span.h), which alone record the 3-step PCC update protocol (§4.3).
// exporters.h renders events as Chrome trace JSON; forensics.h builds flow
// journeys and incident reports as views over both stores.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace silkroad::obs {

enum class EventKind : std::uint8_t {
  // Ring kinds: flow and table events on one switch.
  kVersionAllocate,       ///< fresh version number taken from the ring
  kVersionReuse,          ///< dead-slot substitution reused a version (§4.2)
  kVersionRecycle,        ///< refcount hit zero, number returned to the ring
  kVersionEvict,          ///< force-destroyed on exhaustion (flows migrated)
  kCuckooInsert,          ///< ConnTable entry landed (arg0 = BFS moves)
  kCuckooEvict,           ///< insertion displaced entries (arg0 = moves)
  kCuckooInsertFail,      ///< BFS budget exhausted
  kDigestCollision,       ///< SYN hit a colliding digest (arg0 = digest)
  kRelocationFail,        ///< no conflict-free relocation found
  kTransitFalsePositive,  ///< bloom FP steered a new flow
  kMeterColor,            ///< meter marked non-green (arg0 = color)
  kLearn,                 ///< new flow entered the learning filter
  kSoftwareFallback,      ///< flow pinned to the slow-path table
  kAgedOut,               ///< idle entry aged out
  kDegradedEnter,         ///< degraded mode entered (arg0=backlog, arg1=pending)
  kDegradedExit,          ///< degraded mode left (arg0=backlog, arg1=pending)
  kInsertShed,            ///< pending queue full: flow shed
  kRelearn,               ///< dropped notification re-enqueued
  kCapacityAlarmRaise,    ///< ledger level rose (arg0=level, arg1=occ bps)
  kCapacityAlarmClear,    ///< ledger level fell (arg0=level, arg1=occ bps)
  // Span kinds: one update's causal record (span.h).
  kIntent,         ///< controller minted the update (arg0 = parent span)
  kResyncBegin,    ///< retry exhaustion / restore escalated to a bulk resync
  kSubsume,        ///< resync span absorbed an in-flight update (arg0 = id)
  kChannelSend,    ///< sender queued the message on this switch's channel
  kChannelXmit,    ///< one transmission attempt left the sender (arg0 = retry#)
  kChannelDrop,    ///< a transmission was lost (arg1: 0=msg, 1=ack, 2=offline)
  kChannelRetry,   ///< ack timeout fired; retransmission follows (arg0 = retry#)
  kChannelDeliver, ///< receiver delivered the message in order
  kChannelDup,     ///< duplicate delivery suppressed (the ack was lost)
  kSkipped,        ///< receiver agent dropped it (arg1: 0=unprovisioned,
                   ///< 1=already applied — duplicate content after a resync)
  kQueueStage,     ///< switch queued the update behind the one in flight
  kStep1Open,      ///< t_req: TransitTable opened (arg0=old, arg1=new version)
  kFlip,           ///< t_exec: VIPTable flipped (arg0=old, arg1=new version)
  kFinish,         ///< TransitTable cleared; the 3-step window closed
  kAbandon,        ///< leg terminated without effect (arg1: 0=unknown VIP,
                   ///< 1=stage failure, 2=crash wipe, 3=channel window wipe)
  kResyncApply,    ///< a resync chunk (or, on the session span, the final
                   ///< chunk) landed and was applied at the switch agent
  kChunkBegin,     ///< controller packed one resync chunk (arg0 = chunk
                   ///< index, arg1 = journal entries carried)
};

const char* to_string(EventKind kind) noexcept;

/// True for the kinds recorded on spans, which the ring refuses.
constexpr bool is_span_kind(EventKind kind) noexcept {
  return kind >= EventKind::kIntent;
}

inline constexpr std::uint32_t kNoScope = 0;
inline constexpr std::uint32_t kNoVersion = ~std::uint32_t{0};
/// Span-event scope at the controller rather than on a switch leg.
inline constexpr std::uint32_t kControllerLeg = ~std::uint32_t{0};

struct Event {
  sim::Time at = 0;
  EventKind kind = EventKind::kLearn;
  /// Ring: interned VIP name id, 0 = none. Span: the switch leg.
  std::uint32_t scope = kNoScope;
  std::uint32_t version = kNoVersion;  ///< DIP-pool version, if applicable
  /// Ring: the flow's net::flow_id, 0 = no flow. Span: the span id.
  std::uint64_t id = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

/// One line without a timestamp: the kind, `where` it happened (omitted
/// when empty) and its arguments, e.g. "flip sw=0 v=3->4".
std::string format_event(const Event& event, std::string_view where);

class TraceRing {
 public:
  /// `clock` is the simulator whose now() record() stamps; when null,
  /// events carry t=0 unless recorded via record_at(). A SilkRoadSwitch
  /// passes its own simulator.
  explicit TraceRing(std::size_t capacity = 4096,
                     const sim::Simulator* clock = nullptr);

  /// Interns `name` (idempotent) and returns its scope id (>= 1).
  std::uint32_t intern(std::string_view name);
  /// Scope id of an already-interned name; nullopt if never interned.
  std::optional<std::uint32_t> find_scope(std::string_view name) const;
  const std::string& scope_name(std::uint32_t id) const;
  /// format_event()'s `where` for a ring event: "vip=<name>", or "" for an
  /// event of the switch itself.
  std::string where(const Event& event) const;

  void record(EventKind kind, std::uint32_t scope = kNoScope,
              std::uint32_t version = kNoVersion, std::uint64_t id = 0,
              std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
    record_at(clock_ != nullptr ? clock_->now() : sim::Time{0}, kind, scope,
              version, id, arg0, arg1);
  }
  void record_at(sim::Time at, EventKind kind, std::uint32_t scope = kNoScope,
                 std::uint32_t version = kNoVersion, std::uint64_t id = 0,
                 std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  /// Retained events, oldest to newest.
  std::vector<Event> events() const;
  /// The last `limit` retained events matching `scope` (and `version` when
  /// given; version-less events of the scope always match), oldest first.
  std::vector<Event> tail_for(std::uint32_t scope,
                              std::optional<std::uint32_t> version,
                              std::size_t limit) const;

  std::size_t size() const noexcept {
    return total_ < buffer_.size() ? static_cast<std::size_t>(total_)
                                   : buffer_.size();
  }
  std::uint64_t total_recorded() const noexcept { return total_; }
  /// Events overwritten by ring wraparound.
  std::uint64_t dropped() const noexcept { return total_ - size(); }

 private:
  const sim::Simulator* clock_;
  /// Event n (counting from 0) lands in slot n % capacity.
  std::vector<Event> buffer_;
  std::uint64_t total_ = 0;
  std::vector<std::string> scopes_;  ///< index 0 reserved for "none"
};

}  // namespace silkroad::obs
