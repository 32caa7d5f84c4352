// Bounded ring of structured telemetry events with sim-time timestamps
// (DESIGN.md §9).
//
// The ring answers "what just happened to this VIP/version?" — the causal
// timeline behind a PCC violation or a failed insertion. Producers record
// fixed-size events (no strings on the hot path: scopes are interned once at
// bind time); the ring overwrites oldest-first, so the cost is O(1) per
// event and memory is capped at construction.
//
// Event coverage (the PCC update protocol of §4.3 plus the control-plane
// machinery around it):
//   kUpdateStep1Open / kUpdateFlip / kUpdateFinish  — the 3-step protocol
//   kVersionAllocate / kVersionReuse / kVersionRecycle / kVersionEvict
//   kCuckooInsert / kCuckooEvict / kCuckooInsertFail
//   kDigestCollision / kRelocationFail
//   kTransitFalsePositive, kMeterColor, kLearn, kSoftwareFallback, kAgedOut
//   kDegradedEnter / kDegradedExit / kInsertShed / kRelearn — degradation
//   kCapacityAlarmRaise / kCapacityAlarmClear — SRAM capacity ledger alarms
//
// Exporters (exporters.h) render the ring as Chrome trace-event JSON for
// chrome://tracing; format_event() gives the one-line human form used by the
// invariant auditor's failure dumps.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace silkroad::obs {

enum class TraceEventKind : std::uint8_t {
  kUpdateStep1Open,       ///< t_req: TransitTable opens (arg0=old, arg1=new)
  kUpdateFlip,            ///< t_exec: VIPTable flip (arg0=old, arg1=new)
  kUpdateFinish,          ///< TransitTable cleared, window closed
  kVersionAllocate,       ///< fresh version number taken from the ring
  kVersionReuse,          ///< dead-slot substitution reused a version (§4.2)
  kVersionRecycle,        ///< refcount hit zero, number returned to the ring
  kVersionEvict,          ///< force-destroyed on exhaustion (flows migrated)
  kCuckooInsert,          ///< ConnTable entry landed (arg0=BFS moves, arg1=flow)
  kCuckooEvict,           ///< insertion displaced entries (arg0=moves, arg1=flow)
  kCuckooInsertFail,      ///< BFS budget exhausted (arg1=flow)
  kDigestCollision,       ///< SYN hit a colliding digest (arg0=digest, arg1=flow)
  kRelocationFail,        ///< no conflict-free relocation found
  kTransitFalsePositive,  ///< bloom FP steered a new flow (arg0=flow)
  kMeterColor,            ///< meter marked non-green (arg0=color)
  kLearn,                 ///< new flow entered the learning filter (arg0=flow)
  kSoftwareFallback,      ///< flow pinned to the slow-path table (arg0=flow)
  kAgedOut,               ///< idle entry aged out (arg0=flow)
  kDegradedEnter,         ///< degraded mode entered (arg0=backlog, arg1=pending)
  kDegradedExit,          ///< degraded mode left (arg0=backlog, arg1=pending)
  kInsertShed,            ///< pending queue full: flow shed (arg0=flow)
  kRelearn,               ///< dropped notification re-enqueued (arg0=flow)
  kCapacityAlarmRaise,    ///< ledger level rose (arg0=level, arg1=occ bps)
  kCapacityAlarmClear,    ///< ledger level fell (arg0=level, arg1=occ bps)
};
// Flow-identified kinds carry the connection's 64-bit net::flow_id in the
// noted arg slot; journey.h reconstructs per-connection timelines from it.

const char* to_string(TraceEventKind kind) noexcept;

inline constexpr std::uint32_t kNoScope = 0;
inline constexpr std::uint32_t kNoVersion = ~std::uint32_t{0};

struct TraceEvent {
  sim::Time at = 0;
  TraceEventKind kind = TraceEventKind::kLearn;
  std::uint32_t scope = kNoScope;      ///< interned name id (VIP), 0 = none
  std::uint32_t version = kNoVersion;  ///< DIP-pool version, if applicable
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

class TraceRing {
 public:
  /// Time source consulted by record(); when null, events carry t=0 unless
  /// recorded via record_at(). A SilkRoadSwitch binds its simulator's clock.
  using Clock = std::function<sim::Time()>;

  explicit TraceRing(std::size_t capacity = 4096, Clock clock = nullptr);

  /// Interns `name` (idempotent) and returns its scope id (>= 1).
  std::uint32_t intern(std::string_view name);
  /// Scope id of an already-interned name; nullopt if never interned.
  std::optional<std::uint32_t> find_scope(std::string_view name) const;
  const std::string& scope_name(std::uint32_t id) const;

  void record(TraceEventKind kind, std::uint32_t scope = kNoScope,
              std::uint32_t version = kNoVersion, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0) {
    record_at(clock_ ? clock_() : sim::Time{0}, kind, scope, version, arg0,
              arg1);
  }
  void record_at(sim::Time at, TraceEventKind kind,
                 std::uint32_t scope = kNoScope,
                 std::uint32_t version = kNoVersion, std::uint64_t arg0 = 0,
                 std::uint64_t arg1 = 0);

  /// Retained events, oldest to newest.
  std::vector<TraceEvent> events() const;
  /// The last `limit` retained events matching `scope` (and `version` when
  /// given; version-less events of the scope always match), oldest first.
  std::vector<TraceEvent> tail_for(std::uint32_t scope,
                                   std::optional<std::uint32_t> version,
                                   std::size_t limit) const;

  std::size_t capacity() const noexcept { return buffer_.size(); }
  std::size_t size() const noexcept { return count_; }
  std::uint64_t total_recorded() const noexcept { return total_; }
  /// Events overwritten by ring wraparound.
  std::uint64_t dropped() const noexcept { return total_ - count_; }
  void clear();

 private:
  Clock clock_;
  std::vector<TraceEvent> buffer_;
  std::size_t next_ = 0;   ///< slot the next event lands in
  std::size_t count_ = 0;  ///< retained events (<= capacity)
  std::uint64_t total_ = 0;
  std::vector<std::string> scopes_;  ///< index 0 reserved for "none"
};

/// One-line human rendering: "[12.345ms] update-flip vip=20.0.0.1:80 v=3->4".
std::string format_event(const TraceRing& ring, const TraceEvent& event);

}  // namespace silkroad::obs
