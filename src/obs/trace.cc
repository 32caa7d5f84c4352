#include "obs/trace.h"

#include <cinttypes>

#include "check/sr_check.h"
#include "obs/exporters.h"

namespace silkroad::obs {

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kVersionAllocate: return "version-allocate";
    case EventKind::kVersionReuse: return "version-reuse";
    case EventKind::kVersionRecycle: return "version-recycle";
    case EventKind::kVersionEvict: return "version-evict";
    case EventKind::kCuckooInsert: return "cuckoo-insert";
    case EventKind::kCuckooEvict: return "cuckoo-evict";
    case EventKind::kCuckooInsertFail: return "cuckoo-insert-fail";
    case EventKind::kDigestCollision: return "digest-collision";
    case EventKind::kRelocationFail: return "relocation-fail";
    case EventKind::kTransitFalsePositive: return "transit-false-positive";
    case EventKind::kMeterColor: return "meter-color";
    case EventKind::kLearn: return "learn";
    case EventKind::kSoftwareFallback: return "software-fallback";
    case EventKind::kAgedOut: return "aged-out";
    case EventKind::kDegradedEnter: return "degraded-enter";
    case EventKind::kDegradedExit: return "degraded-exit";
    case EventKind::kInsertShed: return "insert-shed";
    case EventKind::kRelearn: return "relearn";
    case EventKind::kCapacityAlarmRaise: return "capacity-alarm-raise";
    case EventKind::kCapacityAlarmClear: return "capacity-alarm-clear";
    case EventKind::kIntent: return "intent";
    case EventKind::kResyncBegin: return "resync-begin";
    case EventKind::kSubsume: return "subsume";
    case EventKind::kChannelSend: return "channel-send";
    case EventKind::kChannelXmit: return "channel-xmit";
    case EventKind::kChannelDrop: return "channel-drop";
    case EventKind::kChannelRetry: return "channel-retry";
    case EventKind::kChannelDeliver: return "channel-deliver";
    case EventKind::kChannelDup: return "channel-duplicate";
    case EventKind::kSkipped: return "skipped";
    case EventKind::kQueueStage: return "queue-stage";
    case EventKind::kStep1Open: return "step1-open";
    case EventKind::kFlip: return "flip";
    case EventKind::kFinish: return "finish";
    case EventKind::kAbandon: return "abandon";
    case EventKind::kResyncApply: return "resync-apply";
    case EventKind::kChunkBegin: return "chunk-begin";
  }
  return "unknown";
}

std::string format_event(const Event& event, std::string_view where) {
  std::string out = to_string(event.kind);
  if (!where.empty()) {
    out += ' ';
    out += where;
  }
  if (event.version != kNoVersion) append(out, " v=%u", event.version);
  if (!is_span_kind(event.kind)) {
    if (event.id != 0) append(out, " flow=0x%016" PRIx64, event.id);
    if (event.arg0 != 0 || event.arg1 != 0) {
      append(out, " args=%" PRIu64 ",%" PRIu64, event.arg0, event.arg1);
    }
    return out;
  }
  switch (event.kind) {
    case EventKind::kIntent:
      if (event.arg0 != 0) append(out, " parent=%" PRIu64, event.arg0);
      break;
    case EventKind::kSubsume:
      append(out, " update#%" PRIu64, event.arg0);
      break;
    case EventKind::kChannelXmit:
    case EventKind::kChannelRetry:
      append(out, " attempt=%" PRIu64, event.arg0);
      break;
    case EventKind::kChannelDrop:
      out += event.arg1 == 1   ? " (ack)"
             : event.arg1 == 2 ? " (offline)"
                               : " (message)";
      break;
    case EventKind::kSkipped:
      out += event.arg1 == 0 ? " (unprovisioned)" : " (already applied)";
      break;
    case EventKind::kStep1Open:
    case EventKind::kFlip:
      append(out, " v=%" PRIu64 "->%" PRIu64, event.arg0, event.arg1);
      break;
    case EventKind::kAbandon:
      out += event.arg1 == 0   ? " (unknown vip)"
             : event.arg1 == 1 ? " (stage failure)"
             : event.arg1 == 2 ? " (crash wipe)"
                               : " (window wipe)";
      break;
    case EventKind::kChunkBegin:
      append(out, " chunk=%" PRIu64 " entries=%" PRIu64, event.arg0,
             event.arg1);
      break;
    default:
      break;
  }
  return out;
}

TraceRing::TraceRing(std::size_t capacity, const sim::Simulator* clock)
    : clock_(clock),
      buffer_(capacity == 0 ? 1 : capacity),
      scopes_{""} {}

std::uint32_t TraceRing::intern(std::string_view name) {
  if (const auto id = find_scope(name)) return *id;
  scopes_.emplace_back(name);
  return static_cast<std::uint32_t>(scopes_.size() - 1);
}

std::optional<std::uint32_t> TraceRing::find_scope(
    std::string_view name) const {
  for (std::size_t i = 1; i < scopes_.size(); ++i) {
    if (scopes_[i] == name) return static_cast<std::uint32_t>(i);
  }
  return std::nullopt;
}

const std::string& TraceRing::scope_name(std::uint32_t id) const {
  SR_CHECK(id < scopes_.size());
  return scopes_[id];
}

std::string TraceRing::where(const Event& event) const {
  std::string out;
  if (event.scope != kNoScope) {
    append(out, "vip=%s", scope_name(event.scope).c_str());
  }
  return out;
}

void TraceRing::record_at(sim::Time at, EventKind kind, std::uint32_t scope,
                          std::uint32_t version, std::uint64_t id,
                          std::uint64_t arg0, std::uint64_t arg1) {
  SR_DCHECK(!is_span_kind(kind));
  buffer_[total_++ % buffer_.size()] =
      Event{at, kind, scope, version, id, arg0, arg1};
}

std::vector<Event> TraceRing::events() const {
  std::vector<Event> out;
  out.reserve(size());
  for (std::uint64_t n = total_ - size(); n < total_; ++n) {
    out.push_back(buffer_[n % buffer_.size()]);
  }
  return out;
}

std::vector<Event> TraceRing::tail_for(std::uint32_t scope,
                                       std::optional<std::uint32_t> version,
                                       std::size_t limit) const {
  std::vector<Event> matched;
  for (const auto& event : events()) {
    if (event.scope != scope) continue;
    if (version && event.version != kNoVersion && event.version != *version) {
      continue;
    }
    matched.push_back(event);
  }
  if (matched.size() > limit) {
    matched.erase(matched.begin(),
                  matched.begin() +
                      static_cast<std::ptrdiff_t>(matched.size() - limit));
  }
  return matched;
}

}  // namespace silkroad::obs
