#include "obs/span.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "check/sr_check.h"
#include "obs/exporters.h"

namespace silkroad::obs {

namespace {

/// "update", "resync" or "chunk": the word of a span's label and of its
/// Chrome duration.
const char* span_type(const UpdateSpan& span) {
  return span.chunk ? "chunk" : (span.resync ? "resync" : "update");
}

const char* action_name(workload::UpdateAction action) {
  return action == workload::UpdateAction::kAddDip ? "add-dip" : "remove-dip";
}

/// Events reserved per span: a lone switch's whole record (intent,
/// queue-stage, step1-open, flip, finish) fits without regrowth.
constexpr std::size_t kReservedEvents = 8;

}  // namespace

std::string UpdateSpan::label() const {
  std::string out;
  append(out, "%s#%" PRIu64, span_type(*this), id);
  return out;
}

std::string UpdateSpan::describe() const {
  std::string out = label();
  if (chunk) {
    append(out, " switch=%u of resync#%" PRIu64, resync_switch, parent_id);
  } else if (resync) {
    append(out, " switch=%u subsumes %zu update(s)", resync_switch,
           subsumed.size());
  } else {
    append(out, " %s dip=%s vip=%s", action_name(intent.action),
           intent.dip.to_string().c_str(), intent.vip.to_string().c_str());
    if (parent_id != 0) append(out, " parent=%" PRIu64, parent_id);
  }
  return out;
}

std::vector<Event> UpdateSpan::leg(std::uint32_t switch_index) const {
  std::vector<Event> out;
  for (const auto& event : events) {
    if (event.scope == switch_index) out.push_back(event);
  }
  return out;
}

bool UpdateSpan::has(EventKind kind, std::uint32_t switch_index) const {
  for (const auto& event : events) {
    if (event.kind == kind && event.scope == switch_index) return true;
  }
  return false;
}

sim::Time UpdateSpan::first() const {
  sim::Time t = intent_at;
  for (const auto& event : events) t = std::min(t, event.at);
  return t;
}

sim::Time UpdateSpan::last() const {
  sim::Time t = intent_at;
  for (const auto& event : events) t = std::max(t, event.at);
  return t;
}

SpanCollector::SpanCollector(std::size_t capacity) : capacity_(capacity) {
  SR_CHECK(capacity_ > 0);
}

UpdateSpan& SpanCollector::open(sim::Time now, Event first) {
  if (spans_.size() >= capacity_) spans_.erase(spans_.begin());
  const std::uint64_t id = next_id_++;
  UpdateSpan& span = spans_[id];
  span.id = id;
  span.intent_at = now;
  span.events.reserve(kReservedEvents);
  first.id = id;
  span.events.push_back(first);
  ++events_recorded_;
  return span;
}

std::uint64_t SpanCollector::begin_update(workload::DipUpdate& update,
                                          sim::Time now,
                                          std::uint64_t parent_id) {
  if (!enabled_) {
    update.update_id = 0;
    return 0;
  }
  UpdateSpan& span = open(now, {now, EventKind::kIntent, kControllerLeg,
                                kNoVersion, 0, parent_id, 0});
  update.update_id = span.id;
  span.parent_id = parent_id;
  span.intent = update;
  return span.id;
}

std::uint64_t SpanCollector::begin_resync(
    std::uint32_t switch_index, sim::Time now,
    const std::vector<std::uint64_t>& subsumed) {
  if (!enabled_) return 0;
  UpdateSpan& span = open(now, {now, EventKind::kResyncBegin, switch_index});
  span.resync = true;
  span.resync_switch = switch_index;
  span.subsumed = subsumed;
  for (const std::uint64_t sub : subsumed) {
    span.events.push_back(
        {now, EventKind::kSubsume, switch_index, kNoVersion, span.id, sub, 0});
  }
  events_recorded_ += subsumed.size();
  return span.id;
}

std::uint64_t SpanCollector::begin_chunk(std::uint32_t switch_index,
                                         sim::Time now,
                                         std::uint64_t parent_id,
                                         std::uint64_t chunk_index,
                                         std::uint64_t entries) {
  if (!enabled_) return 0;
  UpdateSpan& span = open(now, {now, EventKind::kChunkBegin, switch_index,
                                kNoVersion, 0, chunk_index, entries});
  span.parent_id = parent_id;
  span.chunk = true;
  span.resync_switch = switch_index;
  return span.id;
}

void SpanCollector::record(std::uint64_t id, EventKind kind,
                           std::uint32_t switch_index, sim::Time at,
                           std::uint64_t arg0, std::uint64_t arg1) {
  if (id == 0 || !enabled_) return;
  const auto it = spans_.find(id);
  if (it == spans_.end()) return;  // evicted — the tail of a long run
  it->second.events.push_back(
      {at, kind, switch_index, kNoVersion, id, arg0, arg1});
  ++events_recorded_;
  if (kind == EventKind::kFinish) {
    finish_histograms(it->second, switch_index, at);
  }
}

void SpanCollector::finish_histograms(const UpdateSpan& span,
                                      std::uint32_t switch_index,
                                      sim::Time finish_at) {
  if (h_total_ == nullptr) return;
  // Earliest occurrence of each hop boundary on this leg; a resync-child
  // span has no channel leg, so those hops are simply not recorded for it.
  constexpr sim::Time kUnset = sim::kTimeInfinity;
  const auto earliest = [&span, switch_index](EventKind kind) {
    for (const auto& event : span.events) {
      if (event.scope == switch_index && event.kind == kind) return event.at;
    }
    return kUnset;
  };
  const sim::Time send = earliest(EventKind::kChannelSend);
  const sim::Time deliver = earliest(EventKind::kChannelDeliver);
  const sim::Time stage = earliest(EventKind::kQueueStage);
  const sim::Time step1 = earliest(EventKind::kStep1Open);
  if (send != kUnset && deliver != kUnset && deliver >= send) {
    h_channel_->record(deliver - send);
  }
  if (stage != kUnset && step1 != kUnset && step1 >= stage) {
    h_queue_->record(step1 - stage);
  }
  if (step1 != kUnset && finish_at >= step1) {
    h_execute_->record(finish_at - step1);
  }
  if (finish_at >= span.intent_at) {
    h_total_->record(finish_at - span.intent_at);
  }
}

void SpanCollector::bind_metrics(MetricsRegistry& registry) {
  const char* help =
      "Per-(update, switch) propagation latency by hop; total = controller "
      "intent to 3-step finish";
  h_channel_ = registry.histogram("silkroad_update_propagation_ns", help,
                                  "hop=\"channel\"");
  h_queue_ = registry.histogram("silkroad_update_propagation_ns", help,
                                "hop=\"queue\"");
  h_execute_ = registry.histogram("silkroad_update_propagation_ns", help,
                                  "hop=\"execute\"");
  h_total_ = registry.histogram("silkroad_update_propagation_ns", help,
                                "hop=\"total\"");
  registry.register_callback(
      "silkroad_spans_retained", MetricKind::kGauge,
      [this] { return static_cast<double>(spans_.size()); },
      "update/resync spans currently retained by the collector");
  registry.register_callback(
      "silkroad_spans_started_total", MetricKind::kCounter,
      [this] { return static_cast<double>(total_started()); },
      "update/resync spans opened since construction");
}

const UpdateSpan* SpanCollector::find(std::uint64_t id) const {
  const auto it = spans_.find(id);
  return it == spans_.end() ? nullptr : &it->second;
}

std::vector<const UpdateSpan*> SpanCollector::all() const {
  std::vector<const UpdateSpan*> out;
  out.reserve(spans_.size());
  for (const auto& [id, span] : spans_) out.push_back(&span);
  return out;
}

std::vector<const UpdateSpan*> SpanCollector::overlapping(sim::Time lo,
                                                          sim::Time hi) const {
  std::vector<const UpdateSpan*> out;
  for (const auto& [id, span] : spans_) {
    if (span.first() <= hi && span.last() >= lo) out.push_back(&span);
  }
  return out;
}

std::vector<std::string> SpanCollector::audit_complete() const {
  std::vector<std::string> problems;
  // (switch, update id) pairs some resync span of that switch subsumed.
  std::unordered_map<std::uint32_t, std::unordered_set<std::uint64_t>>
      subsumed_by;
  for (const auto& [id, span] : spans_) {
    if (!span.resync) continue;
    auto& set = subsumed_by[span.resync_switch];
    set.insert(span.subsumed.begin(), span.subsumed.end());
  }
  const auto subsumed = [&subsumed_by](const UpdateSpan& span,
                                       std::uint32_t leg) {
    const auto it = subsumed_by.find(leg);
    return it != subsumed_by.end() && it->second.contains(span.id);
  };
  const auto complain = [&problems](const UpdateSpan& span,
                                    std::uint32_t leg_index,
                                    const char* what) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "span %" PRIu64 " switch %u: %s", span.id,
                  leg_index, what);
    problems.emplace_back(buf);
  };
  for (const auto& [id, span] : spans_) {
    if (span.resync) continue;
    std::unordered_set<std::uint32_t> legs;
    for (const auto& event : span.events) {
      if (event.scope != kControllerLeg) legs.insert(event.scope);
    }
    if (span.chunk) {
      // A chunk leg has no 3-step protocol of its own: its terminal states
      // are applied at the receiver (kResyncApply), abandoned by a window
      // wipe, or subsumed by the switch's next resync session.
      for (const std::uint32_t leg : legs) {
        const bool delivered = span.has(EventKind::kChannelDeliver, leg);
        const bool applied = span.has(EventKind::kResyncApply, leg);
        const bool abandoned = span.has(EventKind::kAbandon, leg);
        const bool sent = span.has(EventKind::kChannelSend, leg);
        if (delivered && !applied) {
          complain(span, leg, "chunk delivered but never applied");
        }
        if (sent && !delivered && !abandoned && !subsumed(span, leg)) {
          complain(span, leg,
                   "chunk sent but never delivered, abandoned, or "
                   "resync-subsumed");
        }
      }
      continue;
    }
    for (const std::uint32_t leg : legs) {
      const bool finished = span.has(EventKind::kFinish, leg);
      const bool staged = span.has(EventKind::kQueueStage, leg);
      const bool abandoned = span.has(EventKind::kAbandon, leg);
      const bool delivered = span.has(EventKind::kChannelDeliver, leg);
      const bool skipped = span.has(EventKind::kSkipped, leg);
      const bool sent = span.has(EventKind::kChannelSend, leg);
      if (finished) {
        if (!staged) complain(span, leg, "finished without queue-stage");
        if (!span.has(EventKind::kStep1Open, leg)) {
          complain(span, leg, "finished without step1-open");
        }
        if (!span.has(EventKind::kFlip, leg)) {
          complain(span, leg, "finished without flip");
        }
      } else if (staged && !abandoned) {
        complain(span, leg, "staged but neither finished nor abandoned");
      }
      if (delivered && !staged && !skipped) {
        complain(span, leg, "delivered but neither staged nor skipped");
      }
      if (sent && !delivered && !abandoned && !subsumed(span, leg)) {
        complain(span, leg,
                 "sent but never delivered, abandoned, or resync-subsumed");
      }
    }
  }
  return problems;
}

namespace {

void append_span_json(std::string& out, const UpdateSpan& span) {
  append(out, "{\"id\":%" PRIu64 ",\"parent_id\":%" PRIu64
              ",\"resync\":%s,\"chunk\":%s,\"intent_at_ns\":%" PRId64,
         span.id, span.parent_id, span.resync ? "true" : "false",
         span.chunk ? "true" : "false",
         static_cast<std::int64_t>(span.intent_at));
  if (span.chunk) {
    append(out, ",\"resync_switch\":%u", span.resync_switch);
  } else if (span.resync) {
    append(out, ",\"resync_switch\":%u,\"subsumed\":[", span.resync_switch);
    bool first = true;
    for (const std::uint64_t sub : span.subsumed) {
      if (!first) out += ",";
      first = false;
      append(out, "%" PRIu64, sub);
    }
    out += "]";
  } else {
    append(out, ",\"vip\":\"%s\",\"dip\":\"%s\",\"action\":\"%s\","
                "\"cause\":\"%s\"",
           json_escape(span.intent.vip.to_string()).c_str(),
           json_escape(span.intent.dip.to_string()).c_str(),
           action_name(span.intent.action),
           workload::to_string(span.intent.cause));
  }
  out += ",\"events\":[";
  bool first = true;
  for (const auto& event : span.events) {
    if (!first) out += ",";
    first = false;
    append(out, "{\"at_ns\":%" PRId64 ",\"kind\":\"%s\",",
           static_cast<std::int64_t>(event.at), to_string(event.kind));
    append_event_args(out, event);
    out += "}";
  }
  out += "]}";
}

}  // namespace

std::string SpanCollector::to_json() const {
  std::string out;
  append(out, "{\"spans_started\":%" PRIu64 ",\"spans_evicted\":%" PRIu64
              ",\"spans\":[",
         total_started(), total_started() - spans_.size());
  bool first = true;
  for (const auto& [id, span] : spans_) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    append_span_json(out, span);
  }
  out += "\n]}\n";
  return out;
}

std::string SpanCollector::span_json(std::uint64_t id) const {
  const UpdateSpan* span = find(id);
  if (span == nullptr) return "null\n";
  std::string out;
  append_span_json(out, *span);
  out += "\n";
  return out;
}

std::vector<ChromeTrack> span_tracks(const SpanCollector& spans) {
  std::vector<ChromeTrack> tracks;
  for (const UpdateSpan* span : spans.all()) {
    ChromeTrack& track = tracks.emplace_back();
    track.pid = 1;
    track.tid = span->id;
    track.name = span->describe();
    track.events = span->events;
    track.duration = ChromeDuration{span_type(*span), span->first(),
                                    span->last()};
  }
  return tracks;
}

}  // namespace silkroad::obs
