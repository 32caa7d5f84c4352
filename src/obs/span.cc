#include "obs/span.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "check/sr_check.h"
#include "obs/exporters.h"

namespace silkroad::obs {

const char* to_string(SpanEventKind kind) noexcept {
  switch (kind) {
    case SpanEventKind::kIntent: return "intent";
    case SpanEventKind::kResyncBegin: return "resync-begin";
    case SpanEventKind::kSubsume: return "subsume";
    case SpanEventKind::kChannelSend: return "channel-send";
    case SpanEventKind::kChannelXmit: return "channel-xmit";
    case SpanEventKind::kChannelDrop: return "channel-drop";
    case SpanEventKind::kChannelRetry: return "channel-retry";
    case SpanEventKind::kChannelDeliver: return "channel-deliver";
    case SpanEventKind::kChannelDup: return "channel-duplicate";
    case SpanEventKind::kSkipped: return "skipped";
    case SpanEventKind::kQueueStage: return "queue-stage";
    case SpanEventKind::kStep1Open: return "step1-open";
    case SpanEventKind::kFlip: return "flip";
    case SpanEventKind::kCommit: return "commit";
    case SpanEventKind::kFinish: return "finish";
    case SpanEventKind::kAbandon: return "abandon";
    case SpanEventKind::kResyncApply: return "resync-apply";
    case SpanEventKind::kChunkBegin: return "chunk-begin";
  }
  return "?";
}

std::vector<SpanEvent> UpdateSpan::leg(std::uint32_t switch_index) const {
  std::vector<SpanEvent> out;
  for (const auto& event : events) {
    if (event.switch_index == switch_index) out.push_back(event);
  }
  return out;
}

bool UpdateSpan::has(SpanEventKind kind, std::uint32_t switch_index) const {
  for (const auto& event : events) {
    if (event.kind == kind && event.switch_index == switch_index) return true;
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

std::uint64_t SpanCollector::begin_update(workload::DipUpdate& update,
                                          sim::Time now,
                                          std::uint64_t parent_id) {
  if (!enabled_) {
    update.update_id = 0;
    return 0;
  }
  const std::uint64_t id = next_id_++;
  update.update_id = id;
  UpdateSpan& span = spans_[id];
  span.id = id;
  span.parent_id = parent_id;
  span.intent = update;
  span.intent_at = now;
  span.events.push_back({now, SpanEventKind::kIntent, kControllerLeg,
                         parent_id, 0});
  ++events_recorded_;
  while (spans_.size() > capacity_) {
    spans_.erase(spans_.begin());
    ++evicted_;
  }
  return id;
}

std::uint64_t SpanCollector::begin_resync(
    std::uint32_t switch_index, sim::Time now,
    const std::vector<std::uint64_t>& subsumed) {
  if (!enabled_) return 0;
  const std::uint64_t id = next_id_++;
  UpdateSpan& span = spans_[id];
  span.id = id;
  span.resync = true;
  span.resync_switch = switch_index;
  span.intent_at = now;
  span.events.push_back(
      {now, SpanEventKind::kResyncBegin, switch_index, 0, 0});
  for (const std::uint64_t sub : subsumed) {
    span.subsumed.push_back(sub);
    span.events.push_back({now, SpanEventKind::kSubsume, switch_index, sub, 0});
  }
  events_recorded_ += 1 + subsumed.size();
  while (spans_.size() > capacity_) {
    spans_.erase(spans_.begin());
    ++evicted_;
  }
  return id;
}

std::uint64_t SpanCollector::begin_chunk(std::uint32_t switch_index,
                                         sim::Time now,
                                         std::uint64_t parent_id,
                                         std::uint64_t chunk_index,
                                         std::uint64_t entries) {
  if (!enabled_) return 0;
  const std::uint64_t id = next_id_++;
  UpdateSpan& span = spans_[id];
  span.id = id;
  span.parent_id = parent_id;
  span.chunk = true;
  span.resync_switch = switch_index;
  span.intent_at = now;
  span.events.push_back(
      {now, SpanEventKind::kChunkBegin, switch_index, chunk_index, entries});
  ++events_recorded_;
  while (spans_.size() > capacity_) {
    spans_.erase(spans_.begin());
    ++evicted_;
  }
  return id;
}

void SpanCollector::record(std::uint64_t id, SpanEventKind kind,
                           std::uint32_t switch_index, sim::Time at,
                           std::uint64_t arg0, std::uint64_t arg1) {
  if (id == 0 || !enabled_) return;
  const auto it = spans_.find(id);
  if (it == spans_.end()) return;  // evicted — the tail of a long run
  it->second.events.push_back({at, kind, switch_index, arg0, arg1});
  ++events_recorded_;
  if (kind == SpanEventKind::kFinish) {
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
  sim::Time send = kUnset;
  sim::Time deliver = kUnset;
  sim::Time stage = kUnset;
  sim::Time step1 = kUnset;
  for (const auto& event : span.events) {
    if (event.switch_index != switch_index) continue;
    switch (event.kind) {
      case SpanEventKind::kChannelSend:
        if (send == kUnset) send = event.at;
        break;
      case SpanEventKind::kChannelDeliver:
        if (deliver == kUnset) deliver = event.at;
        break;
      case SpanEventKind::kQueueStage:
        if (stage == kUnset) stage = event.at;
        break;
      case SpanEventKind::kStep1Open:
        if (step1 == kUnset) step1 = event.at;
        break;
      default:
        break;
    }
  }
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
      if (event.switch_index != kControllerLeg) legs.insert(event.switch_index);
    }
    if (span.chunk) {
      // A chunk leg has no 3-step protocol of its own: its terminal states
      // are applied at the receiver (kResyncApply), abandoned by a window
      // wipe, or subsumed by the switch's next resync session.
      for (const std::uint32_t leg : legs) {
        const bool delivered = span.has(SpanEventKind::kChannelDeliver, leg);
        const bool applied = span.has(SpanEventKind::kResyncApply, leg);
        const bool abandoned = span.has(SpanEventKind::kAbandon, leg);
        const bool sent = span.has(SpanEventKind::kChannelSend, leg);
        if (delivered && !applied) {
          complain(span, leg, "chunk delivered but never applied");
        }
        if (sent && !delivered && !abandoned) {
          const auto it = subsumed_by.find(leg);
          if (it == subsumed_by.end() || !it->second.contains(span.id)) {
            complain(span, leg,
                     "chunk sent but never delivered, abandoned, or "
                     "resync-subsumed");
          }
        }
      }
      continue;
    }
    for (const std::uint32_t leg : legs) {
      const bool finished = span.has(SpanEventKind::kFinish, leg);
      const bool staged = span.has(SpanEventKind::kQueueStage, leg);
      const bool abandoned = span.has(SpanEventKind::kAbandon, leg);
      const bool delivered = span.has(SpanEventKind::kChannelDeliver, leg);
      const bool skipped = span.has(SpanEventKind::kSkipped, leg);
      const bool sent = span.has(SpanEventKind::kChannelSend, leg);
      if (finished) {
        if (!staged) complain(span, leg, "finished without queue-stage");
        if (!span.has(SpanEventKind::kStep1Open, leg)) {
          complain(span, leg, "finished without step1-open");
        }
        if (!span.has(SpanEventKind::kFlip, leg)) {
          complain(span, leg, "finished without flip");
        }
        if (!span.has(SpanEventKind::kCommit, leg)) {
          complain(span, leg, "finished without commit");
        }
      } else if (staged && !abandoned) {
        complain(span, leg, "staged but neither finished nor abandoned");
      }
      if (delivered && !staged && !skipped) {
        complain(span, leg, "delivered but neither staged nor skipped");
      }
      if (sent && !delivered && !abandoned) {
        const auto it = subsumed_by.find(leg);
        if (it == subsumed_by.end() || !it->second.contains(span.id)) {
          complain(span, leg,
                   "sent but never delivered, abandoned, or resync-subsumed");
        }
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
           span.intent.action == workload::UpdateAction::kAddDip ? "add-dip"
                                                                 : "remove-dip",
           workload::to_string(span.intent.cause));
  }
  out += ",\"events\":[";
  bool first = true;
  for (const auto& event : span.events) {
    if (!first) out += ",";
    first = false;
    append(out, "{\"at_ns\":%" PRId64 ",\"kind\":\"%s\",",
           static_cast<std::int64_t>(event.at), to_string(event.kind));
    if (event.switch_index == kControllerLeg) {
      out += "\"switch\":null";
    } else {
      append(out, "\"switch\":%u", event.switch_index);
    }
    append(out, ",\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64 "}", event.arg0,
           event.arg1);
  }
  out += "]}";
}

}  // namespace

std::string SpanCollector::to_json() const {
  std::string out;
  append(out, "{\"spans_started\":%" PRIu64 ",\"spans_evicted\":%" PRIu64
              ",\"spans\":[",
         total_started(), evicted_);
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

std::string SpanCollector::to_chrome_trace() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&out, &first](const char* fmt, auto... args) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    append(out, fmt, args...);
  };
  for (const auto& [id, span] : spans_) {
    std::string name;
    if (span.chunk) {
      append(name, "chunk#%" PRIu64 " switch=%u", span.id, span.resync_switch);
    } else if (span.resync) {
      append(name, "resync#%" PRIu64 " switch=%u", span.id, span.resync_switch);
    } else {
      append(name, "update#%" PRIu64 " %s %s", span.id,
             span.intent.action == workload::UpdateAction::kAddDip
                 ? "add"
                 : "remove",
             span.intent.dip.to_string().c_str());
    }
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":%" PRIu64
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
         span.id, json_escape(name).c_str());
    const double begin_us = static_cast<double>(span.first()) / 1e3;
    const double dur_us =
        static_cast<double>(span.last() - span.first()) / 1e3;
    emit("{\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu64 ",\"ts\":%.3f,"
         "\"dur\":%.3f,\"name\":\"%s\"}",
         span.id, begin_us, dur_us,
         span.chunk ? "chunk" : (span.resync ? "resync" : "update"));
    for (const auto& event : span.events) {
      const double us = static_cast<double>(event.at) / 1e3;
      std::string args;
      if (event.switch_index == kControllerLeg) {
        args = "{\"switch\":null";
      } else {
        append(args, "{\"switch\":%u", event.switch_index);
      }
      append(args, ",\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64 "}", event.arg0,
             event.arg1);
      emit("{\"ph\":\"i\",\"pid\":1,\"tid\":%" PRIu64 ",\"ts\":%.3f,"
           "\"name\":\"%s\",\"s\":\"t\",\"args\":%s}",
           span.id, us, to_string(event.kind), args.c_str());
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace silkroad::obs
