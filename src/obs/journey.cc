#include "obs/journey.h"

#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "obs/exporters.h"

namespace silkroad::obs {

namespace {

bool is_update_step(TraceEventKind kind) noexcept {
  return kind == TraceEventKind::kUpdateStep1Open ||
         kind == TraceEventKind::kUpdateFlip ||
         kind == TraceEventKind::kUpdateFinish;
}

std::string track_name(const TraceRing& ring, const FlowJourney& journey) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "flow 0x%016" PRIx64, journey.flow_id);
  std::string name = buf;
  if (journey.scope != kNoScope) {
    name += " vip=";
    name += ring.scope_name(journey.scope);
  }
  return name;
}

}  // namespace

std::uint64_t FlowJourneyTracer::flow_id_of(const TraceEvent& event) noexcept {
  switch (event.kind) {
    // Flow id rides in arg0 (arg1 free for kind-specific detail).
    case TraceEventKind::kLearn:
    case TraceEventKind::kTransitFalsePositive:
    case TraceEventKind::kSoftwareFallback:
    case TraceEventKind::kAgedOut:
      return event.arg0;
    // arg0 already carries moves/digest; flow id rides in arg1.
    case TraceEventKind::kCuckooInsert:
    case TraceEventKind::kCuckooEvict:
    case TraceEventKind::kCuckooInsertFail:
    case TraceEventKind::kDigestCollision:
      return event.arg1;
    default:
      return 0;
  }
}

std::vector<FlowJourney> FlowJourneyTracer::reconstruct(
    const TraceRing& ring, const JourneyOptions& options) {
  std::vector<FlowJourney> journeys;
  std::unordered_map<std::uint64_t, std::size_t> index;
  const std::vector<TraceEvent> events = ring.events();
  for (const TraceEvent& event : events) {
    const std::uint64_t fid = flow_id_of(event);
    if (fid == 0) continue;
    auto it = index.find(fid);
    if (it == index.end()) {
      if (journeys.size() >= options.max_flows) continue;
      it = index.emplace(fid, journeys.size()).first;
      FlowJourney& j = journeys.emplace_back();
      j.flow_id = fid;
      j.first = event.at;
    }
    FlowJourney& j = journeys[it->second];
    j.last = event.at;
    if (j.scope == kNoScope) j.scope = event.scope;
    if (j.version == kNoVersion) j.version = event.version;
    switch (event.kind) {
      case TraceEventKind::kCuckooInsert: j.installed = true; break;
      case TraceEventKind::kCuckooInsertFail: j.install_failed = true; break;
      case TraceEventKind::kSoftwareFallback: j.software_fallback = true; break;
      case TraceEventKind::kAgedOut: j.aged_out = true; break;
      default: break;
    }
    j.events.push_back(event);
  }
  // Second pass: attach each VIP's update-protocol steps to the journeys
  // they overlap (a flip inside [first, last] is exactly the window in which
  // the flow's version could have been pulled out from under it).
  for (const TraceEvent& event : events) {
    if (!is_update_step(event.kind)) continue;
    for (FlowJourney& j : journeys) {
      if (j.scope == event.scope && event.at >= j.first &&
          event.at <= j.last) {
        j.context.push_back(event);
      }
    }
  }
  return journeys;
}

std::optional<FlowJourney> FlowJourneyTracer::journey_of(
    const TraceRing& ring, std::uint64_t flow_id) {
  // No cap: scan everything so the requested flow cannot be crowded out.
  JourneyOptions options;
  options.max_flows = ~std::size_t{0};
  for (FlowJourney& j : reconstruct(ring, options)) {
    if (j.flow_id == flow_id) return std::move(j);
  }
  return std::nullopt;
}

std::string FlowJourneyTracer::to_chrome_trace(
    const TraceRing& ring, const std::vector<FlowJourney>& journeys) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&out, &first](const char* fmt, auto... args) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    append(out, fmt, args...);
  };

  for (std::size_t i = 0; i < journeys.size(); ++i) {
    const FlowJourney& j = journeys[i];
    const unsigned tid = static_cast<unsigned>(i + 1);
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"%s\"}}",
         tid, json_escape(track_name(ring, j)).c_str());

    // The learn→install span: from the first learn to the first terminal
    // placement (ConnTable entry or software pin).
    const TraceEvent* learn = nullptr;
    const TraceEvent* placed = nullptr;
    for (const TraceEvent& event : j.events) {
      if (learn == nullptr && event.kind == TraceEventKind::kLearn) {
        learn = &event;
      }
      if (learn != nullptr && placed == nullptr &&
          (event.kind == TraceEventKind::kCuckooInsert ||
           event.kind == TraceEventKind::kSoftwareFallback)) {
        placed = &event;
      }
    }
    if (learn != nullptr && placed != nullptr) {
      emit("{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
           "\"name\":\"install\",\"args\":{\"outcome\":\"%s\"}}",
           tid, static_cast<double>(learn->at) / 1e3,
           static_cast<double>(placed->at - learn->at) / 1e3,
           to_string(placed->kind));
    }
    for (const TraceEvent& event : j.events) {
      emit("{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"name\":\"%s\","
           "\"s\":\"t\",\"args\":{\"version\":%s}}",
           tid, static_cast<double>(event.at) / 1e3, to_string(event.kind),
           event.version == kNoVersion
               ? "null"
               : std::to_string(event.version).c_str());
    }
    for (const TraceEvent& event : j.context) {
      emit("{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
           "\"name\":\"ctx:%s\",\"s\":\"t\",\"args\":{\"arg0\":%" PRIu64
           ",\"arg1\":%" PRIu64 "}}",
           tid, static_cast<double>(event.at) / 1e3, to_string(event.kind),
           event.arg0, event.arg1);
    }
  }
  append(out, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
              "{\"flows\":%zu,\"dropped\":%" PRIu64 "}}\n",
         journeys.size(), ring.dropped());
  return out;
}

std::string FlowJourneyTracer::format(const TraceRing& ring,
                                      const FlowJourney& journey) {
  std::string out;
  append(out, "flow 0x%016" PRIx64 " (%zu events", journey.flow_id,
         journey.events.size());
  if (journey.installed) out += ", installed";
  if (journey.install_failed) out += ", insert-fail";
  if (journey.software_fallback) out += ", software-fallback";
  if (journey.aged_out) out += ", aged-out";
  out += ")\n";
  for (const TraceEvent& event : journey.events) {
    out += "  ";
    out += format_event(ring, event);
    out += "\n";
  }
  for (const TraceEvent& event : journey.context) {
    out += "  ctx ";
    out += format_event(ring, event);
    out += "\n";
  }
  return out;
}

}  // namespace silkroad::obs
