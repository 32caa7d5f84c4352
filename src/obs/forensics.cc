#include "obs/forensics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "obs/exporters.h"

namespace silkroad::obs {

namespace {

/// format_event()'s `where` for a span event: its switch leg, or "" at the
/// controller.
std::string leg_where(std::uint32_t leg) {
  std::string out;
  if (leg != kControllerLeg) append(out, "sw=%u", leg);
  return out;
}

void add_event(FlowJourney& journey, const Event& event) {
  if (journey.events.empty()) {
    journey.flow_id = event.id;
    journey.first = event.at;
  }
  journey.last = event.at;
  if (journey.scope == kNoScope) journey.scope = event.scope;
  if (journey.version == kNoVersion) journey.version = event.version;
  switch (event.kind) {
    case EventKind::kCuckooInsert: journey.installed = true; break;
    case EventKind::kCuckooInsertFail: journey.install_failed = true; break;
    case EventKind::kSoftwareFallback: journey.software_fallback = true; break;
    case EventKind::kAgedOut: journey.aged_out = true; break;
    default: break;
  }
  journey.events.push_back(event);
}

}  // namespace

std::vector<FlowJourney> journeys(const TraceRing& ring) {
  std::vector<FlowJourney> out;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (const Event& event : ring.events()) {
    if (event.id == 0) continue;
    auto it = index.find(event.id);
    if (it == index.end()) {
      if (out.size() >= kMaxJourneys) continue;
      it = index.emplace(event.id, out.size()).first;
      out.emplace_back();
    }
    add_event(out[it->second], event);
  }
  return out;
}

std::optional<FlowJourney> journey_of(const TraceRing& ring,
                                      std::uint64_t flow_id) {
  FlowJourney journey;
  for (const Event& event : ring.events()) {
    if (flow_id != 0 && event.id == flow_id) add_event(journey, event);
  }
  if (journey.events.empty()) return std::nullopt;
  return journey;
}

std::vector<ChromeTrack> journey_tracks(
    const TraceRing& ring, const std::vector<FlowJourney>& journeys) {
  std::vector<ChromeTrack> tracks;
  for (const FlowJourney& journey : journeys) {
    ChromeTrack& track = tracks.emplace_back();
    track.pid = 1;
    track.tid = tracks.size();
    append(track.name, "flow 0x%016" PRIx64, journey.flow_id);
    if (journey.scope != kNoScope) {
      append(track.name, " vip=%s", ring.scope_name(journey.scope).c_str());
    }
    track.events = journey.events;
    // The learn→install span: from the first learn to the first placement
    // after it.
    const Event* learn = nullptr;
    for (const Event& event : journey.events) {
      if (learn == nullptr && event.kind == EventKind::kLearn) learn = &event;
      if (learn != nullptr && (event.kind == EventKind::kCuckooInsert ||
                               event.kind == EventKind::kSoftwareFallback)) {
        track.duration = ChromeDuration{"install", learn->at, event.at};
        break;
      }
    }
  }
  return tracks;
}

ForensicsReport assemble_forensics(const TraceRing& ring,
                                   const SpanCollector* spans,
                                   std::uint64_t flow_id, std::string reason,
                                   std::optional<sim::Time> detected_at) {
  ForensicsReport report;
  report.reason = std::move(reason);
  report.flow_id = flow_id;

  if (flow_id != 0) report.journey = journey_of(ring, flow_id);
  // A report without a journey covers the whole ring and tells all of it.
  std::vector<Event> all;
  if (report.journey) {
    report.window_first = report.journey->first;
    report.window_last = report.journey->last;
  } else {
    all = ring.events();
    report.window_first = all.empty() ? 0 : all.front().at;
    report.window_last = all.empty() ? 0 : all.back().at;
    for (const auto& event : all) {
      report.window_first = std::min(report.window_first, event.at);
      report.window_last = std::max(report.window_last, event.at);
    }
  }
  if (detected_at) {
    report.window_first = std::min(report.window_first, *detected_at);
    report.window_last = std::max(report.window_last, *detected_at);
  }

  if (spans != nullptr) {
    for (const UpdateSpan* span :
         spans->overlapping(report.window_first, report.window_last)) {
      report.spans.push_back(*span);
    }
  }

  const char* ring_source = report.journey ? "flow" : "ring";
  for (const auto& event : report.journey ? report.journey->events : all) {
    report.timeline.push_back(
        {event.at, ring_source, format_event(event, ring.where(event))});
  }
  for (const auto& span : report.spans) {
    const std::string source = span.label();
    for (const auto& event : span.events) {
      report.timeline.push_back(
          {event.at, source, format_event(event, leg_where(event.scope))});
    }
  }
  std::stable_sort(report.timeline.begin(), report.timeline.end(),
                   [](const ForensicsReport::Entry& a,
                      const ForensicsReport::Entry& b) { return a.at < b.at; });
  return report;
}

std::string ForensicsReport::to_text() const {
  std::string out;
  append(out, "=== silkroad forensics report ===\nreason: %s\n",
         reason.c_str());
  if (flow_id != 0) {
    append(out, "flow: 0x%016" PRIx64 "%s\n", flow_id,
           journey ? "" : " (no journey in the trace ring)");
  }
  append(out, "window: [%.6f s, %.6f s] sim time\n",
         sim::to_seconds(window_first), sim::to_seconds(window_last));
  if (journey) {
    append(out,
           "journey: %zu events, installed=%d install_failed=%d "
           "software_fallback=%d aged_out=%d\n",
           journey->events.size(), journey->installed ? 1 : 0,
           journey->install_failed ? 1 : 0, journey->software_fallback ? 1 : 0,
           journey->aged_out ? 1 : 0);
  }
  append(out, "overlapping spans: %zu\n", spans.size());
  for (const auto& span : spans) {
    append(out, "  %s\n", span.describe().c_str());
  }
  out += "timeline (ordered by sim time):\n";
  for (const auto& entry : timeline) {
    append(out, "  [%12.6f ms] %-10s %s\n",
           static_cast<double>(entry.at) / 1e6, entry.source.c_str(),
           entry.line.c_str());
  }
  if (!divergence_text.empty()) {
    out += "\n";
    out += divergence_text;
  }
  if (!capacity_text.empty()) {
    out += "\n";
    out += capacity_text;
  }
  return out;
}

std::string ForensicsReport::to_json() const {
  std::string out;
  append(out, "{\"reason\":\"%s\",\"flow_id\":\"0x%016" PRIx64 "\","
              "\"window_first_ns\":%" PRIu64 ",\"window_last_ns\":%" PRIu64,
         json_escape(reason).c_str(), flow_id, window_first, window_last);
  append(out, ",\"journey_found\":%s", journey ? "true" : "false");
  if (journey) {
    append(out, ",\"journey\":{\"events\":%zu,\"installed\":%s,"
                "\"install_failed\":%s,\"software_fallback\":%s,"
                "\"aged_out\":%s}",
           journey->events.size(), journey->installed ? "true" : "false",
           journey->install_failed ? "true" : "false",
           journey->software_fallback ? "true" : "false",
           journey->aged_out ? "true" : "false");
  }
  out += ",\"span_ids\":[";
  bool first = true;
  for (const auto& span : spans) {
    if (!first) out += ",";
    first = false;
    append(out, "%" PRIu64, span.id);
  }
  out += "],\"timeline\":[";
  first = true;
  for (const auto& entry : timeline) {
    if (!first) out += ",";
    first = false;
    append(out, "\n  {\"at_ns\":%" PRIu64 ",\"source\":\"%s\",\"line\":\"%s\"}",
           entry.at, json_escape(entry.source).c_str(),
           json_escape(entry.line).c_str());
  }
  out += "\n]";
  if (!divergence_json.empty()) {
    // divergence_json is a DivergenceFinding::to_json() document; embed it
    // as a sub-object rather than re-encoding.
    out += ",\"divergence\":";
    out += divergence_json;
  }
  if (!capacity_json.empty()) {
    // capacity_json is the ResourceLedger's own JSON document; embed it as a
    // sub-object (trimming its trailing newline) rather than re-encoding.
    std::string trimmed = capacity_json;
    while (!trimmed.empty() &&
           (trimmed.back() == '\n' || trimmed.back() == ' ')) {
      trimmed.pop_back();
    }
    out += ",\"capacity\":";
    out += trimmed;
  }
  out += "}\n";
  return out;
}

std::string telemetry_dir_from_env() {
  // srlint: allow(R8) output-directory config for failure artifacts; never
  // branches protocol behavior, so seed reproducibility is unaffected.
  const char* dir = std::getenv("SILKROAD_TELEMETRY_DIR");
  return dir == nullptr ? std::string() : std::string(dir);
}

bool write_forensics(const ForensicsReport& report, const std::string& dir,
                     const std::string& stem) {
  if (dir.empty()) return false;
  const bool text_ok =
      write_file(dir + "/" + stem + ".txt", report.to_text());
  const bool json_ok =
      write_file(dir + "/" + stem + ".json", report.to_json());
  return text_ok && json_ok;
}

}  // namespace silkroad::obs
