#include "obs/forensics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "obs/exporters.h"

namespace silkroad::obs {

namespace {

std::string span_source(const UpdateSpan& span) {
  std::string out;
  append(out, "%s#%" PRIu64, span.resync ? "resync" : "update", span.id);
  return out;
}

std::string span_event_line(const UpdateSpan& span, const SpanEvent& event) {
  std::string out = to_string(event.kind);
  if (event.switch_index != kControllerLeg) {
    append(out, " sw=%u", event.switch_index);
  }
  switch (event.kind) {
    case SpanEventKind::kIntent:
      if (!span.resync) {
        append(out, " %s dip=%s vip=%s cause=%s",
               span.intent.action == workload::UpdateAction::kAddDip
                   ? "add-dip"
                   : "remove-dip",
               span.intent.dip.to_string().c_str(),
               span.intent.vip.to_string().c_str(),
               workload::to_string(span.intent.cause));
      }
      if (span.parent_id != 0) {
        append(out, " parent=%" PRIu64, span.parent_id);
      }
      break;
    case SpanEventKind::kSubsume:
      append(out, " update#%" PRIu64, event.arg0);
      break;
    case SpanEventKind::kChannelXmit:
    case SpanEventKind::kChannelRetry:
      append(out, " attempt=%" PRIu64, event.arg0);
      break;
    case SpanEventKind::kChannelDrop:
      out += event.arg1 == 1   ? " (ack)"
             : event.arg1 == 2 ? " (offline)"
                               : " (message)";
      break;
    case SpanEventKind::kSkipped:
      out += event.arg1 == 0 ? " (unprovisioned)" : " (already applied)";
      break;
    case SpanEventKind::kStep1Open:
    case SpanEventKind::kFlip:
    case SpanEventKind::kCommit:
      append(out, " v=%" PRIu64 "->%" PRIu64, event.arg0, event.arg1);
      break;
    case SpanEventKind::kAbandon:
      out += event.arg1 == 0   ? " (unknown vip)"
             : event.arg1 == 1 ? " (stage failure)"
             : event.arg1 == 2 ? " (crash wipe)"
                               : " (window wipe)";
      break;
    default:
      break;
  }
  return out;
}

}  // namespace

ForensicsReport assemble_forensics(const TraceRing& ring,
                                   const SpanCollector* spans,
                                   std::uint64_t flow_id, std::string reason,
                                   std::optional<sim::Time> detected_at) {
  ForensicsReport report;
  report.reason = std::move(reason);
  report.flow_id = flow_id;

  if (flow_id != 0) {
    report.journey = FlowJourneyTracer::journey_of(ring, flow_id);
  }
  if (report.journey) {
    report.window_first = report.journey->first;
    report.window_last = report.journey->last;
  } else {
    const auto all = ring.events();
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

  if (report.journey) {
    for (const auto& event : report.journey->events) {
      report.timeline.push_back(
          {event.at, "flow", format_event(ring, event)});
    }
    for (const auto& event : report.journey->context) {
      report.timeline.push_back({event.at, "ctx", format_event(ring, event)});
    }
  }
  for (const auto& span : report.spans) {
    const std::string source = span_source(span);
    for (const auto& event : span.events) {
      report.timeline.push_back({event.at, source,
                                 span_event_line(span, event)});
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
    append(out, "  %s", span_source(span).c_str());
    if (span.resync) {
      append(out, " switch=%u subsumes %zu update(s)", span.resync_switch,
             span.subsumed.size());
    } else {
      append(out, " %s dip=%s vip=%s",
             span.intent.action == workload::UpdateAction::kAddDip
                 ? "add-dip"
                 : "remove-dip",
             span.intent.dip.to_string().c_str(),
             span.intent.vip.to_string().c_str());
      if (span.parent_id != 0) append(out, " parent=%" PRIu64, span.parent_id);
    }
    out += "\n";
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
                "\"software_fallback\":%s}",
           journey->events.size(), journey->installed ? "true" : "false",
           journey->software_fallback ? "true" : "false");
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
