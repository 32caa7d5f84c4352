// Update-span tracing end to end (DESIGN.md §12): id propagation through the
// lossy control channels into the 3-step protocol, resync subsumption,
// per-hop histograms, the /update/<id> scrape route, and the acceptance
// criterion — a forced PCC violation whose ForensicsReport interleaves the
// violating flow's journey with the overlapping update span's retransmit leg.
#include <sys/stat.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "deploy/fleet.h"
#include "gtest/gtest.h"
#include "lb/scenario.h"
#include "obs/forensics.h"
#include "obs/scrape_server.h"
#include "http_get.h"

namespace silkroad {
namespace {

net::Endpoint test_vip() { return {net::IpAddress::v4(0x14000001), 80}; }

std::vector<net::Endpoint> test_dips(std::size_t n) {
  std::vector<net::Endpoint> dips;
  for (std::size_t i = 0; i < n; ++i) {
    dips.push_back(
        {net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(i)), 20});
  }
  return dips;
}

core::SilkRoadSwitch::Config small_config() {
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(4096);
  return config;
}

workload::DipUpdate add_update(const net::Endpoint& dip, sim::Time at = 0) {
  return {at, test_vip(), dip, workload::UpdateAction::kAddDip,
          workload::UpdateCause::kServiceUpgrade};
}

// ---------------------------------------------------------------------------
// Happy path: one intent, every leg delivered, full 3-step chain, histograms
// ---------------------------------------------------------------------------

TEST(SpanPropagation, HappyPathAcrossTwoSwitchFleet) {
  sim::Simulator sim;
  fault::ControlChannel::Config channel;
  channel.base_delay = 100 * sim::kMicrosecond;
  deploy::SilkRoadFleet fleet(sim, small_config(), /*replicas=*/2, 0xFEE7ULL,
                              channel);
  fleet.add_vip(test_vip(), test_dips(4));

  fleet.request_update(add_update(test_dips(5)[4]));
  sim.run();

  ASSERT_EQ(fleet.spans().total_started(), 1u);
  const obs::UpdateSpan* span = fleet.spans().find(1);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->intent.action, workload::UpdateAction::kAddDip);
  EXPECT_EQ(span->intent.update_id, 1u);
  EXPECT_TRUE(span->has(obs::EventKind::kIntent, obs::kControllerLeg));
  for (std::uint32_t leg = 0; leg < 2; ++leg) {
    EXPECT_TRUE(span->has(obs::EventKind::kChannelSend, leg));
    EXPECT_TRUE(span->has(obs::EventKind::kChannelXmit, leg));
    EXPECT_TRUE(span->has(obs::EventKind::kChannelDeliver, leg));
    EXPECT_TRUE(span->has(obs::EventKind::kQueueStage, leg));
    EXPECT_TRUE(span->has(obs::EventKind::kStep1Open, leg));
    EXPECT_TRUE(span->has(obs::EventKind::kFlip, leg));
    EXPECT_TRUE(span->has(obs::EventKind::kFinish, leg));
    // Per-leg events are in causal order.
    const auto events = span->leg(leg);
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].at, events[i - 1].at);
    }
  }
  EXPECT_TRUE(fleet.spans().audit_complete().empty());

  // kFinish fed the per-hop propagation histograms (one sample per leg).
  const auto snap = fleet.metrics_snapshot();
  for (const char* hop : {"hop=\"channel\"", "hop=\"queue\"", "hop=\"execute\"",
                          "hop=\"total\""}) {
    const auto* h = snap.find("silkroad_update_propagation_ns", hop);
    ASSERT_NE(h, nullptr) << hop;
    EXPECT_EQ(h->count, 2u) << hop;
  }
  // Channel hop ≈ one base_delay; total covers send..finish.
  const auto* total = snap.find("silkroad_update_propagation_ns",
                                "hop=\"total\"");
  EXPECT_GE(total->sum, 2.0 * 100 * sim::kMicrosecond);

  // Satellite 1: the channel depth gauges exist and read 0 at quiesce.
  ASSERT_NE(snap.find("silkroad_ctrl_inflight", "switch=\"0\""), nullptr);
  EXPECT_EQ(snap.value_of("silkroad_ctrl_inflight", "switch=\"0\""), 0.0);
  EXPECT_EQ(snap.value_of("silkroad_ctrl_reorder_buffer_depth",
                          "switch=\"1\""),
            0.0);
}

// ---------------------------------------------------------------------------
// Resync escalation: the lost update is subsumed, diff children are linked
// ---------------------------------------------------------------------------

TEST(SpanPropagation, ResyncSubsumesLostUpdateAndLinksChildren) {
  sim::Simulator sim;
  fault::ControlChannel::Config channel;
  channel.base_delay = 100 * sim::kMicrosecond;
  channel.retry_timeout = 1 * sim::kMillisecond;
  channel.retry_backoff = 2.0;
  channel.resync_after_retries = 2;
  deploy::SilkRoadFleet fleet(sim, small_config(), /*replicas=*/1, 0xFEE7ULL,
                              channel);
  fleet.add_vip(test_vip(), test_dips(4));

  // Blackout: every transmission (message and ack) in the first 20 ms is
  // lost, so the update exhausts its 2 retries and the channel escalates.
  // The resync itself is a reliable bulk transfer and goes through.
  fleet.set_channel_loss_hook(
      0, [](sim::Time now) { return now < 20 * sim::kMillisecond; });

  fleet.request_update(add_update(test_dips(5)[4]));
  sim.run();

  EXPECT_EQ(fleet.ctrl_resyncs(), 1u);
  EXPECT_TRUE(fleet.converged());

  // The intent span never delivered: its leg ends in drops/retries...
  const obs::UpdateSpan* intent = fleet.spans().find(1);
  ASSERT_NE(intent, nullptr);
  EXPECT_TRUE(intent->has(obs::EventKind::kChannelDrop, 0));
  EXPECT_TRUE(intent->has(obs::EventKind::kChannelRetry, 0));
  EXPECT_FALSE(intent->has(obs::EventKind::kChannelDeliver, 0));

  // ...and is closed by the resync span that subsumed it.
  const obs::UpdateSpan* resync = nullptr;
  for (const auto* s : fleet.spans().all()) {
    if (s->resync) resync = s;
  }
  ASSERT_NE(resync, nullptr);
  EXPECT_EQ(resync->resync_switch, 0u);
  ASSERT_EQ(resync->subsumed.size(), 1u);
  EXPECT_EQ(resync->subsumed[0], intent->id);
  EXPECT_TRUE(resync->has(obs::EventKind::kSubsume, 0));
  EXPECT_TRUE(resync->has(obs::EventKind::kResyncApply, 0));

  // The diff update the resync synthesized is a child span that ran the full
  // 3-step protocol on the switch.
  const obs::UpdateSpan* child = nullptr;
  for (const auto* s : fleet.spans().all()) {
    if (s->parent_id == resync->id) child = s;
  }
  ASSERT_NE(child, nullptr);
  EXPECT_FALSE(child->resync);
  EXPECT_TRUE(child->has(obs::EventKind::kFinish, 0));

  // With the subsume link in place the whole tree audits complete.
  const auto problems = fleet.spans().audit_complete();
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
}

// ---------------------------------------------------------------------------
// Master switch off: payloads stay untraced and nothing is collected
// ---------------------------------------------------------------------------

TEST(SpanPropagation, DisabledCollectorStampsNothing) {
  sim::Simulator sim;
  deploy::SilkRoadFleet fleet(sim, small_config(), /*replicas=*/1);
  fleet.spans().set_enabled(false);
  fleet.add_vip(test_vip(), test_dips(4));

  fleet.request_update(add_update(test_dips(5)[4]));
  sim.run();

  EXPECT_TRUE(fleet.converged());  // tracing off, behavior unchanged
  EXPECT_EQ(fleet.spans().total_started(), 0u);
  EXPECT_EQ(fleet.spans().size(), 0u);
  EXPECT_EQ(fleet.spans().events_recorded(), 0u);
}

// ---------------------------------------------------------------------------
// Scrape routes: /spans and the /update/<id> prefix route
// ---------------------------------------------------------------------------

TEST(SpanScrape, UpdateEndpointServesOneSpan) {
  obs::SpanCollector spans;
  workload::DipUpdate update = add_update(test_dips(1)[0]);
  const std::uint64_t id = spans.begin_update(update, 0);
  spans.record(id, obs::EventKind::kChannelSend, 0, 10);
  spans.record(id, obs::EventKind::kFinish, 0, 500);

  obs::ScrapeServer server;  // ephemeral port
  server.handle("/spans", "application/json",
                [&spans] { return spans.to_json(); });
  server.handle_prefix("/update", "application/json", [&spans] {
    std::vector<std::pair<std::string, std::string>> bodies;
    for (const obs::UpdateSpan* span : spans.all()) {
      bodies.emplace_back(std::to_string(span->id), spans.span_json(span->id));
    }
    return bodies;
  });
  ASSERT_TRUE(server.start());

  const std::string all = http_get(server.port(), "/spans");
  EXPECT_NE(all.find("200 OK"), std::string::npos);
  EXPECT_NE(all.find("\"spans\""), std::string::npos);

  const std::string one = http_get(server.port(), "/update/1");
  EXPECT_NE(one.find("200 OK"), std::string::npos);
  EXPECT_NE(one.find("\"id\""), std::string::npos);
  EXPECT_NE(one.find("channel-send"), std::string::npos)
      << "expected event kinds in span json, got: " << one;

  // A non-numeric suffix and an id the collector never minted both 404.
  EXPECT_NE(http_get(server.port(), "/update/abc").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/update/999").find("404"),
            std::string::npos);
  server.stop();
}

// ---------------------------------------------------------------------------
// Acceptance criterion: forced PCC violation -> ForensicsReport interleaving
// the flow journey with the overlapping update span's retransmit leg
// ---------------------------------------------------------------------------

TEST(SpanForensics, ForcedViolationReportInterleavesJourneyAndSpan) {
  sim::Simulator sim;

  // Violation recipe: disable the TransitTable (ablation, Fig. 15) and slow
  // the switch CPU to a crawl, so a standing backlog of flows is pending
  // insertion when a pool-growing update flips the VIPTable. Pending flows
  // are mapped by VIPTable, so ~1/9 of them remap onto the new DIP — a PCC
  // violation the audit cannot exempt (every original server stays alive).
  core::SilkRoadSwitch::Config config = small_config();
  config.use_transit_table = false;
  config.cpu.tasks_per_second = 50;

  fault::ControlChannel::Config channel;
  channel.base_delay = 100 * sim::kMicrosecond;
  channel.retry_timeout = 1 * sim::kMillisecond;
  channel.resync_after_retries = 10;
  deploy::SilkRoadFleet fleet(sim, config, /*replicas=*/1, 0xFEE7ULL, channel);

  // The update is sent at t=1s; drop its first transmission so the span
  // carries a retransmit leg (kChannelDrop + kChannelRetry) into the report.
  fleet.set_channel_loss_hook(0, [](sim::Time now) {
    return now >= sim::kSecond && now < sim::kSecond + 500 * sim::kMicrosecond;
  });

  lb::ScenarioConfig scenario_config;
  scenario_config.horizon = 3 * sim::kSecond;
  scenario_config.seed = 7;
  workload::FlowGenerator::VipLoad load;
  load.vip = test_vip();
  load.arrivals_per_min = 6000;  // 100 flows/s >> 50 CPU tasks/s
  load.profile = {"span-forensics", 2.0, 10.0, 1e6, 5e6};
  scenario_config.vip_loads.push_back(load);
  scenario_config.dip_pools.push_back(test_dips(8));
  scenario_config.updates.push_back(
      add_update(test_dips(9)[8], sim::kSecond));
  lb::Scenario scenario(sim, fleet, scenario_config);

  struct Charge {
    net::FiveTuple flow;
    sim::Time at = 0;
  };
  std::vector<Charge> violating;
  scenario.set_violation_callback(
      [&](const net::FiveTuple& flow, sim::Time at) {
        violating.push_back({flow, at});
      });

  const lb::ScenarioStats stats = scenario.run();
  ASSERT_GT(stats.violations, 0u)
      << "recipe failed to force a PCC violation";
  ASSERT_FALSE(violating.empty());

  // Every violating flow's report finds its journey and at least one update
  // span overlapping it whose channel leg shows the injected drop and the
  // retransmission that recovered from it. Some of these flows were still
  // waiting for their ConnTable insert at the flip, so their last traced
  // event is the learn, before the update span opened: the window reaches
  // the span only because it runs to the detection time.
  const auto report_for = [&](const Charge& charge) {
    return obs::assemble_forensics(
        fleet.switch_at(0).trace(), &fleet.spans(), net::flow_id(charge.flow),
        "span_test: forced PCC violation", charge.at);
  };
  for (const Charge& charge : violating) {
    const obs::ForensicsReport r = report_for(charge);
    ASSERT_TRUE(r.journey.has_value()) << charge.flow.to_string();
    EXPECT_FALSE(r.journey->events.empty()) << charge.flow.to_string();
    EXPECT_LE(r.window_first, charge.at);
    EXPECT_GE(r.window_last, charge.at);
    bool saw_retransmit_leg = false;
    for (const auto& span : r.spans) {
      if (span.has(obs::EventKind::kChannelDrop, 0) &&
          span.has(obs::EventKind::kChannelRetry, 0) &&
          span.has(obs::EventKind::kFlip, 0)) {
        saw_retransmit_leg = true;
      }
    }
    EXPECT_TRUE(saw_retransmit_leg)
        << "no span overlapping the report of " << charge.flow.to_string()
        << " (charged at " << charge.at << ") carries the retransmit leg";
  }

  const obs::ForensicsReport report = report_for(violating.front());
  EXPECT_EQ(report.flow_id, net::flow_id(violating.front().flow));

  // The merged timeline tells one story, ordered by sim time, with both the
  // flow's packets and the update's lifecycle in it.
  ASSERT_FALSE(report.timeline.empty());
  bool saw_flow = false;
  bool saw_update = false;
  for (std::size_t i = 0; i < report.timeline.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(report.timeline[i].at, report.timeline[i - 1].at);
    }
    if (report.timeline[i].source == "flow") saw_flow = true;
    if (report.timeline[i].source.rfind("update#", 0) == 0) saw_update = true;
  }
  EXPECT_TRUE(saw_flow);
  EXPECT_TRUE(saw_update);

  // Both renderings mention the span's channel trouble.
  EXPECT_NE(report.to_text().find("channel-retry"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"timeline\""), std::string::npos);

  // And the report lands on disk under SILKROAD_TELEMETRY_DIR.
  char dir_template[] = "/tmp/silkroad_span_test_XXXXXX";
  char* dir = ::mkdtemp(dir_template);
  ASSERT_NE(dir, nullptr);
  ASSERT_TRUE(obs::write_forensics(report, dir, "forced_violation"));
  for (const char* ext : {".txt", ".json"}) {
    const std::string path = std::string(dir) + "/forced_violation" + ext;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_FALSE(contents.empty()) << path;
    in.close();
    ::unlink(path.c_str());
  }
  ::rmdir(dir);
}

TEST(SpanForensics, ReportWithoutAFlowCarriesTheWholeRing) {
  // The invariant auditor's and the fleet's divergence reports name no
  // flow: their window is the whole ring, and so is their timeline.
  sim::Simulator sim;
  core::SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(test_vip(), test_dips(4));
  for (std::uint32_t client = 0; client < 20; ++client) {
    net::Packet syn;
    syn.flow = {{net::IpAddress::v4(0x0B000000 + client), 40000},
                test_vip(),
                net::Protocol::kTcp};
    syn.syn = true;
    sw.process_packet(syn);
  }
  sim.run();
  sw.request_update(add_update(test_dips(5)[4], sim.now()));
  sim.run();

  const obs::ForensicsReport report = obs::assemble_forensics(
      sw.trace(), &sw.spans(), 0, "span_test: no flow");
  std::size_t ring_lines = 0;
  bool saw_learn = false;
  bool saw_insert = false;
  bool saw_flip = false;
  for (const auto& entry : report.timeline) {
    if (entry.source == "ring") ++ring_lines;
    saw_learn |= entry.line.rfind("learn ", 0) == 0;
    saw_insert |= entry.line.rfind("cuckoo-insert ", 0) == 0;
    saw_flip |= entry.line.rfind("flip ", 0) == 0;
  }
  EXPECT_EQ(ring_lines, sw.trace().events().size());
  EXPECT_TRUE(saw_learn);
  EXPECT_TRUE(saw_insert);
  EXPECT_TRUE(saw_flip);  // from the update's span
}

TEST(SpanForensics, ChunkSpanIsListedAsAChunkOfItsSession) {
  obs::SpanCollector spans;
  const std::uint64_t session = spans.begin_resync(0, 1000, {});
  const std::uint64_t chunk =
      spans.begin_chunk(0, 1000, session, /*chunk_index=*/3, /*entries=*/7);
  ASSERT_EQ(session, 1u);
  ASSERT_EQ(chunk, 2u);
  spans.record(chunk, obs::EventKind::kChannelSend, 0, 1100);
  spans.record(chunk, obs::EventKind::kChannelDeliver, 0, 1200);
  spans.record(chunk, obs::EventKind::kResyncApply, 0, 1300);

  const obs::TraceRing ring(16);
  const obs::ForensicsReport report = obs::assemble_forensics(
      ring, &spans, 0, "span_test: one resync chunk", 1200);
  ASSERT_EQ(report.spans.size(), 2u);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("chunk#2 switch=0 of resync#1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("chunk=3 entries=7"), std::string::npos) << text;
  EXPECT_EQ(text.find("remove-dip"), std::string::npos) << text;
  EXPECT_EQ(text.find("update#"), std::string::npos) << text;
}

}  // namespace
}  // namespace silkroad
