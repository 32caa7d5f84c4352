// A fleet of SilkRoad switches behind ECMP, with BFD-style health checking:
// survive a DIP failure (in-place resilient hashing, §7) and a whole-switch
// failure (re-hash onto peers; only stale-version flows break).
//
//   ./build/examples/fleet_failover
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/health_checker.h"
#include "deploy/fleet.h"
#include "obs/exporters.h"
#include "obs/scrape_server.h"
#include "obs/timeseries.h"

using namespace silkroad;

namespace {

net::Packet packet_for(std::uint32_t client, const net::Endpoint& vip,
                       bool syn = false) {
  net::Packet p;
  p.flow = {{net::IpAddress::v4(0x0B000000 + client), 40000}, vip,
            net::Protocol::kTcp};
  p.syn = syn;
  p.size_bytes = 200;
  return p;
}

}  // namespace

int main() {
  sim::Simulator sim;
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(100'000);
  deploy::SilkRoadFleet fleet(sim, config, /*replicas=*/4);

  const net::Endpoint vip = *net::Endpoint::parse("20.0.0.1:80");
  std::vector<net::Endpoint> dips;
  for (int d = 0; d < 16; ++d) {
    dips.push_back({net::IpAddress::v4(0x0A000000u + static_cast<std::uint32_t>(d)), 8080});
  }
  fleet.add_vip(vip, dips);

  // Health checking: one checker (switch 0's BFD sessions) detects the
  // failure; its callback propagates the in-place resilient removal to the
  // rest of the fleet so every member converges.
  std::set<net::Endpoint> dead_servers;
  core::HealthChecker checker(
      sim, fleet.switch_at(0),
      {.probe_interval = sim::kSecond, .failure_threshold = 3},
      [&](const net::Endpoint& dip) { return !dead_servers.contains(dip); });
  checker.set_failure_callback(
      [&](const net::Endpoint& v, const net::Endpoint& dip) {
        for (std::size_t i = 1; i < fleet.size(); ++i) {
          fleet.switch_at(i).handle_dip_failure(v, dip, true);
        }
      });
  for (const auto& dip : dips) checker.watch(vip, dip);

  // Fleet-wide time series: one recorder over the aggregate of all four
  // member registries, sampled every 250 ms of sim time. The
  // silkroad_fleet_switches_live series captures the failover itself.
  obs::TimeSeriesRecorder::Options rec_opts;
  rec_opts.interval = 250 * sim::kMillisecond;
  obs::TimeSeriesRecorder recorder(
      [&fleet] { return fleet.metrics_snapshot(); }, rec_opts);
  recorder.attach(sim);

  // Optional live scrape endpoint over the fleet-wide aggregate
  // (SILKROAD_SCRAPE_PORT, see quickstart for the endpoint list; /tables
  // shows switch 0's ConnTable). The handlers run in publish() on this
  // thread: at start() and at the end of each of the three phases below.
  std::optional<obs::ScrapeServer> server;
  std::uint16_t scrape_port = 0;
  if (obs::scrape_port_from_env(scrape_port)) {
    obs::ScrapeServer::Options sopts;
    sopts.port = scrape_port;
    server.emplace(sopts);
    server->handle("/metrics", "text/plain; version=0.0.4", [&fleet] {
      return obs::to_prometheus(fleet.metrics_snapshot());
    });
    server->handle("/timeseries.json", "application/json",
                   [&recorder] { return recorder.to_json(); });
    server->handle("/tables", "application/json",
                   [&fleet] { return fleet.switch_at(0).tables_json(); });
    server->handle("/spans", "application/json",
                   [&fleet] { return fleet.spans().to_json(); });
    server->handle("/spans/trace.json", "application/json", [&fleet] {
      return obs::to_chrome_trace(obs::span_tracks(fleet.spans()));
    });
    server->handle_prefix("/update", "application/json", [&fleet] {
      std::vector<std::pair<std::string, std::string>> bodies;
      for (const obs::UpdateSpan* span : fleet.spans().all()) {
        bodies.emplace_back(std::to_string(span->id),
                            fleet.spans().span_json(span->id));
      }
      return bodies;
    });
    if (server->start()) {
      std::printf("scrape server on http://127.0.0.1:%u\n", server->port());
    }
  }

  // 2000 long-lived connections spread across the fleet.
  std::map<std::uint32_t, net::Endpoint> assigned;
  for (std::uint32_t c = 0; c < 2000; ++c) {
    const auto r = fleet.process_packet(packet_for(c, vip, true));
    assigned.emplace(c, *r.dip);
  }
  sim.run_until(sim.now() + sim::kSecond);
  std::printf("fleet of %zu switches, %zu DIPs, 2000 connections\n",
              fleet.size(), dips.size());
  if (server) server->publish();

  // --- Event 1: a server dies -------------------------------------------------
  dead_servers.insert(dips[3]);
  sim.run_until(sim.now() + 5 * sim::kSecond);  // BFD detects in ~3 s
  int moved = 0, victims = 0;
  for (auto& [c, dip] : assigned) {
    const auto r = fleet.process_packet(packet_for(c, vip));
    if (!(*r.dip == dip)) {
      ++moved;
      if (dip == dips[3]) ++victims;
      dip = *r.dip;  // those flows re-established elsewhere
    }
  }
  std::printf("\nDIP %s failed: health check detected it in %.0f s\n",
              dips[3].to_string().c_str(),
              sim::to_seconds(checker.detection_latency()));
  std::printf("  %d connections re-mapped, all %d of them victims of the "
              "dead server (no collateral re-mapping)\n",
              moved, victims);
  if (server) server->publish();

  // --- Event 2: a pool update, then a switch dies --------------------------------
  // The update makes the standing connections "stale" (bound to the previous
  // pool version, pinned per switch). A surviving switch has the same
  // VIPTable but not the dead switch's ConnTable, so exactly the stale flows
  // of the dead switch can re-map.
  fleet.request_update({sim.now(), vip, dips[7],
                        workload::UpdateAction::kRemoveDip,
                        workload::UpdateCause::kServiceUpgrade});
  // (run_until, not run(): the health checker keeps probing forever)
  sim.run_until(sim.now() + sim::kSecond);
  for (auto& [c, dip] : assigned) {
    dip = *fleet.process_packet(packet_for(c, vip)).dip;  // settle post-update
  }
  fleet.fail_switch(2);
  int broken = 0;
  for (const auto& [c, dip] : assigned) {
    const auto r = fleet.process_packet(packet_for(c, vip));
    if (!r.dip || !(*r.dip == dip)) ++broken;
  }
  std::printf("\npool update, then switch 2 failed: %zu of %zu switches "
              "remain\n",
              fleet.live_count(), fleet.size());
  std::printf("  %d of 2000 connections broke — exactly the dead switch's "
              "~1/4 share that was pinned to the pre-update pool version "
              "(paper §7: latest-version flows survive; stale-version flows "
              "lose their ConnTable pin and re-hash under the new pool). "
              "The same blast radius as losing one SLB's ConnTable.\n",
              broken);
  if (server) server->publish();

  recorder.detach();
  const auto live = recorder.find("silkroad_fleet_switches_live");
  std::printf("\nrecorder: %zu samples; fleet-live series has %zu points "
              "(last value %.0f)\n",
              recorder.sample_count(), live.size(),
              live.empty() ? 0.0 : live.back().value);
  if (server) server->stop();
  return 0;
}
