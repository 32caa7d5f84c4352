// Quickstart: a SilkRoad switch balancing one service through a DIP-pool
// update, with per-connection consistency end to end.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "core/silkroad_switch.h"
#include "deploy/fleet.h"
#include "obs/exporters.h"
#include "obs/forensics.h"
#include "obs/scrape_server.h"
#include "obs/timeseries.h"
#include "sim/event_queue.h"

using namespace silkroad;

int main() {
  // The simulator provides virtual time for the ASIC's learning filter and
  // the switch CPU's insertion queue.
  sim::Simulator sim;

  // Size the ConnTable for 100K concurrent connections (16-bit digests,
  // 6-bit versions -> 28-bit entries, 4 per 112-bit SRAM word).
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(100'000);
  core::SilkRoadSwitch lb(sim, config);

  // One service: VIP 20.0.0.1:80 backed by four servers.
  const net::Endpoint vip = *net::Endpoint::parse("20.0.0.1:80");
  const std::vector<net::Endpoint> dips = {
      *net::Endpoint::parse("10.0.0.1:8080"),
      *net::Endpoint::parse("10.0.0.2:8080"),
      *net::Endpoint::parse("10.0.0.3:8080"),
      *net::Endpoint::parse("10.0.0.4:8080"),
  };
  lb.add_vip(vip, dips);

  // Open 32 client connections (first packet = SYN selects the DIP and
  // triggers connection learning).
  std::map<int, net::Endpoint> assigned;
  for (int client = 0; client < 32; ++client) {
    net::Packet syn;
    syn.flow = {{net::IpAddress::v4(0x01020300u + static_cast<std::uint32_t>(client)), 40000},
                vip,
                net::Protocol::kTcp};
    syn.syn = true;
    syn.size_bytes = 64;
    const auto result = lb.process_packet(syn);
    assigned.emplace(client, *result.dip);
  }
  std::printf("opened 32 connections across %zu DIPs\n", dips.size());

  // Upgrade a backend: remove 10.0.0.2 (its connections' packets keep
  // flowing to it until they finish — that is PCC), then bring it back.
  lb.request_update({sim.now(), vip, dips[1],
                     workload::UpdateAction::kRemoveDip,
                     workload::UpdateCause::kServiceUpgrade});
  sim.run();  // learning, insertion, and the 3-step update all complete

  int moved = 0;
  for (const auto& [client, dip] : assigned) {
    net::Packet data;
    data.flow = {{net::IpAddress::v4(0x01020300u + static_cast<std::uint32_t>(client)), 40000},
                 vip,
                 net::Protocol::kTcp};
    data.size_bytes = 1200;
    const auto result = lb.process_packet(data);
    if (!(result.dip && *result.dip == dip)) ++moved;
  }
  std::printf("after removing %s: %d of 32 ongoing connections re-mapped "
              "(PCC requires 0)\n",
              dips[1].to_string().c_str(), moved);

  // New connections avoid the removed server.
  int to_removed = 0;
  for (int client = 100; client < 164; ++client) {
    net::Packet syn;
    syn.flow = {{net::IpAddress::v4(0x01020300u + static_cast<std::uint32_t>(client)), 40000},
                vip,
                net::Protocol::kTcp};
    syn.syn = true;
    const auto result = lb.process_packet(syn);
    if (result.dip && *result.dip == dips[1]) ++to_removed;
  }
  std::printf("64 new connections: %d landed on the removed DIP (want 0)\n",
              to_removed);
  sim.run();

  // Rolling reboot completes: the DIP returns and its old version number is
  // reused instead of burning a new one (paper §4.2).
  lb.request_update({sim.now(), vip, dips[1], workload::UpdateAction::kAddDip,
                     workload::UpdateCause::kServiceUpgrade});
  sim.run();
  const auto* versions = lb.version_manager(vip);
  std::printf("after re-adding it: %zu pool versions live, %llu reused\n",
              versions->active_versions(),
              static_cast<unsigned long long>(versions->versions_reused()));

  // --- Live observability (DESIGN.md §10) -----------------------------------
  // Sample every metric each 50 ms of sim time while a churn phase runs:
  // ~1500 new connections over 3 s with a rolling remove/add of one DIP.
  // The recorder derives per-interval rates and p50/p99 latency series.
  obs::TimeSeriesRecorder::Options rec_opts;
  rec_opts.interval = 50 * sim::kMillisecond;
  rec_opts.capacity = 4096;
  obs::TimeSeriesRecorder recorder(lb.metrics(), rec_opts);
  recorder.attach(sim);

  const sim::Time churn_start = sim.now();
  for (int client = 0; client < 1500; ++client) {
    const sim::Time at =
        churn_start + static_cast<sim::Time>(client) * 2 * sim::kMillisecond;
    sim.schedule_at(at, [&lb, vip, client] {
      net::Packet syn;
      syn.flow = {{net::IpAddress::v4(0x05000000u +
                                      static_cast<std::uint32_t>(client)),
                   41000},
                  vip,
                  net::Protocol::kTcp};
      syn.syn = true;
      syn.size_bytes = 64;
      lb.process_packet(syn);
    });
  }
  const net::Endpoint churn_dip = dips[2];
  for (int round = 0; round < 3; ++round) {
    sim.schedule_at(
        churn_start + (round * 2 + 1) * 500 * sim::kMillisecond,
        [&lb, &sim, vip, churn_dip] {
          lb.request_update({sim.now(), vip, churn_dip,
                             workload::UpdateAction::kRemoveDip,
                             workload::UpdateCause::kServiceUpgrade});
        });
    sim.schedule_at(
        churn_start + (round * 2 + 2) * 500 * sim::kMillisecond,
        [&lb, &sim, vip, churn_dip] {
          lb.request_update({sim.now(), vip, churn_dip,
                             workload::UpdateAction::kAddDip,
                             workload::UpdateCause::kServiceUpgrade});
        });
  }
  sim.run_until(churn_start + 4 * sim::kSecond);
  recorder.detach();
  sim.run();  // drain any remaining learning/insertion events

  const auto p99 = recorder.find("silkroad_insert_latency_ns:p99");
  std::printf("\nrecorder: %zu samples, %zu series; insert-latency p99 has "
              "%zu points\n",
              recorder.sample_count(), recorder.series_count(), p99.size());
  const auto journeys = obs::journeys(lb.trace());
  std::printf("journeys: %zu flows reconstructed from the trace ring "
              "(%llu events dropped to wraparound)\n",
              journeys.size(),
              static_cast<unsigned long long>(lb.trace().dropped()));

  std::printf("\n%s", lb.debug_report().c_str());

  // --- Fleet convergence observatory (DESIGN.md §17) ------------------------
  // Three replicas behind ECMP on a mildly lossy control plane: stream
  // paired remove/add updates, crash and restore one replica mid-churn, and
  // let the FleetObserver derive watermark lag, the convergence SLO, and
  // per-switch digests for the /fleet scrape plane below.
  fault::ControlChannel::Config fleet_channel;
  fleet_channel.base_delay = 200 * sim::kMicrosecond;
  fleet_channel.jitter = 100 * sim::kMicrosecond;
  fleet_channel.drop_probability = 0.05;
  deploy::SilkRoadFleet fleet(sim, config, 3, 0xFEE7ULL, fleet_channel);
  const net::Endpoint fleet_vip = *net::Endpoint::parse("20.0.1.1:80");
  fleet.add_vip(fleet_vip, dips);
  sim.run();
  for (int round = 0; round < 20; ++round) {
    const net::Endpoint& dip = dips[static_cast<std::size_t>(round) % dips.size()];
    fleet.request_update({sim.now(), fleet_vip, dip,
                          workload::UpdateAction::kRemoveDip,
                          workload::UpdateCause::kServiceUpgrade});
    fleet.request_update({sim.now(), fleet_vip, dip,
                          workload::UpdateAction::kAddDip,
                          workload::UpdateCause::kServiceUpgrade});
    if (round == 8) fleet.fail_switch(2);
    if (round == 12) fleet.restore_switch(2);
    sim.run();
  }
  sim.run();
  obs::FleetObserver& observer = *fleet.observer();
  observer.evaluate(sim.now());
  const bool fleet_converged = fleet.converged();
  const bool digests_ok = observer.verify_digests();
  std::printf("\nfleet: %zu/%zu live, converged=%d; observer: head=%llu "
              "slo_ok=%d divergences=%llu (digest self-check %s)\n",
              fleet.live_count(), fleet.size(), fleet_converged ? 1 : 0,
              static_cast<unsigned long long>(observer.head()),
              observer.slo_ok() ? 1 : 0,
              static_cast<unsigned long long>(observer.divergences()),
              digests_ok ? "ok" : "FAILED");
  // The exit code carries the fleet check: after the churn, the crash and
  // the restore, the fleet must converge with no silent divergence, a met
  // SLO, and digests that survive a full recompute.
  const bool fleet_ok = fleet_converged && observer.divergences() == 0 &&
                        observer.slo_ok() && digests_ok;

  // With SILKROAD_TELEMETRY_DIR set, dump all three telemetry formats: the
  // Prometheus text and JSON snapshot of every metric, and Chrome trace-event
  // JSON (open trace.json in chrome://tracing or https://ui.perfetto.dev to
  // see the trace ring's events per VIP and one track per update span, its
  // 3-step protocol drawn as an "update" duration).
  if (const char* dir = std::getenv("SILKROAD_TELEMETRY_DIR")) {
    const std::string base = std::string(dir) + "/";
    const obs::Snapshot snapshot = lb.metrics().snapshot();
    std::vector<obs::ChromeTrack> tracks = obs::ring_tracks(lb.trace());
    for (auto& track : obs::span_tracks(lb.spans())) {
      tracks.push_back(std::move(track));
    }
    std::string ring_counts;
    obs::append(ring_counts, "{\"recorded\":%llu,\"dropped\":%llu}",
                static_cast<unsigned long long>(lb.trace().total_recorded()),
                static_cast<unsigned long long>(lb.trace().dropped()));
    const bool ok =
        obs::write_file(base + "metrics.prom", obs::to_prometheus(snapshot)) &&
        obs::write_file(base + "metrics.json", obs::to_json(snapshot)) &&
        obs::write_file(base + "trace.json",
                        obs::to_chrome_trace(tracks, ring_counts)) &&
        obs::write_file(base + "timeseries.json", recorder.to_json()) &&
        obs::write_file(base + "timeseries.csv", recorder.to_csv()) &&
        obs::write_file(base + "journeys.json",
                        obs::to_chrome_trace(
                            obs::journey_tracks(lb.trace(), journeys))) &&
        obs::write_file(base + "tables.json", lb.tables_json()) &&
        obs::write_file(base + "profile.json", obs::to_profile_json(snapshot)) &&
        obs::write_file(base + "imbalance.json", recorder.imbalance_json()) &&
        obs::write_file(base + "capacity.json", lb.capacity().to_json()) &&
        obs::write_file(base + "fleet.json", fleet.observer()->to_json());
    std::printf("telemetry written to %s{metrics.prom,metrics.json,"
                "trace.json,timeseries.json,timeseries.csv,journeys.json,"
                "tables.json,profile.json,imbalance.json,capacity.json,"
                "fleet.json}%s\n",
                base.c_str(), ok ? "" : " (write failed)");
    if (!ok) return 1;
  }

  // With SILKROAD_SCRAPE_PORT set (0 = ephemeral), serve the run's final
  // telemetry over loopback HTTP so curl/Prometheus can read it:
  //   SILKROAD_SCRAPE_PORT=9100 ./quickstart &
  //   curl localhost:9100/metrics   (also /healthz /timeseries.json /tables)
  // start() renders every route once, here, after the run has ended. The
  // process lingers SILKROAD_SCRAPE_LINGER_S wall seconds (default 30).
  std::uint16_t scrape_port = 0;
  if (obs::scrape_port_from_env(scrape_port)) {
    obs::ScrapeServer::Options sopts;
    sopts.port = scrape_port;
    obs::ScrapeServer server(sopts);
    server.handle("/metrics", "text/plain; version=0.0.4",
                  [&lb] { return obs::to_prometheus(lb.metrics().snapshot()); });
    server.handle("/timeseries.json", "application/json",
                  [&recorder] { return recorder.to_json(); });
    server.handle("/tables", "application/json",
                  [&lb] { return lb.tables_json(); });
    server.handle("/profile", "application/json", [&lb] {
      return obs::to_profile_json(lb.metrics().snapshot());
    });
    server.handle("/imbalance.json", "application/json",
                  [&recorder] { return recorder.imbalance_json(); });
    server.handle("/capacity", "text/plain",
                  [&lb] { return lb.capacity().to_text(); });
    server.handle("/capacity.json", "application/json",
                  [&lb] { return lb.capacity().to_json(); });
    server.handle("/fleet", "text/plain",
                  [&fleet] { return fleet.observer()->to_text(); });
    server.handle("/fleet.json", "application/json",
                  [&fleet] { return fleet.observer()->to_json(); });
    if (!server.start()) {
      std::printf("scrape server: could not bind 127.0.0.1:%u\n", scrape_port);
      return 1;
    }
    long linger = 30;
    if (const char* s = std::getenv("SILKROAD_SCRAPE_LINGER_S")) {
      linger = std::strtol(s, nullptr, 10);
    }
    std::printf("scrape server on http://127.0.0.1:%u "
                "(/metrics /healthz /timeseries.json /tables /profile "
                "/imbalance.json /capacity /capacity.json /fleet "
                "/fleet.json), lingering %lds\n",
                server.port(), linger);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(linger));
    server.stop();
    std::printf("scrape server served %llu requests\n",
                static_cast<unsigned long long>(server.requests_served()));
  }
  return fleet_ok ? 0 : 1;
}
