#include <gtest/gtest.h>

#include <map>

#include "core/memory_model.h"
#include "core/silkroad_switch.h"
#include "lb/scenario.h"

namespace silkroad::core {
namespace {

net::Endpoint vip_ep(std::uint32_t n = 1) {
  return {net::IpAddress::v4(0x14000000 + n), 80};
}

std::vector<net::Endpoint> make_dips(int n, int base = 0) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back({net::IpAddress::v4(0x0A000000 +
                                       static_cast<std::uint32_t>(base + i)),
                    20});
  }
  return dips;
}

net::FiveTuple make_flow(std::uint32_t client, std::uint32_t vip = 1) {
  return net::FiveTuple{{net::IpAddress::v4(0x0B000000 + client), 1234},
                        vip_ep(vip),
                        net::Protocol::kTcp};
}

net::Packet packet_of(std::uint32_t client, bool syn = false, bool fin = false,
                      std::uint32_t vip = 1) {
  net::Packet p;
  p.flow = make_flow(client, vip);
  p.syn = syn;
  p.fin = fin;
  p.size_bytes = 100;
  return p;
}

SilkRoadSwitch::Config small_config() {
  SilkRoadSwitch::Config config;
  config.conn_table = SilkRoadSwitch::conn_table_for(4096);
  config.learning = {.capacity = 64, .timeout = sim::kMillisecond};
  config.cpu = {.tasks_per_second = 200'000.0};
  return config;
}

workload::DipUpdate remove_update(const net::Endpoint& dip,
                                  std::uint32_t vip = 1, sim::Time at = 0) {
  return {at, vip_ep(vip), dip, workload::UpdateAction::kRemoveDip,
          workload::UpdateCause::kServiceUpgrade};
}

workload::DipUpdate add_update(const net::Endpoint& dip,
                               std::uint32_t vip = 1) {
  return {0, vip_ep(vip), dip, workload::UpdateAction::kAddDip,
          workload::UpdateCause::kServiceUpgrade};
}

TEST(SilkRoadSwitch, ConnTableGeometryHelper) {
  const auto geo = SilkRoadSwitch::conn_table_for(1'000'000);
  EXPECT_EQ(geo.ways, 4u);
  EXPECT_EQ(geo.stages, 4u);
  // Capacity >= 1M at 90% occupancy.
  EXPECT_GE(geo.stages * geo.buckets_per_stage * geo.ways, 1'100'000u);
}

TEST(SilkRoadSwitch, BasicMappingIsConsistent) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(vip_ep(), make_dips(8));
  const auto first = sw.process_packet(packet_of(7, true));
  ASSERT_TRUE(first.dip.has_value());
  EXPECT_FALSE(first.handled_by_slb);
  // Before CPU insertion completes, the mapping must already be stable.
  const auto second = sw.process_packet(packet_of(7));
  EXPECT_EQ(*second.dip, *first.dip);
  sim.run();  // learning + insertion complete
  EXPECT_EQ(sw.stats().inserts, 1u);
  const auto third = sw.process_packet(packet_of(7));
  EXPECT_EQ(*third.dip, *first.dip);
  EXPECT_GT(sw.stats().conn_table_hits, 0u);
}

TEST(SilkRoadSwitch, UnknownVipIsNotBalanced) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(vip_ep(1), make_dips(4));
  EXPECT_FALSE(sw.process_packet(packet_of(1, true, false, 99)).dip.has_value());
  EXPECT_EQ(sw.stats().packets, 0u);
}

TEST(SilkRoadSwitch, FinErasesEntryAndReleasesVersion) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(vip_ep(), make_dips(4));
  sw.process_packet(packet_of(1, true));
  sim.run();
  EXPECT_EQ(sw.conn_table().size(), 1u);
  sw.process_packet(packet_of(1, false, true));
  sim.run();
  EXPECT_EQ(sw.conn_table().size(), 0u);
  EXPECT_EQ(sw.stats().erases, 1u);
}

TEST(SilkRoadSwitch, FlowEndingBeforeInsertionIsSkipped) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(vip_ep(), make_dips(4));
  sw.process_packet(packet_of(1, true));
  sw.process_packet(packet_of(1, false, true));  // FIN while still pending
  sim.run();
  EXPECT_EQ(sw.conn_table().size(), 0u);
  EXPECT_EQ(sw.stats().inserts, 0u);
}

TEST(SilkRoadSwitch, UpdateFlipsOnlyAfterPendingInserted) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  const auto dips = make_dips(8);
  sw.add_vip(vip_ep(), dips);
  // Start flows; request an update while they are pending.
  std::map<std::uint32_t, net::Endpoint> first;
  for (std::uint32_t i = 0; i < 32; ++i) {
    first.emplace(i, *sw.process_packet(packet_of(i, true)).dip);
  }
  sw.request_update(remove_update(dips[0]));
  sim.run_until(sim.now());  // control plane picks up the request
  EXPECT_TRUE(sw.update_in_flight());
  // Mid-update, every pending flow still maps to its original DIP (Step 1
  // serves the old version).
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(*sw.process_packet(packet_of(i)).dip, first.at(i));
  }
  sim.run();
  EXPECT_FALSE(sw.update_in_flight());
  EXPECT_EQ(sw.stats().updates_completed, 1u);
  // Post-update, ongoing flows keep their DIP (ConnTable pins them) even
  // though the pool changed.
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(*sw.process_packet(packet_of(i)).dip, first.at(i));
  }
  // New flows avoid the removed DIP.
  for (std::uint32_t i = 100; i < 140; ++i) {
    EXPECT_NE(*sw.process_packet(packet_of(i, true)).dip, dips[0]);
  }
}

TEST(SilkRoadSwitch, NewFlowsDuringStep1UseOldPoolButStayConsistent) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  const auto dips = make_dips(8);
  sw.add_vip(vip_ep(), dips);
  sw.process_packet(packet_of(1, true));  // keeps Step 1 open until inserted
  sw.request_update(remove_update(dips[2]));
  sim.run_until(sim.now());  // control plane picks up the request
  ASSERT_TRUE(sw.update_in_flight());
  // A flow arriving during Step 1 maps via the old pool and is recorded in
  // the TransitTable.
  const auto during = sw.process_packet(packet_of(50, true));
  ASSERT_TRUE(during.dip.has_value());
  sim.run();  // flip + finish
  EXPECT_FALSE(sw.update_in_flight());
  // It must keep that DIP afterward, even if the old pool said dips[2].
  EXPECT_EQ(*sw.process_packet(packet_of(50)).dip, *during.dip);
}

TEST(SilkRoadSwitch, SerializesConcurrentUpdates) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  const auto dips = make_dips(8);
  sw.add_vip(vip_ep(), dips);
  sw.process_packet(packet_of(1, true));  // pending flow blocks the flip
  sw.request_update(remove_update(dips[0], 1, 10));
  sw.request_update(remove_update(dips[1], 1, 20));
  sw.request_update(remove_update(dips[2], 1, 30));
  sim.run_until(sim.now());  // control plane picks up the first request
  EXPECT_TRUE(sw.update_in_flight());
  EXPECT_EQ(sw.queued_updates(), 2u);
  sim.run();
  EXPECT_EQ(sw.stats().updates_completed, 3u);
  EXPECT_EQ(sw.queued_updates(), 0u);
  const auto* mgr = sw.version_manager(vip_ep());
  ASSERT_NE(mgr, nullptr);
  EXPECT_EQ(mgr->pool(mgr->current_version())->live_count(), 5u);
}

TEST(SilkRoadSwitch, CoalescesSameInstantBurst) {
  // A rolling-reboot batch (several removals at one instant) consumes a
  // single version and a single VIPTable flip.
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  const auto dips = make_dips(8);
  sw.add_vip(vip_ep(), dips);
  sw.request_update(remove_update(dips[0], 1, 10));
  sw.request_update(remove_update(dips[1], 1, 10));
  sw.request_update(remove_update(dips[2], 1, 10));
  sim.run();
  EXPECT_EQ(sw.stats().updates_requested, 3u);
  EXPECT_EQ(sw.stats().updates_completed, 1u);
  const auto* mgr = sw.version_manager(vip_ep());
  EXPECT_EQ(mgr->pool(mgr->current_version())->live_count(), 5u);
}

TEST(SilkRoadSwitch, VersionReuseOnRollingReboot) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  const auto dips = make_dips(8);
  sw.add_vip(vip_ep(), dips);
  // A live connection pins the original version so its pool (still holding
  // the rebooted DIP) is available for reuse when the DIP returns.
  const auto pinned = sw.process_packet(packet_of(1, true));
  sim.run();
  sw.request_update(remove_update(dips[0]));
  sim.run();
  sw.request_update(add_update(dips[0]));
  sim.run();
  const auto* mgr = sw.version_manager(vip_ep());
  EXPECT_GE(mgr->versions_reused(), 1u);
  EXPECT_TRUE(mgr->pool(mgr->current_version())->contains_live(dips[0]));
  // The pinned flow is untouched throughout.
  EXPECT_EQ(*sw.process_packet(packet_of(1)).dip, *pinned.dip);
}

TEST(SilkRoadSwitch, DigestCollisionSynRedirectResolves) {
  // 1-bit digests force collisions; every colliding SYN must be redirected,
  // resolved, and end up consistently mapped.
  sim::Simulator sim;
  auto config = small_config();
  config.conn_table.digest_bits = 1;
  config.conn_table.buckets_per_stage = 16;
  SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(8));
  std::map<std::uint32_t, net::Endpoint> first;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const auto r = sw.process_packet(packet_of(i, true));
    if (r.dip) first.emplace(i, *r.dip);
    sim.run();  // drain insertions between arrivals
  }
  EXPECT_GT(sw.stats().syn_false_positives, 0u);
  // All flows remain consistently mapped afterwards.
  for (const auto& [client, dip] : first) {
    const auto r = sw.process_packet(packet_of(client));
    ASSERT_TRUE(r.dip.has_value());
    EXPECT_EQ(*r.dip, dip) << "client " << client;
  }
}

TEST(SilkRoadSwitch, TableOverflowFallsBackToSoftware) {
  sim::Simulator sim;
  auto config = small_config();
  config.conn_table.stages = 2;
  config.conn_table.buckets_per_stage = 4;
  config.conn_table.ways = 2;  // capacity 16
  SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(4));
  std::map<std::uint32_t, net::Endpoint> first;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto r = sw.process_packet(packet_of(i, true));
    ASSERT_TRUE(r.dip.has_value());
    first.emplace(i, *r.dip);
  }
  sim.run();
  EXPECT_GT(sw.stats().insert_failures, 0u);
  EXPECT_GT(sw.stats().software_fallback_conns, 0u);
  // Overflowed flows keep a consistent mapping through the software table.
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(*sw.process_packet(packet_of(i)).dip, first.at(i));
  }
}

// Evicts the version whose only flow, A, is still pending. A's queued
// insertion must not release the evicted number again: by then it belongs
// to the next pool. If A already sent its FIN it must not stay pinned in the
// software table either.
void evict_version_of_pending_flow(bool use_transit_table, bool fin_first) {
  sim::Simulator sim;
  auto config = small_config();
  config.version_bits = 2;  // versions 0..3
  config.enable_version_reuse = false;
  config.use_transit_table = use_transit_table;
  SilkRoadSwitch sw(sim, config);
  const auto dips = make_dips(16);
  sw.add_vip(vip_ep(), dips);
  std::vector<std::uint32_t> open;
  const auto land_two = [&] {
    for (int i = 0; i < 2; ++i) {
      open.push_back(static_cast<std::uint32_t>(open.size()));
      sw.process_packet(packet_of(open.back(), true));
    }
    sim.run();
  };
  land_two();  // pins v0
  sw.request_update(remove_update(dips[0], 1, 1));
  sim.run();
  land_two();  // pins v1
  sw.request_update(remove_update(dips[1], 1, 2));
  sim.run();
  // A arrives on v2; its entry has not landed when the updates run.
  const std::uint32_t a = 100;
  sw.process_packet(packet_of(a, true));
  if (fin_first) {
    sw.process_packet(packet_of(a, false, true));
  } else {
    open.push_back(a);
  }
  // The first update takes v3; the second finds the ring empty and evicts
  // v2, the least-used version, then allocates it again.
  sw.request_update(remove_update(dips[2], 1, 3));
  sw.request_update(remove_update(dips[3], 1, 4));
  sim.run();
  EXPECT_EQ(sw.stats().updates_completed, 4u);
  EXPECT_EQ(sw.stats().versions_evicted, 1u);
  EXPECT_EQ(sw.software_flows(), fin_first ? 0u : 1u);
  sw.self_check();
  for (const std::uint32_t client : open) {
    sw.process_packet(packet_of(client, false, true));
  }
  sim.run();
  sw.self_check();
  EXPECT_EQ(sw.active_connections(), 0u);
}

TEST(SilkRoadSwitch, VersionExhaustionEvictsAndContinues) {
  sim::Simulator sim;
  auto config = small_config();
  config.version_bits = 2;  // only 4 versions
  config.enable_version_reuse = false;
  SilkRoadSwitch sw(sim, config);
  const auto dips = make_dips(16);
  sw.add_vip(vip_ep(), dips);
  // Long-lived flows pin each version.
  for (std::uint32_t round = 0; round < 8; ++round) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      sw.process_packet(packet_of(round * 100 + i, true));
    }
    sim.run();
    sw.request_update(remove_update(dips[round]));
    sim.run();
  }
  EXPECT_EQ(sw.stats().updates_completed, 8u);
  EXPECT_GT(sw.stats().versions_evicted, 0u);
  // Evicted flows still map consistently (exact software mappings).
  EXPECT_GT(sw.stats().software_fallback_conns, 0u);

  {
    SCOPED_TRACE("pending flow that sent its FIN, TransitTable on");
    evict_version_of_pending_flow(/*use_transit_table=*/true,
                                  /*fin_first=*/true);
  }
  {
    // Without the TransitTable the flip does not wait for pending flows, so
    // a live one can be evicted too.
    SCOPED_TRACE("live pending flow, TransitTable off");
    evict_version_of_pending_flow(/*use_transit_table=*/false,
                                  /*fin_first=*/false);
  }
}

TEST(SilkRoadSwitch, StaleInsertionTaskDoesNothing) {
  // The CPU queue outlives reset(). A task queued before the crash holds
  // the handle of a record that reset() frees; the record is then reused by
  // the same 5-tuple. The stale task must not install it early.
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  SilkRoadSwitch::FaultHooks hooks;
  hooks.cpu_delay = [](sim::Time) { return 10 * sim::kMillisecond; };
  sw.set_fault_hooks(std::move(hooks));
  sw.add_vip(vip_ep(), make_dips(4));
  sw.process_packet(packet_of(1, true));  // flushed at 1 ms, runs at 11 ms
  sim.run_until(2 * sim::kMillisecond);
  sw.reset();
  sw.add_vip(vip_ep(), make_dips(4));
  sw.process_packet(packet_of(1, true));  // flushed at 3 ms, runs at 21 ms
  sim.run_until(15 * sim::kMillisecond);  // the stale task has run
  EXPECT_EQ(sw.stats().inserts, 0u);
  EXPECT_EQ(sw.pending_insertions(), 1u);
  EXPECT_EQ(sw.conn_table().size(), 0u);
  sim.run();
  EXPECT_EQ(sw.stats().inserts, 1u);
  EXPECT_EQ(sw.pending_insertions(), 0u);
  EXPECT_EQ(sw.conn_table().size(), 1u);
  sw.self_check();
}

TEST(SilkRoadSwitch, MeterMarksAndDrops) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(vip_ep(), make_dips(4));
  sw.attach_meter(vip_ep(),
                  {.cir_bps = 800.0,  // 100 B/s: tiny
                   .eir_bps = 800.0,
                   .cbs_bytes = 200,
                   .ebs_bytes = 200},
                  /*enforce=*/true);
  int delivered = 0, dropped = 0;
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto r = sw.process_packet(packet_of(1000 + i, true));
    (r.dip.has_value() ? delivered : dropped)++;
  }
  EXPECT_GT(delivered, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(sw.stats().meter_drops, static_cast<std::uint64_t>(dropped));
}

TEST(SilkRoadSwitch, DipFailureResilientModeKeepsVersion) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  const auto dips = make_dips(8);
  sw.add_vip(vip_ep(), dips);
  const auto* mgr = sw.version_manager(vip_ep());
  const auto before = mgr->current_version();
  sw.handle_dip_failure(vip_ep(), dips[3], /*resilient_in_place=*/true);
  EXPECT_EQ(mgr->current_version(), before);  // no flip
  EXPECT_FALSE(mgr->pool(before)->contains_live(dips[3]));
  // New flows never select the failed DIP.
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_NE(*sw.process_packet(packet_of(i, true)).dip, dips[3]);
  }
}

TEST(SilkRoadSwitch, AgingErasesIdleConnections) {
  sim::Simulator sim;
  auto config = small_config();
  config.idle_timeout = 5 * sim::kSecond;
  config.aging_sweep_period = sim::kSecond;
  SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(4));
  sw.process_packet(packet_of(1, true));  // no FIN will ever come (UDP-like)
  sim.run_until(2 * sim::kSecond);
  EXPECT_EQ(sw.conn_table().size(), 1u);
  sim.run_until(20 * sim::kSecond);
  EXPECT_EQ(sw.conn_table().size(), 0u);
  EXPECT_GE(sw.stats().aged_out, 1u);
  EXPECT_GE(sw.stats().erases, 1u);
  // With the table drained the sweep disarms: the queue runs dry.
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SilkRoadSwitch, ActiveConnectionsSurviveAging) {
  sim::Simulator sim;
  auto config = small_config();
  config.idle_timeout = 5 * sim::kSecond;
  config.aging_sweep_period = sim::kSecond;
  SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(4));
  sw.process_packet(packet_of(1, true));
  // Keep the flow chatty: one packet every 2 s refreshes the hit bit.
  for (int s = 2; s <= 30; s += 2) {
    sim.run_until(static_cast<sim::Time>(s) * sim::kSecond);
    sw.process_packet(packet_of(1));
  }
  EXPECT_EQ(sw.conn_table().size(), 1u);
  EXPECT_EQ(sw.stats().aged_out, 0u);
}

TEST(SilkRoadSwitch, AgingReleasesVersions) {
  // An idle-expired connection must release its pool version so the number
  // recycles — aging is what keeps 6-bit versions sufficient (§4.2).
  sim::Simulator sim;
  auto config = small_config();
  config.idle_timeout = 3 * sim::kSecond;
  config.aging_sweep_period = sim::kSecond;
  SilkRoadSwitch sw(sim, config);
  const auto dips = make_dips(8);
  sw.add_vip(vip_ep(), dips);
  sw.process_packet(packet_of(1, true));
  sim.run_until(sim::kSecond);
  sw.request_update(remove_update(dips[0]));  // flow 1 now pins old version
  sim.run_until(2 * sim::kSecond);
  const auto* mgr = sw.version_manager(vip_ep());
  EXPECT_EQ(mgr->active_versions(), 2u);
  sim.run_until(30 * sim::kSecond);  // flow 1 ages out
  EXPECT_EQ(mgr->active_versions(), 1u);
}

TEST(SilkRoadSwitch, SubMicrosecondDataPlaneLatency) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(vip_ep(), make_dips(8));
  const auto r = sw.process_packet(packet_of(1, true));
  EXPECT_LT(r.added_latency, sim::kMicrosecond);  // §5.2: sub-µs pipeline
  sim.run();
  const auto hit = sw.process_packet(packet_of(1));
  EXPECT_LT(hit.added_latency, sim::kMicrosecond);
}

TEST(SilkRoadSwitch, RedirectedSynPaysMilliseconds) {
  sim::Simulator sim;
  auto config = small_config();
  config.conn_table.digest_bits = 1;  // force collisions
  config.conn_table.buckets_per_stage = 8;
  SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(8));
  bool saw_redirect = false;
  for (std::uint32_t i = 0; i < 400 && !saw_redirect; ++i) {
    const auto r = sw.process_packet(packet_of(i, true));
    if (r.redirected_to_cpu) {
      saw_redirect = true;
      EXPECT_GE(r.added_latency, sim::kMillisecond);  // §4.2: "a few ms"
    }
    sim.run();
  }
  EXPECT_TRUE(saw_redirect);
}

TEST(SilkRoadSwitch, Ipv6EndToEnd) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  const net::Endpoint vip{net::IpAddress::v6(0x20010DB8'00000001ULL, 0x80), 443};
  std::vector<net::Endpoint> dips;
  for (std::uint64_t d = 0; d < 8; ++d) {
    dips.push_back({net::IpAddress::v6(0xFD000000'00000000ULL, d + 1), 8443});
  }
  sw.add_vip(vip, dips);
  std::map<std::uint64_t, net::Endpoint> assigned;
  for (std::uint64_t c = 0; c < 64; ++c) {
    net::Packet syn;
    syn.flow = {{net::IpAddress::v6(0x20010DB8'000000FFULL, c), 50000},
                vip,
                net::Protocol::kTcp};
    syn.syn = true;
    const auto r = sw.process_packet(syn);
    ASSERT_TRUE(r.dip.has_value());
    EXPECT_TRUE(r.dip->ip.is_v6());
    assigned.emplace(c, *r.dip);
  }
  sim.run();
  sw.request_update({sim.now(), vip, dips[0],
                     workload::UpdateAction::kRemoveDip,
                     workload::UpdateCause::kServiceUpgrade});
  sim.run();
  for (std::uint64_t c = 0; c < 64; ++c) {
    net::Packet data;
    data.flow = {{net::IpAddress::v6(0x20010DB8'000000FFULL, c), 50000},
                 vip,
                 net::Protocol::kTcp};
    EXPECT_EQ(*sw.process_packet(data).dip, assigned.at(c));
  }
}

TEST(SilkRoadSwitch, UdpFlowsBalanceAndAge) {
  // UDP has no SYN/FIN: flows learn from their first packet and expire only
  // through aging.
  sim::Simulator sim;
  auto config = small_config();
  config.idle_timeout = 2 * sim::kSecond;
  config.aging_sweep_period = sim::kSecond;
  SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(4));
  net::Packet p;
  p.flow = {{net::IpAddress::v4(0x0B0000AA), 5000}, vip_ep(),
            net::Protocol::kUdp};
  p.size_bytes = 512;
  const auto first = sw.process_packet(p);
  ASSERT_TRUE(first.dip.has_value());
  sim.run_until(sim::kSecond);
  EXPECT_EQ(*sw.process_packet(p).dip, *first.dip);
  EXPECT_EQ(sw.conn_table().size(), 1u);
  // Silence: the entry ages out.
  sim.run_until(20 * sim::kSecond);
  EXPECT_EQ(sw.conn_table().size(), 0u);
}

TEST(SilkRoadSwitch, VipsAreIsolated) {
  // An update on one VIP must not disturb another VIP's flows or pools.
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(vip_ep(1), make_dips(8, 0));
  sw.add_vip(vip_ep(2), make_dips(8, 100));
  std::map<std::uint32_t, net::Endpoint> vip2_flows;
  for (std::uint32_t c = 0; c < 64; ++c) {
    vip2_flows.emplace(c, *sw.process_packet(packet_of(c, true, false, 2)).dip);
  }
  sim.run();
  const auto* mgr2_before = sw.version_manager(vip_ep(2));
  const auto version_before = mgr2_before->current_version();
  sw.request_update(remove_update(make_dips(8, 0)[3], 1));
  sim.run();
  EXPECT_EQ(sw.version_manager(vip_ep(2))->current_version(), version_before);
  for (std::uint32_t c = 0; c < 64; ++c) {
    EXPECT_EQ(*sw.process_packet(packet_of(c, false, false, 2)).dip,
              vip2_flows.at(c));
  }
}

TEST(SilkRoadSwitch, RemovingAllDipsDropsNewFlows) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  const auto dips = make_dips(2);
  sw.add_vip(vip_ep(), dips);
  sw.request_update(remove_update(dips[0]));
  sim.run();
  sw.request_update(remove_update(dips[1]));
  sim.run();
  EXPECT_FALSE(sw.process_packet(packet_of(9, true)).dip.has_value());
}

TEST(SilkRoadSwitch, DebugReportIsInformative) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(vip_ep(), make_dips(8));
  sw.process_packet(packet_of(1, true));
  sim.run();
  const auto report = sw.debug_report();
  EXPECT_NE(report.find("1 connections installed"), std::string::npos);
  EXPECT_NE(report.find(vip_ep().to_string()), std::string::npos);
  EXPECT_NE(report.find("update idle"), std::string::npos);
  // During an update the report flags the VIP.
  sw.process_packet(packet_of(2, true));  // pending flow keeps Step 1 open
  sw.request_update(remove_update(make_dips(8)[0]));
  sim.run_until(sim.now());
  EXPECT_NE(sw.debug_report().find("UPDATING"), std::string::npos);
  sim.run();
  EXPECT_NE(sw.debug_report().find("1 updates done"), std::string::npos);
}

TEST(SilkRoadSwitch, MemoryUsageReporting) {
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  sw.add_vip(vip_ep(), make_dips(100));
  const auto usage = sw.memory_usage();
  EXPECT_EQ(usage.transit_table_bytes, 256u);
  EXPECT_GT(usage.conn_table_bytes, 0u);
  EXPECT_GT(usage.dip_pool_table_bytes, 0u);
  EXPECT_EQ(usage.total(), usage.conn_table_bytes + usage.dip_pool_table_bytes +
                               usage.transit_table_bytes);
}

// --- End-to-end PCC scenarios (the heart of the paper) -----------------------

lb::ScenarioStats run_scenario(bool use_transit, double updates_per_min,
                               double arrivals_per_min,
                               sim::Time learning_timeout = sim::kMillisecond,
                               std::size_t transit_bytes = 256) {
  sim::Simulator sim;
  auto config = small_config();
  config.use_transit_table = use_transit;
  config.learning.timeout = learning_timeout;
  config.transit_table_bytes = transit_bytes;
  SilkRoadSwitch sw(sim, config);

  lb::ScenarioConfig scenario_config;
  scenario_config.horizon = 3 * sim::kMinute;
  scenario_config.seed = 21;
  scenario_config.vip_loads = {
      {vip_ep(), arrivals_per_min, workload::FlowProfile::hadoop(), false}};
  scenario_config.dip_pools = {make_dips(16)};
  workload::UpdateGenerator gen({.seed = 22}, vip_ep(), make_dips(16));
  scenario_config.updates =
      gen.generate(updates_per_min, scenario_config.horizon);
  lb::Scenario scenario(sim, sw, scenario_config);
  return scenario.run();
}

// --- Failure injection -----------------------------------------------------

TEST(SilkRoadFailureInjection, SlowCpuStillPreservesPcc) {
  // A 100x slower switch CPU stretches every pending window and makes
  // updates crawl through their steps — PCC must still hold.
  sim::Simulator sim;
  auto config = small_config();
  config.cpu = {.tasks_per_second = 2'000.0};
  SilkRoadSwitch sw(sim, config);
  lb::ScenarioConfig sc;
  sc.horizon = 2 * sim::kMinute;
  sc.seed = 7;
  sc.vip_loads = {{vip_ep(), 3000.0, workload::FlowProfile::hadoop(), false}};
  sc.dip_pools = {make_dips(16)};
  workload::UpdateGenerator gen({.seed = 8}, vip_ep(), make_dips(16));
  sc.updates = gen.generate(20.0, sc.horizon);
  lb::Scenario scenario(sim, sw, sc);
  const auto stats = scenario.run();
  EXPECT_GT(stats.flows, 2000u);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_GT(stats.updates_applied, 10u);
}

TEST(SilkRoadFailureInjection, TinyLearningFilterBurst) {
  // A filter of 8 slots against a 500-SYN same-instant burst: many forced
  // flushes, every flow still learned exactly once and mapped consistently.
  sim::Simulator sim;
  auto config = small_config();
  config.learning = {.capacity = 8, .timeout = sim::kMillisecond};
  SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(8));
  std::map<std::uint32_t, net::Endpoint> first;
  for (std::uint32_t i = 0; i < 500; ++i) {
    first.emplace(i, *sw.process_packet(packet_of(i, true)).dip);
  }
  sim.run();
  EXPECT_EQ(sw.stats().inserts, 500u);
  EXPECT_EQ(sw.conn_table().size(), 500u);
  for (std::uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ(*sw.process_packet(packet_of(i)).dip, first.at(i));
  }
}

TEST(SilkRoadFailureInjection, UpdateStormDrains) {
  // 200 updates queued at once; the control plane serializes them all and
  // ends idle with a coherent pool.
  sim::Simulator sim;
  SilkRoadSwitch sw(sim, small_config());
  const auto dips = make_dips(16);
  sw.add_vip(vip_ep(), dips);
  for (int round = 0; round < 100; ++round) {
    const auto& victim = dips[static_cast<std::size_t>(round) % 16];
    sw.request_update(remove_update(victim, 1, static_cast<sim::Time>(round * 2 + 1)));
    workload::DipUpdate add = add_update(victim, 1);
    add.at = static_cast<sim::Time>(round * 2 + 2);
    sw.request_update(add);
  }
  sim.run();
  EXPECT_FALSE(sw.update_in_flight());
  EXPECT_EQ(sw.queued_updates(), 0u);
  const auto* mgr = sw.version_manager(vip_ep());
  EXPECT_EQ(mgr->pool(mgr->current_version())->live_count(), 16u);
}

TEST(SilkRoadPcc, NoViolationsWithTransitTable) {
  const auto stats = run_scenario(true, 30.0, 3000.0);
  EXPECT_GT(stats.flows, 5000u);
  EXPECT_GT(stats.updates_applied, 30u);
  EXPECT_EQ(stats.violations, 0u);  // the paper's headline guarantee
  EXPECT_DOUBLE_EQ(stats.slb_traffic_fraction, 0.0);
}

TEST(SilkRoadPcc, AblationWithoutTransitTableViolates) {
  const auto with_transit = run_scenario(true, 40.0, 6000.0);
  const auto without = run_scenario(false, 40.0, 6000.0);
  EXPECT_EQ(with_transit.violations, 0u);
  EXPECT_GT(without.violations, 0u);  // Fig. 16's middle curve
}

TEST(SilkRoadPcc, LargerLearningTimeoutIncreasesExposureWithoutTransit) {
  const auto fast = run_scenario(false, 40.0, 6000.0, sim::kMillisecond);
  const auto slow = run_scenario(false, 40.0, 6000.0, 5 * sim::kMillisecond);
  EXPECT_GE(slow.violations, fast.violations);
}

}  // namespace
}  // namespace silkroad::core
