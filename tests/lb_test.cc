#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "core/silkroad_switch.h"
#include "lb/dip_pool.h"
#include "lb/duet.h"
#include "lb/ecmp_lb.h"
#include "lb/maglev.h"
#include "lb/hash_ring.h"
#include "lb/pcc_tracker.h"
#include "lb/scenario.h"
#include "lb/slb.h"
#include "recording_balancer.h"

namespace silkroad::lb {
namespace {

net::Endpoint vip_ep() { return {net::IpAddress::v4(0x14000001), 80}; }

std::vector<net::Endpoint> make_dips(int n, int base = 0) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back({net::IpAddress::v4(0x0A000000 +
                                       static_cast<std::uint32_t>(base + i)),
                    20});
  }
  return dips;
}

net::FiveTuple make_flow(std::uint32_t client) {
  return net::FiveTuple{{net::IpAddress::v4(0x0B000000 + client), 1234},
                        vip_ep(),
                        net::Protocol::kTcp};
}

net::Packet packet_of(std::uint32_t client, bool syn = false,
                      bool fin = false) {
  net::Packet p;
  p.flow = make_flow(client);
  p.syn = syn;
  p.fin = fin;
  p.size_bytes = 100;
  return p;
}

// --- DipPool ----------------------------------------------------------------

TEST(DipPool, SelectsDeterministically) {
  DipPool pool(make_dips(8), PoolSemantics::kStableResilient);
  for (std::uint32_t i = 0; i < 100; ++i) {
    const auto a = pool.select(make_flow(i));
    const auto b = pool.select(make_flow(i));
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, *b);
  }
}

TEST(DipPool, SpreadsLoad) {
  DipPool pool(make_dips(8), PoolSemantics::kStableResilient);
  std::map<std::string, int> counts;
  for (std::uint32_t i = 0; i < 8000; ++i) {
    ++counts[pool.select(make_flow(i))->to_string()];
  }
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [dip, count] : counts) {
    EXPECT_NEAR(count, 1000, 250) << dip;
  }
}

TEST(DipPool, CompactRemovalRemapsManyFlows) {
  DipPool pool(make_dips(8), PoolSemantics::kCompactEcmp);
  DipPool before = pool;
  pool.remove(make_dips(8)[3]);
  EXPECT_EQ(pool.slot_count(), 7u);
  int moved = 0;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    if (*before.select(make_flow(i)) != *pool.select(make_flow(i))) ++moved;
  }
  // hash % size changes for ~ (1 - 1/8) of flows minus coincidences; at the
  // very least far more than the 1/8 that targeted the removed DIP.
  EXPECT_GT(moved, 1500);
}

TEST(DipPool, ResilientRemovalOnlyRemapsVictims) {
  DipPool pool(make_dips(8), PoolSemantics::kStableResilient);
  DipPool before = pool;
  const auto victim = make_dips(8)[3];
  pool.remove(victim);
  EXPECT_EQ(pool.slot_count(), 8u);  // slot stays, marked dead
  EXPECT_EQ(pool.live_count(), 7u);
  int moved = 0;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    const auto old_dip = *before.select(make_flow(i));
    const auto new_dip = *pool.select(make_flow(i));
    if (old_dip != new_dip) {
      ++moved;
      EXPECT_EQ(old_dip, victim);  // only the victim's flows move
    }
  }
  EXPECT_NEAR(moved, 500, 200);
}

TEST(DipPool, ReplaceDeadSlotPreservesLiveMappings) {
  DipPool pool(make_dips(8), PoolSemantics::kStableResilient);
  const auto victim = make_dips(8)[5];
  pool.remove(victim);
  DipPool before_replace = pool;
  const net::Endpoint fresh{net::IpAddress::v4(0x0A0000FF), 20};
  const auto slot = pool.replace_dead_slot(fresh);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, 5u);
  EXPECT_TRUE(pool.contains_live(fresh));
  for (std::uint32_t i = 0; i < 4000; ++i) {
    const auto old_dip = *before_replace.select(make_flow(i));
    const auto new_dip = *pool.select(make_flow(i));
    // Flows that were diverted off the dead slot may return to it (they were
    // broken); everyone else must be untouched.
    if (old_dip != new_dip) {
      EXPECT_EQ(new_dip, fresh);
    }
  }
}

TEST(DipPool, EmptyAndAllDead) {
  DipPool empty;
  EXPECT_FALSE(empty.select(make_flow(1)).has_value());
  DipPool pool(make_dips(2), PoolSemantics::kStableResilient);
  pool.remove(make_dips(2)[0]);
  pool.remove(make_dips(2)[1]);
  EXPECT_FALSE(pool.select(make_flow(1)).has_value());
  EXPECT_TRUE(pool.has_dead_slot());
  EXPECT_EQ(pool.live_count(), 0u);
}

// --- Maglev -----------------------------------------------------------------

TEST(Maglev, FillsTableCompletely) {
  MaglevTable table(make_dips(10), 251);
  const auto shares = table.slot_shares();
  double total = 0;
  for (const double s : shares) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Maglev, NearPerfectBalance) {
  MaglevTable table(make_dips(10), 65537);
  const auto shares = table.slot_shares();
  const auto [mn, mx] = std::minmax_element(shares.begin(), shares.end());
  // Maglev paper: max/min approaches 1 for M >> N.
  EXPECT_LT(*mx / *mn, 1.05);
}

TEST(Maglev, MinimalDisruptionOnBackendRemoval) {
  auto dips = make_dips(10);
  MaglevTable before(dips, 65537);
  dips.erase(dips.begin() + 4);
  MaglevTable after(dips, 65537);
  // ~1/10 of slots belonged to the removed backend; disruption should be
  // close to that, far below full rehash.
  EXPECT_LT(before.disruption_vs(after), 0.25);
  EXPECT_GT(before.disruption_vs(after), 0.05);
}

TEST(Maglev, SelectConsistent) {
  MaglevTable table(make_dips(5), 251);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(*table.select(make_flow(i)), *table.select(make_flow(i)));
  }
  MaglevTable empty;
  EXPECT_FALSE(empty.select(make_flow(1)).has_value());
}

// --- HashRing -----------------------------------------------------------------

TEST(HashRing, SelectsConsistently) {
  HashRing ring;
  for (const auto& d : make_dips(8)) ring.add(d);
  EXPECT_EQ(ring.backends(), 8u);
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(*ring.select(make_flow(i)), *ring.select(make_flow(i)));
  }
}

TEST(HashRing, EmptyRingSelectsNothing) {
  HashRing ring;
  EXPECT_FALSE(ring.select(make_flow(1)).has_value());
  EXPECT_FALSE(ring.remove(make_dips(1)[0]));
}

TEST(HashRing, RemovalOnlyRemapsVictimFlows) {
  HashRing before;
  for (const auto& d : make_dips(16)) before.add(d);
  HashRing after = before;
  const auto victim = make_dips(16)[7];
  EXPECT_TRUE(after.remove(victim));
  int moved = 0;
  for (std::uint32_t i = 0; i < 8000; ++i) {
    const auto a = *before.select(make_flow(i));
    const auto b = *after.select(make_flow(i));
    if (!(a == b)) {
      ++moved;
      EXPECT_EQ(a, victim);  // only arcs owned by the victim move
    }
  }
  EXPECT_NEAR(moved, 500, 250);  // ~1/16 of flows
}

TEST(HashRing, AdditionStealsOnlyFromSuccessors) {
  HashRing before;
  for (const auto& d : make_dips(16)) before.add(d);
  HashRing after = before;
  const net::Endpoint fresh{net::IpAddress::v4(0x0A0000EE), 20};
  after.add(fresh);
  for (std::uint32_t i = 0; i < 8000; ++i) {
    const auto a = *before.select(make_flow(i));
    const auto b = *after.select(make_flow(i));
    if (!(a == b)) {
      EXPECT_EQ(b, fresh);  // moved flows go to the newcomer
    }
  }
}

TEST(HashRing, VnodesBalanceOwnership) {
  HashRing ring(/*vnodes=*/160);
  for (const auto& d : make_dips(10)) ring.add(d);
  const auto shares = ring.ownership(40000);
  ASSERT_EQ(shares.size(), 10u);
  for (const auto& [backend, share] : shares) {
    EXPECT_NEAR(share, 0.1, 0.04) << backend.to_string();
  }
}

// --- PccTracker --------------------------------------------------------------

TEST(PccTracker, CountsAndReturnsABreakOnce) {
  PccTracker tracker;
  const auto dips = make_dips(3);
  tracker.flow_started(make_flow(1), dips[0], 0);
  PccTracker::FlowState* state = tracker.find(make_flow(1));
  ASSERT_NE(state, nullptr);
  EXPECT_FALSE(tracker.judge(*state, dips[0]));
  EXPECT_EQ(tracker.violations(), 0u);
  EXPECT_TRUE(tracker.judge(*state, dips[1]));
  EXPECT_FALSE(tracker.judge(*state, dips[2]));
  EXPECT_EQ(tracker.violations(), 1u);
  EXPECT_EQ(tracker.flows_seen(), 1u);
  const auto taken = tracker.take(make_flow(1));
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->dip, dips[0]);
  EXPECT_TRUE(taken->violated);
  EXPECT_EQ(tracker.active_flows(), 0u);
  EXPECT_FALSE(tracker.take(make_flow(1)).has_value());
}

TEST(PccTracker, ExemptFlowNeverBreaks) {
  PccTracker tracker;
  const auto dips = make_dips(2);
  tracker.flow_started(make_flow(1), dips[0], 0);
  PccTracker::FlowState* state = tracker.find(make_flow(1));
  ASSERT_NE(state, nullptr);
  state->exempt = true;
  EXPECT_FALSE(tracker.judge(*state, dips[1]));
  EXPECT_FALSE(tracker.judge(*state, std::nullopt));
  EXPECT_EQ(tracker.violations(), 0u);
}

TEST(PccTracker, UnmappedCountsAsViolation) {
  PccTracker tracker;
  tracker.flow_started(make_flow(1), make_dips(1)[0], 0);
  PccTracker::FlowState* state = tracker.find(make_flow(1));
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(tracker.judge(*state, std::nullopt));
  EXPECT_EQ(tracker.violations(), 1u);
}

TEST(PccTracker, RestartedFlowKeepsItsFirstMapping) {
  PccTracker tracker;
  const auto dips = make_dips(2);
  EXPECT_TRUE(tracker.flow_started(make_flow(1), dips[0], 0));
  EXPECT_FALSE(tracker.flow_started(make_flow(1), dips[1], 1));
  EXPECT_EQ(tracker.flows_seen(), 2u);
  EXPECT_EQ(tracker.active_flows(), 1u);
  tracker.observe(make_flow(1), dips[0], 2);
  EXPECT_EQ(tracker.violations(), 0u);
  tracker.flow_finished(make_flow(1));
  EXPECT_EQ(tracker.active_flows(), 0u);
}

TEST(PccTracker, IgnoresUnknownFlows) {
  PccTracker tracker;
  EXPECT_EQ(tracker.find(make_flow(9)), nullptr);
  tracker.observe(make_flow(9), make_dips(1)[0], 1);
  EXPECT_EQ(tracker.violations(), 0u);
}

// --- SLB ---------------------------------------------------------------------

TEST(Slb, PinsFlowsAcrossUpdates) {
  SoftwareLoadBalancer slb;
  slb.add_vip(vip_ep(), make_dips(8));
  std::map<std::uint32_t, net::Endpoint> first;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const auto r = slb.process_packet(packet_of(i, true));
    ASSERT_TRUE(r.dip.has_value());
    EXPECT_TRUE(r.handled_by_slb);
    first.emplace(i, *r.dip);
  }
  // Remove and add DIPs; every pinned flow must keep its mapping.
  slb.request_update({0, vip_ep(), make_dips(8)[2],
                      workload::UpdateAction::kRemoveDip,
                      workload::UpdateCause::kFailure});
  slb.request_update({0, vip_ep(), {net::IpAddress::v4(0x0A0000AA), 20},
                      workload::UpdateAction::kAddDip,
                      workload::UpdateCause::kProvisioning});
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(*slb.process_packet(packet_of(i)).dip, first.at(i));
  }
  EXPECT_EQ(slb.conn_table_size(), 200u);
}

TEST(Slb, AddsSoftwareLatencyPerPacket) {
  SoftwareLoadBalancer slb;
  slb.add_vip(vip_ep(), make_dips(4));
  std::vector<double> us;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const auto r = slb.process_packet(packet_of(i, true));
    us.push_back(static_cast<double>(r.added_latency) / sim::kMicrosecond);
  }
  std::sort(us.begin(), us.end());
  // §2.2 envelope: 50 µs - 1 ms of batched software processing.
  EXPECT_GT(us[us.size() / 2], 20.0);
  EXPECT_LT(us[us.size() / 2], 500.0);
  EXPECT_GT(us[static_cast<std::size_t>(us.size() * 0.99)], 200.0);
}

TEST(DuetLatency, SwitchPathFastSlbPathSlow) {
  sim::Simulator sim;
  DuetLoadBalancer duet(sim, {.policy = DuetLoadBalancer::MigratePolicy::kPeriodic,
                              .migrate_period = 10 * sim::kMinute});
  duet.add_vip(vip_ep(), make_dips(8));
  const auto fast = duet.process_packet(packet_of(1, true));
  EXPECT_LT(fast.added_latency, sim::kMicrosecond);
  duet.request_update({0, vip_ep(), make_dips(8)[0],
                       workload::UpdateAction::kRemoveDip,
                       workload::UpdateCause::kFailure});
  const auto slow = duet.process_packet(packet_of(2, true));
  EXPECT_TRUE(slow.handled_by_slb);
  EXPECT_GT(slow.added_latency, 10 * sim::kMicrosecond);
}

TEST(Slb, FinRemovesConnEntry) {
  SoftwareLoadBalancer slb;
  slb.add_vip(vip_ep(), make_dips(4));
  slb.process_packet(packet_of(1, true));
  EXPECT_EQ(slb.conn_table_size(), 1u);
  slb.process_packet(packet_of(1, false, true));
  EXPECT_EQ(slb.conn_table_size(), 0u);
}

TEST(Slb, UnknownVipUnmapped) {
  SoftwareLoadBalancer slb;
  EXPECT_FALSE(slb.process_packet(packet_of(1, true)).dip.has_value());
}

// --- ECMP ---------------------------------------------------------------------

TEST(Ecmp, StatelessAndBreaksOnCompactRemoval) {
  EcmpLoadBalancer ecmp(PoolSemantics::kCompactEcmp);
  ecmp.add_vip(vip_ep(), make_dips(8));
  std::map<std::uint32_t, net::Endpoint> first;
  for (std::uint32_t i = 0; i < 500; ++i) {
    first.emplace(i, *ecmp.process_packet(packet_of(i, true)).dip);
  }
  ecmp.request_update({0, vip_ep(), make_dips(8)[0],
                       workload::UpdateAction::kRemoveDip,
                       workload::UpdateCause::kFailure});
  int moved = 0;
  for (std::uint32_t i = 0; i < 500; ++i) {
    if (*ecmp.process_packet(packet_of(i)).dip != first.at(i)) ++moved;
  }
  EXPECT_GT(moved, 100);  // massive re-mapping: the PCC problem
}

// --- Duet ------------------------------------------------------------------------

class DuetTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
};

TEST_F(DuetTest, RedirectsToSlbOnUpdateAndBack) {
  DuetLoadBalancer duet(sim, {.policy = DuetLoadBalancer::MigratePolicy::kPeriodic,
                              .migrate_period = sim::kMinute});
  duet.add_vip(vip_ep(), make_dips(8));
  EXPECT_FALSE(duet.vip_at_slb(vip_ep()));
  EXPECT_FALSE(duet.process_packet(packet_of(1, true)).handled_by_slb);

  duet.request_update({0, vip_ep(), make_dips(8)[1],
                       workload::UpdateAction::kRemoveDip,
                       workload::UpdateCause::kServiceUpgrade});
  EXPECT_TRUE(duet.vip_at_slb(vip_ep()));
  EXPECT_TRUE(duet.process_packet(packet_of(2, true)).handled_by_slb);
  EXPECT_EQ(duet.migrations_to_slb(), 1u);

  sim.run();  // the 1-minute tick fires
  EXPECT_FALSE(duet.vip_at_slb(vip_ep()));
  EXPECT_EQ(duet.migrations_to_switch(), 1u);
}

TEST_F(DuetTest, PinnedFlowsSurviveUpdateWhileAtSlb) {
  DuetLoadBalancer duet(sim, {.policy = DuetLoadBalancer::MigratePolicy::kPeriodic,
                              .migrate_period = 10 * sim::kMinute});
  duet.add_vip(vip_ep(), make_dips(8));
  // Move to SLB with a first (harmless) update, pin flows, then remove.
  duet.request_update({0, vip_ep(), {net::IpAddress::v4(0x0A0000BB), 20},
                       workload::UpdateAction::kAddDip,
                       workload::UpdateCause::kProvisioning});
  std::map<std::uint32_t, net::Endpoint> pinned;
  for (std::uint32_t i = 0; i < 300; ++i) {
    pinned.emplace(i, *duet.process_packet(packet_of(i, true)).dip);
  }
  duet.request_update({0, vip_ep(), make_dips(8)[0],
                       workload::UpdateAction::kRemoveDip,
                       workload::UpdateCause::kFailure});
  for (std::uint32_t i = 0; i < 300; ++i) {
    EXPECT_EQ(*duet.process_packet(packet_of(i)).dip, pinned.at(i));
  }
}

TEST_F(DuetTest, WaitPccMigratesOnlyWhenSafe) {
  DuetLoadBalancer duet(sim, {.policy = DuetLoadBalancer::MigratePolicy::kWaitPcc});
  duet.add_vip(vip_ep(), make_dips(8));
  // Drive live flows the way the scenario driver does: every mapping-risk
  // event replays a packet per active flow, pinning them at redirect time.
  std::set<std::uint32_t> live;
  duet.set_mapping_risk_callback([&](const net::Endpoint&) {
    for (const std::uint32_t client : live) {
      duet.process_packet(packet_of(client));
    }
  });
  for (std::uint32_t i = 0; i < 50; ++i) {
    live.insert(i);
    duet.process_packet(packet_of(i, true));
  }
  // Removing a member of a compact pool re-maps many flows: their pins now
  // disagree, so the VIP must stay at the SLB.
  duet.request_update({0, vip_ep(), make_dips(8)[2],
                       workload::UpdateAction::kRemoveDip,
                       workload::UpdateCause::kServiceUpgrade});
  EXPECT_TRUE(duet.vip_at_slb(vip_ep()));
  // Finish all flows: migration must then happen.
  for (std::uint32_t i = 0; i < 50; ++i) {
    live.erase(i);
    duet.process_packet(packet_of(i, false, true));
  }
  EXPECT_FALSE(duet.vip_at_slb(vip_ep()));
  EXPECT_GE(duet.migrations_to_switch(), 1u);
}

// --- Scenario integration ---------------------------------------------------------

TEST(Scenario, SlbNeverViolatesPcc) {
  sim::Simulator sim;
  SoftwareLoadBalancer slb;
  ScenarioConfig config;
  config.horizon = 2 * sim::kMinute;
  config.vip_loads = {{vip_ep(), 600.0, workload::FlowProfile::hadoop(), false}};
  config.dip_pools = {make_dips(8)};
  workload::UpdateGenerator gen({.seed = 5}, vip_ep(), make_dips(8));
  config.updates = gen.generate(20.0, config.horizon);
  Scenario scenario(sim, slb, config);
  const auto stats = scenario.run();
  EXPECT_GT(stats.flows, 500u);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_DOUBLE_EQ(stats.slb_traffic_fraction, 1.0);
  EXPECT_GT(stats.updates_applied, 0u);
}

TEST(Scenario, ReplayFlowsDriveTheRunVerbatim) {
  sim::Simulator sim;
  SoftwareLoadBalancer slb;
  ScenarioConfig config;
  config.horizon = sim::kMinute;
  config.vip_loads = {{vip_ep(), 0.0, workload::FlowProfile::hadoop(), false}};
  config.dip_pools = {make_dips(4)};
  for (std::uint32_t i = 0; i < 50; ++i) {
    workload::Flow flow;
    flow.tuple = make_flow(i);
    flow.start = static_cast<sim::Time>(i) * sim::kSecond;
    flow.end = flow.start + 10 * sim::kSecond;
    flow.rate_bps = 1e6;
    config.replay_flows.push_back(flow);
  }
  Scenario scenario(sim, slb, config);
  const auto stats = scenario.run();
  EXPECT_EQ(stats.flows, 50u);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_GT(stats.total_bytes, 0.0);
}

/// A replay of tie_heavy_trace with three update batches: two updates at a
/// start instant (40 ns, where one flow ends and another starts), one where
/// a flow ends and another starts (25 ns), and one on its own.
ScenarioConfig tie_heavy_config(bool shuffle) {
  ScenarioConfig config;
  config.horizon = sim::kMinute;
  config.vip_loads = {{vip_ep(), 0.0, workload::FlowProfile::hadoop(), false}};
  config.dip_pools = {make_dips(4)};
  config.replay_flows = tie_heavy_trace(vip_ep());
  if (shuffle) config.replay_flows = shuffled(config.replay_flows);
  const auto dips = make_dips(4);
  const auto update = [](sim::Time at, const net::Endpoint& dip,
                         workload::UpdateAction action) {
    return workload::DipUpdate{
        .at = at, .vip = vip_ep(), .dip = dip, .action = action};
  };
  config.updates = {update(40, dips[1], workload::UpdateAction::kRemoveDip),
                    update(25, dips[2], workload::UpdateAction::kRemoveDip),
                    update(40, dips[3], workload::UpdateAction::kRemoveDip),
                    update(300, dips[1], workload::UpdateAction::kAddDip)};
  return config;
}

/// The calls a run of `config` makes on a RecordingBalancer with no inner
/// balancer (every SYN mapped, no mapping-risk probes) when every event is
/// queued before the first runs: by time, then the update batches, then flow
/// i's start (sequence 2i) and end (2i + 1) by index in replay_flows.
std::vector<RecordingBalancer::Call> eager_order(const ScenarioConfig& config) {
  using Call = RecordingBalancer::Call;
  std::map<sim::Time, std::vector<Call>> batches;
  for (const auto& u : config.updates) {
    batches[u.at].push_back({u.at, {}, u.dip, false, false});
  }
  std::map<std::tuple<sim::Time, std::uint64_t>, std::vector<Call>> events;
  std::uint64_t seq = 0;
  for (const auto& [at, calls] : batches) events[{at, seq++}] = calls;
  for (const auto& f : config.replay_flows) {
    events[{f.start, seq++}] = {{f.start, f.tuple, {}, true, false}};
    events[{f.end, seq++}] = {{f.end, f.tuple, {}, false, true}};
  }
  std::vector<Call> order;
  for (const auto& [key, calls] : events) {
    order.insert(order.end(), calls.begin(), calls.end());
  }
  return order;
}

TEST(Scenario, ReplayRunsInTheEagerOrder) {
  for (const bool shuffle : {false, true}) {
    const ScenarioConfig config = tie_heavy_config(shuffle);
    sim::Simulator sim;
    RecordingBalancer recorder(sim);
    Scenario scenario(sim, recorder, config);
    const auto stats = scenario.run();
    EXPECT_EQ(stats.flows, config.replay_flows.size());
    EXPECT_EQ(recorder.calls(), eager_order(config)) << "shuffled " << shuffle;
  }
}

TEST(Scenario, ReplayQueuesOnlyOpenFlows) {
  for (const bool shuffle : {false, true}) {
    const ScenarioConfig config = tie_heavy_config(shuffle);
    sim::Simulator sim;
    RecordingBalancer recorder(sim);
    Scenario scenario(sim, recorder, config);
    scenario.run();
    // The open flows' ends, the next start and the three update batches.
    EXPECT_LE(recorder.peak_pending(),
              open_flow_peak(config.replay_flows) + 3 + 2)
        << "shuffled " << shuffle;
  }
}

TEST(ScenarioDeathTest, RejectsAReplayFlowEndingBeforeItStarts) {
  ScenarioConfig config = tie_heavy_config(false);
  config.replay_flows[5].end = config.replay_flows[5].start - 1;
  sim::Simulator sim;
  RecordingBalancer recorder(sim);
  Scenario scenario(sim, recorder, config);
  EXPECT_DEATH(scenario.run(), "replay flow 5 ends before it starts");
}

TEST(ScenarioDeathTest, RejectsATupleThatStartsAgainWhileOpen) {
  // Two overlapping 2 s flows on one tuple: the second start would add its
  // rate to the traffic split, and no end would ever subtract it.
  ScenarioConfig config;
  config.horizon = sim::kMinute;
  config.vip_loads = {{vip_ep(), 0.0, workload::FlowProfile::hadoop(), false}};
  config.dip_pools = {make_dips(4)};
  for (const sim::Time start : {sim::Time{0}, sim::kSecond}) {
    workload::Flow flow;
    flow.tuple = make_flow(7);
    flow.start = start;
    flow.end = start + 2 * sim::kSecond;
    flow.rate_bps = 8e6;
    config.replay_flows.push_back(flow);
  }
  sim::Simulator sim;
  SoftwareLoadBalancer slb;
  Scenario scenario(sim, slb, config);
  EXPECT_DEATH(scenario.run(), "starts while a flow with its 5-tuple is still "
                               "open");
}

/// The client ports of the packets mapping-risk sweeps sent (neither SYN
/// nor FIN), in order.
std::vector<std::uint16_t> probe_ports(
    const std::vector<RecordingBalancer::Call>& calls) {
  std::vector<std::uint16_t> ports;
  for (const auto& call : calls) {
    const bool packet = call.dip == net::Endpoint{};
    if (packet && !call.syn && !call.fin) ports.push_back(call.flow.src.port);
  }
  return ports;
}

TEST(Scenario, ProbesEachVipsFlowsInAFixedOrder) {
  // A sweep probes a VIP's flows in its flow map's order, and that order
  // reaches the model: a fleet switch restored empty learns the flows it is
  // probed for in that order. Three VIPs with 20 replayed flows each, whose
  // starts and ends interleave with update batches on two of them.
  const auto vip_of = [](std::uint32_t v) {
    return net::Endpoint{net::IpAddress::v4(0x14000001 + v), 80};
  };
  ScenarioConfig config;
  config.horizon = sim::kMinute;
  for (std::uint32_t v = 0; v < 3; ++v) {
    config.vip_loads.push_back(
        {vip_of(v), 0.0, workload::FlowProfile::hadoop(), false});
    config.dip_pools.push_back(make_dips(6, static_cast<int>(8 * v)));
    for (std::uint32_t i = 0; i < 20; ++i) {
      const std::uint32_t k = 20 * v + i;
      workload::Flow flow;
      flow.tuple = net::FiveTuple{
          {net::IpAddress::v4(0x0B000001), static_cast<std::uint16_t>(k + 1)},
          vip_of(v),
          net::Protocol::kTcp};
      flow.start = (k * 37 % 60) * 100 * sim::kMicrosecond;
      flow.end = flow.start + (1 + k * 13 % 10) * sim::kMillisecond;
      flow.rate_bps = 1e6;
      config.replay_flows.push_back(flow);
    }
  }
  const auto update = [&](sim::Time at, std::uint32_t v, int dip,
                          workload::UpdateAction action) {
    const auto dips = make_dips(6, static_cast<int>(8 * v));
    return workload::DipUpdate{
        .at = at, .vip = vip_of(v), .dip = dips[dip], .action = action};
  };
  config.updates = {
      update(4 * sim::kMillisecond, 0, 1, workload::UpdateAction::kRemoveDip),
      update(4 * sim::kMillisecond, 1, 2, workload::UpdateAction::kRemoveDip),
      update(8 * sim::kMillisecond, 1, 2, workload::UpdateAction::kAddDip),
      update(8 * sim::kMillisecond, 0, 3, workload::UpdateAction::kRemoveDip)};

  sim::Simulator sim;
  core::SilkRoadSwitch silkroad(sim, {});
  RecordingBalancer recorder(sim, silkroad);
  Scenario scenario(sim, recorder, config);
  const auto stats = scenario.run();
  EXPECT_EQ(stats.flows, 60u);
  EXPECT_EQ(stats.violations, 0u);
  const std::vector<std::uint16_t> expected = {
      7, 18, 3, 6, 10, 14, 2, 5, 13, 16, 20, 15, 19, 27,
      29, 37, 39, 24, 26, 28, 32, 34, 36, 40, 23, 27, 33, 35,
      37, 22, 24, 26, 30, 34, 36, 40, 23, 7, 3, 10, 14, 17,
      9, 13, 20, 12, 4};
  EXPECT_EQ(probe_ports(recorder.calls()), expected);
}

TEST(Scenario, EcmpViolatesUnderUpdates) {
  sim::Simulator sim;
  EcmpLoadBalancer ecmp;
  ScenarioConfig config;
  config.horizon = 2 * sim::kMinute;
  config.vip_loads = {{vip_ep(), 1200.0, workload::FlowProfile::hadoop(), false}};
  config.dip_pools = {make_dips(8)};
  workload::UpdateGenerator gen({.seed = 6}, vip_ep(), make_dips(8));
  config.updates = gen.generate(20.0, config.horizon);
  Scenario scenario(sim, ecmp, config);
  const auto stats = scenario.run();
  EXPECT_GT(stats.violations, 0u);
  EXPECT_DOUBLE_EQ(stats.slb_traffic_fraction, 0.0);
}

TEST(Scenario, DuetPeriodicViolatesButLessTrafficAtSlbThanWaitPcc) {
  const auto run_policy = [&](DuetLoadBalancer::Config cfg) {
    sim::Simulator sim;
    DuetLoadBalancer duet(sim, cfg);
    ScenarioConfig config;
    config.horizon = 5 * sim::kMinute;
    config.seed = 11;
    config.vip_loads = {
        {vip_ep(), 2000.0, workload::FlowProfile::hadoop(), false}};
    config.dip_pools = {make_dips(16)};
    workload::UpdateGenerator gen({.seed = 12}, vip_ep(), make_dips(16));
    config.updates = gen.generate(10.0, config.horizon);
    Scenario scenario(sim, duet, config);
    return scenario.run();
  };
  const auto periodic =
      run_policy({.policy = DuetLoadBalancer::MigratePolicy::kPeriodic,
                  .migrate_period = sim::kMinute});
  const auto wait_pcc =
      run_policy({.policy = DuetLoadBalancer::MigratePolicy::kWaitPcc});
  EXPECT_GT(periodic.violations, 0u);       // Fig. 5b
  EXPECT_EQ(wait_pcc.violations, 0u);       // Migrate-PCC never breaks flows
  EXPECT_GT(wait_pcc.slb_traffic_fraction,  // Fig. 5a
            periodic.slb_traffic_fraction * 0.9);
}

}  // namespace
}  // namespace silkroad::lb
