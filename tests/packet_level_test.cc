// Cross-validation: the packet-level runner must reproduce the flow-level
// model's verdicts — this is the empirical discharge of the "probe at
// mapping-risk events is exact" assumption (DESIGN.md §6).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/silkroad_switch.h"
#include "lb/duet.h"
#include "lb/ecmp_lb.h"
#include "lb/packet_level.h"
#include "lb/scenario.h"
#include "lb/slb.h"
#include "recording_balancer.h"

namespace silkroad::lb {
namespace {

net::Endpoint vip_ep() { return {net::IpAddress::v4(0x14000001), 80}; }

std::vector<net::Endpoint> make_dips(int n) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back({net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(i)), 20});
  }
  return dips;
}

struct Workload {
  std::vector<workload::Flow> flows;
  std::vector<workload::DipUpdate> updates;
};

Workload make_workload(std::uint64_t seed, double arrivals_per_min,
                       double updates_per_min) {
  Workload w;
  sim::Simulator gen_sim;
  workload::FlowGenerator gen(
      gen_sim, {{vip_ep(), arrivals_per_min, workload::FlowProfile::hadoop(),
                 false}},
      seed);
  gen.start(2 * sim::kMinute,
            [&w](const workload::Flow& f) { w.flows.push_back(f); },
            [](const workload::Flow&) {});
  gen_sim.run();
  workload::UpdateGenerator ugen({.seed = seed + 1}, vip_ep(), make_dips(16));
  w.updates = ugen.generate(updates_per_min, 2 * sim::kMinute);
  return w;
}

template <typename MakeLb>
PacketLevelRunner::Stats run_packet_level(const Workload& w, MakeLb&& make) {
  sim::Simulator sim;
  auto lb = make(sim);
  lb->add_vip(vip_ep(), make_dips(16));
  PacketLevelRunner runner(sim, *lb, {.packet_interval = 20 * sim::kMillisecond});
  return runner.run(w.flows, w.updates);
}

template <typename MakeLb>
ScenarioStats run_flow_level(const Workload& w, MakeLb&& make) {
  sim::Simulator sim;
  auto lb = make(sim);
  ScenarioConfig config;
  config.horizon = 2 * sim::kMinute;
  config.vip_loads = {{vip_ep(), 0.0, workload::FlowProfile::hadoop(), false}};
  config.dip_pools = {make_dips(16)};
  config.updates = w.updates;
  config.replay_flows = w.flows;
  Scenario scenario(sim, *lb, config);
  return scenario.run();
}

auto make_silkroad = [](bool transit) {
  return [transit](sim::Simulator& sim) {
    core::SilkRoadSwitch::Config config;
    config.conn_table = core::SilkRoadSwitch::conn_table_for(50'000);
    config.use_transit_table = transit;
    return std::make_unique<core::SilkRoadSwitch>(sim, config);
  };
};

TEST(PacketLevelAgreement, SilkRoadZeroViolationsAtPacketGranularity) {
  const auto w = make_workload(31, 800.0, 20.0);
  const auto packet = run_packet_level(w, make_silkroad(true));
  const auto flow = run_flow_level(w, make_silkroad(true));
  EXPECT_GT(packet.flows, 500u);
  EXPECT_EQ(packet.violations, 0u);  // every single packet checked
  EXPECT_EQ(flow.violations, 0u);
}

TEST(PacketLevelAgreement, EcmpVerdictsAgree) {
  const auto w = make_workload(32, 600.0, 15.0);
  const auto make = [](sim::Simulator&) {
    return std::make_unique<EcmpLoadBalancer>();
  };
  const auto packet = run_packet_level(w, make);
  const auto flow = run_flow_level(w, make);
  EXPECT_GT(packet.violations, 0u);
  EXPECT_GT(flow.violations, 0u);
  // The two audits observe different instants (probes additionally see
  // transient intra-batch pool states; packets see everything in between);
  // the verdicts must agree closely, not exactly.
  EXPECT_NEAR(static_cast<double>(packet.violations),
              static_cast<double>(flow.violations),
              static_cast<double>(flow.violations) * 0.15 + 10);
}

TEST(PacketLevelAgreement, DuetVerdictsAgree) {
  const auto w = make_workload(33, 600.0, 15.0);
  const auto make = [](sim::Simulator& sim) {
    return std::make_unique<DuetLoadBalancer>(
        sim, DuetLoadBalancer::Config{
                 .policy = DuetLoadBalancer::MigratePolicy::kPeriodic,
                 .migrate_period = sim::kMinute});
  };
  const auto packet = run_packet_level(w, make);
  const auto flow = run_flow_level(w, make);
  EXPECT_GT(packet.violations, 0u);
  EXPECT_GT(flow.violations, 0u);
  EXPECT_NEAR(static_cast<double>(packet.violations),
              static_cast<double>(flow.violations),
              static_cast<double>(flow.violations) * 0.5 + 10);
}

TEST(PacketLevelAgreement, SlbCleanAtPacketGranularity) {
  const auto w = make_workload(34, 600.0, 25.0);
  const auto make = [](sim::Simulator&) {
    return std::make_unique<SoftwareLoadBalancer>();
  };
  const auto packet = run_packet_level(w, make);
  EXPECT_EQ(packet.violations, 0u);
}

TEST(PacketLevelRunner, CountsPacketsAndFlows) {
  constexpr sim::Time kMs = sim::kMillisecond;
  const net::Endpoint unknown_vip{net::IpAddress::v4(0x14000002), 80};
  const auto flow_of = [](std::uint16_t port, const net::Endpoint& vip,
                          sim::Time start, sim::Time end) {
    workload::Flow flow;
    flow.tuple = net::FiveTuple{{net::IpAddress::v4(0x0B000001), port}, vip,
                                net::Protocol::kTcp};
    flow.start = start;
    flow.end = end;
    return flow;
  };
  Workload w;
  // Durations against the 100 ms interval: an exact multiple, not a
  // multiple, and zero; then a flow to a VIP the balancer does not serve.
  w.flows.push_back(flow_of(1, vip_ep(), 0, sim::kSecond));
  w.flows.push_back(flow_of(2, vip_ep(), 30 * kMs, 280 * kMs));
  w.flows.push_back(flow_of(3, vip_ep(), 70 * kMs, 70 * kMs));
  w.flows.push_back(flow_of(4, unknown_vip, 10 * kMs, 210 * kMs));
  sim::Simulator sim;
  SoftwareLoadBalancer slb;
  slb.add_vip(vip_ep(), make_dips(4));
  RecordingBalancer recorder(sim, slb);
  PacketLevelRunner runner(sim, recorder,
                           {.packet_interval = 100 * sim::kMillisecond});
  const auto stats = runner.run(w.flows, {});
  EXPECT_EQ(stats.flows, 3u);
  EXPECT_EQ(stats.unmapped_flows, 1u);
  // 11 + 4 + 2 + 3: each flow sends its SYN at its start, one packet per
  // interval strictly before its end, and its FIN at its end.
  EXPECT_EQ(stats.packets, 20u);
  EXPECT_EQ(stats.violations, 0u);
  std::vector<sim::Time> one_per_interval;
  for (sim::Time t = 0; t <= sim::kSecond; t += 100 * kMs) {
    one_per_interval.push_back(t);
  }
  EXPECT_EQ(recorder.train(1), one_per_interval);
  EXPECT_EQ(recorder.train(2),
            (std::vector<sim::Time>{30 * kMs, 130 * kMs, 230 * kMs, 280 * kMs}));
  EXPECT_EQ(recorder.train(3), (std::vector<sim::Time>{70 * kMs, 70 * kMs}));
  // An unmapped SYN does not stop the train.
  EXPECT_EQ(recorder.train(4),
            (std::vector<sim::Time>{10 * kMs, 110 * kMs, 210 * kMs}));

  bool gauge_found = false;
  for (const auto& sample : runner.metrics().snapshot().samples) {
    if (sample.name != "silkroad_packet_level_active_flows") continue;
    gauge_found = true;
    EXPECT_EQ(sample.value, 0.0);
  }
  EXPECT_TRUE(gauge_found);
}

std::vector<workload::DipUpdate> tie_updates() {
  const auto dips = make_dips(4);
  std::vector<workload::DipUpdate> updates(3);
  updates[0] = {.at = 40, .vip = vip_ep(), .dip = dips[1]};
  updates[1] = {.at = 25, .vip = vip_ep(), .dip = dips[2]};
  updates[2] = {.at = 300,
                .vip = vip_ep(),
                .dip = dips[1],
                .action = workload::UpdateAction::kAddDip};
  return updates;
}

TEST(PacketLevelRunner, ShuffledTraceGivesTheSameStats) {
  const auto run = [](const std::vector<workload::Flow>& flows,
                      const std::vector<workload::DipUpdate>& updates,
                      sim::Time interval) {
    sim::Simulator sim;
    EcmpLoadBalancer ecmp;
    ecmp.add_vip(vip_ep(), make_dips(16));
    PacketLevelRunner runner(sim, ecmp, {.packet_interval = interval});
    return runner.run(flows, updates);
  };
  const auto expect_same = [](const PacketLevelRunner::Stats& a,
                              const PacketLevelRunner::Stats& b) {
    EXPECT_EQ(a.flows, b.flows);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.unmapped_flows, b.unmapped_flows);
  };
  const auto ties = tie_heavy_trace(vip_ep());
  expect_same(run(ties, tie_updates(), 4), run(shuffled(ties), tie_updates(), 4));
  const auto w = make_workload(35, 600.0, 15.0);
  const auto sorted = run(w.flows, w.updates, 20 * sim::kMillisecond);
  EXPECT_GT(sorted.violations, 0u);
  expect_same(sorted, run(shuffled(w.flows), w.updates, 20 * sim::kMillisecond));
}

TEST(PacketLevelRunner, QueueHoldsOnlyOpenFlows) {
  for (const bool shuffle : {false, true}) {
    const auto flows = shuffle ? shuffled(tie_heavy_trace(vip_ep()))
                               : tie_heavy_trace(vip_ep());
    const auto updates = tie_updates();
    sim::Simulator sim;
    RecordingBalancer recorder(sim);
    PacketLevelRunner runner(sim, recorder, {.packet_interval = 4});
    runner.run(flows, updates);
    // One pending packet per open flow, the next SYN, and the updates.
    EXPECT_LE(recorder.peak_pending(),
              open_flow_peak(flows) + updates.size() + 2)
        << "shuffled " << shuffle;
  }
}

TEST(PacketLevelRunnerDeathTest, RejectsAFlowEndingBeforeItStarts) {
  auto flows = tie_heavy_trace(vip_ep());
  flows[3].end = flows[3].start - 1;
  sim::Simulator sim;
  SoftwareLoadBalancer slb;
  PacketLevelRunner runner(sim, slb, {});
  EXPECT_DEATH(runner.run(flows, {}), "replay flow 3 ends before it starts");
}

TEST(PacketLevelRunnerDeathTest, RejectsZeroPacketInterval) {
  sim::Simulator sim;
  SoftwareLoadBalancer slb;
  EXPECT_DEATH(PacketLevelRunner(sim, slb, {.packet_interval = 0}),
               "packet_interval must be positive");
}

}  // namespace
}  // namespace silkroad::lb
