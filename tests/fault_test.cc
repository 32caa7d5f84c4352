#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "deploy/fleet.h"
#include "fault/control_channel.h"
#include "fault/fault_injector.h"

namespace silkroad::fault {
namespace {

net::Endpoint vip_ep() { return {net::IpAddress::v4(0x14000001), 80}; }

std::vector<net::Endpoint> make_dips(int n) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back(
        {net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(i)), 20});
  }
  return dips;
}

net::Packet packet_of(std::uint32_t client, bool syn = false) {
  net::Packet p;
  p.flow = net::FiveTuple{{net::IpAddress::v4(0x0B000000 + client), 1234},
                          vip_ep(),
                          net::Protocol::kTcp};
  p.syn = syn;
  p.size_bytes = 100;
  return p;
}

core::SilkRoadSwitch::Config small_config() {
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(8192);
  return config;
}

workload::DipUpdate update_of(std::uint64_t marker,
                              workload::UpdateAction action,
                              const net::Endpoint& dip) {
  workload::DipUpdate update;
  update.at = static_cast<sim::Time>(marker);  // marker, not a schedule time
  update.vip = vip_ep();
  update.dip = dip;
  update.action = action;
  update.cause = workload::UpdateCause::kServiceUpgrade;
  return update;
}

/// Harness around a standalone channel: records the `at` marker of every
/// delivered DipUpdate plus how many times the resync callback fired.
struct ChannelHarness {
  sim::Simulator sim;
  std::vector<std::uint64_t> delivered;
  int resyncs = 0;
  ControlChannel channel;

  explicit ChannelHarness(ControlChannel::Config config)
      : channel(
            sim, config,
            [this](const ControlChannel::Payload& p) {
              delivered.push_back(static_cast<std::uint64_t>(
                  std::get<workload::DipUpdate>(p).at));
            },
            [this] { ++resyncs; }) {}
};

TEST(ControlChannel, DeliversInOrderUnderLossAndReorder) {
  ChannelHarness h({.base_delay = 100 * sim::kMicrosecond,
                    .jitter = 50 * sim::kMicrosecond,
                    .drop_probability = 0.10,
                    .reorder_probability = 0.30,
                    .reorder_extra = 1 * sim::kMillisecond,
                    .resync_after_retries = 50});
  const auto dip = make_dips(1)[0];
  for (std::uint64_t i = 0; i < 50; ++i) {
    h.channel.send(update_of(i, workload::UpdateAction::kAddDip, dip));
  }
  h.sim.run();
  ASSERT_EQ(h.delivered.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(h.delivered[i], i) << "out-of-order delivery at " << i;
  }
  EXPECT_EQ(h.channel.outstanding(), 0u);
  EXPECT_EQ(h.channel.resyncs(), 0u);
  EXPECT_GT(h.channel.dropped() + h.channel.reorders(), 0u);
}

TEST(ControlChannel, LostAcksProduceDuplicatesButSingleDelivery) {
  ChannelHarness h({.base_delay = 100 * sim::kMicrosecond,
                    .drop_probability = 0.40,
                    .resync_after_retries = 100});
  const auto dip = make_dips(1)[0];
  for (std::uint64_t i = 0; i < 100; ++i) {
    h.channel.send(update_of(i, workload::UpdateAction::kAddDip, dip));
  }
  h.sim.run();
  // With 40% loss on both directions, some retransmits answer a lost ack —
  // the receiver must count and suppress them, never re-deliver.
  EXPECT_GT(h.channel.duplicates(), 0u);
  EXPECT_GT(h.channel.retries(), 0u);
  std::unordered_map<std::uint64_t, int> times_delivered;
  for (const std::uint64_t marker : h.delivered) ++times_delivered[marker];
  ASSERT_EQ(times_delivered.size(), 100u);
  for (const auto& [marker, n] : times_delivered) {
    EXPECT_EQ(n, 1) << "marker " << marker << " delivered " << n << " times";
  }
}

TEST(ControlChannel, RetryExhaustionEscalatesToResync) {
  ChannelHarness h({.base_delay = 100 * sim::kMicrosecond,
                    .retry_timeout = 1 * sim::kMillisecond,
                    .resync_after_retries = 3});
  // Total blackout for the first 100 ms: every transmission (and ack) dies.
  h.channel.set_loss_hook(
      [](sim::Time now) { return now < 100 * sim::kMillisecond; });
  h.channel.send(
      update_of(7, workload::UpdateAction::kAddDip, make_dips(1)[0]));
  h.sim.run();
  EXPECT_GE(h.channel.retries(), 3u);
  EXPECT_GE(h.channel.resyncs(), 1u);
  EXPECT_EQ(h.resyncs, static_cast<int>(h.channel.resyncs()));
  // The individual message died with the window; the resync carried state.
  EXPECT_TRUE(h.delivered.empty());
  EXPECT_FALSE(h.channel.needs_resync());
  EXPECT_EQ(h.channel.outstanding(), 0u);
}

TEST(ControlChannel, OfflineSendsAreDroppedAndFlaggedForResync) {
  ChannelHarness h({.base_delay = 100 * sim::kMicrosecond});
  h.channel.set_offline(true);
  h.channel.send(
      update_of(1, workload::UpdateAction::kAddDip, make_dips(1)[0]));
  h.sim.run();
  EXPECT_TRUE(h.delivered.empty());
  EXPECT_TRUE(h.channel.needs_resync());
  EXPECT_EQ(h.channel.dropped(), 1u);
  // force_resync while offline stays deferred; once online it lands.
  h.channel.force_resync();
  EXPECT_EQ(h.resyncs, 0);
  h.channel.set_offline(false);
  h.channel.force_resync();
  h.sim.run();
  EXPECT_EQ(h.resyncs, 1);
  EXPECT_FALSE(h.channel.needs_resync());
}

TEST(FaultPlan, SameSeedReplaysIdentically) {
  const FaultPlan::Options options{.horizon = 30 * sim::kSecond,
                                   .switches = 3,
                                   .dips = 8,
                                   .include_crash = true};
  const FaultPlan a = FaultPlan::random(1234, options);
  const FaultPlan b = FaultPlan::random(1234, options);
  const FaultPlan c = FaultPlan::random(1235, options);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(FaultPlan, CoversEveryKindAndClosesBeforeQuiesce) {
  const FaultPlan::Options options{.horizon = 30 * sim::kSecond,
                                   .switches = 3,
                                   .dips = 8,
                                   .include_crash = true};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, options);
    for (std::size_t k = 0; k < kFaultKindCount; ++k) {
      EXPECT_TRUE(plan.any(static_cast<FaultKind>(k)))
          << "seed " << seed << " missing kind " << k;
    }
    for (const auto& w : plan.windows) {
      EXPECT_LT(w.start, w.end) << w.to_string();
      EXPECT_LE(w.end, static_cast<sim::Time>(0.85 * 30 * sim::kSecond) + 1)
          << w.to_string();
    }
  }
  const FaultPlan no_crash = FaultPlan::random(
      0, {.horizon = 30 * sim::kSecond, .include_crash = false});
  EXPECT_FALSE(no_crash.any(FaultKind::kSwitchCrash));
}

TEST(FaultInjector, DipFlapOracleFollowsSquareWaveAndExportsMetrics) {
  sim::Simulator sim;
  obs::MetricsRegistry registry;
  FaultPlan plan;
  plan.windows.push_back({FaultKind::kDipFlap, 1 * sim::kSecond,
                          9 * sim::kSecond, /*target=*/3, 0.0,
                          /*period=*/2 * sim::kSecond});
  FaultInjector injector(sim, plan, 42, &registry);
  // Outside the window and for other DIPs: always alive.
  EXPECT_TRUE(injector.dip_alive(3, 0));
  EXPECT_TRUE(injector.dip_alive(2, 2 * sim::kSecond));
  // Inside: down in the first half-period, up in the second.
  EXPECT_FALSE(injector.dip_alive(3, 1 * sim::kSecond + 1));
  EXPECT_TRUE(injector.dip_alive(3, 2 * sim::kSecond + 1));
  EXPECT_FALSE(injector.dip_alive(3, 3 * sim::kSecond + 1));
  EXPECT_TRUE(injector.dip_alive(3, 9 * sim::kSecond));
  EXPECT_EQ(injector.injected(FaultKind::kDipFlap), 2u);  // two down edges
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("silkroad_faults_injected_total", "kind=\"dip-flap\""),
            2.0);
  // The full taxonomy is pre-registered at zero for the exporters.
  EXPECT_NE(
      snap.find("silkroad_faults_injected_total", "kind=\"switch-crash\""),
      nullptr);
}

TEST(SilkRoadSwitch, RelearnJanitorRecoversDroppedNotifications) {
  sim::Simulator sim;
  auto config = small_config();
  config.relearn_timeout = 2 * sim::kMillisecond;
  core::SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(4));
  // Every learning-filter notification is lost on the PCI-E hop.
  int drops = 0;
  core::SilkRoadSwitch::FaultHooks hooks;
  hooks.learn_drop = [&](const asic::LearnEvent&) {
    ++drops;
    return true;
  };
  sw.set_fault_hooks(std::move(hooks));
  const auto first = sw.process_packet(packet_of(1, true));
  ASSERT_TRUE(first.dip.has_value());
  sim.run();
  EXPECT_GT(drops, 0);
  // The janitor re-enqueued the flow directly: it is installed, not stuck.
  EXPECT_EQ(sw.pending_insertions(), 0u);
  EXPECT_EQ(sw.stats().inserts, 1u);
  EXPECT_GT(
      sw.metrics().snapshot().value_of("silkroad_relearns_total"), 0.0);
  const auto repeat = sw.process_packet(packet_of(1));
  EXPECT_EQ(*repeat.dip, *first.dip);
  EXPECT_EQ(sw.stats().conn_table_hits, 1u);
  sw.self_check();
}

TEST(SilkRoadSwitch, BoundedPendingQueueShedsWithVersionPin) {
  sim::Simulator sim;
  auto config = small_config();
  config.max_pending_inserts = 1;
  config.cpu.tasks_per_second = 100;  // insertions crawl: the queue stays full
  config.learning.timeout = 100 * sim::kMicrosecond;
  core::SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(4));
  std::unordered_map<std::uint32_t, net::Endpoint> admitted;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto r = sw.process_packet(packet_of(i, true));
    ASSERT_TRUE(r.dip.has_value()) << "flow " << i;
    admitted.emplace(i, *r.dip);
  }
  EXPECT_GT(sw.degraded_flows(), 0u);
  EXPECT_GT(sw.metrics().snapshot().value_of("silkroad_pending_shed_total"),
            0.0);
  // A pool update mid-flight: pinned flows keep their admission-time mapping.
  sw.request_update(update_of(0, workload::UpdateAction::kRemoveDip,
                              make_dips(4)[0]));
  sim.run();
  for (const auto& [i, dip] : admitted) {
    if (dip == make_dips(4)[0]) continue;  // server removed: flow is dead
    const auto r = sw.process_packet(packet_of(i));
    ASSERT_TRUE(r.dip.has_value());
    EXPECT_EQ(*r.dip, dip) << "flow " << i << " was re-mapped";
  }
  // FIN releases the pin.
  const std::size_t before = sw.degraded_flows();
  for (std::uint32_t i = 0; i < 8; ++i) {
    net::Packet fin = packet_of(i);
    fin.fin = true;
    sw.process_packet(fin);
  }
  sim.run();
  EXPECT_LT(sw.degraded_flows(), before);
  sw.self_check();
}

TEST(SilkRoadSwitch, DegradedModeHysteresisOnCpuBacklog) {
  sim::Simulator sim;
  auto config = small_config();
  config.cpu.tasks_per_second = 1000;
  config.learning.timeout = 50 * sim::kMicrosecond;
  config.degraded_enter_backlog = 4;
  config.degraded_exit_backlog = 0;
  core::SilkRoadSwitch sw(sim, config);
  sw.add_vip(vip_ep(), make_dips(4));
  // Pile up far more insertions than the CPU can absorb.
  for (std::uint32_t i = 0; i < 64; ++i) {
    sw.process_packet(packet_of(i, true));
  }
  sim.run_until(2 * sim::kMillisecond);
  // New flows keep getting served while the backlog drains.
  for (std::uint32_t i = 100; i < 110; ++i) {
    EXPECT_TRUE(sw.process_packet(packet_of(i, true)).dip.has_value());
  }
  const double transitions_mid = sw.metrics().snapshot().value_of(
      "silkroad_degraded_mode_transitions_total");
  EXPECT_GE(transitions_mid, 1.0);  // entered at least once
  sim.run();
  // Backlog fully drained: the poll noticed and the switch exited.
  EXPECT_FALSE(sw.in_degraded_mode());
  const auto snap = sw.metrics().snapshot();
  EXPECT_GE(snap.value_of("silkroad_degraded_mode_transitions_total"), 2.0);
  EXPECT_EQ(snap.value_of("silkroad_degraded_mode"), 0.0);
  sw.self_check();
}

TEST(SilkRoadFleet, UpdateWhileSwitchDownIsResyncedOnRestore) {
  sim::Simulator sim;
  deploy::SilkRoadFleet fleet(sim, small_config(), 2);
  const auto dips = make_dips(4);
  fleet.add_vip(vip_ep(), dips);
  fleet.fail_switch(0);
  // Membership changes while the switch is dead: one DIP out, one new one in.
  const net::Endpoint fresh{net::IpAddress::v4(0x0A0000FF), 20};
  fleet.request_update(update_of(0, workload::UpdateAction::kRemoveDip,
                                 dips[1]));
  fleet.request_update(update_of(0, workload::UpdateAction::kAddDip, fresh));
  sim.run();
  EXPECT_TRUE(fleet.channel_at(0).needs_resync());
  fleet.restore_switch(0);
  sim.run();
  EXPECT_EQ(fleet.live_count(), 2u);
  EXPECT_GE(fleet.channel_at(0).resyncs(), 1u);
  EXPECT_TRUE(fleet.converged());  // both replicas serve the newest membership
  const auto* mgr = fleet.switch_at(0).version_manager(vip_ep());
  ASSERT_NE(mgr, nullptr);
  const auto* pool = mgr->pool(mgr->current_version());
  EXPECT_TRUE(pool->contains_live(fresh));
  EXPECT_FALSE(pool->contains_live(dips[1]));
  fleet.self_check();
}

TEST(SilkRoadFleet, LossyReorderingChannelsConvergeAcrossUpdateBoundaries) {
  sim::Simulator sim;
  // Aggressive channel: 20% loss, half the messages shoved past their
  // successors — deliveries straddle 3-step protocol boundaries constantly.
  deploy::SilkRoadFleet fleet(sim, small_config(), 3, 0xFEE7ULL,
                              {.base_delay = 100 * sim::kMicrosecond,
                               .jitter = 100 * sim::kMicrosecond,
                               .drop_probability = 0.20,
                               .reorder_probability = 0.50,
                               .reorder_extra = 2 * sim::kMillisecond});
  const auto dips = make_dips(8);
  fleet.add_vip(vip_ep(), dips);
  for (std::uint64_t round = 0; round < 6; ++round) {
    const auto& dip = dips[round % dips.size()];
    fleet.request_update(
        update_of(round, workload::UpdateAction::kRemoveDip, dip));
    fleet.request_update(
        update_of(round, workload::UpdateAction::kAddDip, dip));
  }
  sim.run();
  EXPECT_TRUE(fleet.converged());
  EXPECT_EQ(fleet.ctrl_outstanding(), 0u);
  fleet.self_check();
  std::uint64_t reorders = 0;
  std::uint64_t duplicates = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    reorders += fleet.channel_at(i).reorders();
    duplicates += fleet.channel_at(i).duplicates();
  }
  EXPECT_GT(reorders, 0u);
  EXPECT_GT(duplicates, 0u);
  // The channel counters surface in the fleet-wide snapshot (per switch).
  const auto snap = fleet.metrics_snapshot();
  EXPECT_NE(snap.find("silkroad_ctrl_retries_total", "switch=\"0\""), nullptr);
  EXPECT_NE(snap.find("silkroad_ctrl_resyncs_total", "switch=\"2\""), nullptr);
}

// Regression: a lost ack retransmits an already-delivered DipUpdate. The
// receiver must apply it exactly once, and the suppressed duplicate must be
// visible on the update's span record (kChannelDup on that switch's leg).
TEST(ControlChannelSpans, LostAckDuplicateIsIdempotentAndVisibleInSpan) {
  sim::Simulator sim;
  fault::ControlChannel::Config channel;
  channel.base_delay = 100 * sim::kMicrosecond;
  channel.retry_timeout = 1 * sim::kMillisecond;
  channel.resync_after_retries = 10;
  deploy::SilkRoadFleet fleet(sim, small_config(), 1, 0xFEE7ULL, channel);
  const auto dips = make_dips(4);
  fleet.add_vip(vip_ep(), dips);
  sim.run();

  // Drop exactly the second transmission through the channel: message (1,
  // passes) -> its ack (2, DROPPED) -> retransmit (3, passes) -> duplicate's
  // ack (4, passes).
  int call = 0;
  fleet.set_channel_loss_hook(0, [&call](sim::Time) { return ++call == 2; });
  net::Endpoint extra{net::IpAddress::v4(0x0A0000FF), 20};
  fleet.request_update(update_of(0, workload::UpdateAction::kAddDip, extra));
  sim.run();

  const auto& ch = fleet.channel_at(0);
  EXPECT_EQ(ch.delivered(), 1u);
  EXPECT_EQ(ch.duplicates(), 1u);
  EXPECT_EQ(ch.dropped(), 1u);
  EXPECT_GE(ch.retries(), 1u);
  EXPECT_EQ(fleet.switch_at(0).stats().updates_requested, 1u)
      << "duplicate delivery must not re-run the 3-step protocol";

  const obs::UpdateSpan* span = fleet.spans().find(1);
  ASSERT_NE(span, nullptr);
  EXPECT_TRUE(span->has(obs::EventKind::kChannelDeliver, 0));
  EXPECT_TRUE(span->has(obs::EventKind::kChannelDrop, 0));  // the lost ack
  EXPECT_TRUE(span->has(obs::EventKind::kChannelRetry, 0));
  EXPECT_TRUE(span->has(obs::EventKind::kChannelDup, 0));
  EXPECT_TRUE(span->has(obs::EventKind::kFinish, 0));
  EXPECT_TRUE(fleet.spans().audit_complete().empty());

  // Duplicate *content* (same add re-issued) is a distinct span that the
  // fleet's applied-state mirror skips idempotently.
  fleet.request_update(update_of(1, workload::UpdateAction::kAddDip, extra));
  sim.run();
  const obs::UpdateSpan* dup = fleet.spans().find(2);
  ASSERT_NE(dup, nullptr);
  EXPECT_TRUE(dup->has(obs::EventKind::kSkipped, 0));
  EXPECT_EQ(fleet.switch_at(0).stats().updates_requested, 1u);

  // Satellite gauges: in-flight transmissions and reorder-buffer depth are
  // exported per switch and are zero at quiesce.
  const auto snap = fleet.metrics_snapshot();
  const auto* inflight = snap.find("silkroad_ctrl_inflight", "switch=\"0\"");
  ASSERT_NE(inflight, nullptr);
  EXPECT_EQ(inflight->value, 0.0);
  const auto* depth =
      snap.find("silkroad_ctrl_reorder_buffer_depth", "switch=\"0\"");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0.0);
  EXPECT_EQ(ch.inflight(), 0u);
  EXPECT_EQ(ch.reorder_buffer_depth(), 0u);
}

}  // namespace
}  // namespace silkroad::fault
