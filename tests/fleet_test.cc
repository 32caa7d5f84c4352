#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "deploy/fleet.h"

namespace silkroad::deploy {
namespace {

net::Endpoint vip_ep() { return {net::IpAddress::v4(0x14000001), 80}; }

std::vector<net::Endpoint> make_dips(int n) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back({net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(i)), 20});
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

TEST(SilkRoadFleet, SpreadsFlowsAcrossMembers) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 4);
  fleet.add_vip(vip_ep(), make_dips(8));
  std::map<std::size_t, int> per_switch;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    const auto route = fleet.route_of(packet_of(i).flow);
    ASSERT_TRUE(route.has_value());
    ++per_switch[*route];
  }
  EXPECT_EQ(per_switch.size(), 4u);
  for (const auto& [idx, count] : per_switch) {
    EXPECT_NEAR(count, 1000, 250) << "switch " << idx;
  }
}

TEST(SilkRoadFleet, RoutingIsStableAndStateLandsOnOneSwitch) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 4);
  fleet.add_vip(vip_ep(), make_dips(8));
  const auto route_before = fleet.route_of(packet_of(7).flow);
  fleet.process_packet(packet_of(7, true));
  sim.run();
  const auto route_after = fleet.route_of(packet_of(7).flow);
  EXPECT_EQ(*route_before, *route_after);
  EXPECT_EQ(fleet.switch_at(*route_before).conn_table().size(), 1u);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (i != *route_before) {
      EXPECT_EQ(fleet.switch_at(i).conn_table().size(), 0u);
    }
  }
}

TEST(SilkRoadFleet, FailureOnlyRemapsFailedSwitchShare) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 4);
  fleet.add_vip(vip_ep(), make_dips(8));
  std::map<std::uint32_t, std::size_t> routes;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    routes[i] = *fleet.route_of(packet_of(i).flow);
  }
  fleet.fail_switch(2);
  EXPECT_EQ(fleet.live_count(), 3u);
  int moved = 0;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const auto now = *fleet.route_of(packet_of(i).flow);
    if (now != routes[i]) {
      ++moved;
      EXPECT_EQ(routes[i], 2u);  // rendezvous hashing: only victims move
      EXPECT_NE(now, 2u);
    }
  }
  EXPECT_NEAR(moved, 500, 200);
}

TEST(SilkRoadFleet, UpdatesFanOutToAllMembers) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 3);
  const auto dips = make_dips(8);
  fleet.add_vip(vip_ep(), dips);
  fleet.request_update({0, vip_ep(), dips[0],
                        workload::UpdateAction::kRemoveDip,
                        workload::UpdateCause::kServiceUpgrade});
  sim.run();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto* mgr = fleet.switch_at(i).version_manager(vip_ep());
    ASSERT_NE(mgr, nullptr);
    EXPECT_FALSE(mgr->pool(mgr->current_version())->contains_live(dips[0]));
  }
}

TEST(SilkRoadFleet, FailoverPreservesLatestVersionFlows) {
  // §7: a flow on the latest pool version survives its switch's death —
  // the peer's identical VIPTable maps it to the same DIP.
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 4);
  fleet.add_vip(vip_ep(), make_dips(8));
  std::map<std::uint32_t, net::Endpoint> assigned;
  for (std::uint32_t i = 0; i < 500; ++i) {
    const auto r = fleet.process_packet(packet_of(i, true));
    ASSERT_TRUE(r.dip.has_value());
    assigned.emplace(i, *r.dip);
  }
  sim.run();
  fleet.fail_switch(1);
  int broken = 0;
  for (std::uint32_t i = 0; i < 500; ++i) {
    const auto r = fleet.process_packet(packet_of(i));
    if (!r.dip || !(*r.dip == assigned.at(i))) ++broken;
  }
  // No updates happened, so every flow was on the latest version: zero break.
  EXPECT_EQ(broken, 0);
}

TEST(SilkRoadFleet, FailoverBreaksOnlyStaleVersionFlows) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 4);
  const auto dips = make_dips(8);
  fleet.add_vip(vip_ep(), dips);
  // Cohort A starts on version 0.
  std::map<std::uint32_t, net::Endpoint> cohort_a;
  for (std::uint32_t i = 0; i < 400; ++i) {
    cohort_a.emplace(i, *fleet.process_packet(packet_of(i, true)).dip);
  }
  sim.run();
  // Pool update: cohort A is now on a stale version (pinned per switch).
  fleet.request_update({sim.now(), vip_ep(), dips[0],
                        workload::UpdateAction::kRemoveDip,
                        workload::UpdateCause::kServiceUpgrade});
  sim.run();
  fleet.fail_switch(0);
  int broken = 0, total_failed_over = 0;
  for (std::uint32_t i = 0; i < 400; ++i) {
    const auto now_route = fleet.route_of(packet_of(i).flow);
    const auto r = fleet.process_packet(packet_of(i));
    (void)now_route;
    if (!r.dip || !(*r.dip == cohort_a.at(i))) {
      ++broken;
    }
  }
  // Only flows that (a) lived on switch 0 AND (b) would hash differently
  // under the new pool break: roughly 1/4 x 1/8 of the cohort.
  total_failed_over = 400 / 4;
  EXPECT_GT(broken, 0);
  EXPECT_LT(broken, total_failed_over);
}

TEST(SilkRoadFleet, RestoreRejoinsEcmp) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 2);
  fleet.add_vip(vip_ep(), make_dips(4));
  fleet.fail_switch(0);
  EXPECT_EQ(fleet.live_count(), 1u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(*fleet.route_of(packet_of(i).flow), 1u);
  }
  fleet.restore_switch(0);
  // The replacement rejoins ECMP only after the controller's resync lands.
  EXPECT_EQ(fleet.live_count(), 1u);
  sim.run();
  EXPECT_EQ(fleet.live_count(), 2u);
  EXPECT_TRUE(fleet.converged());
  bool any_on_zero = false;
  for (std::uint32_t i = 0; i < 100; ++i) {
    any_on_zero |= (*fleet.route_of(packet_of(i).flow) == 0u);
  }
  EXPECT_TRUE(any_on_zero);
}

TEST(SilkRoadFleet, AllDownMeansUnrouted) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 2);
  fleet.add_vip(vip_ep(), make_dips(4));
  fleet.fail_switch(0);
  fleet.fail_switch(1);
  EXPECT_FALSE(fleet.route_of(packet_of(1).flow).has_value());
  EXPECT_FALSE(fleet.process_packet(packet_of(1, true)).dip.has_value());
}

/// MetricsRegistry::aggregate as it was before the k-way merge: each
/// incoming sample is found in the merged list by a linear scan, then the
/// list is sorted. The reference the merge is held to.
obs::Snapshot reference_aggregate(const std::vector<obs::Snapshot>& parts) {
  obs::Snapshot merged;
  for (const auto& part : parts) {
    for (const auto& sample : part.samples) {
      obs::MetricSample* existing = nullptr;
      for (auto& candidate : merged.samples) {
        if (candidate.name == sample.name &&
            candidate.labels == sample.labels &&
            candidate.kind == sample.kind) {
          existing = &candidate;
          break;
        }
      }
      if (existing == nullptr) {
        merged.samples.push_back(sample);
        continue;
      }
      existing->value += sample.value;
      existing->count += sample.count;
      existing->sum += sample.sum;
      if (!sample.buckets.empty()) {
        std::vector<obs::HistogramBucket> out;
        std::size_t i = 0, j = 0;
        std::uint64_t prev_a = 0, prev_b = 0, cumulative = 0;
        const auto& a = existing->buckets;
        const auto& b = sample.buckets;
        while (i < a.size() || j < b.size()) {
          std::uint64_t bound = 0;
          std::uint64_t delta = 0;
          const bool take_a =
              j >= b.size() ||
              (i < a.size() && a[i].upper_bound <= b[j].upper_bound);
          const bool take_b =
              i >= a.size() ||
              (j < b.size() && b[j].upper_bound <= a[i].upper_bound);
          if (take_a) {
            bound = a[i].upper_bound;
            delta += a[i].cumulative_count - prev_a;
            prev_a = a[i].cumulative_count;
            ++i;
          }
          if (take_b) {
            bound = b[j].upper_bound;
            delta += b[j].cumulative_count - prev_b;
            prev_b = b[j].cumulative_count;
            ++j;
          }
          cumulative += delta;
          out.push_back({bound, cumulative});
        }
        existing->buckets = std::move(out);
      }
    }
  }
  std::sort(merged.samples.begin(), merged.samples.end(),
            [](const obs::MetricSample& a, const obs::MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return merged;
}

void expect_same_snapshot(const obs::Snapshot& got, const obs::Snapshot& want) {
  ASSERT_EQ(got.samples.size(), want.samples.size());
  for (std::size_t i = 0; i < got.samples.size(); ++i) {
    const obs::MetricSample& g = got.samples[i];
    const obs::MetricSample& w = want.samples[i];
    SCOPED_TRACE(w.name + "{" + w.labels + "}");
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.labels, w.labels);
    EXPECT_EQ(g.help, w.help);
    EXPECT_EQ(g.kind, w.kind);
    // Bit for bit: the sums must be taken in the same order.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.value),
              std::bit_cast<std::uint64_t>(w.value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.sum),
              std::bit_cast<std::uint64_t>(w.sum));
    EXPECT_EQ(g.count, w.count);
    ASSERT_EQ(g.buckets.size(), w.buckets.size());
    for (std::size_t b = 0; b < g.buckets.size(); ++b) {
      EXPECT_EQ(g.buckets[b].upper_bound, w.buckets[b].upper_bound);
      EXPECT_EQ(g.buckets[b].cumulative_count, w.buckets[b].cumulative_count);
    }
  }
}

TEST(SilkRoadFleet, MetricsSnapshotMergesLikeTheReference) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 4);
  constexpr std::uint32_t kVips = 16;
  const auto vip = [](std::uint32_t v) {
    return net::Endpoint{net::IpAddress::v4(0x14000001 + v), 80};
  };
  for (std::uint32_t v = 0; v < kVips; ++v) {
    std::vector<net::Endpoint> dips;
    for (std::uint32_t d = 0; d < 24; ++d) {
      dips.push_back({net::IpAddress::v4(0x0A000000 + v * 256 + d), 20});
    }
    fleet.add_vip(vip(v), dips);
  }
  const auto packet = [&vip](std::uint32_t client, bool syn, bool fin) {
    net::Packet p;
    p.flow = net::FiveTuple{{net::IpAddress::v4(0x0B000000 + client), 1234},
                            vip(client % kVips),
                            net::Protocol::kTcp};
    p.syn = syn;
    p.fin = fin;
    p.size_bytes = 100;
    return p;
  };
  // Traffic fills the per-switch counters, gauges and histograms; an
  // update and some FINs give the update and erase series values too.
  for (std::uint32_t client = 0; client < 4000; ++client) {
    fleet.process_packet(packet(client, true, false));
  }
  sim.run();
  workload::DipUpdate update;
  update.at = sim.now();
  update.vip = vip(3);
  update.dip = {net::IpAddress::v4(0x0A000000 + 3 * 256), 20};
  update.action = workload::UpdateAction::kRemoveDip;
  fleet.request_update(update);
  for (std::uint32_t client = 0; client < 4000; client += 3) {
    fleet.process_packet(packet(client, false, true));
  }
  sim.run();

  const obs::Snapshot merged = fleet.metrics_snapshot();
  std::vector<obs::Snapshot> parts;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    parts.push_back(fleet.switch_at(i).metrics().snapshot());
  }
  // The fleet's own registry is private; the merged snapshot stands in
  // for it as a fifth part that overlaps every series of the switches.
  parts.push_back(merged);
  EXPECT_GT(merged.samples.size(), parts.front().samples.size());
  expect_same_snapshot(obs::MetricsRegistry::aggregate(parts),
                       reference_aggregate(parts));
}

}  // namespace
}  // namespace silkroad::deploy
