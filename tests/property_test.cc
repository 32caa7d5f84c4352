// Property-based tests: randomized operation sequences checked against
// invariants and reference models, parameterized over seeds (TEST_P sweeps).
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "asic/cuckoo_table.h"
#include "check/invariant_auditor.h"
#include "core/silkroad_switch.h"
#include "core/version_manager.h"
#include "lb/scenario.h"
#include "lb/slb.h"
#include "sim/random.h"

namespace silkroad {
namespace {

net::Endpoint vip_ep(std::uint32_t n = 1) {
  return {net::IpAddress::v4(0x14000000 + n), 80};
}

std::vector<net::Endpoint> make_dips(int n) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back({net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(i)), 20});
  }
  return dips;
}

net::FiveTuple make_flow(std::uint32_t client) {
  return net::FiveTuple{{net::IpAddress::v4(0x0B000000 + client), 1234},
                        vip_ep(),
                        net::Protocol::kTcp};
}

// --- Cuckoo table vs a reference map -----------------------------------------

class CuckooFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CuckooFuzz, AgreesWithReferenceMapUnderRandomOps) {
  sim::Rng rng(GetParam());
  asic::CuckooConfig config;
  config.buckets_per_stage = 64;
  asic::DigestCuckooTable table(config);
  std::unordered_map<net::FiveTuple, std::uint32_t, net::FiveTupleHash> ref;

  for (int op = 0; op < 4000; ++op) {
    const std::uint32_t client = static_cast<std::uint32_t>(rng.uniform_int(700));
    const auto flow = make_flow(client);
    const double dice = rng.uniform();
    if (dice < 0.55) {
      const auto value = static_cast<std::uint32_t>(rng.uniform_int(64));
      if (table.insert(flow, value).inserted) {
        ref[flow] = value;
      } else {
        // Insertion failure must only happen when absent from the table.
        EXPECT_FALSE(ref.contains(flow));
      }
    } else if (dice < 0.85) {
      EXPECT_EQ(table.erase(flow), ref.erase(flow) > 0);
    } else {
      const auto value = table.exact_value(flow);
      const auto it = ref.find(flow);
      if (it == ref.end()) {
        EXPECT_FALSE(value.has_value());
      } else {
        ASSERT_TRUE(value.has_value());
        EXPECT_EQ(*value, it->second);
      }
    }
  }
  EXPECT_EQ(table.size(), ref.size());
  // Every reference entry must be reachable through the data-plane lookup
  // with its correct value (the lookup may in principle false-hit, but the
  // control plane's conflict resolution is exercised by the switch, not the
  // raw table — here we verify via exact_value).
  for (const auto& [flow, value] : ref) {
    EXPECT_EQ(table.exact_value(flow).value_or(9999), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CuckooFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull));

// --- Version manager invariants ------------------------------------------------

class VersionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VersionFuzz, InvariantsHoldUnderRandomUpdateStreams) {
  sim::Rng rng(GetParam());
  const auto dips = make_dips(24);
  core::VipVersionManager mgr(
      vip_ep(), dips,
      {.version_bits = 4,  // tight: forces recycling and exhaustion paths
       .enable_reuse = true});
  std::map<std::uint32_t, int> live_refs;
  live_refs[mgr.current_version()] = 0;

  for (int op = 0; op < 2000; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.4) {
      // Random add/remove update.
      workload::DipUpdate update;
      update.vip = vip_ep();
      update.dip = dips[rng.uniform_int(dips.size())];
      update.action = rng.bernoulli(0.5) ? workload::UpdateAction::kAddDip
                                         : workload::UpdateAction::kRemoveDip;
      const auto staged = mgr.stage_update(update);
      if (!staged) {
        // Exhaustion: an eviction candidate must exist whenever more than
        // the current version is live.
        if (mgr.active_versions() > 1) {
          const auto victim = mgr.eviction_candidate();
          ASSERT_TRUE(victim.has_value());
          live_refs.erase(*victim);
          mgr.force_destroy(*victim);
        }
        continue;
      }
      mgr.commit(staged->target_version);
      live_refs.emplace(staged->target_version, 0);
    } else if (dice < 0.7) {
      // A connection starts on the current version.
      ++live_refs[mgr.current_version()];
      mgr.acquire(mgr.current_version());
    } else {
      // A connection on some referenced version ends.
      for (auto it = live_refs.begin(); it != live_refs.end(); ++it) {
        if (it->second > 0) {
          --it->second;
          mgr.release(it->first);
          break;
        }
      }
    }
    // Invariants.
    EXPECT_LE(mgr.active_versions(), mgr.version_capacity());
    ASSERT_NE(mgr.pool(mgr.current_version()), nullptr);
    for (auto it = live_refs.begin(); it != live_refs.end();) {
      const bool must_exist =
          it->second > 0 || it->first == mgr.current_version();
      if (must_exist) {
        EXPECT_NE(mgr.pool(it->first), nullptr)
            << "version " << it->first << " vanished with refs";
        ++it;
      } else if (mgr.pool(it->first) == nullptr) {
        it = live_refs.erase(it);  // destroyed, as allowed
      } else {
        ++it;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionFuzz,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull));

// --- End-to-end PCC property across random scenarios ----------------------------

class PccProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PccProperty, SilkRoadNeverViolatesAcrossSeeds) {
  sim::Simulator sim;
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(50'000);
  config.learning = {.capacity = 256,
                     .timeout = (GetParam() % 2 == 0) ? sim::kMillisecond
                                                      : 5 * sim::kMillisecond};
  core::SilkRoadSwitch sw(sim, config);

  lb::ScenarioConfig sc;
  sc.horizon = 90 * sim::kSecond;
  sc.seed = GetParam();
  sim::Rng rng(GetParam() * 7919);
  const int vips = 3;
  for (int v = 0; v < vips; ++v) {
    sc.vip_loads.push_back({vip_ep(static_cast<std::uint32_t>(v + 1)),
                            600.0 + 400.0 * rng.uniform(),
                            workload::FlowProfile::hadoop(), false});
    std::vector<net::Endpoint> dips;
    const int pool = 4 + static_cast<int>(rng.uniform_int(20));
    for (int d = 0; d < pool; ++d) {
      dips.push_back({net::IpAddress::v4(0x0A010000 +
                                         static_cast<std::uint32_t>(v * 256 + d)),
                      20});
    }
    sc.dip_pools.push_back(dips);
    workload::UpdateGenerator gen({.seed = rng.next()},
                                  sc.vip_loads.back().vip, dips);
    auto updates = gen.generate(10.0 + 20.0 * rng.uniform(), sc.horizon);
    sc.updates.insert(sc.updates.end(), updates.begin(), updates.end());
  }
  lb::Scenario scenario(sim, sw, sc);
  // The scenario driver also self_check()s the switch at every update step;
  // a final explicit audit here keeps the violation list visible to gtest.
  const auto stats = scenario.run();
  EXPECT_GT(stats.flows, 500u);
  EXPECT_EQ(stats.violations, 0u)
      << "seed " << GetParam() << " with " << stats.updates_applied
      << " updates broke PCC";
  const check::InvariantAuditor auditor(sw);
  for (const auto& violation : auditor.audit()) {
    ADD_FAILURE() << "seed " << GetParam() << ": " << violation.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PccProperty,
                         ::testing::Range(std::uint64_t{100}, std::uint64_t{112}));

// --- Invariant auditor runs clean after every update step -----------------------

class AuditorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AuditorProperty, CleanAfterEveryUpdateStep) {
  sim::Simulator sim;
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(5'000);
  config.learning = {.capacity = 128, .timeout = sim::kMillisecond};
  config.version_bits = 4;  // tight: exercises recycling + eviction paths
  core::SilkRoadSwitch sw(sim, config);
  const auto dips = make_dips(16);
  sw.add_vip(vip_ep(), dips);
  const check::InvariantAuditor auditor(sw);
  sim::Rng rng(GetParam());

  const auto audit_now = [&](const char* when, int step) {
    for (const auto& violation : auditor.audit()) {
      ADD_FAILURE() << "seed " << GetParam() << " step " << step << " ("
                    << when << "): " << violation.to_string();
    }
  };

  std::uint32_t next_client = 0;
  for (int step = 0; step < 120; ++step) {
    // A burst of new connections...
    for (int i = 0; i < 20; ++i) {
      net::Packet syn;
      syn.flow = make_flow(next_client++);
      syn.syn = true;
      syn.size_bytes = 64;
      sw.process_packet(syn);
    }
    // ...then a pool update, audited at request time (Step1 of the 3-step
    // protocol may already be open) and again once the queue drains (the
    // window has committed and closed).
    workload::DipUpdate update;
    update.at = sim.now();
    update.vip = vip_ep();
    update.dip = dips[rng.uniform_int(dips.size())];
    update.action = rng.bernoulli(0.5) ? workload::UpdateAction::kAddDip
                                       : workload::UpdateAction::kRemoveDip;
    sw.request_update(update);
    audit_now("t_req", step);
    if (rng.bernoulli(0.3)) {
      // Occasionally end a known connection mid-update.
      net::Packet fin;
      fin.flow = make_flow(rng.uniform_int(next_client));
      fin.fin = true;
      fin.size_bytes = 64;
      sw.process_packet(fin);
    }
    sim.run();
    audit_now("drained", step);
  }
  EXPECT_GT(sw.stats().updates_completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditorProperty,
                         ::testing::Values(3ull, 7ull, 31ull, 127ull));

// --- SLB is PCC-clean under the same randomized scenarios -----------------------

TEST_P(PccProperty, SlbNeverViolatesAcrossSeeds) {
  sim::Simulator sim;
  lb::SoftwareLoadBalancer slb;
  lb::ScenarioConfig sc;
  sc.horizon = 60 * sim::kSecond;
  sc.seed = GetParam();
  sc.vip_loads = {
      {vip_ep(), 1500.0, workload::FlowProfile::hadoop(), false}};
  sc.dip_pools = {make_dips(12)};
  workload::UpdateGenerator gen({.seed = GetParam()}, vip_ep(), make_dips(12));
  sc.updates = gen.generate(25.0, sc.horizon);
  lb::Scenario scenario(sim, slb, sc);
  const auto stats = scenario.run();
  EXPECT_EQ(stats.violations, 0u);
}

}  // namespace
}  // namespace silkroad
