// Fleet convergence observatory (DESIGN.md §17): VipDigest token algebra,
// watermark-lag SLO hysteresis, checkability around resync sessions, silent
// divergence detection with per-VIP attribution, and the property that the
// incrementally-maintained digests equal a full recompute after randomized
// interleavings of updates, crashes, and restores through a real fleet.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "deploy/fleet.h"
#include "obs/convergence.h"

namespace silkroad::obs {
namespace {

net::Endpoint vip_ep(std::uint32_t n = 1) {
  return {net::IpAddress::v4(0x14000000 + n), 80};
}

net::Endpoint dip_ep(std::uint32_t n) {
  return {net::IpAddress::v4(0x0A000000 + n), 20};
}

std::vector<net::Endpoint> make_dips(std::uint32_t n) {
  std::vector<net::Endpoint> dips;
  for (std::uint32_t i = 0; i < n; ++i) dips.push_back(dip_ep(i));
  return dips;
}

core::SilkRoadSwitch::Config small_config() {
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(8192);
  return config;
}

workload::DipUpdate update_of(const net::Endpoint& vip,
                              const net::Endpoint& dip, bool add) {
  workload::DipUpdate update;
  update.vip = vip;
  update.dip = dip;
  update.action = add ? workload::UpdateAction::kAddDip
                      : workload::UpdateAction::kRemoveDip;
  update.cause = workload::UpdateCause::kServiceUpgrade;
  return update;
}

// --- VipDigest token algebra -------------------------------------------------

TEST(VipDigest, OrderIndependent) {
  const auto dips = make_dips(5);
  std::vector<net::Endpoint> shuffled = {dips[3], dips[0], dips[4], dips[2],
                                         dips[1]};
  EXPECT_EQ(VipDigest::of(vip_ep(), dips), VipDigest::of(vip_ep(), shuffled));
}

TEST(VipDigest, EmptyPoolIsNotAbsentVip) {
  const std::vector<net::Endpoint> none;
  EXPECT_NE(VipDigest::of(vip_ep(), none), 0u);
  EXPECT_EQ(VipDigest::of(vip_ep(), none), VipDigest::presence_token(vip_ep()));
  EXPECT_NE(VipDigest::of(vip_ep(1), none), VipDigest::of(vip_ep(2), none));
}

TEST(VipDigest, MemberTokensAreSaltedPerVip) {
  // Identical DIP sets under different VIPs must not cancel: the member
  // token depends on the VIP key, not just the DIP.
  EXPECT_NE(VipDigest::member_token(vip_ep(1), dip_ep(7)),
            VipDigest::member_token(vip_ep(2), dip_ep(7)));
  const auto dips = make_dips(3);
  EXPECT_NE(VipDigest::of(vip_ep(1), dips) ^ VipDigest::of(vip_ep(2), dips),
            VipDigest::presence_token(vip_ep(1)) ^
                VipDigest::presence_token(vip_ep(2)));
}

TEST(VipDigest, MembershipIsAnO1Toggle) {
  const auto dips = make_dips(2);
  const std::vector<net::Endpoint> both = {dips[0], dips[1]};
  const std::vector<net::Endpoint> one = {dips[0]};
  EXPECT_EQ(VipDigest::of(vip_ep(), one) ^
                VipDigest::member_token(vip_ep(), dips[1]),
            VipDigest::of(vip_ep(), both));
}

// --- Watermarks, lag, and the hysteretic SLO --------------------------------

TEST(FleetObserver, EffectiveWatermarkExtendsThroughOutOfBandPositions) {
  FleetObserver observer(1);
  const auto dips = make_dips(2);
  observer.on_append_config(1, 10, vip_ep(), dips);
  observer.on_mirror_config(0, vip_ep(), dips, 1, 10);
  EXPECT_EQ(observer.watermark(0), 0u);
  EXPECT_EQ(observer.effective_watermark(0), 1u);
  EXPECT_EQ(observer.lag_positions(0), 0u);
  // A later in-order delivery folds the out-of-band run into the watermark.
  observer.on_append_update(2, 20, vip_ep(), dip_ep(9), true);
  observer.on_mirror_update(0, vip_ep(), dip_ep(9), true, 2, 20);
  observer.on_watermark(0, 2, 20);
  EXPECT_EQ(observer.watermark(0), 2u);
  EXPECT_EQ(observer.effective_watermark(0), 2u);
  EXPECT_EQ(observer.divergences(), 0u);
}

TEST(FleetObserver, SloHysteresisEntersExitsAndBurns) {
  FleetObserver observer(1);
  // One position past the enter threshold makes the only switch lagging.
  constexpr std::uint64_t kHead = FleetObserver::kLagEnter + 1;
  const auto dips = make_dips(static_cast<std::uint32_t>(kHead));
  sim::Time now = 0;
  for (std::uint64_t pos = 1; pos <= kHead; ++pos) {
    now += 100;
    observer.on_append_update(pos, now, vip_ep(), dips[pos - 1], true);
  }
  observer.evaluate(now);
  EXPECT_EQ(observer.lag_positions(0), kHead);
  EXPECT_GT(observer.lag_age(0), 0u);
  EXPECT_FALSE(observer.slo_ok());
  EXPECT_EQ(observer.slo_transitions(), 1u);
  // Burn accrues while violated.
  observer.evaluate(now + 1000);
  EXPECT_GE(observer.slo_burn_ns(), 1000u);
  const auto deliver_through = [&](std::uint64_t from, std::uint64_t to,
                                   sim::Time at) {
    for (std::uint64_t pos = from; pos <= to; ++pos) {
      observer.on_mirror_update(0, vip_ep(), dips[pos - 1], true, pos, at);
      observer.on_watermark(0, pos, at);
    }
  };
  // Catching up to one position above lag_exit keeps the latch set.
  constexpr std::uint64_t kHeld = kHead - FleetObserver::kLagExit - 1;
  deliver_through(1, kHeld, now + 1500);
  observer.evaluate(now + 1500);
  EXPECT_EQ(observer.lag_positions(0), FleetObserver::kLagExit + 1);
  EXPECT_FALSE(observer.slo_ok());
  // Catching up past lag_exit clears the latch and the violation.
  deliver_through(kHeld + 1, kHead, now + 2000);
  observer.evaluate(now + 2000);
  EXPECT_EQ(observer.lag_positions(0), 0u);
  EXPECT_TRUE(observer.slo_ok());
  EXPECT_EQ(observer.slo_transitions(), 2u);
  EXPECT_EQ(observer.divergences(), 0u);
  // Hysteresis: a lag between exit and enter does not re-enter lagging.
  constexpr std::uint64_t kBehind = FleetObserver::kLagExit + 1;
  for (std::uint64_t pos = kHead + 1; pos <= kHead + kBehind; ++pos) {
    observer.on_append_update(pos, now + 3000, vip_ep(),
                              dip_ep(static_cast<std::uint32_t>(1000 + pos)),
                              true);
  }
  observer.evaluate(now + 3000);
  EXPECT_EQ(observer.lag_positions(0), kBehind);
  EXPECT_TRUE(observer.slo_ok());
}

// --- Divergence detection ----------------------------------------------------

TEST(FleetObserver, SilentDivergenceAttributesPerVipDeltas) {
  FleetObserver observer(2);
  std::vector<DivergenceFinding> fired;
  observer.set_divergence_callback(
      [&fired](const DivergenceFinding& finding) { fired.push_back(finding); });
  const auto dips = make_dips(3);
  observer.on_append_config(1, 10, vip_ep(), dips);
  observer.on_mirror_config(0, vip_ep(), dips, 1, 10);
  observer.on_mirror_config(1, vip_ep(), dips, 1, 10);
  observer.evaluate(20);
  EXPECT_EQ(observer.divergences(), 0u);

  // Switch 1's apply path silently loses a member: the check fires on that
  // very feed, attributing the missing DIP.
  observer.on_mirror_update(1, vip_ep(), dips[2], false, 0, 30);
  EXPECT_EQ(observer.divergences(), 1u);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].switch_index, 1u);
  EXPECT_EQ(fired[0].position, 1u);
  auto findings = observer.findings();
  ASSERT_EQ(findings.size(), 1u);
  ASSERT_EQ(findings[0].deltas.size(), 1u);
  EXPECT_EQ(findings[0].deltas[0].vip, vip_ep());
  ASSERT_EQ(findings[0].deltas[0].missing.size(), 1u);
  EXPECT_EQ(findings[0].deltas[0].missing[0], dips[2]);
  EXPECT_TRUE(findings[0].deltas[0].extra.empty());

  // Heal, then gain a stray member instead: a fresh episode attributes the
  // extra DIP.
  observer.on_mirror_update(1, vip_ep(), dips[2], true, 0, 40);
  observer.on_mirror_update(1, vip_ep(), dip_ep(99), true, 0, 41);
  EXPECT_EQ(observer.divergences(), 2u);
  findings = observer.findings();
  ASSERT_EQ(findings.size(), 2u);
  ASSERT_EQ(findings[1].deltas.size(), 1u);
  EXPECT_TRUE(findings[1].deltas[0].missing.empty());
  ASSERT_EQ(findings[1].deltas[0].extra.size(), 1u);
  EXPECT_EQ(findings[1].deltas[0].extra[0], dip_ep(99));
  // The healthy replica is untouched.
  EXPECT_EQ(observer.switch_digest(0), observer.desired_digest());
  EXPECT_TRUE(observer.verify_digests());
}

TEST(FleetObserver, EpisodeLatchDedupsUntilDigestsAgreeAgain) {
  FleetObserver observer(1);
  const auto dips = make_dips(2);
  observer.on_append_config(1, 10, vip_ep(), dips);
  observer.on_mirror_config(0, vip_ep(), dips, 1, 10);
  observer.on_mirror_update(0, vip_ep(), dips[0], false, 0, 20);
  EXPECT_EQ(observer.divergences(), 1u);
  // Still diverged: repeated evaluation reports the same episode once.
  observer.evaluate(30);
  observer.evaluate(40);
  EXPECT_EQ(observer.divergences(), 1u);
  // Heal, then diverge again: a fresh episode is counted.
  observer.on_mirror_update(0, vip_ep(), dips[0], true, 0, 50);
  EXPECT_EQ(observer.divergences(), 1u);
  observer.on_mirror_update(0, vip_ep(), dips[1], false, 0, 60);
  EXPECT_EQ(observer.divergences(), 2u);
}

TEST(FleetObserver, ChecksAreSuspendedDuringResyncSessions) {
  FleetObserver observer(1);
  const auto dips = make_dips(2);
  observer.on_append_config(1, 10, vip_ep(), dips);
  observer.on_mirror_config(0, vip_ep(), dips, 1, 10);
  // A session opens (window-wipe edge): the switch stops being checkable,
  // so mid-resync mirror churn is not misread as divergence.
  observer.on_session_open(0, 77, 20);
  EXPECT_EQ(observer.state(0), FleetObserver::SwitchState::kResyncing);
  observer.on_mirror_update(0, vip_ep(), dips[0], false, 0, 21);
  observer.evaluate(22);
  EXPECT_EQ(observer.divergences(), 0u);
  // The replay heals the mirror before the session closes; the close makes
  // the switch checkable again and finds it consistent.
  observer.on_resync_begin(0, 77, FleetObserver::ResyncKind::kDelta, 23);
  observer.on_mirror_update(0, vip_ep(), dips[0], true, 0, 24);
  observer.on_resync_end(0, 77, 25);
  EXPECT_EQ(observer.state(0), FleetObserver::SwitchState::kLive);
  observer.evaluate(26);
  EXPECT_EQ(observer.divergences(), 0u);
  const auto findings = observer.findings();
  EXPECT_TRUE(findings.empty());
}

TEST(FleetObserver, CompactedHistoryIsUnverifiableNotDivergent) {
  FleetObserver observer(1);
  constexpr std::uint64_t kHead = FleetObserver::kDigestHistory + 10;
  for (std::uint64_t pos = 1; pos <= kHead; ++pos) {
    observer.on_append_update(pos, pos * 10, vip_ep(),
                              dip_ep(static_cast<std::uint32_t>(pos)), true);
  }
  // Watermark 5 fell off the history ring (it retains the newest
  // kDigestHistory positions): the check is counted as unverifiable
  // instead of comparing against the wrong reference.
  observer.on_watermark(0, 5, kHead * 10);
  EXPECT_GE(observer.unverifiable_checks(), 1u);
  EXPECT_EQ(observer.divergences(), 0u);
}

// --- Through a real fleet ----------------------------------------------------

TEST(FleetConvergence, SeededMirrorCorruptionIsCaughtWithAttribution) {
  sim::Simulator sim;
  deploy::SilkRoadFleet fleet(sim, small_config(), 3);
  const auto dips = make_dips(4);
  fleet.add_vip(vip_ep(), dips);
  sim.run();
  fleet.request_update(update_of(vip_ep(), dip_ep(8), true));
  sim.run();
  ASSERT_NE(fleet.observer(), nullptr);
  fleet.observer()->evaluate(sim.now());
  EXPECT_EQ(fleet.observer()->divergences(), 0u);

  fleet.inject_mirror_corruption(1, vip_ep(), dips[2], /*add=*/false);
  EXPECT_EQ(fleet.observer()->divergences(), 1u);
  const auto findings = fleet.observer()->findings();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].switch_index, 1u);
  ASSERT_EQ(findings[0].deltas.size(), 1u);
  ASSERT_EQ(findings[0].deltas[0].missing.size(), 1u);
  EXPECT_EQ(findings[0].deltas[0].missing[0], dips[2]);
  EXPECT_TRUE(findings[0].deltas[0].extra.empty());

  // The divergence callback assembled a ForensicsReport with the finding's
  // attribution attached.
  ASSERT_EQ(fleet.divergence_reports().size(), 1u);
  const auto& report = fleet.divergence_reports()[0];
  EXPECT_NE(report.reason.find("silent divergence"), std::string::npos);
  EXPECT_FALSE(report.divergence_text.empty());
  EXPECT_NE(report.to_json().find("\"divergence\":"), std::string::npos);

  // Healing the mirror re-arms the episode latch; no further findings.
  fleet.inject_mirror_corruption(1, vip_ep(), dips[2], /*add=*/true);
  fleet.observer()->evaluate(sim.now());
  EXPECT_EQ(fleet.observer()->divergences(), 1u);
  EXPECT_TRUE(fleet.observer()->verify_digests());
}

TEST(FleetConvergence, IncrementalDigestsEqualRecomputeAcrossInterleavings) {
  // Property: after any interleaving of updates, crashes, restores, and
  // partial deliveries, every incrementally-maintained digest equals a full
  // recompute, and a fault-free fleet reports zero silent divergences.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    std::mt19937_64 rng(0x51172D00ULL + seed);
    sim::Simulator sim;
    fault::ControlChannel::Config channel;
    channel.base_delay = 100 * sim::kMicrosecond;
    channel.jitter = 400 * sim::kMicrosecond;
    channel.drop_probability = 0.1;
    deploy::SyncConfig sync;
    sync.journal_capacity = 64;  // Force occasional full-state escalation.
    sync.chunk_entries = 4;
    deploy::SilkRoadFleet fleet(sim, small_config(), 3, 0xFEE7ULL + seed,
                                channel, sync);
    const auto dips = make_dips(6);
    fleet.add_vip(vip_ep(1), dips);
    fleet.add_vip(vip_ep(2), {dips[0], dips[1]});
    sim.run();
    std::vector<bool> up(3, true);
    for (int step = 0; step < 120; ++step) {
      const std::uint32_t roll = static_cast<std::uint32_t>(rng() % 100);
      if (roll < 70) {
        const net::Endpoint vip = vip_ep(1 + rng() % 2);
        fleet.request_update(
            update_of(vip, dips[rng() % dips.size()], rng() % 2 == 0));
      } else if (roll < 78) {
        const std::size_t victim = rng() % 3;
        if (up[victim] && fleet.live_count() > 1) {
          fleet.fail_switch(victim);
          up[victim] = false;
        }
      } else if (roll < 86) {
        const std::size_t victim = rng() % 3;
        if (!up[victim]) {
          fleet.restore_switch(victim);
          up[victim] = true;
        }
      } else {
        sim.run();  // Drain in-flight channel work before more churn.
      }
      if (step % 16 == 0) {
        EXPECT_TRUE(fleet.observer()->verify_digests()) << "seed " << seed;
      }
    }
    for (std::size_t i = 0; i < 3; ++i) {
      if (!up[i]) fleet.restore_switch(i);
    }
    sim.run();
    ASSERT_TRUE(fleet.converged()) << "seed " << seed;
    fleet.observer()->evaluate(sim.now());
    EXPECT_TRUE(fleet.observer()->verify_digests()) << "seed " << seed;
    EXPECT_EQ(fleet.observer()->divergences(), 0u) << "seed " << seed;
    EXPECT_EQ(fleet.observer()->selfcheck_failures(), 0u) << "seed " << seed;
    EXPECT_TRUE(fleet.observer()->slo_ok()) << "seed " << seed;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(fleet.observer()->switch_digest(i),
                fleet.observer()->desired_digest())
          << "seed " << seed << " switch " << i;
    }
  }
}

TEST(FleetConvergence, RenderingsCarryTheHeadline) {
  sim::Simulator sim;
  deploy::SilkRoadFleet fleet(sim, small_config(), 2);
  fleet.add_vip(vip_ep(), make_dips(2));
  sim.run();
  fleet.observer()->evaluate(sim.now());
  const std::string text = fleet.observer()->to_text();
  EXPECT_NE(text.find("fleet convergence observatory"), std::string::npos);
  EXPECT_NE(text.find("divergences: 0"), std::string::npos);
  const std::string json = fleet.observer()->to_json();
  EXPECT_NE(json.find("\"journal_head\""), std::string::npos);
  EXPECT_NE(json.find("\"slo\""), std::string::npos);
  EXPECT_NE(json.find("\"switches\""), std::string::npos);
}

}  // namespace
}  // namespace silkroad::obs
