// Fleet convergence observatory (DESIGN.md §17): VipDigest token algebra,
// watermark-lag SLO hysteresis, checkability around resync sessions, silent
// divergence detection with per-VIP attribution, the property that the
// incrementally-maintained digests equal a full recompute after randomized
// interleavings of updates, crashes, and restores through a real fleet, and
// scraping every route while such a fleet runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "deploy/fleet.h"
#include "obs/convergence.h"
#include "obs/exporters.h"
#include "obs/scrape_server.h"
#include "obs/timeseries.h"
#include "http_get.h"

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

/// An observer over a fake fleet. Like SilkRoadFleet, every helper changes
/// the fake's memberships first and then feeds the observer what changed,
/// so the observer's Source never runs ahead of what it was told.
class ObservedFleet final : public FleetObserver::Source {
 public:
  explicit ObservedFleet(std::size_t switches)
      : applied_(switches), observer(switches, *this) {}

  std::vector<net::VipMembers> applied(std::size_t sw) const override {
    return listing(applied_.at(sw));
  }
  std::vector<net::VipMembers> desired() const override {
    return listing(desired_);
  }

  /// Journals a VipConfig at `pos`.
  void config(std::uint64_t pos, sim::Time now, const net::Endpoint& vip,
              const std::vector<net::Endpoint>& dips) {
    desired_[vip] = {dips.begin(), dips.end()};
    observer.on_append_config(pos, now);
  }
  /// Provisions switch `sw` synchronously at `pos` (0: out of the journal).
  void provision(std::size_t sw, const net::Endpoint& vip,
                 const std::vector<net::Endpoint>& dips, std::uint64_t pos,
                 sim::Time now) {
    applied_.at(sw)[vip] = {dips.begin(), dips.end()};
    observer.on_mirror_config(sw, pos, now);
  }
  /// Journals a DipUpdate at `pos`.
  void append(std::uint64_t pos, sim::Time now, const net::Endpoint& vip,
              const net::Endpoint& dip, bool add) {
    observer.on_append_update(pos, now, vip, dip,
                              toggle(desired_, vip, dip, add));
  }
  /// Delivers journal position `pos` to switch `sw` in order.
  void deliver(std::size_t sw, const net::Endpoint& vip,
               const net::Endpoint& dip, bool add, std::uint64_t pos,
               sim::Time now) {
    observer.on_delivery(sw, vip, dip, toggle(applied_.at(sw), vip, dip, add),
                         pos, now);
  }
  /// Toggles a member of switch `sw` out of band (a buggy apply path).
  void corrupt(std::size_t sw, const net::Endpoint& vip,
               const net::Endpoint& dip, bool add, sim::Time now) {
    observer.on_mirror_update(sw, vip, dip,
                              toggle(applied_.at(sw), vip, dip, add), now);
  }

 private:
  using Memberships = std::map<net::Endpoint, std::set<net::Endpoint>>;

  static bool toggle(Memberships& m, const net::Endpoint& vip,
                     const net::Endpoint& dip, bool add) {
    const auto it = m.find(vip);
    if (it == m.end()) {
      ADD_FAILURE() << "updates need a provisioned VIP";
      return false;
    }
    return add ? it->second.insert(dip).second : it->second.erase(dip) != 0;
  }
  static std::vector<net::VipMembers> listing(const Memberships& m) {
    std::vector<net::VipMembers> out;
    for (const auto& [vip, dips] : m) {
      out.push_back({vip, {dips.begin(), dips.end()}});
    }
    return out;
  }

  std::vector<Memberships> applied_;
  Memberships desired_;

 public:
  FleetObserver observer;  ///< Declared last: it reads the memberships.
};

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
  ObservedFleet fleet(1);
  FleetObserver& observer = fleet.observer;
  const auto dips = make_dips(2);
  fleet.config(1, 10, vip_ep(), dips);
  fleet.provision(0, vip_ep(), dips, 1, 10);
  EXPECT_EQ(observer.watermark(0), 0u);
  EXPECT_EQ(observer.effective_watermark(0), 1u);
  EXPECT_EQ(observer.lag_positions(0), 0u);
  // A later in-order delivery folds the out-of-band run into the watermark.
  fleet.append(2, 20, vip_ep(), dip_ep(9), true);
  fleet.deliver(0, vip_ep(), dip_ep(9), true, 2, 20);
  EXPECT_EQ(observer.watermark(0), 2u);
  EXPECT_EQ(observer.effective_watermark(0), 2u);
  EXPECT_EQ(observer.divergences(), 0u);
  EXPECT_TRUE(observer.verify_digests());
}

TEST(FleetObserver, SloHysteresisEntersExitsAndBurns) {
  ObservedFleet fleet(1);
  FleetObserver& observer = fleet.observer;
  // Position 1 provisions an empty pool everywhere; position 1 + i adds
  // dips[i - 1]. One update past the enter threshold makes the only switch
  // lagging.
  fleet.config(1, 0, vip_ep(), {});
  fleet.provision(0, vip_ep(), {}, 1, 0);
  constexpr std::uint64_t kBehind = FleetObserver::kLagEnter + 1;
  const auto dips = make_dips(static_cast<std::uint32_t>(kBehind));
  sim::Time now = 0;
  for (std::uint64_t i = 1; i <= kBehind; ++i) {
    now += 100;
    fleet.append(1 + i, now, vip_ep(), dips[i - 1], true);
  }
  observer.evaluate(now);
  EXPECT_EQ(observer.lag_positions(0), kBehind);
  EXPECT_GT(observer.lag_age(0), 0u);
  EXPECT_FALSE(observer.slo_ok());
  EXPECT_EQ(observer.slo_transitions(), 1u);
  // Burn accrues while violated.
  observer.evaluate(now + 1000);
  EXPECT_GE(observer.slo_burn_ns(), 1000u);
  const auto deliver_through = [&](std::uint64_t from, std::uint64_t to,
                                   sim::Time at) {
    for (std::uint64_t i = from; i <= to; ++i) {
      fleet.deliver(0, vip_ep(), dips[i - 1], true, 1 + i, at);
    }
  };
  // Catching up to one position above lag_exit keeps the latch set.
  constexpr std::uint64_t kHeld = kBehind - FleetObserver::kLagExit - 1;
  deliver_through(1, kHeld, now + 1500);
  observer.evaluate(now + 1500);
  EXPECT_EQ(observer.lag_positions(0), FleetObserver::kLagExit + 1);
  EXPECT_FALSE(observer.slo_ok());
  // Catching up past lag_exit clears the latch and the violation.
  deliver_through(kHeld + 1, kBehind, now + 2000);
  observer.evaluate(now + 2000);
  EXPECT_EQ(observer.lag_positions(0), 0u);
  EXPECT_TRUE(observer.slo_ok());
  EXPECT_EQ(observer.slo_transitions(), 2u);
  EXPECT_EQ(observer.divergences(), 0u);
  // Hysteresis: a lag between exit and enter does not re-enter lagging.
  constexpr std::uint64_t kBetween = FleetObserver::kLagExit + 1;
  for (std::uint64_t i = 1; i <= kBetween; ++i) {
    fleet.append(1 + kBehind + i, now + 3000, vip_ep(),
                 dip_ep(static_cast<std::uint32_t>(1000 + i)), true);
  }
  observer.evaluate(now + 3000);
  EXPECT_EQ(observer.lag_positions(0), kBetween);
  EXPECT_TRUE(observer.slo_ok());
  EXPECT_TRUE(observer.verify_digests());
}

// --- Divergence detection ----------------------------------------------------

TEST(FleetObserver, SilentDivergenceAttributesPerVipDeltas) {
  ObservedFleet fleet(2);
  FleetObserver& observer = fleet.observer;
  std::vector<DivergenceFinding> fired;
  observer.set_divergence_callback(
      [&fired](const DivergenceFinding& finding) { fired.push_back(finding); });
  const auto dips = make_dips(3);
  fleet.config(1, 10, vip_ep(), dips);
  fleet.provision(0, vip_ep(), dips, 1, 10);
  fleet.provision(1, vip_ep(), dips, 1, 10);
  observer.evaluate(20);
  EXPECT_EQ(observer.divergences(), 0u);

  // Switch 1's apply path silently loses a member: the check fires on that
  // very feed, attributing the missing DIP.
  fleet.corrupt(1, vip_ep(), dips[2], false, 30);
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
  fleet.corrupt(1, vip_ep(), dips[2], true, 40);
  fleet.corrupt(1, vip_ep(), dip_ep(99), true, 41);
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

TEST(FleetObserver, DivergenceCallbackFiresFromTheDetectingFeed) {
  ObservedFleet fleet(1);
  FleetObserver& observer = fleet.observer;
  std::vector<DivergenceFinding> fired;
  std::size_t findings_seen = 0;
  observer.set_divergence_callback([&](const DivergenceFinding& finding) {
    fired.push_back(finding);
    // The callback runs without the observer's mutex, so it may read the
    // published findings.
    findings_seen = observer.findings().size();
  });
  const auto dips = make_dips(2);
  fleet.config(1, 10, vip_ep(), dips);
  fleet.provision(0, vip_ep(), dips, 1, 10);
  // No getter, evaluate() or cold feed runs between the corrupting feed and
  // the assertions: the finding was delivered by that feed.
  fleet.corrupt(0, vip_ep(), dips[1], false, 20);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].switch_index, 0u);
  EXPECT_EQ(fired[0].at, 20u);
  ASSERT_EQ(fired[0].deltas.size(), 1u);
  ASSERT_EQ(fired[0].deltas[0].missing.size(), 1u);
  EXPECT_EQ(fired[0].deltas[0].missing[0], dips[1]);
  EXPECT_EQ(findings_seen, 1u);
}

TEST(FleetObserver, EpisodeLatchDedupsUntilDigestsAgreeAgain) {
  ObservedFleet fleet(1);
  FleetObserver& observer = fleet.observer;
  const auto dips = make_dips(2);
  fleet.config(1, 10, vip_ep(), dips);
  fleet.provision(0, vip_ep(), dips, 1, 10);
  fleet.corrupt(0, vip_ep(), dips[0], false, 20);
  EXPECT_EQ(observer.divergences(), 1u);
  // Still diverged: repeated evaluation reports the same episode once.
  observer.evaluate(30);
  observer.evaluate(40);
  EXPECT_EQ(observer.divergences(), 1u);
  // Heal, then diverge again: a fresh episode is counted.
  fleet.corrupt(0, vip_ep(), dips[0], true, 50);
  EXPECT_EQ(observer.divergences(), 1u);
  fleet.corrupt(0, vip_ep(), dips[1], false, 60);
  EXPECT_EQ(observer.divergences(), 2u);
}

TEST(FleetObserver, ChecksAreSuspendedDuringResyncSessions) {
  ObservedFleet fleet(1);
  FleetObserver& observer = fleet.observer;
  const auto dips = make_dips(2);
  fleet.config(1, 10, vip_ep(), dips);
  fleet.provision(0, vip_ep(), dips, 1, 10);
  // A session opens at its rung: the switch stops being checkable, so
  // mid-resync mirror churn is not misread as divergence.
  observer.on_resync_begin(0, 77, FleetObserver::ResyncKind::kDelta, 20);
  EXPECT_EQ(observer.state(0), FleetObserver::SwitchState::kResyncing);
  fleet.corrupt(0, vip_ep(), dips[0], false, 21);
  observer.evaluate(22);
  EXPECT_EQ(observer.divergences(), 0u);
  // The replay heals the mirror before the session closes; the close makes
  // the switch checkable again and finds it consistent.
  fleet.corrupt(0, vip_ep(), dips[0], true, 24);
  observer.on_resync_end(0, 77, 25);
  EXPECT_EQ(observer.state(0), FleetObserver::SwitchState::kLive);
  observer.evaluate(26);
  EXPECT_EQ(observer.divergences(), 0u);
  const auto findings = observer.findings();
  EXPECT_TRUE(findings.empty());
}

TEST(FleetObserver, CompactedHistoryIsUnverifiableNotDivergent) {
  ObservedFleet fleet(1);
  FleetObserver& observer = fleet.observer;
  constexpr std::uint64_t kHead = FleetObserver::kDigestHistory + 10;
  fleet.config(1, 10, vip_ep(), {});
  for (std::uint64_t pos = 2; pos <= kHead; ++pos) {
    fleet.append(pos, pos * 10, vip_ep(),
                 dip_ep(static_cast<std::uint32_t>(pos)), true);
  }
  // Watermark 5 fell off the history ring (it retains the newest
  // kDigestHistory positions): the check is counted as unverifiable
  // instead of comparing against the wrong reference.
  observer.on_watermark(0, 5, kHead * 10);
  EXPECT_GE(observer.unverifiable_checks(), 1u);
  EXPECT_EQ(observer.divergences(), 0u);
  // Over kSelfcheckEvery feeds, so round-robin self-checks ran inside
  // appends. Each read the fake fleet right after the append it reported,
  // when the Source and the digests agree.
  EXPECT_GT(observer.selfchecks(), 0u);
  EXPECT_EQ(observer.selfcheck_failures(), 0u);
}

TEST(FleetObserver, HistoryRetainsExactlyTheNewestPositions) {
  // Switch 0 stays empty at watermark 0; switch 1 is provisioned at
  // position 1. Positions 2.. each add a member, so every position has its
  // own desired digest.
  ObservedFleet fleet(2);
  FleetObserver& observer = fleet.observer;
  constexpr std::uint64_t kHistory = FleetObserver::kDigestHistory;
  fleet.config(1, 10, vip_ep(), {});
  for (std::uint64_t pos = 2; pos <= kHistory; ++pos) {
    fleet.append(pos, 10, vip_ep(), dip_ep(static_cast<std::uint32_t>(pos)),
                 true);
  }
  fleet.provision(1, vip_ep(), {}, 1, 20);
  // Head kDigestHistory: position 1 is the oldest retained, and the empty
  // state before it is still known.
  observer.evaluate(20);
  EXPECT_EQ(observer.effective_watermark(0), 0u);
  EXPECT_EQ(observer.effective_watermark(1), 1u);
  EXPECT_EQ(observer.unverifiable_checks(), 0u);
  EXPECT_EQ(observer.divergences(), 0u);
  // One more append scrolls position 1 out, and the empty state with it.
  fleet.append(kHistory + 1, 30, vip_ep(),
               dip_ep(static_cast<std::uint32_t>(kHistory + 1)), true);
  observer.evaluate(30);
  EXPECT_EQ(observer.unverifiable_checks(), 2u);
  // Position 2 is the oldest retained: switch 1 verifies there.
  fleet.deliver(1, vip_ep(), dip_ep(2), true, 2, 40);
  const std::uint64_t before = observer.unverifiable_checks();
  observer.evaluate(40);
  EXPECT_EQ(observer.effective_watermark(1), 2u);
  EXPECT_EQ(observer.unverifiable_checks(), before + 1) << "switch 0 only";
  EXPECT_EQ(observer.divergences(), 0u);
}

TEST(FleetObserver, JournalAppendThatSkipsAPositionAborts) {
  // History is indexed by position, so a skipped position would leave a
  // stale slot that reads as the desired digest there.
  ObservedFleet fleet(1);
  fleet.config(1, 10, vip_ep(), {});
  EXPECT_DEATH(fleet.append(3, 20, vip_ep(), dip_ep(1), true),
               "journal positions are dense");
}

TEST(FleetObserver, BoundMetricsAndJsonAgreeWithTheGetters) {
  // The bound callbacks and to_json() read the same fold as the getters.
  constexpr std::size_t kSwitches = 2;
  ObservedFleet fleet(kSwitches);
  FleetObserver& observer = fleet.observer;
  MetricsRegistry registry;
  observer.bind_metrics(registry);
  const auto dips = make_dips(4);
  fleet.config(1, 10, vip_ep(), dips);
  for (std::size_t sw = 0; sw < kSwitches; ++sw) {
    fleet.provision(sw, vip_ep(), dips, 1, 10);
  }
  // Every position removes or re-adds one DIP. Switch 0 applies them all;
  // switch 1 stops at kStalled, so it lags.
  constexpr std::uint64_t kHead = 3 * FleetObserver::kSelfcheckEvery;
  constexpr std::uint64_t kStalled = 100;
  for (std::uint64_t pos = 2; pos <= kHead; ++pos) {
    const net::Endpoint& dip = dips[(pos / 2) % dips.size()];
    const bool add = pos % 2 != 0;
    const sim::Time now = static_cast<sim::Time>(pos) * 10;
    fleet.append(pos, now, vip_ep(), dip, add);
    fleet.deliver(0, vip_ep(), dip, add, pos, now);
    if (pos <= kStalled) fleet.deliver(1, vip_ep(), dip, add, pos, now);
  }
  // Switch 1 drifts while stalled: one silent divergence.
  fleet.corrupt(1, vip_ep(), dip_ep(99), true, kHead * 10);

  observer.evaluate(kHead * 10);
  EXPECT_TRUE(observer.verify_digests());
  EXPECT_EQ(observer.divergences(), 1u);
  EXPECT_GT(observer.selfchecks(), 1u);
  EXPECT_EQ(observer.lag_positions(0), 0u);
  EXPECT_EQ(observer.lag_positions(1), kHead - kStalled);
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("silkroad_fleet_digest_selfchecks_total"),
            static_cast<double>(observer.selfchecks()));
  EXPECT_EQ(snap.value_of("silkroad_fleet_divergences_total"),
            static_cast<double>(observer.divergences()));
  EXPECT_EQ(snap.value_of("silkroad_fleet_journal_lag_slo_ok"),
            observer.slo_ok() ? 1.0 : 0.0);
  const std::string json = observer.to_json();
  const auto has = [&json](const std::string& field, std::uint64_t value,
                           std::size_t from = 0) {
    return json.find("\"" + field + "\":" + std::to_string(value) + ",",
                     from) != std::string::npos;
  };
  EXPECT_TRUE(has("journal_head", observer.head()));
  EXPECT_TRUE(has("selfchecks", observer.selfchecks()));
  EXPECT_TRUE(has("divergences", observer.divergences()));
  for (std::size_t sw = 0; sw < kSwitches; ++sw) {
    const std::string labels = "switch=\"" + std::to_string(sw) + "\"";
    EXPECT_EQ(snap.value_of("silkroad_fleet_switch_lag_positions", labels),
              static_cast<double>(observer.lag_positions(sw)))
        << "switch " << sw;
    const std::size_t row = json.find("{\"index\":" + std::to_string(sw));
    ASSERT_NE(row, std::string::npos) << "switch " << sw;
    EXPECT_TRUE(has("lag_positions", observer.lag_positions(sw), row))
        << "switch " << sw;
  }
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
  // It names no flow, so its timeline carries the diverged switch's ring.
  EXPECT_TRUE(std::any_of(
      report.timeline.begin(), report.timeline.end(),
      [](const obs::ForensicsReport::Entry& e) { return e.source == "ring"; }));

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

TEST(FleetConvergence, EveryResyncSessionLeavesOneRecord) {
  // The controller feeds one on_resync_begin per session. Traced, each
  // session carries its span id; untraced, every id is 0, and still each
  // session leaves exactly one record with its rung.
  for (const bool traced : {true, false}) {
    sim::Simulator sim;
    deploy::SilkRoadFleet fleet(sim, small_config(), 3);
    fleet.spans().set_enabled(traced);
    const auto dips = make_dips(4);
    fleet.add_vip(vip_ep(), dips);
    sim.run();
    for (int round = 0; round < 2; ++round) {
      fleet.fail_switch(1);
      fleet.request_update(update_of(vip_ep(), dips[0], round != 0));
      sim.run();
      fleet.restore_switch(1);
      sim.run();
    }
    FleetObserver& observer = *fleet.observer();
    observer.evaluate(sim.now());
    EXPECT_EQ(observer.state(1), FleetObserver::SwitchState::kLive);
    EXPECT_EQ(observer.divergences(), 0u);
    // Switch 1's row of /fleet.json, up to the next row.
    const std::string json = observer.to_json();
    const std::size_t row = json.find("{\"index\":1,");
    ASSERT_NE(row, std::string::npos);
    const std::string cell = json.substr(row, json.find("\n", row) - row);
    const auto count = [&cell](const std::string& needle) {
      std::size_t n = 0;
      for (std::size_t at = cell.find(needle); at != std::string::npos;
           at = cell.find(needle, at + 1)) {
        ++n;
      }
      return n;
    };
    EXPECT_EQ(count("\"session_id\":"), 2u) << "traced " << traced;
    EXPECT_EQ(count("\"kind\":\"delta\""), 2u) << "traced " << traced;
    EXPECT_EQ(count("\"session_id\":0,"), traced ? 0u : 2u)
        << "traced " << traced;
  }
}

TEST(FleetConvergence, UpdateForUnknownVipIsDroppedBeforeTheJournal) {
  // Every switch abandons an update for a VIP it was never given, so the
  // controller must not journal one either: folded into the desired digest
  // it reads as a silent divergence on every switch of a converged fleet.
  sim::Simulator sim;
  deploy::SilkRoadFleet fleet(sim, small_config(), 3);
  fleet.add_vip(vip_ep(1), make_dips(4));
  sim.run();
  const std::uint64_t head = fleet.journal_head();
  const std::size_t spans = fleet.spans().size();
  fleet.request_update(update_of(vip_ep(2), dip_ep(7), true));
  EXPECT_EQ(fleet.journal_head(), head);
  EXPECT_EQ(fleet.spans().size(), spans);
  EXPECT_EQ(fleet.ctrl_outstanding(), 0u);
  fleet.request_update(update_of(vip_ep(1), dip_ep(8), true));
  sim.run();
  EXPECT_TRUE(fleet.converged());
  FleetObserver& observer = *fleet.observer();
  observer.evaluate(sim.now());
  for (std::size_t sw = 0; sw < fleet.size(); ++sw) {
    EXPECT_EQ(observer.lag_positions(sw), 0u) << "switch " << sw;
  }
  EXPECT_EQ(observer.divergences(), 0u);
  EXPECT_TRUE(observer.verify_digests());
}

TEST(FleetConvergence, UpdateStormSelfChecksAllPass) {
  // bench/fleet_obs_overhead's geometry over 50 batches: 3 switches, 2 VIPs
  // x 16 DIPs, paired remove/add updates. The round-robin self-checks run
  // inside the fleet's feeds; they pass only if the fleet changes its state
  // (the Source) before it feeds each change.
  sim::Simulator sim;
  fault::ControlChannel::Config channel;
  channel.base_delay = 100 * sim::kMicrosecond;
  channel.jitter = 50 * sim::kMicrosecond;
  channel.seed = 0x0B57ULL;
  deploy::SilkRoadFleet fleet(sim, small_config(), 3, 0xFEE7ULL, channel);
  constexpr std::uint32_t kDipsPerVip = 16;
  const auto dip_of = [](std::uint32_t v, std::uint32_t i) {
    return dip_ep(v * 256 + i);
  };
  for (std::uint32_t v = 0; v < 2; ++v) {
    std::vector<net::Endpoint> dips;
    for (std::uint32_t i = 0; i < kDipsPerVip; ++i) {
      dips.push_back(dip_of(v, i));
    }
    fleet.add_vip(vip_ep(1 + v), dips);
  }
  sim.run();
  std::mt19937_64 rng(0x51172D17ULL);
  for (int batch = 0; batch < 50; ++batch) {
    for (int i = 0; i < 50; ++i) {
      const auto v = static_cast<std::uint32_t>(rng() % 2);
      const net::Endpoint dip =
          dip_of(v, static_cast<std::uint32_t>(rng() % kDipsPerVip));
      fleet.request_update(update_of(vip_ep(1 + v), dip, i % 2 != 0));
    }
    sim.run();
  }
  ASSERT_TRUE(fleet.converged());
  FleetObserver& observer = *fleet.observer();
  observer.evaluate(sim.now());
  EXPECT_GE(observer.selfchecks(), 8u);
  EXPECT_EQ(observer.selfcheck_failures(), 0u);
  EXPECT_EQ(observer.divergences(), 0u);
  EXPECT_TRUE(observer.verify_digests());
}

TEST(FleetConvergence, ScrapesEveryRouteWhileTheFleetRuns) {
  // Live scraping (run under TSan in CI): a second thread GETs every route
  // in a loop while this thread runs a lossy fleet through update rounds, a
  // crash and a restore, and publishes after each round. Only publish()
  // reads the model, on this thread; a race here means something else did.
  sim::Simulator sim;
  fault::ControlChannel::Config channel;
  channel.base_delay = 100 * sim::kMicrosecond;
  channel.drop_probability = 0.05;
  deploy::SilkRoadFleet fleet(sim, small_config(), 3, 0xFEE7ULL, channel);
  const auto dips = make_dips(6);
  fleet.add_vip(vip_ep(), dips);
  sim.run();
  FleetObserver& observer = *fleet.observer();
  TimeSeriesRecorder recorder([&fleet] { return fleet.metrics_snapshot(); });
  const auto run_round = [&](int round) {
    const net::Endpoint& dip = dips[static_cast<std::size_t>(round) % 6];
    fleet.request_update(update_of(vip_ep(), dip, false));
    fleet.request_update(update_of(vip_ep(), dip, true));
    if (round == 10) fleet.fail_switch(2);
    if (round == 20) fleet.restore_switch(2);
    sim.run();
    recorder.sample(sim.now());
  };
  // Round 0 mints span 1, so every route below exists from start() on.
  run_round(0);

  ScrapeServer server;
  server.handle("/metrics", "text/plain; version=0.0.4",
                [&fleet] { return to_prometheus(fleet.metrics_snapshot()); });
  server.handle("/timeseries.json", "application/json",
                [&recorder] { return recorder.to_json(); });
  server.handle("/tables", "application/json",
                [&fleet] { return fleet.switch_at(0).tables_json(); });
  server.handle("/fleet", "text/plain",
                [&observer] { return observer.to_text(); });
  server.handle("/fleet.json", "application/json",
                [&observer] { return observer.to_json(); });
  server.handle("/spans", "application/json",
                [&fleet] { return fleet.spans().to_json(); });
  server.handle("/spans/trace.json", "application/json", [&fleet] {
    return to_chrome_trace(span_tracks(fleet.spans()));
  });
  server.handle_prefix("/update", "application/json", [&fleet] {
    std::vector<std::pair<std::string, std::string>> bodies;
    for (const UpdateSpan* span : fleet.spans().all()) {
      bodies.emplace_back(std::to_string(span->id),
                          fleet.spans().span_json(span->id));
    }
    return bodies;
  });
  ASSERT_TRUE(server.start());

  const std::vector<std::string> routes = {
      "/metrics", "/timeseries.json", "/tables", "/fleet", "/fleet.json",
      "/spans", "/spans/trace.json", "/update/1", "/healthz"};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sweeps{0};
  std::atomic<std::uint64_t> failed{0};
  std::thread scraper([&] {
    while (!stop.load()) {
      for (const std::string& route : routes) {
        if (http_get(server.port(), route).find("200 OK") ==
            std::string::npos) {
          failed.fetch_add(1);
        }
      }
      sweeps.fetch_add(1);
    }
  });
  for (int round = 1; round < 40; ++round) {
    run_round(round);
    server.publish();
  }
  fleet.inject_mirror_corruption(1, vip_ep(), dips[0], /*add=*/false);
  observer.evaluate(sim.now());
  server.publish();
  // At least one whole sweep runs after the last publish().
  const std::uint64_t seen = sweeps.load();
  while (sweeps.load() < seen + 2) std::this_thread::yield();
  stop.store(true);
  scraper.join();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_NE(http_get(server.port(), "/fleet.json").find("\"divergences\":1"),
            std::string::npos);
  server.stop();
  EXPECT_EQ(observer.divergences(), 1u);
  EXPECT_TRUE(observer.verify_digests());
  EXPECT_EQ(observer.selfcheck_failures(), 0u);
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
