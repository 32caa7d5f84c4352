#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "check/sr_check.h"
#include "core/version_manager.h"

namespace silkroad::core {
namespace {

net::Endpoint vip_ep() { return {net::IpAddress::v4(0x14000001), 80}; }

std::vector<net::Endpoint> make_dips(int n) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back({net::IpAddress::v4(0x0A000000 +
                                       static_cast<std::uint32_t>(i)),
                    20});
  }
  return dips;
}

net::FiveTuple make_flow(std::uint32_t client) {
  return net::FiveTuple{{net::IpAddress::v4(0x0B000000 + client), 1234},
                        vip_ep(),
                        net::Protocol::kTcp};
}

workload::DipUpdate remove_update(const net::Endpoint& dip) {
  return {0, vip_ep(), dip, workload::UpdateAction::kRemoveDip,
          workload::UpdateCause::kServiceUpgrade};
}

workload::DipUpdate add_update(const net::Endpoint& dip) {
  return {0, vip_ep(), dip, workload::UpdateAction::kAddDip,
          workload::UpdateCause::kServiceUpgrade};
}

VipVersionManager::Config test_config(bool reuse = true, unsigned bits = 6) {
  return {.version_bits = bits, .enable_reuse = reuse};
}

TEST(VipVersionManager, InitialState) {
  VipVersionManager mgr(vip_ep(), make_dips(4), test_config());
  EXPECT_EQ(mgr.current_version(), 0u);
  EXPECT_EQ(mgr.active_versions(), 1u);
  EXPECT_EQ(mgr.version_capacity(), 64u);
  ASSERT_NE(mgr.pool(0), nullptr);
  EXPECT_EQ(mgr.pool(0)->live_count(), 4u);
  EXPECT_EQ(mgr.pool(1), nullptr);
  EXPECT_TRUE(mgr.select(0, make_flow(1)).has_value());
}

TEST(VipVersionManager, RemoveCreatesNewVersion) {
  VipVersionManager mgr(vip_ep(), make_dips(4), test_config());
  const auto staged = mgr.stage_update(remove_update(make_dips(4)[1]));
  ASSERT_TRUE(staged.has_value());
  EXPECT_FALSE(staged->reused);
  EXPECT_NE(staged->target_version, 0u);
  // Not yet committed: current still 0.
  EXPECT_EQ(mgr.current_version(), 0u);
  mgr.commit(staged->target_version);
  EXPECT_EQ(mgr.current_version(), staged->target_version);
  // Old version had no refs: it is destroyed and recycled.
  EXPECT_EQ(mgr.active_versions(), 1u);
  EXPECT_EQ(mgr.pool(0), nullptr);
  EXPECT_EQ(mgr.pool(staged->target_version)->live_count(), 3u);
}

TEST(VipVersionManager, ReferencedVersionSurvivesCommit) {
  VipVersionManager mgr(vip_ep(), make_dips(4), test_config());
  mgr.acquire(0);
  const auto staged = mgr.stage_update(remove_update(make_dips(4)[0]));
  mgr.commit(staged->target_version);
  EXPECT_EQ(mgr.active_versions(), 2u);
  ASSERT_NE(mgr.pool(0), nullptr);
  // Releasing the last ref destroys the non-current version.
  mgr.release(0);
  EXPECT_EQ(mgr.active_versions(), 1u);
  EXPECT_EQ(mgr.pool(0), nullptr);
}

TEST(VipVersionManager, CurrentVersionNeverDestroyedByRelease) {
  VipVersionManager mgr(vip_ep(), make_dips(2), test_config());
  mgr.acquire(0);
  mgr.release(0);
  EXPECT_NE(mgr.pool(0), nullptr);
  EXPECT_EQ(mgr.current_version(), 0u);
}

TEST(VipVersionManager, AddReusesVersionHoldingDownDip) {
  // Paper Fig. 7: V1={d1,d2}; d2 fails -> V2 created without it; adding d4
  // reuses V1 by substituting d2 -> d4 in place, and V1 becomes newest.
  VipVersionManager mgr(vip_ep(), make_dips(4), test_config());
  mgr.acquire(0);  // live connections pin version 0 (which still holds d2)
  const auto removed = mgr.stage_update(remove_update(make_dips(4)[2]));
  mgr.commit(removed->target_version);
  mgr.acquire(removed->target_version);

  const net::Endpoint fresh{net::IpAddress::v4(0x0A0000CC), 20};
  const auto added = mgr.stage_update(add_update(fresh));
  ASSERT_TRUE(added.has_value());
  EXPECT_TRUE(added->reused);
  EXPECT_EQ(added->target_version, 0u);  // the version holding the down DIP
  EXPECT_TRUE(mgr.pool(0)->contains_live(fresh));
  EXPECT_FALSE(mgr.pool(0)->contains_live(make_dips(4)[2]));
  EXPECT_EQ(mgr.versions_reused(), 1u);
  // Substitution must not disturb any other slot.
  EXPECT_EQ(mgr.pool(0)->slot_count(), 4u);
}

TEST(VipVersionManager, ReuseRequiresMatchingMembership) {
  // Two DIPs down at once: reusing a version that still contains the *other*
  // down DIP would hand new connections a dead server — it must be skipped.
  VipVersionManager mgr(vip_ep(), make_dips(4), test_config());
  mgr.acquire(0);
  const auto r1 = mgr.stage_update(remove_update(make_dips(4)[1]));
  mgr.commit(r1->target_version);
  mgr.acquire(r1->target_version);
  const auto r2 = mgr.stage_update(remove_update(make_dips(4)[2]));
  mgr.commit(r2->target_version);
  mgr.acquire(r2->target_version);
  // Re-add dip 1: version 0 contains BOTH down DIPs -> not reusable; the
  // r1-version lacks dip 1 entirely -> not reusable either... except r1's
  // pool = {0,2,3}: contains down dip 2, and {0,3}+... check membership:
  // desired current = {0,3}; r1 minus dip2 = {0,3} == desired -> reusable!
  const auto added = mgr.stage_update(add_update(make_dips(4)[1]));
  ASSERT_TRUE(added.has_value());
  EXPECT_TRUE(added->reused);
  EXPECT_EQ(added->target_version, r1->target_version);
  const auto members = mgr.pool(added->target_version)->members();
  // Must not contain the still-down dip 2.
  EXPECT_EQ(std::count(members.begin(), members.end(), make_dips(4)[2]), 0);
  EXPECT_EQ(std::count(members.begin(), members.end(), make_dips(4)[1]), 1);
}

TEST(VipVersionManager, NoReuseAllocatesFreshVersions) {
  VipVersionManager mgr(vip_ep(), make_dips(4), test_config(false));
  const auto removed = mgr.stage_update(remove_update(make_dips(4)[2]));
  mgr.commit(removed->target_version);
  mgr.acquire(removed->target_version);
  const auto added =
      mgr.stage_update(add_update({net::IpAddress::v4(0x0A0000CC), 20}));
  ASSERT_TRUE(added.has_value());
  EXPECT_FALSE(added->reused);
  EXPECT_NE(added->target_version, removed->target_version);
}

// Fig. 15 semantics: connections are long-lived relative to the update
// window, so every committed version stays referenced. Reuse halves (or
// better) the number of concurrently-live versions a rolling reboot needs.
std::size_t rolling_reboot_live_versions(bool reuse, int rounds) {
  VipVersionManager mgr(vip_ep(), make_dips(16),
                        test_config(reuse, /*bits=*/9));
  auto dips = make_dips(16);
  mgr.acquire(mgr.current_version());
  for (int round = 0; round < rounds; ++round) {
    const auto& victim = dips[static_cast<std::size_t>(round) % dips.size()];
    const auto removed = mgr.stage_update(remove_update(victim));
    EXPECT_TRUE(removed.has_value());
    mgr.commit(removed->target_version);
    mgr.acquire(removed->target_version);  // long-lived conns pin it
    const auto added = mgr.stage_update(add_update(victim));
    EXPECT_TRUE(added.has_value());
    mgr.commit(added->target_version);
    mgr.acquire(added->target_version);
  }
  return mgr.active_versions();
}

TEST(VipVersionManager, RollingRebootReuseHalvesLiveVersions) {
  const std::size_t with_reuse = rolling_reboot_live_versions(true, 50);
  const std::size_t without = rolling_reboot_live_versions(false, 50);
  // Without reuse: ~1 initial + 2 per round. With: 1 per round (the add
  // substitutes the dead slot of the remove's version).
  EXPECT_NEAR(static_cast<double>(without), 101.0, 2.0);
  EXPECT_LE(with_reuse, without / 2 + 2);
}

TEST(VipVersionManager, ReuseCounterAdvances) {
  VipVersionManager mgr(vip_ep(), make_dips(8), test_config());
  auto dips = make_dips(8);
  for (int round = 0; round < 10; ++round) {
    // Live connections pin the pre-remove version, keeping its pool (which
    // still holds the removed DIP) available as a reuse target.
    mgr.acquire(mgr.current_version());
    const auto removed = mgr.stage_update(remove_update(dips[0]));
    ASSERT_TRUE(removed.has_value());
    mgr.commit(removed->target_version);
    const auto added = mgr.stage_update(add_update(dips[0]));
    ASSERT_TRUE(added.has_value());
    EXPECT_TRUE(added->reused);
    mgr.commit(added->target_version);
  }
  EXPECT_GE(mgr.versions_reused(), 10u);
}

TEST(VipVersionManager, ExhaustionReportsAndEvictionCandidate) {
  // 2-bit versions: capacity 4. Hold references so versions cannot recycle.
  VipVersionManager mgr(vip_ep(), make_dips(8), test_config(false, 2));
  std::vector<std::uint32_t> held;
  for (int i = 0; i < 3; ++i) {
    const auto staged = mgr.stage_update(
        remove_update(make_dips(8)[static_cast<std::size_t>(i)]));
    ASSERT_TRUE(staged.has_value()) << i;
    mgr.acquire(mgr.current_version());
    held.push_back(mgr.current_version());
    mgr.commit(staged->target_version);
  }
  // All 4 versions now exist (3 held + current). Next update must fail.
  const auto staged = mgr.stage_update(remove_update(make_dips(8)[5]));
  EXPECT_FALSE(staged.has_value());
  EXPECT_EQ(mgr.exhaustions(), 1u);
  const auto victim = mgr.eviction_candidate();
  ASSERT_TRUE(victim.has_value());
  EXPECT_NE(*victim, mgr.current_version());
  mgr.force_destroy(*victim);
  EXPECT_TRUE(mgr.stage_update(remove_update(make_dips(8)[5])).has_value());
}

TEST(VipVersionManager, MarkDipDownTouchesAllVersions) {
  VipVersionManager mgr(vip_ep(), make_dips(4), test_config());
  mgr.acquire(0);
  const auto staged = mgr.stage_update(remove_update(make_dips(4)[0]));
  mgr.commit(staged->target_version);
  mgr.acquire(staged->target_version);
  // DIP 1 is live in both versions; failing it must touch both pools.
  EXPECT_EQ(mgr.mark_dip_down(make_dips(4)[1]), 2u);
  EXPECT_FALSE(mgr.pool(0)->contains_live(make_dips(4)[1]));
}

TEST(VipVersionManager, PoolTableBytesGrowWithVersions) {
  VipVersionManager mgr(vip_ep(), make_dips(10), test_config());
  const auto base = mgr.pool_table_bytes();
  mgr.acquire(0);
  const auto staged = mgr.stage_update(remove_update(make_dips(10)[0]));
  mgr.commit(staged->target_version);
  EXPECT_GT(mgr.pool_table_bytes(), base);
}

// --- The version table: one slot per version number ----------------------

/// Stages and commits a removal of DIP `i`, holding one reference on the
/// displaced version so it stays live.
std::uint32_t flip_holding_current(VipVersionManager& mgr, std::size_t i) {
  const auto staged = mgr.stage_update(remove_update(make_dips(16)[i]));
  SR_CHECK(staged.has_value());
  mgr.acquire(mgr.current_version());
  mgr.commit(staged->target_version);
  return staged->target_version;
}

TEST(VipVersionManager, EvictionTieGoesToTheLowestVersionNumber) {
  // 2-bit versions, ring 1, 2, 3. Version 0 is recycled and reallocated
  // last, so the lowest tied number is also the newest.
  VipVersionManager mgr(vip_ep(), make_dips(16), test_config(false, 2));
  EXPECT_EQ(flip_holding_current(mgr, 0), 1u);  // 0 held
  EXPECT_EQ(flip_holding_current(mgr, 1), 2u);  // 1 held
  mgr.release(0);                                // ring: 3, 0
  EXPECT_EQ(mgr.free_versions(), (std::deque<std::uint32_t>{3, 0}));
  EXPECT_EQ(flip_holding_current(mgr, 2), 3u);  // 2 held, current 3
  const auto staged = mgr.stage_update(remove_update(make_dips(16)[3]));
  ASSERT_TRUE(staged.has_value());
  ASSERT_EQ(staged->target_version, 0u);  // staged, not committed
  mgr.acquire(0);
  // Versions 0, 1 and 2 each hold one reference; 3 is current.
  EXPECT_EQ(mgr.live_versions(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(mgr.eviction_candidate(), 0u);
  mgr.acquire(0);
  EXPECT_EQ(mgr.eviction_candidate(), 1u);
  mgr.acquire(1);
  EXPECT_EQ(mgr.eviction_candidate(), 2u);
}

TEST(VipVersionManager, LiveVersionsStayAscendingAfterOutOfOrderReleases) {
  // 3-bit versions: the ring hands back released numbers once 1..7 are
  // used, so allocation order and number order part.
  VipVersionManager mgr(vip_ep(), make_dips(16), test_config(false, 3));
  for (std::size_t i = 0; i < 7; ++i) flip_holding_current(mgr, i);
  EXPECT_EQ(mgr.current_version(), 7u);
  EXPECT_EQ(mgr.active_versions(), 8u);
  EXPECT_TRUE(mgr.free_versions().empty());
  const std::size_t full_bytes = mgr.pool_table_bytes();
  mgr.release(5);
  mgr.release(2);
  mgr.release(6);
  EXPECT_EQ(mgr.live_versions(), (std::vector<std::uint32_t>{0, 1, 3, 4, 7}));
  EXPECT_EQ(mgr.active_versions(), 5u);
  EXPECT_EQ(mgr.pool(5), nullptr);
  EXPECT_LT(mgr.pool_table_bytes(), full_bytes);
  EXPECT_EQ(flip_holding_current(mgr, 7), 5u);
  EXPECT_EQ(flip_holding_current(mgr, 8), 2u);
  EXPECT_EQ(mgr.live_versions(),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 7}));
  EXPECT_EQ(mgr.current_version(), 2u);
  std::size_t bytes = 0;
  for (const std::uint32_t version : mgr.live_versions()) {
    bytes += mgr.pool(version)->wire_bytes();
  }
  EXPECT_EQ(mgr.pool_table_bytes(), bytes);
}

TEST(VipVersionManager, TenBitManagerUsesNumbersAboveSixtyThree) {
  VipVersionManager mgr(vip_ep(), make_dips(16), test_config(false, 10));
  EXPECT_EQ(mgr.version_capacity(), 1024u);
  // Remove and re-add one DIP 50 times: 100 versions, all held.
  const net::Endpoint dip = make_dips(16)[0];
  for (int round = 0; round < 50; ++round) {
    for (const auto& update : {remove_update(dip), add_update(dip)}) {
      const auto staged = mgr.stage_update(update);
      ASSERT_TRUE(staged.has_value());
      mgr.acquire(mgr.current_version());
      mgr.commit(staged->target_version);
    }
  }
  EXPECT_EQ(mgr.current_version(), 100u);
  EXPECT_EQ(mgr.active_versions(), 101u);
  const auto live = mgr.live_versions();
  ASSERT_EQ(live.size(), 101u);
  for (std::uint32_t v = 0; v <= 100; ++v) EXPECT_EQ(live[v], v);
  ASSERT_NE(mgr.pool(99), nullptr);
  EXPECT_EQ(mgr.refcount(99), 1);
  EXPECT_EQ(mgr.pool(101), nullptr);
  EXPECT_EQ(mgr.refcount(101), -1);
  // Recycling a number above 63 puts it back at the ring's end.
  mgr.release(64);
  EXPECT_EQ(mgr.pool(64), nullptr);
  EXPECT_EQ(mgr.free_versions().back(), 64u);
  EXPECT_EQ(mgr.free_versions().size(), 1024u - 100u);
  mgr.force_destroy(99);
  EXPECT_EQ(mgr.free_versions().back(), 99u);
  EXPECT_EQ(mgr.active_versions(), 99u);
  EXPECT_EQ(mgr.eviction_candidate(), 0u);
}

TEST(VipVersionManagerDeathTest, AcquirePastTheTableAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VipVersionManager mgr(vip_ep(), make_dips(4), test_config());
  // The table holds only version 0: these numbers lie past its end.
  EXPECT_DEATH(mgr.acquire(1), "acquire of dead version 1");
  EXPECT_DEATH(mgr.acquire(63), "acquire of dead version 63");
  EXPECT_DEATH(mgr.acquire(4'000'000'000u),
               "acquire of dead version 4000000000");
  EXPECT_EQ(mgr.pool(4'000'000'000u), nullptr);
  EXPECT_EQ(mgr.refcount(4'000'000'000u), -1);
}

}  // namespace
}  // namespace silkroad::core
