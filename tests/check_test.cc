// The invariant auditor must be *proven* able to fail: each test seeds one
// class of state corruption through check::TestingHooks and asserts the
// auditor reports exactly that violation family — plus death tests proving
// SR_CHECK survives release builds and self_check() aborts on violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/invariant_auditor.h"
#include "check/sr_check.h"
#include "core/silkroad_switch.h"
#include "sim/event_queue.h"

namespace silkroad {
namespace {

struct DeathStyleGuard {
  DeathStyleGuard() { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }
};
const DeathStyleGuard death_style_guard;

net::Endpoint vip_ep() { return {net::IpAddress::v4(0x14000001), 80}; }

std::vector<net::Endpoint> make_dips(int n) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back(
        {net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(i)), 20});
  }
  return dips;
}

net::FiveTuple make_flow(std::uint32_t client) {
  return net::FiveTuple{{net::IpAddress::v4(0x0B000000 + client), 1234},
                        vip_ep(),
                        net::Protocol::kTcp};
}

class CheckTest : public ::testing::Test {
 protected:
  CheckTest() : sw_(sim_, config()) {
    sw_.add_vip(vip_ep(), make_dips(8));
  }

  static core::SilkRoadSwitch::Config config() {
    core::SilkRoadSwitch::Config c;
    c.conn_table = core::SilkRoadSwitch::conn_table_for(1'000);
    c.learning = {.capacity = 64, .timeout = sim::kMillisecond};
    return c;
  }

  /// Establishes `n` connections and drains the event queue so their
  /// ConnTable entries are installed.
  void establish(std::uint32_t n) {
    for (std::uint32_t client = 0; client < n; ++client) {
      net::Packet syn;
      syn.flow = make_flow(client);
      syn.syn = true;
      syn.size_bytes = 64;
      sw_.process_packet(syn);
    }
    sim_.run();
  }

  std::vector<std::string> violated_invariants() {
    const check::InvariantAuditor auditor(sw_);
    std::vector<std::string> families;
    for (const auto& violation : auditor.audit()) {
      families.push_back(violation.invariant);
    }
    return families;
  }

  sim::Simulator sim_;
  core::SilkRoadSwitch sw_;
};

TEST_F(CheckTest, HealthySwitchAuditsClean) {
  establish(50);
  EXPECT_GT(sw_.conn_table().size(), 0u);
  EXPECT_TRUE(violated_invariants().empty());
  sw_.self_check();  // must not abort
}

TEST_F(CheckTest, DetectsRefcountSkew) {
  establish(20);
  check::TestingHooks::skew_refcount(sw_, vip_ep());
  const auto families = violated_invariants();
  ASSERT_FALSE(families.empty());
  EXPECT_TRUE(std::count(families.begin(), families.end(), "refcount-match"));
}

TEST_F(CheckTest, DetectsStaleVersionReference) {
  establish(20);
  // A fresh switch has versions 1..63 in the recycling ring; stamping an
  // entry with one models the §4.4 hazard of a recycled version still being
  // referenced by a live connection.
  const auto* mgr = sw_.version_manager(vip_ep());
  ASSERT_NE(mgr, nullptr);
  const auto free = mgr->free_versions();
  ASSERT_FALSE(free.empty());
  check::TestingHooks::inject_stale_conn_entry(sw_, make_flow(9'000),
                                               free.front());
  const auto families = violated_invariants();
  EXPECT_TRUE(
      std::count(families.begin(), families.end(), "version-recycling"));
  EXPECT_TRUE(
      std::count(families.begin(), families.end(), "dip-pool-coverage"));
}

TEST_F(CheckTest, DetectsPhantomSramAccounting) {
  establish(20);
  check::TestingHooks::corrupt_slot_accounting(sw_);
  const auto families = violated_invariants();
  ASSERT_FALSE(families.empty());
  EXPECT_TRUE(std::count(families.begin(), families.end(), "sram-accounting"));
}

TEST_F(CheckTest, DetectsPhantomOccupancyInEmptyTable) {
  // The other direction: a slot marked used that the shadow index ignores.
  check::TestingHooks::corrupt_slot_accounting(sw_);
  const auto families = violated_invariants();
  EXPECT_TRUE(std::count(families.begin(), families.end(), "sram-accounting"));
}

TEST_F(CheckTest, DetectsTransitStateOutsideUpdateWindow) {
  establish(5);
  ASSERT_FALSE(sw_.update_in_flight());
  check::TestingHooks::pollute_transit(sw_, make_flow(77));
  const auto families = violated_invariants();
  ASSERT_FALSE(families.empty());
  EXPECT_TRUE(std::count(families.begin(), families.end(), "transit-window"));
}

/// Violations of one family whose detail contains `text`.
std::size_t count_reports(const core::SilkRoadSwitch& sw, const char* family,
                          const char* text) {
  const check::InvariantAuditor auditor(sw);
  std::size_t n = 0;
  for (const auto& violation : auditor.audit()) {
    if (violation.invariant == family &&
        violation.detail.find(text) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

TEST_F(CheckTest, DetectsFlowTrackedUnderTwoVersions) {
  establish(10);
  check::TestingHooks::track_under_second_version(sw_, make_flow(3));
  EXPECT_EQ(count_reports(sw_, "refcount-match", "tracked under two versions"),
            1u);
}

TEST_F(CheckTest, DetectsTrackedFlowMissingFromTheConnTable) {
  // The record still says installed: only the ConnTable's exact index shows
  // the flow is gone.
  establish(10);
  check::TestingHooks::drop_conn_entry(sw_, make_flow(4));
  EXPECT_EQ(count_reports(sw_, "refcount-match",
                          "is neither pending, installed, nor degraded"),
            1u);
}

TEST_F(CheckTest, DetectsGateMembersWhileIdle) {
  establish(10);
  check::TestingHooks::flag_unresolvable(sw_, make_flow(5),
                                         /*transit_member=*/true);
  EXPECT_EQ(count_reports(sw_, "transit-window",
                          "transit member set non-empty while idle"),
            1u);
  check::TestingHooks::flag_unresolvable(sw_, make_flow(6),
                                         /*transit_member=*/false);
  EXPECT_EQ(count_reports(sw_, "transit-window",
                          "pre-update wait set non-empty while idle"),
            1u);
}

TEST_F(CheckTest, DetectsGateMembersWithoutPendingInsertion) {
  // Inside an update window each flagged flow is named. A flow still
  // pending at t_req holds the window in Step1.
  establish(10);
  net::Packet syn;
  syn.flow = make_flow(500);
  syn.syn = true;
  sw_.process_packet(syn);
  workload::DipUpdate update;
  update.at = sim_.now();
  update.vip = vip_ep();
  update.dip = {net::IpAddress::v4(0x0A0000FF), 20};
  update.action = workload::UpdateAction::kAddDip;
  sw_.request_update(update);
  sim_.run_until(sim_.now());
  ASSERT_TRUE(sw_.update_in_flight());
  check::TestingHooks::flag_unresolvable(sw_, make_flow(5),
                                         /*transit_member=*/true);
  check::TestingHooks::flag_unresolvable(sw_, make_flow(6),
                                         /*transit_member=*/false);
  EXPECT_EQ(count_reports(sw_, "transit-window", "has no pending insertion"),
            2u);
}

TEST_F(CheckTest, DetectsPendingFlowOnDeadVersion) {
  net::Packet syn;
  syn.flow = make_flow(7);
  syn.syn = true;
  sw_.process_packet(syn);  // pending: the learning filter has not flushed
  const auto free = sw_.version_manager(vip_ep())->free_versions();
  ASSERT_FALSE(free.empty());
  check::TestingHooks::repin_pending(sw_, make_flow(7), free.front());
  EXPECT_EQ(count_reports(sw_, "version-liveness", "which has no live pool"),
            1u);
}

TEST_F(CheckTest, AuditStaysCleanAcrossAnUpdate) {
  establish(30);
  workload::DipUpdate update;
  update.at = sim_.now();
  update.vip = vip_ep();
  update.dip = {net::IpAddress::v4(0x0A0000FF), 20};
  update.action = workload::UpdateAction::kAddDip;
  sw_.request_update(update);
  EXPECT_TRUE(violated_invariants().empty());  // audit at t_req
  sim_.run();
  EXPECT_TRUE(violated_invariants().empty());  // audit after completion
  EXPECT_EQ(sw_.stats().updates_completed, 1u);
}

TEST_F(CheckTest, SelfCheckDumpsTheVipTailWithItsUpdateSteps) {
  establish(20);
  workload::DipUpdate update;
  update.at = sim_.now();
  update.vip = vip_ep();
  update.dip = {net::IpAddress::v4(0x0A0000FF), 20};
  update.action = workload::UpdateAction::kAddDip;
  sw_.request_update(update);
  sim_.run();
  ASSERT_EQ(sw_.stats().updates_completed, 1u);
  check::TestingHooks::skew_refcount(sw_, vip_ep());
  // The stderr tail names the violating VIP and shows the update's flip: the
  // causal context printed when an invariant fails.
  EXPECT_DEATH(sw_.self_check(), "trace tail for vip 20\\.0\\.0\\.1:80.*flip");
}

// ---------------------------------------------------------------------------
// Golden audit: a 3-VIP switch, each corruption alone and then all at once.
// Every violation is compared in full (family, detail, VIP, version) and in
// order, against lists captured from the reference implementation.
// ---------------------------------------------------------------------------

net::Endpoint golden_vip(std::size_t v) {
  switch (v) {
    case 0:
      return {net::IpAddress::v4(0x14000001), 80};
    case 1:
      return {net::IpAddress::v4(0x14000002), 443};
    default:
      return {net::IpAddress::v6(0x20010DB800000000ULL, 0x10), 80};
  }
}

/// Client `c` of VIP `v`; the v6 VIP gets v6 clients.
net::FiveTuple golden_flow(std::size_t v, std::uint32_t c) {
  const net::IpAddress src =
      v == 2 ? net::IpAddress::v6(0x20010DB8000000FFULL, c)
             : net::IpAddress::v4(0x0B000000 +
                                  (static_cast<std::uint32_t>(v) << 8) + c);
  return {{src, 1234}, golden_vip(v), net::Protocol::kTcp};
}

/// One violation as "family | detail | vip | version" ("-": no version).
std::string golden_line(const check::Violation& v) {
  return v.invariant + " | " + v.detail + " | " + v.vip + " | " +
         (v.version ? std::to_string(*v.version) : "-");
}

class GoldenAuditTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kInstalled = 6;
  static constexpr std::uint32_t kPending = 2;

  /// Every VIP gets kInstalled installed flows (clients 0..5) and kPending
  /// pending ones (clients 100, 101). VIP 1 also completes one update, so it
  /// holds two live versions: clients 0..5 stay on version 0, clients
  /// 50..52 land on version 1.
  GoldenAuditTest() : sw_(sim_, config()) {
    for (std::size_t v = 0; v < 3; ++v) {
      std::vector<net::Endpoint> dips;
      for (std::uint32_t i = 0; i < 6; ++i) {
        const auto base = static_cast<std::uint32_t>(0x0A000000 + (v << 8));
        dips.push_back({net::IpAddress::v4(base + i), 20});
      }
      sw_.add_vip(golden_vip(v), dips);
      for (std::uint32_t c = 0; c < kInstalled; ++c) syn(golden_flow(v, c));
    }
    sim_.run();
    workload::DipUpdate update;
    update.at = sim_.now();
    update.vip = golden_vip(1);
    update.dip = {net::IpAddress::v4(0x0A000100 + 5), 20};
    update.action = workload::UpdateAction::kRemoveDip;
    sw_.request_update(update);
    sim_.run();
    for (std::uint32_t c = 50; c < 53; ++c) syn(golden_flow(1, c));
    sim_.run();
    for (std::size_t v = 0; v < 3; ++v) {
      for (std::uint32_t c = 100; c < 100 + kPending; ++c) {
        syn(golden_flow(v, c));
      }
    }
  }

  static core::SilkRoadSwitch::Config config() {
    core::SilkRoadSwitch::Config c;
    c.conn_table = core::SilkRoadSwitch::conn_table_for(1'000);
    c.learning = {.capacity = 64, .timeout = sim::kMillisecond};
    return c;
  }

  void syn(const net::FiveTuple& flow) {
    net::Packet packet;
    packet.flow = flow;
    packet.syn = true;
    packet.size_bytes = 64;
    sw_.process_packet(packet);
  }

  std::uint32_t first_free(std::size_t v) const {
    const auto free = sw_.version_manager(golden_vip(v))->free_versions();
    SR_CHECK(!free.empty());
    return free.front();
  }

  std::vector<std::string> audit() const {
    const check::InvariantAuditor auditor(sw_);
    std::vector<std::string> lines;
    for (const auto& violation : auditor.audit()) {
      lines.push_back(golden_line(violation));
    }
    return lines;
  }

  // The corruptions, one per TestingHooks entry point.
  void skew() { check::TestingHooks::skew_refcount(sw_, golden_vip(1)); }
  void stale_entry() {
    check::TestingHooks::inject_stale_conn_entry(sw_, golden_flow(2, 900),
                                                 first_free(2));
  }
  void unknown_vip_entry() {
    net::FiveTuple flow = golden_flow(0, 901);
    flow.dst = {net::IpAddress::v4(0x14000063), 80};
    check::TestingHooks::inject_stale_conn_entry(sw_, flow, 0);
  }
  void slot_accounting() { check::TestingHooks::corrupt_slot_accounting(sw_); }
  void transit() {
    check::TestingHooks::pollute_transit(sw_, golden_flow(0, 902));
  }
  void second_version() {
    // Version 1 of VIP 0 is free: the list it lands in is a dead version's.
    check::TestingHooks::track_under_second_version(sw_, golden_flow(0, 3));
  }
  void drop_entry() {
    check::TestingHooks::drop_conn_entry(sw_, golden_flow(2, 4));
  }
  void unresolvable() {
    check::TestingHooks::flag_unresolvable(sw_, golden_flow(1, 1), true);
    check::TestingHooks::flag_unresolvable(sw_, golden_flow(0, 2), false);
  }
  void repin() {
    check::TestingHooks::repin_pending(sw_, golden_flow(1, 101), first_free(1));
  }

  sim::Simulator sim_;
  core::SilkRoadSwitch sw_;
};

TEST_F(GoldenAuditTest, HealthySwitchIsClean) {
  EXPECT_EQ(sw_.conn_table().size(), 3 * kInstalled + 3);
  EXPECT_EQ(sw_.version_manager(golden_vip(1))->live_versions(),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(audit(), std::vector<std::string>{});
}

TEST_F(GoldenAuditTest, SkewedRefcount) {
  skew();
  EXPECT_EQ(audit(), (std::vector<std::string>{
      "refcount-match | vip 20.0.0.2:443 version 1 refcount 6 != 5 tracked "
      "connections | 20.0.0.2:443 | 1",
  }));
}

TEST_F(GoldenAuditTest, StaleConnEntry) {
  stale_entry();
  EXPECT_EQ(audit(), (std::vector<std::string>{
      "version-recycling | recycled version 1 of vip [2001:db8::10]:80 is "
      "still referenced | [2001:db8::10]:80 | 1",
      "dip-pool-coverage | ConnTable entry "
      "[2001:db8:0:ff::384]:1234->[2001:db8::10]:80 resolves to version 1 "
      "with no DIPPoolTable pool | [2001:db8::10]:80 | 1",
  }));
}

TEST_F(GoldenAuditTest, ConnEntryOfUnknownVip) {
  unknown_vip_entry();
  EXPECT_EQ(audit(), (std::vector<std::string>{
      "dip-pool-coverage | ConnTable entry 11.0.3.133:1234->20.0.0.99:80 "
      "targets unknown VIP |  | -",
  }));
}

TEST_F(GoldenAuditTest, SlotAccounting) {
  slot_accounting();
  EXPECT_EQ(audit(), (std::vector<std::string>{
      "sram-accounting | phantom SRAM occupancy: 20 used slots vs 21 "
      "indexed entries |  | -",
  }));
}

TEST_F(GoldenAuditTest, TransitOutsideAnUpdate) {
  transit();
  EXPECT_EQ(audit(), (std::vector<std::string>{
      "transit-window | TransitTable holds state outside an update window "
      "(1 inserts) |  | -",
  }));
}

TEST_F(GoldenAuditTest, ListUnderADeadVersion) {
  second_version();
  EXPECT_EQ(audit(), (std::vector<std::string>{
      "refcount-match | vip 20.0.0.1:80 tracks 1 connections under dead "
      "version 1 | 20.0.0.1:80 | 1",
      "refcount-match | flow 11.0.0.3:1234->20.0.0.1:80 tracked under two "
      "versions of vip 20.0.0.1:80 | 20.0.0.1:80 | -",
      "version-recycling | recycled version 1 of vip 20.0.0.1:80 is still "
      "referenced | 20.0.0.1:80 | 1",
  }));
}

TEST_F(GoldenAuditTest, DroppedConnEntry) {
  drop_entry();
  EXPECT_EQ(audit(), (std::vector<std::string>{
      "refcount-match | tracked flow "
      "[2001:db8:0:ff::4]:1234->[2001:db8::10]:80 (version 0) is neither "
      "pending, installed, nor degraded-pinned | [2001:db8::10]:80 | 0",
  }));
}

TEST_F(GoldenAuditTest, GateMembersWhileIdle) {
  unresolvable();
  EXPECT_EQ(audit(), (std::vector<std::string>{
      "transit-window | transit member set non-empty while idle |  | -",
      "transit-window | pre-update wait set non-empty while idle |  | -",
  }));
}

TEST_F(GoldenAuditTest, RepinnedPendingFlow) {
  repin();
  EXPECT_EQ(audit(), (std::vector<std::string>{
      "version-liveness | pending flow 11.0.1.101:1234->20.0.0.2:443 holds "
      "version 2 which has no live pool | 20.0.0.2:443 | 2",
      "refcount-match | flow 11.0.1.101:1234->20.0.0.2:443 listed under "
      "version 1 at 4 but its record says 2 at 4 | 20.0.0.2:443 | 1",
      "version-recycling | recycled version 2 of vip 20.0.0.2:443 is still "
      "referenced | 20.0.0.2:443 | 2",
  }));
}

TEST_F(GoldenAuditTest, GateMembersDuringAnUpdate) {
  // VIP 0's pending flows hold the update in Step1.
  workload::DipUpdate update;
  update.at = sim_.now();
  update.vip = golden_vip(0);
  update.dip = {net::IpAddress::v4(0x0A0000FF), 20};
  update.action = workload::UpdateAction::kAddDip;
  sw_.request_update(update);
  sim_.run_until(sim_.now());
  ASSERT_TRUE(sw_.update_in_flight());
  unresolvable();
  EXPECT_EQ(audit(), (std::vector<std::string>{
      "transit-window | pre-update flow 11.0.0.2:1234->20.0.0.1:80 has no "
      "pending insertion and cannot resolve | 20.0.0.1:80 | -",
      "transit-window | transit member 11.0.1.1:1234->20.0.0.2:443 has no "
      "pending insertion and cannot resolve | 20.0.0.1:80 | -",
  }));
}

TEST_F(GoldenAuditTest, EveryCorruptionAtOnce) {
  skew();
  stale_entry();
  unknown_vip_entry();
  transit();
  second_version();
  drop_entry();
  unresolvable();
  repin();
  slot_accounting();
  EXPECT_EQ(audit(), (std::vector<std::string>{
      "version-liveness | pending flow 11.0.1.101:1234->20.0.0.2:443 holds "
      "version 2 which has no live pool | 20.0.0.2:443 | 2",
      "refcount-match | tracked flow "
      "[2001:db8:0:ff::4]:1234->[2001:db8::10]:80 (version 0) is neither "
      "pending, installed, nor degraded-pinned | [2001:db8::10]:80 | 0",
      "refcount-match | vip 20.0.0.2:443 version 1 refcount 6 != 5 tracked "
      "connections | 20.0.0.2:443 | 1",
      "refcount-match | flow 11.0.1.101:1234->20.0.0.2:443 listed under "
      "version 1 at 4 but its record says 2 at 4 | 20.0.0.2:443 | 1",
      "refcount-match | vip 20.0.0.1:80 tracks 1 connections under dead "
      "version 1 | 20.0.0.1:80 | 1",
      "refcount-match | flow 11.0.0.3:1234->20.0.0.1:80 tracked under two "
      "versions of vip 20.0.0.1:80 | 20.0.0.1:80 | -",
      "version-recycling | recycled version 1 of vip [2001:db8::10]:80 is "
      "still referenced | [2001:db8::10]:80 | 1",
      "version-recycling | recycled version 2 of vip 20.0.0.2:443 is still "
      "referenced | 20.0.0.2:443 | 2",
      "version-recycling | recycled version 1 of vip 20.0.0.1:80 is still "
      "referenced | 20.0.0.1:80 | 1",
      "transit-window | TransitTable holds state outside an update window "
      "(1 inserts) |  | -",
      "transit-window | transit member set non-empty while idle |  | -",
      "transit-window | pre-update wait set non-empty while idle |  | -",
      "sram-accounting | phantom SRAM occupancy: 21 used slots vs 22 "
      "indexed entries |  | -",
      "dip-pool-coverage | ConnTable entry "
      "[2001:db8:0:ff::384]:1234->[2001:db8::10]:80 resolves to version 1 "
      "with no DIPPoolTable pool | [2001:db8::10]:80 | 1",
      "dip-pool-coverage | ConnTable entry 11.0.3.133:1234->20.0.0.99:80 "
      "targets unknown VIP |  | -",
  }));
}

using CheckDeathTest = CheckTest;

TEST_F(CheckDeathTest, SelfCheckAbortsOnCorruptedSwitch) {
  establish(10);
  check::TestingHooks::skew_refcount(sw_, vip_ep());
  EXPECT_DEATH(sw_.self_check(), "refcount");
}

TEST(SrCheckTest, ChecksSurviveReleaseBuilds) {
  SR_CHECK(true);                       // no-op
  SR_CHECKF(2 + 2 == 4, "arithmetic");  // no-op
  // SR_CHECK must fire in every build type — including RelWithDebInfo, where
  // NDEBUG strips a plain assert().
  EXPECT_DEATH(SR_CHECK(1 == 2), "SR_CHECK failed");
  EXPECT_DEATH(SR_CHECKF(false, "context %d", 42), "context 42");
}

TEST(SrCheckTest, DcheckMatchesBuildType) {
#if defined(NDEBUG) && !defined(SILKROAD_FORCE_DCHECKS)
  SR_DCHECK(false);  // compiled out: must not abort
#else
  EXPECT_DEATH(SR_DCHECK(false), "SR_CHECK failed");
#endif
}

}  // namespace
}  // namespace silkroad
