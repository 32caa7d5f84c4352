// The invariant auditor must be *proven* able to fail: each test seeds one
// class of state corruption through check::TestingHooks and asserts the
// auditor reports exactly that violation family — plus death tests proving
// SR_CHECK survives release builds and self_check() aborts on violations.
#include <gtest/gtest.h>

#include <algorithm>

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
