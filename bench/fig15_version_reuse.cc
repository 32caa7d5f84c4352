// Figure 15: DIP-pool versions needed per 10-minute window, with and without
// version reuse, as the update rate grows.
//
// The dominant update source is the rolling reboot of a service upgrade
// (§3.1): a batch of DIPs is removed at one instant and each comes back a
// few minutes later. Three mechanisms keep the version count low, all
// modeled here exactly as in the library:
//   * batch coalescing — one version per same-instant removal batch,
//   * version reuse    — a returning DIP substitutes into the version that
//                        still holds its down predecessor (§4.2),
//   * recycling        — versions whose connections have drained return
//                        their number to the ring buffer (flows live a few
//                        minutes, so old versions steadily free up).
#include <deque>

#include "bench_common.h"
#include "core/version_manager.h"
#include "workload/update_gen.h"

using namespace silkroad;

namespace {

struct WindowResult {
  std::size_t max_live_versions;
  std::uint64_t reuses;
};

/// Replays `updates_in_window` rolling-reboot update events over a 10-minute
/// window. Each committed version is pinned by its cohort of connections for
/// `conn_lifetime` of simulated time, then released.
WindowResult run_window(bool reuse, int updates_in_window,
                        sim::Time conn_lifetime) {
  const net::Endpoint vip{net::IpAddress::v4(0x14000001), 80};
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < 64; ++i) {
    dips.push_back({net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(i)), 20});
  }
  core::VipVersionManager mgr(
      vip, dips,
      {.version_bits = 10, .enable_reuse = reuse});

  // Build the rolling-reboot schedule: batches of 2 DIPs removed every
  // `step`, each DIP back 3 minutes later. 4 events per batch cycle.
  struct Event {
    sim::Time at;
    std::vector<workload::DipUpdate> batch;
  };
  std::vector<Event> events;
  const int cycles = updates_in_window / 4;
  const sim::Time window = 10 * sim::kMinute;
  const sim::Time step = window / (cycles + 1);
  const sim::Time downtime = 3 * sim::kMinute;
  for (int c = 0; c < cycles; ++c) {
    const sim::Time t = static_cast<sim::Time>(c + 1) * step;
    const auto& d1 = dips[static_cast<std::size_t>(2 * c) % dips.size()];
    const auto& d2 = dips[static_cast<std::size_t>(2 * c + 1) % dips.size()];
    events.push_back(
        {t,
         {{t, vip, d1, workload::UpdateAction::kRemoveDip,
           workload::UpdateCause::kServiceUpgrade},
          {t, vip, d2, workload::UpdateAction::kRemoveDip,
           workload::UpdateCause::kServiceUpgrade}}});
    events.push_back({t + downtime,
                      {{t + downtime, vip, d1, workload::UpdateAction::kAddDip,
                        workload::UpdateCause::kServiceUpgrade}}});
    events.push_back({t + downtime + sim::kSecond,
                      {{t + downtime + sim::kSecond, vip, d2,
                        workload::UpdateAction::kAddDip,
                        workload::UpdateCause::kServiceUpgrade}}});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });

  std::deque<std::pair<sim::Time, std::uint32_t>> releases;  // (when, version)
  std::size_t max_live = 1;
  mgr.acquire(mgr.current_version());
  releases.push_back({conn_lifetime, mgr.current_version()});
  for (const auto& event : events) {
    while (!releases.empty() && releases.front().first <= event.at) {
      mgr.release(releases.front().second);
      releases.pop_front();
    }
    const auto staged = mgr.stage_update_batch(event.batch);
    if (!staged) continue;
    mgr.commit(staged->target_version);
    mgr.acquire(staged->target_version);
    releases.push_back({event.at + conn_lifetime, staged->target_version});
    max_live = std::max(max_live, mgr.active_versions());
  }
  return WindowResult{max_live, mgr.versions_reused()};
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 15 — Benefit of version reuse (10-minute windows)",
      "up to 330 updates/10min need 330 versions (9 bits) without reuse, "
      "only 51 (6 bits) with reuse");

  std::printf("connections pin a version for ~4 minutes (flow-lifetime "
              "recycling); rolling reboot: 2 DIPs per batch, 3-min downtime\n");
  std::printf("\n%-22s %14s %14s %10s %10s\n", "updates per 10 min",
              "no reuse", "with reuse", "factor", "reuses");
  for (const int updates : {12, 40, 80, 160, 240, 330}) {
    const auto without = run_window(false, updates, 4 * sim::kMinute);
    const auto with = run_window(true, updates, 4 * sim::kMinute);
    std::printf("%-22d %14zu %14zu %9.1fx %10llu\n", updates,
                without.max_live_versions, with.max_live_versions,
                static_cast<double>(without.max_live_versions) /
                    static_cast<double>(with.max_live_versions),
                static_cast<unsigned long long>(with.reuses));
    if (updates == 330) {
      bench::headline("max_live_versions_no_reuse_330upd",
                      static_cast<double>(without.max_live_versions),
                      "paper: needs 9 version bits");
      bench::headline("max_live_versions_with_reuse_330upd",
                      static_cast<double>(with.max_live_versions),
                      "paper: <=64 versions (6 bits)");
    }
  }
  std::printf(
      "\nversion bits: ceil(log2(versions)) — paper: 9 bits without reuse vs "
      "6 bits (<=64 versions) with reuse at 330 updates\n");
  std::printf(
      "memory effect (paper): 10M conns + 4K DIPs -> 7.5 MB ConnTable + "
      "4.5 MB DIPPoolTable saved, 74.6%% total reduction\n");
  bench::emit_headlines("fig15_version_reuse");
  return 0;
}
