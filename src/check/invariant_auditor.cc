#include "check/invariant_auditor.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "asic/sram.h"
#include "check/sr_check.h"
#include "obs/forensics.h"
#include "obs/trace.h"

namespace silkroad::check {

namespace {

using core::SilkRoadSwitch;

std::string flow_str(const net::FiveTuple& flow) {
  return flow.src.to_string() + "->" + flow.dst.to_string();
}

Violation make(std::string invariant, std::string detail,
               std::optional<net::Endpoint> vip = std::nullopt,
               std::optional<std::uint32_t> version = std::nullopt) {
  Violation v{std::move(invariant), std::move(detail), {}, version};
  if (vip) v.vip = vip->to_string();
  return v;
}

}  // namespace

std::vector<Violation> InvariantAuditor::audit() const {
  std::vector<Violation> out;
  check_version_liveness(out);
  check_refcounts(out);
  check_version_recycling(out);
  check_transit_window(out);
  check_sram_accounting(out);
  check_dip_pool_coverage(out);
  return out;
}

void InvariantAuditor::check_version_liveness(
    std::vector<Violation>& out) const {
  for (const auto& [flow, info] : sw_.pending_) {
    if (info.dead) continue;  // eviction may have destroyed its version
    const auto* state = sw_.find_vip(info.vip);
    if (state == nullptr) {
      out.push_back(make("version-liveness",
                         "pending flow " + flow_str(flow) +
                             " references unknown VIP " + info.vip.to_string(),
                         info.vip));
      continue;
    }
    if (state->versions->pool(info.version) == nullptr) {
      out.push_back(make("version-liveness",
                         "pending flow " + flow_str(flow) + " holds version " +
                             std::to_string(info.version) +
                             " which has no live pool",
                         info.vip, info.version));
    }
  }
  for (const auto& [flow, conn] : sw_.degraded_flows_) {
    const auto* state = sw_.find_vip(conn.vip);
    if (state == nullptr ||
        state->versions->pool(conn.version) == nullptr) {
      out.push_back(make("version-liveness",
                         "degraded flow " + flow_str(flow) +
                             " is pinned to version " +
                             std::to_string(conn.version) +
                             " which has no live pool",
                         conn.vip, conn.version));
    }
  }
}

void InvariantAuditor::check_refcounts(std::vector<Violation>& out) const {
  for (const auto& [vip, state] : sw_.vips_) {
    const auto& mgr = *state.versions;
    for (const std::uint32_t version : mgr.live_versions()) {
      const auto it = state.conns_by_version.find(version);
      const std::int64_t tracked =
          it == state.conns_by_version.end()
              ? 0
              : static_cast<std::int64_t>(it->second.size());
      const std::int64_t counted = mgr.refcount(version);
      if (counted != tracked) {
        out.push_back(make(
            "refcount-match",
            "vip " + vip.to_string() + " version " + std::to_string(version) +
                " refcount " + std::to_string(counted) + " != " +
                std::to_string(tracked) + " tracked connections",
            vip, version));
      }
    }
    // Tracking must reference live versions only, every tracked flow must
    // still exist somewhere (pending or installed), and no flow may be
    // tracked under two versions at once.
    std::size_t tracked_flows = 0;
    for (const auto& [version, flows] : state.conns_by_version) {
      tracked_flows += flows.size();
    }
    std::unordered_set<net::FiveTuple, net::FiveTupleHash> seen;
    seen.reserve(tracked_flows);
    for (const auto& [version, flows] : state.conns_by_version) {
      if (mgr.pool(version) == nullptr) {
        out.push_back(make("refcount-match",
                           "vip " + vip.to_string() + " tracks " +
                               std::to_string(flows.size()) +
                               " connections under dead version " +
                               std::to_string(version),
                           vip, version));
      }
      for (const auto& flow : flows) {
        if (!seen.insert(flow).second) {
          out.push_back(make("refcount-match",
                             "flow " + flow_str(flow) +
                                 " tracked under two versions of vip " +
                                 vip.to_string(),
                             vip));
        }
        if (!sw_.pending_.contains(flow) && !sw_.conn_table_.contains(flow) &&
            !sw_.degraded_flows_.contains(flow)) {
          out.push_back(make(
              "refcount-match",
              "tracked flow " + flow_str(flow) + " (version " +
                  std::to_string(version) +
                  ") is neither pending, installed, nor degraded-pinned",
              vip, version));
        }
      }
    }
  }
}

void InvariantAuditor::check_version_recycling(
    std::vector<Violation>& out) const {
  // Versions referenced anywhere, keyed by VIP: ConnTable entries, non-dead
  // pending connections, and the CPU's per-version tracking.
  std::unordered_map<net::Endpoint,
                     std::unordered_set<std::uint32_t>, net::EndpointHash>
      referenced;
  sw_.conn_table_.for_each_entry(
      [&](const net::FiveTuple& key, std::uint32_t value) {
        referenced[key.dst].insert(value);
      });
  for (const auto& [flow, info] : sw_.pending_) {
    if (!info.dead) referenced[info.vip].insert(info.version);
  }
  for (const auto& [vip, state] : sw_.vips_) {
    for (const auto& [version, flows] : state.conns_by_version) {
      if (!flows.empty()) referenced[vip].insert(version);
    }
  }

  for (const auto& [vip, state] : sw_.vips_) {
    const auto& mgr = *state.versions;
    auto free = mgr.free_versions();
    const auto live = mgr.live_versions();

    std::sort(free.begin(), free.end());
    if (std::adjacent_find(free.begin(), free.end()) != free.end()) {
      out.push_back(make("version-recycling",
                         "vip " + vip.to_string() +
                             " has duplicate entries in the free ring",
                         vip));
    }
    for (const std::uint32_t version : live) {
      if (std::binary_search(free.begin(), free.end(), version)) {
        out.push_back(make("version-recycling",
                           "vip " + vip.to_string() + " version " +
                               std::to_string(version) +
                               " is simultaneously live and free",
                           vip, version));
      }
    }
    if (free.size() + live.size() != mgr.version_capacity()) {
      out.push_back(make(
          "version-recycling",
          "vip " + vip.to_string() + " leaks version numbers: " +
              std::to_string(free.size()) + " free + " +
              std::to_string(live.size()) + " live != capacity " +
              std::to_string(mgr.version_capacity()),
          vip));
    }
    // §4.4: a recycled version must never still be referenced.
    if (const auto it = referenced.find(vip); it != referenced.end()) {
      for (const std::uint32_t version : it->second) {
        if (std::binary_search(free.begin(), free.end(), version)) {
          out.push_back(make("version-recycling",
                             "recycled version " + std::to_string(version) +
                                 " of vip " + vip.to_string() +
                                 " is still referenced",
                             vip, version));
        }
      }
    }
  }
}

void InvariantAuditor::check_transit_window(std::vector<Violation>& out) const {
  using Phase = SilkRoadSwitch::Phase;
  if (sw_.phase_ == Phase::kIdle) {
    if (sw_.transit_.inserted() != 0 || sw_.transit_.fill_ratio() > 0.0) {
      out.push_back(make("transit-window",
                         "TransitTable holds state outside an update window (" +
                             std::to_string(sw_.transit_.inserted()) +
                             " inserts)"));
    }
    if (!sw_.transit_members_.empty()) {
      out.push_back(make("transit-window",
                         "transit member set non-empty while idle"));
    }
    if (!sw_.awaiting_pre_.empty()) {
      out.push_back(make("transit-window",
                         "pre-update wait set non-empty while idle"));
    }
    return;
  }

  const auto* state = sw_.find_vip(sw_.update_vip_);
  if (state == nullptr) {
    out.push_back(make("transit-window",
                       "update in flight for unknown VIP " +
                           sw_.update_vip_.to_string(),
                       sw_.update_vip_));
    return;
  }
  const auto& mgr = *state->versions;
  if (mgr.pool(sw_.update_new_version_) == nullptr) {
    out.push_back(make("transit-window",
                       "in-flight update targets dead version " +
                           std::to_string(sw_.update_new_version_),
                       sw_.update_vip_, sw_.update_new_version_));
  }
  if (sw_.phase_ == Phase::kStep1 &&
      mgr.current_version() != sw_.update_old_version_) {
    out.push_back(make("transit-window",
                       "Step1 but VIPTable already flipped away from version " +
                           std::to_string(sw_.update_old_version_),
                       sw_.update_vip_, sw_.update_old_version_));
  }
  if (sw_.phase_ == Phase::kStep2) {
    if (mgr.current_version() != sw_.update_new_version_) {
      out.push_back(make("transit-window",
                         "Step2 but VIPTable does not point at new version " +
                             std::to_string(sw_.update_new_version_),
                         sw_.update_vip_, sw_.update_new_version_));
    }
    if (!sw_.transit_members_.empty() &&
        mgr.pool(sw_.update_old_version_) == nullptr) {
      out.push_back(make("transit-window",
                         "flows pinned to old version " +
                             std::to_string(sw_.update_old_version_) +
                             " but its pool is gone",
                         sw_.update_vip_, sw_.update_old_version_));
    }
  }
  for (const auto& flow : sw_.transit_members_) {
    if (!sw_.pending_.contains(flow)) {
      out.push_back(make("transit-window",
                         "transit member " + flow_str(flow) +
                             " has no pending insertion and cannot resolve",
                         sw_.update_vip_));
    }
  }
  for (const auto& flow : sw_.awaiting_pre_) {
    if (!sw_.pending_.contains(flow)) {
      out.push_back(make("transit-window",
                         "pre-update flow " + flow_str(flow) +
                             " has no pending insertion and cannot resolve",
                         sw_.update_vip_));
    }
  }
}

void InvariantAuditor::check_sram_accounting(
    std::vector<Violation>& out) const {
  const auto usage = sw_.memory_usage();
  const auto& cfg = sw_.conn_table_.config();
  const std::size_t geometry_bytes = asic::bits_to_bytes(
      cfg.stages * cfg.buckets_per_stage * asic::kSramWordBits);
  if (usage.conn_table_bytes != geometry_bytes) {
    out.push_back(make("sram-accounting",
                       "reported ConnTable SRAM " +
                           std::to_string(usage.conn_table_bytes) +
                           " B != geometry " +
                           std::to_string(geometry_bytes) + " B"));
  }
  const std::size_t used = sw_.conn_table_.used_slot_count();
  if (used != sw_.conn_table_.size()) {
    out.push_back(make("sram-accounting",
                       "phantom SRAM occupancy: " + std::to_string(used) +
                           " used slots vs " +
                           std::to_string(sw_.conn_table_.size()) +
                           " indexed entries"));
  }
  std::size_t pool_bytes = 0;
  for (const auto& [vip, state] : sw_.vips_) {
    for (const std::uint32_t version : state.versions->live_versions()) {
      pool_bytes += state.versions->pool(version)->wire_bytes();
    }
  }
  if (usage.dip_pool_table_bytes != pool_bytes) {
    out.push_back(make("sram-accounting",
                       "reported DIPPoolTable SRAM " +
                           std::to_string(usage.dip_pool_table_bytes) +
                           " B != live pool total " +
                           std::to_string(pool_bytes) + " B"));
  }
  if (usage.transit_table_bytes != sw_.transit_.byte_count()) {
    out.push_back(make("sram-accounting",
                       "reported TransitTable SRAM " +
                           std::to_string(usage.transit_table_bytes) +
                           " B != filter size " +
                           std::to_string(sw_.transit_.byte_count()) + " B"));
  }
}

void InvariantAuditor::check_dip_pool_coverage(
    std::vector<Violation>& out) const {
  for (const auto& [vip, state] : sw_.vips_) {
    if (state.versions->pool(state.versions->current_version()) == nullptr) {
      out.push_back(make("dip-pool-coverage",
                         "vip " + vip.to_string() + " current version " +
                             std::to_string(state.versions->current_version()) +
                             " has no pool",
                         vip, state.versions->current_version()));
    }
  }
  sw_.conn_table_.for_each_entry([&](const net::FiveTuple& key,
                                      std::uint32_t value) {
    const auto* state = sw_.find_vip(key.dst);
    if (state == nullptr) {
      out.push_back(make("dip-pool-coverage",
                         "ConnTable entry " + flow_str(key) +
                             " targets unknown VIP"));
      return;
    }
    if (state->versions->pool(value) == nullptr) {
      out.push_back(make("dip-pool-coverage",
                         "ConnTable entry " + flow_str(key) +
                             " resolves to version " + std::to_string(value) +
                             " with no DIPPoolTable pool",
                         key.dst, value));
    }
  });
}

// ---------------------------------------------------------------------------
// Self-check entry point (declared in core/silkroad_switch.h).
// ---------------------------------------------------------------------------

void TestingHooks::skew_refcount(core::SilkRoadSwitch& sw,
                                 const net::Endpoint& vip) {
  auto* state = sw.find_vip(vip);
  SR_CHECK(state != nullptr);
  state->versions->acquire(state->versions->current_version());
}

void TestingHooks::inject_stale_conn_entry(core::SilkRoadSwitch& sw,
                                           const net::FiveTuple& flow,
                                           std::uint32_t version) {
  sw.conn_table_.insert(flow, version);
}

void TestingHooks::corrupt_slot_accounting(core::SilkRoadSwitch& sw) {
  auto& table = sw.conn_table_;
  for (auto& slot : table.slots_) {
    if (slot.used) {
      slot.used = false;  // the shadow index now points at a vacant slot
      return;
    }
  }
  SR_CHECK(!table.slots_.empty());
  table.slots_.front().used = true;  // phantom occupancy in an empty table
}

void TestingHooks::pollute_transit(core::SilkRoadSwitch& sw,
                                   const net::FiveTuple& flow) {
  sw.transit_.insert(flow);
}

}  // namespace silkroad::check

namespace silkroad::core {

void SilkRoadSwitch::self_check() const {
  const check::InvariantAuditor auditor(*this);
  const auto violations = auditor.audit();
  for (const auto& violation : violations) {
    std::fprintf(stderr, "invariant violation: %s\n",
                 violation.to_string().c_str());
  }
  if (!violations.empty()) {
    // Causal context for the failure: the offending VIP's (and version's)
    // recent TraceRing timeline, oldest first.
    constexpr std::size_t kTailEvents = 16;
    if (trace_.dropped() > 0) {
      std::fprintf(stderr,
                   "note: %llu trace events lost to ring wraparound; the "
                   "tails below may start mid-story\n",
                   static_cast<unsigned long long>(trace_.dropped()));
    }
    std::set<std::pair<std::string, std::optional<std::uint32_t>>> dumped;
    for (const auto& violation : violations) {
      if (violation.vip.empty()) continue;
      if (!dumped.insert({violation.vip, violation.version}).second) continue;
      const auto scope = trace_.find_scope(violation.vip);
      if (!scope) continue;
      const auto tail = trace_.tail_for(*scope, violation.version, kTailEvents);
      if (violation.version) {
        std::fprintf(stderr, "trace tail for vip %s version %u (%zu events):\n",
                     violation.vip.c_str(), *violation.version, tail.size());
      } else {
        std::fprintf(stderr, "trace tail for vip %s (%zu events):\n",
                     violation.vip.c_str(), tail.size());
      }
      for (const auto& event : tail) {
        std::fprintf(stderr, "  %s\n",
                     obs::format_event(trace_, event).c_str());
      }
    }
    if (dumped.empty()) {
      const auto all = trace_.events();
      const std::size_t start =
          all.size() > kTailEvents ? all.size() - kTailEvents : 0;
      std::fprintf(stderr, "trace tail (%zu events):\n", all.size() - start);
      for (std::size_t i = start; i < all.size(); ++i) {
        std::fprintf(stderr, "  %s\n",
                     obs::format_event(trace_, all[i]).c_str());
      }
    }
  }
  if (!violations.empty()) {
    // Durable incident record: the trace ring interleaved with every
    // overlapping update/resync span, written to SILKROAD_TELEMETRY_DIR
    // (no-op when the env var is unset or the switch is untraced).
    const std::string dir = obs::telemetry_dir_from_env();
    if (!dir.empty()) {
      std::string reason = "invariant auditor: " + violations.front().invariant;
      if (violations.size() > 1) {
        reason += " (+" + std::to_string(violations.size() - 1) + " more)";
      }
      const auto report =
          obs::assemble_forensics(trace_, spans_, 0, std::move(reason));
      const std::string stem =
          "forensics_invariant_sw" + std::to_string(span_switch_);
      if (obs::write_forensics(report, dir, stem)) {
        std::fprintf(stderr, "forensics report written to %s/%s.{txt,json}\n",
                     dir.c_str(), stem.c_str());
      }
    }
  }
  SR_CHECKF(violations.empty(), "invariant auditor found %zu violation(s)",
            violations.size());
}

}  // namespace silkroad::core
