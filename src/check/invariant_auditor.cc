#include "check/invariant_auditor.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <set>
#include <utility>

#include "asic/sram.h"
#include "check/sr_check.h"
#include "net/flat_map.h"
#include "net/hash.h"
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

/// One VIP's row in the per-audit table, in vips_ iteration order.
struct InvariantAuditor::Vip {
  const net::Endpoint* vip = nullptr;
  const SilkRoadSwitch::VipState* state = nullptr;
  /// state->versions->live_versions(), computed once per audit.
  std::vector<std::uint32_t> live;
  /// The row's words in Pass::referenced and Pass::live. They cover every
  /// version number below the version capacity, below the end of its version
  /// lists and up to its largest free or live number, so a version past them
  /// is neither free nor live.
  std::size_t first_word = 0;
  std::size_t words = 0;
};

/// The per-audit VIP table and what each walk hands to the families that
/// finish after it.
struct InvariantAuditor::Pass {
  std::vector<Vip> vips;
  net::FlatMap<net::Endpoint, std::uint32_t, net::EndpointHash> index;
  /// One bit per (VIP, version) that a ConnTable entry, a non-dead pending
  /// flow or a version list references.
  std::vector<std::uint64_t> referenced;
  /// One bit per (VIP, version) with a live pool: Vip::live as bits, so that
  /// `pool(v) != nullptr` is one bit test.
  std::vector<std::uint64_t> live;

  /// Records walk: the S and S2 flags, and the flagged flows that have no
  /// pending insertion (transit-window reports them inside a window only).
  std::size_t awaiting = 0;
  std::size_t members = 0;
  std::vector<Violation> unresolvable;
  /// Version-lists walk: wire bytes of every live pool.
  std::size_t pool_bytes = 0;
  /// ConnTable walk: the used slots it counted (sram-accounting), and the
  /// entries that name an unknown VIP or resolve to a version with no pool
  /// (dip-pool-coverage), in slot order.
  std::size_t used_slots = 0;
  std::vector<Violation> uncovered;

  const Vip* find(const net::Endpoint& vip) const {
    const std::uint32_t* row = index.find(vip);
    return row == nullptr ? nullptr : &vips[*row];
  }
  /// Marks `version` of `row` referenced. A version past the row is never
  /// free, so there is nothing to mark.
  void reference(const Vip& row, std::uint32_t version) {
    if (version / 64 >= row.words) return;
    referenced[row.first_word + version / 64] |= std::uint64_t{1}
                                                 << (version % 64);
  }
  /// Whether `version` of `row` has a live pool.
  bool is_live(const Vip& row, std::uint32_t version) const {
    return version / 64 < row.words &&
           (live[row.first_word + version / 64] >> (version % 64) & 1) != 0;
  }
};

std::vector<Violation> InvariantAuditor::audit() const {
  std::vector<Violation> out;
  Pass pass = begin_pass();
  walk_records(pass, out);        // version-liveness
  walk_version_lists(pass, out);  // refcount-match
  walk_conn_table(pass);
  check_version_recycling(pass, out);
  check_transit_window(pass, out);
  check_sram_accounting(pass, out);
  check_dip_pool_coverage(pass, out);
  return out;
}

InvariantAuditor::Pass InvariantAuditor::begin_pass() const {
  Pass pass;
  pass.vips.reserve(sw_.vips_.size());
  std::size_t words = 0;
  for (const auto& [vip, state] : sw_.vips_) {
    const auto& mgr = *state.versions;
    std::size_t range =
        std::max(mgr.version_capacity(), state.conns_by_version.size());
    for (const std::uint32_t version : mgr.free_versions()) {
      range = std::max(range, std::size_t{version} + 1);
    }
    std::vector<std::uint32_t> live = mgr.live_versions();  // ascending
    if (!live.empty()) range = std::max(range, std::size_t{live.back()} + 1);
    const std::size_t row_words = (range + 63) / 64;
    pass.index.try_emplace(vip, static_cast<std::uint32_t>(pass.vips.size()));
    pass.vips.push_back({&vip, &state, std::move(live), words, row_words});
    words += row_words;
  }
  pass.referenced.assign(words, 0);
  pass.live.assign(words, 0);
  for (const Vip& row : pass.vips) {
    for (const std::uint32_t version : row.live) {
      pass.live[row.first_word + version / 64] |= std::uint64_t{1}
                                                  << (version % 64);
    }
  }
  return pass;
}

void InvariantAuditor::walk_records(Pass& pass,
                                    std::vector<Violation>& out) const {
  using FlowState = SilkRoadSwitch::FlowState;
  for (const auto& record : sw_.records_) {
    const net::FiveTuple& flow = record.flow;
    const net::Endpoint& vip = flow.dst;
    pass.awaiting += record.awaiting_pre ? 1 : 0;
    pass.members += record.transit_member ? 1 : 0;
    if (record.state == FlowState::kPending) {
      if (record.dead) continue;  // eviction may have destroyed its version
      const Vip* row = pass.find(vip);
      if (row == nullptr) {
        out.push_back(make("version-liveness",
                           "pending flow " + flow_str(flow) +
                               " references unknown VIP " + vip.to_string(),
                           vip));
        continue;
      }
      pass.reference(*row, record.version);
      if (!pass.is_live(*row, record.version)) {
        out.push_back(make("version-liveness",
                           "pending flow " + flow_str(flow) +
                               " holds version " +
                               std::to_string(record.version) +
                               " which has no live pool",
                           vip, record.version));
      }
      continue;
    }
    if (record.transit_member) {
      pass.unresolvable.push_back(
          make("transit-window",
               "transit member " + flow_str(flow) +
                   " has no pending insertion and cannot resolve",
               sw_.update_vip_));
    }
    if (record.awaiting_pre) {
      pass.unresolvable.push_back(
          make("transit-window",
               "pre-update flow " + flow_str(flow) +
                   " has no pending insertion and cannot resolve",
               sw_.update_vip_));
    }
    if (record.state == FlowState::kDegraded) {
      const Vip* row = pass.find(vip);
      if (row == nullptr || !pass.is_live(*row, record.version)) {
        out.push_back(make("version-liveness",
                           "degraded flow " + flow_str(flow) +
                               " is pinned to version " +
                               std::to_string(record.version) +
                               " which has no live pool",
                           vip, record.version));
      }
    }
  }
}

void InvariantAuditor::walk_version_lists(Pass& pass,
                                          std::vector<Violation>& out) const {
  using FlowState = SilkRoadSwitch::FlowState;
  // Each record is stamped the first time a version list reaches it, so a
  // second visit in the same audit finds it tracked twice.
  const std::uint32_t stamp = ++sw_.audit_epoch_;
  for (const Vip& row : pass.vips) {
    const net::Endpoint& vip = *row.vip;
    const auto& mgr = *row.state->versions;
    const auto& lists = row.state->conns_by_version;
    for (const std::uint32_t version : row.live) {
      const std::int64_t tracked =
          version < lists.size() ? static_cast<std::int64_t>(lists[version].size())
                                 : 0;
      const std::int64_t counted = mgr.refcount(version);
      if (counted != tracked) {
        out.push_back(make(
            "refcount-match",
            "vip " + vip.to_string() + " version " + std::to_string(version) +
                " refcount " + std::to_string(counted) + " != " +
                std::to_string(tracked) + " tracked connections",
            vip, version));
      }
      pass.pool_bytes += mgr.pool(version)->wire_bytes();
    }
    // Tracking must reference live versions only, every tracked flow must
    // still exist somewhere (pending, installed or degraded), and no flow may
    // be tracked under two versions at once.
    for (std::uint32_t version = 0; version < lists.size(); ++version) {
      const auto& members = lists[version];
      if (members.empty()) continue;
      pass.reference(row, version);
      if (!pass.is_live(row, version)) {
        out.push_back(make("refcount-match",
                           "vip " + vip.to_string() + " tracks " +
                               std::to_string(members.size()) +
                               " connections under dead version " +
                               std::to_string(version),
                           vip, version));
      }
      for (std::size_t pos = 0; pos < members.size(); ++pos) {
        const auto& record = sw_.records_[members[pos]];
        const net::FiveTuple& flow = record.flow;
        if (record.audit_stamp == stamp) {
          out.push_back(make("refcount-match",
                             "flow " + flow_str(flow) +
                                 " tracked under two versions of vip " +
                                 vip.to_string(),
                             vip));
          continue;
        }
        record.audit_stamp = stamp;
        if (record.version != version || record.member_pos != pos) {
          out.push_back(make("refcount-match",
                             "flow " + flow_str(flow) + " listed under version " +
                                 std::to_string(version) + " at " +
                                 std::to_string(pos) + " but its record says " +
                                 std::to_string(record.version) + " at " +
                                 std::to_string(record.member_pos),
                             vip, version));
        }
        // Installed means present in the ConnTable's exact index, whatever
        // the record claims.
        if (record.state != FlowState::kPending &&
            record.state != FlowState::kDegraded &&
            !sw_.conn_table_.contains(flow)) {
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

void InvariantAuditor::walk_conn_table(Pass& pass) const {
  pass.used_slots = sw_.conn_table_.for_each_used_slot(
      [&pass](const net::FiveTuple& key, std::uint32_t value) {
        const Vip* row = pass.find(key.dst);
        if (row == nullptr) {
          pass.uncovered.push_back(make("dip-pool-coverage",
                                        "ConnTable entry " + flow_str(key) +
                                            " targets unknown VIP"));
          return;
        }
        pass.reference(*row, value);
        if (!pass.is_live(*row, value)) {
          pass.uncovered.push_back(
              make("dip-pool-coverage",
                   "ConnTable entry " + flow_str(key) + " resolves to version " +
                       std::to_string(value) + " with no DIPPoolTable pool",
                   key.dst, value));
        }
      });
}

void InvariantAuditor::check_version_recycling(
    const Pass& pass, std::vector<Violation>& out) const {
  std::vector<std::uint64_t> free_bits;
  for (const Vip& row : pass.vips) {
    const net::Endpoint& vip = *row.vip;
    const auto& mgr = *row.state->versions;
    const auto& free = mgr.free_versions();
    // Every free number lies inside the row (begin_pass sized it so).
    free_bits.assign(row.words, 0);
    bool duplicate = false;
    for (const std::uint32_t version : free) {
      std::uint64_t& word = free_bits[version / 64];
      const std::uint64_t bit = std::uint64_t{1} << (version % 64);
      duplicate = duplicate || (word & bit) != 0;
      word |= bit;
    }
    const auto is_free = [&free_bits, &row](std::uint32_t version) {
      return version / 64 < row.words &&
             (free_bits[version / 64] >> (version % 64) & 1) != 0;
    };

    if (duplicate) {
      out.push_back(make("version-recycling",
                         "vip " + vip.to_string() +
                             " has duplicate entries in the free ring",
                         vip));
    }
    for (const std::uint32_t version : row.live) {
      if (is_free(version)) {
        out.push_back(make("version-recycling",
                           "vip " + vip.to_string() + " version " +
                               std::to_string(version) +
                               " is simultaneously live and free",
                           vip, version));
      }
    }
    if (free.size() + row.live.size() != mgr.version_capacity()) {
      out.push_back(make(
          "version-recycling",
          "vip " + vip.to_string() + " leaks version numbers: " +
              std::to_string(free.size()) + " free + " +
              std::to_string(row.live.size()) + " live != capacity " +
              std::to_string(mgr.version_capacity()),
          vip));
    }
    // §4.4: a recycled version must never still be referenced.
    for (std::size_t w = 0; w < row.words; ++w) {
      for (std::uint64_t bits = pass.referenced[row.first_word + w];
           bits != 0; bits &= bits - 1) {
        const auto version =
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        if (is_free(version)) {
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

void InvariantAuditor::check_transit_window(
    Pass& pass, std::vector<Violation>& out) const {
  using Phase = SilkRoadSwitch::Phase;
  // S and S2 as flagged on the records, against the gates' running counts.
  const std::size_t awaiting = pass.awaiting;
  const std::size_t members = pass.members;
  if (sw_.phase_ == Phase::kIdle) {
    if (sw_.transit_.inserted() != 0 || sw_.transit_.fill_ratio() > 0.0) {
      out.push_back(make("transit-window",
                         "TransitTable holds state outside an update window (" +
                             std::to_string(sw_.transit_.inserted()) +
                             " inserts)"));
    }
    if (members != 0 || sw_.transit_member_count_ != 0) {
      out.push_back(make("transit-window",
                         "transit member set non-empty while idle"));
    }
    if (awaiting != 0 || sw_.awaiting_pre_count_ != 0) {
      out.push_back(make("transit-window",
                         "pre-update wait set non-empty while idle"));
    }
    return;
  }
  if (members != sw_.transit_member_count_ ||
      awaiting != sw_.awaiting_pre_count_) {
    out.push_back(make("transit-window",
                       "completion gates count " +
                           std::to_string(sw_.awaiting_pre_count_) + " + " +
                           std::to_string(sw_.transit_member_count_) +
                           " flows but " + std::to_string(awaiting) + " + " +
                           std::to_string(members) + " are flagged",
                       sw_.update_vip_));
  }

  const Vip* row = pass.find(sw_.update_vip_);
  if (row == nullptr) {
    out.push_back(make("transit-window",
                       "update in flight for unknown VIP " +
                           sw_.update_vip_.to_string(),
                       sw_.update_vip_));
    return;
  }
  const auto& mgr = *row->state->versions;
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
    if (members != 0 && mgr.pool(sw_.update_old_version_) == nullptr) {
      out.push_back(make("transit-window",
                         "flows pinned to old version " +
                             std::to_string(sw_.update_old_version_) +
                             " but its pool is gone",
                         sw_.update_vip_, sw_.update_old_version_));
    }
  }
  for (auto& violation : pass.unresolvable) {
    out.push_back(std::move(violation));
  }
}

void InvariantAuditor::check_sram_accounting(
    const Pass& pass, std::vector<Violation>& out) const {
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
  // Counted from the slots by the ConnTable walk, not kept beside them: a
  // running count would agree with the index even after a used bit went
  // wrong.
  if (pass.used_slots != sw_.conn_table_.size()) {
    out.push_back(make("sram-accounting",
                       "phantom SRAM occupancy: " +
                           std::to_string(pass.used_slots) + " used slots vs " +
                           std::to_string(sw_.conn_table_.size()) +
                           " indexed entries"));
  }
  if (usage.dip_pool_table_bytes != pass.pool_bytes) {
    out.push_back(make("sram-accounting",
                       "reported DIPPoolTable SRAM " +
                           std::to_string(usage.dip_pool_table_bytes) +
                           " B != live pool total " +
                           std::to_string(pass.pool_bytes) + " B"));
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
    Pass& pass, std::vector<Violation>& out) const {
  for (const Vip& row : pass.vips) {
    const auto& mgr = *row.state->versions;
    if (mgr.pool(mgr.current_version()) == nullptr) {
      out.push_back(make("dip-pool-coverage",
                         "vip " + row.vip->to_string() + " current version " +
                             std::to_string(mgr.current_version()) +
                             " has no pool",
                         *row.vip, mgr.current_version()));
    }
  }
  for (auto& violation : pass.uncovered) {
    out.push_back(std::move(violation));
  }
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

void TestingHooks::track_under_second_version(core::SilkRoadSwitch& sw,
                                              const net::FiveTuple& flow) {
  const auto* id = sw.flow_index_.find(flow);
  SR_CHECK(id != nullptr);
  auto& lists = sw.find_vip(flow.dst)->conns_by_version;
  const std::uint32_t other = sw.records_[*id].version + 1;
  if (lists.size() <= other) lists.resize(other + 1);
  lists[other].push_back(*id);
}

void TestingHooks::drop_conn_entry(core::SilkRoadSwitch& sw,
                                   const net::FiveTuple& flow) {
  const auto* record = sw.find_record(flow);
  SR_CHECK(record != nullptr &&
           record->state == SilkRoadSwitch::FlowState::kInstalled);
  sw.conn_table_.erase(flow);
}

void TestingHooks::flag_unresolvable(core::SilkRoadSwitch& sw,
                                     const net::FiveTuple& flow,
                                     bool transit_member) {
  auto* record = sw.find_record(flow);
  SR_CHECK(record != nullptr &&
           record->state != SilkRoadSwitch::FlowState::kPending);
  if (transit_member) {
    record->transit_member = true;
    ++sw.transit_member_count_;
  } else {
    record->awaiting_pre = true;
    ++sw.awaiting_pre_count_;
  }
}

void TestingHooks::repin_pending(core::SilkRoadSwitch& sw,
                                 const net::FiveTuple& flow,
                                 std::uint32_t version) {
  auto* record = sw.find_record(flow);
  SR_CHECK(record != nullptr &&
           record->state == SilkRoadSwitch::FlowState::kPending);
  record->version = version;
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
    // recent ring events merged by time with the steps of the VIP's update
    // spans on this switch's leg, oldest first.
    constexpr std::size_t kTailEvents = 16;
    if (trace_.dropped() > 0) {
      std::fprintf(stderr,
                   "note: %llu trace events lost to ring wraparound; the "
                   "tails below may start mid-story\n",
                   static_cast<unsigned long long>(trace_.dropped()));
    }
    using Tail = std::vector<std::pair<sim::Time, std::string>>;
    const auto print = [](const std::string& header, Tail tail) {
      std::stable_sort(tail.begin(), tail.end(), [](const auto& a,
                                                    const auto& b) {
        return a.first < b.first;
      });
      if (tail.size() > kTailEvents) {
        tail.erase(tail.begin(),
                   tail.end() - static_cast<std::ptrdiff_t>(kTailEvents));
      }
      std::fprintf(stderr, "%s (%zu events):\n", header.c_str(), tail.size());
      for (const auto& [at, line] : tail) {
        std::fprintf(stderr, "  [%.6fs] %s\n", sim::to_seconds(at),
                     line.c_str());
      }
    };
    const auto ring_tail = [this](const std::vector<obs::Event>& events) {
      Tail tail;
      for (const auto& event : events) {
        tail.emplace_back(event.at,
                          obs::format_event(event, trace_.where(event)));
      }
      return tail;
    };
    std::set<std::pair<std::string, std::optional<std::uint32_t>>> dumped;
    for (const auto& violation : violations) {
      if (violation.vip.empty()) continue;
      if (!dumped.insert({violation.vip, violation.version}).second) continue;
      Tail tail;
      if (const auto scope = trace_.find_scope(violation.vip)) {
        tail = ring_tail(
            trace_.tail_for(*scope, violation.version, kTailEvents));
      }
      for (const obs::UpdateSpan* span : spans_->all()) {
        if (span->resync || span->chunk ||
            span->intent.vip.to_string() != violation.vip) {
          continue;
        }
        for (const auto& event : span->leg(span_switch_)) {
          tail.emplace_back(event.at, obs::format_event(event, span->label()));
        }
      }
      std::string header;
      obs::append(header, "trace tail for vip %s", violation.vip.c_str());
      if (violation.version) {
        obs::append(header, " version %u", *violation.version);
      }
      print(header, std::move(tail));
    }
    if (dumped.empty()) print("trace tail", ring_tail(trace_.events()));
  }
  if (!violations.empty()) {
    // Durable incident record: every event of the trace ring interleaved
    // with every overlapping update/resync span, written to
    // SILKROAD_TELEMETRY_DIR (no-op when the env var is unset).
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
