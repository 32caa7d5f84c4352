#include "core/version_manager.h"

#include <algorithm>
#include <limits>

#include "check/sr_check.h"

namespace silkroad::core {

VipVersionManager::VipVersionManager(net::Endpoint vip,
                                     std::vector<net::Endpoint> dips,
                                     const Config& config)
    : vip_(vip), config_(config) {
  for (std::uint32_t v = 1; v < version_capacity(); ++v) {
    free_versions_.push_back(v);
  }
  install(0, lb::DipPool(std::move(dips), lb::PoolSemantics::kStableResilient));
  current_ = 0;
  allocations_ = 1;
}

std::optional<net::Endpoint> VipVersionManager::select(
    std::uint32_t version, const net::FiveTuple& flow) const {
  const lb::DipPool* p = pool(version);
  if (p == nullptr) return std::nullopt;
  return p->select(flow);
}

void VipVersionManager::install(std::uint32_t version, lb::DipPool pool) {
  if (pools_.size() <= version) pools_.resize(version + 1);
  SR_CHECKF(!pools_[version], "version %u is already live", version);
  pools_[version].emplace(PoolInfo{std::move(pool), 0});
  ++live_count_;
}

void VipVersionManager::destroy(std::uint32_t version,
                                obs::EventKind kind) {
  pools_[version].reset();
  --live_count_;
  free_versions_.push_back(version);
  trace_event(kind, version);
}

std::optional<std::uint32_t> VipVersionManager::allocate_version() {
  if (free_versions_.empty()) {
    ++exhaustions_;
    return std::nullopt;
  }
  const std::uint32_t v = free_versions_.front();
  free_versions_.pop_front();
  ++allocations_;
  trace_event(obs::EventKind::kVersionAllocate, v);
  return v;
}

std::optional<VipVersionManager::StagedUpdate> VipVersionManager::stage_update(
    const workload::DipUpdate& update) {
  const PoolInfo* cur = find(current_);
  SR_CHECK(cur != nullptr);

  if (update.action == workload::UpdateAction::kAddDip) {
    if (config_.enable_reuse) {
      // Version reuse (paper §4.2, Fig. 7): substitute the returning DIP
      // into a version whose pool still holds a *down* DIP in some slot.
      // Connections of that version mapped to the down slot were already
      // broken by the server going away; every other slot is untouched; no
      // fresh version number is consumed. Candidate ranking:
      //   1. fewer residual down members after substitution is better (new
      //      connections must not land on down servers);
      //   2. substituting the new DIP itself into its old slot beats
      //      substituting a different down DIP;
      //   3. membership closer to the current pool's is better (less load
      //      drift for new connections).
      auto desired = cur->pool.members();
      std::sort(desired.begin(), desired.end());
      std::optional<std::uint32_t> best_version;
      net::Endpoint best_slot_dip;
      std::tuple<std::size_t, int, std::size_t> best_score{SIZE_MAX, 2,
                                                           SIZE_MAX};
      for (std::uint32_t version = 0; version < pools_.size(); ++version) {
        if (version == current_ || !pools_[version]) continue;
        const auto members = pools_[version]->pool.members();
        std::size_t down_members = 0;
        for (const auto& member : members) {
          if (down_dips_.contains(member)) ++down_members;
        }
        for (const auto& member : members) {
          if (!down_dips_.contains(member)) continue;
          const int self_substitution = member == update.dip ? 0 : 1;
          std::size_t drift = 0;  // members not in the desired set
          for (const auto& m : members) {
            if (!(m == member) &&
                !std::binary_search(desired.begin(), desired.end(), m)) {
              ++drift;
            }
          }
          const std::tuple<std::size_t, int, std::size_t> score{
              down_members - 1, self_substitution, drift};
          if (score < best_score) {
            best_score = score;
            best_version = version;
            best_slot_dip = member;
          }
        }
      }
      if (best_version) {
        pools_[*best_version]->pool.replace_member(best_slot_dip, update.dip);
        ++reuses_;
        down_dips_.erase(update.dip);  // the server is back in service
        trace_event(obs::EventKind::kVersionReuse, *best_version);
        return StagedUpdate{*best_version, true};
      }
    }
    down_dips_.erase(update.dip);
  }

  const auto version = allocate_version();
  if (!version) return std::nullopt;
  lb::DipPool next = cur->pool;
  if (update.action == workload::UpdateAction::kAddDip) {
    next.add(update.dip);
  } else {
    // The new version's pool simply omits the DIP (compacted); the old
    // version keeps it addressable so its ongoing connections are untouched.
    down_dips_.insert(update.dip);
    next.erase_member(update.dip);
  }
  install(*version, std::move(next));
  return StagedUpdate{*version, false};
}

std::optional<VipVersionManager::StagedUpdate>
VipVersionManager::stage_update_batch(
    const std::vector<workload::DipUpdate>& updates) {
  if (updates.empty()) return std::nullopt;
  if (updates.size() == 1) return stage_update(updates.front());
  const PoolInfo* cur = find(current_);
  SR_CHECK(cur != nullptr);
  const auto version = allocate_version();
  if (!version) return std::nullopt;
  lb::DipPool next = cur->pool;
  for (const auto& update : updates) {
    if (update.action == workload::UpdateAction::kAddDip) {
      next.add(update.dip);
      down_dips_.erase(update.dip);
    } else {
      down_dips_.insert(update.dip);
      next.erase_member(update.dip);
    }
  }
  install(*version, std::move(next));
  return StagedUpdate{*version, false};
}

void VipVersionManager::commit(std::uint32_t target_version) {
  SR_CHECKF(find(target_version) != nullptr,
            "commit of version %u with no staged pool", target_version);
  const std::uint32_t previous = current_;
  current_ = target_version;
  // The displaced version may already be unreferenced.
  if (previous != current_) {
    const PoolInfo* info = find(previous);
    if (info != nullptr && info->refcount == 0) {
      destroy(previous, obs::EventKind::kVersionRecycle);
    }
  }
}

void VipVersionManager::acquire(std::uint32_t version) {
  PoolInfo* info = find(version);
  SR_CHECKF(info != nullptr, "acquire of dead version %u", version);
  ++info->refcount;
}

void VipVersionManager::release(std::uint32_t version) {
  PoolInfo* info = find(version);
  if (info == nullptr) return;
  SR_CHECKF(info->refcount > 0, "release of version %u underflows its refcount", version);
  if (--info->refcount == 0 && version != current_) {
    destroy(version, obs::EventKind::kVersionRecycle);
  }
}

std::int64_t VipVersionManager::refcount(std::uint32_t version) const {
  const PoolInfo* info = find(version);
  return info == nullptr ? -1 : info->refcount;
}

std::optional<std::uint32_t> VipVersionManager::eviction_candidate() const {
  std::optional<std::uint32_t> best;
  std::int64_t best_count = std::numeric_limits<std::int64_t>::max();
  // Ascending, so ties go to the lowest version number.
  for (std::uint32_t version = 0; version < pools_.size(); ++version) {
    if (version == current_ || !pools_[version]) continue;
    if (pools_[version]->refcount < best_count) {
      best = version;
      best_count = pools_[version]->refcount;
    }
  }
  return best;
}

void VipVersionManager::force_destroy(std::uint32_t version) {
  SR_CHECKF(version != current_, "cannot destroy current version %u", version);
  if (find(version) == nullptr) return;
  destroy(version, obs::EventKind::kVersionEvict);
}

std::size_t VipVersionManager::mark_dip_down(const net::Endpoint& dip) {
  down_dips_.insert(dip);
  std::size_t touched = 0;
  for (auto& info : pools_) {
    if (info && info->pool.remove(dip)) ++touched;
  }
  return touched;
}

std::vector<std::uint32_t> VipVersionManager::live_versions() const {
  std::vector<std::uint32_t> versions;
  versions.reserve(live_count_);
  for (std::uint32_t version = 0; version < pools_.size(); ++version) {
    if (pools_[version]) versions.push_back(version);
  }
  return versions;
}

std::size_t VipVersionManager::pool_table_bytes() const {
  std::size_t total = 0;
  for (const auto& info : pools_) {
    if (info) total += info->pool.wire_bytes();
  }
  return total;
}

}  // namespace silkroad::core
