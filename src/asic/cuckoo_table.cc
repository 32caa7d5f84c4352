#include "asic/cuckoo_table.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_set>

#include "check/sr_check.h"

namespace silkroad::asic {

DigestCuckooTable::DigestCuckooTable(const CuckooConfig& config)
    : config_(config),
      slots_(config.stages * config.buckets_per_stage * config.ways),
      shadow_keys_(slots_.size()) {
  SR_CHECKF(config_.stages >= 2, "cuckoo needs at least two stages");
  SR_CHECK(config_.buckets_per_stage > 0 && config_.ways > 0);
}

std::uint32_t DigestCuckooTable::bucket_of(const net::FiveTuple& key,
                                           std::uint32_t stage) const {
  return static_cast<std::uint32_t>(
      net::hash_five_tuple(key, stage_seed(stage)) % config_.buckets_per_stage);
}

std::optional<DigestCuckooTable::LookupResult> DigestCuckooTable::lookup(
    const net::FiveTuple& key) const {
  const std::uint32_t digest = digest_of(key);
  for (std::uint32_t stage = 0; stage < config_.stages; ++stage) {
    const std::uint32_t bucket = bucket_of(key, stage);
    for (std::uint32_t way = 0; way < config_.ways; ++way) {
      const SlotRef ref{stage, bucket, way};
      const Slot& slot = slots_[flat_index(ref)];
      if (slot.used && slot.digest == digest) {
        return LookupResult{slot.value, ref};
      }
    }
  }
  return std::nullopt;
}

bool DigestCuckooTable::is_false_positive(const net::FiveTuple& key,
                                          const SlotRef& slot) const {
  const std::size_t idx = flat_index(slot);
  return slots_[idx].used && !(shadow_keys_[idx] == key);
}

bool DigestCuckooTable::contains(const net::FiveTuple& key) const {
  return index_.contains(key);
}

std::optional<std::uint32_t> DigestCuckooTable::exact_value(
    const net::FiveTuple& key) const {
  const std::uint32_t* slot = index_.find(key);
  if (slot == nullptr) return std::nullopt;
  return slots_[*slot].value;
}

bool DigestCuckooTable::update_value(const net::FiveTuple& key,
                                     std::uint32_t value) {
  const std::uint32_t* slot = index_.find(key);
  if (slot == nullptr) return false;
  slots_[*slot].value = value;
  return true;
}

void DigestCuckooTable::place(const net::FiveTuple& key, std::uint32_t value,
                              const SlotRef& ref) {
  const std::size_t idx = flat_index(ref);
  SR_DCHECK(!slots_[idx].used);
  slots_[idx] = Slot{true, digest_of(key), value};
  shadow_keys_[idx] = key;
  const auto slot = static_cast<std::uint32_t>(idx);
  index_.try_emplace(slot, slot);
}

void DigestCuckooTable::move_entry(const SlotRef& from, const SlotRef& to) {
  const std::size_t src = flat_index(from);
  const std::size_t dst = flat_index(to);
  SR_DCHECK(slots_[src].used && !slots_[dst].used);
  slots_[dst] = slots_[src];
  shadow_keys_[dst] = shadow_keys_[src];
  slots_[src].used = false;
  // Re-key the index: its entry names the slot.
  index_.erase(static_cast<std::uint32_t>(src));
  index_.try_emplace(static_cast<std::uint32_t>(dst),
                     static_cast<std::uint32_t>(dst));
  total_moves_.inc();
}

std::optional<SlotRef> DigestCuckooTable::find_free_slot(
    const net::FiveTuple& key) const {
  for (std::uint32_t stage = 0; stage < config_.stages; ++stage) {
    const std::uint32_t bucket = bucket_of(key, stage);
    for (std::uint32_t way = 0; way < config_.ways; ++way) {
      const SlotRef ref{stage, bucket, way};
      if (!slots_[flat_index(ref)].used) return ref;
    }
  }
  return std::nullopt;
}

namespace {
/// Breadth-first cuckoo search node: an occupied slot whose occupant will be
/// displaced toward the path's tail.
struct BfsNode {
  SlotRef slot;
  int parent;  // index into the arena, -1 for roots
};
}  // namespace

DigestCuckooTable::InsertResult DigestCuckooTable::insert(
    const net::FiveTuple& key, std::uint32_t value) {
  if (const std::uint32_t* slot = index_.find(key)) {
    // Re-learn of an existing connection: refresh action data.
    slots_[*slot].value = value;
    return InsertResult{true, 0};
  }
  // Fast path: a free way in one of the key's buckets.
  if (const auto free = find_free_slot(key)) {
    place(key, value, *free);
    if (trace_ != nullptr) {
      trace_->record(obs::EventKind::kCuckooInsert, obs::kNoScope, value,
                     net::flow_id(key));
    }
    return InsertResult{true, 0};
  }
  // BFS cuckoo over displacement chains.
  std::vector<BfsNode> arena;
  arena.reserve(config_.max_bfs_nodes);
  std::unordered_set<std::uint64_t> visited;  // (stage, bucket) pairs
  const auto bucket_key = [this](std::uint32_t stage, std::uint32_t bucket) {
    return static_cast<std::uint64_t>(stage) * config_.buckets_per_stage +
           bucket;
  };
  for (std::uint32_t stage = 0; stage < config_.stages; ++stage) {
    const std::uint32_t bucket = bucket_of(key, stage);
    if (!visited.insert(bucket_key(stage, bucket)).second) continue;
    for (std::uint32_t way = 0; way < config_.ways; ++way) {
      arena.push_back(BfsNode{SlotRef{stage, bucket, way}, -1});
    }
  }
  for (std::size_t head = 0;
       head < arena.size() && arena.size() < config_.max_bfs_nodes; ++head) {
    const BfsNode node = arena[head];
    const net::FiveTuple occupant = shadow_keys_[flat_index(node.slot)];
    for (std::uint32_t stage = 0; stage < config_.stages; ++stage) {
      if (stage == node.slot.stage) continue;
      const std::uint32_t bucket = bucket_of(occupant, stage);
      // A free way here terminates the search: unwind the chain.
      for (std::uint32_t way = 0; way < config_.ways; ++way) {
        const SlotRef target{stage, bucket, way};
        if (!slots_[flat_index(target)].used) {
          std::size_t moves = 0;
          SlotRef to = target;
          int at = static_cast<int>(head);
          while (at >= 0) {
            const BfsNode& n = arena[static_cast<std::size_t>(at)];
            move_entry(n.slot, to);
            ++moves;
            to = n.slot;
            at = n.parent;
          }
          place(key, value, to);
          if (trace_ != nullptr) {
            const std::uint64_t fid = net::flow_id(key);
            trace_->record(obs::EventKind::kCuckooInsert, obs::kNoScope,
                           value, fid, moves);
            trace_->record(obs::EventKind::kCuckooEvict, obs::kNoScope,
                           value, fid, moves);
          }
          return InsertResult{true, moves};
        }
      }
      if (!visited.insert(bucket_key(stage, bucket)).second) continue;
      for (std::uint32_t way = 0; way < config_.ways; ++way) {
        if (arena.size() >= config_.max_bfs_nodes) break;
        arena.push_back(
            BfsNode{SlotRef{stage, bucket, way}, static_cast<int>(head)});
      }
    }
  }
  failed_inserts_.inc();
  if (trace_ != nullptr) {
    trace_->record(obs::EventKind::kCuckooInsertFail, obs::kNoScope,
                   value, net::flow_id(key));
  }
  return InsertResult{false, 0};
}

bool DigestCuckooTable::erase(const net::FiveTuple& key) {
  const std::uint32_t* found = index_.find(key);
  if (found == nullptr) return false;
  const std::uint32_t slot = *found;
  slots_[slot].used = false;
  index_.erase(slot);
  return true;
}

void DigestCuckooTable::touch(const SlotRef& slot, std::uint64_t stamp) {
  Slot& s = slots_[flat_index(slot)];
  if (s.used) s.last_hit = stamp;
}

void DigestCuckooTable::touch_exact(const net::FiveTuple& key,
                                    std::uint64_t stamp) {
  if (const std::uint32_t* slot = index_.find(key)) {
    if (slots_[*slot].used) slots_[*slot].last_hit = stamp;
  }
}

std::vector<net::FiveTuple> DigestCuckooTable::collect_idle(
    std::uint64_t older_than) const {
  std::vector<net::FiveTuple> idle;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].used && slots_[i].last_hit < older_than) {
      idle.push_back(shadow_keys_[i]);
    }
  }
  return idle;
}

std::size_t DigestCuckooTable::used_in_stage(
    std::uint32_t stage) const noexcept {
  if (stage >= config_.stages) return 0;
  const std::size_t per_stage = config_.buckets_per_stage * config_.ways;
  const std::size_t begin = static_cast<std::size_t>(stage) * per_stage;
  std::size_t used = 0;
  for (std::size_t i = begin; i < begin + per_stage; ++i) {
    if (slots_[i].used) ++used;
  }
  return used;
}

std::vector<DigestCuckooTable::StageOccupancy>
DigestCuckooTable::stage_occupancy(std::size_t bins) const {
  bins = std::max<std::size_t>(1, std::min(bins, config_.buckets_per_stage));
  std::vector<StageOccupancy> rows(config_.stages);
  for (std::uint32_t stage = 0; stage < config_.stages; ++stage) {
    StageOccupancy& row = rows[stage];
    row.stage = stage;
    row.capacity = config_.buckets_per_stage * config_.ways;
    row.bins.assign(bins, 0);
    for (std::uint32_t bucket = 0; bucket < config_.buckets_per_stage;
         ++bucket) {
      const std::size_t bin = bucket * bins / config_.buckets_per_stage;
      for (std::uint32_t way = 0; way < config_.ways; ++way) {
        if (slots_[flat_index(SlotRef{stage, bucket, way})].used) {
          ++row.bins[bin];
          ++row.used;
        }
      }
    }
    // Bucket-range sizes differ by at most one when bins does not divide the
    // bucket count; report the largest so heat normalizes conservatively.
    row.bin_capacity =
        (config_.buckets_per_stage + bins - 1) / bins * config_.ways;
  }
  return rows;
}

bool DigestCuckooTable::relocate_for(const net::FiveTuple& arriving,
                                     const SlotRef& slot) {
  const std::size_t idx = flat_index(slot);
  if (!slots_[idx].used) return false;
  const net::FiveTuple resident = shadow_keys_[idx];
  const std::uint32_t resident_value = slots_[idx].value;
  // A stage is conflict-free if the two keys address different buckets there
  // (the digests are equal by construction of a false positive, so bucket
  // separation is the only way to disambiguate).
  const auto conflict_free = [&](std::uint32_t stage) {
    return bucket_of(resident, stage) != bucket_of(arriving, stage);
  };
  // Pass 1: free way in a conflict-free stage.
  for (std::uint32_t stage = 0; stage < config_.stages; ++stage) {
    if (stage == slot.stage || !conflict_free(stage)) continue;
    const std::uint32_t bucket = bucket_of(resident, stage);
    for (std::uint32_t way = 0; way < config_.ways; ++way) {
      const SlotRef target{stage, bucket, way};
      if (!slots_[flat_index(target)].used) {
        move_entry(slot, target);
        return true;
      }
    }
  }
  // Pass 2: evict an occupant of a conflict-free bucket into its own
  // alternative position, then take its slot (one level of displacement;
  // deeper chains are overwhelmingly unnecessary at realistic occupancies).
  for (std::uint32_t stage = 0; stage < config_.stages; ++stage) {
    if (stage == slot.stage || !conflict_free(stage)) continue;
    const std::uint32_t bucket = bucket_of(resident, stage);
    for (std::uint32_t way = 0; way < config_.ways; ++way) {
      const SlotRef victim_ref{stage, bucket, way};
      const net::FiveTuple victim = shadow_keys_[flat_index(victim_ref)];
      for (std::uint32_t vstage = 0; vstage < config_.stages; ++vstage) {
        if (vstage == stage) continue;
        const std::uint32_t vbucket = bucket_of(victim, vstage);
        for (std::uint32_t vway = 0; vway < config_.ways; ++vway) {
          const SlotRef vtarget{vstage, vbucket, vway};
          if (!slots_[flat_index(vtarget)].used) {
            move_entry(victim_ref, vtarget);
            move_entry(slot, victim_ref);
            return true;
          }
        }
      }
    }
  }
  // Pass 3: as a last resort, erase + full BFS reinsert of the resident with
  // the conflicting placements masked out by temporarily occupying them is
  // not modeled; report failure and let the control plane fall back.
  (void)resident_value;
  return false;
}

}  // namespace silkroad::asic
