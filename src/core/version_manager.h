// DIP-pool version management for one VIP (paper §4.2).
//
// SilkRoad compresses ConnTable action data from an 18-byte DIP to a 6-bit
// *DIP-pool version*: every pool update creates (or reuses) a version, new
// connections are stamped with the newest version, and a pool is immutable
// while any connection still uses it. Version numbers are recycled through a
// ring buffer once their pool's reference count drops to zero, and — the key
// optimization Fig. 15 quantifies — an update that adds a DIP where one was
// previously removed *reuses* an existing version by substituting the dead
// slot in place, instead of burning a fresh number.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "lb/dip_pool.h"
#include "net/endpoint.h"
#include "obs/trace.h"
#include "workload/update_gen.h"

namespace silkroad::core {

class VipVersionManager {
 public:
  struct Config {
    /// Width of the version field (paper: 6 bits => 64 versions).
    unsigned version_bits = 6;
    /// Enable in-place dead-slot substitution (Fig. 15 ablation knob).
    bool enable_reuse = true;
  };

  VipVersionManager(net::Endpoint vip, std::vector<net::Endpoint> dips,
                    const Config& config);

  std::uint32_t current_version() const noexcept { return current_; }
  std::size_t version_capacity() const noexcept {
    return std::size_t{1} << config_.version_bits;
  }

  /// `version`'s pool, or nullptr when it is not live. Valid until the next
  /// stage_update.
  const lb::DipPool* pool(std::uint32_t version) const noexcept {
    const PoolInfo* info = find(version);
    return info == nullptr ? nullptr : &info->pool;
  }
  std::optional<net::Endpoint> select(std::uint32_t version,
                                      const net::FiveTuple& flow) const;

  struct StagedUpdate {
    /// Version VIPTable should flip to when the update executes.
    std::uint32_t target_version = 0;
    /// True when an existing version was reused via dead-slot substitution.
    bool reused = false;
  };

  /// Builds the post-update pool and picks its version, without flipping
  /// `current_version()` (the 3-step protocol commits later). Returns
  /// nullopt on version-number exhaustion — the caller must evict a version
  /// (see release/force_destroy) and retry.
  std::optional<StagedUpdate> stage_update(const workload::DipUpdate& update);

  /// Atomic multi-DIP update: applies all changes to one staged pool so a
  /// burst (e.g., a rolling-reboot batch removing two DIPs, or one machine
  /// going down across many VIPs, §3.1) consumes a single version number.
  /// A singleton add still goes through the reuse path.
  std::optional<StagedUpdate> stage_update_batch(
      const std::vector<workload::DipUpdate>& updates);

  /// Flips the current version (t_exec of the 3-step update).
  void commit(std::uint32_t target_version);

  // --- Reference counting (one count per connection using the version) ----
  void acquire(std::uint32_t version);
  /// Releases one reference; destroys the pool and recycles the version when
  /// the count reaches zero and the version is not current.
  void release(std::uint32_t version);
  std::int64_t refcount(std::uint32_t version) const;

  /// Picks the best eviction victim on exhaustion: the non-current version
  /// with the fewest connections. nullopt when only the current version
  /// exists.
  std::optional<std::uint32_t> eviction_candidate() const;

  /// Destroys a version regardless of its reference count (its connections
  /// must have been migrated to exact DIP mappings first).
  void force_destroy(std::uint32_t version);

  /// DIP failure fast path (§7 alternative to version churn): marks the DIP
  /// dead in every version's pool so resilient hashing diverts its flows,
  /// without allocating a version or flipping VIPTable (every pool has
  /// kStableResilient semantics). Returns the number of pools touched.
  std::size_t mark_dip_down(const net::Endpoint& dip);

  // --- Introspection --------------------------------------------------------
  const net::Endpoint& vip() const noexcept { return vip_; }
  std::size_t active_versions() const noexcept { return live_count_; }
  /// Version numbers with a live pool, ascending (invariant-auditor input).
  std::vector<std::uint32_t> live_versions() const;
  /// The recycling ring buffer, oldest first: version numbers currently free
  /// for allocation. A free version must never be referenced anywhere.
  const std::deque<std::uint32_t>& free_versions() const noexcept {
    return free_versions_;
  }
  std::uint64_t versions_allocated() const noexcept { return allocations_; }
  std::uint64_t versions_reused() const noexcept { return reuses_; }
  std::uint64_t exhaustions() const noexcept { return exhaustions_; }
  const Config& config() const noexcept { return config_; }

  /// Wire bytes of all active pools (DIPPoolTable sizing input).
  std::size_t pool_table_bytes() const;

  /// Attaches structured event tracing: version allocate / reuse / recycle /
  /// evict events are recorded under `scope` (the interned VIP name of the
  /// owning switch's TraceRing). The ring must outlive the manager.
  void bind_trace(obs::TraceRing* ring, std::uint32_t scope) noexcept {
    trace_ = ring;
    trace_scope_ = scope;
  }

 private:
  struct PoolInfo {
    lb::DipPool pool;
    std::int64_t refcount = 0;
  };

  std::optional<std::uint32_t> allocate_version();

  /// `version`'s live pool, or nullptr: one bounds-checked index.
  const PoolInfo* find(std::uint32_t version) const noexcept {
    return version < pools_.size() && pools_[version] ? &*pools_[version]
                                                      : nullptr;
  }
  PoolInfo* find(std::uint32_t version) noexcept {
    return const_cast<PoolInfo*>(std::as_const(*this).find(version));
  }
  /// Makes `pool` live as `version`. Growing the table moves every pool, so
  /// no pointer from find() or pool() survives this call.
  void install(std::uint32_t version, lb::DipPool pool);
  /// Destroys `version`'s pool and returns its number to the ring buffer.
  void destroy(std::uint32_t version, obs::EventKind kind);

  net::Endpoint vip_;
  Config config_;
  std::uint32_t current_ = 0;
  /// The version table: slot v holds version v's pool while v is live, so
  /// iterating it visits versions in ascending order. It grows to the
  /// highest number allocated so far, not to version_capacity().
  std::vector<std::optional<PoolInfo>> pools_;
  std::size_t live_count_ = 0;
  /// DIPs removed from the current pool whose servers are (presumed) down —
  /// the substitution targets version reuse may overwrite (§4.2).
  std::set<net::Endpoint> down_dips_;
  std::deque<std::uint32_t> free_versions_;  // the ring buffer
  std::uint64_t allocations_ = 0;
  std::uint64_t reuses_ = 0;
  std::uint64_t exhaustions_ = 0;
  obs::TraceRing* trace_ = nullptr;
  std::uint32_t trace_scope_ = obs::kNoScope;

  void trace_event(obs::EventKind kind, std::uint32_t version) {
    if (trace_ != nullptr) trace_->record(kind, trace_scope_, version);
  }
};

}  // namespace silkroad::core
