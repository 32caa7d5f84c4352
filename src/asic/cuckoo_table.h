// Multi-stage digest exact-match table with cuckoo insertion — the hardware
// substrate of SilkRoad's ConnTable (paper §4.1, §4.2).
//
// Data plane (ASIC side): the table spans several physical pipeline stages;
// each stage has its own addressing hash function. A lookup addresses one
// SRAM word (bucket) per stage and compares the packed entries' stored
// *digests* against the packet's digest; the first stage that matches wins.
// Because only a digest is stored, two distinct connections can collide
// (same stage bucket + same digest): a *false positive*, resolved by the
// control plane (§4.2, SYN redirection + entry relocation).
//
// Control plane (switch CPU side): insertion requires finding an empty slot,
// possibly rearranging existing entries over a sequence of moves (BFS cuckoo).
// This is too complex for the ASIC and runs on the switch CPU — which is
// exactly why ConnTable insertion is slow and why SilkRoad needs the
// TransitTable to guarantee PCC (§4.3). The CPU keeps shadow state with each
// entry's full 5-tuple; the ASIC stores only digest + value. The shadow
// tuples sit in an array parallel to the slots, so one pass in slot order
// reads every entry as both sides see it (the invariant auditor's walk).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "asic/sram.h"
#include "net/five_tuple.h"
#include "net/flat_map.h"
#include "net/hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace silkroad::check {
struct TestingHooks;
}  // namespace silkroad::check

namespace silkroad::asic {

struct CuckooConfig {
  /// Physical stages the table is instantiated on.
  std::size_t stages = 4;
  /// SRAM words (buckets) per stage; each word packs `ways` entries.
  std::size_t buckets_per_stage = 1024;
  /// Entries packed per SRAM word (4 for 28-bit SilkRoad entries in 112-bit
  /// words).
  std::size_t ways = 4;
  /// Digest width stored per entry (paper default: 16).
  unsigned digest_bits = 16;
  /// Action-data width per entry (6-bit DIP-pool version in SilkRoad).
  unsigned value_bits = 6;
  /// Packing overhead per entry (instruction + next-table address; §6.1 uses
  /// 6 bits so the ConnTable entry is exactly 28 bits).
  unsigned overhead_bits = 6;
  /// Base seed; stage s uses an independent hash derived from it.
  std::uint64_t hash_seed = 0x517C0ADULL;
  /// BFS search budget for insertion (nodes expanded before giving up).
  std::size_t max_bfs_nodes = 2048;
};

/// Position of an entry: (stage, bucket, way).
struct SlotRef {
  std::uint32_t stage = 0;
  std::uint32_t bucket = 0;
  std::uint32_t way = 0;

  friend bool operator==(const SlotRef&, const SlotRef&) = default;
};

class DigestCuckooTable {
 public:
  explicit DigestCuckooTable(const CuckooConfig& config);
  /// The shadow index points into shadow_keys_.
  DigestCuckooTable(const DigestCuckooTable&) = delete;
  DigestCuckooTable& operator=(const DigestCuckooTable&) = delete;

  struct LookupResult {
    std::uint32_t value = 0;
    SlotRef slot;
  };

  /// ASIC data-plane lookup: first-stage-match-wins digest comparison.
  /// May return a false-positive hit; the ASIC cannot tell.
  std::optional<LookupResult> lookup(const net::FiveTuple& key) const;

  /// CPU-side: true iff the hit at `slot` belongs to a different 5-tuple
  /// than `key` (digest collision).
  bool is_false_positive(const net::FiveTuple& key, const SlotRef& slot) const;

  struct InsertResult {
    bool inserted = false;
    /// Entry moves the cuckoo search performed (0 = direct placement).
    std::size_t moves = 0;
  };

  /// CPU-side insertion. Fails (inserted=false) if the BFS budget is
  /// exhausted — the table is effectively full for this key.
  InsertResult insert(const net::FiveTuple& key, std::uint32_t value);

  /// CPU-side removal (connection expired). Returns false if absent.
  bool erase(const net::FiveTuple& key);

  /// Drops every entry (switch crash/restore: connection state is lost while
  /// the geometry, observers, and monotone counters survive).
  void clear() {
    for (auto& slot : slots_) slot = Slot{};
    for (auto& key : shadow_keys_) key = net::FiveTuple{};
    index_.clear();
  }

  /// CPU-side exact-match presence test (uses shadow state, no digests).
  bool contains(const net::FiveTuple& key) const;

  /// CPU-side value read for an exactly-matching entry.
  std::optional<std::uint32_t> exact_value(const net::FiveTuple& key) const;

  /// CPU-side in-place action-data update for an exactly-matching entry.
  bool update_value(const net::FiveTuple& key, std::uint32_t value);

  /// §4.2 false-positive resolution: relocates the *existing* entry at
  /// `slot` to another stage so that `arriving` no longer falsely hits it
  /// (their buckets differ under that stage's hash). Returns false when no
  /// conflict-free placement exists within the BFS budget.
  bool relocate_for(const net::FiveTuple& arriving, const SlotRef& slot);

  // --- Activity tracking (hardware hit bits, sampled by the CPU) -----------

  /// Records data-plane activity on an entry. ASICs keep a per-entry hit
  /// indication the control plane samples to expire idle connections.
  void touch(const SlotRef& slot, std::uint64_t stamp);

  /// CPU-side activity stamp by exact key (e.g., at insertion time).
  void touch_exact(const net::FiveTuple& key, std::uint64_t stamp);

  /// Collects the keys of entries whose last activity stamp is strictly
  /// older than `older_than` (the CPU's aging sweep), in physical slot order.
  std::vector<net::FiveTuple> collect_idle(std::uint64_t older_than) const;

  // --- Introspection -------------------------------------------------------
  std::size_t size() const noexcept { return index_.size(); }
  std::size_t capacity() const noexcept {
    return config_.stages * config_.buckets_per_stage * config_.ways;
  }
  double occupancy() const noexcept {
    return capacity() == 0
               ? 0.0
               : static_cast<double>(size()) / static_cast<double>(capacity());
  }
  unsigned entry_bits() const noexcept {
    return config_.digest_bits + config_.value_bits + config_.overhead_bits;
  }
  /// SRAM bytes this table's geometry occupies (allocated, not used).
  std::size_t sram_bytes() const noexcept {
    return bits_to_bytes(config_.stages * config_.buckets_per_stage *
                         kSramWordBits);
  }
  const CuckooConfig& config() const noexcept { return config_; }
  std::uint64_t total_moves() const noexcept { return total_moves_.value(); }
  std::uint64_t failed_inserts() const noexcept {
    return failed_inserts_.value();
  }

  /// Calls `visit(key, value)` for every physically occupied slot, with the
  /// slot's shadow 5-tuple and action data, in slot order, and returns how
  /// many it visited. The count equals size() unless the word array and the
  /// CPU shadow index have diverged: the "phantom SRAM accounting"
  /// corruption the invariant auditor detects. Invariant-auditor input.
  template <typename Visit>
  std::size_t for_each_used_slot(Visit&& visit) const {
    std::size_t used = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].used) continue;
      ++used;
      visit(shadow_keys_[i], slots_[i].value);
    }
    return used;
  }

  /// Occupied slots in physical stage `stage` (cuckoo fills earlier stages
  /// first, so the per-stage skew is itself a signal — paper §6.1).
  std::size_t used_in_stage(std::uint32_t stage) const noexcept;

  /// One stage's occupancy heatmap row: `bins` contiguous bucket ranges,
  /// each counting its occupied slots (of bin_capacity possible).
  struct StageOccupancy {
    std::uint32_t stage = 0;
    std::size_t used = 0;      ///< occupied slots in the whole stage
    std::size_t capacity = 0;  ///< slots in the whole stage
    std::size_t bin_capacity = 0;
    std::vector<std::size_t> bins;
  };
  /// Heatmap rows for every stage — the ScrapeServer's /tables payload.
  /// `bins` is clamped to the bucket count.
  std::vector<StageOccupancy> stage_occupancy(std::size_t bins = 16) const;

  // --- Telemetry -----------------------------------------------------------

  /// Attaches structured event tracing (obs layer); null detaches. The ring
  /// must outlive the table. Inserts then emit cuckoo-insert / cuckoo-evict /
  /// cuckoo-insert-fail trace events.
  void bind_trace(obs::TraceRing* trace) noexcept { trace_ = trace; }

  /// Bucket index of `key` at `stage` (exposed for tests/analysis).
  std::uint32_t bucket_of(const net::FiveTuple& key, std::uint32_t stage) const;
  /// The digest stored for `key` (exposed for tests/analysis).
  std::uint32_t digest_of(const net::FiveTuple& key) const {
    return net::connection_digest(key, config_.digest_bits);
  }

 private:
  /// check_test.cc's corruption hooks reach in to break slot/shadow agreement
  /// on purpose, proving the invariant auditor can fail.
  friend struct silkroad::check::TestingHooks;

  struct Slot {
    bool used = false;
    std::uint32_t digest = 0;
    std::uint32_t value = 0;
    /// Last data-plane activity stamp (hit bit + CPU sampling epoch).
    std::uint64_t last_hit = 0;
  };

  std::size_t flat_index(const SlotRef& ref) const noexcept {
    return (static_cast<std::size_t>(ref.stage) * config_.buckets_per_stage +
            ref.bucket) *
               config_.ways +
           ref.way;
  }
  std::uint64_t stage_seed(std::uint32_t stage) const noexcept {
    return net::mix64(config_.hash_seed + 0x9E37 * (stage + 1));
  }

  /// Places `key` in a free way of its bucket at some stage, if one exists.
  std::optional<SlotRef> find_free_slot(const net::FiveTuple& key) const;

  void place(const net::FiveTuple& key, std::uint32_t value, const SlotRef& ref);
  void move_entry(const SlotRef& from, const SlotRef& to);

  CuckooConfig config_;
  std::vector<Slot> slots_;
  /// CPU shadow: full 5-tuple per occupied slot (parallel to slots_).
  std::vector<net::FiveTuple> shadow_keys_;
  /// CPU shadow index: key -> the flat index of its slot. It keys on slot
  /// indices and is searched by 5-tuple through shadow_keys_, so it holds
  /// no copy of the tuple.
  struct ShadowHash {
    const std::vector<net::FiveTuple>* keys;
    std::size_t operator()(const net::FiveTuple& key) const noexcept {
      return net::FiveTupleHash{}(key);
    }
    std::size_t operator()(std::uint32_t slot) const noexcept {
      return (*this)((*keys)[slot]);
    }
  };
  struct ShadowEq {
    const std::vector<net::FiveTuple>* keys;
    bool operator()(std::uint32_t slot,
                    const net::FiveTuple& key) const noexcept {
      return (*keys)[slot] == key;
    }
    bool operator()(std::uint32_t a, std::uint32_t b) const noexcept {
      return a == b;
    }
  };
  net::FlatMap<std::uint32_t, std::uint32_t, ShadowHash, ShadowEq> index_{
      ShadowHash{&shadow_keys_}, ShadowEq{&shadow_keys_}};
  obs::Counter total_moves_;
  obs::Counter failed_inserts_;
  obs::TraceRing* trace_ = nullptr;
};

}  // namespace silkroad::asic
