// Checkpointed per-switch state snapshots (DESIGN.md §16).
//
// A switch's durable recovery anchor: the membership the controller has
// applied to it, plus the journal position that state is applied through.
// Checkpoints are taken on a mutation cadence and at every resync-chunk
// boundary, so a replica that crashes mid-resync restarts its next session
// from the last acknowledged chunk's watermark — not from zero.
//
// The store survives fail_switch() (it models durable storage on the switch
// management plane); restore_switch() replays the snapshot into the wiped
// switch before requesting the journal suffix past its watermark.
#pragma once

#include <cstdint>
#include <vector>

#include "net/endpoint.h"

namespace silkroad::deploy {

struct SwitchSnapshot {
  /// Journal position this state is applied through.
  std::uint64_t watermark = 0;
  /// Per-VIP membership in provisioning order, DIPs sorted for run-to-run
  /// and platform determinism (srlint R10).
  std::vector<net::VipMembers> vips;

  bool empty() const noexcept { return watermark == 0 && vips.empty(); }
  /// Modeled serialized size (same wire model as fault/sync_wire.h).
  std::size_t wire_size() const noexcept;
};

class SnapshotStore {
 public:
  explicit SnapshotStore(std::size_t switches) : snapshots_(switches) {}

  /// Replaces switch `index`'s durable snapshot.
  void checkpoint(std::size_t index, SwitchSnapshot snapshot);

  const SwitchSnapshot& at(std::size_t index) const {
    return snapshots_.at(index);
  }

  std::size_t size() const noexcept { return snapshots_.size(); }
  std::uint64_t checkpoints() const noexcept { return checkpoints_; }
  std::size_t total_wire_size() const noexcept;

 private:
  std::vector<SwitchSnapshot> snapshots_;
  std::uint64_t checkpoints_ = 0;
};

}  // namespace silkroad::deploy
