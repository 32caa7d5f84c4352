// Versioned journal of controller desired-state mutations (DESIGN.md §16).
//
// Every add_vip / request_update the controller accepts is appended here
// under a monotone fleet log position before it is fanned out. A lagging
// replica's resync session replays only the suffix past its applied-through
// watermark; the journal is bounded, and once compaction has dropped entries
// the watermark still needs, the session escalates to a full-state transfer.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "fault/sync_wire.h"

namespace silkroad::deploy {

class MutationJournal {
 public:
  /// Entries retained before compaction drops the oldest. The capacity is
  /// the fleet's "compaction horizon": a replica whose watermark falls
  /// behind it can no longer be served a delta.
  explicit MutationJournal(std::size_t capacity);

  /// Appends one mutation and returns its log position (monotone from 1).
  /// May compact the oldest retained entries to honor the capacity.
  std::uint64_t append(fault::JournalMutation mutation);

  /// Newest assigned position (0 before the first append).
  std::uint64_t head_pos() const noexcept { return next_pos_ - 1; }
  /// Oldest retained position; head_pos()+1 when nothing is retained.
  std::uint64_t first_pos() const noexcept {
    return entries_.empty() ? next_pos_ : entries_.front().pos;
  }
  /// True when every entry past `watermark` is still retained — i.e. a
  /// replica applied through `watermark` can catch up with a delta.
  bool covers(std::uint64_t watermark) const noexcept {
    return first_pos() <= watermark + 1;
  }
  /// Copies of every retained entry with pos > `watermark`, ascending.
  std::vector<fault::JournalRecord> suffix_since(
      std::uint64_t watermark) const;

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t appended() const noexcept { return next_pos_ - 1; }
  /// Entries dropped by compaction since construction.
  std::uint64_t compacted() const noexcept { return compacted_; }
  /// Modeled serialized size of the retained suffix.
  std::size_t retained_wire_size() const noexcept { return wire_size_; }

 private:
  std::size_t capacity_;
  std::deque<fault::JournalRecord> entries_;
  std::uint64_t next_pos_ = 1;
  std::uint64_t compacted_ = 0;
  std::size_t wire_size_ = 0;
};

}  // namespace silkroad::deploy
