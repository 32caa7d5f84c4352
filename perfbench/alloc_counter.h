// Heap-allocation counter for the benchmark binary.
//
// alloc_counter.cc replaces the global operator new/delete family, so every
// allocation the simulator makes in this process is counted. The counts are
// deterministic for a given seed, which lets the benchmark hold them exactly
// across repeated runs of the same inputs.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Allocations (and requested bytes) since process start.
AllocCount alloc_count() noexcept;

}  // namespace perfbench
