// Per-pipeline-stage lookup counters (DESIGN.md §9).
//
// A PISA pipeline's cost structure is per-stage: a ConnTable lookup walks the
// stages in order and the first stage whose table matches wins. The profiler
// materializes that as labeled registry series —
// `<prefix>_stage_hits_total{stage="2"}`, `<prefix>_stage_misses_total`, and
// `<prefix>_stage_packets_total` (hits + misses, derived at snapshot time) —
// so a snapshot answers "which stage serves the traffic" directly. Handles
// are resolved once at construction; recording a lookup costs one counter
// increment per stage the packet reached.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace silkroad::obs {

class StageProfiler {
 public:
  /// Registers hits/misses/packets series for `stages` stages under `prefix`
  /// (e.g. "silkroad_conn_table") in `registry`.
  StageProfiler(MetricsRegistry& registry, const std::string& prefix,
                std::size_t stages);

  std::size_t stages() const noexcept { return stages_.size(); }

  /// One data-plane lookup that first matched at `hit_stage`: every earlier
  /// stage examined the packet and missed. A `hit_stage` of stages() or more
  /// is a full miss — every stage missed.
  void record_lookup(std::size_t hit_stage) noexcept {
    const std::size_t missed = std::min(hit_stage, stages_.size());
    for (std::size_t i = 0; i < missed; ++i) stages_[i].misses->inc();
    if (hit_stage < stages_.size()) stages_[hit_stage].hits->inc();
  }

 private:
  struct Stage {
    Counter* hits = nullptr;
    Counter* misses = nullptr;
  };
  std::vector<Stage> stages_;
};

}  // namespace silkroad::obs
