#include "obs/stage_profiler.h"

namespace silkroad::obs {

StageProfiler::StageProfiler(MetricsRegistry& registry,
                             const std::string& prefix, std::size_t stages) {
  stages_.reserve(stages);
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string label = "stage=\"" + std::to_string(i) + "\"";
    Stage stage;
    stage.hits = registry.counter(prefix + "_stage_hits_total",
                                  "table hits at the stage", label);
    stage.misses = registry.counter(prefix + "_stage_misses_total",
                                    "table misses at the stage", label);
    registry.register_callback(
        prefix + "_stage_packets_total", MetricKind::kCounter,
        [hits = stage.hits, misses = stage.misses] {
          return static_cast<double>(hits->value() + misses->value());
        },
        "packets examined by the stage", label);
    stages_.push_back(stage);
  }
}

}  // namespace silkroad::obs
