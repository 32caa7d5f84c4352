#include "obs/sampling_profiler.h"

#include <utility>

namespace silkroad::obs {

SamplingProfiler::SamplingProfiler(MetricsRegistry& registry,
                                   std::string prefix,
                                   std::vector<std::string> stage_names,
                                   const Options& options)
    : registry_(registry),
      prefix_(std::move(prefix)),
      period_(options.period),
      histogram_options_(options.histogram),
      rng_(options.seed) {
  stages_.reserve(stage_names.size());
  for (const std::string& name : stage_names) {
    const std::string label = "stage=\"" + name + "\"";
    Stage stage;
    stage.latency = registry_.histogram(
        prefix_ + "_stage_latency_ns",
        "sampled per-packet latency at the stage, ns", label,
        histogram_options_);
    stage.reentries = registry_.counter(
        prefix_ + "_profiler_reentry_total",
        "nested enter() on an already-open stage scope (double-accounting "
        "avoided and counted here)",
        label);
    stages_.push_back(stage);
  }
  sampled_packets_ = registry_.counter(
      prefix_ + "_sampled_packets_total",
      "packets selected by the deterministic 1-in-N sampler");
  countdown_ = next_gap();
}

SamplingProfiler::SamplingProfiler(MetricsRegistry& registry,
                                   std::string prefix,
                                   std::vector<std::string> stage_names)
    : SamplingProfiler(registry, std::move(prefix), std::move(stage_names),
                       Options{}) {}

Histogram* SamplingProfiler::vip_series(const std::string& vip) {
  return registry_.histogram(prefix_ + "_vip_latency_ns",
                             "sampled per-packet latency for the VIP, ns",
                             "vip=\"" + vip + "\"", histogram_options_);
}

}  // namespace silkroad::obs
