// Deterministic 1-in-N packet latency profiler (DESIGN.md §14).
//
// Timing every packet is exactly the overhead a hot-path telemetry layer exists
// to avoid, so SamplingProfiler samples roughly one packet in `period`:
// begin_packet() is a single non-atomic countdown decrement on the fast path,
// and only a sampled packet pays for stage bookkeeping and histogram records.
// The gap between samples is drawn uniformly from [1, 2*period) out of a seeded
// sim::Rng, so the mean sampling rate is 1/period, periodic traffic patterns
// cannot alias with the sampler, and two runs with the same seed sample the
// exact same packet indices — determinism is a first-class property (tested).
//
// Sampled latencies land in log-scaled HDR-style histograms
// (`<prefix>_stage_latency_ns{stage="<name>"}`) plus optional per-VIP
// histograms from vip_series(); /profile renders their p50/p99/p999. Stage
// scopes carry a re-entry guard: a nested enter() bumps
// `<prefix>_profiler_reentry_total{stage=...}` and is ignored.
//
// Thread model: one SamplingProfiler instance belongs to one data-plane
// thread (the countdown and open flags are plain fields); the registry
// series it writes are atomic and safe to scrape from any thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/random.h"

namespace silkroad::obs {

class SamplingProfiler {
 public:
  struct Options {
    /// Mean packets per sample; <= 1 samples every packet.
    std::uint64_t period = 64;
    /// Seed for the gap stream — same seed, same sampled packet indices.
    std::uint64_t seed = 0x5A3D1E5ULL;
    Histogram::Options histogram;
  };

  /// Registers per-stage latency histograms (`stage` labeled with the given
  /// names), the sampled-packet counter, and re-entry counters under
  /// `prefix` in `registry`.
  SamplingProfiler(MetricsRegistry& registry, std::string prefix,
                   std::vector<std::string> stage_names,
                   const Options& options);
  SamplingProfiler(MetricsRegistry& registry, std::string prefix,
                   std::vector<std::string> stage_names);

  /// Call once per packet. Returns true when this packet is sampled; only
  /// then do enter()/exit()/vip histograms record anything. One countdown
  /// decrement when not sampled.
  bool begin_packet() noexcept {
    if (--countdown_ > 0) {
      sampling_ = false;
      return false;
    }
    countdown_ = next_gap();
    sampling_ = true;
    sampled_packets_->inc();
    return true;
  }

  /// Whether the current packet (last begin_packet()) is being sampled.
  bool sampling() const noexcept { return sampling_; }

  /// Opens a timing scope on `stage` for a sampled packet. No-op when not
  /// sampling; a nested enter bumps the stage's re-entry counter and returns
  /// false so the scope cannot double-record.
  bool enter(std::size_t stage) noexcept {
    if (!sampling_ || stage >= stages_.size()) return false;
    Stage& s = stages_[stage];
    if (s.open) {
      s.reentries->inc();
      return false;
    }
    s.open = true;
    return true;
  }

  /// Closes the scope and records `ns` into the stage's latency histogram.
  /// Ignored without a matching open scope.
  void exit(std::size_t stage, std::uint64_t ns) noexcept {
    if (!sampling_ || stage >= stages_.size()) return;
    Stage& s = stages_[stage];
    if (!s.open) return;
    s.open = false;
    s.latency->record(ns);
  }

  /// Per-VIP sampled-latency histogram (`<prefix>_vip_latency_ns{vip=...}`),
  /// registered on first use. Call at VIP-add time and cache the handle;
  /// record into it only when sampling().
  Histogram* vip_series(const std::string& vip);

  std::uint64_t period() const noexcept { return period_; }
  std::uint64_t sampled_packets() const noexcept {
    return sampled_packets_->value();
  }

 private:
  struct Stage {
    Histogram* latency = nullptr;
    Counter* reentries = nullptr;
    bool open = false;
  };

  std::uint64_t next_gap() noexcept {
    if (period_ <= 1) return 1;
    return 1 + rng_.uniform_int(2 * period_ - 1);
  }

  MetricsRegistry& registry_;
  std::string prefix_;
  std::uint64_t period_;
  Histogram::Options histogram_options_;
  sim::Rng rng_;
  std::uint64_t countdown_ = 1;
  bool sampling_ = false;
  std::vector<Stage> stages_;
  Counter* sampled_packets_ = nullptr;
};

}  // namespace silkroad::obs
