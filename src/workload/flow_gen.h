// Connection (flow) arrival generator (paper §3.2, §6.2).
//
// Per-VIP Poisson arrivals with heavy-tailed flow durations. Two built-in
// duration profiles match the traces the paper simulates: "Hadoop" (median
// flow duration 10 s) and "cache" (median 4.5 min), both from the Facebook
// datacenter study the paper cites. Each flow carries a rate so traffic
// volume (for SLB-load accounting) can be integrated over time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/five_tuple.h"
#include "sim/distributions.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace silkroad::workload {

/// Flow duration/size profile.
struct FlowProfile {
  std::string name = "hadoop";
  /// Duration distribution (seconds): log-normal by quantiles.
  double duration_median_s = 10.0;
  double duration_p99_s = 300.0;
  /// Per-flow average rate (bits/sec): log-normal by quantiles.
  double rate_median_bps = 1e6;
  double rate_p99_bps = 5e7;

  static FlowProfile hadoop() {
    return {"hadoop", 10.0, 300.0, 1e6, 5e7};
  }
  static FlowProfile cache() {
    return {"cache", 270.0, 3600.0, 4e5, 2e7};
  }
  /// Persistent connections (Frontends): few, long, high volume.
  static FlowProfile persistent() {
    return {"persistent", 1800.0, 36000.0, 2e7, 5e8};
  }
};

/// A generated connection.
struct Flow {
  net::FiveTuple tuple;
  sim::Time start = 0;
  sim::Time end = 0;
  double rate_bps = 0;
  std::size_t vip_index = 0;
};

/// Generates flows for a set of VIPs and feeds them to a consumer through
/// the simulator: `on_start` fires at each flow's start time and `on_end` at
/// its end time. Synthesis is lazy (event-driven), so multi-minute scenarios
/// with large aggregate arrival rates do not pre-materialize their flows.
class FlowGenerator {
 public:
  struct VipLoad {
    net::Endpoint vip;
    double arrivals_per_min = 1000;
    FlowProfile profile;
    bool ipv6_clients = false;
  };

  using FlowCallback = std::function<void(const Flow&)>;

  FlowGenerator(sim::Simulator& simulator, std::vector<VipLoad> vips,
                std::uint64_t seed);

  /// Starts generation: schedules arrivals in [0, horizon). `on_end` may
  /// fire after `horizon` (flows outlive the arrival window).
  void start(sim::Time horizon, FlowCallback on_start, FlowCallback on_end);

  /// Scales all arrival rates by `factor` (Fig. 17's sweep).
  void scale_arrivals(double factor);

  /// Time-varying rate multiplier (diurnal load: the paper sizes for "the
  /// peak hour of a day", §6.1). Applied on top of each VIP's base rate;
  /// must return a positive factor. Set before start().
  using RateModulation = std::function<double(sim::Time)>;
  void set_rate_modulation(RateModulation modulation) {
    modulation_ = std::move(modulation);
  }

 private:
  void schedule_next_arrival(std::size_t vip_index);
  Flow synthesize(std::size_t vip_index);

  sim::Simulator& sim_;
  std::vector<VipLoad> vips_;
  std::vector<sim::Rng> rngs_;
  std::vector<sim::LogNormalByQuantiles> duration_dists_;
  std::vector<sim::LogNormalByQuantiles> rate_dists_;
  sim::Time horizon_ = 0;
  FlowCallback on_start_;
  FlowCallback on_end_;
  RateModulation modulation_;
  std::uint32_t next_client_id_ = 1;
  /// Started flows awaiting their end event, which captures only the slot.
  std::vector<Flow> open_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace silkroad::workload
