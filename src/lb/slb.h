// Software load balancer (SLB) — the Maglev/Ananta-class baseline (§2.2).
//
// Both VIPTable (Maglev consistent hashing) and ConnTable (an in-memory hash
// map) live in server software. Updates are applied atomically under a lock
// with new connections buffered, so the SLB never violates PCC — its costs
// are elsewhere: every packet is handled in software (x86 pps limits, 50 µs -
// 1 ms added latency), which is what Figs. 5a/13 and the cost table charge.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "lb/load_balancer.h"
#include "lb/maglev.h"
#include "obs/metrics.h"
#include "sim/distributions.h"
#include "sim/random.h"

namespace silkroad::lb {

class SoftwareLoadBalancer : public LoadBalancer {
 public:
  struct Config {
    /// Maglev lookup-table size (prime).
    std::size_t maglev_table_size = 65537;
    /// Capacity envelope constants used for cost/scaling math (not enforced
    /// per-packet): the state-of-the-art 8-core SLB forwards 12 Mpps [20].
    double max_mpps = 12.0;
    double nic_gbps = 10.0;
    double added_latency_us_min = 50.0;
    double added_latency_us_max = 1000.0;
    double watts = 200.0;
    double cost_usd = 3000.0;
  };

  SoftwareLoadBalancer() : SoftwareLoadBalancer(Config{}) {}
  explicit SoftwareLoadBalancer(const Config& config)
      : config_(config),
        latency_dist_(sim::LogNormalByQuantiles::from_median_p99(
            config.added_latency_us_min * 2, config.added_latency_us_max)),
        latency_rng_(0x51B1A7ULL) {}

  std::string name() const override { return "slb"; }

  void add_vip(const net::Endpoint& vip,
               const std::vector<net::Endpoint>& dips) override;
  void request_update(const workload::DipUpdate& update) override;
  PacketResult process_packet(const net::Packet& packet) override;
  void set_mapping_risk_callback(MappingRiskCallback cb) override {
    risk_cb_ = std::move(cb);
  }
  bool vip_at_slb(const net::Endpoint&) const override { return true; }

  std::size_t conn_table_size() const { return conn_table_.size(); }
  const Config& config() const noexcept { return config_; }

  /// Optional telemetry: registers the SLB's packet-path counters
  /// (silkroad_slb_*) in `registry`. Call before traffic; the registry must
  /// outlive the balancer.
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  struct VipState {
    std::vector<net::Endpoint> dips;
    MaglevTable maglev;
  };

  Config config_;
  /// Per-packet software latency (batching + queueing): log-normal with the
  /// paper's 50 µs - 1 ms envelope (§2.2).
  sim::LogNormalByQuantiles latency_dist_;
  sim::Rng latency_rng_;
  std::unordered_map<net::Endpoint, VipState, net::EndpointHash> vips_;
  std::unordered_map<net::FiveTuple, net::Endpoint, net::FiveTupleHash>
      conn_table_;
  MappingRiskCallback risk_cb_;
  /// Null until bind_metrics().
  obs::Counter* packets_ = nullptr;
  obs::Counter* new_conns_ = nullptr;
  obs::Counter* conn_table_hits_ = nullptr;
};

}  // namespace silkroad::lb
