// Packet-level cross-validation of the flow-level model.
//
// The scenario driver (scenario.h) audits PCC by probing flows exactly at
// mapping-risk events, under the assumption that a balancer's mapping is
// constant between such events. This runner discharges that assumption
// empirically: it materializes every packet of every flow (one per configured
// interval, modeling a flow that always has a packet within an RTT) and
// checks each packet's DIP directly. Orders of magnitude more expensive, so
// it runs small workloads — its job is to agree with the flow-level results,
// not to replace them (see PacketLevelAgreement tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "lb/load_balancer.h"
#include "lb/start_chain.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "workload/flow_gen.h"
#include "workload/update_gen.h"

namespace silkroad::lb {

class PacketLevelRunner {
 public:
  struct Config {
    /// Inter-packet gap within a flow (the data-center RTT scale; every
    /// mapping change lasting at least this long is observed).
    sim::Time packet_interval = 10 * sim::kMillisecond;
    /// Payload size attached to each packet.
    std::uint32_t packet_bytes = 1000;
  };

  /// Snapshot view assembled from the runner's metrics registry at the end
  /// of run() — the registry (silkroad_packet_level_*) is the source of
  /// truth.
  struct Stats {
    std::uint64_t flows = 0;
    std::uint64_t packets = 0;
    std::uint64_t violations = 0;  // flows whose mapping changed mid-life
    std::uint64_t unmapped_flows = 0;
    double violation_fraction = 0;
  };

  /// `config.packet_interval` must be positive.
  PacketLevelRunner(sim::Simulator& simulator, LoadBalancer& lb,
                    const Config& config);

  PacketLevelRunner(const PacketLevelRunner&) = delete;
  PacketLevelRunner& operator=(const PacketLevelRunner&) = delete;

  /// Runs `flows` against `updates` (VIPs/pools must already be configured
  /// on the balancer) and audits every packet.
  Stats run(const std::vector<workload::Flow>& flows,
            const std::vector<workload::DipUpdate>& updates);

  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

 private:
  /// One flow's audit state, indexed like the flows passed to run().
  struct FlowState {
    net::Endpoint first_dip;
    bool established = false;  // the SYN got a DIP
    bool violated = false;
  };

  /// Sends flow `index`'s packet that is due now, audits it, and schedules
  /// the flow's next packet: one per interval strictly before the flow's
  /// end, then the FIN at its end.
  void send_packet(std::size_t index, bool syn, bool fin);

  sim::Simulator& sim_;
  LoadBalancer& lb_;
  Config config_;
  /// The flows of the current run() and their audit state.
  const std::vector<workload::Flow>* run_flows_ = nullptr;
  std::vector<FlowState> states_;
  /// Queues the run's flow starts one at a time.
  StartChain starts_;
  std::size_t open_flows_ = 0;  // established, FIN not yet sent
  /// DIPs currently out of service (server-down exemption, as in Scenario).
  std::unordered_set<net::Endpoint, net::EndpointHash> down_dips_;
  obs::MetricsRegistry metrics_;
  obs::Counter* packets_ = nullptr;
  obs::Counter* flows_ = nullptr;
  obs::Counter* violations_ = nullptr;
  obs::Counter* unmapped_flows_ = nullptr;
};

}  // namespace silkroad::lb
