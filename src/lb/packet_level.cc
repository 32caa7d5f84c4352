#include "lb/packet_level.h"

#include "check/sr_check.h"

namespace silkroad::lb {

PacketLevelRunner::PacketLevelRunner(sim::Simulator& simulator,
                                     LoadBalancer& lb, const Config& config)
    : sim_(simulator), lb_(lb), config_(config) {
  // A zero interval would send a flow's mid-flow packets forever.
  SR_CHECKF(config_.packet_interval > 0,
            "packet_interval must be positive (got %llu ns)",
            static_cast<unsigned long long>(config_.packet_interval));
  packets_ = metrics_.counter("silkroad_packet_level_packets_total",
                              "packets materialized and audited");
  flows_ = metrics_.counter("silkroad_packet_level_flows_total",
                            "flows that established a mapping");
  violations_ = metrics_.counter("silkroad_packet_level_violations_total",
                                 "flows whose mapping changed mid-life");
  unmapped_flows_ = metrics_.counter(
      "silkroad_packet_level_unmapped_flows_total",
      "SYNs that received no DIP");
  metrics_.register_callback(
      "silkroad_packet_level_active_flows", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(open_flows_); },
      "flows currently in their packet train");
}

void PacketLevelRunner::send_packet(std::size_t index, bool syn, bool fin) {
  const workload::Flow& flow = (*run_flows_)[index];
  net::Packet packet;
  packet.flow = flow.tuple;
  packet.syn = syn;
  packet.fin = fin;
  packet.size_bytes = config_.packet_bytes;
  const auto result = lb_.process_packet(packet);
  packets_->inc();

  // The train is chained: each packet schedules the flow's next one, so an
  // open flow holds exactly one pending event. Every flow sends its whole
  // train, established or not. The closures capture 16 bytes, which
  // std::function stores without allocating.
  if (!fin) {
    const sim::Time next = sim_.now() + config_.packet_interval;
    if (next < flow.end) {
      sim_.schedule_at(next, [this, index] {
        send_packet(index, /*syn=*/false, /*fin=*/false);
      });
    } else {
      sim_.schedule_at(flow.end, [this, index] {
        send_packet(index, /*syn=*/false, /*fin=*/true);
      });
    }
  }

  FlowState& state = states_[index];
  if (syn) {
    if (!result.dip) {
      unmapped_flows_->inc();
      return;
    }
    flows_->inc();
    state = FlowState{*result.dip, true, false};
    ++open_flows_;
    return;
  }
  if (!state.established) return;
  if (!state.violated && down_dips_.contains(state.first_dip)) {
    // Server-down exemption: the connection is dead regardless of the LB.
    state.violated = true;  // stop auditing without counting
  } else if (!state.violated &&
             (!result.dip || !(*result.dip == state.first_dip))) {
    state.violated = true;
    violations_->inc();
  }
  if (fin) --open_flows_;
}

PacketLevelRunner::Stats PacketLevelRunner::run(
    const std::vector<workload::Flow>& flows,
    const std::vector<workload::DipUpdate>& updates) {
  for (const auto& update : updates) {
    sim_.schedule_at(update.at, [this, update] {
      if (update.action == workload::UpdateAction::kRemoveDip) {
        down_dips_.insert(update.dip);
      } else {
        down_dips_.erase(update.dip);
      }
      lb_.request_update(update);
    });
  }
  run_flows_ = &flows;
  states_.assign(flows.size(), FlowState{});
  // Lazy replay: flow i's SYN takes sequence number i of the block reserved
  // here, the one queuing every SYN up front would have given it, and each
  // packet then queues its flow's next one.
  starts_.begin(sim_, flows, 1, [this](std::size_t i, std::uint64_t) {
    send_packet(i, /*syn=*/true, /*fin=*/false);
  });
  sim_.run();
  run_flows_ = nullptr;
  Stats stats;
  stats.flows = flows_->value();
  stats.packets = packets_->value();
  stats.violations = violations_->value();
  stats.unmapped_flows = unmapped_flows_->value();
  stats.violation_fraction =
      stats.flows == 0 ? 0.0
                       : static_cast<double>(stats.violations) /
                             static_cast<double>(stats.flows);
  return stats;
}

}  // namespace silkroad::lb
