// A LoadBalancer that logs every call a driver makes, for the tests of
// lb::Scenario and lb::PacketLevelRunner.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "lb/load_balancer.h"
#include "sim/event_queue.h"
#include "workload/flow_gen.h"

namespace silkroad::lb {

/// Logs every packet and update it is handed, with the simulator's queue
/// length at the time. It forwards to an inner balancer, or, without one,
/// maps every packet to one DIP and never reports a mapping risk.
class RecordingBalancer : public LoadBalancer {
 public:
  struct Call {
    sim::Time at = 0;
    net::FiveTuple flow;  // a packet's flow; default for an update
    net::Endpoint dip;    // an update's DIP; default for a packet
    bool syn = false;
    bool fin = false;
    bool operator==(const Call&) const = default;
  };

  explicit RecordingBalancer(const sim::Simulator& sim) : sim_(sim) {}
  RecordingBalancer(const sim::Simulator& sim, LoadBalancer& inner)
      : sim_(sim), inner_(&inner) {}

  std::string name() const override {
    return inner_ != nullptr ? inner_->name() : "recording";
  }
  void add_vip(const net::Endpoint& vip,
               const std::vector<net::Endpoint>& dips) override {
    if (inner_ != nullptr) inner_->add_vip(vip, dips);
  }
  void request_update(const workload::DipUpdate& update) override {
    log({sim_.now(), {}, update.dip, false, false});
    if (inner_ != nullptr) inner_->request_update(update);
  }
  PacketResult process_packet(const net::Packet& packet) override {
    log({sim_.now(), packet.flow, {}, packet.syn, packet.fin});
    if (inner_ != nullptr) return inner_->process_packet(packet);
    return PacketResult{.dip = net::Endpoint{net::IpAddress::v4(0x0A0000FF), 20}};
  }
  void set_mapping_risk_callback(MappingRiskCallback cb) override {
    if (inner_ != nullptr) inner_->set_mapping_risk_callback(std::move(cb));
  }
  bool vip_at_slb(const net::Endpoint& vip) const override {
    return inner_ != nullptr && inner_->vip_at_slb(vip);
  }

  const std::vector<Call>& calls() const { return calls_; }
  /// The most events the queue held at any logged call.
  std::size_t peak_pending() const { return peak_pending_; }

  /// Packet times of the flow whose client port is `port`, checking that
  /// the first is the flow's only SYN and the last its only FIN.
  std::vector<sim::Time> train(std::uint16_t port) const {
    std::vector<const Call*> packets;
    for (const Call& call : calls_) {
      if (call.flow.src.port == port) packets.push_back(&call);
    }
    std::vector<sim::Time> times;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      EXPECT_EQ(packets[i]->syn, i == 0) << "port " << port << " packet " << i;
      EXPECT_EQ(packets[i]->fin, i + 1 == packets.size())
          << "port " << port << " packet " << i;
      times.push_back(packets[i]->at);
    }
    return times;
  }

 private:
  void log(const Call& call) {
    calls_.push_back(call);
    peak_pending_ = std::max(peak_pending_, sim_.pending_events());
  }

  const sim::Simulator& sim_;
  LoadBalancer* inner_ = nullptr;
  std::vector<Call> calls_;
  std::size_t peak_pending_ = 0;
};

/// The most flows of `flows` open at one instant: at some flow's start, the
/// flows that have started and not yet ended, counting both ends.
inline std::size_t open_flow_peak(const std::vector<workload::Flow>& flows) {
  std::size_t peak = 0;
  for (const workload::Flow& at : flows) {
    const auto open = std::count_if(
        flows.begin(), flows.end(), [&at](const workload::Flow& f) {
          return f.start <= at.start && at.start <= f.end;
        });
    peak = std::max(peak, static_cast<std::size_t>(open));
  }
  return peak;
}

/// A replay trace full of same-instant ties, in nanoseconds: three starts
/// at 1 ns, a flow that starts where another ends, two zero-length flows,
/// then 40 short flows with at most two open at once. Flow i's client port
/// is i + 1.
inline std::vector<workload::Flow> tie_heavy_trace(const net::Endpoint& vip) {
  std::vector<workload::Flow> flows;
  const auto add = [&flows, &vip](sim::Time start, sim::Time end) {
    workload::Flow flow;
    flow.tuple = net::FiveTuple{
        {net::IpAddress::v4(0x0B000001),
         static_cast<std::uint16_t>(flows.size() + 1)},
        vip,
        net::Protocol::kTcp};
    flow.start = start;
    flow.end = end;
    flow.rate_bps = 1e6;
    flows.push_back(flow);
  };
  add(1, 40);
  add(1, 1);
  add(1, 25);
  add(25, 60);
  add(30, 30);
  add(40, 90);
  add(10, 95);
  add(60, 61);
  for (sim::Time t = 100; t < 500; t += 10) add(t, t + 15);
  return flows;
}

/// `flows` in a fixed pseudo-random order.
inline std::vector<workload::Flow> shuffled(std::vector<workload::Flow> flows) {
  std::mt19937 rng(7);
  std::shuffle(flows.begin(), flows.end(), rng);
  return flows;
}

}  // namespace silkroad::lb
