// Hybrid SilkRoad + SLB deployment (paper §7, "Combine with SLB solutions").
//
// Operators need not choose globally: serve high-volume VIPs from the switch
// ASIC and VIPs with huge connection counts (that would blow the SRAM
// budget) from SLBs, steering per VIP via BGP announcements. This balancer
// assigns each VIP to one tier at add_vip() time — by an explicit override
// or by a connection-count threshold against the switch's remaining SRAM-
// budgeted capacity — and forwards all per-VIP operations to that tier.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/silkroad_switch.h"  // NOLINT
#include "lb/load_balancer.h"
#include "lb/slb.h"

namespace silkroad::core {

class HybridLoadBalancer : public lb::LoadBalancer {
 public:
  struct Config {
    SilkRoadSwitch::Config switch_config;
    lb::SoftwareLoadBalancer::Config slb_config;
    /// Connection-capacity budget of the switch tier; VIPs are admitted in
    /// add_vip() order until their declared demand exceeds the remainder.
    std::uint64_t switch_connection_budget = 10'000'000;
  };

  HybridLoadBalancer(sim::Simulator& simulator, const Config& config)
      : config_(config),
        switch_tier_(std::make_unique<SilkRoadSwitch>(
            simulator, config.switch_config)),
        slb_tier_(std::make_unique<lb::SoftwareLoadBalancer>(config.slb_config)),
        remaining_budget_(config.switch_connection_budget) {}

  std::string name() const override { return "hybrid-silkroad-slb"; }

  /// Declares a VIP's expected concurrent-connection demand before adding it
  /// (defaults to 0: always fits the switch). Call before add_vip.
  void declare_demand(const net::Endpoint& vip, std::uint64_t connections) {
    demand_[vip] = connections;
  }

  /// Pins a VIP to a tier regardless of demand (operator override).
  enum class Tier : std::uint8_t { kAuto, kSwitch, kSlb };
  void pin_tier(const net::Endpoint& vip, Tier tier) { pinned_[vip] = tier; }

  void add_vip(const net::Endpoint& vip,
               const std::vector<net::Endpoint>& dips) override {
    Tier tier = Tier::kAuto;
    if (const auto it = pinned_.find(vip); it != pinned_.end()) {
      tier = it->second;
    }
    std::uint64_t demand = 0;
    if (const auto it = demand_.find(vip); it != demand_.end()) {
      demand = it->second;
    }
    const bool to_switch =
        tier == Tier::kSwitch ||
        (tier == Tier::kAuto && demand <= remaining_budget_);
    if (to_switch) {
      if (tier == Tier::kAuto) remaining_budget_ -= demand;
      assignment_[vip] = true;
      switch_tier_->add_vip(vip, dips);
    } else {
      assignment_[vip] = false;
      slb_tier_->add_vip(vip, dips);
    }
  }

  void request_update(const workload::DipUpdate& update) override {
    tier_of(update.vip).request_update(update);
  }

  lb::PacketResult process_packet(const net::Packet& packet) override {
    return tier_of(packet.flow.dst).process_packet(packet);
  }

  void set_mapping_risk_callback(MappingRiskCallback cb) override {
    switch_tier_->set_mapping_risk_callback(cb);
    slb_tier_->set_mapping_risk_callback(std::move(cb));
  }

  bool vip_at_slb(const net::Endpoint& vip) const override {
    const auto it = assignment_.find(vip);
    return it != assignment_.end() && !it->second;
  }

  // --- Introspection --------------------------------------------------------
  bool vip_on_switch(const net::Endpoint& vip) const {
    const auto it = assignment_.find(vip);
    return it != assignment_.end() && it->second;
  }
  std::uint64_t remaining_switch_budget() const noexcept {
    return remaining_budget_;
  }
  const SilkRoadSwitch& switch_tier() const { return *switch_tier_; }

 private:
  lb::LoadBalancer& tier_of(const net::Endpoint& vip) {
    const auto it = assignment_.find(vip);
    if (it != assignment_.end() && !it->second) return *slb_tier_;
    return *switch_tier_;
  }

  Config config_;
  std::unique_ptr<SilkRoadSwitch> switch_tier_;
  std::unique_ptr<lb::SoftwareLoadBalancer> slb_tier_;
  std::uint64_t remaining_budget_;
  std::unordered_map<net::Endpoint, std::uint64_t, net::EndpointHash> demand_;
  std::unordered_map<net::Endpoint, Tier, net::EndpointHash> pinned_;
  /// true = switch tier, false = SLB tier.
  std::unordered_map<net::Endpoint, bool, net::EndpointHash> assignment_;
};

}  // namespace silkroad::core
