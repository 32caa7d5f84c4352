#include "workload/flow_gen.h"

namespace silkroad::workload {

FlowGenerator::FlowGenerator(sim::Simulator& simulator,
                             std::vector<VipLoad> vips, std::uint64_t seed)
    : sim_(simulator), vips_(std::move(vips)) {
  sim::Rng master(seed);
  rngs_.reserve(vips_.size());
  duration_dists_.reserve(vips_.size());
  rate_dists_.reserve(vips_.size());
  for (const auto& v : vips_) {
    rngs_.push_back(master.fork());
    duration_dists_.push_back(sim::LogNormalByQuantiles::from_median_p99(
        v.profile.duration_median_s, v.profile.duration_p99_s));
    rate_dists_.push_back(sim::LogNormalByQuantiles::from_median_p99(
        v.profile.rate_median_bps, v.profile.rate_p99_bps));
  }
}

void FlowGenerator::start(sim::Time horizon, FlowCallback on_start,
                          FlowCallback on_end) {
  horizon_ = horizon;
  on_start_ = std::move(on_start);
  on_end_ = std::move(on_end);
  for (std::size_t i = 0; i < vips_.size(); ++i) {
    schedule_next_arrival(i);
  }
}

void FlowGenerator::scale_arrivals(double factor) {
  for (auto& v : vips_) v.arrivals_per_min *= factor;
}

Flow FlowGenerator::synthesize(std::size_t vip_index) {
  auto& rng = rngs_[vip_index];
  const auto& load = vips_[vip_index];
  Flow flow;
  flow.vip_index = vip_index;
  flow.start = sim_.now();
  const double duration_s = duration_dists_[vip_index].sample(rng);
  flow.end = flow.start + sim::from_seconds(std::max(1e-3, duration_s));
  flow.rate_bps = rate_dists_[vip_index].sample(rng);
  // Synthesize a unique client endpoint. Client id space is large enough
  // that collisions within a run are vanishingly rare; ports cycle through
  // the ephemeral range.
  const std::uint32_t client = next_client_id_++;
  net::Endpoint src;
  if (load.ipv6_clients) {
    src.ip = net::IpAddress::v6(0x20010DB800000000ULL | (client >> 16),
                                (static_cast<std::uint64_t>(client) << 32) |
                                    rng.next() % 0xFFFFFFFF);
  } else {
    src.ip = net::IpAddress::v4(0x0B000000 | (client & 0x00FFFFFF));
  }
  src.port =
      static_cast<std::uint16_t>(32768 + (rng.next() % 28000));
  flow.tuple = net::FiveTuple{src, load.vip, net::Protocol::kTcp};
  return flow;
}

void FlowGenerator::schedule_next_arrival(std::size_t vip_index) {
  const auto& load = vips_[vip_index];
  if (load.arrivals_per_min <= 0) return;
  double rate = load.arrivals_per_min;
  if (modulation_) {
    const double factor = modulation_(sim_.now());
    if (factor <= 0) return;  // load shed to zero: stream ends
    rate *= factor;
  }
  const double gap_s = rngs_[vip_index].exponential(60.0 / rate);
  const sim::Time at = sim_.now() + sim::from_seconds(gap_s);
  if (at >= horizon_) return;
  sim_.schedule_at(at, [this, vip_index] {
    const Flow flow = synthesize(vip_index);
    if (on_start_) on_start_(flow);
    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(open_.size());
      open_.push_back(flow);
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      open_[slot] = flow;
    }
    sim_.schedule_at(flow.end, [this, slot] {
      const Flow ended = open_[slot];
      free_slots_.push_back(slot);
      if (on_end_) on_end_(ended);
    });
    schedule_next_arrival(vip_index);
  });
}

}  // namespace silkroad::workload
