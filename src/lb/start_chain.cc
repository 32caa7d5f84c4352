#include "lb/start_chain.h"

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <utility>

#include "check/sr_check.h"

namespace silkroad::lb {

void StartChain::begin(sim::Simulator& sim,
                       const std::vector<workload::Flow>& flows,
                       std::uint64_t seqs_per_flow, OnStart on_start) {
  sim_ = &sim;
  flows_ = &flows;
  seqs_per_flow_ = seqs_per_flow;
  on_start_ = std::move(on_start);
  order_.clear();
  bool sorted = true;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    SR_CHECKF(flows[i].end >= flows[i].start,
              "replay flow %zu ends before it starts (start=%llu end=%llu)", i,
              static_cast<unsigned long long>(flows[i].start),
              static_cast<unsigned long long>(flows[i].end));
    sorted = sorted && (i == 0 || flows[i - 1].start <= flows[i].start);
  }
  if (!sorted) {
    order_.resize(flows.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [&flows](std::size_t a, std::size_t b) {
                       return flows[a].start < flows[b].start;
                     });
  }
  first_seq_ = sim.reserve_seqs(seqs_per_flow * flows.size());
  if (!flows.empty()) schedule(0);
}

void StartChain::schedule(std::size_t pos) {
  const std::size_t index = index_at(pos);
  auto fire = [this, pos] {
    if (pos + 1 < flows_->size()) schedule(pos + 1);
    const std::size_t i = index_at(pos);
    on_start_(i, first_seq_ + seqs_per_flow_ * i);
  };
  static_assert(sizeof(fire) <= 16 && std::is_trivially_copyable_v<decltype(fire)>,
                "replay events must fit std::function's inline buffer");
  sim_->schedule_reserved((*flows_)[index].start,
                          first_seq_ + seqs_per_flow_ * index, fire);
}

}  // namespace silkroad::lb
