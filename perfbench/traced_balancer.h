// Span tracing at the lb::LoadBalancer boundary, from outside the library.
//
// TracedBalancer forwards every LoadBalancer call to the balancer under test
// and records a span (name, start, end, parent) around process_packet,
// request_update, self_check and the mapping-risk callback. The benchmark
// opens one `run` span around the driver's run(), so everything the driver,
// the event loop and the switch control plane do outside those calls is the
// run span's self time.
//
// process_packet spans are far too many to keep one by one (millions per
// run); they are aggregated into count, busy time and a latency histogram.
// Every other span is kept in memory and written out when the benchmark ends.
//
// The decorator also replays the update stream it forwards to know the
// controller's membership of each VIP, and counts SYNs that got no DIP
// (unmapped) or a DIP outside that membership while the balancer had no
// update queued or in flight (misrouted).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lb/load_balancer.h"
#include "net/hash.h"
#include "obs/metrics.h"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kRun,
  kProcessPacket,
  kRequestUpdate,
  kSelfCheck,
  kMappingRisk,
};
inline constexpr std::size_t kSpanNames = 5;

constexpr const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::kRun: return "run";
    case SpanName::kProcessPacket: return "process_packet";
    case SpanName::kRequestUpdate: return "request_update";
    case SpanName::kSelfCheck: return "self_check";
    default: return "mapping_risk";
  }
}

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    SpanName name = SpanName::kRun;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Index of the enclosing kept span in spans(), or -1 at the root.
    std::int32_t parent = -1;
  };
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t busy_ns = 0;  ///< summed span durations
    std::int64_t self_ns = 0;  ///< busy minus time covered by child spans
  };

  SpanRecorder()
      : latency_(registry_.histogram("process_packet_ns", "", "",
                                     {.log2_subdivisions = 5})) {}

  void begin(SpanName name) {
    std::int32_t index = -1;
    if (name != SpanName::kProcessPacket) {
      index = static_cast<std::int32_t>(spans_.size());
      spans_.push_back({name, 0, 0, kept_parent()});
    }
    const std::int64_t start = now_ns();
    if (index >= 0) spans_.back().start_ns = start;
    stack_.push_back({name, index, 0, start});
  }

  void end() {
    const std::int64_t end = now_ns();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = end - frame.start_ns;
    Totals& totals = totals_[static_cast<std::size_t>(frame.name)];
    ++totals.calls;
    totals.busy_ns += duration;
    totals.self_ns += duration - frame.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (frame.index >= 0) {
      spans_[static_cast<std::size_t>(frame.index)].end_ns = end;
    } else {
      latency_->record(static_cast<std::uint64_t>(duration));
    }
  }

  const Totals& totals(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)];
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Quantile `q` of process_packet span durations (ns).
  double packet_ns_quantile(double q) const {
    return registry_.snapshot().quantile("process_packet_ns", "", q);
  }

 private:
  struct Frame {
    SpanName name;
    std::int32_t index;
    std::int64_t child_ns;
    std::int64_t start_ns;
  };

  std::int32_t kept_parent() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->index >= 0) return it->index;
    }
    return -1;
  }

  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::array<Totals, kSpanNames> totals_{};
  silkroad::obs::MetricsRegistry registry_;
  silkroad::obs::Histogram* latency_;
};

class TracedBalancer : public silkroad::lb::LoadBalancer {
 public:
  /// `quiescent` reports whether the balancer has no update queued or in
  /// flight; `sample` runs after every packet (peak-occupancy sampling).
  TracedBalancer(silkroad::lb::LoadBalancer& inner, SpanRecorder& recorder,
                 std::function<bool()> quiescent, std::function<void()> sample)
      : inner_(inner),
        recorder_(recorder),
        quiescent_(std::move(quiescent)),
        sample_(std::move(sample)) {}

  std::string name() const override { return inner_.name(); }

  void add_vip(const silkroad::net::Endpoint& vip,
               const std::vector<silkroad::net::Endpoint>& dips) override {
    membership_[vip] = DipSet(dips.begin(), dips.end());
    inner_.add_vip(vip, dips);
  }

  void request_update(const silkroad::workload::DipUpdate& update) override {
    DipSet& members = membership_[update.vip];
    if (update.action == silkroad::workload::UpdateAction::kRemoveDip) {
      members.erase(update.dip);
    } else {
      members.insert(update.dip);
    }
    recorder_.begin(SpanName::kRequestUpdate);
    inner_.request_update(update);
    recorder_.end();
  }

  void handle_dip_failure(const silkroad::net::Endpoint& vip,
                          const silkroad::net::Endpoint& dip,
                          bool resilient_in_place) override {
    if (!resilient_in_place) membership_[vip].erase(dip);
    recorder_.begin(SpanName::kRequestUpdate);
    inner_.handle_dip_failure(vip, dip, resilient_in_place);
    recorder_.end();
  }

  silkroad::lb::PacketResult process_packet(
      const silkroad::net::Packet& packet) override {
    recorder_.begin(SpanName::kProcessPacket);
    silkroad::lb::PacketResult result = inner_.process_packet(packet);
    recorder_.end();
    if (packet.syn) {
      if (!result.dip) {
        ++unmapped_syns_;
      } else if (quiescent_() &&
                 !membership_[packet.flow.dst].contains(*result.dip)) {
        ++misrouted_syns_;
      }
      ++syns_;
    } else if (packet.fin) {
      ++fins_;
    } else {
      ++others_;
    }
    sample_();
    return result;
  }

  void set_mapping_risk_callback(MappingRiskCallback cb) override {
    inner_.set_mapping_risk_callback(
        [this, cb = std::move(cb)](const silkroad::net::Endpoint& vip) {
          recorder_.begin(SpanName::kMappingRisk);
          cb(vip);
          recorder_.end();
        });
  }

  bool vip_at_slb(const silkroad::net::Endpoint& vip) const override {
    return inner_.vip_at_slb(vip);
  }

  void self_check() const override {
    recorder_.begin(SpanName::kSelfCheck);
    inner_.self_check();
    recorder_.end();
  }

  /// True when `live` (the balancer's current members of `vip`) equals the
  /// controller membership replayed from the forwarded update stream.
  bool matches_membership(
      const silkroad::net::Endpoint& vip,
      const std::vector<silkroad::net::Endpoint>& live) const {
    const auto it = membership_.find(vip);
    if (it == membership_.end() || live.size() != it->second.size()) {
      return false;
    }
    for (const auto& dip : live) {
      if (!it->second.contains(dip)) return false;
    }
    return true;
  }

  std::uint64_t unmapped_syns() const noexcept { return unmapped_syns_; }
  std::uint64_t misrouted_syns() const noexcept { return misrouted_syns_; }
  std::uint64_t syns() const noexcept { return syns_; }
  std::uint64_t fins() const noexcept { return fins_; }
  /// Packets that were neither SYN nor FIN (mid-flow packets and probes).
  std::uint64_t others() const noexcept { return others_; }

 private:
  using DipSet =
      std::unordered_set<silkroad::net::Endpoint, silkroad::net::EndpointHash>;

  silkroad::lb::LoadBalancer& inner_;
  SpanRecorder& recorder_;
  std::function<bool()> quiescent_;
  std::function<void()> sample_;
  std::unordered_map<silkroad::net::Endpoint, DipSet,
                     silkroad::net::EndpointHash>
      membership_;
  std::uint64_t unmapped_syns_ = 0;
  std::uint64_t misrouted_syns_ = 0;
  std::uint64_t syns_ = 0;
  std::uint64_t fins_ = 0;
  std::uint64_t others_ = 0;
};

}  // namespace perfbench
