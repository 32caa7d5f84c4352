// Benchmark workloads: seeded input generation and one replay of the inputs
// through the public lb::LoadBalancer API.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "asic/cuckoo_table.h"
#include "fault/control_channel.h"
#include "traced_balancer.h"
#include "workload/flow_gen.h"
#include "workload/update_gen.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Replay through lb::PacketLevelRunner (every packet) instead of
  /// lb::Scenario (SYN, FIN and mapping-risk probes only).
  bool packet_level = false;
  std::size_t vips = 16;
  std::size_t dips_per_vip = 24;
  double arrivals_per_min_per_vip = 1000;
  silkroad::workload::FlowProfile profile;
  silkroad::sim::Time horizon = 2 * silkroad::sim::kMinute;
  /// Rate the update generator is asked for: DIP-pool add/remove events
  /// per minute, summed over all VIPs. It delivers somewhat fewer, because
  /// re-additions that fall past its window are dropped.
  double updates_per_min = 2;
  /// Update instants kept (same-instant updates form one batch), spaced
  /// evenly over the horizon; the rest of the generated stream is cut off.
  std::size_t update_batches = 4;
  /// 0 = one core::SilkRoadSwitch; otherwise a deploy::SilkRoadFleet.
  std::size_t replicas = 0;
  /// Controller->switch channel shape (fleet only).
  silkroad::fault::ControlChannel::Config channel;
};

/// The named workload, or nullptr.
const WorkloadSpec* find_workload(std::string_view name);

/// Everything generated from the seed before the balancer exists.
struct Inputs {
  std::vector<silkroad::workload::FlowGenerator::VipLoad> vip_loads;
  std::vector<std::vector<silkroad::net::Endpoint>> dip_pools;
  /// Flows in start order.
  std::vector<silkroad::workload::Flow> flows;
  /// Updates in time order.
  std::vector<silkroad::workload::DipUpdate> updates;
  /// Most flows simultaneously open; sizes the ConnTable.
  std::size_t peak_active = 0;
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// ConnTable geometry a run of these inputs uses on each switch.
silkroad::asic::CuckooConfig conn_table_config(const WorkloadSpec& spec,
                                               const Inputs& inputs);

enum class Mode : std::uint8_t {
  kPlain,         ///< untraced; the end-to-end metrics come from these
  kTraced,        ///< through TracedBalancer
  kTelemetryOff,  ///< untraced, switch data-plane + capacity telemetry off
  kObserverOff,   ///< untraced, fleet convergence observer off
};

/// Work a run did. For one seed and mode every field repeats exactly.
struct WorkCounts {
  std::uint64_t flows_offered = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t unmapped = 0;
  std::uint64_t pcc_violations = 0;
  std::uint64_t packets = 0;
  std::uint64_t inserts = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t events = 0;
  std::uint64_t ctrl_retries = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;

  friend bool operator==(const WorkCounts&, const WorkCounts&) = default;
};

/// Layer counters and span data of a traced run.
struct TraceReport {
  std::unique_ptr<SpanRecorder> recorder;
  std::uint64_t misrouted_syns = 0;
  std::uint64_t syns = 0;
  std::uint64_t fins = 0;
  std::uint64_t other_packets = 0;
  bool converged = false;
  std::uint64_t learns = 0;
  std::uint64_t insert_failures = 0;
  std::uint64_t erases = 0;
  std::uint64_t software_fallback = 0;
  std::uint64_t syn_false_positives = 0;
  std::uint64_t transit_false_positives = 0;
  std::uint64_t versions_reused = 0;
  std::uint64_t cuckoo_moves = 0;
  std::uint64_t cpu_tasks = 0;
  double learn_batch_mean = 0;
  double peak_occupancy = 0;
  std::size_t peak_entries = 0;
  std::size_t peak_queue_depth = 0;
  std::uint64_t ctrl_resyncs = 0;
};

struct RunResult {
  double run_cpu_s = 0;
  WorkCounts work;
  /// Every switch ended with no connections and no pending inserts.
  bool drained = false;
  /// Filled for Mode::kTraced only.
  TraceReport trace;
};

/// Generates the inputs, builds the balancer (set-up), then replays the
/// inputs on this thread (run).
RunResult run_once(const WorkloadSpec& spec, std::uint64_t seed, Mode mode);

/// CPU seconds of one untraced set-up: generating the inputs, building the
/// balancer and installing its VIPs. One set-up is too short to time alone
/// (about 1 ms on packet_train), so set-ups repeat until `min_cpu_s` has
/// passed and the mean is returned.
double time_setup(const WorkloadSpec& spec, std::uint64_t seed,
                  double min_cpu_s);

/// Process CPU time in seconds.
double cpu_seconds() noexcept;

}  // namespace perfbench
