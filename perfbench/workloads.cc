#include "workloads.h"

#include <algorithm>
#include <ctime>

#include "alloc_counter.h"
#include "core/silkroad_switch.h"
#include "deploy/fleet.h"
#include "lb/packet_level.h"
#include "lb/scenario.h"

namespace perfbench {

using namespace silkroad;

namespace {

std::vector<WorkloadSpec> make_specs() {
  std::vector<WorkloadSpec> specs;

  // PoP-like: many short flows, rare updates. Writes the ConnTable: learn,
  // CPU insert and FIN erase for every flow.
  WorkloadSpec pop;
  pop.name = "pop_churn";
  pop.vips = 16;
  pop.arrivals_per_min_per_vip = 2500;
  pop.profile = workload::FlowProfile::hadoop();
  pop.horizon = 2 * sim::kMinute;
  pop.updates_per_min = 4;
  pop.update_batches = 4;
  specs.push_back(pop);

  // Long-lived flows under a rolling-reboot update storm: every version flip
  // probes every open flow of its VIP and the auditor runs at every step.
  WorkloadSpec storm;
  storm.name = "update_storm";
  storm.vips = 8;
  storm.arrivals_per_min_per_vip = 600;
  storm.profile = workload::FlowProfile::cache();
  storm.horizon = 2 * sim::kMinute;
  storm.updates_per_min = 100;
  storm.update_batches = 80;
  specs.push_back(storm);

  // Every packet of every flow at 10 ms spacing: ConnTable reads dominate,
  // no audit runs.
  WorkloadSpec train;
  train.name = "packet_train";
  train.packet_level = true;
  train.vips = 4;
  train.dips_per_vip = 16;
  train.arrivals_per_min_per_vip = 375;
  // Narrow duration spread (p99 = 3 x median): packets per flow, and so
  // flows per second, hardly move with the seed.
  train.profile = {"train", 4.0, 12.0, 1e6, 5e7};
  train.horizon = 1 * sim::kMinute;
  train.updates_per_min = 4;
  train.update_batches = 2;
  specs.push_back(train);

  // pop_churn-like traffic through a 4-replica fleet over lossy, delayed
  // control channels: the only workload that runs deploy/ and fault/.
  WorkloadSpec fleet;
  fleet.name = "fleet_sync";
  fleet.vips = 16;
  fleet.arrivals_per_min_per_vip = 1200;
  fleet.profile = workload::FlowProfile::hadoop();
  fleet.horizon = 2 * sim::kMinute;
  fleet.updates_per_min = 55;
  fleet.update_batches = 40;
  fleet.replicas = 4;
  fleet.channel.base_delay = 2 * sim::kMillisecond;
  fleet.channel.jitter = 1 * sim::kMillisecond;
  fleet.channel.drop_probability = 0.01;
  specs.push_back(fleet);
  return specs;
}

net::Endpoint vip_of(std::size_t v) {
  return {net::IpAddress::v4(0x14000000 + static_cast<std::uint32_t>(v)), 80};
}

net::Endpoint dip_of(std::size_t v, std::size_t d) {
  return {net::IpAddress::v4(0x0A000000 +
                             static_cast<std::uint32_t>(v * 256 + d)),
          20};
}

std::size_t peak_open(const std::vector<workload::Flow>& flows) {
  std::vector<std::pair<sim::Time, int>> edges;
  edges.reserve(2 * flows.size());
  for (const auto& flow : flows) {
    edges.emplace_back(flow.start, 1);
    edges.emplace_back(flow.end, -1);
  }
  // Ends sort before starts at the same instant (-1 < 1).
  std::sort(edges.begin(), edges.end());
  std::int64_t open = 0;
  std::int64_t peak = 0;
  for (const auto& [at, delta] : edges) {
    open += delta;
    peak = std::max(peak, open);
  }
  return static_cast<std::size_t>(peak);
}

core::SilkRoadSwitch::Config switch_config(const WorkloadSpec& spec,
                                           const Inputs& inputs, Mode mode) {
  core::SilkRoadSwitch::Config config;
  config.conn_table = conn_table_config(spec, inputs);
  config.learning = {.capacity = 2048, .timeout = sim::kMillisecond};
  config.cpu = {.tasks_per_second = 200'000.0};
  if (mode == Mode::kTelemetryOff) {
    config.data_plane_telemetry = false;
    config.capacity_telemetry = false;
  }
  return config;
}

bool idle(const core::SilkRoadSwitch& sw) {
  return !sw.update_in_flight() && sw.queued_updates() == 0;
}

/// The balancer under test, as one switch or a fleet, plus uniform access
/// to its member switches.
struct Balancer {
  std::unique_ptr<core::SilkRoadSwitch> single;
  std::unique_ptr<deploy::SilkRoadFleet> fleet;

  lb::LoadBalancer& lb() {
    return single ? static_cast<lb::LoadBalancer&>(*single) : *fleet;
  }
  std::size_t size() const { return single ? 1 : fleet->size(); }
  core::SilkRoadSwitch& at(std::size_t i) {
    return single ? *single : fleet->switch_at(i);
  }
  bool quiescent() {
    if (fleet && fleet->ctrl_outstanding() != 0) return false;
    for (std::size_t i = 0; i < size(); ++i) {
      if (!idle(at(i))) return false;
    }
    return true;
  }
  obs::Snapshot snapshot() const {
    return single ? single->metrics().snapshot() : fleet->metrics_snapshot();
  }
};

Balancer make_balancer(sim::Simulator& sim, const WorkloadSpec& spec,
                       const Inputs& inputs, Mode mode, std::uint64_t seed) {
  Balancer balancer;
  const auto config = switch_config(spec, inputs, mode);
  if (spec.replicas == 0) {
    balancer.single = std::make_unique<core::SilkRoadSwitch>(sim, config);
  } else {
    fault::ControlChannel::Config channel = spec.channel;
    channel.seed = sim::Rng(seed ^ 0xC4A77E1ULL).next();
    deploy::SyncConfig sync;
    sync.observe_convergence = mode != Mode::kObserverOff;
    balancer.fleet = std::make_unique<deploy::SilkRoadFleet>(
        sim, config, spec.replicas, 0xFEE7ULL ^ seed, channel, sync);
  }
  return balancer;
}

std::uint64_t counter(const obs::Snapshot& snapshot, const char* name) {
  return static_cast<std::uint64_t>(snapshot.value_of(name));
}

void fill_trace_report(
    Balancer& balancer, TracedBalancer& traced,
    const std::vector<workload::FlowGenerator::VipLoad>& vip_loads,
    TraceReport& report) {
  report.misrouted_syns = traced.misrouted_syns();
  report.syns = traced.syns();
  report.fins = traced.fins();
  report.other_packets = traced.others();
  const obs::Snapshot snap = balancer.snapshot();
  report.learns = counter(snap, "silkroad_learns_total");
  report.insert_failures = counter(snap, "silkroad_insert_failures_total");
  report.erases = counter(snap, "silkroad_erases_total");
  report.software_fallback = counter(snap, "silkroad_software_fallback_total");
  report.syn_false_positives =
      counter(snap, "silkroad_syn_false_positives_total");
  report.transit_false_positives =
      counter(snap, "silkroad_transit_false_positives_total");
  report.versions_reused = counter(snap, "silkroad_versions_reused_total");
  report.cuckoo_moves = counter(snap, "silkroad_conn_table_moves_total");
  report.cpu_tasks = counter(snap, "silkroad_cpu_tasks_completed_total");
  if (const auto* batch = snap.find("silkroad_learn_batch_size");
      batch != nullptr && batch->count > 0) {
    report.learn_batch_mean = batch->sum / static_cast<double>(batch->count);
  }
  if (balancer.fleet) {
    report.converged = balancer.fleet->converged();
    report.ctrl_resyncs = balancer.fleet->ctrl_resyncs();
    return;
  }
  // One switch: the same test SilkRoadFleet::converged() applies, against
  // the membership the decorator replayed.
  const core::SilkRoadSwitch& sw = *balancer.single;
  report.converged = idle(sw);
  for (const auto& load : vip_loads) {
    const core::VipVersionManager* versions = sw.version_manager(load.vip);
    const lb::DipPool* pool =
        versions == nullptr ? nullptr
                            : versions->pool(versions->current_version());
    if (pool == nullptr || !traced.matches_membership(load.vip, pool->members())) {
      report.converged = false;
    }
  }
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  static const std::vector<WorkloadSpec> specs = make_specs();
  for (const auto& spec : specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs inputs;
  sim::Rng seeder(seed);
  for (std::size_t v = 0; v < spec.vips; ++v) {
    inputs.vip_loads.push_back(
        {vip_of(v), spec.arrivals_per_min_per_vip, spec.profile, false});
    std::vector<net::Endpoint> dips;
    for (std::size_t d = 0; d < spec.dips_per_vip; ++d) {
      dips.push_back(dip_of(v, d));
    }
    workload::UpdateGenerator gen({.seed = seeder.next()}, vip_of(v), dips);
    const auto updates =
        gen.generate(spec.updates_per_min / static_cast<double>(spec.vips),
                     spec.horizon * 4);
    inputs.updates.insert(inputs.updates.end(), updates.begin(),
                          updates.end());
    inputs.dip_pools.push_back(std::move(dips));
  }
  std::stable_sort(inputs.updates.begin(), inputs.updates.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });
  // Keep a fixed number of update instants (same-instant updates form one
  // batch, and lb::Scenario audits once per batch) and space them evenly over
  // the horizon, in their generated order. The audits and probes then meet
  // about the same number of open flows whatever the seed; the seed still
  // picks the DIPs, the actions and the batch sizes. The stream was
  // generated over a longer window so it rarely runs short.
  std::vector<std::size_t> instant_of;
  for (std::size_t i = 0; i < inputs.updates.size(); ++i) {
    std::size_t instant = instant_of.empty() ? 0 : instant_of.back();
    if (i > 0 && inputs.updates[i].at != inputs.updates[i - 1].at) ++instant;
    if (instant == spec.update_batches) {
      inputs.updates.resize(i);
      break;
    }
    instant_of.push_back(instant);
  }
  const auto kept =
      static_cast<sim::Time>(instant_of.empty() ? 1 : instant_of.back() + 1);
  for (std::size_t i = 0; i < inputs.updates.size(); ++i) {
    inputs.updates[i].at =
        spec.horizon * (2 * static_cast<sim::Time>(instant_of[i]) + 1) /
        (2 * kept);
  }

  // Materialize the arrival process once; the run replays it verbatim.
  sim::Simulator scratch;
  workload::FlowGenerator gen(scratch, inputs.vip_loads, seeder.next());
  gen.start(
      spec.horizon,
      [&inputs](const workload::Flow& flow) { inputs.flows.push_back(flow); },
      nullptr);
  scratch.run();
  inputs.peak_active = peak_open(inputs.flows);
  return inputs;
}

asic::CuckooConfig conn_table_config(const WorkloadSpec& spec,
                                     const Inputs& inputs) {
  // Each replica sees about 1/replicas of the flows; size for 80% occupancy
  // at the peak.
  const std::size_t share =
      inputs.peak_active / std::max<std::size_t>(1, spec.replicas);
  asic::CuckooConfig config = core::SilkRoadSwitch::conn_table_for(
      std::max<std::size_t>(share, 1024), 16, 0.8);
  // Paper geometry (4 stages of 4-way buckets, laid out for 28-bit entries),
  // but 32-bit digests. With the paper's 16-bit digests a cuckoo move can
  // park an entry behind another flow's entry with the same digest; the
  // switch repairs such shadowing only for the key being inserted, so the
  // parked flow's later packets follow the other entry (README.md, "Finding:
  // shadowed ConnTable entries"). Wider digests keep that out of the
  // measured runs while the PCC check stays strict.
  config.digest_bits = 32;
  return config;
}

double cpu_seconds() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

/// Everything a run needs before its first event: the inputs, the balancer
/// with its VIPs installed, and the driver. Built in place, because the
/// members refer to each other.
struct Setup {
  Setup(const WorkloadSpec& spec, std::uint64_t seed, Mode mode);

  Inputs inputs;
  /// inputs.flows.size() before lb::Scenario takes the flows over.
  std::uint64_t flows_offered = 0;
  sim::Simulator sim;
  Balancer balancer;
  TraceReport report;
  std::unique_ptr<TracedBalancer> traced;
  std::unique_ptr<lb::Scenario> scenario;
  std::unique_ptr<lb::PacketLevelRunner> runner;
};

Setup::Setup(const WorkloadSpec& spec, std::uint64_t seed, Mode mode)
    : inputs(make_inputs(spec, seed)),
      flows_offered(inputs.flows.size()),
      balancer(make_balancer(sim, spec, inputs, mode, seed)) {
  lb::LoadBalancer* lb = &balancer.lb();
  if (mode == Mode::kTraced) {
    report.recorder = std::make_unique<SpanRecorder>();
    std::uint64_t packets = 0;
    traced = std::make_unique<TracedBalancer>(
        *lb, *report.recorder, [this] { return balancer.quiescent(); },
        [this, packets]() mutable {
          // Sampled, so that sampling stays a small part of the traced run.
          if ((++packets & 255) != 0) return;
          for (std::size_t i = 0; i < balancer.size(); ++i) {
            const auto& table = balancer.at(i).conn_table();
            report.peak_occupancy =
                std::max(report.peak_occupancy, table.occupancy());
            report.peak_entries = std::max(report.peak_entries, table.size());
          }
          report.peak_queue_depth =
              std::max(report.peak_queue_depth, sim.pending_events());
        });
    lb = traced.get();
  }

  if (spec.packet_level) {
    for (std::size_t v = 0; v < inputs.vip_loads.size(); ++v) {
      lb->add_vip(inputs.vip_loads[v].vip, inputs.dip_pools[v]);
    }
    runner = std::make_unique<lb::PacketLevelRunner>(
        sim, *lb,
        lb::PacketLevelRunner::Config{.packet_interval =
                                          10 * sim::kMillisecond});
  } else {
    lb::ScenarioConfig config;
    config.horizon = spec.horizon;
    config.seed = seed;
    config.vip_loads = inputs.vip_loads;
    config.dip_pools = inputs.dip_pools;
    config.updates = std::move(inputs.updates);
    config.replay_flows = std::move(inputs.flows);
    scenario = std::make_unique<lb::Scenario>(sim, *lb, std::move(config));
  }
}

}  // namespace

double time_setup(const WorkloadSpec& spec, std::uint64_t seed,
                  double min_cpu_s) {
  double spent = 0;
  std::size_t count = 0;
  const double start = cpu_seconds();
  while (count < 2 || cpu_seconds() - start < min_cpu_s) {
    const double before = cpu_seconds();
    auto setup = std::make_unique<Setup>(spec, seed, Mode::kPlain);
    spent += cpu_seconds() - before;
    ++count;
  }
  return spent / static_cast<double>(count);
}

RunResult run_once(const WorkloadSpec& spec, std::uint64_t seed, Mode mode) {
  RunResult result;
  auto setup = std::make_unique<Setup>(spec, seed, mode);
  const Inputs& inputs = setup->inputs;
  sim::Simulator& sim = setup->sim;
  Balancer& balancer = setup->balancer;
  TracedBalancer* traced = setup->traced.get();
  TraceReport& report = setup->report;
  result.work.flows_offered = setup->flows_offered;

  const double run_start = cpu_seconds();
  const AllocCount allocs_before = alloc_count();
  if (traced) report.recorder->begin(SpanName::kRun);
  if (setup->runner) {
    const auto stats = setup->runner->run(inputs.flows, inputs.updates);
    result.work.flows_completed = stats.flows;
    result.work.unmapped = stats.unmapped_flows;
    result.work.pcc_violations = stats.violations;
  } else {
    const auto stats = setup->scenario->run();
    result.work.flows_completed = stats.flows;
    result.work.unmapped = stats.unmapped_starts;
    result.work.pcc_violations = stats.violations;
  }
  if (traced) report.recorder->end();
  const AllocCount allocs_after = alloc_count();
  result.run_cpu_s = cpu_seconds() - run_start;

  WorkCounts& work = result.work;
  work.allocs = allocs_after.allocs - allocs_before.allocs;
  work.alloc_bytes = allocs_after.bytes - allocs_before.bytes;
  work.events = sim.executed_events();
  result.drained = true;
  for (std::size_t i = 0; i < balancer.size(); ++i) {
    const core::SilkRoadSwitch& sw = balancer.at(i);
    const auto stats = sw.stats();
    work.packets += stats.packets;
    work.inserts += stats.inserts;
    work.hits += stats.conn_table_hits;
    work.misses += stats.conn_table_misses;
    if (sw.active_connections() != 0 || sw.pending_insertions() != 0) {
      result.drained = false;
    }
  }
  if (balancer.fleet) work.ctrl_retries = balancer.fleet->ctrl_retries();
  if (traced) {
    fill_trace_report(balancer, *traced, inputs.vip_loads, report);
    result.trace = std::move(report);
  }
  return result;
}

}  // namespace perfbench
