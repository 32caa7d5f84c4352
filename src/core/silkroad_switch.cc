#include "core/silkroad_switch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>

#include "check/sr_check.h"
#include "obs/exporters.h"

namespace silkroad::core {

namespace {

/// used / capacity, 0 for a table without capacity.
double fraction(std::uint64_t used, std::uint64_t capacity) {
  return capacity == 0
             ? 0.0
             : static_cast<double>(used) / static_cast<double>(capacity);
}

}  // namespace

asic::CuckooConfig SilkRoadSwitch::conn_table_for(std::size_t connections,
                                                  unsigned digest_bits,
                                                  double occupancy) {
  asic::CuckooConfig config;
  config.digest_bits = digest_bits;
  config.value_bits = 6;
  config.overhead_bits = 6;
  config.stages = 4;
  const unsigned entry_bits =
      config.digest_bits + config.value_bits + config.overhead_bits;
  config.ways = asic::entries_per_word(entry_bits);
  if (config.ways == 0) config.ways = 1;
  const double slots_needed =
      static_cast<double>(connections) / (occupancy <= 0 ? 0.9 : occupancy);
  const std::size_t buckets_total = static_cast<std::size_t>(
      std::ceil(slots_needed / static_cast<double>(config.ways)));
  config.buckets_per_stage =
      std::max<std::size_t>(1, (buckets_total + config.stages - 1) / config.stages);
  return config;
}

SilkRoadSwitch::SilkRoadSwitch(sim::Simulator& simulator, const Config& config)
    : sim_(simulator),
      config_(config),
      trace_(4096, &simulator),
      stage_lookups_(config.conn_table.stages + 1),
      conn_table_(config.conn_table),
      learning_filter_(simulator, config.learning,
                       [this](const std::vector<asic::LearnEvent>& batch) {
                         on_learning_flush(batch);
                       }),
      cpu_(simulator, config.cpu),
      transit_(config.transit_table_bytes, config.transit_hashes),
      // Named in SramTable order, and interned in the ring before any VIP.
      capacity_(config.capacity_telemetry
                    ? std::vector<std::string>{"conn_table", "transit_table",
                                               "learning_filter",
                                               "dip_pool_table"}
                    : std::vector<std::string>{},
                *this, &trace_) {
  // The relearn sweep takes a pending flow with no notification at the CPU
  // for lost only once the filter must have flushed it.
  SR_CHECKF(config.relearn_timeout == 0 ||
                config.relearn_timeout > config.learning.timeout,
            "relearn_timeout (%llu ns) must exceed the learning-filter "
            "timeout (%llu ns)",
            static_cast<unsigned long long>(config.relearn_timeout),
            static_cast<unsigned long long>(config.learning.timeout));
  init_metrics();
  capacity_.bind_metrics(metrics_);
  conn_table_.bind_trace(&trace_);
  cpu_.bind_metrics(metrics_, "silkroad_cpu");
}

void SilkRoadSwitch::init_metrics() {
  c_.packets = metrics_.counter("silkroad_packets_total",
                                "packets processed by the data plane");
  c_.conn_table_hits = metrics_.counter("silkroad_conn_table_hits_total",
                                        "ConnTable lookups that matched");
  c_.conn_table_misses = metrics_.counter("silkroad_conn_table_misses_total",
                                          "ConnTable lookups that missed");
  c_.learns = metrics_.counter("silkroad_learns_total",
                               "new flows entered into the learning filter");
  c_.inserts = metrics_.counter("silkroad_inserts_total",
                                "ConnTable entries installed by the CPU");
  c_.insert_failures =
      metrics_.counter("silkroad_insert_failures_total",
                       "insertions abandoned after BFS budget exhaustion");
  c_.erases = metrics_.counter("silkroad_erases_total",
                               "ConnTable entries erased (FIN or aging)");
  c_.syn_false_positives =
      metrics_.counter("silkroad_syn_false_positives_total",
                       "SYNs that hit a digest-colliding entry (#4.2)");
  c_.non_syn_false_hits =
      metrics_.counter("silkroad_non_syn_false_hits_total",
                       "mid-flow packets mis-steered by a digest collision");
  c_.relocation_failures =
      metrics_.counter("silkroad_relocation_failures_total",
                       "digest-collision repairs with no conflict-free slot");
  c_.transit_false_positives =
      metrics_.counter("silkroad_transit_false_positives_total",
                       "TransitTable bloom false positives during Step2");
  c_.updates_requested = metrics_.counter("silkroad_updates_requested_total",
                                          "DIP-pool updates requested");
  c_.updates_completed = metrics_.counter("silkroad_updates_completed_total",
                                          "DIP-pool updates fully executed");
  c_.versions_evicted =
      metrics_.counter("silkroad_versions_evicted_total",
                       "versions force-destroyed on number exhaustion");
  c_.software_fallback_conns =
      metrics_.counter("silkroad_software_fallback_total",
                       "flows pinned to the slow-path exact table");
  c_.meter_drops = metrics_.counter("silkroad_meter_drops_total",
                                    "packets marked red by a VIP meter");
  c_.aged_out = metrics_.counter("silkroad_aged_out_total",
                                 "idle entries collected by the aging sweep");
  c_.degraded_transitions =
      metrics_.counter("silkroad_degraded_mode_transitions_total",
                       "degraded-mode entries plus exits");
  c_.degraded_admits =
      metrics_.counter("silkroad_degraded_admits_total",
                       "flows admitted version-routed in degraded mode");
  c_.pending_shed =
      metrics_.counter("silkroad_pending_shed_total",
                       "flows shed by the bounded pending-insert queue");
  c_.relearns = metrics_.counter(
      "silkroad_relearns_total",
      "pending flows re-enqueued after a lost learning notification");
  c_.meter_green = metrics_.counter("silkroad_meter_packets_total",
                                    "metered packets by color",
                                    "color=\"green\"");
  c_.meter_yellow = metrics_.counter("silkroad_meter_packets_total",
                                     "metered packets by color",
                                     "color=\"yellow\"");
  c_.meter_red = metrics_.counter("silkroad_meter_packets_total",
                                  "metered packets by color",
                                  "color=\"red\"");
  c_.packet_latency_ns = metrics_.histogram(
      "silkroad_packet_latency_ns",
      "per-packet added latency (pipeline + slow-path redirects)");
  c_.learn_batch_size = metrics_.histogram(
      "silkroad_learn_batch_size", "learning-filter flush batch sizes");
  c_.insert_latency_ns = metrics_.histogram(
      "silkroad_insert_latency_ns",
      "learn-to-ConnTable-entry-landed latency per installed connection");
  c_.update_duration_ns = metrics_.histogram(
      "silkroad_update_duration_ns",
      "staged-to-finished duration of the 3-step update protocol");

  // Pull gauges: derived from live structures at snapshot time, so they can
  // never double-count against the push counters above.
  metrics_.register_callback(
      "silkroad_connections_installed", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(conn_table_.size()); },
      "entries resident in the ConnTable");
  metrics_.register_callback(
      "silkroad_connections_pending", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(pending_insertions()); },
      "flows awaiting CPU insertion");
  metrics_.register_callback(
      "silkroad_connections_software", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(software_flows()); },
      "flows served from the slow-path exact table");
  metrics_.register_callback(
      "silkroad_connections_degraded", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(degraded_flows()); },
      "flows version-pinned by shed/degraded admission");
  metrics_.register_callback(
      "silkroad_degraded_mode", obs::MetricKind::kGauge,
      [this] { return degraded_ ? 1.0 : 0.0; },
      "1 while the switch refuses new ConnTable insertions");
  metrics_.register_callback(
      "silkroad_learn_drops_total", obs::MetricKind::kCounter,
      [this] {
        return static_cast<double>(learning_filter_.dropped_events());
      },
      "learning-filter notifications lost before reaching the CPU");
  metrics_.register_callback(
      "silkroad_conn_table_moves_total", obs::MetricKind::kCounter,
      [this] { return static_cast<double>(conn_table_.total_moves()); },
      "cuckoo BFS relocations performed");
  metrics_.register_callback(
      "silkroad_update_queue_depth", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(update_queue_.size()); },
      "pool updates queued behind the in-flight one");
  metrics_.register_callback(
      "silkroad_update_in_flight", obs::MetricKind::kGauge,
      [this] { return phase_ == Phase::kIdle ? 0.0 : 1.0; },
      "1 while the 3-step update protocol is running");
  metrics_.register_callback(
      "silkroad_learning_filter_pending", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(learning_filter_.pending_count()); },
      "learn events buffered in the learning filter");
  metrics_.register_callback(
      "silkroad_vips", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(vips_.size()); },
      "VIPs configured on the switch");
  metrics_.register_callback(
      "silkroad_versions_active", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(live_versions()); },
      "live DIP-pool versions across all VIPs");
  metrics_.register_callback(
      "silkroad_versions_allocated_total", obs::MetricKind::kCounter,
      [this] {
        std::uint64_t total = 0;
        for (const auto& [vip, state] : vips_) {
          total += state.versions->versions_allocated();
        }
        return static_cast<double>(total);
      },
      "version numbers taken from the ring, all VIPs");
  metrics_.register_callback(
      "silkroad_versions_reused_total", obs::MetricKind::kCounter,
      [this] {
        std::uint64_t total = 0;
        for (const auto& [vip, state] : vips_) {
          total += state.versions->versions_reused();
        }
        return static_cast<double>(total);
      },
      "updates satisfied by dead-slot substitution (#4.2)");
  metrics_.register_callback(
      "silkroad_version_exhaustions_total", obs::MetricKind::kCounter,
      [this] {
        std::uint64_t total = 0;
        for (const auto& [vip, state] : vips_) {
          total += state.versions->exhaustions();
        }
        return static_cast<double>(total);
      },
      "allocation attempts that found the version ring empty");
  // Stage s examined every lookup that matched at s or later, or missed
  // everywhere; it missed those that went on to stage s + 1.
  const auto examined = [this](std::size_t stage) {
    std::uint64_t total = 0;
    for (std::size_t s = stage; s < stage_lookups_.size(); ++s) {
      total += stage_lookups_[s];
    }
    return static_cast<double>(total);
  };
  for (std::uint32_t stage = 0; stage < config_.conn_table.stages; ++stage) {
    const std::string label = "stage=\"" + std::to_string(stage) + "\"";
    metrics_.register_callback(
        "silkroad_conn_table_stage_occupancy", obs::MetricKind::kGauge,
        [this, stage] {
          return static_cast<double>(conn_table_.used_in_stage(stage));
        },
        "occupied ConnTable slots per physical pipeline stage", label);
    metrics_.register_callback(
        "silkroad_conn_table_stage_packets_total", obs::MetricKind::kCounter,
        [examined, stage] { return examined(stage); },
        "packets examined by the stage", label);
    metrics_.register_callback(
        "silkroad_conn_table_stage_hits_total", obs::MetricKind::kCounter,
        [this, stage] { return static_cast<double>(stage_lookups_[stage]); },
        "table hits at the stage", label);
    metrics_.register_callback(
        "silkroad_conn_table_stage_misses_total", obs::MetricKind::kCounter,
        [examined, stage] { return examined(stage + 1); },
        "table misses at the stage", label);
  }
  metrics_.register_callback(
      "obs_trace_dropped_total", obs::MetricKind::kCounter,
      [this] { return static_cast<double>(trace_.dropped()); },
      "trace events lost to ring wraparound");
}

SilkRoadSwitch::Stats SilkRoadSwitch::stats() const noexcept {
  Stats s;
  s.packets = c_.packets->value();
  s.conn_table_hits = c_.conn_table_hits->value();
  s.conn_table_misses = c_.conn_table_misses->value();
  s.learns = c_.learns->value();
  s.inserts = c_.inserts->value();
  s.insert_failures = c_.insert_failures->value();
  s.erases = c_.erases->value();
  s.syn_false_positives = c_.syn_false_positives->value();
  s.non_syn_false_hits = c_.non_syn_false_hits->value();
  s.relocation_failures = c_.relocation_failures->value();
  s.transit_false_positives = c_.transit_false_positives->value();
  s.updates_requested = c_.updates_requested->value();
  s.updates_completed = c_.updates_completed->value();
  s.versions_evicted = c_.versions_evicted->value();
  s.software_fallback_conns = c_.software_fallback_conns->value();
  s.meter_drops = c_.meter_drops->value();
  s.aged_out = c_.aged_out->value();
  return s;
}

SilkRoadSwitch::VipState* SilkRoadSwitch::find_vip(const net::Endpoint& vip) {
  const auto it = vips_.find(vip);
  return it == vips_.end() ? nullptr : &it->second;
}

const SilkRoadSwitch::VipState* SilkRoadSwitch::find_vip(
    const net::Endpoint& vip) const {
  const auto it = vips_.find(vip);
  return it == vips_.end() ? nullptr : &it->second;
}

std::uint64_t SilkRoadSwitch::live_versions() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [vip, state] : vips_) {
    total += state.versions->active_versions();
  }
  return total;
}

double SilkRoadSwitch::table_occupancy(std::size_t table) const {
  switch (static_cast<SramTable>(table)) {
    case SramTable::kConnTable:
      return conn_table_.occupancy();
    case SramTable::kTransitTable:
      // Byte-sized bloom: occupancy is its fill ratio, probabilistic fullness
      // rather than slots.
      return transit_.fill_ratio();
    case SramTable::kLearningFilter:
      return fraction(learning_filter_.pending_count(),
                      learning_filter_.config().capacity);
    case SramTable::kDipPoolTable:
      // Live (VIP, version) pools against the version-number space: its
      // occupancy is version exhaustion, the §4.2 failure mode.
      return fraction(live_versions(), static_cast<std::uint64_t>(vips_.size())
                                           << config_.version_bits);
  }
  return 0;
}

obs::TableUsage SilkRoadSwitch::table_usage(std::size_t table,
                                            bool with_stages) const {
  obs::TableUsage usage;
  usage.occupancy = table_occupancy(table);
  switch (static_cast<SramTable>(table)) {
    case SramTable::kConnTable:
      usage.entries = conn_table_.size();
      usage.capacity_entries = conn_table_.capacity();
      usage.bytes = conn_table_.sram_bytes();
      // Per-stage usage feeds the stage-skew fragmentation gauge; it walks
      // every slot, so only renderers ask for it.
      if (with_stages) {
        for (const auto& stage : conn_table_.stage_occupancy(1)) {
          usage.stages.push_back({stage.stage, stage.used, stage.capacity});
        }
      }
      usage.pressures = {
          {"cuckoo_moves", conn_table_.total_moves()},
          {"failed_inserts", conn_table_.failed_inserts()},
          {"relocation_failures", c_.relocation_failures->value()},
          {"software_fallbacks", c_.software_fallback_conns->value()},
          {"insert_shed", c_.pending_shed->value()},
      };
      break;
    case SramTable::kTransitTable:
      usage.entries = transit_.inserted();
      usage.bytes = transit_.byte_count();
      usage.pressures = {
          {"false_positives", c_.transit_false_positives->value()}};
      break;
    case SramTable::kLearningFilter: {
      // A LearnTable cell carries the IPv6 five-tuple plus the pool version
      // (296 + 6 bits, §5.2's LearnTable record).
      constexpr std::uint64_t kLearnCellBytes = asic::bits_to_bytes(296 + 6);
      usage.entries = learning_filter_.pending_count();
      usage.capacity_entries = learning_filter_.config().capacity;
      usage.bytes = kLearnCellBytes * usage.entries;
      usage.pressures = {
          {"dropped_events", learning_filter_.dropped_events()}};
      break;
    }
    case SramTable::kDipPoolTable:
      usage.entries = live_versions();
      usage.capacity_entries = static_cast<std::uint64_t>(vips_.size())
                               << config_.version_bits;
      usage.bytes = memory_usage().dip_pool_table_bytes;
      usage.pressures = {{"versions_evicted", c_.versions_evicted->value()}};
      break;
  }
  return usage;
}

obs::VipUsage SilkRoadSwitch::vip_usage_of(const net::Endpoint& vip,
                                           const VipState& state) const {
  obs::VipUsage usage;
  usage.vip = vip.to_string();
  for (const auto& members : state.conns_by_version) {
    usage.entries += members.size();
  }
  const std::uint64_t conn_bytes =
      asic::bits_to_bytes(usage.entries * conn_table_.entry_bits());
  // srlint: allow(R12) per-VIP attribution feeding the ledger — the
  // one place live bytes are apportioned; reconciled in capacity_test.
  usage.bytes = conn_bytes + state.versions->pool_table_bytes();
  return usage;
}

std::vector<obs::VipUsage> SilkRoadSwitch::vip_usage() const {
  std::vector<obs::VipUsage> rows;
  rows.reserve(vips_.size());
  for (const auto& [vip, state] : vips_) {
    rows.push_back(vip_usage_of(vip, state));
  }
  std::ranges::sort(rows, {}, &obs::VipUsage::vip);
  return rows;
}

void SilkRoadSwitch::poll_capacity() {
  if (!config_.capacity_telemetry) return;
  const sim::Time now = sim_.now();
  if (capacity_polled_ &&
      now - capacity_last_poll_ < kCapacityPollInterval) {
    return;
  }
  capacity_polled_ = true;
  capacity_last_poll_ = now;
  capacity_.poll(now);
}

void SilkRoadSwitch::add_vip(const net::Endpoint& vip,
                             const std::vector<net::Endpoint>& dips) {
  VipVersionManager::Config vm_config;
  vm_config.version_bits = config_.version_bits;
  vm_config.enable_reuse = config_.enable_version_reuse;
  VipState state;
  state.versions = std::make_unique<VipVersionManager>(vip, dips, vm_config);
  state.trace_scope = trace_.intern(vip.to_string());
  state.versions->bind_trace(&trace_, state.trace_scope);
  if (config_.data_plane_telemetry) {
    // Pre-register the initial DIPs so the imbalance denominators exist at
    // zero before any traffic (gauges count from the first sample).
    for (const net::Endpoint& dip : dips) dip_handles(state, vip, dip);
  }
  vips_.insert_or_assign(vip, std::move(state));

  if (config_.capacity_telemetry) {
    // Per-VIP SRAM attribution, read through the VIP's current state (0 once
    // reset() dropped it); adding the VIP again replaces the pair.
    const auto usage = [this, vip] {
      const VipState* current = find_vip(vip);
      return current == nullptr ? obs::VipUsage{}
                                : vip_usage_of(vip, *current);
    };
    const std::string labels = "vip=\"" + vip.to_string() + "\"";
    metrics_.register_callback(
        "silkroad_capacity_vip_entries", obs::MetricKind::kGauge,
        [usage] { return static_cast<double>(usage().entries); },
        "Live ConnTable entries attributed to the VIP", labels);
    metrics_.register_callback(
        "silkroad_capacity_vip_bytes", obs::MetricKind::kGauge,
        [usage] { return static_cast<double>(usage().bytes); },
        "SRAM bytes attributed to the VIP (ConnTable share + pool table)",
        labels);
  }
}

SilkRoadSwitch::DipConnHandles& SilkRoadSwitch::dip_handles(
    VipState& state, const net::Endpoint& vip, const net::Endpoint& dip) {
  const auto it = state.dip_conns.find(dip);
  if (it != state.dip_conns.end()) return it->second;
  const std::string labels =
      "dip=\"" + dip.to_string() + "\",vip=\"" + vip.to_string() + "\"";
  DipConnHandles handles;
  handles.new_conns = metrics_.counter(
      "silkroad_dip_new_conns_total",
      "connections admitted for the DIP (learned, shed, or degraded)",
      labels);
  handles.active = metrics_.gauge(
      "silkroad_dip_active_conns",
      "version-tracked connections currently mapped to the DIP", labels);
  return state.dip_conns.emplace(dip, handles).first->second;
}

void SilkRoadSwitch::release_dip_conn(VipState& state,
                                      const FlowRecord& record) {
  const auto dip = state.versions->select(record.version, record.flow);
  if (!dip) return;
  const auto it = state.dip_conns.find(*dip);
  if (it != state.dip_conns.end()) it->second.active->add(-1.0);
}

void SilkRoadSwitch::attach_meter(
    const net::Endpoint& vip, const asic::TwoRateThreeColorMeter::Config& meter,
    bool enforce) {
  VipState* state = find_vip(vip);
  if (state == nullptr) return;
  state->meter.emplace(meter);
  state->meter_enforce = enforce;
}

const VipVersionManager* SilkRoadSwitch::version_manager(
    const net::Endpoint& vip) const {
  const VipState* state = find_vip(vip);
  return state == nullptr ? nullptr : state->versions.get();
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

std::uint32_t SilkRoadSwitch::version_for_miss(const net::Endpoint& vip,
                                               VipState& state,
                                               const net::Packet& packet,
                                               FlowRecord* record,
                                               bool* redirected_to_cpu) {
  const std::uint32_t current = state.versions->current_version();
  if (phase_ == Phase::kIdle || !(update_vip_ == vip)) return current;
  const bool pending =
      record != nullptr && record->state == FlowState::kPending;

  if (phase_ == Phase::kStep1) {
    // Write-only phase: remember every ConnTable-missing flow of this VIP so
    // it keeps resolving to the old version after the flip.
    if (config_.use_transit_table) {
      transit_.insert(packet.flow);
      // The CPU-side completion gate only tracks flows that will resolve via
      // a pending insertion: a FIN of an untracked flow still lands in the
      // bloom (the ASIC cannot tell), but it must not wedge Step2. A
      // brand-new flow joins S2 once learn_new_flow() has its record.
      if (pending) add_transit_member(*record);
    }
    return current;  // still the old version
  }

  // Step 2 (read-only): the flip is done, `current` is the new version.
  if (!config_.use_transit_table) return current;
  if (transit_.maybe_contains(packet.flow)) {
    if (pending) {
      return update_old_version_;  // genuine member: pinned to the old pool
    }
    // Bloom false positive: a brand-new flow matched the filter and is
    // routed via the *old* pool — stale routing that can land it on a
    // removed DIP. A SYN taking this path is additionally redirected to the
    // switch CPU (§4.3), which is the hook a production control plane uses
    // to repair it; the hazard this models is what Fig. 18 sizes the filter
    // against.
    c_.transit_false_positives->inc();
    trace_.record(obs::EventKind::kTransitFalsePositive, state.trace_scope,
                  update_old_version_, net::flow_id(packet.flow));
    if (packet.syn && redirected_to_cpu != nullptr) {
      *redirected_to_cpu = true;
    }
    return update_old_version_;
  }
  return update_new_version_;
}

void SilkRoadSwitch::learn_new_flow(const net::Endpoint& vip, VipState& state,
                                    const net::FiveTuple& flow,
                                    std::uint32_t version,
                                    const net::Endpoint& dip) {
  c_.learns->inc();
  trace_.record(obs::EventKind::kLearn, state.trace_scope, version,
                net::flow_id(flow));
  // The record comes first: a full filter flushes inside learn(), and the
  // flush hands the CPU the handle the event carries.
  const FlowId id = new_record(flow, FlowState::kPending);
  FlowRecord& record = records_[id];
  record.version = version;
  record.learned_at = sim_.now();
  if (recording_transit(vip)) add_transit_member(record);
  track(state, id);
  learning_filter_.learn(flow, std::bit_cast<std::uint64_t>(handle_of(id)));
  if (config_.data_plane_telemetry) {
    DipConnHandles& handles = dip_handles(state, vip, dip);
    handles.new_conns->inc();
    handles.active->add(1.0);
  }
  track_digest(id);
  arm_relearn_sweep();
}

void SilkRoadSwitch::add_transit_member(FlowRecord& record) {
  if (record.transit_member) return;
  record.transit_member = true;
  ++transit_member_count_;
}

SilkRoadSwitch::FlowRecord* SilkRoadSwitch::find_record(
    const net::FiveTuple& flow) {
  const FlowId* id = flow_index_.find(flow);
  return id == nullptr ? nullptr : &records_[*id];
}

SilkRoadSwitch::FlowId SilkRoadSwitch::new_record(const net::FiveTuple& flow,
                                                  FlowState state) {
  FlowId id = kNoFlow;
  if (free_ids_.empty()) {
    id = static_cast<FlowId>(records_.size());
    records_.emplace_back();
    ++state_counts_[static_cast<std::size_t>(FlowState::kFree)];
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
  }
  FlowRecord& record = records_[id];
  record.flow = flow;
  set_state(record, state);
  const bool indexed = flow_index_.try_emplace(id, id).second;
  SR_DCHECKF(indexed, "flow %s already has a record", flow.to_string().c_str());
  return id;
}

void SilkRoadSwitch::set_state(FlowRecord& record, FlowState state) {
  --state_counts_[static_cast<std::size_t>(record.state)];
  ++state_counts_[static_cast<std::size_t>(state)];
  if (record.state == FlowState::kPending && state != FlowState::kPending) {
    // A resolved flow leaves S and S2.
    if (record.awaiting_pre) --awaiting_pre_count_;
    if (record.transit_member) --transit_member_count_;
    record.awaiting_pre = false;
    record.transit_member = false;
  }
  record.state = state;
}

void SilkRoadSwitch::free_record(FlowId id) {
  FlowRecord& record = records_[id];
  flow_index_.erase(record.flow);
  set_state(record, FlowState::kFree);
  const std::uint32_t generation = record.generation + 1;
  record = FlowRecord{};
  record.generation = generation;
  free_ids_.push_back(id);
}

SilkRoadSwitch::FlowRecord* SilkRoadSwitch::live(FlowHandle handle) noexcept {
  if (handle.id >= records_.size()) return nullptr;
  // free_record() bumps the generation, so a freed record never matches.
  FlowRecord& record = records_[handle.id];
  return record.generation == handle.generation ? &record : nullptr;
}

void SilkRoadSwitch::track(VipState& state, FlowId id) {
  FlowRecord& record = records_[id];
  state.versions->acquire(record.version);
  if (record.version >= state.conns_by_version.size()) {
    state.conns_by_version.resize(record.version + 1);
  }
  auto& members = state.conns_by_version[record.version];
  record.member_pos = static_cast<std::uint32_t>(members.size());
  members.push_back(id);
}

void SilkRoadSwitch::track_digest(FlowId id) {
  FlowRecord& record = records_[id];
  record.digest = conn_table_.digest_of(record.flow);
  DigestChain& chain = digest_chains_[record.digest];
  record.digest_prev = chain.tail;
  record.digest_next = kNoFlow;
  if (chain.tail == kNoFlow) {
    chain.head = id;
  } else {
    records_[chain.tail].digest_next = id;
  }
  chain.tail = id;
}

void SilkRoadSwitch::untrack_digest(FlowId id) {
  FlowRecord& record = records_[id];
  DigestChain* chain = digest_chains_.find(record.digest);
  SR_DCHECK(chain != nullptr &&
            (record.digest_prev != kNoFlow || chain->head == id));
  (record.digest_prev == kNoFlow ? chain->head
                                 : records_[record.digest_prev].digest_next) =
      record.digest_next;
  (record.digest_next == kNoFlow ? chain->tail
                                 : records_[record.digest_next].digest_prev) =
      record.digest_prev;
  record.digest_prev = kNoFlow;
  record.digest_next = kNoFlow;
  if (chain->head == kNoFlow) digest_chains_.erase(record.digest);
}

void SilkRoadSwitch::resolve_digest_conflicts(FlowId inserted) {
  const DigestChain* chain = digest_chains_.find(records_[inserted].digest);
  if (chain == nullptr) return;
  // Digest collisions are rare (~1e-4 of flows at 16 bits), so this loop is
  // almost always a single iteration over the inserted flow itself.
  for (FlowId id = chain->head; id != kNoFlow; id = records_[id].digest_next) {
    const net::FiveTuple& flow = records_[id].flow;
    const auto hit = conn_table_.lookup(flow);
    if (hit && conn_table_.is_false_positive(flow, hit->slot)) {
      if (!conn_table_.relocate_for(flow, hit->slot)) {
        c_.relocation_failures->inc();
        trace_.record(obs::EventKind::kRelocationFail);
      }
    }
  }
}

lb::PacketResult SilkRoadSwitch::process_packet(const net::Packet& packet) {
  const lb::PacketResult result = process_packet_impl(packet);
  // Capacity-ledger poll: one time comparison per packet, full sampling at
  // most once per kCapacityPollInterval of sim time.
  poll_capacity();
  // Unknown-VIP packets return a zero result; everything else was charged at
  // least the pipeline latency, so this records exactly the counted packets.
  if (result.added_latency > 0) {
    c_.packet_latency_ns->record(result.added_latency);
  }
  return result;
}

lb::PacketResult SilkRoadSwitch::process_packet_impl(
    const net::Packet& packet) {
  VipState* state = find_vip(packet.flow.dst);
  if (state == nullptr) return {};
  c_.packets->inc();
  lb::PacketResult result;
  result.added_latency = kPipelineLatency;

  if (state->meter) {
    const auto color = state->meter->mark(sim_.now(), packet.size_bytes);
    switch (color) {
      case asic::MeterColor::kGreen:
        c_.meter_green->inc();
        break;
      case asic::MeterColor::kYellow:
        c_.meter_yellow->inc();
        trace_.record(obs::EventKind::kMeterColor, state->trace_scope,
                      obs::kNoVersion, 0, static_cast<std::uint64_t>(color));
        break;
      case asic::MeterColor::kRed:
        c_.meter_red->inc();
        trace_.record(obs::EventKind::kMeterColor, state->trace_scope,
                      obs::kNoVersion, 0, static_cast<std::uint64_t>(color));
        break;
    }
    if (color == asic::MeterColor::kRed) {
      c_.meter_drops->inc();
      if (state->meter_enforce) return result;  // dropped
    }
  }

  const net::Endpoint vip = packet.flow.dst;

  const auto hit = conn_table_.lookup(packet.flow);
  ++stage_lookups_[hit ? hit->slot.stage : stage_lookups_.size() - 1];
  if (hit) {
    if (conn_table_.is_false_positive(packet.flow, hit->slot)) {
      if (packet.syn) {
        // §4.2: a SYN hitting an existing entry signals a digest collision.
        // The switch CPU relocates the resident entry to another stage and
        // re-injects the SYN, which then follows the normal miss path. The
        // few-ms redirect delays connection setup but packets before the
        // re-injected SYN do not exist, so consistency is unaffected.
        c_.syn_false_positives->inc();
        trace_.record(obs::EventKind::kDigestCollision,
                      state->trace_scope, hit->value,
                      net::flow_id(packet.flow),
                      conn_table_.digest_of(packet.flow));
        result.redirected_to_cpu = true;
        result.added_latency += kSynRedirectDelay;
        if (!conn_table_.relocate_for(packet.flow, hit->slot)) {
          c_.relocation_failures->inc();
          trace_.record(obs::EventKind::kRelocationFail,
                        state->trace_scope);
          // No conflict-free placement: pin the new flow in the slow-path
          // exact table instead. A flow that already has a record keeps it.
          FlowRecord* record = find_record(packet.flow);
          const std::uint32_t version =
              version_for_miss(vip, *state, packet, record, nullptr);
          const auto dip = state->versions->select(version, packet.flow);
          if (dip && record == nullptr) {
            records_[new_record(packet.flow, FlowState::kSoftware)]
                .software_dip = *dip;
            c_.software_fallback_conns->inc();
            trace_.record(obs::EventKind::kSoftwareFallback,
                          state->trace_scope, version,
                          net::flow_id(packet.flow));
          }
          result.dip = dip;
          return result;
        }
        // Fall through to the miss path below.
      } else {
        // Mid-flow false hit: the ASIC cannot distinguish it, so the packet
        // follows the collided entry's version (a pending flow's transient
        // mis-steering; vanishingly rare at 16-bit digests).
        c_.non_syn_false_hits->inc();
        auto dip = state->versions->select(hit->value, packet.flow);
        if (!dip) {
          dip = state->versions->select(state->versions->current_version(),
                                        packet.flow);
        }
        if (packet.fin) {
          if (FlowRecord* record = find_record(packet.flow);
              record != nullptr && record->state == FlowState::kPending) {
            record->dead = true;
          }
        }
        result.dip = dip;
        return result;
      }
    } else {
      c_.conn_table_hits->inc();
      conn_table_.touch(hit->slot, sim_.now());  // hardware hit bit
      result.dip = state->versions->select(hit->value, packet.flow);
      if (packet.fin) {
        if (const FlowId* id = flow_index_.find(packet.flow)) {
          records_[*id].dead = true;
          enqueue_erase(*id);
        }
      }
      return result;
    }
  }

  // --- ConnTable miss --------------------------------------------------------
  c_.conn_table_misses->inc();

  const FlowId* id = flow_index_.find(packet.flow);
  FlowRecord* record = id == nullptr ? nullptr : &records_[*id];
  if (record != nullptr && record->state == FlowState::kSoftware) {
    result.dip = record->software_dip;
    result.redirected_to_cpu = true;  // slow-path flow: every packet via CPU
    result.added_latency += kSynRedirectDelay;
    if (packet.fin) free_record(*id);
    return result;
  }

  if (record != nullptr && record->state == FlowState::kDegraded) {
    // Shed/degraded admission: served version-routed from the pinned
    // admission-time version, no ConnTable entry.
    result.dip = state->versions->select(record->version, packet.flow);
    if (packet.fin) {
      release_conn(*state, *id);
      free_record(*id);
    }
    return result;
  }

  // A pending flow, or (rarely) an installed one whose SYN was shadowed by a
  // colliding entry that the code above just relocated.
  if (packet.fin || record != nullptr) {
    const bool was_redirected = result.redirected_to_cpu;
    const std::uint32_t version = version_for_miss(
        vip, *state, packet, record, &result.redirected_to_cpu);
    if (result.redirected_to_cpu && !was_redirected) {
      result.added_latency += kSynRedirectDelay;
    }
    result.dip = state->versions->select(version, packet.flow);
    if (packet.fin && record != nullptr &&
        record->state == FlowState::kPending) {
      // Flow ended before its entry landed: cancel the pending insertion.
      record->dead = true;
    }
    return result;
  }

  // Brand-new flow: the admission decision comes *before* version_for_miss
  // so a shed/degraded flow never enters the TransitTable bookkeeping (it
  // would have no pending insertion to drain it back out).
  maybe_update_degraded();
  const bool queue_full = config_.max_pending_inserts > 0 &&
                          pending_insertions() >= config_.max_pending_inserts;
  if (degraded_ || queue_full) {
    result.dip = admit_without_insert(vip, *state, packet.flow,
                                      /*shed=*/queue_full && !degraded_);
    return result;
  }

  const bool was_redirected = result.redirected_to_cpu;
  const std::uint32_t version = version_for_miss(
      vip, *state, packet, nullptr, &result.redirected_to_cpu);
  if (result.redirected_to_cpu && !was_redirected) {
    result.added_latency += kSynRedirectDelay;
  }
  const auto dip = state->versions->select(version, packet.flow);
  if (!dip) return result;  // empty pool: the flow is not learned
  result.dip = dip;
  learn_new_flow(vip, *state, packet.flow, version, *dip);
  return result;
}

// ---------------------------------------------------------------------------
// Control plane: learning + insertion
// ---------------------------------------------------------------------------

void SilkRoadSwitch::on_learning_flush(
    const std::vector<asic::LearnEvent>& batch) {
  c_.learn_batch_size->record(batch.size());
  for (const auto& event : batch) {
    // A stale handle (the record was evicted, and maybe reused, while the
    // event sat in the filter) queues a task that does nothing.
    const auto handle = std::bit_cast<FlowHandle>(event.value);
    if (FlowRecord* record = live(handle);
        record != nullptr && record->state == FlowState::kPending) {
      record->enqueued = true;  // notification survived the channel
    }
    enqueue_insertion(handle, event.flow);
  }
}

void SilkRoadSwitch::enqueue_insertion(FlowHandle handle,
                                       const net::FiveTuple& flow) {
  auto task = [this, handle] { complete_insertion(handle); };
  static_assert(sizeof(task) <= 16 && std::is_trivially_copyable_v<decltype(task)>,
                "CPU tasks must fit std::function's inline buffer");
  // Shard by flow so multi-pipe CPUs keep per-flow operation order (§5.2).
  cpu_.enqueue(task, net::flow_id(flow));
}

void SilkRoadSwitch::complete_insertion(FlowHandle handle) {
  FlowRecord* record = live(handle);
  // Already resolved, evicted, or the record now holds another flow.
  if (record == nullptr || record->state != FlowState::kPending) return;
  const FlowId id = handle.id;
  const net::Endpoint vip = record->flow.dst;
  VipState* state = find_vip(vip);
  SR_DCHECK(state != nullptr);  // records never outlive their VIP

  if (record->dead) {
    // The flow finished while queued; nothing to install.
    untrack_digest(id);
    release_conn(*state, id);
    free_record(id);
  } else {
    // The insert-fail fault hook forces the BFS-budget-exhausted outcome so
    // chaos runs exercise the software-fallback path deterministically.
    const auto res = (insert_fail_hook_ && insert_fail_hook_(record->flow))
                         ? asic::DigestCuckooTable::InsertResult{}
                         : conn_table_.insert(record->flow, record->version);
    if (res.inserted) {
      set_state(*record, FlowState::kInstalled);
      c_.inserts->inc();
      c_.insert_latency_ns->record(sim_.now() - record->learned_at);
      conn_table_.touch_exact(record->flow, sim_.now());
      resolve_digest_conflicts(id);
      arm_aging_sweep();
    } else {
      c_.insert_failures->inc();
      untrack_digest(id);
      const auto dip = state->versions->select(record->version, record->flow);
      if (dip) {
        c_.software_fallback_conns->inc();
        trace_.record(obs::EventKind::kSoftwareFallback,
                      state->trace_scope, record->version,
                      net::flow_id(record->flow));
      }
      release_conn(*state, id);
      if (dip) {
        set_state(*record, FlowState::kSoftware);
        record->software_dip = *dip;
      } else {
        free_record(id);
      }
    }
  }
  note_pending_resolved(vip);
  // Insertions move occupancy without a packet in flight (sim.run() drains);
  // keep the ledger's fill-trend history sampled through such bursts.
  poll_capacity();
}

void SilkRoadSwitch::enqueue_erase(FlowId id) {
  auto task = [this, handle = handle_of(id)] { erase_installed(handle); };
  static_assert(sizeof(task) <= 16 && std::is_trivially_copyable_v<decltype(task)>,
                "CPU tasks must fit std::function's inline buffer");
  cpu_.enqueue(task, net::flow_id(records_[id].flow));
}

void SilkRoadSwitch::erase_installed(FlowHandle handle) {
  FlowRecord* record = live(handle);
  if (record == nullptr) return;
  record->aging_queued = false;
  if (record->state != FlowState::kInstalled ||
      !conn_table_.erase(record->flow)) {
    return;
  }
  c_.erases->inc();
  untrack_digest(handle.id);
  VipState* state = find_vip(record->flow.dst);
  SR_DCHECK(state != nullptr);
  release_conn(*state, handle.id);
  free_record(handle.id);
}

void SilkRoadSwitch::release_conn(VipState& state, FlowId id) {
  const FlowRecord& record = records_[id];
  // Before release(): the (version, flow) -> DIP mapping must still be live
  // to attribute the departure to the right DIP gauge.
  if (config_.data_plane_telemetry) release_dip_conn(state, record);
  state.versions->release(record.version);
  auto& members = state.conns_by_version[record.version];
  const FlowId moved = members.back();
  members[record.member_pos] = moved;
  records_[moved].member_pos = record.member_pos;
  members.pop_back();
}

// ---------------------------------------------------------------------------
// Control plane: 3-step PCC update protocol
// ---------------------------------------------------------------------------

void SilkRoadSwitch::request_update(const workload::DipUpdate& update) {
  c_.updates_requested->inc();
  workload::DipUpdate& queued = update_queue_.emplace_back(update);
  // An update no fleet traced gets its span here (a disabled collector
  // returns 0 and leaves it untraced).
  if (queued.update_id == 0) spans_->begin_update(queued, sim_.now());
  span_event(queued.update_id, obs::EventKind::kQueueStage);
  // Defer the start by one event: requests landing at the same instant
  // (rolling-reboot bursts) are then all queued before the control plane
  // picks them up and can be staged as one atomic batch.
  sim_.schedule_after(0, [this] { try_start_next_update(); });
}

void SilkRoadSwitch::try_start_next_update() {
  while (phase_ == Phase::kIdle && !update_queue_.empty()) {
    const workload::DipUpdate update = update_queue_.front();
    update_queue_.pop_front();
    VipState* state = find_vip(update.vip);
    if (state == nullptr) {
      span_event(update.update_id, obs::EventKind::kAbandon, 0, 0);
      continue;
    }

    // Coalesce a same-instant burst for the same VIP (e.g., a rolling-reboot
    // batch) into one atomic staged version — one flip, one version number.
    std::vector<workload::DipUpdate> batch{update};
    while (!update_queue_.empty() &&
           update_queue_.front().vip == update.vip &&
           update_queue_.front().at == update.at) {
      batch.push_back(update_queue_.front());
      update_queue_.pop_front();
    }
    span_batch_.clear();
    for (const auto& queued : batch) {
      if (queued.update_id != 0) span_batch_.push_back(queued.update_id);
    }

    auto staged = state->versions->stage_update_batch(batch);
    if (!staged) {
      // Version-number exhaustion: evict the least-used version by moving
      // its flows to exact DIP mappings (§4.2 fallback), then retry.
      if (evict_version_for(*state)) {
        staged = state->versions->stage_update_batch(batch);
      }
      if (!staged) {
        // cannot stage (degenerate config); drop
        span_batch_event(obs::EventKind::kAbandon, 0, 1);
        span_batch_.clear();
        continue;
      }
    }

    update_vip_ = update.vip;
    update_old_version_ = state->versions->current_version();
    update_new_version_ = staged->target_version;
    update_started_at_ = sim_.now();

    if (update_new_version_ == update_old_version_ ||
        !config_.use_transit_table) {
      // The update completes at once. Either a dead-slot substitution landed
      // in the current version, so the pool mutation is already in place and
      // no VIPTable flip is needed, or the ablation (Figs. 16/17) flips
      // immediately and flows pending insertion flap to the new version until
      // their (old-version) entries land. The span still records every step
      // (at one instant) so a leg reads the same on every completion path.
      if (update_new_version_ != update_old_version_) {
        state->versions->commit(update_new_version_);
      }
      c_.updates_completed->inc();
      c_.update_duration_ns->record(0);
      span_batch_event(obs::EventKind::kStep1Open, update_old_version_,
                       update_new_version_);
      span_batch_event(obs::EventKind::kFlip, update_old_version_,
                       update_new_version_);
      span_batch_event(obs::EventKind::kFinish);
      span_batch_.clear();
      if (risk_cb_) risk_cb_(update.vip);
      continue;
    }

    // Step 1 (t_req): record new flows in the TransitTable; flip only after
    // every flow that arrived before t_req has its entry installed.
    phase_ = Phase::kStep1;
    span_batch_event(obs::EventKind::kStep1Open, update_old_version_,
                     update_new_version_);
    SR_DCHECK(awaiting_pre_count_ == 0 && transit_member_count_ == 0);
    for (const auto& members : state->conns_by_version) {
      for (const FlowId id : members) {
        FlowRecord& record = records_[id];
        if (record.state == FlowState::kPending && !record.dead) {
          record.awaiting_pre = true;
          ++awaiting_pre_count_;
        }
      }
    }
    if (awaiting_pre_count_ == 0) {
      execute_flip();
      // execute_flip may already finish the update (no transit members), in
      // which case phase_ is Idle again and the loop continues naturally.
    }
  }
}

void SilkRoadSwitch::execute_flip() {
  VipState* state = find_vip(update_vip_);
  SR_CHECKF(state != nullptr, "update in flight for an unknown VIP %s",
            update_vip_.to_string().c_str());
  state->versions->commit(update_new_version_);
  phase_ = Phase::kStep2;
  span_batch_event(obs::EventKind::kFlip, update_old_version_,
                   update_new_version_);
  if (risk_cb_) risk_cb_(update_vip_);
  if (transit_member_count_ == 0) finish_update();
}

void SilkRoadSwitch::finish_update() {
  SR_DCHECK(awaiting_pre_count_ == 0 && transit_member_count_ == 0);
  transit_.clear();
  phase_ = Phase::kIdle;
  c_.updates_completed->inc();
  c_.update_duration_ns->record(sim_.now() - update_started_at_);
  span_batch_event(obs::EventKind::kFinish);
  span_batch_.clear();
  try_start_next_update();
}

void SilkRoadSwitch::bind_spans(obs::SpanCollector* spans,
                                std::uint32_t switch_index) {
  spans_ = spans != nullptr ? spans : &own_spans_;
  span_switch_ = switch_index;
}

void SilkRoadSwitch::span_event(std::uint64_t id, obs::EventKind kind,
                                std::uint64_t arg0, std::uint64_t arg1) {
  spans_->record(id, kind, span_switch_, sim_.now(), arg0, arg1);
}

void SilkRoadSwitch::span_batch_event(obs::EventKind kind,
                                      std::uint64_t arg0, std::uint64_t arg1) {
  for (const std::uint64_t id : span_batch_) span_event(id, kind, arg0, arg1);
}

void SilkRoadSwitch::note_pending_resolved(const net::Endpoint& vip) {
  // The resolved flow already left S and S2 (set_state).
  if (phase_ == Phase::kIdle || !(update_vip_ == vip)) return;
  if (phase_ == Phase::kStep1) {
    if (awaiting_pre_count_ == 0) execute_flip();
  } else if (transit_member_count_ == 0) {
    finish_update();
  }
}

bool SilkRoadSwitch::evict_version_for(VipState& state) {
  const auto victim = state.versions->eviction_candidate();
  if (!victim) return false;
  if (*victim < state.conns_by_version.size()) {
    // Updates stage only while idle, so no evicted flow is in S or S2.
    auto& members = state.conns_by_version[*victim];
    for (const FlowId id : members) {
      FlowRecord& record = records_[id];
      const auto dip = state.versions->select(*victim, record.flow);
      // A flow that already sent its FIN is dropped, not pinned: nothing
      // would ever remove its software entry.
      const bool pin = dip.has_value() && !record.dead;
      if (pin) {
        c_.software_fallback_conns->inc();
        trace_.record(obs::EventKind::kSoftwareFallback,
                      state.trace_scope, *victim, net::flow_id(record.flow));
      }
      // The flow leaves version tracking wholesale (no release_conn), so
      // settle its per-DIP active gauge here.
      if (dip && config_.data_plane_telemetry) {
        const auto handles = state.dip_conns.find(*dip);
        if (handles != state.dip_conns.end()) {
          handles->second.active->add(-1.0);
        }
      }
      if (record.state == FlowState::kInstalled &&
          conn_table_.erase(record.flow)) {
        c_.erases->inc();
      }
      if (record.state == FlowState::kPending ||
          record.state == FlowState::kInstalled) {
        untrack_digest(id);
      }
      // A pending flow's queued insertion finds the record no longer
      // pending and does nothing, so the victim is never released again.
      if (pin) {
        set_state(record, FlowState::kSoftware);
        record.software_dip = *dip;
      } else {
        free_record(id);
      }
    }
    members.clear();
  }
  state.versions->force_destroy(*victim);
  c_.versions_evicted->inc();
  return true;
}

void SilkRoadSwitch::arm_aging_sweep() {
  if (config_.idle_timeout == 0 || aging_armed_) return;
  aging_armed_ = true;
  sim_.schedule_after(config_.aging_sweep_period, [this] { aging_sweep(); });
}

void SilkRoadSwitch::aging_sweep() {
  aging_armed_ = false;
  const sim::Time now = sim_.now();
  if (now > config_.idle_timeout) {
    const sim::Time cutoff = now - config_.idle_timeout;
    for (const auto& flow : conn_table_.collect_idle(cutoff)) {
      const FlowId* id = flow_index_.find(flow);
      if (id == nullptr) continue;
      FlowRecord& record = records_[*id];
      if (record.aging_queued) continue;  // erase already queued
      record.aging_queued = true;
      c_.aged_out->inc();
      if (const VipState* state = find_vip(flow.dst); state != nullptr) {
        trace_.record(obs::EventKind::kAgedOut, state->trace_scope,
                      record.version, net::flow_id(flow));
      }
      enqueue_erase(*id);
    }
  }
  if (conn_table_.size() > 0 || pending_insertions() > 0) {
    arm_aging_sweep();
  }
}

void SilkRoadSwitch::handle_dip_failure(const net::Endpoint& vip,
                                        const net::Endpoint& dip,
                                        bool resilient_in_place) {
  VipState* state = find_vip(vip);
  if (state == nullptr) return;
  if (!resilient_in_place) {
    workload::DipUpdate update;
    update.at = sim_.now();
    update.vip = vip;
    update.dip = dip;
    update.action = workload::UpdateAction::kRemoveDip;
    update.cause = workload::UpdateCause::kFailure;
    request_update(update);
    return;
  }
  // §7 alternative: mark the DIP dead in every pool version; resilient
  // hashing diverts its flows without a version flip. Flows that targeted
  // the failed DIP re-map (they are broken by the server loss regardless).
  state->versions->mark_dip_down(dip);
  if (risk_cb_) risk_cb_(vip);
}

// ---------------------------------------------------------------------------
// Graceful degradation + fault hooks
// ---------------------------------------------------------------------------

void SilkRoadSwitch::set_fault_hooks(FaultHooks hooks) {
  cpu_.set_delay_hook(std::move(hooks.cpu_delay));
  learning_filter_.set_drop_hook(std::move(hooks.learn_drop));
  insert_fail_hook_ = std::move(hooks.insert_fail);
}

std::optional<net::Endpoint> SilkRoadSwitch::admit_without_insert(
    const net::Endpoint& vip, VipState& state, const net::FiveTuple& flow,
    bool shed) {
  // current_version() directly — never version_for_miss — so the flow leaves
  // no TransitTable record. The pin makes this equivalent to a ConnTable
  // entry for consistency purposes: during Step1 the pin holds the old
  // version; after a flip the pin still holds it.
  const std::uint32_t version = state.versions->current_version();
  const auto dip = state.versions->select(version, flow);
  if (!dip) return std::nullopt;
  const FlowId id = new_record(flow, FlowState::kDegraded);
  records_[id].version = version;
  track(state, id);
  if (config_.data_plane_telemetry) {
    DipConnHandles& handles = dip_handles(state, vip, *dip);
    handles.new_conns->inc();
    handles.active->add(1.0);
  }
  if (shed) {
    c_.pending_shed->inc();
    trace_.record(obs::EventKind::kInsertShed, state.trace_scope, version,
                  net::flow_id(flow));
  } else {
    c_.degraded_admits->inc();
  }
  return dip;
}

void SilkRoadSwitch::maybe_update_degraded() {
  // Keep the capacity alarms at least as fresh as the degradation gate, so a
  // degradation transition always lands next to an up-to-date ledger level
  // in the trace ring.
  poll_capacity();
  const std::size_t backlog = cpu_.queue_depth();
  if (!degraded_) {
    if (config_.degraded_enter_backlog > 0 &&
        backlog >= config_.degraded_enter_backlog) {
      degraded_ = true;
      c_.degraded_transitions->inc();
      trace_.record(obs::EventKind::kDegradedEnter, obs::kNoScope,
                    obs::kNoVersion, 0, backlog, pending_insertions());
      arm_degraded_poll();
    }
    return;
  }
  if (config_.degraded_enter_backlog == 0 ||
      backlog <= config_.degraded_exit_backlog) {
    degraded_ = false;
    c_.degraded_transitions->inc();
    trace_.record(obs::EventKind::kDegradedExit, obs::kNoScope,
                  obs::kNoVersion, 0, backlog, pending_insertions());
  }
}

void SilkRoadSwitch::arm_degraded_poll() {
  // Exit is re-checked on every admission; the poll covers the case where
  // traffic to this switch stops entirely while it is degraded.
  if (!degraded_ || degraded_poll_armed_) return;
  degraded_poll_armed_ = true;
  sim_.schedule_after(kDegradedPollPeriod, [this] {
    degraded_poll_armed_ = false;
    maybe_update_degraded();
    arm_degraded_poll();
  });
}

void SilkRoadSwitch::arm_relearn_sweep() {
  if (config_.relearn_timeout == 0 || relearn_armed_) return;
  relearn_armed_ = true;
  sim_.schedule_after(config_.relearn_timeout, [this] { relearn_sweep(); });
}

void SilkRoadSwitch::relearn_sweep() {
  relearn_armed_ = false;
  const sim::Time now = sim_.now();
  const sim::Time cutoff =
      now >= config_.relearn_timeout ? now - config_.relearn_timeout : 0;
  // Slab order, so the CPU sees the re-enqueued insertions in an order that
  // does not depend on a hash.
  for (FlowId id = 0; id < records_.size(); ++id) {
    FlowRecord& record = records_[id];
    // Dead entries are re-enqueued too: a flow that FINs after its
    // notification was dropped still needs complete_insertion to release its
    // version refcount and drain the update completion gate.
    if (record.state != FlowState::kPending || record.enqueued ||
        record.learned_at > cutoff) {
      continue;
    }
    // The filter flushes an event within learning.timeout of its learn, and
    // relearn_timeout is longer (checked at construction), so the
    // notification was dropped between the filter and the CPU: re-enqueue
    // the insertion directly from the CPU's shadow record.
    record.enqueued = true;
    c_.relearns->inc();
    if (const VipState* state = find_vip(record.flow.dst); state != nullptr) {
      trace_.record(obs::EventKind::kRelearn, state->trace_scope,
                    record.version, net::flow_id(record.flow));
    }
    enqueue_insertion(handle_of(id), record.flow);
  }
  if (pending_insertions() > 0) arm_relearn_sweep();
}

void SilkRoadSwitch::reset() {
  // Updates dying with the crash are abandoned on this switch's span leg —
  // both the queued ones and the coalesced batch mid-protocol. The
  // controller's restore-time resync subsumes them.
  for (const auto& queued : update_queue_) {
    span_event(queued.update_id, obs::EventKind::kAbandon, 0, 2);
  }
  span_batch_event(obs::EventKind::kAbandon, 0, 2);
  span_batch_.clear();
  conn_table_.clear();
  learning_filter_.reset();
  transit_.clear();
  // The crash wipes connection state, so the per-DIP active gauges go to
  // zero with it (counters, being monotone, survive).
  for (auto& [vip, state] : vips_) {
    for (auto& [dip, handles] : state.dip_conns) handles.active->set(0.0);
  }
  vips_.clear();
  // Every record is freed with a new generation, so CPU tasks queued before
  // the crash find their handles stale.
  free_ids_.clear();
  for (FlowId id = static_cast<FlowId>(records_.size()); id-- > 0;) {
    FlowRecord& record = records_[id];
    if (record.state != FlowState::kFree) {
      const std::uint32_t generation = record.generation + 1;
      record = FlowRecord{};
      record.generation = generation;
    }
    free_ids_.push_back(id);
  }
  state_counts_ = {};
  state_counts_[static_cast<std::size_t>(FlowState::kFree)] = records_.size();
  flow_index_.clear();
  digest_chains_.clear();
  update_queue_.clear();
  awaiting_pre_count_ = 0;
  transit_member_count_ = 0;
  phase_ = Phase::kIdle;
  degraded_ = false;
}

std::vector<net::FiveTuple> SilkRoadSwitch::failover_blast_radius() const {
  std::vector<net::FiveTuple> flows;
  for (const FlowRecord& record : records_) {
    if (record.state == FlowState::kFree) continue;
    if (record.state != FlowState::kSoftware) {
      const VipState* state = find_vip(record.flow.dst);
      if (state == nullptr ||
          record.version == state->versions->current_version()) {
        continue;
      }
    }
    flows.push_back(record.flow);
  }
  return flows;
}

std::string SilkRoadSwitch::debug_report() const {
  char buf[256];
  std::string out;
  const auto usage = memory_usage();
  std::snprintf(buf, sizeof buf,
                "silkroad switch: %zu VIPs, %zu connections installed "
                "(%.1f%% of %zu slots), %zu pending, %zu software\n",
                vips_.size(), conn_table_.size(),
                100.0 * conn_table_.occupancy(), conn_table_.capacity(),
                pending_insertions(), software_flows());
  out += buf;
  std::snprintf(buf, sizeof buf,
                "memory: ConnTable %.2f MB, DIPPoolTable %.1f KB, "
                "TransitTable %zu B\n",
                usage.conn_table_bytes / 1e6,
                usage.dip_pool_table_bytes / 1e3, usage.transit_table_bytes);
  out += buf;
  const char* phase = phase_ == Phase::kIdle    ? "idle"
                      : phase_ == Phase::kStep1 ? "step1 (recording)"
                                                : "step2 (draining)";
  std::snprintf(buf, sizeof buf,
                "control plane: update %s, %zu queued, CPU queue %zu deep "
                "(%zu pipe%s)\n",
                phase, update_queue_.size(), cpu_.queue_depth(),
                cpu_.pipe_count(), cpu_.pipe_count() == 1 ? "" : "s");
  out += buf;
  for (const auto& [vip, state] : vips_) {
    const auto& mgr = *state.versions;
    const auto* pool = mgr.pool(mgr.current_version());
    std::snprintf(buf, sizeof buf,
                  "  vip %-24s version %2u (%zu live), %zu DIPs%s%s\n",
                  vip.to_string().c_str(), mgr.current_version(),
                  mgr.active_versions(), pool ? pool->live_count() : 0,
                  state.meter ? ", metered" : "",
                  (phase_ != Phase::kIdle && update_vip_ == vip)
                      ? ", UPDATING"
                      : "");
    out += buf;
  }
  // Counters render from a registry snapshot — the same data every exporter
  // sees — so the CLI line can never drift from the exported telemetry.
  const obs::Snapshot snap = metrics_.snapshot();
  const auto count = [&snap](const char* name) {
    return static_cast<unsigned long long>(snap.value_of(name));
  };
  std::snprintf(
      buf, sizeof buf,
      "counters: %llu pkts, %llu learns, %llu inserts (%llu failed), "
      "%llu erases, %llu aged, %llu syn-fp, %llu updates done\n",
      count("silkroad_packets_total"), count("silkroad_learns_total"),
      count("silkroad_inserts_total"), count("silkroad_insert_failures_total"),
      count("silkroad_erases_total"), count("silkroad_aged_out_total"),
      count("silkroad_syn_false_positives_total"),
      count("silkroad_updates_completed_total"));
  out += buf;
  const auto quantile_pair = [&snap, &buf, &out](const char* label,
                                                 const char* name) {
    const double p50 = snap.quantile(name, "", 0.50);
    const double p99 = snap.quantile(name, "", 0.99);
    if (std::isnan(p50)) return;  // histogram empty: nothing to report
    std::snprintf(buf, sizeof buf, "latency: %s p50 %.0f ns, p99 %.0f ns\n",
                  label, p50, p99);
    out += buf;
  };
  quantile_pair("packet", "silkroad_packet_latency_ns");
  quantile_pair("insert", "silkroad_insert_latency_ns");
  quantile_pair("update", "silkroad_update_duration_ns");
  if (config_.capacity_telemetry) {
    out += "\n";
    out += capacity_.to_text();
  }
  return out;
}

std::string SilkRoadSwitch::tables_json() const {
  std::string out = "{\"conn_table\":{\"size\":";
  out += std::to_string(conn_table_.size());
  out += ",\"capacity\":";
  out += std::to_string(conn_table_.capacity());
  out += ",\"occupancy\":";
  out += obs::format_number(conn_table_.occupancy());
  out += ",\"stages\":[";
  bool first = true;
  for (const auto& row : conn_table_.stage_occupancy()) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"stage\":";
    out += std::to_string(row.stage);
    out += ",\"used\":";
    out += std::to_string(row.used);
    out += ",\"capacity\":";
    out += std::to_string(row.capacity);
    out += ",\"bin_capacity\":";
    out += std::to_string(row.bin_capacity);
    out += ",\"bins\":[";
    bool first_bin = true;
    for (const std::size_t bin : row.bins) {
      if (!first_bin) out += ",";
      first_bin = false;
      out += std::to_string(bin);
    }
    out += "]}";
  }
  out += "\n]},\"pending\":";
  out += std::to_string(pending_insertions());
  out += ",\"software_table\":";
  out += std::to_string(software_flows());
  out += ",\"transit_table_bytes\":";
  out += std::to_string(transit_.byte_count());
  out += ",\"vips\":";
  out += std::to_string(vips_.size());
  out += "}\n";
  return out;
}

SilkRoadSwitch::MemoryUsage SilkRoadSwitch::memory_usage() const {
  MemoryUsage usage;
  usage.conn_table_bytes = conn_table_.sram_bytes();
  for (const auto& [vip, state] : vips_) {
    // srlint: allow(R12) the switch's own MemoryUsage snapshot — consumed by
    // the auditor and the ledger's dip_pool row; reconciled in capacity_test.
    usage.dip_pool_table_bytes += state.versions->pool_table_bytes();
  }
  usage.transit_table_bytes = transit_.byte_count();
  return usage;
}

}  // namespace silkroad::core
