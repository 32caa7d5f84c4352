// SilkRoad: stateful L4 load balancing entirely inside a switching ASIC
// (paper §4, Figure 10).
//
// Data plane (per packet, line rate):
//   ConnTable (digest -> DIP-pool version, multi-stage cuckoo SRAM)
//     hit  -> DIPPoolTable[(VIP, version)] -> DIP
//     miss -> VIPTable[VIP] -> version (during an update: TransitTable bloom
//             filter decides old vs new version) -> DIPPoolTable -> DIP,
//             plus a learning-filter notification for new flows.
//
// Control plane (switch CPU, slow):
//   drains the learning filter, runs BFS cuckoo to insert ConnTable entries
//   (~200K/s), resolves digest false positives by relocating entries,
//   executes the 3-step PCC update protocol, and manages version lifecycle.
//
// The public API is the library's primary entry point: configure the switch,
// add VIPs, feed packets (or drive it through lb::Scenario), request pool
// updates, and read the statistics the paper's evaluation reports.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "asic/bloom_filter.h"
#include "asic/cuckoo_table.h"
#include "asic/learning_filter.h"
#include "asic/meter.h"
#include "asic/switch_cpu.h"
#include "core/version_manager.h"
#include "lb/load_balancer.h"
#include "net/flat_map.h"
#include "net/slab.h"
#include "obs/capacity.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace silkroad::check {
class InvariantAuditor;
struct TestingHooks;
}  // namespace silkroad::check

namespace silkroad::core {

class SilkRoadSwitch : public lb::LoadBalancer,
                       private obs::ResourceLedger::Source {
 public:
  struct Config {
    asic::CuckooConfig conn_table;
    asic::LearningFilter::Config learning;
    asic::SwitchCpu::Config cpu;
    /// TransitTable bloom filter size (paper headline: 256 bytes).
    std::size_t transit_table_bytes = 256;
    unsigned transit_hashes = 3;
    unsigned version_bits = 6;
    /// Ablations (Figs. 15-18).
    bool use_transit_table = true;
    bool enable_version_reuse = true;
    /// Idle-connection expiration ("connections that are timed-out and
    /// deleted from ConnTable", §4.2): entries without data-plane activity
    /// for this long are erased by the CPU's aging sweep. 0 disables aging
    /// (flows then expire only on FIN).
    sim::Time idle_timeout = 0;
    /// Period of the CPU aging sweep when idle_timeout is enabled.
    sim::Time aging_sweep_period = 10 * sim::kSecond;

    // --- Graceful degradation (all disabled by default) ---------------------

    /// Bounded pending-insert queue: a new flow arriving while this many
    /// insertions are pending is shed instead of learned: the CPU tracks it
    /// in DRAM pinned to its admission-time pool version (the §4.2 "small
    /// software table" applied at version granularity), which preserves
    /// PCC at the cost of CPU memory only. 0 = unbounded.
    std::size_t max_pending_inserts = 0;
    /// Degraded-mode hysteresis on the switch-CPU backlog: enter at or above
    /// `enter`, leave at or below `exit`. 0 disables degraded mode. Degraded
    /// admission pins new flows like a shed does.
    std::size_t degraded_enter_backlog = 0;
    std::size_t degraded_exit_backlog = 0;
    /// Re-learn janitor: a pending flow whose learning notification has not
    /// reached the CPU after this long is re-enqueued directly, recovering
    /// dropped learning-filter notifications. 0 = off; otherwise it must
    /// exceed learning.timeout, by when the filter has flushed the flow.
    sim::Time relearn_timeout = 0;

    // --- Data-plane performance telemetry (DESIGN.md §14) -------------------

    /// Gates the per-DIP active/new connection accounting. The always-on
    /// core counters and the exact silkroad_packet_latency_ns histogram
    /// stay on regardless; disabling this removes everything that costs
    /// more than a counter bump or a histogram record.
    bool data_plane_telemetry = true;

    // --- SRAM capacity ledger (DESIGN.md §15) -------------------------------

    /// Gates the ResourceLedger: live per-table occupancy, headroom,
    /// pressure, per-VIP SRAM attribution, and exhaustion-forecast telemetry
    /// (/capacity, /capacity.json). Disabling leaves the ledger without
    /// tables and removes polling entirely (bench/capacity_overhead prices
    /// the difference).
    bool capacity_telemetry = true;
  };

  /// Data-plane pipeline latency per packet (§5.2: sub-microsecond;
  /// SilkRoad's additional logic adds at most tens of ns).
  static constexpr sim::Time kPipelineLatency = 400;  // ns
  /// Slow-path latency charged to a redirected SYN (§4.2: "a few ms").
  static constexpr sim::Time kSynRedirectDelay = 2 * sim::kMillisecond;
  /// While degraded, how often to re-check the exit condition when no
  /// admission event does it first.
  static constexpr sim::Time kDegradedPollPeriod = 1 * sim::kMillisecond;

  /// Sizes a ConnTable geometry for `connections` at `occupancy` packing
  /// across 4 stages with paper-default entry layout (16b digest + 6b
  /// version + 6b overhead = 28b, 4 entries / 112b word).
  static asic::CuckooConfig conn_table_for(std::size_t connections,
                                           unsigned digest_bits = 16,
                                           double occupancy = 0.90);

  SilkRoadSwitch(sim::Simulator& simulator, const Config& config);

  // --- lb::LoadBalancer -----------------------------------------------------
  std::string name() const override { return "silkroad"; }
  void add_vip(const net::Endpoint& vip,
               const std::vector<net::Endpoint>& dips) override;
  void request_update(const workload::DipUpdate& update) override;
  lb::PacketResult process_packet(const net::Packet& packet) override;
  void set_mapping_risk_callback(lb::LoadBalancer::MappingRiskCallback cb) override {
    risk_cb_ = std::move(cb);
  }
  bool vip_at_slb(const net::Endpoint&) const override { return false; }
  /// Runs the invariant auditor (check/invariant_auditor.h) over the whole
  /// switch and SR_CHECK-fails on any violation. The scenario driver calls
  /// this after every pool-update step, so tier-1 exercises the paper's
  /// structural invariants continuously. Defined in invariant_auditor.cc.
  void self_check() const override;

  // --- Extras beyond the common interface -----------------------------------

  /// Attaches a per-VIP rate limiter (performance isolation, §5.2). When
  /// `enforce` is true red packets are dropped.
  void attach_meter(const net::Endpoint& vip,
                    const asic::TwoRateThreeColorMeter::Config& meter,
                    bool enforce = false);

  /// DIP failure fast path (§7): removes the DIP via the regular update
  /// machinery (a new version), or — in resilient mode — marks the slot dead
  /// in *all* versions without a version flip.
  void handle_dip_failure(const net::Endpoint& vip, const net::Endpoint& dip,
                          bool resilient_in_place) override;

  /// Fault-injection hooks (src/fault): forwarded to the CPU and learning
  /// filter; `insert_fail` forces the BFS-budget-exhausted path at
  /// insertion time so the software-fallback machinery is exercised.
  struct FaultHooks {
    asic::SwitchCpu::DelayHook cpu_delay;
    asic::LearningFilter::DropHook learn_drop;
    std::function<bool(const net::FiveTuple&)> insert_fail;
  };
  void set_fault_hooks(FaultHooks hooks);

  /// Crash model: wipes all connection and update state (ConnTable, pending
  /// inserts, software/degraded pins, TransitTable, VIP config) while the
  /// monotone counters and trace ring survive. The controller must replay
  /// VIP config afterwards (see SilkRoadFleet::restore_switch).
  void reset();

  /// Flows whose mapping a healthy peer cannot reproduce from its own
  /// current pool version — connections pinned to older versions plus every
  /// software/degraded pin. This is the quantified §7 blast radius when this
  /// switch dies and its ECMP share re-hashes onto peers.
  std::vector<net::FiveTuple> failover_blast_radius() const;

  /// Snapshot view of the switch's headline counters, assembled on demand
  /// from the metrics registry (src/obs) — the registry's counters are the
  /// single source of truth; this struct exists for ergonomic access from
  /// tests, benches, and the evaluation drivers.
  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t conn_table_hits = 0;
    std::uint64_t conn_table_misses = 0;
    std::uint64_t learns = 0;
    std::uint64_t inserts = 0;
    std::uint64_t insert_failures = 0;
    std::uint64_t erases = 0;
    std::uint64_t syn_false_positives = 0;
    std::uint64_t non_syn_false_hits = 0;
    std::uint64_t relocation_failures = 0;
    std::uint64_t transit_false_positives = 0;
    std::uint64_t updates_requested = 0;
    std::uint64_t updates_completed = 0;
    std::uint64_t versions_evicted = 0;
    std::uint64_t software_fallback_conns = 0;
    std::uint64_t meter_drops = 0;
    std::uint64_t aged_out = 0;
  };
  Stats stats() const noexcept;

  /// Per-switch telemetry: every counter the switch maintains lives here
  /// (naming scheme: silkroad_<subsystem>_<quantity>[_total|_bytes|_ns]).
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  /// Structured ring of flow and table events (learning, cuckoo insertions,
  /// digest collisions, version lifecycle), timestamped with sim time.
  /// Scopes are interned VIP names (scope 0 = the switch itself).
  obs::TraceRing& trace() noexcept { return trace_; }
  const obs::TraceRing& trace() const noexcept { return trace_; }
  /// The collector of this switch's update spans (3-step protocol steps):
  /// the fleet's while bind_spans() names one, otherwise the switch's own.
  const obs::SpanCollector& spans() const noexcept { return *spans_; }
  /// Live SRAM capacity ledger: per-table occupancy/headroom/fragmentation,
  /// insertion-pressure counters, per-VIP attribution, alarm levels, and the
  /// time-to-exhaustion forecast. Empty (no tables) when
  /// Config::capacity_telemetry is off.
  const obs::ResourceLedger& capacity() const noexcept { return capacity_; }

  /// Attaches the fleet's causal-trace collector: DipUpdates record their
  /// CPU-queue wait and 3-step protocol execution (step1-open, flip, finish —
  /// or abandonment) on their span under this switch's leg. An update that
  /// arrives untraced (update_id 0) has its span opened here. Pass nullptr to
  /// record onto the switch's own collector again.
  void bind_spans(obs::SpanCollector* spans, std::uint32_t switch_index);

  /// On-chip memory in use: ConnTable geometry + DIPPoolTable contents +
  /// TransitTable.
  struct MemoryUsage {
    std::size_t conn_table_bytes = 0;
    std::size_t dip_pool_table_bytes = 0;
    std::size_t transit_table_bytes = 0;
    std::size_t total() const noexcept {
      return conn_table_bytes + dip_pool_table_bytes + transit_table_bytes;
    }
  };
  MemoryUsage memory_usage() const;

  std::size_t active_connections() const noexcept {
    return conn_table_.size() + pending_insertions() + software_flows();
  }
  const asic::DigestCuckooTable& conn_table() const noexcept {
    return conn_table_;
  }
  const VipVersionManager* version_manager(const net::Endpoint& vip) const;
  bool update_in_flight() const noexcept { return phase_ != Phase::kIdle; }
  std::size_t queued_updates() const noexcept { return update_queue_.size(); }
  std::size_t pending_insertions() const noexcept {
    return flows_in(FlowState::kPending);
  }
  std::size_t software_flows() const noexcept {
    return flows_in(FlowState::kSoftware);
  }
  std::size_t degraded_flows() const noexcept {
    return flows_in(FlowState::kDegraded);
  }
  bool in_degraded_mode() const noexcept { return degraded_; }

  /// Human-readable operational snapshot: table occupancies, per-VIP version
  /// state, control-plane queue depths, and counters — what an operator's
  /// `show loadbalancer` CLI would print.
  std::string debug_report() const;

  /// Per-stage ConnTable occupancy heatmap plus table summaries as JSON —
  /// the ScrapeServer's /tables payload (schema in DESIGN.md §10).
  std::string tables_json() const;

 private:
  /// The auditor reads (never mutates) the full private state; the testing
  /// hooks deliberately corrupt it so check_test.cc can prove the auditor
  /// detects each violation class.
  friend class silkroad::check::InvariantAuditor;
  friend struct silkroad::check::TestingHooks;

  enum class Phase : std::uint8_t { kIdle, kStep1, kStep2 };

  /// Per-DIP load-telemetry handles (data_plane_telemetry): a monotone
  /// new-connection counter and an active-connection gauge, both labeled
  /// vip=..,dip=.. so TimeSeriesRecorder can derive per-VIP imbalance
  /// indices across them.
  struct DipConnHandles {
    obs::Counter* new_conns = nullptr;
    obs::Gauge* active = nullptr;
  };

  /// Index of a flow record in records_.
  using FlowId = std::uint32_t;
  static constexpr FlowId kNoFlow = ~FlowId{0};

  /// The one structure a flow's record stands for (DESIGN.md §5, "Per-flow
  /// host state"). kFree records wait on the free list.
  enum class FlowState : std::uint8_t {
    kFree,
    kPending,    ///< learned; its ConnTable insertion is queued at the CPU
    kInstalled,  ///< its ConnTable entry has landed
    kSoftware,   ///< exact DIP in the slow-path "small table" (§4.2/§7)
    kDegraded,   ///< version-pinned without an entry (shed/degraded admission)
  };

  /// One connection's control-plane state: what the switch CPU shadows for a
  /// pending, installed, software or degraded flow.
  struct FlowRecord {
    net::FiveTuple flow;  ///< flow.dst is the VIP
    FlowState state = FlowState::kFree;
    /// FIN seen: a pending flow skips its insertion, an evicted flow is
    /// dropped instead of pinned.
    bool dead = false;
    /// The learning notification reached the CPU queue. False past
    /// relearn_timeout means the notification was lost (see relearn_sweep).
    bool enqueued = false;
    /// An aging erase is queued at the CPU.
    bool aging_queued = false;
    /// In S, the flows pending at t_req of the in-flight update (they must
    /// land before the flip), or in S2, the flows recorded in the
    /// TransitTable during Step1 (they must land before the filter clears).
    /// Only pending records carry these.
    bool awaiting_pre = false;
    bool transit_member = false;
    /// When the flow entered the learning filter; the insert-latency
    /// histogram records install-time minus this.
    sim::Time learned_at = 0;
    /// Pool version the flow is tracked under (pending, installed, degraded).
    std::uint32_t version = 0;
    /// Counts the reuses of this record; a FlowHandle naming an older
    /// generation is stale.
    std::uint32_t generation = 0;
    /// Position in its VIP's conns_by_version[version].
    std::uint32_t member_pos = 0;
    /// ConnTable digest and the links of its digest chain (pending and
    /// installed flows only).
    std::uint32_t digest = 0;
    FlowId digest_prev = kNoFlow;
    FlowId digest_next = kNoFlow;
    /// The last audit that visited this record (InvariantAuditor).
    mutable std::uint32_t audit_stamp = 0;
    net::Endpoint software_dip;  ///< kSoftware only
  };

  /// flow_index_ keys on record ids and is searched by 5-tuple, so it holds
  /// no copy of the tuple.
  struct RecordHash {
    const net::Slab<FlowRecord>* records;
    std::size_t operator()(const net::FiveTuple& flow) const noexcept {
      return net::FiveTupleHash{}(flow);
    }
    std::size_t operator()(FlowId id) const noexcept {
      return (*this)((*records)[id].flow);
    }
  };
  struct RecordEq {
    const net::Slab<FlowRecord>* records;
    bool operator()(FlowId id, const net::FiveTuple& flow) const noexcept {
      return (*records)[id].flow == flow;
    }
    bool operator()(FlowId a, FlowId b) const noexcept { return a == b; }
  };

  /// What a CPU task holds instead of a copy of the flow, and the value a
  /// learn event carries. With `this` it makes a 16-byte closure that fits
  /// std::function's inline buffer. A task whose handle is stale does
  /// nothing.
  struct FlowHandle {
    FlowId id = kNoFlow;
    std::uint32_t generation = 0;
  };

  /// A digest chain's ends; the chain runs in tracking order.
  struct DigestChain {
    FlowId head = kNoFlow;
    FlowId tail = kNoFlow;
  };

  struct VipState {
    std::unique_ptr<VipVersionManager> versions;
    /// CPU-side connection-to-pool tracking (§4.2): per version number, the
    /// records of its pending, installed and degraded flows.
    std::vector<std::vector<FlowId>> conns_by_version;
    std::optional<asic::TwoRateThreeColorMeter> meter;
    bool meter_enforce = false;
    /// Interned VIP name in the switch's TraceRing.
    std::uint32_t trace_scope = obs::kNoScope;
    /// Per-DIP telemetry handles, registered lazily on first connection.
    std::unordered_map<net::Endpoint, DipConnHandles, net::EndpointHash>
        dip_conns;
  };

  VipState* find_vip(const net::Endpoint& vip);
  const VipState* find_vip(const net::Endpoint& vip) const;

  /// Body of process_packet(); the public override wraps it to record the
  /// packet-latency histogram exactly once per packet.
  lb::PacketResult process_packet_impl(const net::Packet& packet);

  /// Creates the registry-backed counter handles and registers the pull
  /// (callback) gauges derived from live structures. Called once from the
  /// constructor, after all instrumented members exist.
  void init_metrics();

  /// The SRAM-bearing tables the capacity ledger reads, in its order (the
  /// constructor names them).
  enum class SramTable : std::uint8_t {
    kConnTable,
    kTransitTable,
    kLearningFilter,
    kDipPoolTable,
  };
  // obs::ResourceLedger::Source: each table read as one row, each live VIP
  // as one row (sorted by name).
  double table_occupancy(std::size_t table) const override;
  obs::TableUsage table_usage(std::size_t table,
                              bool with_stages) const override;
  std::vector<obs::VipUsage> vip_usage() const override;
  /// One VIP's attribution row: its version-tracked connections' share of
  /// ConnTable words plus its live pool rows.
  obs::VipUsage vip_usage_of(const net::Endpoint& vip,
                             const VipState& state) const;
  /// Live DIP-pool versions across all VIPs.
  std::uint64_t live_versions() const noexcept;
  /// Rate-limited ledger poll (alarm state machine + forecast history);
  /// at most one poll per kCapacityPollInterval of sim time.
  void poll_capacity();

  /// Picks the version a ConnTable-missing packet of `vip` should use,
  /// applying the Step1/Step2 TransitTable logic when `vip` is under update.
  /// `record` is the packet's flow record, if it has one.
  std::uint32_t version_for_miss(const net::Endpoint& vip, VipState& state,
                                 const net::Packet& packet, FlowRecord* record,
                                 bool* redirected_to_cpu);
  /// True while Step1 of an update of `vip` records flows in S2.
  bool recording_transit(const net::Endpoint& vip) const noexcept {
    return phase_ == Phase::kStep1 && update_vip_ == vip &&
           config_.use_transit_table;
  }
  void add_transit_member(FlowRecord& record);

  // Flow records.
  std::size_t flows_in(FlowState state) const noexcept {
    return state_counts_[static_cast<std::size_t>(state)];
  }
  FlowRecord* find_record(const net::FiveTuple& flow);
  /// Takes a record off the free list (or grows the slab) for `flow`.
  FlowId new_record(const net::FiveTuple& flow, FlowState state);
  /// Moves a record between states; leaving kPending drops it from S and S2.
  void set_state(FlowRecord& record, FlowState state);
  void free_record(FlowId id);
  FlowHandle handle_of(FlowId id) const noexcept {
    return {id, records_[id].generation};
  }
  /// The record `handle` names, or nullptr when the handle is stale.
  FlowRecord* live(FlowHandle handle) noexcept;

  void learn_new_flow(const net::Endpoint& vip, VipState& state,
                      const net::FiveTuple& flow, std::uint32_t version,
                      const net::Endpoint& dip);
  /// Per-DIP telemetry handles for (vip, dip), registering the series on
  /// first use. Only called when data_plane_telemetry is on.
  DipConnHandles& dip_handles(VipState& state, const net::Endpoint& vip,
                              const net::Endpoint& dip);
  /// active-connection gauge decrement for a released flow: the DIP is
  /// recomputed from (version, flow), which PCC keeps stable for the flow's
  /// lifetime (a post-release mark_dip_down can drift a gauge by the flows
  /// that die after the DIP — acceptable for telemetry).
  void release_dip_conn(VipState& state, const FlowRecord& record);
  /// Serves a brand-new flow without learning it (pending queue full, or
  /// degraded mode). Returns the chosen DIP.
  std::optional<net::Endpoint> admit_without_insert(const net::Endpoint& vip,
                                                    VipState& state,
                                                    const net::FiveTuple& flow,
                                                    bool shed);
  /// Re-evaluates the degraded-mode hysteresis (admission events + poll).
  void maybe_update_degraded();
  void arm_degraded_poll();
  /// Re-enqueues pending flows whose learning notification never arrived.
  void arm_relearn_sweep();
  void relearn_sweep();
  void on_learning_flush(const std::vector<asic::LearnEvent>& batch);
  /// Queues the insertion of the record `handle` names, sharded by `flow`.
  void enqueue_insertion(FlowHandle handle, const net::FiveTuple& flow);
  void complete_insertion(FlowHandle handle);
  /// Control-plane digest-collision repair at insertion time: the switch
  /// software knows every pending/installed flow's 5-tuple, so after placing
  /// an entry it relocates any entry that would shadow a colliding flow's
  /// lookups (generalizing the §4.2 SYN-time resolution to flows already in
  /// flight).
  void resolve_digest_conflicts(FlowId inserted);
  void track_digest(FlowId id);
  void untrack_digest(FlowId id);
  /// Arms the aging sweep if idle_timeout is configured and it is not
  /// already pending; the sweep disarms itself when the table drains so an
  /// idle switch leaves the event queue empty.
  void arm_aging_sweep();
  void aging_sweep();
  void enqueue_erase(FlowId id);
  /// The erase task: removes the flow's ConnTable entry and its record.
  void erase_installed(FlowHandle handle);
  /// Acquires the record's version and lists the record under it.
  void track(VipState& state, FlowId id);
  /// Undoes track() and settles the per-DIP active gauge.
  void release_conn(VipState& state, FlowId id);

  // 3-step update machinery (global: one update in flight, queue behind it).
  void try_start_next_update();
  void execute_flip();
  void finish_update();
  /// Records `kind` on one update's span (no-op for id 0).
  void span_event(std::uint64_t id, obs::EventKind kind,
                  std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);
  /// Records `kind` on every span of the in-flight coalesced batch.
  void span_batch_event(obs::EventKind kind, std::uint64_t arg0 = 0,
                        std::uint64_t arg1 = 0);
  /// Runs the Step1/Step2 completion gates after a pending flow of `vip`
  /// resolved.
  void note_pending_resolved(const net::Endpoint& vip);
  /// Frees a version number by migrating a victim version's flows to exact
  /// DIP mappings in the software table.
  bool evict_version_for(VipState& state);

  /// Minimum sim time between ledger polls from packet/insert call sites;
  /// bounds the alarm + forecast sampling cost on the hot path.
  static constexpr sim::Time kCapacityPollInterval = 10 * sim::kMillisecond;

  sim::Simulator& sim_;
  Config config_;
  /// Telemetry first: the instrumented members below bind to these.
  obs::MetricsRegistry metrics_;
  obs::TraceRing trace_;
  /// Data-plane ConnTable lookups by the stage that first matched, the last
  /// entry counting full misses; one add per packet in process_packet_impl()
  /// (control-plane lookups are not packets). A lookup that matched at stage
  /// s missed at every stage before it, so init_metrics() derives each
  /// stage's packets, hits and misses from these counts.
  std::vector<std::uint64_t> stage_lookups_;
  /// Counter handles into metrics_, resolved once in init_metrics(); a bump
  /// is one plain add through a pre-resolved pointer.
  struct CounterHandles {
    obs::Counter* packets = nullptr;
    obs::Counter* conn_table_hits = nullptr;
    obs::Counter* conn_table_misses = nullptr;
    obs::Counter* learns = nullptr;
    obs::Counter* inserts = nullptr;
    obs::Counter* insert_failures = nullptr;
    obs::Counter* erases = nullptr;
    obs::Counter* syn_false_positives = nullptr;
    obs::Counter* non_syn_false_hits = nullptr;
    obs::Counter* relocation_failures = nullptr;
    obs::Counter* transit_false_positives = nullptr;
    obs::Counter* updates_requested = nullptr;
    obs::Counter* updates_completed = nullptr;
    obs::Counter* versions_evicted = nullptr;
    obs::Counter* software_fallback_conns = nullptr;
    obs::Counter* meter_drops = nullptr;
    obs::Counter* aged_out = nullptr;
    obs::Counter* degraded_transitions = nullptr;
    obs::Counter* degraded_admits = nullptr;
    obs::Counter* pending_shed = nullptr;
    obs::Counter* relearns = nullptr;
    obs::Counter* meter_green = nullptr;
    obs::Counter* meter_yellow = nullptr;
    obs::Counter* meter_red = nullptr;
    obs::Histogram* packet_latency_ns = nullptr;
    obs::Histogram* learn_batch_size = nullptr;
    /// learn -> ConnTable-entry-landed, per installed connection.
    obs::Histogram* insert_latency_ns = nullptr;
    /// request-staged -> finish, per completed 3-step update.
    obs::Histogram* update_duration_ns = nullptr;
  } c_;
  asic::DigestCuckooTable conn_table_;
  asic::LearningFilter learning_filter_;
  asic::SwitchCpu cpu_;
  asic::BloomFilter transit_;
  /// SRAM capacity ledger (DESIGN.md §15): reads this switch as its
  /// Source, polled via poll_capacity().
  obs::ResourceLedger capacity_;
  sim::Time capacity_last_poll_ = 0;
  bool capacity_polled_ = false;

  std::unordered_map<net::Endpoint, VipState, net::EndpointHash> vips_;
  /// One record per pending, installed, software or degraded flow, found
  /// through flow_index_. Freed ids are reused from free_ids_. The slab
  /// grows by whole chunks without moving a record, and records_[id] is one
  /// chunk-table load away.
  net::Slab<FlowRecord> records_;
  std::vector<FlowId> free_ids_;
  net::FlatMap<FlowId, FlowId, RecordHash, RecordEq> flow_index_{
      RecordHash{&records_}, RecordEq{&records_}};
  std::array<std::size_t, 5> state_counts_{};
  /// CPU-side digest index over pending+installed flows, used to detect
  /// lookup shadowing among digest-colliding flows at insertion time.
  net::FlatMap<std::uint32_t, DigestChain, std::hash<std::uint32_t>>
      digest_chains_;
  /// Audit stamp for FlowRecord::audit_stamp (InvariantAuditor).
  mutable std::uint32_t audit_epoch_ = 0;

  /// The switch's own span collector, and the one it records onto (this
  /// one, or its fleet's), with this switch's leg index.
  obs::SpanCollector own_spans_;
  obs::SpanCollector* spans_ = &own_spans_;
  std::uint32_t span_switch_ = 0;
  /// Span ids of the in-flight coalesced batch (one flip covers them all).
  std::vector<std::uint64_t> span_batch_;

  // In-flight update state.
  Phase phase_ = Phase::kIdle;
  std::deque<workload::DipUpdate> update_queue_;
  net::Endpoint update_vip_;
  std::uint32_t update_old_version_ = 0;
  std::uint32_t update_new_version_ = 0;
  /// When the in-flight update was staged (update-duration histogram).
  sim::Time update_started_at_ = 0;
  /// Sizes of S and S2 (FlowRecord::awaiting_pre, transit_member): the
  /// Step1 and Step2 completion gates.
  std::size_t awaiting_pre_count_ = 0;
  std::size_t transit_member_count_ = 0;

  lb::LoadBalancer::MappingRiskCallback risk_cb_;
  bool aging_armed_ = false;
  bool degraded_ = false;
  bool degraded_poll_armed_ = false;
  bool relearn_armed_ = false;
  std::function<bool(const net::FiveTuple&)> insert_fail_hook_;
};

}  // namespace silkroad::core
