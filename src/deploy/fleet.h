// A fleet of SilkRoad switches behind ECMP (paper §5.3, §7).
//
// Every switch announces every VIP; the upstream fabric ECMP-sprays flows
// across them by 5-tuple hash. The controller holds the desired membership
// (VIP -> live DIPs) and drives every switch over its own control channel
// (src/fault/control_channel.h): updates are sequenced, delayed, possibly
// dropped or reordered, retried with backoff, and escalated to a full-state
// resync when a replica falls too far behind or returns from a crash. The
// channels converge every live replica's DIPPoolTables to the same newest
// content — which is exactly why a switch failure is survivable: a failed
// switch's flows re-hash onto peers, and any flow that was on the *latest*
// pool version maps identically there. Only flows bound to older versions
// (or pinned in software fallback) lose consistency, the same blast radius
// as losing one SLB's ConnTable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/silkroad_switch.h"
#include "deploy/journal.h"
#include "deploy/snapshot.h"
#include "fault/control_channel.h"
#include "lb/load_balancer.h"
#include "obs/convergence.h"
#include "obs/forensics.h"

namespace silkroad::deploy {

/// Incremental state-sync knobs (DESIGN.md §16). Namespace-scope so the
/// constructor's defaulted parameter can use it before SilkRoadFleet is
/// complete.
struct SyncConfig {
  /// Journal entries retained before compaction — the compaction horizon.
  /// A replica whose watermark lags further than this can only be served
  /// a full-state transfer.
  std::size_t journal_capacity = 1024;
  /// Journal records packed per ResyncChunk.
  std::size_t chunk_entries = 16;
  /// Checkpoint a switch's snapshot every N applied mutations (resync
  /// chunk boundaries always checkpoint in addition).
  std::size_t checkpoint_every = 8;
  /// Feed the convergence observatory (DESIGN.md §17): watermark-lag SLO,
  /// digest divergence detection, /fleet scrape data.
  bool observe_convergence = true;
};

class SilkRoadFleet : public lb::LoadBalancer,
                      private obs::FleetObserver::Source {
 public:
  using SyncConfig = deploy::SyncConfig;

  /// `replicas` identical switches sharing one configuration. `channel`
  /// shapes every controller->switch session; the default (zero delay, no
  /// loss) behaves like the idealized synchronous fan-out apart from event
  /// ordering — deliveries still need the simulator to run.
  SilkRoadFleet(sim::Simulator& simulator,
                const core::SilkRoadSwitch::Config& config,
                std::size_t replicas, std::uint64_t ecmp_seed = 0xFEE7ULL,
                const fault::ControlChannel::Config& channel = {},
                const SyncConfig& sync = SyncConfig());

  std::string name() const override { return "silkroad-fleet"; }

  /// Provisioning: recorded in the controller's desired state and applied
  /// synchronously to every live switch (config precedes traffic). Dead
  /// switches receive it from the restore-time resync.
  void add_vip(const net::Endpoint& vip,
               const std::vector<net::Endpoint>& dips) override;

  /// Applies the update to the controller's desired membership and fans it
  /// out to every switch over its control channel (each replica then runs
  /// the 3-step protocol independently). Channels to dead switches mark
  /// themselves for resync instead.
  void request_update(const workload::DipUpdate& update) override;

  /// DIP failure fast path. `resilient_in_place` bypasses the channels (BFD
  /// state is switch-local, §7) and leaves the desired membership intact;
  /// otherwise this is a plain removal update through the channels.
  void handle_dip_failure(const net::Endpoint& vip, const net::Endpoint& dip,
                          bool resilient_in_place) override;

  /// Routes the packet to the ECMP-selected live switch.
  lb::PacketResult process_packet(const net::Packet& packet) override;

  void set_mapping_risk_callback(MappingRiskCallback cb) override;
  bool vip_at_slb(const net::Endpoint&) const override { return false; }

  /// Audits every live switch's structural invariants.
  void self_check() const override;

  // --- Fleet operations -------------------------------------------------------

  /// Kills a switch: its connection state is gone, its control channel goes
  /// offline (in-flight messages are lost), and its flows re-hash onto the
  /// survivors from the next packet on.
  void fail_switch(std::size_t index);

  /// Begins restoring a switch: its in-memory state is wiped (crash model),
  /// the durable checkpoint snapshot is replayed into it, the channel comes
  /// back online, and the controller opens a resync session that sends only
  /// the journal suffix past the snapshot's watermark as sequenced chunks
  /// (escalating to a chunked full-state transfer when the journal has been
  /// compacted past it). The switch rejoins ECMP only when the session's
  /// final chunk lands (run the simulator). A crash mid-session restarts the
  /// next session from the last chunk-boundary checkpoint, not from zero.
  void restore_switch(std::size_t index);

  /// True when every live switch serves every VIP with exactly the
  /// controller's desired live-member set and no channel work is pending.
  bool converged() const;

  std::size_t size() const noexcept { return switches_.size(); }
  std::size_t live_count() const;
  const core::SilkRoadSwitch& switch_at(std::size_t index) const {
    return *switches_.at(index);
  }
  core::SilkRoadSwitch& switch_at(std::size_t index) {
    return *switches_.at(index);
  }
  const fault::ControlChannel& channel_at(std::size_t index) const {
    return *channels_.at(index);
  }

  /// Notification on ECMP membership changes (fail/restore), invoked with
  /// (switch index, now-alive). The chaos harness uses it to mark flows
  /// whose route just moved.
  using MembershipCallback = std::function<void(std::size_t index, bool alive)>;
  void set_membership_callback(MembershipCallback cb) {
    membership_cb_ = std::move(cb);
  }

  /// Fault-injection: forced-loss hook for switch `index`'s channel.
  void set_channel_loss_hook(std::size_t index,
                             fault::ControlChannel::LossHook hook) {
    channels_.at(index)->set_loss_hook(std::move(hook));
  }

  std::uint64_t ctrl_retries() const;
  std::uint64_t ctrl_resyncs() const;
  std::size_t ctrl_outstanding() const;
  /// Sums of the per-channel chunk traffic counters.
  std::uint64_t ctrl_resync_chunks() const;
  std::uint64_t ctrl_resync_bytes() const;

  // --- Incremental-sync introspection (DESIGN.md §16) -----------------------

  const SyncConfig& sync_config() const noexcept { return sync_; }
  /// Journal position switch `index` has durably applied through.
  std::uint64_t applied_through(std::size_t index) const;
  /// Copy of switch `index`'s durable checkpoint snapshot.
  SwitchSnapshot snapshot_of(std::size_t index) const;
  std::uint64_t journal_head() const;
  std::uint64_t journal_compacted() const;
  std::uint64_t snapshot_checkpoints() const;
  /// Resync sessions begun, by escalation rung.
  std::uint64_t delta_sessions() const noexcept { return delta_sessions_; }
  std::uint64_t full_sessions() const noexcept { return full_sessions_; }
  std::uint64_t empty_sessions() const noexcept { return empty_sessions_; }

  /// The fleet's causal-trace collector: every request_update intent mints a
  /// span here, and the channels/switches record their legs on it. The span
  /// tree is exported over /spans + /update/<id> and consumed by
  /// obs::assemble_forensics.
  obs::SpanCollector& spans() noexcept { return spans_; }
  const obs::SpanCollector& spans() const noexcept { return spans_; }

  /// Index of the live switch the fabric currently hashes `flow` to, or
  /// nullopt when the whole fleet is down.
  std::optional<std::size_t> route_of(const net::FiveTuple& flow) const;

  /// Fleet-wide telemetry: merges every member switch's registry snapshot
  /// (counters/histograms sum; gauges sum — fleet totals, e.g. installed
  /// connections across replicas), the per-channel silkroad_ctrl_* series,
  /// plus silkroad_fleet_switches / silkroad_fleet_switches_live gauges.
  /// Dead switches still contribute their final counter values until
  /// restore_switch() resets them.
  obs::Snapshot metrics_snapshot() const;

  // --- Convergence observatory (DESIGN.md §17) --------------------------------

  /// The fleet's convergence observer, or nullptr when
  /// SyncConfig::observe_convergence is off. Fed on every journal append,
  /// in-order delivery, and resync-session transition; renders /fleet.
  obs::FleetObserver* observer() noexcept { return observer_.get(); }
  const obs::FleetObserver* observer() const noexcept {
    return observer_.get();
  }

  /// ForensicsReports assembled by the observer's divergence callback —
  /// one per silent-divergence episode, with per-VIP attribution attached.
  const std::vector<obs::ForensicsReport>& divergence_reports() const {
    return divergence_reports_;
  }

  /// Test hook: mutates switch `index`'s applied mirror of a VIP it holds
  /// out of band, modeling a buggy apply path. The mutation is fed to the
  /// observer the same way a real (buggy) apply would be — which is exactly
  /// what lets the digest comparison catch it as silent divergence.
  void inject_mirror_corruption(std::size_t index, const net::Endpoint& vip,
                                const net::Endpoint& dip, bool add);

 private:
  using DipSet = std::unordered_set<net::Endpoint, net::EndpointHash>;

  /// In-order application of one channel message at switch `index`. Guarded
  /// by the per-switch applied-state mirror so resync-vs-in-flight overlap
  /// cannot double-apply an update.
  void deliver_to(std::size_t index, const fault::ControlChannel::Payload& p);
  /// ResyncFn target: computes switch `index`'s catch-up (journal delta,
  /// full state after compaction, or an empty confirmation) and sends it as
  /// sequenced ResyncChunk payloads through the switch's channel.
  void begin_resync_session(std::size_t index);
  /// Applies one delivered chunk: replays its journal records, advances the
  /// watermark, checkpoints the snapshot, and on the final chunk flips a
  /// restoring switch back into ECMP.
  void apply_chunk(std::size_t index, const fault::ResyncChunk& chunk);
  /// Applies a (re)configuration record: provisions an unknown VIP, or
  /// diffs the applied mirror against the config and issues the delta as
  /// 3-step updates parented under span `parent_id`.
  void apply_vip_config(std::size_t index, const fault::VipConfig& config,
                        std::uint64_t parent_id);
  /// Replays one journaled DIP update (content-deduped against the mirror)
  /// as a fresh child update parented under span `parent_id`.
  void apply_journaled_update(std::size_t index,
                              const workload::DipUpdate& update,
                              std::uint64_t parent_id);
  /// Counts one applied mutation toward the checkpoint cadence.
  void note_applied(std::size_t index);
  /// Captures switch `index`'s mirror + watermark into the snapshot store.
  void checkpoint_switch(std::size_t index);

  // obs::FleetObserver::Source, also the checkpoint and full-transfer
  // listings.
  /// Switch `index`'s mirror: VIPs in provisioning order, DIPs sorted.
  std::vector<net::VipMembers> applied(std::size_t index) const override;
  /// The desired membership, VIPs in provisioning order.
  std::vector<net::VipMembers> desired() const override;

  sim::Simulator& sim_;
  /// Declared before the switches/channels that hold raw pointers into it,
  /// so it outlives them during destruction.
  obs::SpanCollector spans_;
  std::vector<std::unique_ptr<core::SilkRoadSwitch>> switches_;
  std::vector<std::unique_ptr<fault::ControlChannel>> channels_;
  std::vector<bool> alive_;
  /// Mid-restore: channel online, resync in flight, not yet in ECMP.
  std::vector<bool> restoring_;
  std::uint64_t ecmp_seed_;

  /// Controller desired state: VIP -> live members, in provisioning order.
  std::unordered_map<net::Endpoint, std::vector<net::Endpoint>,
                     net::EndpointHash>
      membership_;
  std::vector<net::Endpoint> vip_order_;
  /// Per-switch mirror of what this controller has asked it to apply.
  std::vector<std::unordered_map<net::Endpoint, DipSet, net::EndpointHash>>
      applied_;
  /// Versioned desired-state mutation journal (DESIGN.md §16).
  MutationJournal journal_;
  /// Durable per-switch checkpoints; deliberately NOT cleared by
  /// fail_switch() — they model storage that survives the crash.
  SnapshotStore snapshots_;
  /// Journal position each switch has applied through (advanced by in-order
  /// delivery and by chunk boundaries; synchronous provisioning is replayed
  /// idempotently instead of advancing it).
  std::vector<std::uint64_t> applied_through_;
  /// Mutations applied since the last checkpoint (cadence counter).
  std::vector<std::size_t> since_checkpoint_;

  SyncConfig sync_;
  /// Session start times / escalation-rung counters.
  std::vector<sim::Time> resync_started_;
  std::uint64_t delta_sessions_ = 0;
  std::uint64_t full_sessions_ = 0;
  std::uint64_t empty_sessions_ = 0;

  /// Channel counters live here (the switches' registries are their own).
  obs::MetricsRegistry fleet_metrics_;
  obs::Histogram* h_resync_duration_ = nullptr;
  MappingRiskCallback risk_cb_;
  MembershipCallback membership_cb_;
  /// Convergence observatory: keeps digests only and reads applied_ and
  /// membership_ through this fleet's Source view, so it is declared after
  /// them and destroyed first. Every feed comes right after the one mutation
  /// it reports, so the Source never runs ahead of the digests.
  std::unique_ptr<obs::FleetObserver> observer_;
  /// One report per detected silent-divergence episode.
  std::vector<obs::ForensicsReport> divergence_reports_;
};

}  // namespace silkroad::deploy
