#include "deploy/fleet.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "check/sr_check.h"
#include "net/hash.h"

namespace silkroad::deploy {

SilkRoadFleet::SilkRoadFleet(sim::Simulator& simulator,
                             const core::SilkRoadSwitch::Config& config,
                             std::size_t replicas, std::uint64_t ecmp_seed,
                             const fault::ControlChannel::Config& channel,
                             const SyncConfig& sync)
    : sim_(simulator),
      alive_(replicas, true),
      restoring_(replicas, false),
      ecmp_seed_(ecmp_seed),
      applied_(replicas),
      journal_(sync.journal_capacity),
      snapshots_(replicas),
      applied_through_(replicas, 0),
      since_checkpoint_(replicas, 0),
      sync_(sync),
      resync_started_(replicas, 0) {
  SR_CHECK(replicas > 0);
  SR_CHECK(sync_.chunk_entries > 0);
  SR_CHECK(sync_.checkpoint_every > 0);
  switches_.reserve(replicas);
  channels_.reserve(replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    switches_.push_back(
        std::make_unique<core::SilkRoadSwitch>(simulator, config));
    fault::ControlChannel::Config per_switch = channel;
    // srlint: allow(R14) channel-seed derivation, not a membership digest.
    per_switch.seed = channel.seed ^ net::mix64(ecmp_seed + i + 1);
    channels_.push_back(std::make_unique<fault::ControlChannel>(
        simulator, per_switch,
        [this, i](const fault::ControlChannel::Payload& p) {
          deliver_to(i, p);
        },
        [this, i] {
          // srlint: allow(R13) the channel's ResyncFn binding is the one
          // sanctioned entry into the session opener.
          begin_resync_session(i);
        }));
    channels_.back()->bind_metrics(fleet_metrics_,
                                   "switch=\"" + std::to_string(i) + "\"");
    const auto leg = static_cast<std::uint32_t>(i);
    channels_.back()->bind_spans(&spans_, leg);
    switches_.back()->bind_spans(&spans_, leg);
  }
  if (sync_.observe_convergence) {
    const obs::FleetObserver::Source& source = *this;
    observer_ = std::make_unique<obs::FleetObserver>(replicas, source);
    observer_->bind_metrics(fleet_metrics_);
    observer_->set_divergence_callback(
        [this](const obs::DivergenceFinding& finding) {
          // Assemble the incident report while the trace ring still holds
          // the window: the diverged switch's events interleaved with every
          // overlapping update/resync span, plus per-VIP attribution.
          obs::ForensicsReport report = obs::assemble_forensics(
              switches_[finding.switch_index]->trace(), &spans_, 0,
              "silent divergence: switch " +
                  std::to_string(finding.switch_index) +
                  " digest mismatch at watermark " +
                  std::to_string(finding.position));
          report.attach_divergence(finding.to_text(), finding.to_json());
          divergence_reports_.push_back(std::move(report));
        });
  }
  spans_.bind_metrics(fleet_metrics_);
  // Fleet-level gauges that no member registry can know about.
  fleet_metrics_.register_callback(
      "silkroad_fleet_switches", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(switches_.size()); },
      "switches configured in the fleet");
  fleet_metrics_.register_callback(
      "silkroad_fleet_switches_live", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(live_count()); },
      "switches currently alive (ECMP members)");
  // Sync-subsystem telemetry: pull callbacks over the journal and snapshot
  // stores, and the session-rung counters.
  fleet_metrics_.register_callback(
      "silkroad_ctrl_journal_entries", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(journal_.size()); },
      "desired-state journal entries retained (compaction horizon window)");
  fleet_metrics_.register_callback(
      "silkroad_ctrl_journal_head", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(journal_.head_pos()); },
      "newest journal log position");
  fleet_metrics_.register_callback(
      "silkroad_ctrl_journal_appended_total", obs::MetricKind::kCounter,
      [this] { return static_cast<double>(journal_.appended()); },
      "desired-state mutations journaled");
  fleet_metrics_.register_callback(
      "silkroad_ctrl_journal_compactions_total", obs::MetricKind::kCounter,
      [this] { return static_cast<double>(journal_.compacted()); },
      "journal entries dropped by compaction");
  fleet_metrics_.register_callback(
      "silkroad_ctrl_snapshot_checkpoints_total", obs::MetricKind::kCounter,
      [this] { return static_cast<double>(snapshots_.checkpoints()); },
      "switch snapshot checkpoints taken");
  fleet_metrics_.register_callback(
      "silkroad_ctrl_snapshot_bytes", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(snapshots_.total_wire_size()); },
      "modeled serialized size of every durable switch snapshot");
  fleet_metrics_.register_callback(
      "silkroad_ctrl_resync_sessions_total", obs::MetricKind::kCounter,
      [this] { return static_cast<double>(delta_sessions_); },
      "resync sessions begun, by escalation rung", "kind=\"delta\"");
  fleet_metrics_.register_callback(
      "silkroad_ctrl_resync_sessions_total", obs::MetricKind::kCounter,
      [this] { return static_cast<double>(full_sessions_); },
      "resync sessions begun, by escalation rung", "kind=\"full\"");
  fleet_metrics_.register_callback(
      "silkroad_ctrl_resync_sessions_total", obs::MetricKind::kCounter,
      [this] { return static_cast<double>(empty_sessions_); },
      "resync sessions begun, by escalation rung", "kind=\"empty\"");
  h_resync_duration_ = fleet_metrics_.histogram(
      "silkroad_ctrl_resync_duration_ns",
      "resync session duration, session open to final chunk applied");
}

void SilkRoadFleet::add_vip(const net::Endpoint& vip,
                            const std::vector<net::Endpoint>& dips) {
  if (!membership_.contains(vip)) vip_order_.push_back(vip);
  membership_[vip] = dips;
  const std::uint64_t pos = journal_.append(fault::VipConfig{vip, dips});
  if (observer_ != nullptr) observer_->on_append_config(pos, sim_.now());
  // Each switch's mirror is fed right after it changes: the observer reads
  // mirrors back, and must never find one ahead of what it was told.
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (!alive_[i]) continue;
    applied_[i][vip] = DipSet(dips.begin(), dips.end());
    // The synchronous config does not advance the watermark — a delta
    // session replays the VipConfig record and the diff no-ops — so the
    // cadence checkpoint below is what makes it durable.
    note_applied(i);
    // The synchronous application lands at an out-of-band journal position:
    // the observer extends the switch's effective watermark through it.
    if (observer_ != nullptr) observer_->on_mirror_config(i, pos, sim_.now());
  }
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (alive_[i]) switches_[i]->add_vip(vip, dips);
  }
}

void SilkRoadFleet::request_update(const workload::DipUpdate& update) {
  const auto it = membership_.find(update.vip);
  // A VIP that was never provisioned: every switch would abandon the update
  // (as SilkRoadSwitch does), so drop it before it gets a journal position,
  // a span, or a channel send.
  if (it == membership_.end()) return;
  auto& members = it->second;
  const auto found = std::find(members.begin(), members.end(), update.dip);
  const bool add = update.action == workload::UpdateAction::kAddDip;
  const bool changed = add == (found == members.end());
  if (changed && add) {
    members.push_back(update.dip);
  } else if (changed) {
    members.erase(std::remove(found, members.end(), update.dip),
                  members.end());
  }
  // Journal the intent under its fleet log position; the journaled copy is
  // untraced (span ids are per-send, the journal is per-mutation).
  workload::DipUpdate journaled = update;
  journaled.update_id = 0;
  journaled.log_pos = 0;
  const std::uint64_t pos = journal_.append(std::move(journaled));
  if (observer_ != nullptr) {
    observer_->on_append_update(pos, sim_.now(), update.vip, update.dip,
                                changed);
  }
  // Mint the intent span; the stamped id rides in every channel copy and
  // survives retransmits, duplicates, and resync escalation. A zero-delay
  // channel delivers synchronously, re-entering deliver_to().
  workload::DipUpdate traced = update;
  traced.log_pos = pos;
  spans_.begin_update(traced, sim_.now());
  for (const auto& channel : channels_) channel->send(traced);
}

void SilkRoadFleet::handle_dip_failure(const net::Endpoint& vip,
                                       const net::Endpoint& dip,
                                       bool resilient_in_place) {
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
  // §7 in-place path: BFD state is switch-local, so the mark-down bypasses
  // the control channels. Desired membership is untouched — a restored
  // replica will see the DIP live until its own health checking catches up.
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (alive_[i]) switches_[i]->handle_dip_failure(vip, dip, true);
  }
}

void SilkRoadFleet::deliver_to(std::size_t index,
                               const fault::ControlChannel::Payload& payload) {
  if (const auto* chunk = std::get_if<fault::ResyncChunk>(&payload)) {
    apply_chunk(index, *chunk);
    return;
  }
  if (const auto* config = std::get_if<fault::VipConfig>(&payload)) {
    apply_vip_config(index, *config, 0);
    return;
  }
  const auto& update = std::get<workload::DipUpdate>(payload);
  const auto leg = static_cast<std::uint32_t>(index);
  if (switches_[index]->version_manager(update.vip) == nullptr) {
    // The replica is not provisioned with this VIP yet (its resync is still
    // in flight); the resync chunks will carry the membership over. The
    // watermark deliberately does not advance — the mutation was not applied.
    spans_.record(update.update_id, obs::EventKind::kSkipped, leg,
                  sim_.now(), 0, 0);
    return;
  }
  auto& dips = applied_[index][update.vip];
  // Duplicate delivery (lost ack / retransmit race): already applied.
  const bool duplicate = update.action == workload::UpdateAction::kAddDip
                             ? !dips.insert(update.dip).second
                             : dips.erase(update.dip) == 0;
  // In-order delivery applied (or confirmed as already-applied) this log
  // position: the replica is caught up through it.
  if (update.log_pos != 0) {
    applied_through_[index] = std::max(applied_through_[index], update.log_pos);
  }
  if (!duplicate) note_applied(index);
  if (observer_ != nullptr) {
    // Mirror mutation and watermark advance as one fused feed: the digest
    // check at the new position sees the state that position produced. A
    // content-deduped duplicate still confirms the position.
    if (update.log_pos != 0) {
      observer_->on_delivery(index, update.vip, update.dip, !duplicate,
                             update.log_pos, sim_.now());
    } else if (!duplicate) {
      observer_->on_mirror_update(index, update.vip, update.dip,
                                  /*changed=*/true, sim_.now());
    }
  }
  if (duplicate) {
    spans_.record(update.update_id, obs::EventKind::kSkipped, leg,
                  sim_.now(), 0, 1);
    return;
  }
  switches_[index]->request_update(update);
}

void SilkRoadFleet::begin_resync_session(std::size_t index) {
  // Compute the whole catch-up before the first send: the chunks travel the
  // ordinary lossy channel, and a zero-delay channel delivers synchronously
  // back into apply_chunk.
  std::vector<fault::JournalRecord> records;
  const std::uint64_t watermark = applied_through_[index];
  const std::uint64_t head = journal_.head_pos();
  const bool full = !journal_.covers(watermark);
  if (!full) {
    records = journal_.suffix_since(watermark);
  } else {
    // Compacted past the watermark: escalate to a full-state transfer — one
    // synthetic config record per VIP, still chunked and lossy.
    records.reserve(vip_order_.size());
    for (auto& entry : desired()) {
      fault::JournalRecord record;
      record.mutation = fault::VipConfig{entry.vip, std::move(entry.dips)};
      records.push_back(std::move(record));
    }
  }
  if (full) {
    ++full_sessions_;
  } else if (records.empty()) {
    ++empty_sessions_;
  } else {
    ++delta_sessions_;
  }
  resync_started_[index] = sim_.now();
  const std::uint64_t session = channels_[index]->active_resync_id();
  if (observer_ != nullptr) {
    const auto kind = full ? obs::FleetObserver::ResyncKind::kFull
                     : records.empty()
                         ? obs::FleetObserver::ResyncKind::kEmpty
                         : obs::FleetObserver::ResyncKind::kDelta;
    observer_->on_resync_begin(index, session, kind, sim_.now());
  }
  const auto leg = static_cast<std::uint32_t>(index);
  // An empty delta still sends one (empty, final) chunk: the switch rejoins
  // ECMP only once a chunk confirms the round trip, and the chunk's
  // watermark re-anchors the checkpoint.
  const std::size_t chunk_count =
      records.empty()
          ? 1
          : (records.size() + sync_.chunk_entries - 1) / sync_.chunk_entries;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    fault::ResyncChunk chunk;
    chunk.resync_id = session;
    chunk.chunk_index = static_cast<std::uint32_t>(c);
    chunk.final_chunk = c + 1 == chunk_count;
    chunk.full = full;
    const std::size_t begin = c * sync_.chunk_entries;
    const std::size_t end =
        std::min(records.size(), begin + sync_.chunk_entries);
    chunk.entries.assign(std::make_move_iterator(records.begin() + begin),
                         std::make_move_iterator(records.begin() + end));
    if (full) {
      // Synthetic records carry no positions; only the final chunk of a
      // complete full transfer certifies the head position.
      chunk.watermark_after = chunk.final_chunk ? head : watermark;
    } else {
      // Chunks deliver in order, so applying this one means every position
      // it (and its predecessors) carried has been applied.
      chunk.watermark_after = watermark;
      for (const auto& record : chunk.entries) {
        chunk.watermark_after = std::max(chunk.watermark_after, record.pos);
      }
    }
    chunk.span_id =
        spans_.begin_chunk(leg, sim_.now(), session, c, chunk.entries.size());
    channels_[index]->send(std::move(chunk));
  }
}

void SilkRoadFleet::apply_chunk(std::size_t index,
                                const fault::ResyncChunk& chunk) {
  for (const auto& record : chunk.entries) {
    if (const auto* config = std::get_if<fault::VipConfig>(&record.mutation)) {
      apply_vip_config(index, *config, chunk.resync_id);
    } else {
      apply_journaled_update(index,
                             std::get<workload::DipUpdate>(record.mutation),
                             chunk.resync_id);
    }
  }
  applied_through_[index] =
      std::max(applied_through_[index], chunk.watermark_after);
  // Every chunk boundary checkpoints: a crash mid-session restarts the next
  // session from this chunk's watermark, not from zero.
  checkpoint_switch(index);
  if (observer_ != nullptr) {
    observer_->on_watermark(index, chunk.watermark_after, sim_.now());
  }
  const auto leg = static_cast<std::uint32_t>(index);
  spans_.record(chunk.span_id, obs::EventKind::kResyncApply, leg,
                sim_.now(), chunk.chunk_index, chunk.entries.size());
  if (!chunk.final_chunk) return;
  spans_.record(chunk.resync_id, obs::EventKind::kResyncApply, leg,
                sim_.now(), chunk.chunk_index, 0);
  h_resync_duration_->record(
      static_cast<std::uint64_t>(sim_.now() - resync_started_[index]));
  if (restoring_[index]) {
    restoring_[index] = false;
    alive_[index] = true;
    if (membership_cb_) membership_cb_(index, true);
  }
  if (observer_ != nullptr) {
    observer_->on_resync_end(index, chunk.resync_id, sim_.now());
  }
}

void SilkRoadFleet::apply_vip_config(std::size_t index,
                                     const fault::VipConfig& config,
                                     std::uint64_t parent_id) {
  auto& sw = *switches_[index];
  if (sw.version_manager(config.vip) == nullptr) {
    applied_[index][config.vip] =
        DipSet(config.dips.begin(), config.dips.end());
    if (observer_ != nullptr) observer_->on_mirror_config(index, 0, sim_.now());
    sw.add_vip(config.vip, config.dips);
    return;
  }
  // The switch already serves this VIP: diff its applied membership against
  // the config and issue the delta as ordinary updates (each runs the 3-step
  // protocol, keeping existing flows consistent). Every delta is collected
  // and the mirror updated before the first is issued — request_update
  // fires span and mapping-risk callbacks whose probe sweeps re-enter the
  // fleet.
  std::vector<workload::DipUpdate> deltas;
  auto& have = applied_[index][config.vip];
  const DipSet want(config.dips.begin(), config.dips.end());
  for (const auto& dip : config.dips) {
    if (have.contains(dip)) continue;
    workload::DipUpdate update;
    update.at = sim_.now();
    update.vip = config.vip;
    update.dip = dip;
    update.action = workload::UpdateAction::kAddDip;
    update.cause = workload::UpdateCause::kProvisioning;
    deltas.push_back(std::move(update));
  }
  // `have` is an unordered set (R10): snapshot and sort the stale DIPs so the
  // re-issued removals — and therefore their span ids and 3-step executions
  // — happen in the same order on every platform and run.
  std::vector<net::Endpoint> stale;
  for (const auto& dip : have) {
    if (!want.contains(dip)) stale.push_back(dip);
  }
  std::sort(stale.begin(), stale.end());
  for (const auto& dip : stale) {
    workload::DipUpdate update;
    update.at = sim_.now();
    update.vip = config.vip;
    update.dip = dip;
    update.action = workload::UpdateAction::kRemoveDip;
    update.cause = workload::UpdateCause::kRemoval;
    deltas.push_back(std::move(update));
  }
  have = want;
  if (observer_ != nullptr) observer_->on_mirror_config(index, 0, sim_.now());
  for (auto& update : deltas) {
    spans_.begin_update(update, sim_.now(), parent_id);
    sw.request_update(update);
  }
}

void SilkRoadFleet::apply_journaled_update(std::size_t index,
                                           const workload::DipUpdate& update,
                                           std::uint64_t parent_id) {
  auto& sw = *switches_[index];
  // Journal order guarantees the VIP's config record precedes its updates;
  // this guard is belt-and-braces against a snapshot/journal mismatch.
  if (sw.version_manager(update.vip) == nullptr) return;
  auto& dips = applied_[index][update.vip];
  const bool duplicate = update.action == workload::UpdateAction::kAddDip
                             ? !dips.insert(update.dip).second
                             : dips.erase(update.dip) == 0;
  // Already applied (the snapshot or an earlier delivery carried it): the
  // replay is idempotent, nothing to re-execute.
  if (duplicate) return;
  if (observer_ != nullptr) {
    observer_->on_mirror_update(index, update.vip, update.dip,
                                /*changed=*/true, sim_.now());
  }
  workload::DipUpdate replay = update;
  replay.at = sim_.now();
  replay.update_id = 0;
  replay.log_pos = 0;
  spans_.begin_update(replay, sim_.now(), parent_id);
  sw.request_update(replay);
}

void SilkRoadFleet::note_applied(std::size_t index) {
  if (++since_checkpoint_[index] >= sync_.checkpoint_every) {
    checkpoint_switch(index);
  }
}

void SilkRoadFleet::checkpoint_switch(std::size_t index) {
  SwitchSnapshot snapshot;
  snapshot.watermark = applied_through_[index];
  snapshot.vips = applied(index);
  snapshots_.checkpoint(index, std::move(snapshot));
  since_checkpoint_[index] = 0;
}

std::vector<net::VipMembers> SilkRoadFleet::applied(std::size_t index) const {
  std::vector<net::VipMembers> out;
  out.reserve(applied_[index].size());
  for (const auto& vip : vip_order_) {
    const auto it = applied_[index].find(vip);
    if (it == applied_[index].end()) continue;
    net::VipMembers members;
    members.vip = vip;
    // The mirror is an unordered set (R10): sort so the checkpoint — and the
    // restore-time add_vip replay it drives — is deterministic.
    members.dips.assign(it->second.begin(), it->second.end());
    std::sort(members.dips.begin(), members.dips.end());
    out.push_back(std::move(members));
  }
  return out;
}

std::vector<net::VipMembers> SilkRoadFleet::desired() const {
  std::vector<net::VipMembers> out;
  out.reserve(vip_order_.size());
  for (const auto& vip : vip_order_) out.push_back({vip, membership_.at(vip)});
  return out;
}

void SilkRoadFleet::set_mapping_risk_callback(MappingRiskCallback cb) {
  risk_cb_ = std::move(cb);
  // Any member switch flipping can change a flow's mapping; de-duplication
  // of the resulting probe sweeps is the driver's concern (the sweep is
  // idempotent between events).
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    switches_[i]->set_mapping_risk_callback(
        [this](const net::Endpoint& vip) {
          if (risk_cb_) risk_cb_(vip);
        });
  }
}

void SilkRoadFleet::self_check() const {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (alive_[i]) switches_[i]->self_check();
  }
}

std::optional<std::size_t> SilkRoadFleet::route_of(
    const net::FiveTuple& flow) const {
  // ECMP over live members: hash-ranked selection so a member failure only
  // re-routes the failed member's share (rendezvous / highest-random-weight
  // hashing, the resilient-ECMP behaviour of modern fabrics).
  std::optional<std::size_t> best;
  std::uint64_t best_weight = 0;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (!alive_[i]) continue;
    const std::uint64_t weight =
        net::hash_five_tuple(flow, net::mix64(ecmp_seed_ + i));
    if (!best || weight > best_weight) {
      best = i;
      best_weight = weight;
    }
  }
  return best;
}

lb::PacketResult SilkRoadFleet::process_packet(const net::Packet& packet) {
  const auto route = route_of(packet.flow);
  if (!route) return {};
  return switches_[*route]->process_packet(packet);
}

void SilkRoadFleet::fail_switch(std::size_t index) {
  if (index >= alive_.size() || (!alive_[index] && !restoring_[index])) return;
  alive_[index] = false;
  restoring_[index] = false;
  channels_[index]->set_offline(true);
  // Whatever it had applied in memory died with it; the durable snapshot in
  // snapshots_ survives — that is the restore-time recovery anchor.
  applied_[index].clear();
  if (observer_ != nullptr) observer_->on_switch_down(index, sim_.now());
  if (membership_cb_) membership_cb_(index, false);
  // Flows the failed switch carried re-hash to survivors on their next
  // packet; callers audit the re-mapping with route_of() + probes (see the
  // fleet tests and examples).
}

void SilkRoadFleet::restore_switch(std::size_t index) {
  if (index >= alive_.size() || alive_[index] || restoring_[index]) return;
  // Crash model: the replacement comes up with nothing in memory. Its
  // durable checkpoint is replayed first (config + membership as of the
  // watermark), then the resync session ships only the journal suffix past
  // that watermark. Only once the session's final chunk lands does the
  // switch re-enter ECMP (apply_chunk flips alive_).
  switches_[index]->reset();
  const SwitchSnapshot snapshot = snapshots_.at(index);
  applied_[index].clear();
  applied_through_[index] = snapshot.watermark;
  since_checkpoint_[index] = 0;
  if (observer_ != nullptr) {
    observer_->on_restore_begin(index, snapshot.watermark, sim_.now());
  }
  // The snapshot's VIPs land in the mirror one at a time, each fed to the
  // observer right after it lands (see add_vip).
  for (const auto& entry : snapshot.vips) {
    applied_[index][entry.vip] = DipSet(entry.dips.begin(), entry.dips.end());
    if (observer_ != nullptr) observer_->on_mirror_config(index, 0, sim_.now());
  }
  for (const auto& entry : snapshot.vips) {
    switches_[index]->add_vip(entry.vip, entry.dips);
  }
  restoring_[index] = true;
  channels_[index]->set_offline(false);
  channels_[index]->force_resync();
}

bool SilkRoadFleet::converged() const {
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    // A mid-resync switch is about to rejoin with chunks in flight.
    if (restoring_[i]) return false;
    if (!alive_[i]) continue;
    if (channels_[i]->outstanding() != 0 || channels_[i]->needs_resync()) {
      return false;
    }
    const auto& sw = *switches_[i];
    if (sw.update_in_flight() || sw.queued_updates() != 0) return false;
    for (const auto& vip : vip_order_) {
      const auto* mgr = sw.version_manager(vip);
      if (mgr == nullptr) return false;
      const auto* pool = mgr->pool(mgr->current_version());
      if (pool == nullptr) return false;
      const auto live = pool->members();
      const DipSet have(live.begin(), live.end());
      const auto& desired = membership_.at(vip);
      if (have.size() != desired.size()) return false;
      for (const auto& dip : desired) {
        if (!have.contains(dip)) return false;
      }
    }
  }
  return true;
}

std::size_t SilkRoadFleet::live_count() const {
  std::size_t count = 0;
  for (const bool a : alive_) count += a ? 1 : 0;
  return count;
}

std::uint64_t SilkRoadFleet::ctrl_retries() const {
  std::uint64_t total = 0;
  for (const auto& channel : channels_) total += channel->retries();
  return total;
}

std::uint64_t SilkRoadFleet::ctrl_resyncs() const {
  std::uint64_t total = 0;
  for (const auto& channel : channels_) total += channel->resyncs();
  return total;
}

std::size_t SilkRoadFleet::ctrl_outstanding() const {
  std::size_t total = 0;
  for (const auto& channel : channels_) total += channel->outstanding();
  return total;
}

std::uint64_t SilkRoadFleet::ctrl_resync_chunks() const {
  std::uint64_t total = 0;
  for (const auto& channel : channels_) total += channel->resync_chunks();
  return total;
}

std::uint64_t SilkRoadFleet::ctrl_resync_bytes() const {
  std::uint64_t total = 0;
  for (const auto& channel : channels_) total += channel->resync_bytes();
  return total;
}

std::uint64_t SilkRoadFleet::applied_through(std::size_t index) const {
  return applied_through_.at(index);
}

SwitchSnapshot SilkRoadFleet::snapshot_of(std::size_t index) const {
  return snapshots_.at(index);
}

std::uint64_t SilkRoadFleet::journal_head() const {
  return journal_.head_pos();
}

std::uint64_t SilkRoadFleet::journal_compacted() const {
  return journal_.compacted();
}

std::uint64_t SilkRoadFleet::snapshot_checkpoints() const {
  return snapshots_.checkpoints();
}

obs::Snapshot SilkRoadFleet::metrics_snapshot() const {
  std::vector<obs::Snapshot> parts;
  parts.reserve(switches_.size() + 1);
  for (const auto& sw : switches_) {
    parts.push_back(sw->metrics().snapshot());
  }
  parts.push_back(fleet_metrics_.snapshot());
  return obs::MetricsRegistry::aggregate(parts);
}

void SilkRoadFleet::inject_mirror_corruption(std::size_t index,
                                             const net::Endpoint& vip,
                                             const net::Endpoint& dip,
                                             bool add) {
  const auto it = applied_.at(index).find(vip);
  SR_CHECKF(it != applied_[index].end(),
            "mirror corruption needs a VIP switch %zu holds", index);
  const bool changed =
      add ? it->second.insert(dip).second : it->second.erase(dip) != 0;
  if (observer_ != nullptr) {
    observer_->on_mirror_update(index, vip, dip, changed, sim_.now());
  }
}

}  // namespace silkroad::deploy
