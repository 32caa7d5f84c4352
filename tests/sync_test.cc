// Incremental state sync (DESIGN.md §16): journal/snapshot units, the
// escalation ladder's compaction edges, chunked resync over the lossy
// channel, and crash-consistent resume of an interrupted session.
#include <gtest/gtest.h>

#include <vector>

#include "deploy/fleet.h"
#include "deploy/journal.h"
#include "deploy/snapshot.h"
#include "fault/sync_wire.h"

namespace silkroad::deploy {
namespace {

net::Endpoint vip_ep() { return {net::IpAddress::v4(0x14000001), 80}; }

std::vector<net::Endpoint> make_dips(int n) {
  std::vector<net::Endpoint> dips;
  for (int i = 0; i < n; ++i) {
    dips.push_back(
        {net::IpAddress::v4(0x0A000000 + static_cast<std::uint32_t>(i)), 20});
  }
  return dips;
}

core::SilkRoadSwitch::Config small_config() {
  core::SilkRoadSwitch::Config config;
  config.conn_table = core::SilkRoadSwitch::conn_table_for(8192);
  return config;
}

workload::DipUpdate add_of(const net::Endpoint& dip) {
  workload::DipUpdate update;
  update.vip = vip_ep();
  update.dip = dip;
  update.action = workload::UpdateAction::kAddDip;
  update.cause = workload::UpdateCause::kProvisioning;
  return update;
}

// --- MutationJournal --------------------------------------------------------

TEST(MutationJournal, PositionsAreMonotoneAndSuffixFollowsWatermark) {
  MutationJournal journal(8);
  const auto dips = make_dips(3);
  EXPECT_EQ(journal.head_pos(), 0u);
  EXPECT_TRUE(journal.covers(0));  // nothing appended: nothing missing
  EXPECT_EQ(journal.append(fault::VipConfig{vip_ep(), dips}), 1u);
  EXPECT_EQ(journal.append(add_of(dips[0])), 2u);
  EXPECT_EQ(journal.append(add_of(dips[1])), 3u);
  EXPECT_EQ(journal.head_pos(), 3u);
  EXPECT_EQ(journal.first_pos(), 1u);
  EXPECT_EQ(journal.size(), 3u);
  const auto suffix = journal.suffix_since(1);
  ASSERT_EQ(suffix.size(), 2u);
  EXPECT_EQ(suffix[0].pos, 2u);
  EXPECT_EQ(suffix[1].pos, 3u);
  EXPECT_TRUE(journal.suffix_since(3).empty());
  EXPECT_GT(journal.retained_wire_size(), 0u);
}

TEST(MutationJournal, CompactionDropsOldestAndBreaksCoverage) {
  MutationJournal journal(2);
  const auto dips = make_dips(4);
  for (int i = 0; i < 4; ++i) journal.append(add_of(dips[i]));
  EXPECT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.compacted(), 2u);
  EXPECT_EQ(journal.appended(), 4u);
  EXPECT_EQ(journal.first_pos(), 3u);
  // covers(w): every entry past w still retained — first_pos <= w + 1.
  EXPECT_FALSE(journal.covers(0));
  EXPECT_FALSE(journal.covers(1));
  EXPECT_TRUE(journal.covers(2));  // exactly at the horizon
  EXPECT_TRUE(journal.covers(4));
}

// --- SwitchSnapshot / SnapshotStore ----------------------------------------

TEST(SnapshotStore, CheckpointReplacesAndCountsWireBytes) {
  SnapshotStore store(2);
  EXPECT_TRUE(store.at(0).empty());
  EXPECT_EQ(store.at(0).wire_size(), 8u);  // just the watermark
  SwitchSnapshot snapshot;
  snapshot.watermark = 7;
  snapshot.vips.push_back({vip_ep(), make_dips(2)});
  // watermark (8) + vip endpoint (6) + count (2) + 2 members (12).
  EXPECT_EQ(snapshot.wire_size(), 28u);
  store.checkpoint(1, snapshot);
  EXPECT_EQ(store.at(1).watermark, 7u);
  EXPECT_EQ(store.checkpoints(), 1u);
  EXPECT_EQ(store.total_wire_size(), 8u + 28u);
  store.checkpoint(1, SwitchSnapshot{});
  EXPECT_TRUE(store.at(1).empty());
  EXPECT_EQ(store.checkpoints(), 2u);
}

// --- Watermarks under normal operation -------------------------------------

TEST(SilkRoadFleet, InOrderDeliveryAdvancesAppliedThroughWatermark) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 2);
  const auto dips = make_dips(6);
  fleet.add_vip(vip_ep(), {dips[0], dips[1]});
  // Synchronous provisioning is replayed idempotently, not watermarked.
  EXPECT_EQ(fleet.applied_through(0), 0u);
  EXPECT_EQ(fleet.journal_head(), 1u);
  for (int i = 2; i < 5; ++i) fleet.request_update(add_of(dips[i]));
  sim.run();
  EXPECT_EQ(fleet.journal_head(), 4u);
  EXPECT_EQ(fleet.applied_through(0), 4u);
  EXPECT_EQ(fleet.applied_through(1), 4u);
  EXPECT_TRUE(fleet.converged());
  // The checkpoint cadence (default every 8 mutations) hasn't fired yet for
  // either switch; the snapshots still hold their construction state.
  EXPECT_EQ(fleet.sync_config().checkpoint_every, 8u);
}

// --- Compaction edges (escalation ladder) ----------------------------------

SyncConfig tight_sync() {
  SyncConfig sync;
  sync.journal_capacity = 4;
  sync.chunk_entries = 2;
  sync.checkpoint_every = 1;
  return sync;
}

TEST(SilkRoadFleet, WatermarkExactlyAtHorizonGetsDelta) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 2, 0xFEE7ULL, {}, tight_sync());
  const auto dips = make_dips(10);
  fleet.add_vip(vip_ep(), {dips[0], dips[1], dips[2], dips[3]});  // pos 1
  fleet.request_update(add_of(dips[4]));                          // pos 2
  sim.run();
  ASSERT_EQ(fleet.applied_through(0), 2u);
  fleet.fail_switch(0);
  // Four mutations while down: positions 3..6. Capacity 4 retains exactly
  // 3..6, so first_pos == watermark + 1 — the delta barely survives.
  for (int i = 5; i < 9; ++i) fleet.request_update(add_of(dips[i]));
  sim.run();
  EXPECT_EQ(fleet.journal_compacted(), 2u);
  fleet.restore_switch(0);
  sim.run();
  EXPECT_EQ(fleet.delta_sessions(), 1u);
  EXPECT_EQ(fleet.full_sessions(), 0u);
  EXPECT_EQ(fleet.empty_sessions(), 0u);
  // Four journal records at two per chunk: exactly two chunks.
  EXPECT_EQ(fleet.ctrl_resync_chunks(), 2u);
  EXPECT_EQ(fleet.applied_through(0), 6u);
  EXPECT_EQ(fleet.live_count(), 2u);
  EXPECT_TRUE(fleet.converged());
  EXPECT_TRUE(fleet.spans().audit_complete().empty());
}

TEST(SilkRoadFleet, WatermarkOnePastHorizonEscalatesToFullTransfer) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 2, 0xFEE7ULL, {}, tight_sync());
  const auto dips = make_dips(10);
  fleet.add_vip(vip_ep(), {dips[0], dips[1], dips[2], dips[3]});  // pos 1
  fleet.request_update(add_of(dips[4]));                          // pos 2
  sim.run();
  ASSERT_EQ(fleet.applied_through(0), 2u);
  fleet.fail_switch(0);
  // Five mutations: positions 3..7, capacity retains 4..7 — position 3 is
  // gone and the watermark can no longer be served a delta.
  for (int i = 5; i < 10; ++i) fleet.request_update(add_of(dips[i]));
  sim.run();
  EXPECT_EQ(fleet.journal_compacted(), 3u);
  fleet.restore_switch(0);
  sim.run();
  EXPECT_EQ(fleet.delta_sessions(), 0u);
  EXPECT_EQ(fleet.full_sessions(), 1u);
  // One VIP config record: one (final) chunk certifying the journal head.
  EXPECT_EQ(fleet.ctrl_resync_chunks(), 1u);
  EXPECT_EQ(fleet.applied_through(0), fleet.journal_head());
  EXPECT_EQ(fleet.live_count(), 2u);
  EXPECT_TRUE(fleet.converged());
  EXPECT_TRUE(fleet.spans().audit_complete().empty());
}

TEST(SilkRoadFleet, UpToDateReplicaGetsEmptyConfirmationSession) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 2, 0xFEE7ULL, {}, tight_sync());
  const auto dips = make_dips(5);
  fleet.add_vip(vip_ep(), {dips[0], dips[1], dips[2], dips[3]});
  fleet.request_update(add_of(dips[4]));
  sim.run();
  fleet.fail_switch(0);
  fleet.restore_switch(0);  // nothing changed while it was down
  sim.run();
  EXPECT_EQ(fleet.empty_sessions(), 1u);
  EXPECT_EQ(fleet.delta_sessions(), 0u);
  EXPECT_EQ(fleet.full_sessions(), 0u);
  // The empty confirmation still rides the channel as one final chunk: the
  // switch rejoins ECMP only after the round trip.
  EXPECT_EQ(fleet.ctrl_resync_chunks(), 1u);
  EXPECT_GT(fleet.ctrl_resync_bytes(), 0u);
  EXPECT_EQ(fleet.live_count(), 2u);
  EXPECT_TRUE(fleet.converged());
  EXPECT_TRUE(fleet.spans().audit_complete().empty());
}

// --- Chunked resync is ordinary lossy traffic (no reliability fiction) -----

TEST(SilkRoadFleet, ResyncChunksSufferLossAndRetriesWithoutReEscalating) {
  sim::Simulator sim;
  fault::ControlChannel::Config channel;
  channel.base_delay = 100 * sim::kMicrosecond;
  channel.retry_timeout = 1 * sim::kMillisecond;
  channel.resync_after_retries = 2;
  SyncConfig sync;
  sync.chunk_entries = 1;   // several chunks, each its own lossy message
  sync.checkpoint_every = 1;  // durable watermark tracks every delivery
  SilkRoadFleet fleet(sim, small_config(), 2, 0xFEE7ULL, channel, sync);
  const auto dips = make_dips(8);
  fleet.add_vip(vip_ep(), {dips[0], dips[1], dips[2], dips[3]});
  fleet.request_update(add_of(dips[4]));
  sim.run();
  fleet.fail_switch(0);
  for (int i = 5; i < 8; ++i) fleet.request_update(add_of(dips[i]));
  sim.run();
  // Blackout: every transmission (chunks and acks alike) dies for the first
  // 5 ms of the session — far past resync_after_retries worth of retries.
  const sim::Time t0 = sim.now();
  fleet.set_channel_loss_hook(
      0, [t0](sim::Time now) { return now < t0 + 5 * sim::kMillisecond; });
  fleet.restore_switch(0);
  sim.run();
  const auto& ch = fleet.channel_at(0);
  // Exactly one session: chunks retry with capped backoff but never
  // re-escalate (escalating would wipe and restart the very transfer that
  // is trying to land).
  EXPECT_EQ(ch.resyncs(), 1u);
  EXPECT_GT(ch.retries(), 2u);
  EXPECT_GT(ch.dropped(), 0u);
  EXPECT_EQ(fleet.delta_sessions(), 1u);
  EXPECT_EQ(fleet.live_count(), 2u);
  EXPECT_TRUE(fleet.converged());
  // The chunk legs carry the loss story end to end: drop, retry, delivery,
  // application — all on spans parented under the session span.
  const obs::UpdateSpan* session = nullptr;
  std::size_t chunk_spans = 0;
  bool saw_lossy_chunk = false;
  for (const auto* span : fleet.spans().all()) {
    if (span->resync) session = span;
    if (!span->chunk) continue;
    ++chunk_spans;
    EXPECT_TRUE(span->has(obs::EventKind::kChunkBegin, 0));
    EXPECT_TRUE(span->has(obs::EventKind::kChannelDeliver, 0));
    EXPECT_TRUE(span->has(obs::EventKind::kResyncApply, 0));
    if (span->has(obs::EventKind::kChannelDrop, 0) &&
        span->has(obs::EventKind::kChannelRetry, 0)) {
      saw_lossy_chunk = true;
    }
  }
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(chunk_spans, 3u);  // three journal records at one per chunk
  EXPECT_TRUE(saw_lossy_chunk);
  for (const auto* span : fleet.spans().all()) {
    if (span->chunk) {
      EXPECT_EQ(span->parent_id, session->id);
    }
  }
  EXPECT_TRUE(fleet.spans().audit_complete().empty());
}

// --- Crash mid-resync resumes from the last acknowledged chunk -------------

TEST(SilkRoadFleet, RestartDuringResyncResumesFromChunkWatermark) {
  sim::Simulator sim;
  fault::ControlChannel::Config channel;
  channel.base_delay = 200 * sim::kMicrosecond;
  channel.retry_timeout = 1 * sim::kMillisecond;
  SyncConfig sync;
  sync.chunk_entries = 1;
  sync.checkpoint_every = 1;
  SilkRoadFleet fleet(sim, small_config(), 2, 0xFEE7ULL, channel, sync);
  const auto dips = make_dips(10);
  fleet.add_vip(vip_ep(), {dips[0], dips[1], dips[2], dips[3]});  // pos 1
  fleet.request_update(add_of(dips[4]));                          // pos 2
  sim.run();
  ASSERT_EQ(fleet.snapshot_of(0).watermark, 2u);
  fleet.fail_switch(0);
  for (int i = 5; i < 11; ++i) {  // positions 3..8
    fleet.request_update(add_of(dips[i % 10]));
  }
  sim.run();
  // First catch-up session: six single-record chunks. The loss hook lets the
  // first three transmissions through (chunks 0..2) and blackholes the rest
  // — chunks 3..5 and every ack die in the air.
  int calls = 0;
  fleet.set_channel_loss_hook(0, [&calls](sim::Time) { return ++calls > 3; });
  const sim::Time t0 = sim.now();
  fleet.restore_switch(0);
  EXPECT_EQ(fleet.ctrl_resync_chunks(), 6u);
  sim.run_until(t0 + 500 * sim::kMicrosecond);
  // Chunks 0..2 (positions 3..5) landed and were applied; each chunk
  // boundary checkpointed, so position 5 is durable. The session is still
  // open: the switch has not rejoined ECMP.
  EXPECT_EQ(fleet.applied_through(0), 5u);
  EXPECT_EQ(fleet.snapshot_of(0).watermark, 5u);
  EXPECT_EQ(fleet.live_count(), 1u);
  // Crash again, mid-session. The in-flight tail of the transfer dies.
  fleet.fail_switch(0);
  // Second restore resumes from the checkpointed chunk watermark: only
  // positions 6..8 ship — three chunks, not six (and not a full transfer).
  fleet.set_channel_loss_hook(0, nullptr);
  fleet.restore_switch(0);
  EXPECT_EQ(fleet.ctrl_resync_chunks(), 9u);  // 6 + 3, resumed not restarted
  sim.run();
  EXPECT_EQ(fleet.delta_sessions(), 2u);
  EXPECT_EQ(fleet.full_sessions(), 0u);
  EXPECT_EQ(fleet.applied_through(0), 8u);
  EXPECT_EQ(fleet.live_count(), 2u);
  EXPECT_TRUE(fleet.converged());
  fleet.self_check();
  EXPECT_TRUE(fleet.spans().audit_complete().empty());
}

// --- Telemetry -------------------------------------------------------------

TEST(SilkRoadFleet, SyncSubsystemExportsJournalSnapshotAndSessionMetrics) {
  sim::Simulator sim;
  SilkRoadFleet fleet(sim, small_config(), 2, 0xFEE7ULL, {}, tight_sync());
  const auto dips = make_dips(8);
  fleet.add_vip(vip_ep(), {dips[0], dips[1]});
  for (int i = 2; i < 6; ++i) fleet.request_update(add_of(dips[i]));
  sim.run();
  fleet.fail_switch(0);
  fleet.request_update(add_of(dips[6]));
  sim.run();
  fleet.restore_switch(0);
  sim.run();
  ASSERT_TRUE(fleet.converged());
  const auto snap = fleet.metrics_snapshot();
  EXPECT_EQ(snap.value_of("silkroad_ctrl_journal_head"),
            static_cast<double>(fleet.journal_head()));
  EXPECT_EQ(snap.value_of("silkroad_ctrl_journal_appended_total"), 6.0);
  EXPECT_EQ(snap.value_of("silkroad_ctrl_journal_compactions_total"),
            static_cast<double>(fleet.journal_compacted()));
  EXPECT_EQ(snap.value_of("silkroad_ctrl_journal_entries"), 4.0);  // capacity
  EXPECT_EQ(snap.value_of("silkroad_ctrl_snapshot_checkpoints_total"),
            static_cast<double>(fleet.snapshot_checkpoints()));
  EXPECT_GT(snap.value_of("silkroad_ctrl_snapshot_bytes"), 0.0);
  EXPECT_EQ(snap.value_of("silkroad_ctrl_resync_sessions_total",
                          "kind=\"delta\""),
            static_cast<double>(fleet.delta_sessions()));
  EXPECT_EQ(
      snap.value_of("silkroad_ctrl_resync_sessions_total", "kind=\"full\""),
      static_cast<double>(fleet.full_sessions()));
  EXPECT_EQ(
      snap.value_of("silkroad_ctrl_resync_sessions_total", "kind=\"empty\""),
      static_cast<double>(fleet.empty_sessions()));
  // Per-switch chunk traffic counters, and their fleet-wide sums.
  EXPECT_EQ(snap.value_of("silkroad_ctrl_resync_chunks_total", "switch=\"0\""),
            static_cast<double>(fleet.ctrl_resync_chunks()));
  EXPECT_GT(snap.value_of("silkroad_ctrl_resync_bytes_total", "switch=\"0\""),
            0.0);
  EXPECT_EQ(snap.value_of("silkroad_ctrl_resync_chunks_total", "switch=\"1\""),
            0.0);
  const auto* duration = snap.find("silkroad_ctrl_resync_duration_ns");
  ASSERT_NE(duration, nullptr);
  EXPECT_EQ(duration->count, 1u);  // one completed session
}

}  // namespace
}  // namespace silkroad::deploy
