#include "fault/control_channel.h"

#include <utility>

#include "check/sr_check.h"

namespace silkroad::fault {

ControlChannel::ControlChannel(sim::Simulator& simulator, const Config& config,
                               DeliverFn deliver, ResyncFn resync)
    : sim_(simulator),
      config_(config),
      deliver_(std::move(deliver)),
      resync_(std::move(resync)),
      rng_(config.seed) {
  SR_CHECK(deliver_ != nullptr);
  SR_CHECK(resync_ != nullptr);
  SR_CHECK(config_.retry_backoff >= 1.0);
}

void ControlChannel::send(Payload payload) {
  ++sent_;
  const std::uint64_t id = payload_update_id(payload);
  span_event(id, obs::EventKind::kChannelSend);
  if (offline_) {
    // The peer is dead: the message is gone, and only a full resync on
    // restore can re-establish a consistent state.
    ++dropped_;
    needs_resync_ = true;
    // The span leg terminates here; the restore-time resync subsumes it.
    span_event(id, obs::EventKind::kChannelDrop, 0, 2);
    span_event(id, obs::EventKind::kAbandon, 0, 3);
    if (spans_ != nullptr && id != 0) pending_subsume_.push_back(id);
    return;
  }
  if (std::holds_alternative<ResyncChunk>(payload)) ++resync_chunks_;
  const std::uint64_t seq = next_seq_++;
  auto [it, inserted] = outstanding_.emplace(
      seq, Outstanding{std::move(payload), 0, config_.retry_timeout, {}});
  SR_CHECK(inserted);
  (void)it;
  transmit(seq);
  arm_retry(seq);
}

void ControlChannel::transmit(std::uint64_t seq) {
  const sim::Time now = sim_.now();
  const auto out_it = outstanding_.find(seq);
  const std::uint64_t id = out_it == outstanding_.end()
                               ? 0
                               : payload_update_id(out_it->second.payload);
  const std::uint64_t attempt =
      out_it == outstanding_.end()
          ? 0
          : static_cast<std::uint64_t>(out_it->second.retries);
  if (out_it != outstanding_.end()) {
    // Every transmission attempt pays the chunk's modeled wire cost — a
    // retransmitted chunk is re-sent in full, so loss makes resync more
    // expensive, not magically cheaper.
    if (const auto* chunk =
            std::get_if<ResyncChunk>(&out_it->second.payload)) {
      resync_bytes_ += wire_size(*chunk);
    }
  }
  bool drop = offline_ || rng_.bernoulli(config_.drop_probability);
  if (!drop && loss_hook_ && loss_hook_(now)) drop = true;
  if (drop) {
    ++dropped_;
    span_event(id, obs::EventKind::kChannelDrop, attempt, 0);
    return;  // The retry timer is still armed; the message will come back.
  }
  span_event(id, obs::EventKind::kChannelXmit, attempt);
  sim::Time delay = config_.base_delay;
  if (config_.jitter > 0) {
    delay += static_cast<sim::Time>(rng_.uniform() *
                                    static_cast<double>(config_.jitter));
  }
  if (config_.reorder_probability > 0 &&
      rng_.bernoulli(config_.reorder_probability)) {
    delay += config_.reorder_extra;
    ++reorders_;
  }
  ++inflight_;
  sim_.schedule_after(delay, [this, seq, epoch = epoch_] {
    --inflight_;
    on_message_arrival(seq, epoch);
  });
}

void ControlChannel::arm_retry(std::uint64_t seq) {
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;
  it->second.retry_event = sim_.schedule_after(
      it->second.timeout, [this, seq] { on_retry_timeout(seq); });
}

void ControlChannel::on_retry_timeout(std::uint64_t seq) {
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;  // Acked in the meantime.
  if (offline_) return;                  // Restore will resync instead.
  ++it->second.retries;
  const bool chunk =
      std::holds_alternative<ResyncChunk>(it->second.payload);
  if (!chunk && it->second.retries > config_.resync_after_retries) {
    // The window is not making progress message-by-message; escalate to a
    // resync session, which supersedes everything outstanding. Chunk traffic
    // IS the session: it sits at the bottom of the escalation ladder and is
    // retried until acknowledged (a mid-session crash restarts the session
    // from the watermark via set_offline/force_resync instead).
    force_resync();
    return;
  }
  ++retries_;
  span_event(payload_update_id(it->second.payload),
             obs::EventKind::kChannelRetry,
             static_cast<std::uint64_t>(it->second.retries));
  it->second.timeout = static_cast<sim::Time>(
      static_cast<double>(it->second.timeout) * config_.retry_backoff);
  if (chunk && it->second.timeout > 16 * config_.retry_timeout) {
    // Cap the chunk backoff: recovery traffic keeps probing through long
    // loss windows instead of backing off into minutes of lag.
    it->second.timeout = 16 * config_.retry_timeout;
  }
  transmit(seq);
  arm_retry(seq);
}

void ControlChannel::on_message_arrival(std::uint64_t seq,
                                        std::uint64_t epoch) {
  if (epoch != epoch_) return;  // Sent to a peer state that no longer exists.
  if (seq < next_expected_) {
    // Already delivered once: the ack was lost and the sender retransmitted.
    // The sender-side copy is still outstanding (that is why it
    // retransmitted), so the payload's span id is recoverable here.
    ++duplicates_;
    if (const auto it = outstanding_.find(seq); it != outstanding_.end()) {
      span_event(payload_update_id(it->second.payload),
                 obs::EventKind::kChannelDup);
    }
    ack(seq);
    return;
  }
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;  // Superseded by a resync.
  if (!reorder_buffer_.emplace(seq, it->second.payload).second) {
    ++duplicates_;  // Retransmit raced its own earlier copy.
    span_event(payload_update_id(it->second.payload),
               obs::EventKind::kChannelDup);
  }
  ack(seq);
  drain_in_order();
}

void ControlChannel::ack(std::uint64_t seq) {
  // The ack crosses the same lossy channel; a lost ack leaves the message
  // outstanding and produces a duplicate delivery on retransmit.
  bool drop = rng_.bernoulli(config_.drop_probability);
  if (!drop && loss_hook_ && loss_hook_(sim_.now())) drop = true;
  if (drop) {
    ++dropped_;
    if (const auto it = outstanding_.find(seq); it != outstanding_.end()) {
      span_event(payload_update_id(it->second.payload),
                 obs::EventKind::kChannelDrop, 0, 1);
    }
    return;
  }
  sim::Time delay = config_.base_delay;
  if (config_.jitter > 0) {
    delay += static_cast<sim::Time>(rng_.uniform() *
                                    static_cast<double>(config_.jitter));
  }
  sim_.schedule_after(delay, [this, seq, epoch = epoch_] {
    if (epoch != epoch_) return;
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;
    it->second.retry_event.cancel();
    outstanding_.erase(it);
  });
}

void ControlChannel::drain_in_order() {
  while (true) {
    auto it = reorder_buffer_.find(next_expected_);
    if (it == reorder_buffer_.end()) break;
    Payload payload = std::move(it->second);
    reorder_buffer_.erase(it);
    ++next_expected_;
    ++delivered_;
    span_event(payload_update_id(payload), obs::EventKind::kChannelDeliver);
    deliver_(payload);
  }
}

void ControlChannel::wipe_window() {
  // Traced messages dying with the window are abandoned on this leg and
  // queued for subsumption by the next resync escalation. A message can sit
  // in both maps at once (received, ack in flight) — the duplicate record
  // and subsume entry are harmless.
  if (spans_ != nullptr) {
    const auto abandon = [this](const Payload& payload) {
      const std::uint64_t id = payload_update_id(payload);
      if (id == 0) return;
      span_event(id, obs::EventKind::kAbandon, 0, 3);
      pending_subsume_.push_back(id);
    };
    for (const auto& [seq, msg] : outstanding_) abandon(msg.payload);
    for (const auto& [seq, payload] : reorder_buffer_) abandon(payload);
  }
  for (auto& [seq, msg] : outstanding_) msg.retry_event.cancel();
  outstanding_.clear();
  reorder_buffer_.clear();
}

void ControlChannel::set_offline(bool offline) {
  if (offline == offline_) return;
  offline_ = offline;
  if (offline_) {
    ++epoch_;  // In-flight deliveries and acks die with the peer.
    wipe_window();
    needs_resync_ = true;
  }
}

void ControlChannel::force_resync() {
  wipe_window();
  if (offline_) {
    needs_resync_ = true;  // Deferred until the peer is restored.
    return;
  }
  needs_resync_ = false;
  ++resyncs_;
  ++epoch_;  // Stale in-flight arrivals and acks die with the old window.
  // Re-anchor the in-order stream: the session's chunks (and anything sent
  // after them) are the next sequences the receiver will accept.
  next_expected_ = next_seq_;
  if (spans_ != nullptr) {
    active_resync_id_ =
        spans_->begin_resync(span_switch_, sim_.now(), pending_subsume_);
    pending_subsume_.clear();
  }
  // Ask the controller to send the chunked catch-up. The chunks go through
  // send()/transmit() like every other message — there is no reliable
  // delivery fiction here; the session span gets its kResyncApply when the
  // final chunk actually lands at the receiver.
  resync_();
}

void ControlChannel::bind_metrics(obs::MetricsRegistry& registry,
                                  const std::string& labels) {
  const auto bind = [&](const char* name, const char* help,
                        const std::uint64_t* value) {
    registry.register_callback(
        name, obs::MetricKind::kCounter,
        [value] { return static_cast<double>(*value); }, help, labels);
  };
  bind("silkroad_ctrl_sent_total", "Control messages submitted for delivery",
       &sent_);
  bind("silkroad_ctrl_delivered_total",
       "Control messages delivered in order to the switch agent", &delivered_);
  bind("silkroad_ctrl_dropped_total",
       "Control-channel transmissions (messages and acks) lost", &dropped_);
  bind("silkroad_ctrl_duplicates_total",
       "Duplicate deliveries caused by lost acks", &duplicates_);
  bind("silkroad_ctrl_reorders_total",
       "Messages that arrived after a later-sequenced message", &reorders_);
  bind("silkroad_ctrl_retries_total", "Retransmissions after ack timeout",
       &retries_);
  bind("silkroad_ctrl_resyncs_total",
       "Resync sessions begun (retry exhaustion or crash restore)",
       &resyncs_);
  bind("silkroad_ctrl_resync_chunks_total",
       "ResyncChunk payloads submitted on the channel", &resync_chunks_);
  bind("silkroad_ctrl_resync_bytes_total",
       "Modeled bytes of chunk transmission attempts (retransmits re-pay)",
       &resync_bytes_);
  registry.register_callback(
      "silkroad_ctrl_outstanding", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(outstanding_.size()); },
      "Unacknowledged control messages in flight", labels);
  registry.register_callback(
      "silkroad_ctrl_inflight", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(inflight_); },
      "Message transmissions currently in the air (not yet landed)", labels);
  registry.register_callback(
      "silkroad_ctrl_reorder_buffer_depth", obs::MetricKind::kGauge,
      [this] { return static_cast<double>(reorder_buffer_.size()); },
      "Received messages buffered behind an in-order sequence gap", labels);
}

void ControlChannel::bind_spans(obs::SpanCollector* spans,
                                std::uint32_t switch_index) {
  spans_ = spans;
  span_switch_ = switch_index;
}

std::uint64_t ControlChannel::payload_update_id(
    const Payload& payload) noexcept {
  if (const auto* update = std::get_if<workload::DipUpdate>(&payload)) {
    return update->update_id;
  }
  if (const auto* chunk = std::get_if<ResyncChunk>(&payload)) {
    return chunk->span_id;
  }
  return 0;  // VipConfig payloads are untraced.
}

void ControlChannel::span_event(std::uint64_t id, obs::EventKind kind,
                                std::uint64_t arg0, std::uint64_t arg1) {
  if (spans_ == nullptr || id == 0) return;
  spans_->record(id, kind, span_switch_, sim_.now(), arg0, arg1);
}

}  // namespace silkroad::fault
