// Modeled controller->switch control channel (lossy, delayed, resynced).
//
// The paper assumes every switch receives the controller's DIP-pool update
// stream; production control channels are RPC sessions over a management
// network that delays, drops, and reorders messages, and that must resync a
// replica when it falls too far behind or returns from a crash (§5.3, §7).
// This class models one such session: messages carry sequence numbers, the
// receiver delivers strictly in order (buffering gaps), the sender retries
// unacknowledged messages with exponential backoff, and after too many
// retries it escalates to a resync *session* — the controller computes the
// catch-up (journal delta or full state, DESIGN.md §16) and sends it as
// ResyncChunk payloads through this same channel, subject to the same loss,
// reordering, and retransmission as every other message. There is no
// reliable side channel: chunk traffic is the bottom of the escalation
// ladder and is retried until acknowledged (it never re-escalates).
//
// Both endpoints live in this one object (the simulation owns both sides);
// loss applies independently to the message and to its ack, so a lost ack
// produces a genuine duplicate delivery at the receiver.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <variant>
#include <vector>

#include "fault/sync_wire.h"
#include "net/endpoint.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "workload/update_gen.h"

namespace silkroad::fault {

class ControlChannel {
 public:
  struct Config {
    /// One-way propagation + processing delay per message (and per ack).
    sim::Time base_delay = 0;
    /// Uniform extra delay in [0, jitter) added per transmission.
    sim::Time jitter = 0;
    /// Probability a transmission (message or ack) is lost.
    double drop_probability = 0.0;
    /// Probability a message is delayed by `reorder_extra` (arrives after
    /// later messages — the receiver's in-order buffer repairs it).
    double reorder_probability = 0.0;
    sim::Time reorder_extra = 0;
    /// First retransmit timeout; each retry multiplies it by retry_backoff.
    sim::Time retry_timeout = 1 * sim::kMillisecond;
    double retry_backoff = 2.0;
    /// Retries per message before escalating to a full-state resync.
    int resync_after_retries = 5;
    std::uint64_t seed = 0xC0117301ULL;
  };

  using Payload = std::variant<workload::DipUpdate, VipConfig, ResyncChunk>;
  /// Receiver-side application of one in-order message.
  using DeliverFn = std::function<void(const Payload& payload)>;
  /// Begin-resync-session request: the callee computes the catch-up (journal
  /// suffix past the replica's watermark, or full state after compaction)
  /// and sends it back through this channel as sequenced ResyncChunk
  /// payloads. Invoked synchronously from force_resync(), after the window
  /// wipe and with the session's span id in active_resync_id(), so the
  /// callee is the one place a session opens: the fleet's also tells its
  /// convergence observer (DESIGN.md §17) before the first chunk leaves.
  /// Nothing about the transfer itself is reliable (srlint R13 keeps direct
  /// invocations out of the rest of the tree).
  using ResyncFn = std::function<void()>;
  /// Fault-injection hook: returns true to force-drop this transmission.
  using LossHook = std::function<bool(sim::Time now)>;

  ControlChannel(sim::Simulator& simulator, const Config& config,
                 DeliverFn deliver, ResyncFn resync);

  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  /// Queues one message. While the channel is offline the message is dropped
  /// and the channel is marked as needing a resync (the peer is dead; the
  /// controller replays state wholesale on restore).
  void send(Payload payload);

  /// Peer liveness. Going offline wipes the in-flight window (messages to a
  /// dead switch are gone) and marks the channel for resync; coming back
  /// online does *not* resync by itself — call force_resync().
  void set_offline(bool offline);

  /// Escalates to a resync session: drops the in-flight window, bumps the
  /// receive epoch (stale arrivals die), re-anchors the in-order syncpoint,
  /// and synchronously asks the resync callback to send the chunked catch-up
  /// through this channel. The chunks themselves are ordinary lossy traffic;
  /// a chunk is retried until acknowledged but never re-escalates.
  void force_resync();

  void set_loss_hook(LossHook hook) { loss_hook_ = std::move(hook); }

  /// Registers this channel's counters in `registry` under the
  /// silkroad_ctrl_* names with `labels` (e.g. switch="2").
  void bind_metrics(obs::MetricsRegistry& registry, const std::string& labels);

  /// Attaches the causal-trace collector: every channel-leg event of a
  /// traced DipUpdate (send, transmission attempts, drops, retries,
  /// deliveries, duplicates) is recorded on its span under this switch's
  /// leg, and resync escalations mint resync spans subsuming whatever the
  /// window wipe abandoned. Pass nullptr to detach.
  void bind_spans(obs::SpanCollector* spans, std::uint32_t switch_index);

  // --- Introspection ---------------------------------------------------------
  bool offline() const noexcept { return offline_; }
  bool needs_resync() const noexcept { return needs_resync_; }
  std::size_t outstanding() const noexcept { return outstanding_.size(); }
  /// Message transmissions currently in the air (scheduled, not yet landed).
  std::size_t inflight() const noexcept { return inflight_; }
  /// Received-but-undeliverable messages buffered behind a sequence gap.
  std::size_t reorder_buffer_depth() const noexcept {
    return reorder_buffer_.size();
  }
  /// Span id of the most recent resync escalation (0 before the first); the
  /// fleet parents resync-synthesized diff updates under it.
  std::uint64_t active_resync_id() const noexcept { return active_resync_id_; }
  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t delivered() const noexcept { return delivered_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t duplicates() const noexcept { return duplicates_; }
  std::uint64_t reorders() const noexcept { return reorders_; }
  std::uint64_t retries() const noexcept { return retries_; }
  std::uint64_t resyncs() const noexcept { return resyncs_; }
  /// ResyncChunk payloads submitted on this channel.
  std::uint64_t resync_chunks() const noexcept { return resync_chunks_; }
  /// Modeled bytes of every chunk transmission attempt (retransmits re-pay).
  std::uint64_t resync_bytes() const noexcept { return resync_bytes_; }
  const Config& config() const noexcept { return config_; }

 private:
  struct Outstanding {
    Payload payload;
    int retries = 0;
    sim::Time timeout = 0;
    sim::EventHandle retry_event;
  };

  void transmit(std::uint64_t seq);
  void arm_retry(std::uint64_t seq);
  void on_retry_timeout(std::uint64_t seq);
  void on_message_arrival(std::uint64_t seq, std::uint64_t epoch);
  void ack(std::uint64_t seq);
  void drain_in_order();
  void wipe_window();

  /// The causal-trace id riding in `payload` (0 for VipConfig / untraced).
  static std::uint64_t payload_update_id(const Payload& payload) noexcept;
  void span_event(std::uint64_t id, obs::EventKind kind,
                  std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

  sim::Simulator& sim_;
  Config config_;
  DeliverFn deliver_;
  ResyncFn resync_;
  LossHook loss_hook_;
  sim::Rng rng_;

  obs::SpanCollector* spans_ = nullptr;
  std::uint32_t span_switch_ = 0;
  /// Traced updates the window wipes abandoned; the next resync escalation
  /// subsumes them (only populated while spans_ is bound).
  std::vector<std::uint64_t> pending_subsume_;
  std::uint64_t active_resync_id_ = 0;
  std::size_t inflight_ = 0;

  // Sender side.
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, Outstanding> outstanding_;
  // Receiver side.
  std::uint64_t next_expected_ = 0;
  std::map<std::uint64_t, Payload> reorder_buffer_;
  /// Bumped on offline / resync; in-flight arrivals from an older epoch are
  /// discarded (they were addressed to a state that no longer exists).
  std::uint64_t epoch_ = 0;

  bool offline_ = false;
  bool needs_resync_ = false;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t reorders_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t resync_chunks_ = 0;
  std::uint64_t resync_bytes_ = 0;
};

}  // namespace silkroad::fault
