// Fleet convergence observatory (DESIGN.md §17): watermark-lag SLOs and
// state-digest divergence detection over the incremental sync layer (§16).
//
// The fleet feeds a FleetObserver on every journal append, every in-order
// delivery, and every resync-session transition. From that stream the
// observer derives two fleet-level answers the per-switch InvariantAuditor
// structurally cannot give:
//
//   1. "How far behind is each replica?" — per-switch watermark lag in
//      journal positions and in sim-time age, folded into a fleet lag
//      histogram and a hysteretic convergence SLO ("at least `kSloTarget`
//      of the live switches within `kLagEnter` positions of the journal
//      head"). SLO burn is exported as a counter so the existing
//      TimeSeriesRecorder derives burn rate for free.
//
//   2. "Do two switches silently disagree?" — an order-independent 64-bit
//      digest of each switch's applied VIP→DIP membership, maintained
//      incrementally (one member-token XOR per membership change the fleet
//      reports, with a periodic full-recompute self-check), compared
//      against the controller's desired-state digest *at the switch's
//      effective watermark*. A digest mismatch at an equal position is
//      silent divergence: the replica confirmed the same history the
//      controller journaled yet holds different state. Each detection
//      produces a DivergenceFinding with per-VIP attribution of the
//      differing memberships, ready to be embedded in a ForensicsReport.
//
// The observer keeps digests, never memberships: the fleet holds the only
// copy of every switch's applied membership and of the desired one, and
// the observer reads them through the read-only Source on cold paths only
// (config and restore feeds, divergence attribution, verify_digests(), the
// round-robin self-check).
//
// Digest scheme (the only sanctioned membership-digest implementation —
// srlint R14 bans ad-hoc hashing of membership vectors elsewhere in
// src/deploy and src/obs): each provisioned VIP contributes a presence
// token XOR the fold of its member tokens, so an empty-but-provisioned
// pool is distinguishable from an absent VIP, and member tokens are salted
// with the VIP's own key so identical DIP sets under different VIPs cannot
// cancel. All tokens come from net::mix64 over seeded net::hash_address
// endpoint hashes (fixed values, unlike the net::EndpointHash container
// hash); XOR-folding makes every digest order-independent and every
// membership change one token toggle, hashed when the change is folded.
//
// Checkability model: in-order delivery advances a switch's contiguous
// watermark W, while synchronous provisioning (add_vip on a live switch)
// applies journal positions out of band without advancing W. The observer
// tracks those out-of-band positions and extends W through any contiguous
// run W+1, W+2, … to the *effective* watermark E. The digest comparison is
// performed only when the out-of-band set has no member beyond E (the
// switch's state then equals the desired state at exactly position E) and
// the switch is live and not mid-resync. Everything else — down, restoring,
// resyncing, or gapped — is reported as unverifiable-at-the-moment rather
// than checked against the wrong reference.
//
// Hot-path cost model (the <5% bench budget, DESIGN.md §17): the four
// update-heavy feeds — journal append, in-order delivery, member toggle,
// watermark advance — append one FeedEvent carrying (vip, dip, changed) to
// a simulation-thread-only feed journal and return: no lock, no hashing.
// Every `kDrainEvery` events one batched drain replays the journal in feed
// order with the recorded timestamps under the mutex, bit-identical to a
// synchronous fold; only detection latency grows, by at most `kDrainEvery`
// feed events. Cold feeds and every simulation-thread query drain first.
//
// Reading the Source: it is live state, so while the feed journal holds
// events it is ahead of the digests. The observer reads it only with the
// journal empty and every fleet mutation reported: cold feeds drain first,
// and a round-robin self-check that falls due inside a replay runs only
// after the feed that triggered the drain has been applied. Attribution
// of a divergence found mid-drain reads live state, which the
// approximate-until-quiescence contract of DivergenceFinding::deltas
// already allows.
//
// Concurrency (DESIGN.md §13): the observer is fed and queried from the
// simulation thread; the scrape thread pulls the bound metric callbacks
// and renders to_text()/to_json(). The digests live behind the observer's
// sr::Mutex; the feed journal belongs to the simulation thread alone. The
// scrape surface renders the last drained fold, so it is at most
// `kDrainEvery` feed events stale, and never calls the Source. Lock order
// is the observer's mutex, then the fleet's: the Source takes the fleet's
// lock under the observer's, so the fleet calls a feed only after
// releasing its own. The divergence callback runs after the mutex is
// released, only from simulation-thread entry points; findings detected
// in a drain triggered elsewhere wait for the next such entry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "check/thread_annotations.h"
#include "net/endpoint.h"
#include "net/hash.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace silkroad::obs {

/// The sanctioned per-VIP membership digest (srlint R14). Stateless token
/// algebra; FleetObserver composes these into switch- and fleet-level
/// digests by XOR-fold.
struct VipDigest {
  /// Salted key for the VIP itself; feeds both tokens below.
  static std::uint64_t vip_key(const net::Endpoint& vip);
  /// Token contributed by the VIP existing at all (empty pool ≠ absent VIP).
  static std::uint64_t presence_token(const net::Endpoint& vip);
  /// Token contributed by `dip` being a member of `vip`'s pool. Salted with
  /// the VIP key so equal DIP sets under different VIPs cannot cancel.
  static std::uint64_t member_token(const net::Endpoint& vip,
                                    const net::Endpoint& dip);
  /// From-scratch digest of one VIP's pool: presence XOR member fold, with
  /// the VIP key computed once. A repeated DIP toggles its token twice.
  static std::uint64_t of(const net::Endpoint& vip,
                          std::span<const net::Endpoint> dips);
};

/// One detected silent divergence: switch `switch_index`'s applied mirror
/// digest disagreed with the controller's desired-state digest at the same
/// effective journal position.
struct DivergenceFinding {
  struct VipDelta {
    net::Endpoint vip;
    /// In desired-now but not in the switch mirror (sorted by to_string).
    std::vector<net::Endpoint> missing;
    /// In the switch mirror but not in desired-now (sorted by to_string).
    std::vector<net::Endpoint> extra;
    /// True when only this VIP's provisioning differs (present on exactly
    /// one side with equal member sets).
    bool presence_only = false;
  };
  struct SessionRecord {
    std::uint64_t session_id = 0;  ///< Resync span id (0 = none yet minted).
    int kind = 0;                  ///< FleetObserver::ResyncKind value.
    sim::Time began = 0;
    sim::Time ended = 0;  ///< 0 while still open.
  };

  std::size_t switch_index = 0;
  /// Effective watermark the mismatch was observed at.
  std::uint64_t position = 0;
  std::uint64_t expected_digest = 0;  ///< Desired-state digest at `position`.
  std::uint64_t actual_digest = 0;    ///< The switch mirror's digest.
  sim::Time at = 0;
  /// Attribution against the *current* desired state: exact at quiescence,
  /// approximate while updates past `position` are still in flight (§17).
  std::vector<VipDelta> deltas;
  /// Recent resync sessions on this switch (newest last) — the usual
  /// suspects when an apply path corrupted the mirror.
  std::vector<SessionRecord> sessions;

  std::string to_text() const;
  std::string to_json() const;
};

class FleetObserver {
 public:
  /// Hysteresis: a switch becomes "lagging" above `kLagEnter` positions
  /// and stops lagging at or below `kLagExit`.
  static constexpr std::uint64_t kLagEnter = 64;
  static constexpr std::uint64_t kLagExit = 16;
  static_assert(kLagExit <= kLagEnter,
                "SLO hysteresis requires kLagExit <= kLagEnter");
  /// SLO: fraction of live switches that must not be lagging.
  static constexpr double kSloTarget = 0.99;
  /// Desired-digest history retained, in journal positions; a switch whose
  /// effective watermark fell off the ring is unverifiable until it
  /// catches up.
  static constexpr std::size_t kDigestHistory = 4096;
  /// Full-recompute digest self-check cadence, in feed events.
  static constexpr std::size_t kSelfcheckEvery = 1024;
  /// Lag/SLO re-evaluation cadence, in feed events. Divergence checks run
  /// alongside every evaluation; explicit evaluate() and switch-lifecycle
  /// edges always re-evaluate.
  static constexpr std::size_t kEvalEvery = 64;
  /// Feed-journal drain threshold, in buffered hot-path feed events: it
  /// bounds detection latency and scrape staleness (cost model above).
  static constexpr std::size_t kDrainEvery = 256;
  /// Resync-session records retained per switch for forensics.
  static constexpr std::size_t kSessionHistory = 16;
  static_assert(kDigestHistory > 0 && kSelfcheckEvery > 0 && kEvalEvery > 0 &&
                    kDrainEvery > 0,
                "the history ring and the cadence countdowns need sizes > 0");

  enum class ResyncKind { kEmpty = 0, kDelta = 1, kFull = 2 };
  enum class SwitchState { kLive = 0, kDown = 1, kRestoring = 2,
                           kResyncing = 3 };

  /// Read-only view of the memberships the digests summarize, implemented
  /// by the fleet that holds them (never deleted through this base). Called
  /// under the observer's mutex, only with the feed journal empty (see
  /// "Reading the Source" above).
  class Source {
   public:
    /// Switch `sw`'s applied membership: VIPs in provisioning order, DIPs
    /// sorted.
    virtual std::vector<net::VipMembers> applied(std::size_t sw) const = 0;
    /// The controller's desired membership, VIPs in provisioning order. A
    /// DIP list may repeat a DIP; the observer counts it once.
    virtual std::vector<net::VipMembers> desired() const = 0;
  };

  using DivergenceCallback = std::function<void(const DivergenceFinding&)>;

  /// `source` must outlive the observer.
  FleetObserver(std::size_t switches, const Source& source);

  // --- Feed: controller journal appends --------------------------------------

  /// A VipConfig was journaled at `pos`; the desired digest is recomputed
  /// from the Source.
  void on_append_config(std::uint64_t pos, sim::Time now);
  /// A DipUpdate was journaled at `pos`. `changed` is false when it left
  /// the desired membership as it was (adding a member, removing a
  /// non-member). Hot path: deferred via the feed journal.
  void on_append_update(std::uint64_t pos, sim::Time now,
                        const net::Endpoint& vip, const net::Endpoint& dip,
                        bool changed) {
    enqueue({FeedEvent::Kind::kAppendUpdate, changed, 0, pos, now, vip, dip});
  }

  // --- Feed: per-switch applied membership -----------------------------------

  /// One VIP of switch `sw` was (re)configured wholesale; the switch digest
  /// is recomputed from the Source. `pos` != 0 marks a synchronous
  /// out-of-band provisioning at that journal position (does not advance
  /// the contiguous watermark); 0 means a resync replay or restore preload
  /// whose position lands via on_watermark.
  void on_mirror_config(std::size_t sw, std::uint64_t pos, sim::Time now);
  /// One member of switch `sw` toggled out of band (resync replay, fault
  /// injection); `changed` is false when the toggle was a no-op. Hot path:
  /// deferred via the feed journal.
  void on_mirror_update(std::size_t sw, const net::Endpoint& vip,
                        const net::Endpoint& dip, bool changed,
                        sim::Time now) {
    enqueue({FeedEvent::Kind::kMirrorUpdate, changed,
             static_cast<std::uint32_t>(sw), 0, now, vip, dip});
  }
  /// Switch `sw` applied journal position `pos` in order: the member
  /// toggle and the watermark advance as one feed event. A duplicate the
  /// switch had already applied (`changed` false) only confirms the
  /// position. Hot path: deferred via the feed journal.
  void on_delivery(std::size_t sw, const net::Endpoint& vip,
                   const net::Endpoint& dip, bool changed, std::uint64_t pos,
                   sim::Time now) {
    if (!changed) {
      on_watermark(sw, pos, now);
      return;
    }
    enqueue({FeedEvent::Kind::kDelivery, true, static_cast<std::uint32_t>(sw),
             pos, now, vip, dip});
  }
  /// Switch `sw` confirmed the in-order stream (or a chunk boundary)
  /// through `watermark`. Hot path: deferred via the feed journal.
  void on_watermark(std::size_t sw, std::uint64_t watermark, sim::Time now) {
    enqueue({FeedEvent::Kind::kWatermark, false,
             static_cast<std::uint32_t>(sw), watermark, now, net::Endpoint{},
             net::Endpoint{}});
  }

  // --- Feed: switch / resync-session lifecycle --------------------------------

  void on_switch_down(std::size_t sw, sim::Time now);
  /// Restore began: the switch's applied membership was cleared (digest
  /// recomputed from the Source) and its contiguous watermark rewound to
  /// the snapshot's. One on_mirror_config(pos=0) per snapshot VIP follows.
  void on_restore_begin(std::size_t sw, std::uint64_t snapshot_watermark,
                        sim::Time now);
  /// A resync session opened on `sw`'s channel (the window-wipe edge, fed
  /// from fault::ControlChannel's session hook). Suspends divergence checks.
  void on_session_open(std::size_t sw, std::uint64_t session_id,
                       sim::Time now);
  /// The controller chose the session's escalation rung.
  void on_resync_begin(std::size_t sw, std::uint64_t session_id,
                       ResyncKind kind, sim::Time now);
  /// The session's final chunk landed; the switch is checkable again.
  void on_resync_end(std::size_t sw, std::uint64_t session_id, sim::Time now);

  // --- Evaluation -------------------------------------------------------------

  /// Drains the feed journal, recomputes per-switch lags, updates the SLO
  /// hysteresis + burn, records the fleet lag histogram, and runs the
  /// digest comparison on every checkable switch. Call it at quiescence
  /// before asserting.
  void evaluate(sim::Time now);

  /// Checks every incremental digest (all switches + desired) against a
  /// recompute from the Source; false (and a counted failure) on any
  /// mismatch. A round-robin slice runs every `kSelfcheckEvery` feeds.
  bool verify_digests();

  // --- Introspection ----------------------------------------------------------
  // Queries drain the feed journal first, so they always observe every feed
  // delivered so far (and are therefore non-const).

  std::size_t switches() const noexcept { return switch_count_; }
  std::uint64_t head();
  std::uint64_t watermark(std::size_t sw);
  /// Contiguous watermark extended through out-of-band applied positions.
  std::uint64_t effective_watermark(std::size_t sw);
  std::uint64_t lag_positions(std::size_t sw);
  sim::Time lag_age(std::size_t sw);
  SwitchState state(std::size_t sw);
  std::uint64_t desired_digest();
  std::uint64_t switch_digest(std::size_t sw);

  bool slo_ok();
  std::uint64_t slo_transitions();
  sim::Time slo_burn_ns();
  std::uint64_t divergences();
  std::vector<DivergenceFinding> findings();
  std::uint64_t selfchecks();
  std::uint64_t selfcheck_failures();
  std::uint64_t unverifiable_checks();

  void set_divergence_callback(DivergenceCallback cb);

  /// Registers the observer's pull metrics (lag gauges per switch, SLO
  /// state/burn/transitions, divergence + self-check counters) and the
  /// fleet lag histogram on `registry`.
  void bind_metrics(MetricsRegistry& registry);

  /// /fleet scrape body: lag distribution, per-switch table, SLO, alarms.
  std::string to_text();
  /// /fleet.json scrape body (machine-readable mirror of to_text()).
  std::string to_json();

 private:
  /// One deferred hot-path feed (see the cost model above): the four
  /// update-heavy feeds buffer one of these and return; replay_locked()
  /// applies them in order with their recorded timestamps.
  struct FeedEvent {
    enum class Kind : std::uint8_t {
      kAppendUpdate = 0,
      kMirrorUpdate = 1,
      kDelivery = 2,
      kWatermark = 3,
    };
    Kind kind;
    bool changed;       ///< Membership changed: toggle the member token.
    std::uint32_t sw;   ///< Unused for kAppendUpdate.
    std::uint64_t pos;  ///< Journal position (kWatermark: the watermark).
    sim::Time at;
    net::Endpoint vip;  ///< Unused for kWatermark.
    net::Endpoint dip;  ///< Unused for kWatermark.
  };
  struct SwitchCell {
    SwitchState state = SwitchState::kLive;
    std::uint64_t watermark = 0;      ///< Contiguous, from on_watermark.
    std::set<std::uint64_t> oob;      ///< Out-of-band applied positions > W.
    std::uint64_t digest = 0;         ///< XOR-fold of its VIP digests.
    std::uint64_t active_session = 0;
    std::deque<DivergenceFinding::SessionRecord> sessions;
    /// Dedup latch: one finding per divergence episode; re-arms when the
    /// digests agree again at a checkable position.
    bool divergent = false;
    bool lagging = false;             ///< SLO hysteresis state.
    // Cached by evaluate() for the pull gauges.
    std::uint64_t cached_lag = 0;
    sim::Time cached_age = 0;
  };
  struct HistoryEntry {
    std::uint64_t digest_after = 0;
    sim::Time appended_at = 0;
  };

  /// The hot-path append: one sequential store and a threshold test, no
  /// lock (pending_ is simulation-thread-only). Inline so a buffered feed
  /// costs no out-of-line call.
  void enqueue(const FeedEvent& ev) {
    pending_.push_back(ev);
    if (pending_.size() >= kDrainEvery) drain();
  }
  /// Applies and clears the buffered feed events, in order with their
  /// recorded timestamps. Simulation thread only (it consumes pending_).
  void replay_locked() SR_REQUIRES(mu_);
  /// The tail of every entry point, once the fleet's state and the digests
  /// agree again: runs the self-checks that fell due and hands back the
  /// findings to deliver.
  std::vector<DivergenceFinding> settle_locked() SR_REQUIRES(mu_);
  /// Locks, replays, settles, and delivers findings — the hot-path drain
  /// and the getter prologue.
  void drain() SR_EXCLUDES(mu_);

  void drain_oob_locked(SwitchCell& cell) SR_REQUIRES(mu_);
  std::uint64_t effective_locked(const SwitchCell& cell) const
      SR_REQUIRES(mu_);
  /// True when `cell`'s applied membership must equal desired state at
  /// exactly effective_locked(cell).
  bool checkable_locked(const SwitchCell& cell) const SR_REQUIRES(mu_);
  /// Desired digest at `pos` from the history ring; false when compacted
  /// out of the retained window.
  bool digest_at_locked(std::uint64_t pos, std::uint64_t* digest) const
      SR_REQUIRES(mu_);
  void append_history_locked(sim::Time now) SR_REQUIRES(mu_);
  /// Ring entry at offset `off` (< history_size_) from the oldest retained.
  const HistoryEntry& history_entry_locked(std::size_t off) const
      SR_REQUIRES(mu_);
  /// Runs the digest comparison for switch `sw` if checkable; fills
  /// `finding` and returns true on a fresh mismatch.
  bool check_switch_locked(std::size_t sw, sim::Time now,
                           DivergenceFinding* finding) SR_REQUIRES(mu_);
  void attribute_locked(std::size_t sw, DivergenceFinding* finding) const
      SR_REQUIRES(mu_);
  void evaluate_locked(sim::Time now) SR_REQUIRES(mu_);
  /// Shared tail of every replayed/synchronous feed: self-check cadence +
  /// evaluation + divergence checks (into unfired_). `touched` bounds the
  /// digest comparison to the switch the feed mutated (kAll for explicit
  /// evaluate(), kNone for pure journal appends, which cannot change any
  /// switch's checkable digest).
  static constexpr std::size_t kAllSwitches = static_cast<std::size_t>(-1);
  static constexpr std::size_t kNoSwitch = static_cast<std::size_t>(-2);
  void tick_locked(sim::Time now, std::size_t touched) SR_REQUIRES(mu_);
  /// Counts one feed toward the round-robin self-check; when the countdown
  /// expires the check falls due and settle_locked() runs it.
  void count_selfcheck_locked() SR_REQUIRES(mu_);
  /// Decrements the evaluation countdown; true when it expired (reloads).
  bool eval_due_locked() SR_REQUIRES(mu_);
  /// Digest comparisons for the switches selected by `touched`; fresh
  /// findings land in unfired_.
  void check_switches_locked(sim::Time now, std::size_t touched)
      SR_REQUIRES(mu_);
  void fire(std::vector<DivergenceFinding> findings);

  /// Lag distribution over the non-down switches, from the cached lags
  /// (order statistics, not the bound histogram, so rendering needs no
  /// registry). Shared by to_text() and to_json().
  struct LagSummary {
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t max = 0;
    std::size_t live = 0;
    std::size_t lagging = 0;
  };
  LagSummary lag_summary_locked() const SR_REQUIRES(mu_);

  const std::size_t switch_count_;

  // Hot field first: a buffered feed touches only pending_, so the fast
  // path faults at most one line of the object plus the sequential event
  // store.
  /// Feed journal. Simulation-thread-only (deliberately NOT guarded by
  /// mu_): written by the inline feeds without a lock, consumed by
  /// replay_locked() from simulation-thread entry points. The scrape thread
  /// never touches it — to_text()/to_json()/bound metrics render the last
  /// drained fold instead.
  std::vector<FeedEvent> pending_;
  mutable sr::Mutex mu_;
  /// The fleet's memberships (read on cold paths only, under mu_).
  const Source& source_;
  /// Findings detected under the lock and not yet delivered: fired by the
  /// next feed-path/evaluate entry point (never by queries — DESIGN.md §13
  /// keeps the divergence callback on the simulation thread).
  std::vector<DivergenceFinding> unfired_ SR_GUARDED_BY(mu_);

  std::vector<SwitchCell> cells_ SR_GUARDED_BY(mu_);
  std::uint64_t desired_digest_ SR_GUARDED_BY(mu_) = 0;
  std::uint64_t head_ SR_GUARDED_BY(mu_) = 0;
  /// Digest history ring (fixed flat storage — no per-append allocation or
  /// deque node churn): the entry for journal position p, for p in
  /// [history_base_, history_base_ + history_size_), lives at ring offset
  /// p - history_base_ from history_start_.
  std::uint64_t history_base_ SR_GUARDED_BY(mu_) = 1;
  std::vector<HistoryEntry> history_ SR_GUARDED_BY(mu_);
  std::size_t history_start_ SR_GUARDED_BY(mu_) = 0;
  std::size_t history_size_ SR_GUARDED_BY(mu_) = 0;

  // SLO.
  bool slo_ok_ SR_GUARDED_BY(mu_) = true;
  std::uint64_t slo_transitions_ SR_GUARDED_BY(mu_) = 0;
  sim::Time slo_burn_ns_ SR_GUARDED_BY(mu_) = 0;
  sim::Time last_eval_ SR_GUARDED_BY(mu_) = 0;
  double lagging_fraction_ SR_GUARDED_BY(mu_) = 0.0;

  // Divergence + self-check accounting.
  std::vector<DivergenceFinding> findings_ SR_GUARDED_BY(mu_);
  std::uint64_t divergences_ SR_GUARDED_BY(mu_) = 0;
  std::uint64_t selfchecks_ SR_GUARDED_BY(mu_) = 0;
  std::uint64_t selfcheck_failures_ SR_GUARDED_BY(mu_) = 0;
  std::uint64_t unverifiable_ SR_GUARDED_BY(mu_) = 0;
  /// Cadence countdowns (reloaded from the constants): a decrement-and-test per
  /// feed instead of two 64-bit modulo ops on the replay path.
  std::size_t selfcheck_countdown_ SR_GUARDED_BY(mu_) = 0;
  std::size_t eval_countdown_ SR_GUARDED_BY(mu_) = 0;
  std::size_t selfcheck_cursor_ SR_GUARDED_BY(mu_) = 0;
  /// Round-robin self-checks fallen due and not yet run (settle_locked).
  std::size_t selfchecks_due_ SR_GUARDED_BY(mu_) = 0;

  Histogram* h_lag_ = nullptr;  ///< Bound fleet lag histogram (positions).
  DivergenceCallback divergence_cb_;
};

}  // namespace silkroad::obs
