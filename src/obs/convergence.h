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
//      digest of each switch's applied VIP→DIP mirror, maintained
//      incrementally (XOR-fold of per-VIP digests, O(changed VIPs) per
//      mutation, with a periodic full-recompute self-check), compared
//      against the controller's desired-state digest *at the switch's
//      effective watermark*. A digest mismatch at an equal position is
//      silent divergence: the replica confirmed the same history the
//      controller journaled yet holds different state. Each detection
//      produces a DivergenceFinding with per-VIP attribution of the
//      differing memberships, ready to be embedded in a ForensicsReport.
//
// Digest scheme (the only sanctioned membership-digest implementation —
// srlint R14 bans ad-hoc hashing of membership vectors elsewhere in
// src/deploy and src/obs): each provisioned VIP contributes a presence
// token XOR the fold of its member tokens, so an empty-but-provisioned
// pool is distinguishable from an absent VIP, and member tokens are salted
// with the VIP's own key so identical DIP sets under different VIPs cannot
// cancel. All tokens come from net::mix64 over seeded net::hash_bytes
// endpoint hashes (fixed values, unlike the net::EndpointHash container
// hash); XOR-folding makes every digest order-independent and every
// mutation an O(1) toggle.
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
// Hot-path cost model (the <5% bench budget): the four update-heavy feeds
// — journal append, in-order delivery, mirror toggle, watermark advance —
// do not fold state synchronously. Each appends one compact FeedEvent to a
// feed journal and returns; the journal is simulation-thread-only, so the
// buffered fast path is a plain sequential store and a threshold test —
// no lock, no hashing, no fold. Once the buffer reaches `kDrainEvery`
// events the fold replays it in one batched drain under the mutex, which
// keeps the observer's working set cache-resident instead of re-faulting
// it on every feed between the fleet's own work. Replay applies events in
// feed order with their recorded timestamps, so the result is
// bit-identical to the synchronous fold; the only observable difference is
// detection latency, bounded by `kDrainEvery` feed events. Configuration,
// lifecycle, and resync-session feeds drain first and then apply
// synchronously (they are rare and order-sensitive); every
// simulation-thread query — evaluate(), verify_digests(), the getters —
// also drains first, so nothing read on the feeding thread is ever stale.
//
// Concurrency (DESIGN.md §13): the observer is fed and queried from the
// simulation thread; the scrape thread pulls the bound metric callbacks
// and renders to_text()/to_json(). The folded state lives behind the
// observer's sr::Mutex; the feed journal does not — it belongs to the
// simulation thread alone, which is what makes the buffered feed lock-free.
// The scrape surface therefore renders the last drained fold rather than
// draining itself: its staleness is bounded by `kDrainEvery` feed events,
// the same bound the detection latency already carries. The divergence
// callback is invoked after the mutex is released, and only from
// simulation-thread entry points (feeds, evaluate(), verify_digests(),
// getters) — findings detected during a drain triggered elsewhere are
// queued and delivered at the next such entry. The observer never calls
// back into the fleet while holding mu_.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
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
  /// From-scratch digest of one VIP's pool: presence XOR member fold.
  template <typename Container>
  static std::uint64_t of(const net::Endpoint& vip, const Container& dips) {
    std::uint64_t digest = presence_token(vip);
    for (const auto& dip : dips) digest ^= member_token(vip, dip);
    return digest;
  }
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
  /// Feed-journal drain threshold, in buffered hot-path feed events (see
  /// the cost model above). Detection latency for a delivery-path
  /// divergence is bounded by this many feed events; simulation-thread
  /// queries always drain first, while the scrape surface renders the last
  /// drained fold (staleness bounded by the same threshold).
  static constexpr std::size_t kDrainEvery = 256;
  /// Resync-session records retained per switch for forensics.
  static constexpr std::size_t kSessionHistory = 16;
  static_assert(kDigestHistory > 0 && kSelfcheckEvery > 0 && kEvalEvery > 0 &&
                    kDrainEvery > 0,
                "the history ring and the cadence countdowns need sizes > 0");

  enum class ResyncKind { kEmpty = 0, kDelta = 1, kFull = 2 };
  enum class SwitchState { kLive = 0, kDown = 1, kRestoring = 2,
                           kResyncing = 3 };

  using DivergenceCallback = std::function<void(const DivergenceFinding&)>;

  explicit FleetObserver(std::size_t switches);

  // --- Feed: controller journal appends --------------------------------------

  /// A VipConfig was journaled at `pos` (desired state now provisions `vip`
  /// with exactly `dips`).
  void on_append_config(std::uint64_t pos, sim::Time now,
                        const net::Endpoint& vip,
                        const std::vector<net::Endpoint>& dips);
  /// A DipUpdate was journaled at `pos`. Hot path: deferred via the feed
  /// journal.
  void on_append_update(std::uint64_t pos, sim::Time now,
                        const net::Endpoint& vip, const net::Endpoint& dip,
                        bool add) {
    enqueue({FeedEvent::Kind::kAppendUpdate, add, 0, pos, now, vip, dip});
  }

  // --- Feed: per-switch mirror mutations --------------------------------------

  /// Switch `sw`'s applied mirror now holds exactly `dips` for `vip`.
  /// `pos` != 0 marks a synchronous out-of-band provisioning at that journal
  /// position (does not advance the contiguous watermark); 0 means a resync
  /// replay or restore preload whose position lands via on_watermark.
  void on_mirror_config(std::size_t sw, const net::Endpoint& vip,
                        const std::vector<net::Endpoint>& dips,
                        std::uint64_t pos, sim::Time now);
  /// One member toggled in switch `sw`'s mirror. `pos` != 0 for in-order
  /// journaled deliveries; 0 for resync replays and fault injection. Hot
  /// path: deferred via the feed journal.
  void on_mirror_update(std::size_t sw, const net::Endpoint& vip,
                        const net::Endpoint& dip, bool add, std::uint64_t pos,
                        sim::Time now) {
    enqueue({FeedEvent::Kind::kMirrorUpdate, add,
             static_cast<std::uint32_t>(sw), pos, now, vip, dip});
  }
  /// Fusion of on_mirror_update(pos) + on_watermark(pos): one journaled
  /// in-order delivery, applied and confirmed, as a single feed event.
  void on_delivery(std::size_t sw, const net::Endpoint& vip,
                   const net::Endpoint& dip, bool add, std::uint64_t pos,
                   sim::Time now) {
    enqueue({FeedEvent::Kind::kDelivery, add, static_cast<std::uint32_t>(sw),
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
  /// Restore began: mirror reset to the snapshot, contiguous watermark
  /// rewound to the snapshot's. The preloaded VIPs arrive as
  /// on_mirror_config(pos=0) calls after this.
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

  /// Full-recompute self-check of every incrementally-maintained digest
  /// (all switches + desired). Returns false (and counts a failure) on any
  /// mismatch. Also invoked round-robin every `kSelfcheckEvery` feeds.
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
  /// update-heavy feeds buffer one of these and return; drain_locked()
  /// replays them in order with their recorded timestamps.
  struct FeedEvent {
    enum class Kind : std::uint8_t {
      kAppendUpdate = 0,
      kMirrorUpdate = 1,
      kDelivery = 2,
      kWatermark = 3,
    };
    Kind kind;
    bool add;
    std::uint32_t sw;   ///< Unused for kAppendUpdate.
    std::uint64_t pos;  ///< Journal position (kWatermark: the watermark).
    sim::Time at;
    net::Endpoint vip;  ///< Unused for kWatermark.
    net::Endpoint dip;  ///< Unused for kWatermark.
  };
  /// One DIP slot in a mirror. Slots are never removed, only tombstoned
  /// (`present = false`): churn re-adds the same DIPs, so a steady-state
  /// toggle costs one probe of the mirror's open-addressed slot index, a
  /// flag flip, and an XOR of the token cached in the slot — the
  /// member-token hash is paid once per (vip, dip) at first insertion,
  /// never on the toggle path. Slots keep first-insertion order; the
  /// XOR-fold digests are order-independent and the cold paths sort what
  /// they render.
  struct Member {
    net::Endpoint dip;
    std::uint64_t token = 0;  ///< Cached VipDigest::member_token.
    bool present = false;
  };
  struct VipMirror {
    std::uint64_t key = 0;  ///< Cached VipDigest::vip_key (hot-path tokens).
    std::uint64_t digest = 0;
    /// Flat storage: pools are small (tens of DIPs), so a flat vector
    /// beats node-based sets on the feed path. Membership = entries with
    /// `present` set.
    std::vector<Member> members;
    /// Open-addressed DIP→slot index over `members` (entry = slot + 1,
    /// 0 = empty; power-of-two capacity, load kept at or below 1/2, linear
    /// probing, no deletions). A toggle probes this instead of comparing
    /// endpoints: one word-mix of the address, one load, usually one hit.
    std::vector<std::uint32_t> buckets;
  };
  /// Flat VIP table for the same reason: deployments track a handful of
  /// VIPs, and a linear scan over inline pairs beats hashing the endpoint
  /// on every feed.
  using VipTable = std::vector<std::pair<net::Endpoint, VipMirror>>;
  struct SwitchCell {
    SwitchState state = SwitchState::kLive;
    std::uint64_t watermark = 0;      ///< Contiguous, from on_watermark.
    std::set<std::uint64_t> oob;      ///< Out-of-band applied positions > W.
    std::uint64_t digest = 0;         ///< XOR-fold of vips[*].digest.
    VipTable vips;
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
    if (pending_.size() < kDrainEvery) return;
    std::vector<DivergenceFinding> fired;
    {
      const sr::MutexLock lock(mu_);
      drain_locked();
      fired = std::exchange(unfired_, {});
    }
    if (!fired.empty()) fire(std::move(fired));
  }
  /// Replays every buffered feed event in order (recorded timestamps) and
  /// clears the buffer. Simulation thread only (it consumes pending_);
  /// detected findings land in unfired_.
  void drain_locked() SR_REQUIRES(mu_);
  /// Locks, drains, and delivers pending findings — the getter prologue.
  void drain() SR_EXCLUDES(mu_);

  /// Linear lookup in a flat VIP table (nullptr when absent).
  static VipMirror* find_mirror(VipTable& table, const net::Endpoint& vip);
  static const VipMirror* find_mirror(const VipTable& table,
                                      const net::Endpoint& vip);
  /// Set-semantics membership toggle using the cached-token slots; stores
  /// the toggled member token in `*token` and reports whether membership
  /// actually changed.
  static bool toggle_cached(VipMirror& mirror, const net::Endpoint& dip,
                            bool add, std::uint64_t* token);
  /// (Re)builds `mirror.buckets` over all current slots (insertion path).
  static void rebuild_index(VipMirror& mirror);
  /// Declarative reset of a mirror's membership (config / snapshot paths).
  static void assign_members(VipMirror& mirror,
                             const std::vector<net::Endpoint>& dips);
  /// The present DIPs of a mirror (cold paths: recompute, attribution).
  static std::vector<net::Endpoint> present_members(const VipMirror& mirror);
  /// Shared mirror mutation of the delivery/mirror-update replay: toggles
  /// `dip` in `cell`'s mirror for `vip`, maintaining both digests
  /// incrementally.
  void toggle_member_locked(SwitchCell& cell, const net::Endpoint& vip,
                            const net::Endpoint& dip, bool add)
      SR_REQUIRES(mu_);
  void drain_oob_locked(SwitchCell& cell) SR_REQUIRES(mu_);
  std::uint64_t effective_locked(const SwitchCell& cell) const
      SR_REQUIRES(mu_);
  /// True when `cell`'s mirror must equal desired state at exactly
  /// effective_locked(cell).
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
  void attribute_locked(const SwitchCell& cell, DivergenceFinding* finding)
      const SR_REQUIRES(mu_);
  void evaluate_locked(sim::Time now) SR_REQUIRES(mu_);
  /// Shared tail of every replayed/synchronous feed: self-check cadence +
  /// evaluation + divergence checks (into unfired_). `touched` bounds the
  /// digest comparison to the switch the feed mutated (kAll for explicit
  /// evaluate(), kNone for pure journal appends, which cannot change any
  /// switch's checkable digest).
  static constexpr std::size_t kAllSwitches = static_cast<std::size_t>(-1);
  static constexpr std::size_t kNoSwitch = static_cast<std::size_t>(-2);
  void tick_locked(sim::Time now, std::size_t touched) SR_REQUIRES(mu_);
  /// Round-robin full-recompute self-check when its countdown expires.
  void maybe_selfcheck_locked() SR_REQUIRES(mu_);
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
  /// drain_locked() from simulation-thread entry points. The scrape thread
  /// never touches it — to_text()/to_json()/bound metrics render the last
  /// drained fold instead.
  std::vector<FeedEvent> pending_;
  mutable sr::Mutex mu_;
  /// Findings detected under the lock and not yet delivered: fired by the
  /// next feed-path/evaluate entry point (never by queries — DESIGN.md §13
  /// keeps the divergence callback on the simulation thread).
  std::vector<DivergenceFinding> unfired_ SR_GUARDED_BY(mu_);

  std::vector<SwitchCell> cells_ SR_GUARDED_BY(mu_);
  /// Controller desired state mirror + digest.
  VipTable desired_
      SR_GUARDED_BY(mu_);
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
  std::uint64_t feed_events_ SR_GUARDED_BY(mu_) = 0;
  /// Cadence countdowns (reloaded from the constants): a decrement-and-test per
  /// feed instead of two 64-bit modulo ops on the replay path.
  std::size_t selfcheck_countdown_ SR_GUARDED_BY(mu_) = 0;
  std::size_t eval_countdown_ SR_GUARDED_BY(mu_) = 0;
  std::size_t selfcheck_cursor_ SR_GUARDED_BY(mu_) = 0;

  Histogram* h_lag_ = nullptr;  ///< Bound fleet lag histogram (positions).
  DivergenceCallback divergence_cb_;
};

}  // namespace silkroad::obs
