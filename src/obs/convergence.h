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
// One writer thread (DESIGN.md §13): the simulation thread owns the fold
// (the digests, watermarks, out-of-band sets, resync-session records,
// findings, history ring and counters). It feeds the observer, reads it
// through the getters and renderers, and is the only caller of the Source.
// Every feed folds synchronously; the fleet changes its state before it
// feeds the change, so the Source agrees with the digests after every feed
// and the round-robin self-check runs in the feed where its countdown
// expires. The divergence callback fires from the feed that found the
// divergence. A scrape server serves the renderings its publish() took on
// the simulation thread.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

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
  /// Resync-session records retained per switch for forensics.
  static constexpr std::size_t kSessionHistory = 16;
  static_assert(kDigestHistory > 0 && kSelfcheckEvery > 0 && kEvalEvery > 0,
                "the history ring and the cadence countdowns need sizes > 0");

  enum class ResyncKind { kEmpty = 0, kDelta = 1, kFull = 2 };
  enum class SwitchState { kLive = 0, kDown = 1, kRestoring = 2,
                           kResyncing = 3 };

  /// Read-only view of the memberships the digests summarize, implemented
  /// by the fleet that holds them (never deleted through this base). Called
  /// from the feeds and verify_digests().
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
  /// from the Source. Every append is fed and journal positions are dense
  /// from 1, so `pos` is the head plus one (an SR_CHECK in every build).
  void on_append_config(std::uint64_t pos, sim::Time now);
  /// A DipUpdate was journaled at `pos`. `changed` is false when it left
  /// the desired membership as it was (adding a member, removing a
  /// non-member). Hot path.
  void on_append_update(std::uint64_t pos, sim::Time now,
                        const net::Endpoint& vip, const net::Endpoint& dip,
                        bool changed);

  // --- Feed: per-switch applied membership -----------------------------------

  /// One VIP of switch `sw` was (re)configured wholesale; the switch digest
  /// is recomputed from the Source. `pos` != 0 marks a synchronous
  /// out-of-band provisioning at that journal position (does not advance
  /// the contiguous watermark); 0 means a resync replay or restore preload
  /// whose position lands via on_watermark.
  void on_mirror_config(std::size_t sw, std::uint64_t pos, sim::Time now);
  /// One member of switch `sw` toggled out of band (resync replay, fault
  /// injection); `changed` is false when the toggle was a no-op. Hot path.
  void on_mirror_update(std::size_t sw, const net::Endpoint& vip,
                        const net::Endpoint& dip, bool changed,
                        sim::Time now);
  /// Switch `sw` applied journal position `pos` in order: the member
  /// toggle and the watermark advance as one feed. A duplicate the switch
  /// had already applied (`changed` false) only confirms the position. Hot
  /// path.
  void on_delivery(std::size_t sw, const net::Endpoint& vip,
                   const net::Endpoint& dip, bool changed, std::uint64_t pos,
                   sim::Time now);
  /// Switch `sw` confirmed the in-order stream (or a chunk boundary)
  /// through `watermark`. Hot path.
  void on_watermark(std::size_t sw, std::uint64_t watermark, sim::Time now);

  // --- Feed: switch / resync-session lifecycle --------------------------------

  void on_switch_down(std::size_t sw, sim::Time now);
  /// Restore began: the switch's applied membership was cleared (digest
  /// recomputed from the Source) and its contiguous watermark rewound to
  /// the snapshot's. One on_mirror_config(pos=0) per snapshot VIP follows.
  void on_restore_begin(std::size_t sw, std::uint64_t snapshot_watermark,
                        sim::Time now);
  /// A resync session opened on `sw`'s channel at escalation rung `kind`,
  /// fed by the controller before it sends the first chunk. Suspends
  /// divergence checks and records the session.
  void on_resync_begin(std::size_t sw, std::uint64_t session_id,
                       ResyncKind kind, sim::Time now);
  /// The session's final chunk landed; the switch is checkable again.
  void on_resync_end(std::size_t sw, std::uint64_t session_id, sim::Time now);

  // --- Evaluation -------------------------------------------------------------

  /// Recomputes per-switch lags, updates the SLO hysteresis + burn, records
  /// the fleet lag histogram, and runs the digest comparison on every
  /// checkable switch. Call it at quiescence before asserting.
  void evaluate(sim::Time now);

  /// Checks every incremental digest (all switches + desired) against a
  /// recompute from the Source; false (and a counted failure) on any
  /// mismatch. A round-robin slice runs every `kSelfcheckEvery` feeds.
  bool verify_digests();

  // --- Introspection ----------------------------------------------------------
  // The getters read the fold, which already holds every feed delivered so
  // far. Lags and the SLO date from the last evaluation.

  std::size_t switches() const noexcept { return cells_.size(); }
  std::uint64_t head() const { return totals_.head; }
  std::uint64_t watermark(std::size_t sw) const {
    return cells_.at(sw).watermark;
  }
  /// Contiguous watermark extended through out-of-band applied positions.
  std::uint64_t effective_watermark(std::size_t sw) const {
    return effective(cells_.at(sw));
  }
  std::uint64_t lag_positions(std::size_t sw) const {
    return cells_.at(sw).lag;
  }
  sim::Time lag_age(std::size_t sw) const { return cells_.at(sw).age; }
  SwitchState state(std::size_t sw) const { return cells_.at(sw).state; }
  std::uint64_t desired_digest() const { return totals_.desired_digest; }
  std::uint64_t switch_digest(std::size_t sw) const {
    return cells_.at(sw).digest;
  }

  bool slo_ok() const { return totals_.slo_ok; }
  std::uint64_t slo_transitions() const { return totals_.slo_transitions; }
  sim::Time slo_burn_ns() const { return totals_.slo_burn_ns; }
  std::uint64_t divergences() const { return findings_.size(); }
  const std::vector<DivergenceFinding>& findings() const { return findings_; }
  std::uint64_t selfchecks() const { return totals_.selfchecks; }
  std::uint64_t selfcheck_failures() const {
    return totals_.selfcheck_failures;
  }
  std::uint64_t unverifiable_checks() const { return totals_.unverifiable; }

  void set_divergence_callback(DivergenceCallback cb);

  /// Registers the observer's pull metrics (lag gauges per switch, SLO
  /// state/burn/transitions, divergence + self-check counters) and the
  /// fleet lag histogram on `registry`. They read the fold.
  void bind_metrics(MetricsRegistry& registry);

  /// /fleet scrape body: lag distribution, per-switch table, SLO, alarms.
  std::string to_text() const;
  /// /fleet.json scrape body (machine-readable mirror of to_text()).
  std::string to_json() const;

 private:
  /// One switch's slice of the fold.
  struct SwitchCell {
    SwitchState state = SwitchState::kLive;
    std::uint64_t watermark = 0;  ///< Contiguous, from on_watermark.
    std::uint64_t digest = 0;     ///< XOR-fold of its VIP digests.
    /// Dedup latch: one finding per divergence episode; re-arms when the
    /// digests agree again at a checkable position.
    bool divergent = false;
    bool lagging = false;  ///< SLO hysteresis state.
    // Cached by the last evaluation.
    std::uint64_t lag = 0;
    sim::Time age = 0;
    std::set<std::uint64_t> oob;  ///< Out-of-band applied positions > W.
    std::uint64_t active_session = 0;
    /// Recent resync sessions, newest last.
    std::deque<DivergenceFinding::SessionRecord> sessions;
  };
  /// The fold's scalars.
  struct Totals {
    std::uint64_t head = 0;
    std::uint64_t desired_digest = 0;
    bool slo_ok = true;
    std::uint64_t slo_transitions = 0;
    sim::Time slo_burn_ns = 0;
    double lagging_fraction = 0.0;
    std::uint64_t selfchecks = 0;
    std::uint64_t selfcheck_failures = 0;
    std::uint64_t unverifiable = 0;
  };
  struct HistoryEntry {
    std::uint64_t digest_after = 0;
    sim::Time appended_at = 0;
  };

  /// Drops the out-of-band positions the watermark has reached.
  void prune_oob(SwitchCell& cell);
  std::uint64_t effective(const SwitchCell& cell) const;
  /// True when `cell`'s applied membership must equal desired state at
  /// exactly effective(cell).
  bool checkable(const SwitchCell& cell) const;
  /// Oldest journal position whose desired digest the history retains.
  std::uint64_t oldest_retained() const;
  /// Desired digest at `pos` (0: the empty state before the first append);
  /// false when `pos` is past the head or scrolled out of the history.
  bool digest_at(std::uint64_t pos, std::uint64_t* digest) const;
  /// Advances the head to `pos` and records the desired digest for it.
  void append_history(std::uint64_t pos, sim::Time now);
  /// Runs the digest comparison for switch `sw` if checkable; a fresh
  /// mismatch is attributed, recorded and handed to the callback.
  void check_switch(std::size_t sw, sim::Time now);
  void check_all(sim::Time now);
  void attribute(std::size_t sw, DivergenceFinding* finding) const;
  /// Lags and the SLO.
  void evaluate_lags(sim::Time now);
  /// Shared tail of every feed: counts the feed toward the round-robin
  /// self-check (run when its countdown expires) and toward the lag/SLO
  /// evaluation; true when the evaluation ran. The feed then checks the
  /// switch it mutated, or every switch after an evaluation; a journal
  /// append changes no switch's checkable digest and checks none.
  bool tick(sim::Time now);

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
  LagSummary lag_summary() const;

  /// The fleet's memberships: read by cold feeds, attribution and the
  /// self-checks.
  const Source& source_;
  std::vector<SwitchCell> cells_;
  Totals totals_;
  std::vector<DivergenceFinding> findings_;
  /// Digest history ring, indexed by journal position: the entry for
  /// position p in [oldest_retained(), head] lives at p % kDigestHistory.
  std::vector<HistoryEntry> history_;
  sim::Time last_eval_ = 0;
  /// Cadence countdowns (reloaded from the constants): a decrement-and-test
  /// per feed instead of two 64-bit modulo ops.
  std::size_t selfcheck_countdown_ = kSelfcheckEvery;
  std::size_t eval_countdown_ = kEvalEvery;
  std::size_t selfcheck_cursor_ = 0;
  Histogram* h_lag_ = nullptr;  ///< Bound fleet lag histogram (positions).
  DivergenceCallback divergence_cb_;
};

}  // namespace silkroad::obs
