#include "obs/convergence.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <map>
#include <utility>

#include "check/sr_check.h"
#include "obs/exporters.h"

namespace silkroad::obs {

namespace {

const char* state_name(FleetObserver::SwitchState s) {
  switch (s) {
    case FleetObserver::SwitchState::kLive:
      return "live";
    case FleetObserver::SwitchState::kDown:
      return "down";
    case FleetObserver::SwitchState::kRestoring:
      return "restoring";
    case FleetObserver::SwitchState::kResyncing:
      return "resyncing";
  }
  return "?";
}

const char* kind_name(int kind) {
  switch (static_cast<FleetObserver::ResyncKind>(kind)) {
    case FleetObserver::ResyncKind::kEmpty:
      return "empty";
    case FleetObserver::ResyncKind::kDelta:
      return "delta";
    case FleetObserver::ResyncKind::kFull:
      return "full";
  }
  return "?";
}

// Distinct salts keep the three token families in disjoint codomains: a
// presence token can never cancel against a member token.
constexpr std::uint64_t kVipSalt = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kPresenceSalt = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kMemberSalt = 0x165667B19E3779F9ULL;

// Every digest token starts here, so its value is part of /fleet.json and
// must stay fixed: FNV-1a over the 16 address bytes (net::hash_address,
// equal to net::hash_bytes over ip.bytes()), seeded with the port.
// net::EndpointHash is a container hash and free to change.
std::uint64_t endpoint_hash(const net::Endpoint& ep) {
  return net::hash_address(ep.ip, 0x3D9021EULL ^ ep.port);
}

std::uint64_t keyed_presence_token(std::uint64_t vip_key) {
  return net::mix64(vip_key ^ kPresenceSalt);
}

std::uint64_t keyed_member_token(std::uint64_t vip_key,
                                 const net::Endpoint& dip) {
  return net::mix64(vip_key ^ net::mix64(endpoint_hash(dip) ^ kMemberSalt));
}

// Membership is a set, but a listing may repeat a DIP (the fleet stores an
// add_vip list verbatim): sort and dedupe before folding or diffing.
std::vector<net::Endpoint>& as_set(std::vector<net::Endpoint>& dips) {
  std::sort(dips.begin(), dips.end());
  dips.erase(std::unique(dips.begin(), dips.end()), dips.end());
  return dips;
}

// XOR-fold of the VIP digests of one membership listing.
std::uint64_t fold(std::vector<net::VipMembers> vips) {
  std::uint64_t digest = 0;
  for (auto& [vip, dips] : vips) digest ^= VipDigest::of(vip, as_set(dips));
  return digest;
}

// A listing as VIP -> member set, ordered by VIP (attribution order).
std::map<net::Endpoint, std::vector<net::Endpoint>> by_vip(
    std::vector<net::VipMembers> vips) {
  std::map<net::Endpoint, std::vector<net::Endpoint>> out;
  for (auto& [vip, dips] : vips) out[vip] = std::move(as_set(dips));
  return out;
}

}  // namespace

// --- VipDigest ---------------------------------------------------------------

std::uint64_t VipDigest::vip_key(const net::Endpoint& vip) {
  return net::mix64(endpoint_hash(vip) ^ kVipSalt);
}

std::uint64_t VipDigest::presence_token(const net::Endpoint& vip) {
  return keyed_presence_token(vip_key(vip));
}

std::uint64_t VipDigest::member_token(const net::Endpoint& vip,
                                      const net::Endpoint& dip) {
  return keyed_member_token(vip_key(vip), dip);
}

std::uint64_t VipDigest::of(const net::Endpoint& vip,
                            std::span<const net::Endpoint> dips) {
  const std::uint64_t key = vip_key(vip);
  std::uint64_t digest = keyed_presence_token(key);
  for (const net::Endpoint& dip : dips) digest ^= keyed_member_token(key, dip);
  return digest;
}

// --- DivergenceFinding -------------------------------------------------------

std::string DivergenceFinding::to_text() const {
  std::string out;
  append(out,
         "=== silent divergence ===\n"
         "switch: %zu\n"
         "position: %" PRIu64 " (effective watermark; digests compared at "
         "equal history)\n"
         "expected digest: 0x%016" PRIx64 "\n"
         "actual digest:   0x%016" PRIx64 "\n"
         "detected at: %.6f s sim time\n",
         switch_index, position, expected_digest, actual_digest,
         sim::to_seconds(at));
  append(out, "per-VIP attribution (vs current desired state; exact at "
              "quiescence):\n");
  if (deltas.empty()) {
    out += "  (none — digests differ but memberships reconverged since)\n";
  }
  for (const auto& delta : deltas) {
    append(out, "  vip %s%s\n", delta.vip.to_string().c_str(),
           delta.presence_only ? " [provisioning differs]" : "");
    for (const auto& dip : delta.missing) {
      append(out, "    missing %s\n", dip.to_string().c_str());
    }
    for (const auto& dip : delta.extra) {
      append(out, "    extra   %s\n", dip.to_string().c_str());
    }
  }
  append(out, "recent resync sessions on this switch: %zu\n",
         sessions.size());
  for (const auto& s : sessions) {
    append(out, "  session#%" PRIu64 " kind=%s began=%.6fs %s\n",
           s.session_id, kind_name(s.kind), sim::to_seconds(s.began),
           s.ended == 0
               ? "(open)"
               : ("ended=" + std::to_string(sim::to_seconds(s.ended)) + "s")
                     .c_str());
  }
  return out;
}

std::string DivergenceFinding::to_json() const {
  std::string out;
  append(out,
         "{\"switch\":%zu,\"position\":%" PRIu64
         ",\"expected_digest\":\"0x%016" PRIx64
         "\",\"actual_digest\":\"0x%016" PRIx64 "\",\"at_ns\":%" PRIu64,
         switch_index, position, expected_digest, actual_digest, at);
  out += ",\"deltas\":[";
  bool first = true;
  for (const auto& delta : deltas) {
    if (!first) out += ",";
    first = false;
    append(out, "{\"vip\":\"%s\",\"presence_only\":%s,\"missing\":[",
           json_escape(delta.vip.to_string()).c_str(),
           delta.presence_only ? "true" : "false");
    for (std::size_t i = 0; i < delta.missing.size(); ++i) {
      append(out, "%s\"%s\"", i == 0 ? "" : ",",
             json_escape(delta.missing[i].to_string()).c_str());
    }
    out += "],\"extra\":[";
    for (std::size_t i = 0; i < delta.extra.size(); ++i) {
      append(out, "%s\"%s\"", i == 0 ? "" : ",",
             json_escape(delta.extra[i].to_string()).c_str());
    }
    out += "]}";
  }
  out += "],\"sessions\":[";
  first = true;
  for (const auto& s : sessions) {
    if (!first) out += ",";
    first = false;
    append(out,
           "{\"session_id\":%" PRIu64 ",\"kind\":\"%s\",\"began_ns\":%" PRIu64
           ",\"ended_ns\":%" PRIu64 "}",
           s.session_id, kind_name(s.kind), s.began, s.ended);
  }
  out += "]}";
  return out;
}

// --- FleetObserver -----------------------------------------------------------

FleetObserver::FleetObserver(std::size_t switches, const Source& source)
    : switch_count_(switches), source_(source) {
  const sr::MutexLock lock(mu_);
  cells_.resize(switches);
  selfcheck_countdown_ = kSelfcheckEvery;
  eval_countdown_ = kEvalEvery;
  pending_.reserve(kDrainEvery);
  history_.resize(kDigestHistory);
}

// --- Feed journal ------------------------------------------------------------

void FleetObserver::replay_locked() {
  // Replay in feed order with each event's recorded timestamp: the fold is
  // bit-identical to having applied every feed synchronously, only batched
  // so the observer's working set stays cache-resident (header cost model).
  for (const FeedEvent& ev : pending_) {
    switch (ev.kind) {
      case FeedEvent::Kind::kAppendUpdate: {
        SR_DCHECKF(ev.pos > head_, "journal positions are monotone");
        head_ = ev.pos;
        if (ev.changed) {
          desired_digest_ ^= VipDigest::member_token(ev.vip, ev.dip);
        }
        append_history_locked(ev.at);
        tick_locked(ev.at, kNoSwitch);
        break;
      }
      case FeedEvent::Kind::kMirrorUpdate: {
        if (ev.changed) {
          cells_[ev.sw].digest ^= VipDigest::member_token(ev.vip, ev.dip);
        }
        // Out-of-band mutations (resync replays, fault injection) are
        // checked right away against the unchanged effective watermark.
        tick_locked(ev.at, ev.sw);
        break;
      }
      case FeedEvent::Kind::kDelivery: {
        SwitchCell& cell = cells_[ev.sw];
        cell.digest ^= VipDigest::member_token(ev.vip, ev.dip);
        if (ev.pos > cell.watermark) cell.watermark = ev.pos;
        if (!cell.oob.empty()) drain_oob_locked(cell);
        // Lean tail for the update-heavy delivery stream: the digest
        // comparison (a history-ring lookup per switch) runs on the
        // evaluation cadence, all switches at once, instead of per
        // delivery. Detection latency for a delivery-path divergence is
        // therefore bounded by kEvalEvery feed events on top of the drain
        // batching; out-of-band mutations, lifecycle edges, and explicit
        // evaluate() still check immediately (DESIGN.md §17).
        count_selfcheck_locked();
        if (eval_due_locked()) {
          evaluate_locked(ev.at);
          check_switches_locked(ev.at, kAllSwitches);
        }
        break;
      }
      case FeedEvent::Kind::kWatermark: {
        SwitchCell& cell = cells_[ev.sw];
        cell.watermark = std::max(cell.watermark, ev.pos);
        drain_oob_locked(cell);
        tick_locked(ev.at, ev.sw);
        break;
      }
    }
  }
  pending_.clear();
}

std::vector<DivergenceFinding> FleetObserver::settle_locked() {
  // Every caller has emptied the feed journal and applied its own feed, so
  // the Source and the digests agree again: only now may a self-check read
  // the Source. Each checks the next switch and the desired state.
  for (; selfchecks_due_ > 0; --selfchecks_due_) {
    ++selfchecks_;
    const std::size_t sw = selfcheck_cursor_;
    selfcheck_cursor_ = (selfcheck_cursor_ + 1) % cells_.size();
    if (fold(source_.applied(sw)) != cells_[sw].digest ||
        fold(source_.desired()) != desired_digest_) {
      ++selfcheck_failures_;
    }
  }
  return std::exchange(unfired_, {});
}

void FleetObserver::drain() {
  std::vector<DivergenceFinding> fired;
  {
    const sr::MutexLock lock(mu_);
    replay_locked();
    fired = settle_locked();
  }
  fire(std::move(fired));
}

// --- Feed: configs -----------------------------------------------------------

void FleetObserver::on_append_config(std::uint64_t pos, sim::Time now) {
  std::vector<DivergenceFinding> fired;
  {
    const sr::MutexLock lock(mu_);
    replay_locked();
    SR_DCHECKF(pos > head_, "journal positions are monotone");
    head_ = pos;
    desired_digest_ = fold(source_.desired());
    append_history_locked(now);
    tick_locked(now, kNoSwitch);
    fired = settle_locked();
  }
  fire(std::move(fired));
}

void FleetObserver::on_mirror_config(std::size_t sw, std::uint64_t pos,
                                     sim::Time now) {
  std::vector<DivergenceFinding> fired;
  {
    const sr::MutexLock lock(mu_);
    replay_locked();
    SwitchCell& cell = cells_.at(sw);
    cell.digest = fold(source_.applied(sw));
    if (pos != 0 && pos > cell.watermark) cell.oob.insert(pos);
    tick_locked(now, sw);
    fired = settle_locked();
  }
  fire(std::move(fired));
}

// --- Feed: lifecycle ---------------------------------------------------------

void FleetObserver::on_switch_down(std::size_t sw, sim::Time now) {
  std::vector<DivergenceFinding> fired;
  {
    const sr::MutexLock lock(mu_);
    replay_locked();
    SwitchCell& cell = cells_.at(sw);
    cell.state = SwitchState::kDown;
    cell.active_session = 0;
    cell.digest = 0;
    cell.oob.clear();
    cell.watermark = 0;
    cell.divergent = false;
    cell.lagging = false;
    tick_locked(now, kAllSwitches);  // Live set changed: re-evaluate.
    fired = settle_locked();
  }
  fire(std::move(fired));
}

void FleetObserver::on_restore_begin(std::size_t sw,
                                     std::uint64_t snapshot_watermark,
                                     sim::Time now) {
  std::vector<DivergenceFinding> fired;
  {
    const sr::MutexLock lock(mu_);
    replay_locked();
    SwitchCell& cell = cells_.at(sw);
    cell.state = SwitchState::kRestoring;
    cell.digest = fold(source_.applied(sw));
    cell.oob.clear();
    cell.watermark = snapshot_watermark;
    cell.divergent = false;
    tick_locked(now, kAllSwitches);  // Live set changed: re-evaluate.
    fired = settle_locked();
  }
  fire(std::move(fired));
}

void FleetObserver::on_session_open(std::size_t sw, std::uint64_t session_id,
                                    sim::Time now) {
  std::vector<DivergenceFinding> fired;
  {
    const sr::MutexLock lock(mu_);
    replay_locked();  // Deliveries that preceded the wipe stay ordered.
    SwitchCell& cell = cells_.at(sw);
    if (cell.state == SwitchState::kLive) cell.state = SwitchState::kResyncing;
    cell.active_session = session_id;
    cell.sessions.push_back({session_id, 0, now, 0});
    while (cell.sessions.size() > kSessionHistory) {
      cell.sessions.pop_front();
    }
    fired = settle_locked();
  }
  fire(std::move(fired));
}

void FleetObserver::on_resync_begin(std::size_t sw, std::uint64_t session_id,
                                    ResyncKind kind, sim::Time now) {
  std::vector<DivergenceFinding> fired;
  {
    const sr::MutexLock lock(mu_);
    replay_locked();
    SwitchCell& cell = cells_.at(sw);
    if (cell.state == SwitchState::kLive) cell.state = SwitchState::kResyncing;
    cell.active_session = session_id;
    if (cell.sessions.empty() ||
        cell.sessions.back().session_id != session_id) {
      cell.sessions.push_back({session_id, static_cast<int>(kind), now, 0});
      while (cell.sessions.size() > kSessionHistory) {
        cell.sessions.pop_front();
      }
    } else {
      cell.sessions.back().kind = static_cast<int>(kind);
    }
    fired = settle_locked();
  }
  fire(std::move(fired));
}

void FleetObserver::on_resync_end(std::size_t sw, std::uint64_t session_id,
                                  sim::Time now) {
  std::vector<DivergenceFinding> fired;
  {
    const sr::MutexLock lock(mu_);
    replay_locked();
    SwitchCell& cell = cells_.at(sw);
    if (cell.active_session != session_id) {
      // A newer session won; the replayed backlog still gets its findings
      // delivered.
      fired = settle_locked();
    } else {
      cell.active_session = 0;
      cell.state = SwitchState::kLive;
      for (auto it = cell.sessions.rbegin(); it != cell.sessions.rend();
           ++it) {
        if (it->session_id == session_id) {
          it->ended = now;
          break;
        }
      }
      tick_locked(now, sw);
      fired = settle_locked();
    }
  }
  fire(std::move(fired));
}

// --- Checkability + digests --------------------------------------------------

void FleetObserver::drain_oob_locked(SwitchCell& cell) {
  while (!cell.oob.empty() && *cell.oob.begin() <= cell.watermark) {
    cell.oob.erase(cell.oob.begin());
  }
}

std::uint64_t FleetObserver::effective_locked(const SwitchCell& cell) const {
  std::uint64_t effective = cell.watermark;
  for (const std::uint64_t pos : cell.oob) {
    if (pos != effective + 1) break;
    effective = pos;
  }
  return effective;
}

bool FleetObserver::checkable_locked(const SwitchCell& cell) const {
  if (cell.state != SwitchState::kLive) return false;
  if (cell.oob.empty()) return true;
  // Every out-of-band position must be inside the contiguous extension.
  return *cell.oob.rbegin() <= effective_locked(cell);
}

bool FleetObserver::digest_at_locked(std::uint64_t pos,
                                     std::uint64_t* digest) const {
  if (pos == 0) {
    // Before the first journaled mutation the desired state is empty —
    // unless history already scrolled past retention.
    if (history_base_ > 1) return false;
    *digest = 0;
    return true;
  }
  if (pos < history_base_ || pos >= history_base_ + history_size_) {
    return false;
  }
  *digest = history_entry_locked(pos - history_base_).digest_after;
  return true;
}

const FleetObserver::HistoryEntry& FleetObserver::history_entry_locked(
    std::size_t off) const {
  std::size_t idx = history_start_ + off;
  if (idx >= history_.size()) idx -= history_.size();
  return history_[idx];
}

void FleetObserver::append_history_locked(sim::Time now) {
  // Caller just advanced head_ to the appended position.
  const std::size_t cap = history_.size();
  if (history_size_ == 0) history_base_ = head_;
  std::size_t idx;
  if (history_size_ == cap) {
    idx = history_start_;  // Full: the oldest entry is recycled.
    history_start_ = history_start_ + 1 == cap ? 0 : history_start_ + 1;
    ++history_base_;
  } else {
    idx = history_start_ + history_size_;
    if (idx >= cap) idx -= cap;
    ++history_size_;
  }
  history_[idx] = {desired_digest_, now};
}

bool FleetObserver::check_switch_locked(std::size_t sw, sim::Time now,
                                        DivergenceFinding* finding) {
  SwitchCell& cell = cells_[sw];
  if (!checkable_locked(cell)) return false;
  const std::uint64_t effective = effective_locked(cell);
  std::uint64_t expected = 0;
  if (!digest_at_locked(effective, &expected)) {
    ++unverifiable_;  // Compacted past retention; catches up or stays flagged.
    return false;
  }
  if (cell.digest == expected) {
    cell.divergent = false;  // Re-arm the episode latch.
    return false;
  }
  if (cell.divergent) return false;  // Already reported this episode.
  cell.divergent = true;
  ++divergences_;
  finding->switch_index = sw;
  finding->position = effective;
  finding->expected_digest = expected;
  finding->actual_digest = cell.digest;
  finding->at = now;
  attribute_locked(sw, finding);
  finding->sessions.assign(cell.sessions.begin(), cell.sessions.end());
  findings_.push_back(*finding);
  return true;
}

void FleetObserver::attribute_locked(std::size_t sw,
                                     DivergenceFinding* finding) const {
  // Diff the switch's applied membership against the *current* desired
  // state. At quiescence (where the chaos harness asserts) the two
  // references are the same; mid-stream — including a finding made inside
  // a replay, when the Source is ahead of the digests — the attribution may
  // include in-flight churn and is labeled approximate (§17).
  const auto want = by_vip(source_.desired());
  const auto have = by_vip(source_.applied(sw));
  std::set<net::Endpoint> vips;
  for (const auto& [vip, dips] : want) vips.insert(vip);
  for (const auto& [vip, dips] : have) vips.insert(vip);
  const std::vector<net::Endpoint> none;
  for (const auto& vip : vips) {
    const auto want_it = want.find(vip);
    const auto have_it = have.find(vip);
    const auto& want_dips = want_it == want.end() ? none : want_it->second;
    const auto& have_dips = have_it == have.end() ? none : have_it->second;
    DivergenceFinding::VipDelta delta;
    delta.vip = vip;
    std::set_difference(want_dips.begin(), want_dips.end(), have_dips.begin(),
                        have_dips.end(), std::back_inserter(delta.missing));
    std::set_difference(have_dips.begin(), have_dips.end(), want_dips.begin(),
                        want_dips.end(), std::back_inserter(delta.extra));
    delta.presence_only = delta.missing.empty() && delta.extra.empty() &&
                          (want_it == want.end()) != (have_it == have.end());
    if (!delta.missing.empty() || !delta.extra.empty() ||
        delta.presence_only) {
      finding->deltas.push_back(std::move(delta));
    }
  }
}

// --- Evaluation --------------------------------------------------------------

void FleetObserver::evaluate_locked(sim::Time now) {
  std::size_t live = 0;
  std::size_t lagging = 0;
  for (SwitchCell& cell : cells_) {
    if (cell.state == SwitchState::kDown) {
      cell.cached_lag = 0;
      cell.cached_age = 0;
      continue;
    }
    ++live;
    const std::uint64_t effective = effective_locked(cell);
    const std::uint64_t lag = head_ > effective ? head_ - effective : 0;
    cell.cached_lag = lag;
    if (lag == 0 || history_size_ == 0) {
      cell.cached_age = 0;
    } else {
      // Age of the oldest unapplied mutation. When it predates the retained
      // history the oldest entry's timestamp is a (documented) lower bound.
      const std::uint64_t next = effective + 1;
      const HistoryEntry& entry =
          next < history_base_ ? history_entry_locked(0)
          : next >= history_base_ + history_size_
              ? history_entry_locked(history_size_ - 1)
              : history_entry_locked(next - history_base_);
      cell.cached_age = now > entry.appended_at ? now - entry.appended_at : 0;
    }
    if (cell.lagging) {
      if (lag <= kLagExit) cell.lagging = false;
    } else {
      if (lag > kLagEnter) cell.lagging = true;
    }
    if (cell.lagging) ++lagging;
    if (h_lag_ != nullptr) h_lag_->record(lag);
  }
  lagging_fraction_ = live == 0 ? 0.0
                                : static_cast<double>(lagging) /
                                      static_cast<double>(live);
  const bool ok =
      live == 0 ||
      (static_cast<double>(live - lagging) / static_cast<double>(live)) >=
          kSloTarget;
  if (!slo_ok_ && now > last_eval_) slo_burn_ns_ += now - last_eval_;
  if (ok != slo_ok_) ++slo_transitions_;
  slo_ok_ = ok;
  last_eval_ = std::max(last_eval_, now);
}

void FleetObserver::count_selfcheck_locked() {
  if (cells_.empty() || --selfcheck_countdown_ != 0) return;
  selfcheck_countdown_ = kSelfcheckEvery;
  // Round-robin one switch (plus the desired digest) per cadence hit —
  // bounded work per drain, full coverage over time. It reads the Source,
  // so it waits for settle_locked().
  ++selfchecks_due_;
}

bool FleetObserver::eval_due_locked() {
  if (--eval_countdown_ == 0) {
    eval_countdown_ = kEvalEvery;
    return true;
  }
  return false;
}

void FleetObserver::check_switches_locked(sim::Time now, std::size_t touched) {
  if (touched == kNoSwitch) return;  // Pure appends check nothing.
  for (std::size_t sw = 0; sw < cells_.size(); ++sw) {
    if (touched != kAllSwitches && touched != sw) continue;
    DivergenceFinding finding;
    if (check_switch_locked(sw, now, &finding)) {
      unfired_.push_back(std::move(finding));
    }
  }
}

void FleetObserver::tick_locked(sim::Time now, std::size_t touched) {
  count_selfcheck_locked();
  // The O(switches) lag/SLO recompute is amortized over the feed stream;
  // explicit evaluate() and lifecycle edges (kAllSwitches) always run it.
  if (eval_due_locked() || touched == kAllSwitches) {
    evaluate_locked(now);
  }
  check_switches_locked(now, touched);
}

void FleetObserver::fire(std::vector<DivergenceFinding> findings) {
  if (!divergence_cb_) return;
  for (const auto& finding : findings) divergence_cb_(finding);
}

void FleetObserver::evaluate(sim::Time now) {
  std::vector<DivergenceFinding> fired;
  {
    const sr::MutexLock lock(mu_);
    replay_locked();
    tick_locked(now, kAllSwitches);
    fired = settle_locked();
  }
  fire(std::move(fired));
}

bool FleetObserver::verify_digests() {
  bool ok = true;
  std::vector<DivergenceFinding> fired;
  {
    const sr::MutexLock lock(mu_);
    replay_locked();
    fired = settle_locked();
    for (std::size_t sw = 0; sw < cells_.size(); ++sw) {
      if (fold(source_.applied(sw)) != cells_[sw].digest) ok = false;
    }
    if (fold(source_.desired()) != desired_digest_) ok = false;
    ++selfchecks_;
    if (!ok) ++selfcheck_failures_;
  }
  fire(std::move(fired));
  return ok;
}

// --- Introspection -----------------------------------------------------------

std::uint64_t FleetObserver::head() {
  drain();
  const sr::MutexLock lock(mu_);
  return head_;
}

std::uint64_t FleetObserver::watermark(std::size_t sw) {
  drain();
  const sr::MutexLock lock(mu_);
  return cells_.at(sw).watermark;
}

std::uint64_t FleetObserver::effective_watermark(std::size_t sw) {
  drain();
  const sr::MutexLock lock(mu_);
  return effective_locked(cells_.at(sw));
}

std::uint64_t FleetObserver::lag_positions(std::size_t sw) {
  drain();
  const sr::MutexLock lock(mu_);
  return cells_.at(sw).cached_lag;
}

sim::Time FleetObserver::lag_age(std::size_t sw) {
  drain();
  const sr::MutexLock lock(mu_);
  return cells_.at(sw).cached_age;
}

FleetObserver::SwitchState FleetObserver::state(std::size_t sw) {
  drain();
  const sr::MutexLock lock(mu_);
  return cells_.at(sw).state;
}

std::uint64_t FleetObserver::desired_digest() {
  drain();
  const sr::MutexLock lock(mu_);
  return desired_digest_;
}

std::uint64_t FleetObserver::switch_digest(std::size_t sw) {
  drain();
  const sr::MutexLock lock(mu_);
  return cells_.at(sw).digest;
}

bool FleetObserver::slo_ok() {
  drain();
  const sr::MutexLock lock(mu_);
  return slo_ok_;
}

std::uint64_t FleetObserver::slo_transitions() {
  drain();
  const sr::MutexLock lock(mu_);
  return slo_transitions_;
}

sim::Time FleetObserver::slo_burn_ns() {
  drain();
  const sr::MutexLock lock(mu_);
  return slo_burn_ns_;
}

std::uint64_t FleetObserver::divergences() {
  drain();
  const sr::MutexLock lock(mu_);
  return divergences_;
}

std::vector<DivergenceFinding> FleetObserver::findings() {
  drain();
  const sr::MutexLock lock(mu_);
  return findings_;
}

std::uint64_t FleetObserver::selfchecks() {
  drain();
  const sr::MutexLock lock(mu_);
  return selfchecks_;
}

std::uint64_t FleetObserver::selfcheck_failures() {
  drain();
  const sr::MutexLock lock(mu_);
  return selfcheck_failures_;
}

std::uint64_t FleetObserver::unverifiable_checks() {
  drain();
  const sr::MutexLock lock(mu_);
  return unverifiable_;
}

void FleetObserver::set_divergence_callback(DivergenceCallback cb) {
  divergence_cb_ = std::move(cb);
}

void FleetObserver::bind_metrics(MetricsRegistry& registry) {
  registry.register_callback(
      "silkroad_fleet_journal_lag_slo_ok", MetricKind::kGauge,
      [this] {
        const sr::MutexLock lock(mu_);
        return slo_ok_ ? 1.0 : 0.0;
      },
      "1 while the convergence SLO holds (lagging fraction within target)");
  registry.register_callback(
      "silkroad_fleet_lagging_fraction", MetricKind::kGauge,
      [this] {
        const sr::MutexLock lock(mu_);
        return lagging_fraction_;
      },
      "Fraction of live switches currently in the lagging hysteresis state");
  registry.register_callback(
      "silkroad_fleet_slo_burn_ns_total", MetricKind::kCounter,
      [this] {
        const sr::MutexLock lock(mu_);
        return static_cast<double>(slo_burn_ns_);
      },
      "Sim-time nanoseconds spent with the convergence SLO violated");
  registry.register_callback(
      "silkroad_fleet_slo_transitions_total", MetricKind::kCounter,
      [this] {
        const sr::MutexLock lock(mu_);
        return static_cast<double>(slo_transitions_);
      },
      "Convergence SLO ok<->violated flips");
  registry.register_callback(
      "silkroad_fleet_divergences_total", MetricKind::kCounter,
      [this] {
        const sr::MutexLock lock(mu_);
        return static_cast<double>(divergences_);
      },
      "Silent divergences detected (digest mismatch at equal watermark)");
  registry.register_callback(
      "silkroad_fleet_digest_selfchecks_total", MetricKind::kCounter,
      [this] {
        const sr::MutexLock lock(mu_);
        return static_cast<double>(selfchecks_);
      },
      "Full-recompute digest self-checks performed");
  registry.register_callback(
      "silkroad_fleet_digest_selfcheck_failures_total", MetricKind::kCounter,
      [this] {
        const sr::MutexLock lock(mu_);
        return static_cast<double>(selfcheck_failures_);
      },
      "Digest self-checks where incremental and recomputed values disagreed");
  registry.register_callback(
      "silkroad_fleet_unverifiable_checks_total", MetricKind::kCounter,
      [this] {
        const sr::MutexLock lock(mu_);
        return static_cast<double>(unverifiable_);
      },
      "Digest checks skipped because history was compacted past the "
      "switch's watermark");
  h_lag_ = registry.histogram(
      "silkroad_fleet_lag_positions",
      "Per-switch watermark lag in journal positions, recorded per "
      "evaluation");
  for (std::size_t sw = 0; sw < switch_count_; ++sw) {
    const std::string labels = "switch=\"" + std::to_string(sw) + "\"";
    registry.register_callback(
        "silkroad_fleet_switch_lag_positions", MetricKind::kGauge,
        [this, sw] {
          const sr::MutexLock lock(mu_);
          return static_cast<double>(cells_[sw].cached_lag);
        },
        "Journal positions between the head and this switch's effective "
        "watermark",
        labels);
    registry.register_callback(
        "silkroad_fleet_switch_lag_age_ns", MetricKind::kGauge,
        [this, sw] {
          const sr::MutexLock lock(mu_);
          return static_cast<double>(cells_[sw].cached_age);
        },
        "Sim-time age of this switch's oldest unapplied journal mutation",
        labels);
  }
}

// --- Rendering ---------------------------------------------------------------

FleetObserver::LagSummary FleetObserver::lag_summary_locked() const {
  LagSummary out;
  std::vector<std::uint64_t> lags;
  for (const SwitchCell& cell : cells_) {
    if (cell.state == SwitchState::kDown) continue;
    ++out.live;
    lags.push_back(cell.cached_lag);
    if (cell.lagging) ++out.lagging;
  }
  if (lags.empty()) return out;
  std::sort(lags.begin(), lags.end());
  const auto quantile = [&lags](double q) {
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(lags.size() - 1) + 0.5);
    return lags[std::min(idx, lags.size() - 1)];
  };
  out.p50 = quantile(0.50);
  out.p99 = quantile(0.99);
  out.max = lags.back();
  return out;
}

std::string FleetObserver::to_text() {
  // Render surface: may run on the scrape thread, so it must not touch the
  // simulation-thread-only feed journal. It renders the last drained fold
  // (staleness bounded by kDrainEvery — header concurrency contract).
  const sr::MutexLock lock(mu_);
  std::string out;
  out += "=== fleet convergence observatory (DESIGN.md \xC2\xA7"
         "17) ===\n";
  append(out, "journal head: %" PRIu64 "\n", head_);
  const LagSummary lag = lag_summary_locked();
  append(out,
         "lag positions: p50=%" PRIu64 " p99=%" PRIu64 " max=%" PRIu64
         " (over %zu live switches)\n",
         lag.p50, lag.p99, lag.max, lag.live);
  append(out,
         "slo: %s (target %.2f%% within enter=%" PRIu64 "/exit=%" PRIu64
         " positions; lagging %zu/%zu)\n",
         slo_ok_ ? "ok" : "VIOLATED", 100.0 * kSloTarget, kLagEnter,
         kLagExit, lag.lagging, lag.live);
  append(out, "slo burn: %.6f s over %" PRIu64 " transition(s)\n",
         sim::to_seconds(slo_burn_ns_), slo_transitions_);
  append(out,
         "digests: desired=0x%016" PRIx64 " selfchecks=%" PRIu64
         " failures=%" PRIu64 " unverifiable=%" PRIu64 "\n",
         desired_digest_, selfchecks_, selfcheck_failures_, unverifiable_);
  append(out, "divergences: %" PRIu64 "%s\n", divergences_,
         divergences_ == 0 ? "" : "  << SILENT DIVERGENCE");
  out += "switch  state      watermark  effective  lag  age_ms   digest"
         "              resync\n";
  for (std::size_t sw = 0; sw < cells_.size(); ++sw) {
    const SwitchCell& cell = cells_[sw];
    std::string resync = "-";
    if (!cell.sessions.empty()) {
      const auto& last = cell.sessions.back();
      resync = std::string(kind_name(last.kind)) +
               (last.ended == 0 ? " (open)" : "");
    }
    append(out,
           "%-7zu %-10s %-10" PRIu64 " %-10" PRIu64 " %-4" PRIu64
           " %-8.3f 0x%016" PRIx64 "  %s%s\n",
           sw, state_name(cell.state), cell.watermark,
           effective_locked(cell), cell.cached_lag,
           static_cast<double>(cell.cached_age) / 1e6, cell.digest,
           resync.c_str(), cell.divergent ? "  DIVERGED" : "");
  }
  for (const auto& finding : findings_) {
    out += "\n";
    out += finding.to_text();
  }
  return out;
}

std::string FleetObserver::to_json() {
  // Render surface: last drained fold, no feed-journal access — see
  // to_text().
  const sr::MutexLock lock(mu_);
  std::string out;
  append(out, "{\"journal_head\":%" PRIu64, head_);
  const LagSummary lag = lag_summary_locked();
  append(out,
         ",\"lag\":{\"p50\":%" PRIu64 ",\"p99\":%" PRIu64 ",\"max\":%" PRIu64
         ",\"live\":%zu,\"lagging\":%zu}",
         lag.p50, lag.p99, lag.max, lag.live, lag.lagging);
  append(out,
         ",\"slo\":{\"ok\":%s,\"target\":%s,\"lag_enter\":%" PRIu64
         ",\"lag_exit\":%" PRIu64 ",\"burn_ns\":%" PRIu64
         ",\"transitions\":%" PRIu64 "}",
         slo_ok_ ? "true" : "false", format_number(kSloTarget).c_str(),
         kLagEnter, kLagExit, slo_burn_ns_, slo_transitions_);
  append(out,
         ",\"digest\":{\"desired\":\"0x%016" PRIx64
         "\",\"selfchecks\":%" PRIu64 ",\"selfcheck_failures\":%" PRIu64
         ",\"unverifiable\":%" PRIu64 "}",
         desired_digest_, selfchecks_, selfcheck_failures_, unverifiable_);
  append(out, ",\"divergences\":%" PRIu64, divergences_);
  out += ",\"switches\":[";
  for (std::size_t sw = 0; sw < cells_.size(); ++sw) {
    const SwitchCell& cell = cells_[sw];
    if (sw != 0) out += ",";
    append(out,
           "\n  {\"index\":%zu,\"state\":\"%s\",\"watermark\":%" PRIu64
           ",\"effective_watermark\":%" PRIu64 ",\"lag_positions\":%" PRIu64
           ",\"lag_age_ns\":%" PRIu64 ",\"digest\":\"0x%016" PRIx64
           "\",\"lagging\":%s,\"divergent\":%s",
           sw, state_name(cell.state), cell.watermark,
           effective_locked(cell), cell.cached_lag, cell.cached_age,
           cell.digest, cell.lagging ? "true" : "false",
           cell.divergent ? "true" : "false");
    out += ",\"sessions\":[";
    for (std::size_t i = 0; i < cell.sessions.size(); ++i) {
      const auto& s = cell.sessions[i];
      if (i != 0) out += ",";
      append(out,
             "{\"session_id\":%" PRIu64 ",\"kind\":\"%s\",\"began_ns\":%"
             PRIu64 ",\"ended_ns\":%" PRIu64 "}",
             s.session_id, kind_name(s.kind), s.began, s.ended);
    }
    out += "]}";
  }
  out += "\n],\"findings\":[";
  for (std::size_t i = 0; i < findings_.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n  " + findings_[i].to_json();
  }
  out += "\n]}\n";
  return out;
}

}  // namespace silkroad::obs
