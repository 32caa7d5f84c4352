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

// ,"sessions":[...] — resync-session records, oldest first. Shared by a
// finding and a switch row of /fleet.json.
void append_sessions_json(std::string& out, const auto& sessions) {
  out += ",\"sessions\":[";
  bool first = true;
  for (const DivergenceFinding::SessionRecord& s : sessions) {
    if (!first) out += ",";
    first = false;
    append(out,
           "{\"session_id\":%" PRIu64 ",\"kind\":\"%s\",\"began_ns\":%" PRIu64
           ",\"ended_ns\":%" PRIu64 "}",
           s.session_id, kind_name(s.kind), s.began, s.ended);
  }
  out += "]";
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
  out += "]";
  append_sessions_json(out, sessions);
  out += "}";
  return out;
}

// --- FleetObserver -----------------------------------------------------------

FleetObserver::FleetObserver(std::size_t switches, const Source& source)
    : source_(source), cells_(switches), history_(kDigestHistory) {}

// --- Feed: journal appends ---------------------------------------------------

void FleetObserver::on_append_config(std::uint64_t pos, sim::Time now) {
  totals_.desired_digest = fold(source_.desired());
  append_history(pos, now);
  tick(now);
}

void FleetObserver::on_append_update(std::uint64_t pos, sim::Time now,
                                     const net::Endpoint& vip,
                                     const net::Endpoint& dip, bool changed) {
  if (changed) totals_.desired_digest ^= VipDigest::member_token(vip, dip);
  append_history(pos, now);
  tick(now);
}

// --- Feed: per-switch applied membership -------------------------------------

void FleetObserver::on_mirror_config(std::size_t sw, std::uint64_t pos,
                                     sim::Time now) {
  SwitchCell& cell = cells_.at(sw);
  cell.digest = fold(source_.applied(sw));
  if (pos != 0 && pos > cell.watermark) cell.oob.insert(pos);
  tick(now);
  check_switch(sw, now);
}

void FleetObserver::on_mirror_update(std::size_t sw, const net::Endpoint& vip,
                                     const net::Endpoint& dip, bool changed,
                                     sim::Time now) {
  if (changed) cells_[sw].digest ^= VipDigest::member_token(vip, dip);
  // Out-of-band mutations (resync replays, fault injection) are checked
  // right away against the unchanged effective watermark.
  tick(now);
  check_switch(sw, now);
}

void FleetObserver::on_delivery(std::size_t sw, const net::Endpoint& vip,
                                const net::Endpoint& dip, bool changed,
                                std::uint64_t pos, sim::Time now) {
  if (!changed) {
    on_watermark(sw, pos, now);
    return;
  }
  SwitchCell& cell = cells_[sw];
  cell.digest ^= VipDigest::member_token(vip, dip);
  if (pos > cell.watermark) cell.watermark = pos;
  if (!cell.oob.empty()) prune_oob(cell);
  // Lean tail for the update-heavy delivery stream: the digest comparison
  // (a history-ring lookup per switch) runs on the evaluation cadence, all
  // switches at once, instead of per delivery. Detection latency for a
  // delivery-path divergence is therefore bounded by kEvalEvery feeds;
  // out-of-band mutations, lifecycle edges, and explicit evaluate() still
  // check immediately (DESIGN.md §17).
  if (tick(now)) check_all(now);
}

void FleetObserver::on_watermark(std::size_t sw, std::uint64_t watermark,
                                 sim::Time now) {
  SwitchCell& cell = cells_[sw];
  cell.watermark = std::max(cell.watermark, watermark);
  prune_oob(cell);
  tick(now);
  check_switch(sw, now);
}

// --- Feed: lifecycle ---------------------------------------------------------

void FleetObserver::on_switch_down(std::size_t sw, sim::Time now) {
  SwitchCell& cell = cells_.at(sw);
  cell.state = SwitchState::kDown;
  cell.active_session = 0;
  cell.digest = 0;
  cell.oob.clear();
  cell.watermark = 0;
  cell.divergent = false;
  cell.lagging = false;
  evaluate(now);  // Live set changed: re-evaluate.
}

void FleetObserver::on_restore_begin(std::size_t sw,
                                     std::uint64_t snapshot_watermark,
                                     sim::Time now) {
  SwitchCell& cell = cells_.at(sw);
  cell.state = SwitchState::kRestoring;
  cell.digest = fold(source_.applied(sw));
  cell.oob.clear();
  cell.watermark = snapshot_watermark;
  cell.divergent = false;
  evaluate(now);  // Live set changed: re-evaluate.
}

void FleetObserver::on_resync_begin(std::size_t sw, std::uint64_t session_id,
                                    ResyncKind kind, sim::Time now) {
  SwitchCell& cell = cells_.at(sw);
  if (cell.state == SwitchState::kLive) cell.state = SwitchState::kResyncing;
  cell.active_session = session_id;
  cell.sessions.push_back({session_id, static_cast<int>(kind), now, 0});
  if (cell.sessions.size() > kSessionHistory) cell.sessions.pop_front();
}

void FleetObserver::on_resync_end(std::size_t sw, std::uint64_t session_id,
                                  sim::Time now) {
  SwitchCell& cell = cells_.at(sw);
  if (cell.active_session == session_id) {  // Else a newer session won.
    cell.active_session = 0;
    cell.state = SwitchState::kLive;
    for (auto it = cell.sessions.rbegin(); it != cell.sessions.rend(); ++it) {
      if (it->session_id == session_id) {
        it->ended = now;
        break;
      }
    }
    tick(now);
    check_switch(sw, now);
  }
}

// --- Checkability + digests --------------------------------------------------

void FleetObserver::prune_oob(SwitchCell& cell) {
  while (!cell.oob.empty() && *cell.oob.begin() <= cell.watermark) {
    cell.oob.erase(cell.oob.begin());
  }
}

std::uint64_t FleetObserver::effective(const SwitchCell& cell) const {
  std::uint64_t through = cell.watermark;
  for (const std::uint64_t pos : cell.oob) {
    if (pos != through + 1) break;
    through = pos;
  }
  return through;
}

bool FleetObserver::checkable(const SwitchCell& cell) const {
  if (cell.state != SwitchState::kLive) return false;
  if (cell.oob.empty()) return true;
  // Every out-of-band position must be inside the contiguous extension.
  return *cell.oob.rbegin() <= effective(cell);
}

std::uint64_t FleetObserver::oldest_retained() const {
  return totals_.head > kDigestHistory ? totals_.head - kDigestHistory + 1
                                       : 1;
}

bool FleetObserver::digest_at(std::uint64_t pos, std::uint64_t* digest) const {
  // Position 0, the empty state before the first append, is known for as
  // long as position 1 is.
  if (pos > totals_.head ||
      std::max<std::uint64_t>(pos, 1) < oldest_retained()) {
    return false;
  }
  *digest = pos == 0 ? 0 : history_[pos % kDigestHistory].digest_after;
  return true;
}

void FleetObserver::append_history(std::uint64_t pos, sim::Time now) {
  SR_CHECKF(pos == totals_.head + 1, "journal positions are dense");
  totals_.head = pos;
  history_[pos % kDigestHistory] = {totals_.desired_digest, now};
}

void FleetObserver::check_switch(std::size_t sw, sim::Time now) {
  SwitchCell& cell = cells_[sw];
  if (!checkable(cell)) return;
  const std::uint64_t position = effective(cell);
  std::uint64_t expected = 0;
  if (!digest_at(position, &expected)) {
    ++totals_.unverifiable;  // Compacted past retention; catches up or stays flagged.
    return;
  }
  if (cell.digest == expected) {
    cell.divergent = false;  // Re-arm the episode latch.
    return;
  }
  if (cell.divergent) return;  // Already reported this episode.
  cell.divergent = true;
  DivergenceFinding finding;
  finding.switch_index = sw;
  finding.position = position;
  finding.expected_digest = expected;
  finding.actual_digest = cell.digest;
  finding.at = now;
  attribute(sw, &finding);
  finding.sessions.assign(cell.sessions.begin(), cell.sessions.end());
  findings_.push_back(finding);
  if (divergence_cb_) divergence_cb_(finding);
}

void FleetObserver::attribute(std::size_t sw,
                              DivergenceFinding* finding) const {
  // Diff the switch's applied membership against the *current* desired
  // state. At quiescence (where the chaos harness asserts) the two
  // references are the same; mid-stream the attribution may include
  // in-flight churn and is labeled approximate (§17).
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

void FleetObserver::evaluate_lags(sim::Time now) {
  std::size_t live = 0;
  std::size_t lagging = 0;
  for (SwitchCell& cell : cells_) {
    if (cell.state == SwitchState::kDown) {
      cell.lag = 0;
      cell.age = 0;
      continue;
    }
    ++live;
    const std::uint64_t position = effective(cell);
    const std::uint64_t lag =
        totals_.head > position ? totals_.head - position : 0;
    cell.lag = lag;
    if (lag == 0) {
      cell.age = 0;
    } else {
      // Age of the oldest unapplied mutation (position + 1 <= head). When it
      // predates the retained history the oldest entry's timestamp is a
      // (documented) lower bound.
      const HistoryEntry& entry =
          history_[std::max(position + 1, oldest_retained()) % kDigestHistory];
      cell.age = now > entry.appended_at ? now - entry.appended_at : 0;
    }
    if (cell.lagging) {
      if (lag <= kLagExit) cell.lagging = false;
    } else {
      if (lag > kLagEnter) cell.lagging = true;
    }
    if (cell.lagging) ++lagging;
    if (h_lag_ != nullptr) h_lag_->record(lag);
  }
  totals_.lagging_fraction = live == 0 ? 0.0
                                       : static_cast<double>(lagging) /
                                             static_cast<double>(live);
  const bool ok =
      live == 0 ||
      (static_cast<double>(live - lagging) / static_cast<double>(live)) >=
          kSloTarget;
  if (!totals_.slo_ok && now > last_eval_) {
    totals_.slo_burn_ns += now - last_eval_;
  }
  if (ok != totals_.slo_ok) ++totals_.slo_transitions;
  totals_.slo_ok = ok;
  last_eval_ = std::max(last_eval_, now);
}

bool FleetObserver::tick(sim::Time now) {
  if (!cells_.empty() && --selfcheck_countdown_ == 0) {
    selfcheck_countdown_ = kSelfcheckEvery;
    // Round-robin one switch (plus the desired digest) per cadence hit —
    // bounded work per feed, full coverage over time. The fleet changes its
    // state before it feeds, so here the Source agrees with the digests.
    ++totals_.selfchecks;
    const std::size_t sw = selfcheck_cursor_;
    selfcheck_cursor_ = (selfcheck_cursor_ + 1) % cells_.size();
    if (fold(source_.applied(sw)) != cells_[sw].digest ||
        fold(source_.desired()) != totals_.desired_digest) {
      ++totals_.selfcheck_failures;
    }
  }
  // The O(switches) lag/SLO recompute is amortized over the feed stream;
  // explicit evaluate() and lifecycle edges always run it.
  if (--eval_countdown_ != 0) return false;
  eval_countdown_ = kEvalEvery;
  evaluate_lags(now);
  return true;
}

void FleetObserver::check_all(sim::Time now) {
  for (std::size_t sw = 0; sw < cells_.size(); ++sw) check_switch(sw, now);
}

void FleetObserver::evaluate(sim::Time now) {
  if (!tick(now)) evaluate_lags(now);
  check_all(now);
}

bool FleetObserver::verify_digests() {
  bool ok = true;
  for (std::size_t sw = 0; sw < cells_.size(); ++sw) {
    if (fold(source_.applied(sw)) != cells_[sw].digest) ok = false;
  }
  if (fold(source_.desired()) != totals_.desired_digest) ok = false;
  ++totals_.selfchecks;
  if (!ok) ++totals_.selfcheck_failures;
  return ok;
}

// --- Introspection -----------------------------------------------------------

void FleetObserver::set_divergence_callback(DivergenceCallback cb) {
  divergence_cb_ = std::move(cb);
}

void FleetObserver::bind_metrics(MetricsRegistry& registry) {
  const auto bind = [this, &registry](const char* name, MetricKind kind,
                                      auto read, const char* help,
                                      const std::string& labels = {}) {
    registry.register_callback(
        name, kind, [this, read] { return static_cast<double>(read(*this)); },
        help, labels);
  };
  bind("silkroad_fleet_journal_lag_slo_ok", MetricKind::kGauge,
       [](const FleetObserver& o) { return o.totals_.slo_ok ? 1.0 : 0.0; },
       "1 while the convergence SLO holds (lagging fraction within target)");
  bind("silkroad_fleet_lagging_fraction", MetricKind::kGauge,
       [](const FleetObserver& o) { return o.totals_.lagging_fraction; },
       "Fraction of live switches currently in the lagging hysteresis state");
  bind("silkroad_fleet_slo_burn_ns_total", MetricKind::kCounter,
       [](const FleetObserver& o) { return o.totals_.slo_burn_ns; },
       "Sim-time nanoseconds spent with the convergence SLO violated");
  bind("silkroad_fleet_slo_transitions_total", MetricKind::kCounter,
       [](const FleetObserver& o) { return o.totals_.slo_transitions; },
       "Convergence SLO ok<->violated flips");
  bind("silkroad_fleet_divergences_total", MetricKind::kCounter,
       [](const FleetObserver& o) { return o.findings_.size(); },
       "Silent divergences detected (digest mismatch at equal watermark)");
  bind("silkroad_fleet_digest_selfchecks_total", MetricKind::kCounter,
       [](const FleetObserver& o) { return o.totals_.selfchecks; },
       "Full-recompute digest self-checks performed");
  bind("silkroad_fleet_digest_selfcheck_failures_total", MetricKind::kCounter,
       [](const FleetObserver& o) { return o.totals_.selfcheck_failures; },
       "Digest self-checks where incremental and recomputed values disagreed");
  bind("silkroad_fleet_unverifiable_checks_total", MetricKind::kCounter,
       [](const FleetObserver& o) { return o.totals_.unverifiable; },
       "Digest checks skipped because history was compacted past the "
       "switch's watermark");
  h_lag_ = registry.histogram(
      "silkroad_fleet_lag_positions",
      "Per-switch watermark lag in journal positions, recorded per "
      "evaluation");
  for (std::size_t sw = 0; sw < cells_.size(); ++sw) {
    const std::string labels = "switch=\"" + std::to_string(sw) + "\"";
    bind("silkroad_fleet_switch_lag_positions", MetricKind::kGauge,
         [sw](const FleetObserver& o) { return o.cells_[sw].lag; },
         "Journal positions between the head and this switch's effective "
         "watermark",
         labels);
    bind("silkroad_fleet_switch_lag_age_ns", MetricKind::kGauge,
         [sw](const FleetObserver& o) { return o.cells_[sw].age; },
         "Sim-time age of this switch's oldest unapplied journal mutation",
         labels);
  }
}

// --- Rendering ---------------------------------------------------------------

FleetObserver::LagSummary FleetObserver::lag_summary() const {
  LagSummary out;
  std::vector<std::uint64_t> lags;
  for (const SwitchCell& cell : cells_) {
    if (cell.state == SwitchState::kDown) continue;
    ++out.live;
    lags.push_back(cell.lag);
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

std::string FleetObserver::to_text() const {
  const Totals& t = totals_;
  std::string out;
  out += "=== fleet convergence observatory (DESIGN.md \xC2\xA7"
         "17) ===\n";
  append(out, "journal head: %" PRIu64 "\n", t.head);
  const LagSummary lag = lag_summary();
  append(out,
         "lag positions: p50=%" PRIu64 " p99=%" PRIu64 " max=%" PRIu64
         " (over %zu live switches)\n",
         lag.p50, lag.p99, lag.max, lag.live);
  append(out,
         "slo: %s (target %.2f%% within enter=%" PRIu64 "/exit=%" PRIu64
         " positions; lagging %zu/%zu)\n",
         t.slo_ok ? "ok" : "VIOLATED", 100.0 * kSloTarget, kLagEnter,
         kLagExit, lag.lagging, lag.live);
  append(out, "slo burn: %.6f s over %" PRIu64 " transition(s)\n",
         sim::to_seconds(t.slo_burn_ns), t.slo_transitions);
  append(out,
         "digests: desired=0x%016" PRIx64 " selfchecks=%" PRIu64
         " failures=%" PRIu64 " unverifiable=%" PRIu64 "\n",
         t.desired_digest, t.selfchecks, t.selfcheck_failures,
         t.unverifiable);
  append(out, "divergences: %zu%s\n", findings_.size(),
         findings_.empty() ? "" : "  << SILENT DIVERGENCE");
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
           sw, state_name(cell.state), cell.watermark, effective(cell),
           cell.lag, static_cast<double>(cell.age) / 1e6, cell.digest,
           resync.c_str(), cell.divergent ? "  DIVERGED" : "");
  }
  for (const auto& finding : findings_) {
    out += "\n";
    out += finding.to_text();
  }
  return out;
}

std::string FleetObserver::to_json() const {
  const Totals& t = totals_;
  std::string out;
  append(out, "{\"journal_head\":%" PRIu64, t.head);
  const LagSummary lag = lag_summary();
  append(out,
         ",\"lag\":{\"p50\":%" PRIu64 ",\"p99\":%" PRIu64 ",\"max\":%" PRIu64
         ",\"live\":%zu,\"lagging\":%zu}",
         lag.p50, lag.p99, lag.max, lag.live, lag.lagging);
  append(out,
         ",\"slo\":{\"ok\":%s,\"target\":%s,\"lag_enter\":%" PRIu64
         ",\"lag_exit\":%" PRIu64 ",\"burn_ns\":%" PRIu64
         ",\"transitions\":%" PRIu64 "}",
         t.slo_ok ? "true" : "false", format_number(kSloTarget).c_str(),
         kLagEnter, kLagExit, t.slo_burn_ns, t.slo_transitions);
  append(out,
         ",\"digest\":{\"desired\":\"0x%016" PRIx64
         "\",\"selfchecks\":%" PRIu64 ",\"selfcheck_failures\":%" PRIu64
         ",\"unverifiable\":%" PRIu64 "}",
         t.desired_digest, t.selfchecks, t.selfcheck_failures,
         t.unverifiable);
  append(out, ",\"divergences\":%zu", findings_.size());
  out += ",\"switches\":[";
  for (std::size_t sw = 0; sw < cells_.size(); ++sw) {
    const SwitchCell& cell = cells_[sw];
    if (sw != 0) out += ",";
    append(out,
           "\n  {\"index\":%zu,\"state\":\"%s\",\"watermark\":%" PRIu64
           ",\"effective_watermark\":%" PRIu64 ",\"lag_positions\":%" PRIu64
           ",\"lag_age_ns\":%" PRIu64 ",\"digest\":\"0x%016" PRIx64
           "\",\"lagging\":%s,\"divergent\":%s",
           sw, state_name(cell.state), cell.watermark, effective(cell),
           cell.lag, cell.age, cell.digest, cell.lagging ? "true" : "false",
           cell.divergent ? "true" : "false");
    append_sessions_json(out, cell.sessions);
    out += "}";
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
