// Runtime invariant auditor for the SilkRoad PCC state machine.
//
// The paper's guarantees are structural: per-connection consistency holds
// because every ConnTable entry resolves through a DIP-pool version that is
// still alive (§4.2), version numbers are recycled only once no connection
// references them (§4.4), and the TransitTable is consulted only inside an
// open 3-step update window (§4.3). The auditor walks a SilkRoadSwitch and
// re-derives each of those facts from scratch, reporting every divergence it
// finds instead of aborting on the first — so tests can assert on the precise
// violation set. It walks each structure once per audit: the flow-record slab,
// every VIP's version lists, and the ConnTable's slots in slot order, which
// also counts them for sram-accounting (DESIGN.md §8).
//
// Invariant families (the `invariant` field of each Violation):
//   "version-liveness"    — every version referenced by a pending (non-dead)
//                           connection has a live pool in its VIP's manager.
//   "refcount-match"      — VersionManager refcounts equal the number of
//                           connections the switch CPU tracks per version,
//                           and every tracked flow is pending or installed.
//   "version-recycling"   — the free ring buffer and the live pool set
//                           partition the version space; a recycled version
//                           is never referenced by any entry or pending flow.
//   "transit-window"      — the TransitTable is empty whenever no 3-step
//                           update is in flight; in-flight state (update VIP,
//                           old/new versions, member sets) is coherent.
//   "sram-accounting"     — reported SRAM usage matches the table geometry
//                           and the physical slot occupancy matches the CPU
//                           shadow index (no phantom entries).
//   "dip-pool-coverage"   — every (VIP, version) pair a ConnTable entry can
//                           resolve to has a DIPPoolTable pool, including
//                           each VIP's current version.
//
// `SilkRoadSwitch::self_check()` (defined in invariant_auditor.cc) runs the
// auditor and SR_CHECK-fails on any violation; the scenario driver calls it
// after every pool-update step, so tier-1 audits continuously.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/silkroad_switch.h"
#include "net/five_tuple.h"

namespace silkroad::check {

struct Violation {
  std::string invariant;  ///< Family id, e.g. "refcount-match".
  std::string detail;     ///< Human-readable specifics.
  /// Offending VIP (its interned trace-scope name) when the violation is
  /// attributable to one; empty otherwise. self_check() uses it to dump the
  /// VIP's recent ring events and update steps alongside the failure.
  std::string vip;
  /// Offending DIP-pool version, when one is implicated.
  std::optional<std::uint32_t> version;

  std::string to_string() const { return invariant + ": " + detail; }
};

class InvariantAuditor {
 public:
  explicit InvariantAuditor(const core::SilkRoadSwitch& sw) : sw_(sw) {}

  /// Runs every invariant family; returns all violations found (empty on a
  /// healthy switch), grouped by family in the order listed above.
  std::vector<Violation> audit() const;

 private:
  struct Vip;
  struct Pass;

  /// The per-audit VIP table (invariant_auditor.cc).
  Pass begin_pass() const;
  /// One walk each. The families they finish are appended to `out`; what a
  /// later family reports is kept in `pass`.
  void walk_records(Pass& pass, std::vector<Violation>& out) const;
  void walk_version_lists(Pass& pass, std::vector<Violation>& out) const;
  void walk_conn_table(Pass& pass) const;
  /// The families that read what the walks gathered.
  void check_version_recycling(const Pass& pass,
                               std::vector<Violation>& out) const;
  void check_transit_window(Pass& pass, std::vector<Violation>& out) const;
  void check_sram_accounting(const Pass& pass,
                             std::vector<Violation>& out) const;
  void check_dip_pool_coverage(Pass& pass, std::vector<Violation>& out) const;

  const core::SilkRoadSwitch& sw_;
};

/// Deliberate state-corruption hooks for check_test.cc: the auditor must be
/// *proven* able to fail, so each hook plants one class of violation that a
/// subsequent audit() is asserted to report. Never use outside tests.
struct TestingHooks {
  /// Acquires a phantom reference on `vip`'s current version without
  /// tracking a connection (refcount skew).
  static void skew_refcount(core::SilkRoadSwitch& sw, const net::Endpoint& vip);

  /// Installs a ConnTable entry stamped with `version` without any
  /// control-plane tracking — pass a recycled (free) version number to plant
  /// a stale version reference (§4.4 hazard).
  static void inject_stale_conn_entry(core::SilkRoadSwitch& sw,
                                      const net::FiveTuple& flow,
                                      std::uint32_t version);

  /// Desynchronizes the physical slot array from the CPU shadow index
  /// (phantom SRAM accounting): clears one occupied slot's used bit if any
  /// entry exists, otherwise fabricates an occupied slot.
  static void corrupt_slot_accounting(core::SilkRoadSwitch& sw);

  /// Inserts `flow` into the TransitTable while no update window is open.
  static void pollute_transit(core::SilkRoadSwitch& sw,
                              const net::FiveTuple& flow);

  /// Also lists `flow`'s record under the next version number of its VIP:
  /// a flow tracked under two versions.
  static void track_under_second_version(core::SilkRoadSwitch& sw,
                                         const net::FiveTuple& flow);

  /// Erases an installed flow's ConnTable entry behind the switch's back:
  /// its record still says installed and stays tracked, so only the
  /// ConnTable's exact index shows that the flow is gone.
  static void drop_conn_entry(core::SilkRoadSwitch& sw,
                              const net::FiveTuple& flow);

  /// Puts a flow that has no pending insertion in S2 (`transit_member`) or
  /// in S, the pre-update wait set.
  static void flag_unresolvable(core::SilkRoadSwitch& sw,
                                const net::FiveTuple& flow,
                                bool transit_member);

  /// Points a pending flow's record at `version` (pass a free one) while it
  /// stays listed under its old version.
  static void repin_pending(core::SilkRoadSwitch& sw,
                            const net::FiveTuple& flow, std::uint32_t version);
};

}  // namespace silkroad::check
