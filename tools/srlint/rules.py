"""srlint rule catalog (DESIGN.md §13).

Every rule is a function FileModel -> list[Violation]. Scoping (which
directories a rule patrols) lives inside the rule so the catalog below is
the single source of truth; the engine applies suppressions and the
exemption manifest afterwards.

R1  no raw assert( in src/          — use SR_CHECK/SR_DCHECK (check/sr_check.h);
                                      assert() vanishes in RelWithDebInfo.
                                      static_assert is a distinct token and
                                      never matches.
R2  no rand()/std::rand() anywhere  — draw from sim::Rng so every run is
                                      seed-reproducible. Member `.rand()` is
                                      not flagged.
R3  no <iostream> in src/           — iostreams drag in static initializers;
                                      report through strings or cstdio.
R4  #pragma once in every header    — all .h/.hpp files, repo-wide.
R5  no ad-hoc `struct ...Stats` in src/ outside src/obs/ — counters belong in
                                      obs::MetricsRegistry (DESIGN.md §9);
                                      grandfathered snapshot views live in
                                      tools/srlint/exemptions.json.
R6  no printf/fprintf in src/ outside src/obs/ and src/check/ — report
                                      through metrics, traces, or returned
                                      strings; snprintf into buffers is fine.
R7  no TraceRing use in src/fault/ or src/deploy/ — the ring is a
                                      switch's store of flow and table
                                      events; the update lifecycle is
                                      recorded on obs::SpanCollector spans
                                      (DESIGN.md §12).
R8  no wall-clock / environment nondeterminism in src/ outside src/sim/ —
                                      getenv, time(), system_clock and
                                      friends make runs irreproducible; sim
                                      time comes from sim::Simulator.
R9  no bare std::mutex/std::lock_guard (and friends) in src/ — use the
                                      annotated sr::Mutex/sr::MutexLock from
                                      check/thread_annotations.h so clang
                                      -Wthread-safety sees every lock site.
R10 no iteration over an unordered container (std::unordered_*,
                                      net::FlatMap) that feeds control-channel
                                      sends, update-protocol calls or switch
                                      CPU tasks in src/ — iteration order is
                                      implementation-defined; snapshot and
                                      sort first (see fleet.cc apply_resync).
R11 retired — it required striped counters on the packet path, which the
                                      single-writer simulator no longer has;
                                      the id is not reused.
R12 no ad-hoc SRAM byte aggregation in src/ outside the capacity
                                      single-sources — folding sram_bytes()/
                                      bits_to_bytes()/..._table_bytes() results
                                      into +/-/*//(+=,-=) arithmetic re-derives
                                      totals that asic::silkroad_usage and
                                      obs::ResourceLedger (DESIGN.md §15)
                                      already own; inline totals drift silently
                                      when the cell model changes. Attribution
                                      sites carry `srlint: allow(R12)` or an
                                      exemptions.json entry.
R13 no direct resync-machinery invocation in src/ outside the channel —
                                      calling begin_resync_session()/resync_()
                                      bypasses ControlChannel::force_resync(),
                                      which wipes the in-flight window, bumps
                                      the receive epoch, and mints the session
                                      span before the catch-up is computed
                                      (DESIGN.md §16). The channel's ResyncFn
                                      binding site carries
                                      `srlint: allow(R13)`.
R14 no ad-hoc membership-digest hashing in src/deploy/ or src/obs/ —
                                      folding mix64()/hash_bytes()/... results
                                      into ^/^= XOR chains re-derives the
                                      per-VIP membership digests that
                                      obs::VipDigest and obs::FleetObserver
                                      (DESIGN.md §17) single-source; a second
                                      folding scheme drifts from the salts and
                                      token derivation the divergence detector
                                      compares against, turning every mismatch
                                      into a false alarm (or masking a real
                                      one). Non-digest hash uses (seed
                                      derivation, ECMP ranking) either avoid
                                      the XOR-fold shape or carry
                                      `srlint: allow(R14)`.
R15 one writer thread: no sr::Mutex/sr::MutexLock (qualified or not), no
                                      thread-safety annotation (SR_GUARDED_BY
                                      and friends) and no std::atomic/
                                      std::thread/std::jthread in src/ — the
                                      simulation thread is the
                                      only thread that touches a model object
                                      (DESIGN.md §13), so a lock or an atomic
                                      there guards against a thread that does
                                      not exist. The scrape server, whose
                                      thread serves only what publish()
                                      copied, and the header defining
                                      sr::Mutex carry exemptions.json
                                      entries.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from model import FileModel


class Violation(NamedTuple):
    rel: str
    line: int
    rule: str
    message: str


class Rule(NamedTuple):
    rule_id: str
    summary: str
    check: Callable[[FileModel], list["Violation"]]


# Tokens that put a following identifier in *expression* position. An
# identifier right before the name (e.g. `int rand()`, `double time(int)`)
# means a declaration of an unrelated symbol, not a call of the libc one.
_EXPR_CONTEXT = {"=", "(", ")", ",", ";", "{", "}", "return", "?", ":", "<",
                 ">", "+", "-", "*", "/", "%", "!", "&", "|", "["}


def _is_call(toks: list, i: int, std_qualified_ok: bool = True) -> bool:
    """True when the identifier at toks[i] is called as a free function:
    `name(` in expression position, or `std::name(`. Member access
    (`.name(`, `->name(`) and foreign scopes (`ns::name(`) never match."""
    if i + 1 >= len(toks) or toks[i + 1].value != "(":
        return False
    if i == 0:
        return True
    prev = toks[i - 1].value
    if prev == "::":
        return std_qualified_ok and i > 1 and toks[i - 2].value == "std"
    return prev in _EXPR_CONTEXT


def _in_src(model: FileModel) -> bool:
    return model.top == "src"


def _src_sub(model: FileModel) -> str:
    return model.parts[1] if _in_src(model) and len(model.parts) > 1 else ""


# --- R1 ---------------------------------------------------------------------


def check_r1(model: FileModel) -> list[Violation]:
    if not _in_src(model):
        return []
    out = []
    toks = model.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.value != "assert":
            continue
        if not _is_call(toks, i, std_qualified_ok=False):
            continue
        out.append(
            Violation(
                model.rel,
                t.line,
                "R1",
                "raw assert() in library code — use SR_CHECK/SR_DCHECK "
                "from check/sr_check.h",
            )
        )
    return out


# --- R2 ---------------------------------------------------------------------


def check_r2(model: FileModel) -> list[Violation]:
    out = []
    toks = model.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.value != "rand":
            continue
        if not _is_call(toks, i):
            continue  # member .rand(), ns::rand, or a declaration
        out.append(
            Violation(
                model.rel,
                t.line,
                "R2",
                "rand()/std::rand() — use sim::Rng for seed-reproducible "
                "randomness",
            )
        )
    return out


# --- R3 ---------------------------------------------------------------------


def check_r3(model: FileModel) -> list[Violation]:
    if not _in_src(model):
        return []
    out = []
    for d in model.directives:
        if d.text.replace(" ", "").startswith("#include<iostream>"):
            out.append(
                Violation(
                    model.rel, d.line, "R3", "<iostream> in library code"
                )
            )
    return out


# --- R4 ---------------------------------------------------------------------


def check_r4(model: FileModel) -> list[Violation]:
    if not model.is_header:
        return []
    for d in model.directives:
        if d.text.replace(" ", "") == "#pragmaonce":
            return []
    return [
        Violation(model.rel, 1, "R4", "header lacks '#pragma once'")
    ]


# --- R5 ---------------------------------------------------------------------


def check_r5(model: FileModel) -> list[Violation]:
    if not _in_src(model) or _src_sub(model) == "obs":
        return []
    out = []
    toks = model.tokens
    for i, t in enumerate(toks):
        if (
            t.kind == "ident"
            and t.value == "struct"
            and i + 1 < len(toks)
            and toks[i + 1].kind == "ident"
            and toks[i + 1].value.endswith("Stats")
        ):
            out.append(
                Violation(
                    model.rel,
                    toks[i + 1].line,
                    "R5",
                    "ad-hoc Stats struct — register the counters in "
                    "obs::MetricsRegistry instead",
                )
            )
    return out


# --- R6 ---------------------------------------------------------------------


def check_r6(model: FileModel) -> list[Violation]:
    if not _in_src(model) or _src_sub(model) in ("obs", "check"):
        return []
    out = []
    toks = model.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.value not in ("printf", "fprintf"):
            continue
        if not _is_call(toks, i):
            continue  # member call, foreign scope, or a declaration
        out.append(
            Violation(
                model.rel,
                t.line,
                "R6",
                "printf/fprintf in library code — report through metrics, "
                "traces, or returned strings",
            )
        )
    return out


# --- R7 ---------------------------------------------------------------------


def check_r7(model: FileModel) -> list[Violation]:
    if _src_sub(model) not in ("fault", "deploy"):
        return []
    out = []
    sub = _src_sub(model)
    for t in model.tokens:
        if t.kind == "ident" and t.value == "TraceRing":
            out.append(
                Violation(
                    model.rel,
                    t.line,
                    "R7",
                    f"TraceRing in {sub}/ — record the update lifecycle on "
                    "the obs::SpanCollector instead",
                )
            )
    return out


# --- R8 ---------------------------------------------------------------------

# Identifiers that are nondeterministic by *name* (clock types, env access).
_R8_NAMES = {
    "getenv",
    "gettimeofday",
    "clock_gettime",
    "localtime",
    "gmtime",
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "random_device",
}
# Nondeterministic only when called (too common as plain names otherwise).
_R8_CALLS = {"time", "clock"}


def check_r8(model: FileModel) -> list[Violation]:
    if not _in_src(model) or _src_sub(model) == "sim":
        return []
    out = []
    toks = model.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        flagged = False
        if t.value in _R8_NAMES:
            if i > 0 and toks[i - 1].value in (".", "->"):
                pass  # member access — a different symbol
            elif (
                i > 1
                and toks[i - 1].value == "::"
                and toks[i - 2].value not in ("std", "chrono")
            ):
                pass  # scoped in some other namespace
            else:
                flagged = True
        elif t.value in _R8_CALLS:
            flagged = _is_call(toks, i)
        if flagged:
            out.append(
                Violation(
                    model.rel,
                    t.line,
                    "R8",
                    f"'{t.value}' is wall-clock/environment nondeterminism — "
                    "simulation inputs come from sim::Simulator and seeds",
                )
            )
    return out


# --- R9 ---------------------------------------------------------------------

_R9_NAMES = {
    "mutex",
    "recursive_mutex",
    "timed_mutex",
    "recursive_timed_mutex",
    "shared_mutex",
    "shared_timed_mutex",
    "lock_guard",
    "unique_lock",
    "scoped_lock",
    "shared_lock",
    "condition_variable",
    "condition_variable_any",
}


def check_r9(model: FileModel) -> list[Violation]:
    if not _in_src(model):
        return []
    out = []
    toks = model.tokens
    for i, t in enumerate(toks):
        if (
            t.kind == "ident"
            and t.value in _R9_NAMES
            and i > 1
            and toks[i - 1].value == "::"
            and toks[i - 2].value == "std"
        ):
            out.append(
                Violation(
                    model.rel,
                    t.line,
                    "R9",
                    f"bare std::{t.value} — use the annotated sr::Mutex/"
                    "sr::MutexLock from check/thread_annotations.h so clang "
                    "-Wthread-safety sees the lock site",
                )
            )
    return out


# --- R10 --------------------------------------------------------------------

# Calls that feed the control channels, the 3-step update protocol or the
# switch CPU's task queue; their argument/issue order must not depend on
# unordered iteration order.
_R10_SINKS = {
    "send",
    "request_update",
    "add_vip",
    "handle_dip_failure",
    "finish_update",
    "enqueue",
}


def check_r10(model: FileModel) -> list[Violation]:
    if not _in_src(model):
        return []
    out = []
    toks = model.tokens
    decls = model.unordered_decls
    i = 0
    while i < len(toks):
        t = toks[i]
        if (
            t.kind == "ident"
            and t.value == "for"
            and i + 1 < len(toks)
            and toks[i + 1].value == "("
        ):
            colon, close = _range_for_parts(toks, i + 1)
            if colon is not None and close is not None:
                target = _range_container(toks[colon + 1 : close])
                if target is not None and target in decls:
                    body_end = _body_end(toks, close + 1)
                    sink = _first_sink(toks, close + 1, body_end)
                    if sink is not None:
                        out.append(
                            Violation(
                                model.rel,
                                t.line,
                                "R10",
                                f"iterating unordered container '{target}' "
                                f"feeds '{sink}' — iteration order is "
                                "implementation-defined; snapshot into a "
                                "sorted vector first",
                            )
                        )
                    i = body_end
                    continue
        i += 1
    return out


def _range_for_parts(
    toks: list, open_idx: int
) -> tuple[int | None, int | None]:
    """For tokens starting at `(`: (index of the range-for ':' at depth 1,
    index of the matching ')'). The ':' of a ternary inside nested parens
    sits at depth > 1 and is ignored; `::` is a single distinct token."""
    depth = 0
    colon = None
    i = open_idx
    while i < len(toks):
        v = toks[i].value
        if v == "(":
            depth += 1
        elif v == ")":
            depth -= 1
            if depth == 0:
                return colon, i
        elif v == ":" and depth == 1 and colon is None:
            colon = i
        i += 1
    return None, None


def _range_container(expr: list) -> str | None:
    """The container identifier when the range expression IS a container
    (`m`, `*m`, `this->m`) — method-call results (`m.at(k)`) return None so
    a vector pulled out of a map is never mistaken for the map."""
    vals = [e.value for e in expr]
    if len(expr) == 1 and expr[0].kind == "ident":
        return vals[0]
    if len(expr) == 2 and vals[0] == "*" and expr[1].kind == "ident":
        return vals[1]
    if (
        len(expr) == 3
        and vals[0] == "this"
        and vals[1] == "->"
        and expr[2].kind == "ident"
    ):
        return vals[2]
    return None


def _body_end(toks: list, i: int) -> int:
    """Index one past the loop body starting at toks[i] (a `{` block or a
    single statement up to `;`)."""
    if i < len(toks) and toks[i].value == "{":
        depth = 0
        while i < len(toks):
            v = toks[i].value
            if v == "{":
                depth += 1
            elif v == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return i
    depth = 0
    while i < len(toks):
        v = toks[i].value
        if v in "([{":
            depth += 1
        elif v in ")]}":
            depth -= 1
        elif v == ";" and depth == 0:
            return i + 1
        i += 1
    return i


def _first_sink(toks: list, start: int, end: int) -> str | None:
    for i in range(start, min(end, len(toks))):
        t = toks[i]
        if (
            t.kind == "ident"
            and t.value in _R10_SINKS
            and i + 1 < len(toks)
            and toks[i + 1].value == "("
        ):
            return t.value
    return None


# --- R12 --------------------------------------------------------------------

# Functions whose return value is an SRAM byte count. Summing or scaling
# them inline re-derives capacity math that the single-source files below
# already own; the totals drift silently when the cell model changes.
_R12_BYTE_CALLS = {
    "sram_bytes",
    "sram_bytes_for_entries",
    "conn_table_bytes",
    "dip_pool_table_bytes",
    "pool_table_bytes",
    "byte_count",
    "bits_to_bytes",
}
# Binary arithmetic that marks aggregation. `=` alone (snapshotting a count)
# is fine; `+=`/`-=` lex as two tokens and are handled in _r12_compound.
_R12_OPS = {"+", "-", "*", "/"}
# The capacity single-sources: the static SRAM models and the live ledger.
_R12_ALLOWED = {
    "src/asic/resources.h",
    "src/asic/resources.cc",
    "src/asic/sram.h",
    "src/core/memory_model.h",
    "src/core/memory_model.cc",
    "src/obs/capacity.h",
    "src/obs/capacity.cc",
}


def _r12_chain_start(toks: list, i: int) -> int:
    """Index of the token just before the object/scope chain ending at
    toks[i]: walks left over identifiers and `.`/`->`/`::` connectors, so
    for `usage.versions->pool_table_bytes` it lands before `usage`."""
    j = i - 1
    while j >= 0 and (
        toks[j].kind == "ident" or toks[j].value in (".", "->", "::")
    ):
        j -= 1
    return j


def _r12_close_paren(toks: list, open_idx: int) -> int | None:
    depth = 0
    for k in range(open_idx, len(toks)):
        v = toks[k].value
        if v == "(":
            depth += 1
        elif v == ")":
            depth -= 1
            if depth == 0:
                return k
    return None


def _r12_compound(toks: list, j: int) -> bool:
    """True when toks[j] is the `=` of a `+=`/`-=` (lexed as two tokens).
    `==`, `<=`, `>=`, `!=` keep their non-arithmetic first char and stay
    clean."""
    return (
        j > 0
        and toks[j].value == "="
        and toks[j - 1].value in ("+", "-")
        and toks[j - 1].line == toks[j].line
    )


def check_r12(model: FileModel) -> list[Violation]:
    if not _in_src(model) or model.rel in _R12_ALLOWED:
        return []
    out = []
    toks = model.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.value not in _R12_BYTE_CALLS:
            continue
        if i + 1 >= len(toks) or toks[i + 1].value != "(":
            continue  # a field or declaration, not a call
        j = _r12_chain_start(toks, i)
        before = toks[j].value if j >= 0 else ""
        close = _r12_close_paren(toks, i + 1)
        after = (
            toks[close + 1].value
            if close is not None and close + 1 < len(toks)
            else ""
        )
        aggregated = (
            before in _R12_OPS
            or _r12_compound(toks, j)
            or after in _R12_OPS
        )
        if aggregated:
            out.append(
                Violation(
                    model.rel,
                    t.line,
                    "R12",
                    f"'{t.value}()' folded into ad-hoc SRAM byte arithmetic "
                    "— capacity totals belong to asic::silkroad_usage / "
                    "obs::ResourceLedger (DESIGN.md §15); attribution sites "
                    "may suppress with 'srlint: allow(R12) <reason>'",
                )
            )
    return out


# --- R13 --------------------------------------------------------------------

# The resync-session machinery: the fleet's session opener and the
# ControlChannel's stored ResyncFn. ControlChannel::force_resync() is the one
# sanctioned entry — it wipes the in-flight window, bumps the receive epoch,
# and mints the session span before asking for the catch-up.
_R13_NAMES = {"begin_resync_session", "resync_"}
# The channel invokes its own ResyncFn from inside force_resync().
_R13_ALLOWED = {"src/fault/control_channel.cc"}


def check_r13(model: FileModel) -> list[Violation]:
    if not _in_src(model) or model.rel in _R13_ALLOWED:
        return []
    out = []
    toks = model.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.value not in _R13_NAMES:
            continue
        if i + 1 >= len(toks) or toks[i + 1].value != "(":
            continue  # a field, declaration type position, or bare mention
        prev = toks[i - 1].value if i > 0 else ""
        invoked = prev in (".", "->") or _is_call(
            toks, i, std_qualified_ok=False
        )
        if not invoked:
            continue  # declaration (`void begin_resync_session(...)`) or
            # qualified definition (`SilkRoadFleet::begin_resync_session`)
        out.append(
            Violation(
                model.rel,
                t.line,
                "R13",
                f"direct '{t.value}()' invocation — resync sessions begin "
                "only through ControlChannel::force_resync(), which wipes "
                "the window, bumps the epoch, and mints the session span "
                "first (DESIGN.md §16); the channel's ResyncFn binding may "
                "suppress with 'srlint: allow(R13) <reason>'",
            )
        )
    return out


# --- R14 --------------------------------------------------------------------

# Hash primitives whose results, XOR-folded together, form a membership
# digest. Any of these in a `^`/`^=` chain inside the digest-consuming
# directories re-derives obs::VipDigest's scheme by hand.
_R14_HASH_CALLS = {
    "mix64",
    "hash_bytes",
    "hash_five_tuple",
    "crc32c",
    "connection_digest",
}
# The sanctioned digest implementation: VipDigest's token derivation and the
# FleetObserver folds that consume it.
_R14_ALLOWED = {
    "src/obs/convergence.h",
    "src/obs/convergence.cc",
}


def _r14_xor_compound(toks: list, j: int) -> bool:
    """True when toks[j] is the `=` of a `^=` (lexed as two tokens, like the
    R12 `+=`/`-=` case). `==`/`!=` etc. keep a non-`^` first char."""
    return (
        j > 0
        and toks[j].value == "="
        and toks[j - 1].value == "^"
        and toks[j - 1].line == toks[j].line
    )


def check_r14(model: FileModel) -> list[Violation]:
    if _src_sub(model) not in ("deploy", "obs") or model.rel in _R14_ALLOWED:
        return []
    out = []
    toks = model.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.value not in _R14_HASH_CALLS:
            continue
        if i + 1 >= len(toks) or toks[i + 1].value != "(":
            continue  # a field, declaration type position, or bare mention
        j = _r12_chain_start(toks, i)
        before = toks[j].value if j >= 0 else ""
        close = _r12_close_paren(toks, i + 1)
        after = (
            toks[close + 1].value
            if close is not None and close + 1 < len(toks)
            else ""
        )
        folded = (
            before == "^"
            or _r14_xor_compound(toks, j)
            or after == "^"
        )
        if folded:
            out.append(
                Violation(
                    model.rel,
                    t.line,
                    "R14",
                    f"'{t.value}()' XOR-folded into an ad-hoc membership "
                    "digest — per-VIP membership digests come only from "
                    "obs::VipDigest / obs::FleetObserver (DESIGN.md §17); "
                    "non-digest hash uses may suppress with "
                    "'srlint: allow(R14) <reason>'",
                )
            )
    return out


# --- R15 --------------------------------------------------------------------

# std:: names that start a second thread or share a variable with one.
_R15_STD = {"atomic", "thread", "jthread"}
# The repo's own lock types (check/thread_annotations.h).
_R15_SR = {"Mutex", "MutexLock"}
# Its thread-safety annotations; SR_CHECK and the other SR_ macros are not.
_R15_ANNOTATIONS = {
    "SR_CAPABILITY",
    "SR_SCOPED_CAPABILITY",
    "SR_GUARDED_BY",
    "SR_PT_GUARDED_BY",
    "SR_REQUIRES",
    "SR_ACQUIRE",
    "SR_RELEASE",
    "SR_TRY_ACQUIRE",
    "SR_EXCLUDES",
    "SR_RETURN_CAPABILITY",
    "SR_NO_THREAD_SAFETY_ANALYSIS",
}


def check_r15(model: FileModel) -> list[Violation]:
    if not _in_src(model):
        return []
    out = []
    toks = model.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        prev = toks[i - 1].value if i > 0 else ""
        scope = toks[i - 2].value if i > 1 and prev == "::" else None
        if t.value in _R15_STD:
            flagged = scope == "std"
        elif t.value in _R15_SR:
            # sr::Mutex, or a bare Mutex brought in by a using-declaration;
            # another scope's Mutex, a member or a new type of that name is
            # someone else's.
            flagged = (scope == "sr" if prev == "::"
                       else prev not in (".", "->", "struct", "class"))
        else:
            flagged = t.value in _R15_ANNOTATIONS
        if flagged:
            out.append(
                Violation(
                    model.rel,
                    t.line,
                    "R15",
                    f"'{t.value}' names a lock, a thread-safety annotation, an "
                    "atomic or a thread — the simulation thread is the only "
                    "thread that touches model state; share state with the "
                    "scrape server through ScrapeServer::publish()",
                )
            )
    return out


RULES: list[Rule] = [
    Rule("R1", "no raw assert() in src/ (use SR_CHECK/SR_DCHECK)", check_r1),
    Rule("R2", "no rand()/std::rand() anywhere (use sim::Rng)", check_r2),
    Rule("R3", "no <iostream> in src/", check_r3),
    Rule("R4", "#pragma once in every header", check_r4),
    Rule("R5", "no ad-hoc `struct ...Stats` in src/ outside src/obs/", check_r5),
    Rule("R6", "no printf/fprintf in src/ outside src/obs/, src/check/", check_r6),
    Rule("R7", "no TraceRing in src/fault|deploy", check_r7),
    Rule("R8", "no wall-clock/getenv nondeterminism in src/ outside src/sim/", check_r8),
    Rule("R9", "no bare std::mutex family in src/ (use sr:: wrappers)", check_r9),
    Rule("R10", "no unordered iteration feeding channel/protocol calls", check_r10),
    Rule("R12", "no ad-hoc SRAM byte aggregation outside capacity sources", check_r12),
    Rule("R13", "no direct resync-machinery invocation outside the channel", check_r13),
    Rule("R14", "no ad-hoc membership-digest hashing in src/deploy|obs", check_r14),
    Rule("R15", "one writer thread: no lock/atomic/thread in src/", check_r15),
]

RULE_IDS = {r.rule_id for r in RULES}
