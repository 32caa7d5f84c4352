"""srlint engine: file discovery, suppressions, exemptions, reporting.

Suppressions (DESIGN.md §13): a comment of the form

    // srlint: allow(R8) reason text

suppresses the listed rules on its target line — the comment's own line when
it trails code, otherwise the next line that holds code (so a standalone
justification block above the statement works). The reason is mandatory.

Engine diagnostics (never suppressible):
  S1  malformed suppression — unparseable allow(...), unknown rule id, or a
      missing reason.
  S2  unused suppression — the allow() suppressed nothing; stale allows are
      deleted, not kept "just in case".
  S3  unused exemption — a tools/srlint/exemptions.json entry matched no
      violation; the manifest must not rot.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import NamedTuple

from model import FileModel, build_model
from rules import RULE_IDS, RULES, Violation

SCAN_DIRS = ("src", "tests", "bench", "examples")
CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}
# Fixture mini-trees are linted only via --root pointing *at* them.
SKIP_PART = "srlint_fixtures"

_ALLOW_RE = re.compile(r"srlint:\s*allow\s*\(([^)]*)\)\s*(.*)", re.DOTALL)
_MARKER_RE = re.compile(r"srlint:")
_EXPECT_RE = re.compile(r"srlint-expect:")


class Suppression(NamedTuple):
    comment_line: int
    target_line: int
    rules: tuple[str, ...]


def iter_files(root: Path) -> list[Path]:
    files: list[Path] = []
    for dirname in SCAN_DIRS:
        base = root / dirname
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            if SKIP_PART in path.relative_to(root).parts:
                continue
            files.append(path)
    return files


def load_exemptions(root: Path) -> dict[str, dict[str, str]]:
    """{"R5": {"src/lb/scenario.h": "reason"}, ...} or {} when absent."""
    manifest = root / "tools" / "srlint" / "exemptions.json"
    if not manifest.is_file():
        return {}
    data = json.loads(manifest.read_text(encoding="utf-8"))
    for rule_id, entries in data.items():
        if rule_id not in RULE_IDS:
            raise ValueError(
                f"exemptions.json: unknown rule id {rule_id!r}"
            )
        for rel, reason in entries.items():
            if not isinstance(reason, str) or not reason.strip():
                raise ValueError(
                    f"exemptions.json: {rule_id}/{rel} needs a reason string"
                )
    return data


def collect_suppressions(
    model: FileModel,
) -> tuple[list[Suppression], list[Violation]]:
    """Parses `srlint: allow(...)` comments; returns the suppressions plus
    S1 diagnostics for malformed ones."""
    suppressions: list[Suppression] = []
    diags: list[Violation] = []
    for comment in model.comments:
        if not _MARKER_RE.search(comment.text):
            continue
        if _EXPECT_RE.search(comment.text):
            continue  # fixture expectation markers, not suppressions
        m = _ALLOW_RE.search(comment.text)
        if not m:
            diags.append(
                Violation(
                    model.rel,
                    comment.line,
                    "S1",
                    "malformed srlint comment — expected "
                    "'// srlint: allow(Rn[,Rm]) reason'",
                )
            )
            continue
        rules = tuple(r.strip() for r in m.group(1).split(",") if r.strip())
        reason = m.group(2).strip().lstrip("*/").strip()
        unknown = [r for r in rules if r not in RULE_IDS]
        if not rules or unknown:
            diags.append(
                Violation(
                    model.rel,
                    comment.line,
                    "S1",
                    f"suppression names unknown rule(s) "
                    f"{unknown or ['<none>']} — known: R1..R10, R12..R14",
                )
            )
            continue
        if not reason:
            diags.append(
                Violation(
                    model.rel,
                    comment.line,
                    "S1",
                    "suppression lacks a reason — justify every allow()",
                )
            )
            continue
        if comment.standalone:
            target = _next_code_line(model, comment.line)
        else:
            target = comment.line
        suppressions.append(Suppression(comment.line, target, rules))
    return suppressions, diags


def _next_code_line(model: FileModel, after: int) -> int:
    candidates = [ln for ln in model.lex.code_lines if ln > after]
    return min(candidates) if candidates else after


def lint_file(
    model: FileModel, exemptions: dict[str, dict[str, str]],
    used_exemptions: set[tuple[str, str]],
) -> list[Violation]:
    raw: list[Violation] = []
    for rule in RULES:
        raw.extend(rule.check(model))

    suppressions, diags = collect_suppressions(model)
    used: set[int] = set()  # indices into `suppressions`

    kept: list[Violation] = []
    for v in raw:
        if v.rel in exemptions.get(v.rule, {}):
            used_exemptions.add((v.rule, v.rel))
            continue
        suppressed = False
        for idx, s in enumerate(suppressions):
            if v.line == s.target_line and v.rule in s.rules:
                used.add(idx)
                suppressed = True
        if not suppressed:
            kept.append(v)

    for idx, s in enumerate(suppressions):
        if idx not in used:
            diags.append(
                Violation(
                    model.rel,
                    s.comment_line,
                    "S2",
                    f"unused suppression allow({','.join(s.rules)}) — "
                    "delete it or move it to the offending line",
                )
            )
    return kept + diags


def run(root: Path) -> tuple[list[Violation], int]:
    """Lints the tree under `root`; returns (violations, files checked)."""
    exemptions = load_exemptions(root)
    used_exemptions: set[tuple[str, str]] = set()
    violations: list[Violation] = []
    files = iter_files(root)
    for path in files:
        model = build_model(root, path)
        violations.extend(lint_file(model, exemptions, used_exemptions))

    for rule_id, entries in exemptions.items():
        for rel in entries:
            if (rule_id, rel) not in used_exemptions:
                violations.append(
                    Violation(
                        "tools/srlint/exemptions.json",
                        0,
                        "S3",
                        f"unused exemption {rule_id} for {rel} — the "
                        "manifest must only carry live exceptions",
                    )
                )

    violations.sort(key=lambda v: (v.rel, v.line, v.rule))
    return violations, len(files)
