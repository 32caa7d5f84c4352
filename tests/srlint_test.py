#!/usr/bin/env python3
"""srlint engine test (DESIGN.md §13).

Two halves:

1. Fixtures: runs srlint over tests/srlint_fixtures/ (a miniature repo tree)
   and compares the reported (file, line, rule) triples — exact line
   numbers — against the `// srlint-expect: RN` markers embedded in the
   fixture files. Every rule R1–R10 and R12–R15 (R11 is retired) and the
   S1/S2 suppression diagnostics have positive cases; negative cases
   (tokens in strings/comments/raw strings, scope carve-outs, member calls)
   must stay silent.

2. Real tree: the repository itself must lint clean — this is the same
   invocation the `lint` ctest and CI run.

3. Mutation: a fresh ad-hoc digest fold injected into a synthetic tree must
   be caught by R14 (the fixtures alone could pass with a rule that merely
   memorizes their lines), and the identical code at the VipDigest carve-out
   path must stay silent.

Registered as the `srlint_test` ctest.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "srlint_fixtures"
SRLINT = REPO_ROOT / "tools" / "srlint"
CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}
EXPECT = re.compile(r"srlint-expect:\s*([A-Z0-9, ]+)")
# R11 (striped packet-path counters) was retired with the striped counters;
# later rules keep their ids because suppressions in src/ name them.
ACTIVE_RULES = [f"R{n}" for n in range(1, 16) if n != 11]


def expected_from_markers() -> Counter:
    expected: Counter = Counter()
    for path in sorted(FIXTURES.rglob("*")):
        if path.suffix not in CXX_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(FIXTURES).as_posix()
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            m = EXPECT.search(line)
            if not m:
                continue
            for rule in re.split(r"[,\s]+", m.group(1).strip()):
                if rule:
                    expected[(rel, lineno, rule)] += 1
    return expected


def run_srlint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SRLINT), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def check_fixtures() -> list[str]:
    errors: list[str] = []
    proc = run_srlint("--root", str(FIXTURES), "--format", "json")
    if proc.returncode != 1:
        errors.append(
            f"fixture run: expected exit 1 (violations present), got "
            f"{proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
        return errors
    data = json.loads(proc.stdout)
    actual: Counter = Counter(
        (v["file"], v["line"], v["rule"]) for v in data["violations"]
    )
    expected = expected_from_markers()
    for key in sorted(expected.keys() - actual.keys()):
        errors.append(f"expected but not reported: {key}")
    for key in sorted(actual.keys() - expected.keys()):
        errors.append(f"reported but not expected: {key}")
    for key in sorted(expected.keys() & actual.keys()):
        if expected[key] != actual[key]:
            errors.append(
                f"count mismatch at {key}: expected {expected[key]}, "
                f"reported {actual[key]}"
            )
    if not expected:
        errors.append("no srlint-expect markers found — fixture tree broken")
    # Every rule must have at least one positive fixture.
    covered = {rule for (_, _, rule) in expected}
    for rule in ACTIVE_RULES + ["S1", "S2"]:
        if rule not in covered:
            errors.append(f"rule {rule} has no positive fixture")
    return errors


def check_real_tree() -> list[str]:
    proc = run_srlint()
    if proc.returncode != 0:
        return [
            f"real tree must lint clean, exit {proc.returncode}\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
        ]
    return []


def check_list_rules() -> list[str]:
    proc = run_srlint("--list-rules")
    if proc.returncode != 0:
        return [f"--list-rules failed: {proc.stderr}"]
    listed = proc.stdout.split()
    missing = [rule for rule in ACTIVE_RULES if rule not in listed]
    return [f"--list-rules missing {missing}"] if missing else []


def check_r14_mutation() -> list[str]:
    """R14 must catch a digest fold it has never seen, and the carve-out for
    the sanctioned implementation must be path-exact, not name-based."""
    snippet = (
        "#include <cstdint>\n"
        "std::uint64_t fold(std::uint64_t d, std::uint64_t x) {\n"
        "  d ^= silkroad::net::mix64(x);\n"
        "  return d;\n"
        "}\n"
    )
    errors: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        mutant = root / "src" / "deploy" / "mutant.cc"
        carved = root / "src" / "obs" / "convergence.cc"
        for path in (mutant, carved):
            path.parent.mkdir(parents=True)
            path.write_text(snippet, encoding="utf-8")
        proc = run_srlint("--root", str(root), "--format", "json")
        if proc.returncode != 1:
            return [
                f"mutation run: expected exit 1, got {proc.returncode}\n"
                f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
            ]
        reported = {
            (v["file"], v["line"], v["rule"])
            for v in json.loads(proc.stdout)["violations"]
        }
        if ("src/deploy/mutant.cc", 3, "R14") not in reported:
            errors.append(
                f"mutated digest fold not caught by R14: {sorted(reported)}"
            )
        carved_hits = [r for r in reported if r[0] == "src/obs/convergence.cc"]
        if carved_hits:
            errors.append(
                f"carve-out file reported violations: {sorted(carved_hits)}"
            )
    return errors


def main() -> int:
    errors = (
        check_fixtures()
        + check_real_tree()
        + check_list_rules()
        + check_r14_mutation()
    )
    if errors:
        print(f"srlint_test: {len(errors)} failure(s)")
        for e in errors:
            print(f"  {e}")
        return 1
    print("srlint_test: fixtures match, real tree clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
