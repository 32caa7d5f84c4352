#!/usr/bin/env python3
"""Bench-regression gate: compare candidate BENCH_*.json against baselines.

The bench harnesses emit their headline numbers as BENCH_<name>.json (obs
JSON exporter format, DESIGN.md §9). This gate re-runs the deterministic
benches in CI and fails if any headline drifts beyond its tolerance, so a
perf- or model-regression cannot land silently.

Usage:
  scripts/bench_gate.py --candidate-dir /tmp/bench_out
  scripts/bench_gate.py --candidate-dir /tmp/bench_out --baseline-dir bench/baselines
  scripts/bench_gate.py --exact --candidate-dir /tmp/bench_out
  scripts/bench_gate.py --self-test

Comparison rule per metric:
  pass iff |candidate - baseline| <= abs_tol + rel_tol * |baseline|

Tolerances come from <baseline-dir>/tolerances.json:
  {
    "default_rel_tol": 0.05,
    "default_abs_tol": 1e-9,
    "overrides": { "<bench>.<metric>": {"rel_tol": 0.2, "abs_tol": 1.0} }
  }
--exact replaces default_rel_tol with EXACT_REL_TOL (1e-9) for every metric
without an override, so a change meant to keep the seeded model bit-identical
can prove it; overridden metrics (timing ratios, fault-exercise counters) keep
their bands. CI keeps the tolerant default: the committed baselines come from
another machine, and libm or compiler differences may move a last digit.

Override keys are "<bench>.<metric>" where <bench> is the BENCH_<bench>.json
stem and <metric> the sample name (labels are appended as {labels} when
present). Missing benches or metrics on either side fail the gate: a deleted
headline is a regression until the baseline is re-recorded. An override whose
key names no metric in any baseline fails too, so a deleted headline's band
goes with it. Keys starting with "_" are comments.

Coverage: every bench target declared in bench/CMakeLists.txt must either
have a committed baseline or an EXEMPT_BENCHES entry (with a reason) below —
an unbaselined, unexempted bench fails the gate, as does a candidate
BENCH_*.json with no baseline. A bench can never land ungated by omission.

To refresh baselines intentionally (tolerated drift or a model change), run
the benches with SILKROAD_BENCH_JSON_DIR=bench/baselines and commit the
diff; in CI, apply the `perf-baseline-override` PR label to skip the gate.

Exit codes: 0 all within tolerance, 1 regression/missing data, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

DEFAULT_BASELINE_DIR = Path(__file__).resolve().parent.parent / "bench" / "baselines"

# Relative tolerance of a metric without an override under --exact: room for
# the last bits of a floating-point value, nothing more.
EXACT_REL_TOL = 1e-9

# Benches that intentionally have no committed baseline. Every bench target in
# bench/CMakeLists.txt must either have a BENCH_<name>.json baseline or an
# entry here with the reason — anything else fails the gate, so a new bench
# cannot land ungated by omission.
EXEMPT_BENCHES = {
    "micro_asic": "google-benchmark harness: raw ns/op timings with no "
                  "BENCH_*.json headlines; machine-dependent, nothing stable "
                  "to pin",
}


def known_benches(bench_dir: Path) -> set[str]:
    """Bench target names declared in bench/CMakeLists.txt: the members of
    set(SILKROAD_BENCHES ...) plus any standalone add_executable(name ...)."""
    cmake = bench_dir / "CMakeLists.txt"
    if not cmake.is_file():
        return set()
    text = cmake.read_text()
    names: set[str] = set()
    m = re.search(r"set\(SILKROAD_BENCHES\s+([^)]*)\)", text)
    if m:
        names.update(m.group(1).split())
    for m in re.finditer(r"add_executable\((\w+)", text):
        if m.group(1) != "${bench_name}":
            names.add(m.group(1))
    return names


def check_coverage(baseline_dir: Path) -> int:
    """Returns the number of benches neither baselined nor exempted (and
    flags stale exemptions/baselines for benches that no longer exist, and
    tolerance overrides that name no baselined metric)."""
    failures = 0
    baselined_metrics = {
        f"{p.stem.removeprefix('BENCH_')}.{metric}"
        for p in baseline_dir.glob("BENCH_*.json")
        for metric in load_bench_json(p)}
    for key in sorted(load_tolerances(baseline_dir).get("overrides", {})):
        if not key.startswith("_") and key not in baselined_metrics:
            print(f"FAIL coverage: tolerances.json override '{key}' names no "
                  f"metric in any baseline (headline deleted? drop the band)")
            failures += 1
    benches = known_benches(baseline_dir.parent)
    if not benches:
        print(f"bench_gate: no bench/CMakeLists.txt next to {baseline_dir} — "
              f"skipping coverage check")
        return failures
    baselined = {p.stem.removeprefix("BENCH_")
                 for p in baseline_dir.glob("BENCH_*.json")}
    for bench in sorted(benches - baselined - set(EXEMPT_BENCHES)):
        print(f"FAIL coverage: bench '{bench}' has neither a baseline "
              f"(bench/baselines/BENCH_{bench}.json) nor an EXEMPT_BENCHES "
              f"entry in scripts/bench_gate.py")
        failures += 1
    for bench in sorted((baselined | set(EXEMPT_BENCHES)) - benches):
        print(f"FAIL coverage: '{bench}' is baselined or exempted but is not "
              f"a bench target in bench/CMakeLists.txt (renamed? clean up)")
        failures += 1
    for bench in sorted(baselined & set(EXEMPT_BENCHES)):
        print(f"FAIL coverage: '{bench}' is both baselined and exempted — "
              f"drop one")
        failures += 1
    return failures


def sample_key(sample: dict) -> str:
    """A sample's metric key: its name, plus {labels} when it has any."""
    key = sample["name"]
    if sample.get("labels"):
        key += "{" + sample["labels"] + "}"
    return key


def load_bench_json(path: Path) -> dict[str, float]:
    """Parses one BENCH_*.json into {metric_key: value}."""
    with path.open() as f:
        doc = json.load(f)
    return {sample_key(s): float(s["value"]) for s in doc.get("metrics", [])}


def load_tolerances(baseline_dir: Path) -> dict:
    path = baseline_dir / "tolerances.json"
    if not path.is_file():
        return {"default_rel_tol": 0.05, "default_abs_tol": 1e-9, "overrides": {}}
    with path.open() as f:
        return json.load(f)


def tolerance_for(tolerances: dict, bench: str, metric: str,
                  exact: bool = False) -> tuple[float, float]:
    override = tolerances.get("overrides", {}).get(f"{bench}.{metric}", {})
    default_rel = (EXACT_REL_TOL if exact
                   else tolerances.get("default_rel_tol", 0.05))
    rel = override.get("rel_tol", default_rel)
    abs_ = override.get("abs_tol", tolerances.get("default_abs_tol", 1e-9))
    return float(rel), float(abs_)


def compare(baseline_dir: Path, candidate_dir: Path,
            exact: bool = False) -> int:
    """Returns the number of failures; prints a verdict per metric drift."""
    tolerances = load_tolerances(baseline_dir)
    baseline_files = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"bench_gate: no BENCH_*.json baselines in {baseline_dir}",
              file=sys.stderr)
        return 1

    failures = check_coverage(baseline_dir)
    checked = 0
    for cand_path in sorted(candidate_dir.glob("BENCH_*.json")):
        bench = cand_path.stem.removeprefix("BENCH_")
        if not (baseline_dir / cand_path.name).is_file() \
                and bench not in EXEMPT_BENCHES:
            print(f"FAIL {bench}: candidate output has no baseline — record "
                  f"one (SILKROAD_BENCH_JSON_DIR=bench/baselines) or add an "
                  f"EXEMPT_BENCHES entry")
            failures += 1
    for base_path in baseline_files:
        bench = base_path.stem.removeprefix("BENCH_")
        cand_path = candidate_dir / base_path.name
        if not cand_path.is_file():
            print(f"FAIL {bench}: candidate file {cand_path} missing "
                  f"(bench not run or renamed)")
            failures += 1
            continue
        base = load_bench_json(base_path)
        cand = load_bench_json(cand_path)
        for metric, base_value in sorted(base.items()):
            checked += 1
            if metric not in cand:
                print(f"FAIL {bench}.{metric}: missing from candidate "
                      f"(headline deleted?)")
                failures += 1
                continue
            cand_value = cand[metric]
            rel, abs_ = tolerance_for(tolerances, bench, metric, exact)
            budget = abs_ + rel * abs(base_value)
            drift = abs(cand_value - base_value)
            if math.isnan(cand_value) or drift > budget:
                print(f"FAIL {bench}.{metric}: baseline {base_value:g}, "
                      f"candidate {cand_value:g}, |drift| {drift:g} > "
                      f"allowed {budget:g}")
                failures += 1
        for metric in sorted(set(cand) - set(base)):
            # New headlines are fine to add, but flag them so the baseline
            # gets re-recorded (otherwise they are never gated).
            print(f"NOTE {bench}.{metric}: in candidate but not baseline — "
                  f"re-record baselines to start gating it")

    mode = " (exact)" if exact else ""
    print(f"bench_gate: {checked} metrics checked across "
          f"{len(baseline_files)} benches{mode}, {failures} failure(s)")
    return failures


def self_test(baseline_dir: Path, tmp_root: Path) -> int:
    """Verifies the gate logic: identical dirs pass, perturbed dirs fail."""
    import shutil

    baseline_files = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"bench_gate --self-test: no baselines in {baseline_dir}",
              file=sys.stderr)
        return 1

    identical = tmp_root / "identical"
    perturbed = tmp_root / "perturbed"
    for d in (identical, perturbed):
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
    for path in baseline_files:
        shutil.copy(path, identical / path.name)
        shutil.copy(path, perturbed / path.name)

    # Perturb one metric of the first bench far beyond any sane tolerance.
    victim = perturbed / baseline_files[0].name
    doc = json.loads(victim.read_text())
    if not doc.get("metrics"):
        print("bench_gate --self-test: first baseline has no metrics",
              file=sys.stderr)
        return 1
    original = doc["metrics"][0]["value"]
    doc["metrics"][0]["value"] = original * 10 + 1e6
    victim.write_text(json.dumps(doc))

    print("--- self-test: identical candidate must pass ---")
    if compare(baseline_dir, identical) != 0:
        print("bench_gate --self-test: FAILED (identical candidate rejected)",
              file=sys.stderr)
        return 1
    print("--- self-test: perturbed candidate must fail ---")
    if compare(baseline_dir, perturbed) == 0:
        print("bench_gate --self-test: FAILED (perturbation not caught)",
              file=sys.stderr)
        return 1

    # --exact: nudging every metric without an override by 1e-6 stays far
    # inside the 5% default band but far outside EXACT_REL_TOL.
    overrides = load_tolerances(baseline_dir).get("overrides", {})
    nudged = tmp_root / "nudged"
    if nudged.exists():
        shutil.rmtree(nudged)
    nudged.mkdir(parents=True)
    for path in baseline_files:
        doc = json.loads(path.read_text())
        bench = path.stem.removeprefix("BENCH_")
        for sample in doc.get("metrics", []):
            if f"{bench}.{sample_key(sample)}" not in overrides:
                sample["value"] = float(sample["value"]) * (1 + 1e-6)
        (nudged / path.name).write_text(json.dumps(doc))
    print("--- self-test: 1e-6 drift must pass by default ---")
    if compare(baseline_dir, nudged) != 0:
        print("bench_gate --self-test: FAILED (1e-6 drift rejected by the "
              "default band)", file=sys.stderr)
        return 1
    print("--- self-test: 1e-6 drift must fail --exact ---")
    if compare(baseline_dir, nudged, exact=True) == 0:
        print("bench_gate --self-test: FAILED (--exact missed a 1e-6 drift)",
              file=sys.stderr)
        return 1
    print("--- self-test: identical candidate must pass --exact ---")
    if compare(baseline_dir, identical, exact=True) != 0:
        print("bench_gate --self-test: FAILED (--exact rejected an identical "
              "candidate)", file=sys.stderr)
        return 1

    # A band for a metric no baseline has must fail the gate, even against a
    # candidate identical to the baselines.
    stale = tmp_root / "stale_band"
    if stale.exists():
        shutil.rmtree(stale)
    stale.mkdir(parents=True)
    for path in baseline_files:
        shutil.copy(path, stale / path.name)
    tolerances = load_tolerances(baseline_dir)
    tolerances.setdefault("overrides", {})[
        f"{baseline_files[0].stem.removeprefix('BENCH_')}.no_such_metric"] = {
            "rel_tol": 0.0, "abs_tol": 1.0}
    (stale / "tolerances.json").write_text(json.dumps(tolerances))
    print("--- self-test: an override naming no baselined metric must fail ---")
    if compare(stale, identical) == 0:
        print("bench_gate --self-test: FAILED (stale tolerance override not "
              "caught)", file=sys.stderr)
        return 1
    print("bench_gate --self-test: OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Gate BENCH_*.json headlines against committed baselines.")
    parser.add_argument("--baseline-dir", type=Path,
                        default=DEFAULT_BASELINE_DIR)
    parser.add_argument("--candidate-dir", type=Path,
                        help="directory holding freshly generated BENCH_*.json")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate catches an injected regression")
    parser.add_argument("--exact", action="store_true",
                        help=f"relative tolerance {EXACT_REL_TOL:g} for every "
                             f"metric without an override (proves a change "
                             f"left the seeded outputs unchanged)")
    parser.add_argument("--tmp-dir", type=Path, default=Path("/tmp/bench_gate"),
                        help="scratch space for --self-test")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.baseline_dir, args.tmp_dir)
    if args.candidate_dir is None:
        parser.error("--candidate-dir is required unless --self-test")
    if not args.candidate_dir.is_dir():
        print(f"bench_gate: candidate dir {args.candidate_dir} does not exist",
              file=sys.stderr)
        return 2
    return 1 if compare(args.baseline_dir, args.candidate_dir,
                        args.exact) else 0


if __name__ == "__main__":
    sys.exit(main())
