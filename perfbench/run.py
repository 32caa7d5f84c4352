#!/usr/bin/env python3
"""Builds and runs the host-throughput benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
simulator from ../src together with the benchmark binary (Release) into
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild incrementally.
Build output goes to stderr. Stdout carries the benchmark's report and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.

The metric names in that line are checked against BENCHMARK.json: the
end_to_end list without --trace, the per_layer list with it. Exit code 0
only when the build succeeded, the benchmark's correctness checks passed
and the metric set matches.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
PROVENANCE = "provenance: "


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
        except FileNotFoundError:
            fail("cmake not found", 3)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 3)
    return build_dir / "perfbench"


def provenance():
    """Commit (when the tree is a git checkout) and a digest of the sources
    the binary was built from, so a result can be tied to its code."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans_dir = build_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out",
                    str(spans_dir / f"{args.workload}-seed{args.seed}.tsv")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 4)

    lines = done.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {done.returncode})", 4)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("\n".join(lines), file=sys.stderr)
        fail(f"no result line (exit {done.returncode})", 4)
    names = set(result["metrics"])
    want = expected_metrics(args.trace)
    if names != want:
        fail(f"metric set differs from BENCHMARK.json: missing "
             f"{sorted(want - names)}, extra {sorted(names - want)}", 4)

    # The binary's provenance record (seed, build type, CPU and wall time)
    # gains the commit and source digest, so it stays one record.
    for line in lines[:-1]:
        if line.startswith(PROVENANCE):
            record = json.loads(line[len(PROVENANCE):])
            record.update(provenance())
            line = PROVENANCE + json.dumps(record)
        print(line)
    print(lines[-1], flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
