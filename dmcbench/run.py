#!/usr/bin/env python3
"""Build and run the dmc benchmark for one workload.

Run from the repository root:

    python3 dmcbench/run.py --workload paper_fig2 --seed 1 --seconds 30 --trace 0
    python3 dmcbench/run.py --self-test

The benchmark is a CMake project (dmcbench/CMakeLists.txt) that builds the
library from the repository sources into .bench_build/ (Release). The first
run configures and builds; later runs only re-check the build. Build output
goes to stderr. The benchmark's own stdout is passed through; its last line
is the result object {"correct", "attempted", "failed", "metrics"}, checked
here against the metric lists in BENCHMARK.json before it is printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "dmcbench"
WORKLOADS = ("paper_fig2", "admission_overload", "sharded_forensics")
# One run must end within 180 s; the benchmark itself stops after --seconds
# plus at most one repetition, so this only catches a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code):
    print(f"dmcbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr, so stdout stays clean."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}", 3)
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}", 3)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "dmc.h").is_file():
        fail(f"no dmc source tree at {ROOT}", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", "dmcbench", "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(BUILD), "--target", "dmcbench",
                "dmcbench_test", "-j", jobs], BUILD_TIMEOUT_S)


def source_digest():
    """SHA-256 over the library and benchmark sources: names the code that
    was measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "dmcbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def build_type():
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    missing = set(expected_metrics(trace)) - set(result["metrics"])
    extra = set(result["metrics"]) - set(expected_metrics(trace))
    if missing or extra:
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{sorted(missing)}, extra {sorted(extra)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    if args.self_test:
        sys.exit(subprocess.run([str(BUILD / "dmcbench_test")], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S, check=False).returncode)

    host = {"num_cpus": os.cpu_count(), "build_type": build_type(),
            "commit": commit(), "source_sha256": source_digest()}
    print("host: " + json.dumps(host), flush=True)

    cmd = [str(BUILD / "dmcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD.parent / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"benchmark exited with {done.returncode}", 4)
    lines = done.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("benchmark printed nothing", 4)
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError) as error:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"bad result line: {error}", 4)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
