#!/usr/bin/env python3
"""Builds the cm5sched benchmark harness from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The harness (perfbench/CMakeLists.txt)
is built in Release mode under .bench_build/ on first use; build output
goes to stderr. The last line of standard output is the JSON result.

--trace 0 splits the time budget over PROCESSES harness processes and
reports, per metric, the median over them: a process's memory placement
shifts all of its cell times together, and the median over processes
absorbs that. Only the last process replays the flows (the replay check
needs a retained trace and costs about one more pass); every process
checks the rest, and all must agree on the simulated-output digest.
--trace 1 runs one process and writes its spans to
.bench_build/spans/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "cm5bench"
PROCESSES = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def configured_for_this_tree():
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return Path(line.split("=", 1)[1]).resolve() == BENCH
    return False


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no cm5sched sources at {ROOT}; run from a source tree")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not configured_for_this_tree():
        shutil.rmtree(BUILD, ignore_errors=True)
        configure = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def harness(args):
    """Runs the harness; returns its output lines and parsed result."""
    out = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                         text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out.stdout)
        fail(f"harness exited with {out.returncode} and no result")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    build()
    if opts.self_test:
        return subprocess.run([str(BINARY), "--self-test"]).returncode
    if opts.workload is None:
        parser.error("--workload is required")
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    if opts.trace == 1:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        lines, result = harness(common + [
            "--trace", "1", "--seconds", repr(opts.seconds),
            "--spans", str(spans / f"{opts.workload}-seed{opts.seed}.json")])
        print("\n".join(lines + [json.dumps(result)]))
        return 0

    results, digests = [], set()
    for i in range(PROCESSES):
        extra = [] if i == PROCESSES - 1 else ["--no-replay-check"]
        lines, result = harness(common + [
            "--trace", "0", "--seconds", repr(opts.seconds / PROCESSES)] + extra)
        results.append(result)
        for line in lines:
            if line.startswith("sim_digest"):
                digests.add(line)
            if i == 0 or not line.startswith(("provenance", "sim_digest")):
                print(line)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(digests) != 1:
        print(f"FAILED {opts.workload}: processes disagree on sim_digest")
        failed = min(attempted, failed + 1)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        metrics[name] = {
            "value": statistics.median(r["metrics"][name]["value"]
                                       for r in results),
            "unit": first["unit"]}
    metrics["cells_passed_ratio"]["value"] = (attempted - failed) / attempted
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
