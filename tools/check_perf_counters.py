#!/usr/bin/env python3
"""Exact gate on a bench's deterministic work counters.

Compares the per-row work counters of a BENCH_*.json file against a
committed baseline and exits 1 on any difference, or writes the baseline
from the file with --write:

    check_perf_counters.py BENCH.json BASELINE.json
    check_perf_counters.py --write BENCH.json BASELINE.json

The counters (rate_solves, flows_refilled, links_refilled, heap_pops,
context_switches) are pure functions of the simulated run on a given
execution backend, so any difference is a change in the work the
simulator does. A deliberate change regenerates the baseline; see
docs/PERF.md "Exact counter gate".
"""

import json
import sys

COUNTERS = ["rate_solves", "flows_refilled", "links_refilled", "heap_pops",
            "context_switches"]


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"check_perf_counters: {path}: {e}")


def counters_of(bench):
    """The baseline form of a BENCH json: backend and per-row counters."""
    rows = []
    for row in bench.get("rows", []):
        perf = row.get("perf")
        if perf is None:
            continue
        entry = {"id": row["id"]}
        for name in COUNTERS:
            if name not in perf:
                sys.exit(f"check_perf_counters: row {row['id']} has no "
                         f"perf.{name}")
            entry[name] = perf[name]
        rows.append(entry)
    return {"bench": bench.get("bench"), "smoke": bench.get("smoke"),
            "exec_backend": bench.get("exec_backend"), "rows": rows}


def main(argv):
    write = len(argv) == 4 and argv[1] == "--write"
    if len(argv) != (4 if write else 3):
        sys.exit("usage: check_perf_counters.py [--write] BENCH.json "
                 "BASELINE.json")
    bench_path, baseline_path = argv[-2], argv[-1]
    got = counters_of(load(bench_path))
    if write:
        with open(baseline_path, "w") as f:
            json.dump(got, f, indent=1)
            f.write("\n")
        print(f"wrote {len(got['rows'])} rows to {baseline_path}")
        return 0
    want = load(baseline_path)
    problems = []
    for key in ("bench", "smoke", "exec_backend"):
        if got[key] != want.get(key):
            problems.append(f"{key}: {got[key]!r} != baseline "
                            f"{want.get(key)!r}")
    want_rows = {r["id"]: r for r in want.get("rows", [])}
    got_ids = [r["id"] for r in got["rows"]]
    if got_ids != [r["id"] for r in want.get("rows", [])]:
        problems.append(f"rows {got_ids} != baseline "
                        f"{[r['id'] for r in want.get('rows', [])]}")
    for row in got["rows"]:
        base = want_rows.get(row["id"])
        if base is None:
            continue
        for name in COUNTERS:
            if row[name] != base.get(name):
                problems.append(f"{row['id']}: {name} {row[name]} != "
                                f"baseline {base.get(name)}")
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} difference(s) from {baseline_path}")
        return 1
    print(f"{len(got['rows'])} rows x {len(COUNTERS)} counters match "
          f"{baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
