#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json for one second, untraced and traced,
and checks that

* the last line of standard output is the result object, with exactly the
  keys `correct`, `attempted`, `failed` and `metrics`, and `correct` true;
* every end-to-end metric (untraced run) and every per-layer metric (traced
  run) of BENCHMARK.json is emitted by name, with its unit;
* the traced run's spans share an id per request: every request (or kernel
  batch) has its root span and the child spans the ledger adds up;
* interactions.json covers every per-layer metric and workload.

Run from the repository root:  python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TABLE = json.load(open(os.path.join(ROOT, "perfbench", "interactions.json")))
OUT = os.path.join(ROOT, ".bench_out", "smoke")

# Child spans every root span must have, by root name.
CHILDREN = {
    "request": {"front.submit", "front.handle", "front.wait"},
    "kernel.batch": {"core.engine_run"},
}


def run(workload, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--out", OUT,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, proc.stderr


def check_result(workload, trace, result, stderr):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"not correct: {stderr[-2000:]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append("attempted must be a whole number >= 1")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']}: value {got.get('value')!r} is not a number")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return [f"{workload} trace={trace}: {e}" for e in errors]


def check_spans(workload):
    path = os.path.join(OUT, f"spans-{workload}-seed1-trace1.json")
    spans = json.load(open(path))
    by_id = {}
    for s in spans:
        by_id.setdefault(s["id"], []).append(s)
    roots = 0
    errors = []
    for sid, group in by_id.items():
        names = {s["name"] for s in group}
        for root, children in CHILDREN.items():
            if root in names:
                roots += 1
                missing = children - names
                if missing:
                    errors.append(f"id {sid}: {root} without {sorted(missing)}")
                for s in group:
                    if s["name"] != root and s["parent"] not in ("", root):
                        errors.append(f"id {sid}: {s['name']} has parent {s['parent']}")
    if roots == 0:
        errors.append("no root spans")
    return [f"{workload} spans: {e}" for e in errors[:10]]


def check_table():
    errors = []
    layer = {m["name"] for m in SPEC["per_layer"]}
    rows = {r["metric"] for r in TABLE["per_layer"]}
    for name in sorted(layer - rows):
        errors.append(f"interactions.json has no row for {name}")
    for name in sorted(rows - layer):
        errors.append(f"interactions.json row {name} is not a per-layer metric")
    workloads = {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for r in TABLE["per_layer"]:
        for move in r["moves"]:
            if move["metric"] not in e2e or move["workload"] not in workloads:
                errors.append(f"{r['metric']}: bad prediction {move}")
        for w in r["still_on"]:
            if w not in workloads:
                errors.append(f"{r['metric']}: unknown workload {w}")
    if set(TABLE["workloads"]) != workloads:
        errors.append("interactions.json must say why each workload exists")
    return errors


def main():
    errors = check_table()
    for name in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            result, stderr = run(name, trace)
            errors += check_result(name, trace, result, stderr)
        errors += check_spans(name)
        print(f"{name}: checked", flush=True)
    if errors:
        print("\n".join(errors))
        sys.exit(1)
    print("smoke OK: every metric emitted with its unit, spans grouped per request")


if __name__ == "__main__":
    main()
