"""Self-check of the benchmark's tracer and field counter.

Runs the traced pass of every workload twice, at seed 1, in separate
processes, and checks that:

* every run is correct (no verdict differs from its reference);
* each per-layer metric shows work (> 0) on the workloads
  layers.BUSY_BYPASS names as busy, and none (== 0) on the workloads it names
  as bypassed;
* the field-operation counts of the two runs are identical.

It first checks the tracer's span statistics on a fixed span tree.

Usage, from the root of a checkout (about four minutes on two cores):

    python3 perfbench/selfcheck.py

Exits 0 when every check holds and 1 otherwise, listing each miss.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import layers
from tracer import Tracer

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 300
SEED = 1


def check_span_statistics():
    """Busy time is the union of a name's intervals, self time excludes
    direct children, on spans A[0,10] > X[2,5] > C[3,4] and A > X[6,8]."""
    ticks = iter((0, 2, 3, 4, 5, 6, 8, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("A"):
        with tracer.span("X"):
            with tracer.span("C"):
                pass
        with tracer.span("X"):
            pass
    stats = tracer.layer_stats()
    want = {"A": {"calls": 1, "s": 10, "self_s": 5},
            "X": {"calls": 2, "s": 5, "self_s": 4},
            "C": {"calls": 1, "s": 1, "self_s": 1}}
    return [] if stats == want else [f"span statistics {stats}, want {want}"]


def traced_run(workload):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_workload(code, workload):
    misses = []
    first, second = traced_run(workload), traced_run(workload)
    for k, result in enumerate((first, second), 1):
        if not result["correct"] or result["failed"]:
            misses.append(f"{workload} run {k}: {result['failed']} failed items")
    values = first["metrics"]
    for metric, (busy, bypass) in layers.BUSY_BYPASS.items():
        value = values[metric]["value"]
        if code in busy and not value > 0:
            misses.append(f"{workload}: {metric} = {value}, predicted busy")
        if code in bypass and value != 0:
            misses.append(f"{workload}: {metric} = {value}, predicted bypassed")
        if metric.startswith("fields.") and value != second["metrics"][metric]["value"]:
            misses.append(f"{workload}: {metric} differs between runs: "
                          f"{value} vs {second['metrics'][metric]['value']}")
    return misses


def main():
    misses = check_span_statistics()
    for code, workload in layers.WORKLOAD_CODES.items():
        found = check_workload(code, workload)
        print(f"{workload}: {'ok' if not found else f'{len(found)} misses'}", flush=True)
        misses.extend(found)
    for miss in misses:
        print(f"  MISS {miss}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
