"""Summarise benchmark results, or compare a change against its base.

    python3 perfbench/compare.py DIR              # median, quartiles, spread
    python3 perfbench/compare.py BASE_DIR NEW_DIR  # NEW against BASE

Each DIR holds the untraced result records that run.py writes to
``.perfbench/results/`` (one per workload and seed). The summary gives, per
workload and end-to-end metric, the median over seeds, the quartiles and the
spread (quartile distance over median). The comparison flags every metric
whose median got worse than the base by more than its bound in
BENCHMARK.json, and exits 1 if any did. Records from different kernel
backends are never compared: the script refuses them and exits 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def load(directory):
    """{workload: {metric: [values]}} and the set of backends seen."""
    table, backends = {}, set()
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        backends.add(record["meta"]["backend"])
        metrics = table.setdefault(record["meta"]["workload"], {})
        for name, m in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return table, backends


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def summarise(table):
    return {w: {m: summary(v) for m, v in metrics.items()} for w, metrics in sorted(table.items())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = parser.parse_args(argv)
    if len(args.dirs) > 2:
        parser.error("give one directory to summarise or two to compare")
    loaded = [load(d) for d in args.dirs]
    backends = set().union(*(b for _, b in loaded))
    if len(backends) > 1:
        print(f"refusing to compare results across kernel backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    sums = [summarise(table) for table, _ in loaded]
    if len(sums) == 1:
        if args.json:
            print(json.dumps({"backend": backends.pop() if backends else None,
                              "workloads": sums[0]}, indent=1))
            return 0
        for workload, metrics in sums[0].items():
            for name, s in metrics.items():
                print(f"{workload:<14} {name:<13} n={s['n']:<3} median {s['median']:<12.6g} "
                      f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}")
        return 0
    base, new = sums
    worse = 0
    for workload in sorted(set(base) & set(new)):
        for name in sorted(set(base[workload]) & set(new[workload])):
            b, n = base[workload][name]["median"], new[workload][name]["median"]
            change = n / b - 1 if b else 0.0
            spec = BOUNDS.get(name)
            flag = ""
            if spec is not None:
                worse_by = change if spec["better"] == "lower" else -change
                if worse_by > spec["bound"]:
                    flag = f"WORSE beyond bound {spec['bound']}"
                    worse += 1
            print(f"{workload:<14} {name:<13} base {b:<12.6g} new {n:<12.6g} "
                  f"change {change:+.4f} {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
