"""Benchmark for hopfeq: exact-verdict workloads, end-to-end times and
per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload frt-enumerate --seed 1 --seconds 60 --trace 0

One process, one thread, the pure-Python kernel, no ``--jobs``. A workload
is one or more parts, lists of items. With ``--trace 0`` the run repeats
rounds of the parts while they fit in ``--seconds`` (each part at least
once), every part's run on a fresh import of hopfeq so that no cache carries
over between repeats; it times set-ups between items and reports end-to-end
metrics. With ``--trace 1`` it runs each item once untraced and once under
the span tracer, on two imports side by side, then each item under the
field-operation counter, and reports per-layer metrics. Every item's verdicts are checked against
references fixed in ``workloads.py``.

Each repeat of an item is timed in reference units: its time divided by
the time of a fixed reference computation that a timer samples during and
around it (``pace.py``). On a shared host the same work runs up to 1.5 times
slower while a neighbour is busy, in phases that can outlast a run; the
reference slows alike, so the ratio holds still. An item's figure is the
median of its repeats. ``setup_s`` is the median of the set-ups timed across
the run, taken in reference units and turned back into seconds at a fixed
sample length.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The same result, with
run metadata, is written under ``.perfbench/results/``; traced runs also
write their spans under ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import layers
from pace import NOMINAL_S, Pace
from tracer import MODULES, FieldCounter, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_EVERY_S = 1.0


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def hopfeq_modules():
    """The hopfeq entries of ``sys.modules``."""
    return {m: mod for m, mod in sys.modules.items() if m == "hopfeq" or m.startswith("hopfeq.")}


def use_modules(modules):
    """Make ``modules`` the hopfeq entries of ``sys.modules``, so that an
    import made inside a call (``rewriting`` defers one) finds the modules
    of its caller."""
    for name in hopfeq_modules():
        del sys.modules[name]
    sys.modules.update(modules)


def import_hopfeq():
    """Import every hopfeq module afresh from the checkout's ``src``."""
    use_modules({})
    try:
        package = importlib.import_module("hopfeq")
    except ImportError as exc:
        raise BenchError(f"cannot import hopfeq from {SRC}: {exc}") from exc
    if Path(package.__file__).resolve().parent != SRC / "hopfeq":
        raise BenchError(f"hopfeq was imported from {package.__file__}, not {SRC}")
    kernels = importlib.import_module("hopfeq.kernels")
    if kernels.BACKEND != "python":
        raise BenchError(f"kernel backend is {kernels.BACKEND}; the benchmark measures "
                         "the pure-Python backend only")
    return SimpleNamespace(**{m: importlib.import_module(f"hopfeq.{m}") for m in MODULES})


class Tally:
    """Items attempted and failed, with the verdicts that disagreed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, item):
        self.attempted += 1
        try:
            found = item.run()
        except Exception:  # an exception fails the item; the run goes on
            found = ["raised " + traceback.format_exc(limit=3).strip().replace("\n", " | ")]
        if found:
            self.failed += 1
            self.problems.extend(f"{item.name}: {p}" for p in found)


class SetUps:
    """Timed set-ups, each a fresh import of hopfeq plus every input of the
    workload, spread over the run: one at the start, and one after any item
    that ends ``SETUP_EVERY_S`` or more after the last sample, so that the
    samples meet the host's speed phases as the items do."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.samples = []
        self.last = 0.0

    def build(self):
        start = time.perf_counter()
        hq = import_hopfeq()
        plan = self.workload.build(hq, self.seed)
        self.last = time.perf_counter()
        self.samples.append((start, self.last))
        return hq, plan

    def between_items(self):
        """Take one more sample if the last is old enough, then restore the
        modules of the items in progress."""
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            running = hopfeq_modules()
            self.build()
            use_modules(running)
            gc.collect()  # free the sample's modules now, not inside the next item


def timed_item(tally, item):
    start = time.perf_counter()
    tally.run(item)
    return time.perf_counter() - start


def timed_rounds(workload, seed, setups, seconds, tally):
    """Repeat rounds of the workload's parts. Each run of a part is on a
    fresh import with freshly built inputs, so that no state carries from one
    repeat to the next. Stop before the first part whose last run no longer
    fits in ``seconds``; every part runs at least once. Returns, per item,
    the (start, end) of each repeat."""
    spans, last = {}, {}
    t0 = time.perf_counter()
    while True:
        for k, (build, repeats) in enumerate(workload.parts):
            for _ in range(repeats):
                if k in last and time.perf_counter() - t0 + last[k] > seconds:
                    return spans
                plan = build(import_hopfeq(), seed)
                gc.collect()  # free the previous run's inputs now, not inside this one
                start = time.perf_counter()
                for item in plan.items:
                    begin = time.perf_counter()
                    tally.run(item)
                    spans.setdefault(item.name, []).append((begin, time.perf_counter()))
                    setups.between_items()
                last[k] = time.perf_counter() - start


def metadata(hq, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": hq.kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def run_timed(workload, args, tally):
    setups = SetUps(workload, args.seed)
    with Pace() as pace:
        hq, plan = setups.build()
        spans = timed_rounds(workload, args.seed, setups, args.seconds, tally)
    seconds = {name: statistics.median(end - start for start, end in ss)
               for name, ss in spans.items()}
    refs = {name: statistics.median(pace.in_refs(start, end) for start, end in ss)
            for name, ss in spans.items()}
    groups = {"main": 0.0, "rest": 0.0}
    for item in plan.items:
        groups[item.group] += refs[item.name]
    metrics = {
        "setup_s": (NOMINAL_S * statistics.median(pace.in_refs(start, end)
                                                for start, end in setups.samples), "s"),
        "wall_ref": (groups["main"] + groups["rest"], "ref"),
        "main_ref": (groups["main"], "ref"),
        "rest_ref": (groups["rest"], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "wall_s": (sum(seconds.values()), "s"),
        "reference_ms.median": (1000 * statistics.median(pace.lengths), "ms"),
        "reference.samples": (len(pace.lengths), "count"),
        "setup_s.measured": (statistics.median(end - start for start, end in setups.samples),
                             "s"),
        "repeats.min": (min(len(ss) for ss in spans.values()), "count"),
        "setup_s.samples": (len(setups.samples), "count"),
    }
    return hq, metrics, plan.report(seconds), info


def run_traced(workload, args, tally):
    """Each item runs untraced and then traced, on two fresh imports of
    hopfeq side by side, so that both timings of an item meet the same host
    phase. A third import runs the pass under the field counter."""
    plain = workload.build(import_hopfeq(), args.seed)
    plain_modules = hopfeq_modules()
    hq = import_hopfeq()
    traced_modules = hopfeq_modules()
    tracer = Tracer()
    tracer.install(hq)
    untraced = traced = 0.0
    try:
        with tracer.span("setup"):
            plan = workload.build(hq, args.seed)
        for plain_item, item in zip(plain.items, plan.items, strict=True):
            use_modules(plain_modules)
            untraced += timed_item(tally, plain_item)
            use_modules(traced_modules)
            with tracer.span("item." + item.name):
                traced += timed_item(tally, item)
    finally:
        tracer.uninstall()
    hq = import_hopfeq()
    counter = FieldCounter()
    counter.install(hq)
    try:
        for item in workload.build(hq, args.seed).items:
            tally.run(item)
    finally:
        counter.uninstall()
    tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.json.gz")
    values = layers.per_layer_values(tracer.layer_stats(), tracer.counts, counter.totals(),
                                     traced / untraced - 1)
    metrics = {name: (v["value"], v["unit"]) for name, v in values.items()}
    return hq, metrics, {}, {"pass_s.untraced": (untraced, "s"), "pass_s.traced": (traced, "s")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    tally = Tally()
    try:
        run = run_traced if args.trace else run_timed
        hq, metrics, named, info = run(workload, args, tally)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    meta = metadata(hq, args)
    print("meta: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"workload {workload.name}: {workload.why}")
    for name, (value, unit) in {**metrics, **named, **info}.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    extra = {name: {"value": v, "unit": u} for name, (v, u) in {**named, **info}.items()}
    record = {"meta": meta, "result": result, "named": extra}
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
