"""In-memory span tracer and scalar-operation counter for the hopfeq benchmark.

The tracer wraps the public functions of every hopfeq module, plus a few
named methods, from outside the package. A wrapped call records one span:
name, start, end and the span that was open when it began. Spans live in
flat arrays until the run ends; per-layer busy time, self time and call
counts are derived from them afterwards.

A function imported by name into another module (``from .hopfmodules import
act_poly`` in ``frt``, for example) is patched in every module that holds it,
so calls are seen where the name is looked up. Calls through the package root
(``hopfeq.act_poly``) are not seen; the workloads call through the modules.

The field counter is a separate pass: it replaces the scalar ``add``, ``mul``
and ``inv`` of both field classes with counting versions. It never runs
together with the tracer or inside a timed pass.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from array import array
from contextlib import contextmanager

# hopfeq modules whose public functions are wrapped, in import order.
MODULES = (
    "fields", "linalg", "_purecore", "kernels", "tensorops", "freealgebra",
    "bialgebras", "fixtures", "rewriting", "hopfmodules", "frt", "cli",
)

# Layer name of each defining module; the pure kernel twin reports as kernels.
LAYER_OF = {"_purecore": "kernels"}

# Methods that carry a layer's work but are not module-level functions.
METHODS = (
    ("freealgebra", "NCPoly", "delta"),
    ("freealgebra", "TensorPoly", "map_legs"),
    ("bialgebras", "StructureBialgebra", "multiply"),
)

# Hot leaf helpers left unwrapped: one span per call would cost more than the
# work inside. cli keeps only main, so that main's self time holds argument
# parsing, rendering and JSON.
SKIP = {
    "freealgebra": {"word_key"},
    "_purecore": {"matmul_mod", "legs_mod"},
    "cli": {"build_parser", "cmd_check", "cmd_frt", "cmd_verify", "cmd_enumerate"},
}

# Span names that are reported together under one layer metric.
GROUPS = {
    "tensorops.checks": (
        "tensorops.check_hopf", "tensorops.check_pentagon", "tensorops.check_qybe",
        "tensorops.check_commutative", "tensorops.check_cocommutative",
        "tensorops.solution_report",
    ),
}


def _observe_presentation(args, result):
    return {"frt.relations": len(result.relations)}


def _observe_complete(args, result):
    return {"rewriting.rules": len(result.rules),
            "rewriting.capped": int(result.status == "capped")}


def _observe_enumeration(args, result):
    n, field = args[0], args[1]
    return {"tensorops.solutions": len(result),
            "tensorops.candidates": field.p ** (n ** 4)}


# Counts read off the results of a call, at the layer that produced them.
OBSERVERS = {
    "frt.frt_presentation": _observe_presentation,
    "rewriting.complete": _observe_complete,
    "tensorops.enumerate_solutions": _observe_enumeration,
}


class Tracer:
    """Span recorder. ``install`` patches the modules, ``uninstall`` restores
    them; spans stay in memory until ``write``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # span name table
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._patches = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                for key, value in observe(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hq):
        """Wrap the public functions of the modules in ``hq`` (a namespace of
        hopfeq modules), in every module that holds a reference to them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            mod = getattr(hq, short)
            layer = LAYER_OF.get(short, short)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in SKIP.get(short, ())
                        or not inspect.isfunction(obj) or obj.__module__ != mod.__name__):
                    continue
                wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for short in MODULES:
            mod = getattr(hq, short)
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for short, cls_name, meth in METHODS:
            cls = getattr(getattr(hq, short), cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, f"{short}.{cls_name}.{meth}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path):
        """Write every span as gzipped JSON columns: the name table, then
        name index, parent index, start and end per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "name": list(self.name_of),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)

    def layer_stats(self):
        """Per span name and per group: calls, busy seconds (union of the
        name's intervals) and self seconds (own time minus direct children)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur[i]
        key_sets = [[name] for name in self.names]
        for group, members in GROUPS.items():
            for name in members:
                if name in self._name_ids:
                    key_sets[self._name_ids[name]].append(group)
        stats = {}
        active = {}  # key -> open spans carrying it, for the union of intervals
        stack = []
        for i in range(n):
            p = self.parent[i]
            while stack and stack[-1] != p:
                for key in key_sets[self.name_of[stack.pop()]]:
                    active[key] -= 1
            for key in key_sets[self.name_of[i]]:
                st = stats.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
                st["calls"] += 1
                st["self_s"] += dur[i] - child_time[i]
                if not active.get(key):
                    st["s"] += dur[i]
                active[key] = active.get(key, 0) + 1
            stack.append(i)
        return stats


class FieldCounter:
    """Counts scalar add, mul and inv per field class: ``q`` for the
    rationals, ``fp`` for every prime field together."""

    OPS = ("add", "mul", "inv")

    def __init__(self):
        self.counts = {}
        self._patches = []

    def install(self, hq):
        if self._patches:
            raise RuntimeError("counter already installed")
        for label, cls in (("q", hq.fields.Rationals), ("fp", hq.fields.PrimeField)):
            for op in self.OPS:
                original = cls.__dict__[op]
                cell = [0]
                self.counts[f"fields.{label}.{op}.count"] = cell
                self._patches.append((cls, op, original))
                setattr(cls, op, _counting(original, cell))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def totals(self):
        return {key: cell[0] for key, cell in self.counts.items()}


def _counting(fn, cell):
    def counted(self, *args):
        cell[0] += 1
        return fn(self, *args)

    return counted
