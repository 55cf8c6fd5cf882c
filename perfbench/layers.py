"""Where each per-layer metric of the hopfeq benchmark should be busy.

BENCHMARK.json lists the per-layer metrics with their units and directions.
BUSY_BYPASS maps each of them to (busy, bypass): ``busy`` names the workloads
on which the metric's layer must do work (calls > 0, or a count > 0) and
``bypass`` the workloads on which it must do none. The self-check
(selfcheck.py) holds every traced pass to both. A metric whose name ends in
``.s``, ``.self_s`` or ``.calls`` is read from the spans of the layer it
names; the rest are counts read off results or from the field-count pass.

Workloads: F = frt-enumerate, V = verify-mix.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

WORKLOAD_CODES = {"F": "frt-enumerate", "V": "verify-mix"}

BUSY_BYPASS = {
    "fixtures.build_fixture.s": ("F", "V"),
    "fields.q.add.count": ("FV", ""),
    "fields.q.mul.count": ("FV", ""),
    "fields.q.inv.count": ("FV", ""),
    "fields.fp.add.count": ("FV", ""),
    "fields.fp.mul.count": ("FV", ""),
    "fields.fp.inv.count": ("FV", ""),
    "linalg.mat_mul.s": ("FV", ""),
    "linalg.mat_mul.calls": ("FV", ""),
    "linalg.inverse.s": ("F", "V"),
    "linalg.is_invertible.s": ("FV", ""),
    "tensorops.leg.s": ("FV", ""),
    "tensorops.leg.calls": ("FV", ""),
    "tensorops.checks.s": ("FV", ""),
    "tensorops.checks.calls": ("FV", ""),
    "tensorops.conjugate.s": ("F", "V"),
    "tensorops.enumerate_solutions.s": ("F", "V"),
    "tensorops.enumerate_solutions.calls": ("F", "V"),
    "tensorops.solutions": ("F", "V"),
    "tensorops.candidates_per_s": ("F", "V"),
    "kernels.solutions_in_range_mod.s": ("F", "V"),
    "kernels.equation_holds_mod.s": ("FV", ""),
    "kernels.equation_holds_mod.calls": ("FV", ""),
    "freealgebra.NCPoly.delta.s": ("FV", ""),
    "freealgebra.NCPoly.delta.calls": ("FV", ""),
    "freealgebra.TensorPoly.map_legs.s": ("F", "V"),
    "freealgebra.TensorPoly.map_legs.calls": ("F", "V"),
    "frt.chi.s": ("FV", ""),
    "frt.chi.calls": ("FV", ""),
    "frt.frt_presentation.s": ("F", "V"),
    "frt.relations": ("F", "V"),
    "frt.verify_delta_chi.s": ("V", "F"),
    "frt.verify_delta_chi.calls": ("V", "F"),
    "frt.verify_defect_identity.s": ("V", "F"),
    "frt.verify_commutator_identity.s": ("V", "F"),
    "frt.eps_chi_zero.s": ("V", "F"),
    "rewriting.complete.s": ("F", "V"),
    "rewriting.complete.self_s": ("F", "V"),
    "rewriting.complete.calls": ("F", "V"),
    "rewriting.normal_form.s": ("F", "V"),
    "rewriting.normal_form.calls": ("F", "V"),
    "rewriting.dimension.s": ("F", "V"),
    "rewriting.quotient_bialgebra.s": ("F", "V"),
    "rewriting.quotient_bialgebra.self_s": ("F", "V"),
    "rewriting.check_coideal.s": ("F", "V"),
    "rewriting.rules": ("F", "V"),
    "rewriting.rules_per_relation": ("F", "V"),
    "rewriting.capped": ("F", "V"),
    "bialgebras.check_bialgebra_axioms.s": ("F", "V"),
    "bialgebras.StructureBialgebra.multiply.calls": ("F", "V"),
    "hopfmodules.act_poly.s": ("V", "F"),
    "hopfmodules.act_poly.calls": ("V", "F"),
    "hopfmodules.module_from_R.s": ("FV", ""),
    "hopfmodules.check_hopf_compat.s": ("F", "V"),
    "hopfmodules.verify_morphism.s": ("F", "V"),
    "cli.main.s": ("F", "V"),
    "cli.main.self_s": ("F", "V"),
    "trace.overhead_frac": ("", ""),
}
assert BUSY_BYPASS.keys() == UNITS.keys(), "layers.py and BENCHMARK.json list different metrics"

SPAN_SUFFIXES = (".calls", ".self_s", ".s")


def span_metric(metric):
    """(span name, statistic) for a metric read from spans, else None."""
    for suffix in SPAN_SUFFIXES:
        if metric.endswith(suffix):
            return metric[: -len(suffix)], suffix[1:]
    return None


def per_layer_values(stats, counts, field_counts, overhead_frac):
    """Every per-layer metric from the span statistics of one traced pass,
    the counts observed on results, and the field-count pass."""
    relations = counts.get("frt.relations", 0)
    rules = counts.get("rewriting.rules", 0)
    enum_s = stats.get("tensorops.enumerate_solutions", {}).get("s", 0.0)
    derived = {
        "rewriting.rules_per_relation": rules / relations if relations else 0.0,
        "tensorops.candidates_per_s":
            counts.get("tensorops.candidates", 0) / enum_s if enum_s else 0.0,
        "trace.overhead_frac": overhead_frac,
    }
    values = {}
    for metric, unit in UNITS.items():
        span = span_metric(metric)
        if span is not None:
            name, stat = span
            value = stats.get(name, {}).get(stat, 0)
        elif metric in derived:
            value = derived[metric]
        elif metric in field_counts:
            value = field_counts[metric]
        else:
            value = counts.get(metric, 0)
        values[metric] = {"value": value, "unit": unit}
    return values

