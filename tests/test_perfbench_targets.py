"""The traced benchmark run (perfbench/run.py --trace 1) patches hopfeq from
outside the package, by module name and by method name in a class's own
namespace. No tier-1 test runs it, so these checks keep its targets where it
looks for them: a method moved into a base class would otherwise break the
traced run without a failing test."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("short", TRACER.MODULES)
def test_traced_module_imports(short):
    assert importlib.import_module(f"hopfeq.{short}").__name__ == f"hopfeq.{short}"


@pytest.mark.parametrize("short,cls_name,meth", TRACER.METHODS,
                         ids=[f"{c}.{m}" for _, c, m in TRACER.METHODS])
def test_traced_method_is_on_its_own_class(short, cls_name, meth):
    cls = getattr(importlib.import_module(f"hopfeq.{short}"), cls_name)
    assert inspect.isfunction(cls.__dict__.get(meth))


# Per-layer metrics whose span no longer exists; the next benchmark change
# drops them (ROADMAP item 1).
STALE_SPAN_METRICS = {
    "kernels.solutions_in_range_mod.s",
    "kernels.equation_holds_mod.s",
    "kernels.equation_holds_mod.calls",
}


def _span_resolves(span):
    """A span name the tracer records: a group, a listed method, or a public
    function defined in a module of that layer and not skipped."""
    if span in TRACER.GROUPS:
        return True
    parts = span.split(".")
    if len(parts) == 3:
        return tuple(parts) in TRACER.METHODS
    layer, attr = parts
    for short in TRACER.MODULES:
        if TRACER.LAYER_OF.get(short, short) != layer or attr in TRACER.SKIP.get(short, ()):
            continue
        module = importlib.import_module(f"hopfeq.{short}")
        obj = getattr(module, attr, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            return True
    return False


def test_span_metrics_resolve():
    # a renamed or moved function would silently read as an idle metric
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    unresolved = {
        m["name"] for m in bench["per_layer"]
        if m["name"].endswith((".s", ".self_s", ".calls"))
        and not _span_resolves(m["name"].rsplit(".", 1)[0])
    }
    assert unresolved <= STALE_SPAN_METRICS
