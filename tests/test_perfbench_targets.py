"""The traced benchmark run (perfbench/run.py --trace 1) patches hopfeq from
outside the package, by module name and by method name in a class's own
namespace. No tier-1 test runs it, so these checks keep its targets where it
looks for them: a method moved into a base class would otherwise break the
traced run without a failing test."""

import importlib
import importlib.util
import inspect
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
