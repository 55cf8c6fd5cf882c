"""The traced benchmark run (perfbench/run.py --trace 1) patches hopfeq from
outside the package, by module name and by method name in a class's own
namespace. No tier-1 test runs it, so these checks keep its targets where it
looks for them: a method moved into a base class would otherwise break the
traced run without a failing test.

The timed run calls hopfeq through ``hq``, a namespace of its modules. The
last checks read those calls from the source of ``perfbench/workloads.py``
and ``perfbench/run.py`` and bind each against the signature it reaches, so
that a changed signature fails here and not as every timed item failing."""

import ast
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


# -- the call surface of the timed run ----------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _chain(node, aliases):
    """The attribute names after ``hq`` in ``hq.frt.chi`` (or after an alias
    of a hopfeq module, such as ``frt = hq.frt``), or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    if node.id == "hq":
        return names[::-1]
    if node.id in aliases:
        return aliases[node.id] + names[::-1]
    return None


def _aliases(tree):
    """Local names bound to a hopfeq module: ``frt = hq.frt`` or
    ``kernels = importlib.import_module("hopfeq.kernels")``."""
    out = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        value, chain = node.value, _chain(node.value, {})
        if (isinstance(value, ast.Call) and _chain(value.func, {"importlib": []})
                == ["import_module"] and isinstance(value.args[0], ast.Constant)
                and value.args[0].value.startswith("hopfeq.")):
            chain = [value.args[0].value.removeprefix("hopfeq.")]
        if chain:
            name = node.targets[0].id
            assert out.setdefault(name, chain) == chain, f"{name} names two hopfeq objects"
    return out


def _uses(filename):
    """(line, chain, call or None) for every longest ``hq`` attribute chain."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    aliases = _aliases(tree)
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return tree, [(node.lineno, chain, calls.get(id(node)))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and id(node) not in inner
                  and (chain := _chain(node, aliases))]


USES = sorted(((filename, *use) for filename in ("workloads.py", "run.py")
               for use in _uses(filename)[1]), key=lambda u: u[:2])


def _resolve(chain):
    assert chain[0] in TRACER.MODULES, f"hq holds no module {chain[0]}"
    obj = importlib.import_module(f"hopfeq.{chain[0]}")
    for name in chain[1:]:
        obj = getattr(obj, name)
    return obj


def test_call_surface_is_found():
    # the walk sees direct calls, aliased calls and the CLI entry point
    chains = {".".join(chain) for _, _, chain, _ in USES}
    assert {"rewriting.complete", "frt.verify_delta_chi", "tensorops.TensorOp.from_json",
            "cli.main", "kernels.BACKEND"} <= chains


@pytest.mark.parametrize("filename,line,chain,call", USES,
                         ids=[f"{f}:{line}:{'.'.join(c)}" for f, line, c, _ in USES])
def test_timed_run_call_binds(filename, line, chain, call):
    obj = _resolve(chain)
    if call is None:
        return
    assert not any(isinstance(a, ast.Starred) for a in call.args)
    assert all(k.arg is not None for k in call.keywords)
    inspect.signature(obj).bind(*call.args, **{k.arg: None for k in call.keywords})


def _argv_lists():
    """Each ``cli.main`` argv of the workloads, with a parameter of the
    enclosing function replaced by every constant its callers pass."""
    tree, uses = _uses("workloads.py")
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    out = []
    for _, chain, call in uses:
        if chain != ["cli", "main"] or call is None:
            continue
        variants = [[]]
        for element in call.args[0].elts:
            if isinstance(element, ast.Constant):
                values = [element.value]
            else:
                fn = next(f for f in functions if f.lineno <= call.lineno <= f.end_lineno
                          and element.id in [a.arg for a in f.args.args])
                pos = [a.arg for a in fn.args.args].index(element.id)
                values = [c.args[pos].value for c in ast.walk(tree) if isinstance(c, ast.Call)
                          and isinstance(c.func, ast.Name) and c.func.id == fn.name]
                assert values, f"no constant reaches {element.id}"
            variants = [v + [x] for v in variants for x in values]
        out += variants
    return out


def test_cli_argv_lists_parse():
    from hopfeq import cli

    argvs = _argv_lists()
    assert {argv[argv.index("--eq") + 1] for argv in argvs} == {"hopf", "pentagon"}
    for argv in argvs:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"hopfeq does not parse {argv}")
