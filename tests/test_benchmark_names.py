"""The engine names that the benchmark's tracer patches still exist.

perfbench/tracer.py wraps the functions it lists by name, module by module,
and counts kernel methods by class and method name.  Its tables are read
here from the source text, without importing or executing the file, so a
rename in the engine fails this test instead of breaking the benchmark.
So does a change to what the tracer reads besides the names: the
parameters its buchberger wrapper forwards, and the attributes it reads off
a weil_restrict result.
"""

import ast
import importlib
import inspect
from functools import reduce
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


TREE = ast.parse(TRACER.read_text(encoding="utf-8"))


def _tables():
    """Every top-level and class-level constant assigned in tracer.py."""
    tables = {}
    for node in ast.walk(TREE):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id.isupper():
                try:
                    tables[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    continue
    return tables


TABLES = _tables()


def _engine(layer):
    return importlib.import_module(f"laurentdecide.{layer}")


def test_the_tracer_tables_are_found():
    assert {"LAYERS", "SPANNED", "GENERATORS", "BUCHBERGER_SITES", "KERNELS"} <= set(TABLES)
    assert set(TABLES["SPANNED"]) == set(TABLES["LAYERS"])


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in TABLES["SPANNED"].items() for name in names]
)
def test_every_spanned_name_resolves_in_its_engine_module(layer, name):
    fn = getattr(_engine(layer), name, None)
    assert callable(fn), f"laurentdecide.{layer}.{name} is gone"
    if name in TABLES["GENERATORS"]:
        assert inspect.isgeneratorfunction(fn), f"{layer}.{name} is timed as a generator"


@pytest.mark.parametrize("site", TABLES["BUCHBERGER_SITES"])
def test_every_groebner_site_binds_buchberger(site):
    assert getattr(_engine(site), "buchberger", None) is _engine("ideal").buchberger


@pytest.mark.parametrize("module, cls, methods, _metric", TABLES["KERNELS"])
def test_every_counted_kernel_method_exists(module, cls, methods, _metric):
    kind = getattr(_engine(module), cls)
    assert all(callable(getattr(kind, method, None)) for method in methods)


def _definition(body, name):
    """The function or class called name among the statements of body."""
    return next(node for node in body if getattr(node, "name", None) == name)


def test_the_buchberger_wrapper_takes_the_parameters_of_buchberger():
    keyed = _definition(
        _definition(_definition(TREE.body, "OpCounter").body, "_keyed").body, "keyed"
    ).args
    assert keyed.vararg is None and keyed.kwarg is None and not keyed.kwonlyargs
    params = inspect.signature(_engine("ideal").buchberger).parameters.values()
    assert [a.arg for a in keyed.args] == [p.name for p in params]
    defaults = [p.default for p in params if p.default is not inspect.Parameter.empty]
    assert [ast.literal_eval(d) for d in keyed.defaults] == defaults


def _attribute_chains(function):
    """The attribute paths the function reads off its last parameter, each
    as a tuple of names, e.g. ("ring", "nvars")."""
    param = function.args.args[-1].arg
    inner = set()
    chains = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Attribute) or node in inner:
            continue
        path = [node.attr]
        value = node.value
        while isinstance(value, ast.Attribute):
            inner.add(value)
            path.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id == param:
            chains.add(tuple(reversed(path)))
    return chains


def test_the_restriction_counter_reads_what_weil_restrict_returns():
    truncation, poly = _engine("truncation"), _engine("poly")
    ring = poly.PolyRing(_engine("ff").FqContext(3), ("X", "Y", "t"))
    x, y, t = (ring.var(i) for i in range(3))
    restriction = truncation.weil_restrict([x * x - y * y - t], ring, 2)
    chains = _attribute_chains(_definition(TREE.body, "_count_restriction"))
    assert ("ring", "nvars") in chains, chains
    for chain in chains:
        assert reduce(getattr, chain, restriction) is not None, chain
