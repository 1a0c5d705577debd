"""The engine names that the benchmark's tracer patches still exist.

perfbench/tracer.py wraps the functions it lists by name, module by module,
and counts kernel methods by class and method name.  Its tables are read
here from the source text, without importing or executing the file, so a
rename in the engine fails this test instead of breaking the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tables():
    """Every top-level and class-level constant assigned in tracer.py."""
    tables = {}
    for node in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8"))):
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
