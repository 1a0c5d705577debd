"""F_q(t) lives only inside module ideal (and the radical certificates it
writes).  The layers that work over a system's own ring F_q[X, t] hand
their polynomials to ideal as they are, so none of them imports, defines or
refers to the F_q(t) machinery: the field descriptor, the conversion into
it, univariate polynomials in t and their gcds, or denominator clearing.
frontend may import RationalFunction, the type of an explicit constant
(TConst), which it reads as a pair of polynomials."""

import ast
from pathlib import Path

import pytest

import laurentdecide
from laurentdecide.resolve import AffineSystem

PACKAGE = Path(laurentdecide.__file__).resolve().parent
LAYERS = ("resolve", "hensel", "truncation", "series", "frontend")
BANNED = frozenset(
    ("RationalFunctionField", "to_rational_coeffs", "UniPoly", "uni_gcd", "uni_lcm",
     "clear_denominators")
)


def _banned_names(source):
    """The banned names that the source imports, defines or refers to."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.rpartition(".")[2] for a in node.names]
            names += [a.asname for a in node.names if a.asname]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        found.update(BANNED.intersection(names))
    return sorted(found)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_does_not_touch_the_fraction_field(layer):
    source = (PACKAGE / f"{layer}.py").read_text(encoding="utf-8")
    assert _banned_names(source) == []


def test_the_guard_sees_every_way_of_naming():
    assert _banned_names("from .poly import UniPoly as U") == ["UniPoly"]
    assert _banned_names("from .poly import MultiPoly as clear_denominators") == [
        "clear_denominators"
    ]
    assert _banned_names("from . import poly\npoly.to_rational_coeffs(f)") == ["to_rational_coeffs"]
    assert _banned_names("import laurentdecide.poly\nlaurentdecide.poly.uni_gcd(a, b)") == ["uni_gcd"]
    assert _banned_names("def uni_lcm(a, b):\n    pass") == ["uni_lcm"]
    assert _banned_names("class RationalFunctionField:\n    pass") == ["RationalFunctionField"]
    assert _banned_names("from .poly import RationalFunction, PolyRing") == []


def test_systems_keep_no_fraction_field_copy():
    assert not hasattr(AffineSystem, "rational")
    assert not hasattr(AffineSystem, "rational_ring")
