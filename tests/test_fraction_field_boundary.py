"""F_q(t) lives only inside module ideal (and the radical certificates it
writes).  The layers that work over a system's own ring F_q[X, t] hand
their polynomials to ideal as they are, so none of them imports, defines or
refers to the F_q(t) machinery: the field descriptor, the conversion into
it, univariate polynomials in t and their gcds, or denominator clearing.
frontend may import RationalFunction, the type of an explicit constant
(TConst), which it reads as a pair of polynomials.

Inside ideal, the Groebner routines work over F_q[X, t] too, and only
radical_membership, which converts the certificate it returns, names
F_q(t): its elements and field descriptor, the conversion into it and
PolyRing.fractions."""

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
FRACTION_FIELD = frozenset(
    ("RationalFunction", "RationalFunctionField", "to_rational_coeffs", "fractions")
)


def _banned_names(source, banned=BANNED):
    """The banned names that the source imports, defines or refers to."""
    return _names_in(ast.parse(source), banned)


def _fraction_field_outside_radical_membership(source):
    """The F_q(t) names that the source names outside its top-level
    function radical_membership."""
    tree = ast.parse(source)
    tree.body = [node for node in tree.body
                 if not (isinstance(node, ast.FunctionDef) and node.name == "radical_membership")]
    return _names_in(tree, FRACTION_FIELD)


def _names_in(tree, banned):
    found = set()
    for node in ast.walk(tree):
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
        found.update(banned.intersection(names))
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


def test_ideal_names_the_fraction_field_only_in_radical_membership():
    source = (PACKAGE / "ideal.py").read_text(encoding="utf-8")
    assert _fraction_field_outside_radical_membership(source) == []
    # the guard has something to see: the certificate's conversion
    assert _banned_names(source, FRACTION_FIELD) == sorted(FRACTION_FIELD - {"RationalFunctionField"})


def test_the_ideal_guard_sees_a_use_outside_radical_membership():
    inside = (
        "def radical_membership(g):\n"
        "    from .poly import RationalFunction, to_rational_coeffs\n"
        "    return g.ring.fractions()\n"
    )
    check = _fraction_field_outside_radical_membership
    assert check(inside) == []
    assert check("from .poly import RationalFunction\n" + inside) == ["RationalFunction"]
    assert check(inside + "def dimension(gb):\n    return gb.ring.fractions()\n") == ["fractions"]
    assert check("from . import poly\npoly.to_rational_coeffs(f)") == ["to_rational_coeffs"]
    assert check("import laurentdecide.poly as RationalFunctionField") == ["RationalFunctionField"]
    assert check("class _Scalar:\n    def radical_membership(self):\n"
                 "        return RationalFunction(a, b)\n") == ["RationalFunction"]


def test_systems_keep_no_fraction_field_copy():
    assert not hasattr(AffineSystem, "rational")
    assert not hasattr(AffineSystem, "rational_ring")
