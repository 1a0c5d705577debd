"""The truncation decider meets the inequation itself: module truncation
lifts a confirmed witness and perturbs it until g has exact valuation, and
module resolve only hands it regular systems.  So resolve imports, defines
or refers to none of the Hensel layer's lifting and perturbation names.

A certified point always lifts (Hensel's lemma, in newton_lift's
docstring), so a CertificateError from the engine is a broken invariant:
no module of the package catches it, and truncation does not name it."""

import ast
from pathlib import Path

import pytest

from test_fraction_field_boundary import _banned_names

import laurentdecide

PACKAGE = Path(laurentdecide.__file__).resolve().parent
LIFTING = frozenset(("newton_lift", "smooth_perturb", "CertificateError"))


def test_resolve_does_not_lift_or_perturb():
    source = (PACKAGE / "resolve.py").read_text(encoding="utf-8")
    assert _banned_names(source, LIFTING) == []


def test_truncation_is_where_the_perturbation_runs():
    source = (PACKAGE / "truncation.py").read_text(encoding="utf-8")
    assert _banned_names(source, LIFTING) == ["newton_lift", "smooth_perturb"]


def _handlers_naming(source, name):
    """Line numbers of the except clauses of source that name name, alone,
    in a tuple or as a module attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(getattr(c, "id", getattr(c, "attr", None)) == name for c in caught):
                lines.append(node.lineno)
    return lines


def test_no_module_catches_a_certificate_error():
    caught = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := _handlers_naming(path.read_text(encoding="utf-8"), "CertificateError"))
    }
    assert caught == {}


@pytest.mark.parametrize(
    "handler, lines",
    [
        ("CertificateError", [3]),
        ("CertificateError as err", [3]),
        ("(ValueError, CertificateError)", [3]),
        ("hensel.CertificateError", [3]),
        ("ValueError", []),
    ],
)
def test_the_handler_guard_sees_every_way_of_catching(handler, lines):
    source = f"try:\n    pass\nexcept {handler}:\n    pass"
    assert _handlers_naming(source, "CertificateError") == lines


def test_the_guard_sees_every_way_of_naming():
    assert _banned_names("from .hensel import smooth_perturb as nudge", LIFTING) == [
        "smooth_perturb"
    ]
    assert _banned_names("from . import hensel\nhensel.newton_lift(t, p, c, 8)", LIFTING) == [
        "newton_lift"
    ]
    assert _banned_names("try:\n    pass\nexcept CertificateError:\n    pass", LIFTING) == [
        "CertificateError"
    ]
    assert _banned_names("from .hensel import certify_liftable, MinorTable", LIFTING) == []
