"""The truncation decider meets the inequation itself: module truncation
lifts a confirmed witness and perturbs it until g has exact valuation, and
module resolve only hands it regular systems.  So resolve imports, defines
or refers to none of the Hensel layer's lifting and perturbation names."""

from pathlib import Path

from test_fraction_field_boundary import _banned_names

import laurentdecide

PACKAGE = Path(laurentdecide.__file__).resolve().parent
LIFTING = frozenset(("newton_lift", "smooth_perturb", "CertificateError"))


def test_resolve_does_not_lift_or_perturb():
    source = (PACKAGE / "resolve.py").read_text(encoding="utf-8")
    assert _banned_names(source, LIFTING) == []


def test_truncation_is_where_the_perturbation_runs():
    source = (PACKAGE / "truncation.py").read_text(encoding="utf-8")
    assert _banned_names(source, LIFTING) == sorted(LIFTING)


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
