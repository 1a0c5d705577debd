"""Differential tests of where F_q(t) enters the engine.

to_rational_coeffs, which module ideal applies to the polynomials of the
radical certificates it returns, against its former version
(tests/fraction_oracle.py) on every system that to_systems builds from the
first 60 seeded fuzz sentences of each field and on the criterion-1 sweep,
plus hand cases; each coefficient's numerator and denominator are compared
too, since certificate checkers read them.

The principal collapse of resolve._normalize, which now takes the one
generator of the system's basis over F_q[X, t] (system.basis, in
t_primitive form), against the former route, the one element of the
reduced basis over F_q(t) with its denominators cleared: on every collapse
that deciding the golden corpus and the sentence-mix benchmark workload
(seed 1) reaches, and on hand cases whose generator is not the unit ideal,
has a content, or has a leading coefficient that is not monic in t.
"""

import random
import sys
from pathlib import Path

import fraction_oracle as old
import pytest
from make_decision_golden import sentence_corpus
from test_one_equation_answers import _criterion_1_systems, _fuzz_systems

from laurentdecide import resolve
from laurentdecide.ff import FqContext
from laurentdecide.frontend import decide
from laurentdecide.poly import PolyRing, RationalFunction, UniPoly, to_rational_coeffs

F2 = FqContext(2)
F3 = FqContext(3)
F4 = FqContext(2, 2)
F5 = FqContext(5)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# -- to_rational_coeffs ----------------------------------------------------------


def _hand_polys():
    R = PolyRing(F3, ("X", "Y", "t"))
    x, y, t = R.var(0), R.var(1), R.var(2)
    yield R.zero()
    yield t                                   # t alone: the X-monomial 1
    yield t**3 - t + R.const(2)
    yield t**2 * x * y - x * y + t * y**2 - R.one()
    R4 = PolyRing(F4, ("X", "t"))
    a = R4.const(F4.gen())
    x4, t4 = R4.var(0), R4.var(1)
    yield a * t4**2 * x4 + (a + R4.one()) * x4 + a * t4
    yield a * a * x4**3 - t4**5
    # t not last, and no t slot at all
    yield PolyRing(F5, ("t", "X")).from_terms({(2, 1): 3, (0, 1): 1, (1, 0): 4})
    R0 = PolyRing(F4, ("X", "Y"))
    yield R0.from_terms({(1, 1): F4.gen(), (0, 0): 1})
    yield R0.zero()


def _corpus_polys():
    # 60 sentences per seed, not the 45 the fuzz tests decide: a positive O
    # atom of a polynomial builds no equation, and the corpus keeps over 300
    for system in list(_fuzz_systems(60)) + list(_criterion_1_systems()):
        yield from system.equations
        if system.inequation is not None:
            yield system.inequation


def _same(new, want):
    assert new == want and new.ring.names == want.ring.names
    for e, c in want.terms.items():
        assert (new.terms[e].num.coeffs, new.terms[e].den.coeffs) == (c.num.coeffs, c.den.coeffs)


def test_to_rational_coeffs_matches_the_former_conversion():
    polys = list(_corpus_polys())
    assert len(polys) > 300
    for f in polys + list(_hand_polys()):
        _same(to_rational_coeffs(f), old.to_rational_coeffs(f))


def test_from_unipoly_is_the_reduced_fraction():
    rng = random.Random(4)
    for ctx in (F2, F3, F4, F5):
        elems = list(ctx.elements())
        for _ in range(20):
            f = UniPoly(ctx, [rng.choice(elems) for _ in range(rng.randrange(0, 5))])
            new = RationalFunction.from_unipoly(f)
            want = RationalFunction(f, UniPoly.const(ctx, 1))
            assert (new.num.coeffs, new.den.coeffs) == (want.num.coeffs, want.den.coeffs)


# -- the principal collapse ------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_collapses():
    """{source: [equations]} of every principal collapse reached while
    deciding the golden corpus and sentence-mix seed 1."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import corpus
    finally:
        sys.path.remove(str(PERFBENCH))
    sources = {
        "golden": [(ctx, text, config) for _, ctx, text, config in sentence_corpus()],
        "sentence-mix": [(item.ctx, item.text, item.config) for item in corpus.sentence_mix(1)],
    }
    seen = {}
    real = resolve.AffineSystem.basis
    for source, items in sources.items():
        found = seen[source] = []

        def recorded(system):
            # each system builds its basis once; a principal one of two or
            # more equations is what _normalize collapses
            fresh = "basis" not in system.__dict__
            basis = real.__get__(system, type(system))
            if fresh and len(system.equations) > 1 and len(basis.generators) == 1:
                found.append(list(system.equations))
            return basis

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(resolve.AffineSystem, "basis", property(recorded))
            for ctx, text, config in items:
                decide(text, ctx, config)
    return seen


def _hand_collapses():
    R = PolyRing(F3, ("X", "Y", "t"))
    x, y, t, one = R.var(0), R.var(1), R.var(2), R.one()
    yield [x, x * y], x
    yield [t * x * (y - one), x**2 * (y - one)], x * y - x
    yield [(x - t) * y, (x - t) * y**2], x * y - t * y
    # three equations; the third is t times the generator
    h = x * (x + t)
    yield [h * y, h * y**2 + h, t * h], h
    # a content (t + 1) that the gcd keeps and the generator drops
    yield [(t + one) * x, (t + one) * x * y], x
    # X-leading coefficient 2t + 1 over F_3, scaled to t + 2
    h = (R.const(2) * t + one) * x + one
    yield [h * y, h * (y + one)], (t + R.const(2)) * x + R.const(2)
    # over F_4: leading coefficient a*t^2 + 1, scaled to t^2 + a^2, and a
    # content t that goes
    R4 = PolyRing(F4, ("X", "Y", "t"))
    x, y, t, one = R4.var(0), R4.var(1), R4.var(2), R4.one()
    a = R4.const(F4.gen())
    h = (a * t**2 + one) * x**2 + t * y
    b = a * a  # the inverse of a in F_4
    yield [t * h * x, t * h * (x + one)], t**2 * x**2 + b * x**2 + b * t * y
    # the unit ideal, with and without a common factor in t
    yield [t * x, t * (x - one)], one
    yield [x + t, x], one


def _check_collapse(equations, want=None):
    assert len(old.principal_basis(equations)) == 1
    (got,) = resolve.AffineSystem(equations[0].ring, equations).basis.generators
    assert got == old.principal_generator(equations), equations
    assert got.ring == equations[0].ring
    if want is not None:
        assert got == want


def test_principal_collapse_matches_the_basis_route_on_the_corpora(corpus_collapses):
    counts = {source: len(found) for source, found in corpus_collapses.items()}
    assert counts["golden"] >= 34 and counts["sentence-mix"] >= 14, counts
    for found in corpus_collapses.values():
        for equations in found:
            _check_collapse(equations)


def test_principal_collapse_matches_the_basis_route_on_hand_cases():
    for equations, want in _hand_collapses():
        _check_collapse(equations, want)
