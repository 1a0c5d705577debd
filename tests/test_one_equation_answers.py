"""Differential test: a normalized system with at most one equation is
answered over F_q[X, t] (the X-degree of the equation for emptiness and
dimension, one exact division by its primitive part for "g vanishes on the
locus") exactly as the Groebner route answers it over F_q(t): the
staircase dimension of a reduced basis, and Rabinowitsch radical
membership.

The systems: every one that to_systems builds from the seeded fuzz
sentences, every system of the criterion-1 sweep, both after
normalization; the blow-up charts of the cusp and the tacnode; and hand
cases for the t-content, an inseparable equation, g = 0, and a g that the
equation divides only over F_q(t).
"""

import hashlib
import random
from collections import Counter

import pytest
from test_acceptance import _curated_systems, _random_system
from test_fuzz import random_sentence

from laurentdecide.ff import FqContext
from laurentdecide.frontend import eliminate_valuation_atoms, parse, to_systems
from laurentdecide.hensel import system_dimension
from laurentdecide.ideal import buchberger, dimension, radical_membership
from laurentdecide.poly import MultiPoly, PolyRing
from laurentdecide.resolve import AffineSystem, _blow_up_at, _normalize, vanishes_on_locus

F2 = FqContext(2)
F3 = FqContext(3)
F5 = FqContext(5)


def _fuzz_systems(count=45):
    """The systems of the first count sentences of each seed of
    test_fuzz_sentences_f3 and _f2, which decide 45."""
    for seed, ctx in ((777001, F3), (424242, F2)):
        rng = random.Random(seed)
        for _ in range(count):
            sentence = eliminate_valuation_atoms(parse(random_sentence(rng)))
            yield from to_systems(sentence, ctx)


def _criterion_1_systems():
    rng = random.Random(190840)
    for ctx in (F2, F3):
        for ring, eqs in _curated_systems(ctx):
            yield AffineSystem(ring, eqs)
        for m in (1, 2):
            for _ in range(22):
                yield AffineSystem(*_random_system(rng, ctx, m))


def _chart_systems():
    for ctx in (F3, F5):
        ring = PolyRing(ctx, ("X", "Y", "t"))
        x, y = ring.var(0), ring.var(1)
        for curve in (y * y - x * x * x, y * y - x**4):
            for chart, images in _blow_up_at(curve, (ctx.zero(), ctx.zero())):
                # the inequation X != 0 pulled back, as the blow-up does
                yield AffineSystem(ring, [chart.strict], images[0])


def _hand_systems():
    ring = PolyRing(F3, ("X", "t"))
    x, t = ring.var(0), ring.var(1)
    yield AffineSystem(ring, [t * x], x)                   # t-content
    yield AffineSystem(ring, [x**3 - t], x - ring.one())   # inseparable, irreducible
    yield AffineSystem(ring, [x**3 - t], x**3 - t)
    yield AffineSystem(ring, [x * x - ring.one()], ring.zero())   # g = 0
    yield AffineSystem(ring, [], ring.zero())
    yield AffineSystem(ring, [], x)
    yield AffineSystem(ring, [t + ring.one()], x)          # empty locus
    ring2 = PolyRing(F5, ("X", "Y", "t"))
    x, y, t = ring2.var(0), ring2.var(1), ring2.var(2)
    # f = (t^2 + 1)(X^2 - Y) divides g = X*(X^2 - Y) over F_5(t) only
    f = (t * t + ring2.one()) * (x * x - y)
    yield AffineSystem(ring2, [f], x * (x * x - y))
    yield AffineSystem(ring2, [f], x * x + y)


def _cases():
    seen = set()
    sources = {"fuzz": _fuzz_systems(), "criterion-1": _criterion_1_systems(),
               "charts": _chart_systems(), "hand": _hand_systems()}
    for source, systems in sources.items():
        for system in systems:
            normalized = _normalize(system, [])
            key = (normalized.ring, tuple(normalized.equations), normalized.inequation)
            if len(normalized.equations) <= 1 and key not in seen:
                seen.add(key)
                yield source, normalized


CASES = list(_cases())


def _case_id(source, system):
    """The case's source and a digest of its system's text, so that adding
    or dropping one case leaves every other id as it was."""
    text = f"{system.ring!r}: {system.equations!r} != {system.inequation!r}"
    return f"{source}-{hashlib.sha1(text.encode()).hexdigest()[:10]}"


def _test_polys(system):
    """The inequation, 0, each unknown, and each equation with its largest
    power of t divided out and times an unknown: members and non-members."""
    ring = system.ring
    tpos = ring.tpos
    out = [ring.zero()] + [ring.var(i) for i in range(tpos)]
    if system.inequation is not None:
        out.append(system.inequation)
    for f in system.equations:
        low = min(e[tpos] for e in f.terms)
        stripped = MultiPoly(ring, {e[:tpos] + (e[tpos] - low,): c for e, c in f.terms.items()})
        out += [stripped, stripped * ring.var(0)]
    return out


def test_the_sources_are_covered():
    counts = Counter(source for source, _ in CASES)
    assert counts["fuzz"] >= 20 and counts["criterion-1"] >= 40, counts
    assert counts["charts"] == 8 and counts["hand"] == 9, counts
    assert len({_case_id(*case) for case in CASES}) == len(CASES)


@pytest.mark.parametrize(
    "system", [system for _, system in CASES], ids=[_case_id(*case) for case in CASES]
)
def test_answers_over_the_polynomial_ring_match_the_groebner_route(system):
    if system.equations:
        gb = buchberger(system.equations, ring=system.ring)
        expected_dim = dimension(gb)
        assert gb.contains_one() == (system.dim is None)
    else:
        expected_dim = len(system.xnames)
    assert system.dim == expected_dim
    assert system_dimension(system.equations, system.ring) == expected_dim
    for g in _test_polys(system):
        expected = radical_membership(g, system.equations)
        assert vanishes_on_locus(system, g) == expected, (system.equations, g)
        member, cert = vanishes_on_locus(system, g, with_certificate=True)
        assert member == expected and (cert is not None) == expected
        assert cert is None or cert.verify()
