"""Differential test of the X/t split that module poly owns (PolyRing.tpos,
xslots and from_coefficients, whose one-coefficient case is a polynomial in
t alone; MultiPoly.x_degree, x_coefficients and monic) and of the contents
over F_q[t] (ideal.primitive_part and primitive_monic, which take them with
ideal.t_primitive and uni_gcd) against the helpers they replaced, in tests/split_oracle.py, which takes contents with the recursive
gcd_multivariate.  Polynomials are compared with ==.

The polynomials: every equation and inequation that to_systems builds from
the seeded fuzz sentences (one seed over F_4 besides those of
tests/test_fuzz.py), from the criterion-8 corpus and from criterion 4's
O(c*t^k) / ~O(c*t^k) sweep, every equation of the criterion-1 sweep, and
hand cases: the zero polynomial, a polynomial in t alone, F_4 coefficients,
a ring without a t slot and the ring ("t", "X").
The oracle helpers that read t as the last slot are handed a copy of the
polynomial with its t slot moved last, or appended with exponent 0 when its
ring has none.
"""

import random

import pytest
import split_oracle as old
from test_acceptance import CORPUS as CRITERION_8
from test_fuzz import random_sentence
from test_one_equation_answers import _criterion_1_systems, _fuzz_systems
from test_valuation_encoding import criterion_4_sentences

from laurentdecide.ff import FqContext
from laurentdecide.frontend import eliminate_valuation_atoms, parse, to_systems
from laurentdecide.ideal import primitive_monic, primitive_part
from laurentdecide.poly import MultiPoly, PolyRing, UniPoly

F3 = FqContext(3)
F4 = FqContext(2, 2)
F5 = FqContext(5)


def _system_polys(systems):
    for system in systems:
        yield from system.equations
        if system.inequation is not None:
            yield system.inequation


def _more_fuzz_systems():
    yield from _fuzz_systems()
    rng = random.Random(161803)
    for _ in range(45):
        yield from to_systems(eliminate_valuation_atoms(parse(random_sentence(rng))), F4)


def _criterion_8_systems():
    for _, ctx, text, _ in CRITERION_8:
        yield from to_systems(eliminate_valuation_atoms(parse(text)), ctx)
    for ctx, sentence, _ in criterion_4_sentences():
        yield from to_systems(eliminate_valuation_atoms(sentence), ctx)


def _hand_polys():
    R = PolyRing(F3, ("X", "Y", "t"))
    x, y, t = R.var(0), R.var(1), R.var(2)
    yield R.zero()
    yield t**3 - t + R.const(2)
    yield t * t * x * y - t * y + t
    R4 = PolyRing(F4, ("X", "t"))
    a = R4.const(F4.gen())
    x4, t4 = R4.var(0), R4.var(1)
    yield a * t4**2 * x4 + (a + R4.one()) * x4 * x4 + a * t4
    yield (a * t4 + R4.one()) * (x4 - t4) * (a * t4 * t4 + R4.one())
    Rt = PolyRing(F5, ("t", "X"))
    yield Rt.from_terms({(2, 1): 3, (0, 1): 1, (1, 0): 4})
    yield Rt.from_terms({(1, 2): 2, (3, 0): 1, (3, 1): 4})
    yield Rt.var(0) ** 2 + Rt.one()
    yield Rt.zero()
    R0 = PolyRing(F4, ("X", "Y"))
    yield R0.from_terms({(1, 1): F4.gen(), (0, 0): 1})
    yield R0.const(F4.gen())
    yield R0.zero()


SOURCES = {
    "fuzz": (lambda: _system_polys(_more_fuzz_systems()), 200),
    "criterion-8": (lambda: _system_polys(_criterion_8_systems()), 19),
    "criterion-1": (lambda: _system_polys(_criterion_1_systems()), 120),
    "hand": (_hand_polys, 12),
}


def _t_last(f):
    """f with its t slot moved last, or appended with exponent 0."""
    names = f.ring.names
    xs = [i for i, name in enumerate(names) if name != "t"]
    tpos = names.index("t") if "t" in names else None
    terms = {
        tuple(e[i] for i in xs) + (0 if tpos is None else e[tpos],): c for e, c in f.terms.items()
    }
    return MultiPoly(PolyRing(f.ring.field, [names[i] for i in xs] + ["t"]), terms)


def _same(a, b):
    assert a.ring == b.ring
    assert a == b


def check(f):
    ring = f.ring
    assert ring.tpos == (ring.names.index("t") if "t" in ring.names else None)
    assert ring.xslots == tuple(old._x_indices(ring))
    last = _t_last(f)
    assert (f.x_degree() <= 0) == old._x_free(last)
    assert (f.x_degree() > 0) == old.has_x(f)
    _same(f.monic(), old._normalize_unit(f))
    if f:
        assert f.x_degree() == old.x_degree(last)
        assert (f.x_degree() == 0) == old.unit_minor(last)
    else:
        assert f.x_degree() == -1
        with pytest.raises(ValueError):
            old.x_degree(last)
    tpos = ring.tpos
    rebuilt = [
        (x if tpos is None else x[:tpos] + (k,) + x[tpos:], c)
        for x, u in f.x_coefficients().items()
        for k, c in enumerate(u.coeffs)
        if c
    ]
    assert sorted(rebuilt) == sorted(f.terms.items())
    if tpos is None:
        return
    if f:
        for new, reference in ((primitive_part, old.primitive_part),
                               (primitive_monic, old.primitive_monic)):
            _same(new(f), reference(f))
    else:
        for monic in (primitive_monic, old.primitive_monic):
            with pytest.raises(ValueError):
                monic(f)


@pytest.mark.parametrize("source", SOURCES)
def test_split_matches_the_replaced_helpers(source):
    polys, least = SOURCES[source]
    count = 0
    for f in polys():
        check(f)
        count += 1
    assert count >= least, count


def _t_poly(ring, u):
    """The polynomial in t alone whose coefficients are the UniPoly u's."""
    return ring.from_coefficients({(0,) * len(ring.xslots): u})


def test_t_poly_matches_the_front_end_helper():
    for ctx in (F3, F4, F5):
        for names in (("X", "t"), ("X", "Y", "t")):
            ring = PolyRing(ctx, names)
            for coeffs in ([], [1], [0, 1], [2, 0, 1], [0, 0, 0, ctx.p - 1]):
                u = UniPoly(ctx, coeffs)
                _same(_t_poly(ring, u), old._t_poly(ring, u))
    ring = PolyRing(F5, ("t", "X"))
    t = ring.var(0)
    assert _t_poly(ring, UniPoly(F5, [1, 0, 3])) == t * t * ring.const(3) + ring.one()
