import random

import pytest
import series_oracle

from laurentdecide.ff import FqContext
from laurentdecide.poly import PolyRing, UniPoly
from laurentdecide.series import (
    AtLeast,
    PointTable,
    TruncatedSeries,
    evaluate,
    invert_unit,
    series_point,
    shift_right,
    val_exact,
    val_ge,
    valuation,
)

F2 = FqContext(2)
F3 = FqContext(3)


def S(ctx, coeffs, n=None):
    return TruncatedSeries(ctx, coeffs, n)


# -- independent oracle: multiply coefficient lists then truncate ------------


def naive_mul(a, b, n, p):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[:n]):
            if i + j < n:
                out[i + j] = (out[i + j] + x * y) % p
    return out


def test_mul_known_f3():
    # (1+t)(1-t) = 1 - t^2 mod t^3
    a = S(F3, [1, 1], 3)
    b = S(F3, [1, 2], 3)
    assert (a * b).coeffs == tuple(F3.elem(c) for c in (1, 0, 2))


def test_square_known_f3():
    # (1+2t+t^2)^2 = 1 + 4t + 6t^2 + ... = 1 + t mod t^3 over F_3
    a = S(F3, [1, 2, 1], 3)
    sq = a * a
    assert sq.coeffs == tuple(F3.elem(c) for c in (1, 1, 0))


def test_t2_times_t2_underflows():
    a = S(F3, [0, 0, 1], 3)
    assert not (a * a)
    assert valuation(a * a) == AtLeast(3)


def test_mul_matches_naive_oracle():
    rng = random.Random(2718)
    for _ in range(50):
        n = rng.randrange(1, 6)
        a = [rng.randrange(3) for _ in range(n)]
        b = [rng.randrange(3) for _ in range(n)]
        got = S(F3, a, n) * S(F3, b, n)
        assert [c.coords[0] for c in got.coeffs] == naive_mul(a, b, n, 3)


def test_precision_min_rule():
    a = S(F3, [1, 1, 1], 3)
    b = S(F3, [1, 1], 2)
    assert (a + b).precision == 2
    assert (a * b).precision == 2


def test_truncation_commutes_with_arithmetic():
    rng = random.Random(1)
    for _ in range(40):
        a = S(F3, [rng.randrange(3) for _ in range(4)], 4)
        b = S(F3, [rng.randrange(3) for _ in range(4)], 4)
        for n in (1, 2, 3):
            assert (a * b).truncate(n) == a.truncate(n) * b.truncate(n)
            assert (a + b).truncate(n) == a.truncate(n) + b.truncate(n)


# -- valuation ----------------------------------------------------------------


def test_valuation_examples():
    assert valuation(S(F3, [0, 0, 0, 1], 5)) == 3
    assert valuation(S(F3, [], 4)) == AtLeast(4)
    assert valuation(S(F3, [2, 1], 2)) == 0


def test_valuation_additivity_when_exact():
    rng = random.Random(55)
    for _ in range(60):
        n = 8
        a = [0] * rng.randrange(3) + [rng.randrange(1, 3)] + [rng.randrange(3)]
        b = [0] * rng.randrange(3) + [rng.randrange(1, 3)] + [rng.randrange(3)]
        sa, sb = S(F3, a, n), S(F3, b, n)
        va, vb = valuation(sa), valuation(sb)
        if val_exact(va) and val_exact(vb) and va + vb < n:
            assert valuation(sa * sb) == va + vb


def test_val_ge_helper():
    assert val_ge(AtLeast(4), 4)
    assert val_ge(AtLeast(5), 4)
    assert not val_ge(AtLeast(3), 4)
    assert val_ge(7, 4)
    assert not val_ge(3, 4)


# -- unit inversion ------------------------------------------------------------


def test_invert_unit_geometric_series():
    # 1/(1-t) = 1 + t + t^2 mod t^3; verified by multiplying back
    a = S(F3, [1, 2], 3)
    inv = invert_unit(a)
    assert inv.coeffs == tuple(F3.elem(c) for c in (1, 1, 1))
    assert a * inv == TruncatedSeries.one(F3, 3)


def test_invert_constant():
    a = S(F3, [2], 2)
    assert invert_unit(a).coeffs == tuple(F3.elem(c) for c in (2, 0))


def test_invert_nonunit_raises():
    with pytest.raises(ValueError):
        invert_unit(S(F3, [0, 1], 3))
    with pytest.raises(ValueError):
        invert_unit(TruncatedSeries.zero(F3, 3))


def test_invert_unit_is_involution():
    rng = random.Random(17)
    for _ in range(40):
        a = S(F3, [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(5)], 6)
        assert invert_unit(invert_unit(a)) == a


def test_shift_right():
    a = S(F3, [0, 0, 1, 2], 4)
    b = shift_right(a, 2)
    assert b.precision == 2
    assert b.coeffs == tuple(F3.elem(c) for c in (1, 2))
    with pytest.raises(ValueError):
        shift_right(S(F3, [1, 0, 0], 3), 1)


def test_a_coefficient_that_is_a_sum_prints_in_parentheses():
    # over F_4 the digit 1 + a is a sum: its product with t^i needs brackets,
    # as MultiPoly's coefficients get them
    F4 = FqContext(2, 2)
    digit = F4.one() + F4.gen()
    assert repr(S(F4, [0, digit], 2)) == "((1 + a)*t + O(t^2))"
    assert repr(UniPoly(F4, [1, digit])) == "1 + (1 + a)*t"
    R = PolyRing(F4, ("X",))
    assert repr(R.const(digit) * R.var(0)) == "(1 + a)*X"


# -- polynomial evaluation at series points ------------------------------------


def test_evaluate_with_t_slot():
    # (X^2 - t) at X = t, precision 3: t^2 - t
    R = PolyRing(F3, ("X", "t"))
    f = R.from_terms({(2, 0): 1, (0, 1): -1})
    x = S(F3, [0, 1], 3)
    point = series_point(R, [x], 3)
    got = evaluate(f, point)
    assert got.coeffs == tuple(F3.elem(c) for c in (0, 2, 1))


def test_evaluate_product_at_units():
    # (XY - 1) at (1, 1) over F_3 vanishes
    R = PolyRing(F3, ("X", "Y"))
    f = R.var(0) * R.var(1) - R.one()
    got = evaluate(f, [S(F3, [1], 2), S(F3, [1], 2)])
    assert not got


def test_evaluate_exact_over_f4():
    F4 = FqContext(2, 2)
    R = PolyRing(F4, ("X", "Y"))
    f = R.var(0) + R.var(1)
    a = F4.gen()
    s = evaluate(f, [TruncatedSeries.constant(F4, F4.one(), 1), TruncatedSeries.constant(F4, a, 1)])
    assert s.coeffs == (F4.elem((1, 1)),)


def test_evaluate_precision_mismatch():
    R = PolyRing(F3, ("X",))
    f = R.var(0)
    with pytest.raises(ValueError):
        evaluate(f, [])  # arity
    R2 = PolyRing(F3, ("X", "Y"))
    g = R2.var(0) + R2.var(1)
    with pytest.raises(ValueError):
        evaluate(g, [S(F3, [1], 2), S(F3, [1], 3)])  # mixed precision


# -- field mixing is checked once per polynomial or series operation ---------

F5 = FqContext(5)
R3, R5 = PolyRing(F3, ("X", "t")), PolyRing(F5, ("X", "t"))
MIXED = {
    "multipoly-add": lambda: R3.var(0) + R5.var(0),
    "multipoly-mul": lambda: R3.var(0) * R5.var(0),
    "series-add": lambda: S(F3, [1, 1]) + S(F5, [1, 1]),
    "series-mul": lambda: S(F3, [1, 1]) * S(F5, [1, 1]),
    "unipoly-add": lambda: UniPoly(F3, [1, 1]) + UniPoly(F5, [1, 1]),
    "evaluate": lambda: evaluate(R3.var(0), [S(F5, [0, 1]), S(F5, [0, 1])]),
}


@pytest.mark.parametrize("case", sorted(MIXED))
def test_mixed_fields_raise(case):
    with pytest.raises(ValueError):
        MIXED[case]()


# -- point evaluation against the per-term powering it replaced ---------------

ORACLE_FIELDS = [F2, F3, F5, FqContext(2, 2), FqContext(3, 2)]


def _random_poly(rng, ring):
    elems = list(ring.field.elements())
    terms = {
        tuple(rng.randrange(7) for _ in range(ring.nvars)): rng.choice(elems)
        for _ in range(rng.randrange(0, 6))
    }
    return ring.from_terms(terms)


def _random_series(rng, ctx, n):
    elems = list(ctx.elements())
    return S(ctx, [rng.choice(elems) for _ in range(n)], n)


def test_evaluate_matches_oracle_on_random_polynomials():
    """One table per point, shared by several polynomials, equals the
    oracle's per-term powering; so does evaluate at points whose t slot holds
    an arbitrary series, and series_point equals the oracle's."""
    rng = random.Random(20261018)
    checked = 0
    for _ in range(400):
        ctx = rng.choice(ORACLE_FIELDS)
        m = rng.randint(1, 3)
        names = [f"X{i}" for i in range(m)]
        if rng.random() < 0.7:
            names.insert(rng.randrange(m + 1), "t")
        ring = PolyRing(ctx, names)
        n = rng.randint(1, 16)
        xs = [_random_series(rng, ctx, n) for _ in range(m)]
        if rng.random() < 0.2:
            xs[0] = TruncatedSeries.t(ctx, n)  # an unknown equal to t
        polys = [_random_poly(rng, ring) for _ in range(3)]
        point = series_point(ring, xs, n)
        assert point == series_oracle.series_point(ring, xs, n)
        table = PointTable(ring, point)
        for f in polys:
            assert table(f) == series_oracle.evaluate(f, point)
            checked += 1
        if ring.tpos is not None:
            # the generic path: the t slot holds an arbitrary series, mostly not t
            point = list(point)
            point[ring.tpos] = _random_series(rng, ctx, n)
            for f in polys:
                assert evaluate(f, point) == series_oracle.evaluate(f, point)
                checked += 1
    assert checked > 1500


def _raised(fn):
    try:
        fn()
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return type(err), str(err)
    return None


def test_evaluate_errors_match_oracle():
    R = PolyRing(F3, ("X", "Y", "t"))
    x, y = R.var(0), R.var(1)
    f = x * x + y
    cases = [
        (f, [S(F3, [1, 1], 2)] * 2),  # arity
        (PolyRing(F3, ()).one(), []),  # no coordinates
        (f, [S(F3, [1, 1], 2), S(F3, [1, 1, 1], 3), S(F3, [0, 1], 2)]),  # mixed precision
        (f, [S(F5, [1, 1], 2), S(F3, [1, 1], 2), S(F3, [0, 1], 2)]),  # point over F_5
        (f, [S(F3, [1, 1], 2), S(F5, [1, 1], 2), S(F3, [0, 1], 2)]),  # Y over F_5
        (x, [S(F3, [1, 1], 2), S(F5, [1, 1], 2), S(F3, [0, 1], 2)]),  # unused Y over F_5
        (f, [S(F3, [1, 1], 2), S(F5, [0, 1], 2), S(F3, [0, 1], 2)]),  # Y = t over F_5
    ]
    for g, point in cases:
        expected = _raised(lambda: series_oracle.evaluate(g, point))
        assert _raised(lambda: evaluate(g, point)) == expected
    assert [_raised(lambda: evaluate(g, p)) is None for g, p in cases] == [
        False, False, False, False, False, True, False
    ]


def test_point_table_builds_each_power_once(monkeypatch):
    """X^5*Y^3 + 2*X^4 + t^7*Y at precision 8 takes X^2..X^5, Y^2, Y^3 and the
    product X^5*Y^3: the coefficient 2 is a scale and t^7 a shift, so no other
    series product runs.  A second polynomial at the same point reuses the
    powers."""
    R = PolyRing(F3, ("X", "Y", "t"))
    f = R.from_terms({(5, 3, 0): 1, (4, 0, 0): 2, (0, 1, 7): 1})
    g = R.from_terms({(3, 1, 0): 1, (2, 0, 1): 1})
    point = series_point(R, [S(F3, [1, 2, 0, 1], 8), S(F3, [2, 1, 1], 8)], 8)
    mul = TruncatedSeries.__mul__
    products = []

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    fv = evaluate(f, point)
    assert len(products) == 7
    table = PointTable(R, point)
    assert table(f) == fv
    gv = table(g)
    assert len(products) == 7 + 7 + 1  # then X^3*Y only
    monkeypatch.undo()
    assert fv == series_oracle.evaluate(f, point)
    assert gv == series_oracle.evaluate(g, point)
