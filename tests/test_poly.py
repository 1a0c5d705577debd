import random

import frontend_oracle
import poly_oracle
import pytest

from laurentdecide.ff import FqContext
from laurentdecide.poly import (
    PolyRing,
    RationalFunction,
    RationalFunctionField,
    UniPoly,
    jacobian,
    to_rational_coeffs,
    uni_gcd,
)

F2 = FqContext(2)
F3 = FqContext(3)
F5 = FqContext(5)


def ring(ctx, *names):
    return PolyRing(ctx, names)


# -- independent naive oracle: dict-based polynomial arithmetic ------------


def naive_mul(a, b, nvars):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, e1[0] * 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def as_dict(f):
    return dict(f.terms)


# -- UniPoly / RationalFunction --------------------------------------------


def test_unipoly_divmod_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        a = UniPoly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 6))])
        b = UniPoly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 4))])
        if not b:
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        if r:
            assert r.degree() < b.degree()


def _all_unipolys(ctx, max_degree):
    """Every polynomial over ctx of degree <= max_degree, zero included."""
    out = [UniPoly(ctx, [])]
    for n in range(1, max_degree + 2):
        for code in range(ctx.q ** (n - 1), ctx.q**n):
            cs = []
            for _ in range(n):
                code, c = divmod(code, ctx.q)
                cs.append(c)
            out.append(UniPoly(ctx, cs))
    return out


def test_unipoly_divmod_matches_term_by_term_oracle():
    F4, F7 = FqContext(2, 2), FqContext(7)
    pairs = []
    for ctx in (F2, F3):
        polys = _all_unipolys(ctx, 4)
        assert len(polys) == ctx.q**5
        pairs += [(a, b) for a in polys for b in polys if b]
    rng = random.Random(4077)
    for ctx in (F4, F7):
        elems = list(ctx.elements())
        for _ in range(400):
            a = UniPoly(ctx, [rng.choice(elems) for _ in range(rng.randrange(0, 9))])
            b = UniPoly(ctx, [rng.choice(elems) for _ in range(rng.randrange(1, 6))])
            if b:
                pairs.append((a, b))
    kinds = set()
    for a, b in pairs:
        q, r = a.divmod(b)
        assert (q.coeffs, r.coeffs) == tuple(x.coeffs for x in poly_oracle.divmod_poly(a, b))
        assert a // b == q and a % b == r
        kinds.add("constant divisor" if b.degree() == 0 else
                  "zero dividend" if not a else
                  "divisor longer" if b.degree() > a.degree() else "long division")
    assert kinds == {"constant divisor", "zero dividend", "divisor longer", "long division"}
    for ctx in (F2, F4):
        for a in (UniPoly(ctx, []), UniPoly(ctx, [1, 1])):
            with pytest.raises(ZeroDivisionError):
                a.divmod(UniPoly(ctx, []))
            with pytest.raises(ZeroDivisionError):
                poly_oracle.divmod_poly(a, UniPoly(ctx, []))


def test_uni_gcd_known():
    # gcd(t^2 - 1, t - 1) = t - 1 over F_3
    a = UniPoly(F3, [2, 0, 1])
    b = UniPoly(F3, [2, 1])
    assert uni_gcd(a, b) == b.monic()


def test_rational_reduction():
    # (t^2 - 1)/(t - 1) reduces to t + 1
    num = UniPoly(F3, [2, 0, 1])
    den = UniPoly(F3, [2, 1])
    r = RationalFunction(num, den)
    assert r.den == UniPoly.const(F3, 1)
    assert r.num == UniPoly(F3, [1, 1])


def test_rational_field_axioms_random():
    rng = random.Random(99)
    field = RationalFunctionField(F3)

    def rand_rf():
        num = UniPoly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 4))])
        den = UniPoly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 4))])
        if not den:
            den = UniPoly.const(F3, 1)
        return RationalFunction(num, den)

    for _ in range(40):
        a, b, c = rand_rf(), rand_rf(), rand_rf()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inv() == field.one()


# -- MultiPoly arithmetic ----------------------------------------------------


def test_char2_add_cancel():
    R = ring(F2, "X")
    f = R.from_terms({(1,): 1, (0,): 1})  # X + 1
    assert not (f + f)


def test_char2_frobenius_square():
    R = ring(F2, "X", "Y")
    f = R.var(0) + R.var(1)
    assert f * f == R.from_terms({(2, 0): 1, (0, 2): 1})


def test_f3_square_expansion():
    # (X+Y)^2 = X^2 + 2XY + Y^2 over F_3
    R = ring(F3, "X", "Y")
    f = R.var(0) + R.var(1)
    assert f * f == R.from_terms({(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_ring_axioms_random():
    rng = random.Random(4242)
    R = ring(F3, "X", "Y")

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            e = (rng.randrange(3), rng.randrange(3))
            terms[e] = rng.randrange(3)
        return R.from_terms(terms)

    for _ in range(50):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_a_single_term_power_is_the_repeated_product():
    # one term is raised by its exponents and coefficient; check against k
    # multiplications, over F_q[X, t] and over F_q(t)
    t = RationalFunction.from_unipoly(UniPoly(F3, [0, 1]))
    cases = [
        (ring(F3, "X", "t"), [{(1, 0): 1}, {(0, 1): 1}, {(2, 3): 2}, {(0, 0): 2}, {}]),
        (ring(FqContext(2, 2), "X", "Y"), [{(1, 2): (0, 1)}, {(3, 0): (1, 1)}]),
        (ring(RationalFunctionField(F3), "X"), [{(2,): t + RationalFunction.const(F3, 1)}]),
    ]
    for R, terms in cases:
        for f in (R.from_terms(x) for x in terms):
            product = R.one()
            for k in range(6):
                assert (f**k).terms == product.terms, (f, k)
                product = product * f


def test_domain_mismatch_rejected():
    with pytest.raises(ValueError):
        ring(F2, "X").var(0) + ring(F3, "X").var(0)


# -- jacobian ----------------------------------------------------------------


def test_jacobian_char_p_power_rule():
    # d/dX of X^p - t is 0 in characteristic p
    for ctx in (F2, F3, F5):
        R = ring(ctx, "X", "t")
        f = R.from_terms({(ctx.p, 0): 1, (0, 1): -1})
        (row,) = jacobian([f], [0])
        assert not row[0]


def test_jacobian_product_system():
    R = ring(F3, "X", "Y")
    f = R.var(0) * R.var(1) - R.one()
    (row,) = jacobian([f], [0, 1])
    assert row[0] == R.var(1)
    assert row[1] == R.var(0)


def test_jacobian_cusp_f5():
    # {Y^2 - X^3} over F_5: (-3X^2, 2Y)
    R = ring(F5, "X", "Y")
    f = R.var(1) ** 2 - R.var(0) ** 3
    (row,) = jacobian([f], [0, 1])
    assert row[0] == R.from_terms({(2, 0): -3})
    assert row[1] == R.from_terms({(0, 1): 2})


def test_jacobian_is_derivation_on_products():
    rng = random.Random(11)
    R = ring(F3, "X", "Y")

    def rand_poly():
        return R.from_terms(
            {(rng.randrange(3), rng.randrange(3)): rng.randrange(3) for _ in range(3)}
        )

    for _ in range(30):
        f, g = rand_poly(), rand_poly()
        for j in (0, 1):
            lhs = (f * g).partial(j)
            rhs = f.partial(j) * g + f * g.partial(j)
            assert lhs == rhs


# -- MultiPoly.total_degree -------------------------------------------------


def test_total_degree_counts_t():
    R = ring(F3, "X", "t")
    assert R.from_terms({(2, 0): 1, (0, 0): 1}).total_degree() == 2
    # t*X + t^3 has total degree 3 (t counted as a variable)
    assert R.from_terms({(1, 1): 1, (0, 3): 1}).total_degree() == 3
    assert R.one().total_degree() == 0
    with pytest.raises(ValueError):
        R.zero().total_degree()


def test_total_degree_multiplicative_over_domain():
    rng = random.Random(5)
    R = ring(F5, "X", "Y")
    for _ in range(40):
        f = R.from_terms({(rng.randrange(3), rng.randrange(3)): rng.randrange(1, 5) for _ in range(2)})
        g = R.from_terms({(rng.randrange(3), rng.randrange(3)): rng.randrange(1, 5) for _ in range(2)})
        if f and g:
            assert (f * g).total_degree() == f.total_degree() + g.total_degree()


# -- retags ------------------------------------------------------------------


def test_to_rational_coeffs_roundtrip():
    R = ring(F3, "X", "t")
    f = R.from_terms({(2, 0): 1, (0, 1): -1})  # X^2 - t
    g = to_rational_coeffs(f)
    assert g.ring.names == ("X",)
    t = UniPoly(F3, [0, 1])
    assert g.terms[(2,)] == RationalFunction.const(F3, 1)
    assert g.terms[(0,)] == RationalFunction(-t, UniPoly.const(F3, 1))
    (back,) = frontend_oracle.clear_denominators([g])
    assert back == f
