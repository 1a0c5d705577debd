import random

import ideal_oracle
import pytest

from laurentdecide.ff import FqContext
from laurentdecide.ideal import (
    buchberger,
    dimension,
    exact_divide,
    gcd_multivariate,
    ideal_membership,
    normal_form,
    primitive_monic,
    radical_membership,
    squarefree_equation,
    squarefree_part,
)
from laurentdecide.poly import (
    MultiPoly,
    PolyRing,
    RationalFunction,
    RationalFunctionField,
    UniPoly,
    grevlex_key,
    to_rational_coeffs,
)

F2 = FqContext(2)
F3 = FqContext(3)
F5 = FqContext(5)


def ring(ctx, *names):
    return PolyRing(ctx, names)


def rational_ring(ctx, *names):
    return PolyRing(RationalFunctionField(ctx), names)


def rand_poly(rng, R, nterms=4, deg=3, coeff_bound=None):
    bound = coeff_bound or (R.field.q if hasattr(R.field, "q") else 3)
    terms = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        e = tuple(rng.randrange(deg + 1) for _ in range(R.nvars))
        if sum(e) > deg:
            e = tuple(0 for _ in e)
        terms[e] = rng.randrange(bound)
    return R.from_terms(terms)


# -- buchberger ---------------------------------------------------------------


def test_buchberger_absorbs_multiple():
    # {Y - X^2, XY - X^3}: the second is X*(first), basis is {Y - X^2} up to
    # the monic normalization (grevlex leading term is X^2)
    R = ring(F3, "X", "Y")
    f = R.var(1) - R.var(0) ** 2
    g = R.var(0) * R.var(1) - R.var(0) ** 3
    gb = buchberger([f, g])
    assert gb.generators == [f.monic()]


def test_buchberger_monomial_ideal():
    R = ring(F3, "X", "Y")
    gb = buchberger([R.var(0), R.var(1)])
    # canonical listing is ascending in the term order: Y < X in grevlex
    assert gb.generators == [R.var(1), R.var(0)]


def test_buchberger_zero_ideal():
    R = ring(F3, "X", "Y")
    gb = buchberger([R.zero()], ring=R)
    assert gb.generators == []
    gb2 = buchberger([], ring=R)
    assert gb2.generators == []


def test_buchberger_unit_ideal():
    R = ring(F3, "X")
    gb = buchberger([R.var(0), R.var(0) - R.one()])
    assert gb.contains_one()
    assert gb.generators == [R.one()]


def test_buchberger_textbook_grevlex():
    # classic: {x^3 - 2xy, x^2 y + x - 2y^2} over a field where 2 != 0
    R = ring(F5, "x", "y")
    x, y = R.var(0), R.var(1)
    f = x**3 - x * y - x * y  # x^3 - 2xy
    g = x**2 * y + x - y**2 - y**2
    gb = buchberger([f, g])
    lms = [h.lead_monomial() for h in gb.generators]
    # known grevlex basis has leading terms x^2, xy, y^2 (up to the order of listing)
    assert set(lms) == {(2, 0), (1, 1), (0, 2)}


def test_buchberger_idempotent_random():
    rng = random.Random(1234)
    R = ring(F3, "X", "Y")
    for _ in range(25):
        gens = [rand_poly(rng, R) for _ in range(rng.randrange(1, 4))]
        if not any(gens):
            continue
        gb = buchberger(gens, ring=R)
        gb2 = buchberger(gb.generators, ring=R)
        assert gb2.generators == gb.generators


def test_buchberger_ideal_equality_preserved():
    rng = random.Random(77)
    R = ring(F3, "X", "Y")
    for _ in range(20):
        gens = [rand_poly(rng, R) for _ in range(2)]
        if not any(gens):
            continue
        gb = buchberger(gens, ring=R)
        # every input reduces to zero against the basis, and every basis
        # element is certified by its cofactors over the inputs
        for f in gens:
            assert ideal_membership(f, gb)
        assert _recomposes(buchberger(gens, ring=R, track=True), gens)


def test_s_polynomials_reduce_to_zero():
    rng = random.Random(31)
    R = ring(F3, "X", "Y")
    for _ in range(15):
        gens = [rand_poly(rng, R) for _ in range(2)]
        if not any(gens):
            continue
        gb = buchberger(gens, ring=R)
        gens_nz = [g for g in gb.generators if g]
        for i in range(len(gens_nz)):
            for j in range(i):
                gi, gj = gens_nz[i], gens_nz[j]
                mi, mj = gi.lead_monomial(), gj.lead_monomial()
                lcm = tuple(max(a, b) for a, b in zip(mi, mj))
                s = gi.mul_term(
                    tuple(a - b for a, b in zip(lcm, mi)), gi.lead_coeff().inv()
                ) - gj.mul_term(tuple(a - b for a, b in zip(lcm, mj)), gj.lead_coeff().inv())
                assert not normal_form(s, gb)


def test_buchberger_over_rational_function_field():
    # X^2 - t over F_3(t), read off F_3[X, t]: already a basis; (tX, X)
    # collapses to (X), and (tX + t^2, X^2) to (X + t, t^2) = (1)
    R = ring(F3, "X", "t")
    x, t = R.var(0), R.var(1)
    f = x**2 - t
    gb = buchberger([f])
    assert gb.ring == R and gb.generators == [f]
    assert buchberger([t * x, x]).generators == [x]
    assert buchberger([t * x + t * t, x * x]).generators == [R.one()]
    # (t + 1)X + t: its primitive form, leading in tX over F_3[X, t]
    assert buchberger([(t + R.one()) * x * t + t * t]).generators == [(t + R.one()) * x + t]
    # the generators come over F_q[X, t] only
    Q = rational_ring(F3, "X")
    with pytest.raises(TypeError):
        buchberger([Q.var(0)])


# -- normal form as linear membership oracle ---------------------------------


def test_normal_form_cofactor_identity():
    rng = random.Random(911)
    R = ring(F3, "X", "Y")
    gens = [R.var(1) - R.var(0) ** 2, R.var(0) ** 3]
    gb = buchberger(gens, ring=R)
    for _ in range(25):
        f = rand_poly(rng, R)
        r, q = ideal_oracle.reduce_poly(f, gb.generators, with_quotients=True)
        acc = r
        for qi, gi in zip(q, gb.generators):
            acc = acc + qi * gi
        assert acc == f
        # f - NF(f) lies in the ideal, and the normal form is the remainder
        # made monic
        assert ideal_membership(f - r, gb)
        assert normal_form(f, gb) == r.monic()


# -- ideal membership ----------------------------------------------------------


def test_membership_examples():
    R = ring(F3, "X", "Y")
    x, y = R.var(0), R.var(1)
    gb_x2 = buchberger([x**2])
    assert not ideal_membership(x, gb_x2)
    gb_parab = buchberger([y - x**2])
    assert ideal_membership(y - x**2, gb_parab)
    assert ideal_membership(x**2 * y - x**4, gb_parab)


# -- radical membership ----------------------------------------------------------


def test_radical_membership_examples():
    R = ring(F3, "X", "Y")
    x, y = R.var(0), R.var(1)
    ok, cert = radical_membership(x, [x**2], with_certificate=True)
    assert ok and cert.verify()
    assert not radical_membership(x, [y])
    one_in, cert2 = radical_membership(R.one(), [x - R.one(), x], with_certificate=True)
    assert one_in and cert2.verify()


def test_radical_membership_implied_by_membership():
    rng = random.Random(3333)
    R = ring(F3, "X", "Y")
    for _ in range(12):
        gens = [rand_poly(rng, R) for _ in range(2)]
        if not any(gens):
            continue
        gb = buchberger(gens, ring=R)
        f = rand_poly(rng, R)
        if ideal_membership(f, gb):
            assert radical_membership(f, gens)


def test_radical_certificate_is_explicit():
    # the classical identity 1 = Z^2 X^2 + (1 + ZX)(1 - ZX)
    R = ring(F3, "X")
    x = R.var(0)
    ok, cert = radical_membership(x, [x**2], with_certificate=True)
    assert ok
    # re-check by direct arithmetic in the extended ring
    acc = cert.ring.zero()
    for c, f in zip(cert.cofactors, cert.lifted_gens + [cert.aux]):
        acc = acc + c * f
    assert acc == cert.ring.one()


# -- dimension -------------------------------------------------------------------


def test_dimension_examples():
    R = ring(F3, "X", "Y")
    x, y = R.var(0), R.var(1)
    assert dimension(buchberger([x * y - R.one()])) == 1
    assert dimension(buchberger([x, y])) == 0
    assert dimension(buchberger([R.one()])) is None
    assert dimension(buchberger([], ring=R)) == 2


def test_dimension_strictly_decreases_on_descent():
    # adjoining a polynomial outside the radical drops dimension
    rng = random.Random(60)
    R = ring(F3, "X", "Y")
    x, y = R.var(0), R.var(1)
    cases = [
        ([y - x**2], x),
        ([x * y - R.one()], x - R.one()),
        ([y**2 - x**3], x),
    ]
    for gens, u in cases:
        gb = buchberger(gens, ring=R)
        d0 = dimension(gb)
        assert not radical_membership(u, gens)
        gb2 = buchberger(gens + [u], ring=R)
        d1 = dimension(gb2)
        assert d1 is None or d1 < d0


# -- gcd / exact division ----------------------------------------------------------


def test_exact_divide():
    R = ring(F3, "X", "Y")
    x, y = R.var(0), R.var(1)
    f = (y - x**2) * (x + y)
    assert exact_divide(f, y - x**2) == x + y
    assert exact_divide(f, x) is None


def test_exact_divide_matches_full_division():
    # the quotient, term order included, of full division by one divisor,
    # and None exactly when that division leaves a remainder
    rng = random.Random(4417)
    for ctx, names in ((F3, ("X", "Y")), (FqContext(2, 2), ("X", "Y", "t"))):
        R = ring(ctx, *names)
        hits = 0
        for _ in range(60):
            g = rand_poly(rng, R, nterms=3, deg=2)
            f = rand_poly(rng, R, nterms=3, deg=2)
            if not g:
                continue
            for h in (f, f * g):
                r, (q,) = ideal_oracle.reduce_poly(h, [g], with_quotients=True)
                got = exact_divide(h, g)
                if r:
                    assert got is None
                else:
                    assert list(got.terms.items()) == list(q.terms.items())
                    hits += 1
        assert hits > 50


def test_gcd_multivariate_basic():
    R = ring(F3, "X", "Y")
    x, y = R.var(0), R.var(1)
    a = (y - x**2) ** 2 * x
    b = (y - x**2) * y
    g = gcd_multivariate(a, b)
    assert exact_divide(a, g) is not None
    assert exact_divide(b, g) is not None
    assert g.monic() == (y - x**2).monic()


def test_gcd_random_products():
    rng = random.Random(2024)
    R = ring(F3, "X", "Y")
    for _ in range(15):
        c = rand_poly(rng, R, nterms=2, deg=2)
        a = rand_poly(rng, R, nterms=2, deg=2)
        b = rand_poly(rng, R, nterms=2, deg=2)
        if not (c and a and b):
            continue
        g = gcd_multivariate(a * c, b * c)
        # gcd contains c (up to the gcd of a and b)
        assert exact_divide(g, gcd_multivariate(c, g)) is not None
        assert exact_divide(a * c, g) is not None
        assert exact_divide(b * c, g) is not None


# -- squarefree part -----------------------------------------------------------------
# squarefree parts live over F_q[X, t]: t is one more variable over the perfect
# field F_q


def test_squarefree_parabola_square():
    R = ring(F3, "X", "Y", "t")
    x, y = R.var(0), R.var(1)
    f = (y - x**2) ** 2
    s = squarefree_part(f)
    assert s.monic() == (y - x**2).monic()


def test_squarefree_xp_minus_t():
    # X^p - t: every partial but the one in t vanishes, and the polynomial is
    # already squarefree
    for ctx in (F2, F3, F5):
        R = ring(ctx, "X", "t")
        f = R.var(0) ** ctx.p - R.var(1)
        assert squarefree_part(f) == f.monic()
        assert squarefree_equation(f) == f


def test_squarefree_x_squared():
    R = ring(F3, "X", "t")
    x = R.var(0)
    assert squarefree_part(x**2) == x
    # and over F_2, where X^2 is a p-th power
    R2 = ring(F2, "X", "t")
    assert squarefree_part(R2.var(0) ** 2) == R2.var(0)


def test_squarefree_visible_pth_power_with_t():
    # (X^2 + t)^2 over F_2 is a square: every exponent is even
    R = ring(F2, "X", "t")
    x, t = R.var(0), R.var(1)
    f = (x**2 + t) ** 2
    assert squarefree_part(f) == x**2 + t


def test_squarefree_content_case():
    # Y^2 * (X - 1)^2: both squares go
    R = ring(F3, "X", "Y", "t")
    x, y = R.var(0), R.var(1)
    f = y**2 * (x - R.one()) ** 2
    s = squarefree_part(f)
    assert s.monic() == (y * (x - R.one())).monic()


def test_squarefree_divides_and_radical():
    R = ring(F3, "X", "Y", "t")
    x, y = R.var(0), R.var(1)
    cases = [
        (y - x**2) ** 2,
        (y**2 - x**3) * (y - x**2) ** 2,
        x**2 * y,
        (x + y) ** 3,
    ]
    for f in cases:
        s = squarefree_part(f)
        assert exact_divide(f, s) is not None
        assert radical_membership(s, [f])


def test_squarefree_mixed_exponent_char3():
    # (X^3 - t)^2 over F_3: the square of an inseparable factor
    R = ring(F3, "X", "t")
    x, t = R.var(0), R.var(1)
    f = (x**3 - t) ** 2
    assert squarefree_part(f) == (x**3 - t).monic()


def test_squarefree_t_content_beside_pth_power():
    # t^3 * X^5 over F_5: the t-content and the fifth power both go
    R = ring(F5, "X", "t")
    x, t = R.var(0), R.var(1)
    f = t**3 * x**5
    assert squarefree_part(f) == t * x
    assert squarefree_equation(f) == x


def test_squarefree_t_content_beside_square_char2():
    R = ring(F2, "X", "t")
    x, t = R.var(0), R.var(1)
    h = x * t**2 + t**2 + R.one()
    f = t * x**2 * h**2
    assert squarefree_equation(f) == x * h


def test_squarefree_equation_is_primitive_with_t_monic_lead():
    # (t^2 + 1)*(2*t*X^2 + t^2*Y)^2 over F_3: the content t*(t^2 + 1) goes, and
    # the F_3[t] coefficient of the leading X-monomial X^2 becomes monic in t
    R = ring(F3, "X", "Y", "t")
    x, y, t = R.var(0), R.var(1), R.var(2)
    f = (t**2 + R.one()) * (R.const(2) * t * x**2 + t**2 * y) ** 2
    assert squarefree_equation(f) == x**2 + R.const(2) * t * y


# -- differential test against the two-loop implementation -------------------


def _criterion_6_ideals():
    """The 50 random ideals of criterion 6 (test_acceptance), same seed."""
    rng = random.Random(60609)
    out = []
    while len(out) < 50:
        nv = rng.choice((2, 3))
        R = PolyRing(F3, tuple("XYZ"[:nv]))
        gens = []
        for _ in range(rng.randrange(1, 4)):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                e = tuple(rng.randrange(3) for _ in range(nv))
                if sum(e) > 3:
                    continue
                terms[e] = rng.randrange(3)
            f = R.from_terms(terms)
            if f:
                gens.append(f)
        if gens:
            out.append((gens, None))
    R2 = PolyRing(F3, ("X", "Y"))
    x, y = R2.var(0), R2.var(1)
    for g, gens in [
        (x, [x**2]),
        (x, [y]),
        (R2.one(), [x - R2.one(), x]),
        (y - x**2, [(y - x**2) ** 2]),
        (x + y, [x * y]),
    ]:
        out.append((gens, g))
    out += [([x * y - R2.one()], None), ([x, y], None), ([R2.one()], None)]
    return out


def _idempotent_random_ideals():
    """The ideals of test_buchberger_idempotent_random, same seed."""
    rng = random.Random(1234)
    R = ring(F3, "X", "Y")
    out = []
    for _ in range(25):
        gens = [rand_poly(rng, R) for _ in range(rng.randrange(1, 4))]
        if any(gens):
            out.append((gens, None))
    return out


def _fuzz_system_ideals():
    """Equations and inequation over F_q[X, t] of every system to_systems
    builds from the seeded sentences of test_fuzz_sentences_f3 and _f2."""
    from test_fuzz import random_sentence

    from laurentdecide.frontend import eliminate_valuation_atoms, parse, to_systems

    out = []
    for seed, ctx in ((777001, F3), (424242, F2)):
        rng = random.Random(seed)
        for _ in range(45):
            sentence = eliminate_valuation_atoms(parse(random_sentence(rng)))
            for system in to_systems(sentence, ctx):
                gens = [f for f in system.equations if f]
                if gens:
                    out.append((gens, system.inequation))
    return out


# Cases, by index into the list below, whose tracked cofactors and radical
# certificate differ from the oracle's: the Gebauer-Moeller criteria reduce
# fewer S-polynomials than its all-pairs loop, so other representations of
# the same reduced basis come out.  Both are idempotent random ideals.
COFACTORS_CHANGED = (71, 74)


def _recomposes(gb, gens):
    """Every basis element times its denominator D is the sum of its
    cofactors times the generators."""
    ring = gb.ring
    zero, x0 = ring.zero(), (0,) * len(ring.xslots)
    return all(sum((c * f for c, f in zip(cof, gens)), zero)
               == ring.from_coefficients({x0: d}) * h
               for h, (d, cof) in zip(gb.generators, gb.cofactors))


def _fractions(f):
    """f read over F_q(t)[X] when its ring has a t slot, as it stands
    otherwise: the oracles' input."""
    return f if f.ring.tpos is None else to_rational_coeffs(f)


def _cleared(f, ring):
    """f over F_q(t)[X] (over F_q without a t slot) as a polynomial over
    ring: its denominators cleared, in the t_primitive form of the engine's
    bases and normal forms; zero stays zero."""
    if not f:
        return ring.zero()
    if ring.tpos is None:
        return f.monic()
    den = UniPoly.const(ring.field, 1)
    for c in f.terms.values():
        den = den * c.den
    coefficients = {x: c.num * (den // c.den) for x, c in f.terms.items()}
    return primitive_monic(ring.from_coefficients(coefficients))


def _fraction_cofactors(gb):
    """The cofactors over F_q(t) (over F_q without a t slot) of the monic
    basis that gb's generators are the primitive forms of: R_j / (D * lc)
    for D * g = sum R_j * f_j and lc the leading coefficient of g in F_q[t]."""
    out = []
    for g, (d, cof) in zip(gb.generators, gb.cofactors):
        coeffs = g.x_coefficients()
        den = d * coeffs[max(coeffs, key=grevlex_key)]
        if g.ring.tpos is None:
            out.append([c.scale(den.coeffs[0].inv()) for c in cof])
            continue
        frac = g.ring.fractions()
        out.append([MultiPoly(frac, {x: RationalFunction(u, den)
                                     for x, u in c.x_coefficients().items()}) for c in cof])
    return out


def test_groebner_layer_matches_two_loop_oracle():
    import ideal_oracle as old

    cases = _criterion_6_ideals() + _idempotent_random_ideals() + _fuzz_system_ideals()
    assert len(cases) > 150
    certificates = 0
    changed, changed_certificates = [], []
    for k, (gens, g) in enumerate(cases):
        R = gens[0].ring
        frac = [_fractions(f) for f in gens]
        gb = buchberger(gens, ring=R)
        tracked = buchberger(gens, ring=R, track=True)
        want = old.buchberger(frac, ring=frac[0].ring, track=True)
        assert gb.cofactors is None
        assert gb.generators == tracked.generators == [_cleared(h, R) for h in want.generators]
        assert _recomposes(tracked, gens)
        if _fraction_cofactors(tracked) != want.cofactors:
            changed.append(k)
        # the normal form by the basis
        probes = [gens[0] * gens[-1]] + [f + R.one() for f in gens]
        if g is not None:
            probes.append(g)
        for f in probes:
            expect = old.reduce_poly(_fractions(f), want.generators)
            assert normal_form(f, gb) == _cleared(expect, R)
        h = R.one() if g is None else g
        got = radical_membership(h, gens, with_certificate=True)
        expect = old.radical_membership(_fractions(h), frac, with_certificate=True)
        assert got[0] == expect[0] == radical_membership(h, gens)
        if expect[1] is not None:
            certificates += 1
            assert (got[1].ring, got[1].lifted_gens, got[1].aux) == (
                expect[1].ring, expect[1].lifted_gens, expect[1].aux
            )
            if got[1].cofactors != expect[1].cofactors:
                changed_certificates.append(k)
                assert got[1].verify()
    assert certificates >= 10
    assert changed == changed_certificates == list(COFACTORS_CHANGED)


def _check_regularity_of_disjuncts(sentences):
    """Run the regularity check on every normalized disjunct system of the
    sentences that is not empty.  The decision loop checks only the systems
    that truncation leaves undecided, so this gives the oracles below the
    loci of every system, under the O-atom encoding in force."""
    from laurentdecide import frontend, resolve
    from laurentdecide.frontend import parse

    for ctx, text, _ in sentences:
        for system in frontend.to_systems(frontend.eliminate_valuation_atoms(parse(text)), ctx):
            normalized = resolve._normalize(system, [])
            if normalized.dim is not None:
                resolve.regularity_check(normalized)


def _resolve_loci():
    """(generators, ring) of every call of resolve.buchberger while deciding
    the criterion-8 corpus and the seeded sentences of test_fuzz_sentences_f3
    and _f2, and while checking the regularity of each of their normalized
    disjuncts: system bases and the singular loci (equations plus Jacobian
    minors) of the regularity check, over F_q[X, t].  A sentence with an
    O atom is decided and checked twice, the second time under the
    Artin-Schreier encoding of frontend_oracle, whose quadratic equations
    give larger loci."""
    import frontend_oracle
    from make_decision_golden import fuzz_corpus
    from test_acceptance import CORPUS

    from laurentdecide import frontend, resolve
    from laurentdecide.frontend import decide, eliminate_valuation_atoms, parse

    calls = []

    def capture(generators, ring=None, track=False):
        calls.append((list(generators), ring))
        return buchberger(generators, ring=ring, track=track)

    sentences = [(ctx, text, None) for _, ctx, text, _ in CORPUS]
    sentences += [(ctx, text, config) for label, ctx, text, config in fuzz_corpus()
                  if not label.startswith("fuzz-31415")]
    encoded_apart = [(ctx, text, config) for ctx, text, config in sentences
                     if frontend_oracle.eliminate_valuation_atoms(parse(text))
                     != eliminate_valuation_atoms(parse(text))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolve, "buchberger", capture)
        for ctx, text, config in sentences:
            decide(text, ctx, config)
        _check_regularity_of_disjuncts(sentences)
        patch.setattr(frontend, "eliminate_valuation_atoms",
                      frontend_oracle.eliminate_valuation_atoms)
        for ctx, text, config in encoded_apart:
            decide(text, ctx, config)
        _check_regularity_of_disjuncts(encoded_apart)
    return calls


def test_resolve_loci_match_two_loop_oracle():
    import ideal_oracle as old

    cases = _resolve_loci()
    assert len(cases) >= 60
    assert max(len(gens) for gens, _ in cases) >= 7
    for gens, R in cases:
        want = old.buchberger([to_rational_coeffs(f) for f in gens], ring=R.fractions())
        assert buchberger(gens, ring=R).generators == [_cleared(h, R) for h in want.generators]


# -- differential test against the Buchberger loop over F_q(t) ----------------


def _engine_buchberger_calls():
    """(generators, ring) of every buchberger call, at every binding, while
    deciding the criterion-8 corpus and the seeded sentences of
    test_fuzz_sentences_f3 and _f2, and while checking the regularity of
    each of their normalized disjuncts."""
    from make_decision_golden import fuzz_corpus
    from test_acceptance import CORPUS

    from laurentdecide import hensel, ideal, resolve
    from laurentdecide.frontend import decide

    calls = []

    def capture(generators, ring=None, track=False):
        calls.append((list(generators), ring))
        return buchberger(generators, ring=ring, track=track)

    sentences = [(ctx, text, None) for _, ctx, text, _ in CORPUS]
    sentences += [(ctx, text, config) for label, ctx, text, config in fuzz_corpus()
                  if not label.startswith("fuzz-31415")]
    with pytest.MonkeyPatch.context() as patch:
        for module in (resolve, hensel, ideal):
            patch.setattr(module, "buchberger", capture)
        for ctx, text, config in sentences:
            decide(text, ctx, config)
        _check_regularity_of_disjuncts(sentences)
    return calls


def _hand_cases():
    """(generators, ring): t before another unknown (the ring of the
    saturation guard), no t slot, F_4 coefficients, zero generators, and no
    generator at all."""
    F4 = FqContext(2, 2)
    out = []
    R = ring(F3, "X", "Y", "t", "Zsat")
    x, y, t, z = (R.var(i) for i in range(4))
    det = x * t + y * y
    out.append(([x * y - t, x * x - t * y, R.one() - z * det], R))
    out.append(([t * t * x - y, t * y * y + x, t * z * x - R.one()], R))
    R = ring(F5, "X", "Y")
    x, y = R.var(0), R.var(1)
    out.append(([x * x * y - R.const(2), x * y * y + y, x**3 - y], R))
    R = ring(F4, "X", "Y", "t")
    x, y, t = R.var(0), R.var(1), R.var(2)
    a = R.const(F4.gen())
    out.append(([a * x * x + t * y, (a + R.one()) * x * y - t * t, y * y - a * t * x], R))
    out.append(([R.zero(), t * x - y, R.zero(), x * y + a * t], R))
    out.append(([R.zero()], R))
    out.append(([], R))
    out.append(([], ring(F3, "X")))
    return out


def _t_lead_ideals():
    """Seeded ideals over F_3[X, Y, t] with t in many leading coefficients,
    so that S-pairs and reduction steps have multipliers other than 1."""
    rng = random.Random(2024)
    R = ring(F3, "X", "Y", "t")
    out = []
    for _ in range(40):
        gens = []
        for _ in range(rng.randrange(2, 4)):
            terms = {}
            for _ in range(rng.randrange(2, 5)):
                e = (rng.randrange(3), rng.randrange(3), rng.randrange(3))
                terms[e] = rng.randrange(1, 3)
            gens.append(R.from_terms(terms))
        out.append((gens, R))
    return out


def test_fraction_free_buchberger_matches_fraction_field_loop():
    import ideal_oracle as old

    engine = _engine_buchberger_calls()
    assert len(engine) >= 60
    rings = [R or gens[0].ring for gens, R in engine]
    assert any(R.tpos is not None and R.tpos != R.nvars - 1 for R in rings)
    assert max(len(gens) for gens, _ in engine) >= 5
    layer = [(gens, gens[0].ring)
             for gens, _ in _criterion_6_ideals() + _idempotent_random_ideals()
             + _fuzz_system_ideals()]
    assert len(layer) == 169
    units = 0
    for gens, R in engine + layer + _hand_cases() + _t_lead_ideals():
        R = R or gens[0].ring
        want = old.frac_buchberger([_fractions(f) for f in gens], ring=R, track=True)
        got = buchberger(gens, ring=R)
        tracked = buchberger(gens, ring=R, track=True)
        assert got.cofactors is None
        assert got.ring == tracked.ring == R
        assert want.ring == (R if R.tpos is None else R.fractions())
        assert got.generators == tracked.generators == [_cleared(h, R) for h in want.generators]
        assert _recomposes(tracked, gens)
        assert _fraction_cofactors(tracked) == want.cofactors
        assert dimension(got) == old.frac_dimension(want)
        units += want.contains_one()
        probes = [R.one()] + [R.var(i) for i in range(R.nvars)] + [f + R.one() for f in gens]
        if gens:
            probes.append(gens[0] * gens[-1])
        for f in probes:
            expect = old.frac_reduce_poly(_fractions(f), want.generators)
            assert normal_form(f, got) == _cleared(expect, R)
    assert units >= 5


# -- differential test against the F_q(t) squarefree part ---------------------


def _x_degree(f):
    """Total degree in the X variables of a polynomial whose last slot is t."""
    return max(sum(e) - e[-1] for e in f.terms)


def _corpus_equations():
    """Every equation with an X variable of every system to_systems builds
    from the criterion-8 corpus and the seeded test_fuzz sentences."""
    from make_decision_golden import sentence_corpus

    from laurentdecide.frontend import eliminate_valuation_atoms, parse, to_systems

    out = []
    for _, ctx, text, _ in sentence_corpus():
        for system in to_systems(eliminate_valuation_atoms(parse(text)), ctx):
            out += [f for f in system.equations if _x_degree(f) > 0]
    return out


def _random_products(rng, ctx, count):
    """Seeded products of one or two random factors in 1-3 unknowns and t,
    each raised to the power 1, 2 or p, some times a power of t."""
    elems = list(ctx.elements())
    out = []
    while len(out) < count:
        m = rng.randrange(1, 4)
        R = PolyRing(ctx, tuple("XYZ"[:m]) + ("t",))
        f = R.one()
        for _ in range(rng.randrange(1, 3)):
            terms = {}
            for _ in range(rng.randrange(1, 3)):
                e = [0] * (m + 1)
                for _ in range(rng.randrange(1, 3)):
                    e[rng.randrange(m + 1)] += 1
                terms[tuple(e)] = rng.choice(elems[1:])
            terms[(0,) * (m + 1)] = rng.choice(elems)
            f = f * R.from_terms(terms) ** rng.choice((1, 2, ctx.p))
        if rng.random() < 0.4:
            f = f * R.var(m) ** rng.randrange(1, ctx.p + 2)
        if f and _x_degree(f) > 0:
            out.append(f)
    return out


def _is_squarefree(f):
    g = f
    for v in range(f.ring.nvars):
        g = gcd_multivariate(g, f.partial(v))
    return g.is_constant()


def test_squarefree_matches_rational_function_oracle():
    import squarefree_oracle as old
    from frontend_oracle import clear_denominators

    from laurentdecide.poly import to_rational_coeffs

    rng = random.Random(7077)
    inputs = _corpus_equations()
    n_corpus = len(inputs)
    for ctx in (F2, F3, F5, FqContext(2, 2), FqContext(3, 2)):
        inputs += _random_products(rng, ctx, 40)
    agreed = repaired = 0
    for f in inputs:
        s = squarefree_part(f)
        new = squarefree_equation(f)
        new_changed = _x_degree(new) < _x_degree(f)
        rat = to_rational_coeffs(f)
        sf = old.squarefree_part(rat)
        (want,) = clear_denominators([sf])
        if _is_squarefree(want):
            agreed += 1
            assert (new, new_changed) == (want, sf.monic() != rat.monic()), f
        else:
            repaired += 1
            assert exact_divide(f, s) is not None, f
            power = s
            while exact_divide(power, f) is None:
                assert power.total_degree() <= f.total_degree() * s.total_degree(), f
                power = power * s
        assert _is_squarefree(s) and _is_squarefree(new), f
        assert exact_divide(s, new) is not None, f
    assert n_corpus > 150
    assert agreed > 150 and repaired >= 5
