import random
from collections import Counter
from dataclasses import fields
from itertools import chain

import blowup_oracle
import normalize_oracle
import pytest
import regularity_oracle
from frontend_oracle import clear_denominators
from test_one_equation_answers import _criterion_1_systems
from test_xt_split import _criterion_8_systems, _more_fuzz_systems

from laurentdecide import resolve
from laurentdecide.cli import verify_verdict
from laurentdecide.ff import FqContext
from laurentdecide.frontend import decide, eliminate_valuation_atoms, parse, to_systems
from laurentdecide.ideal import buchberger, dimension, radical_membership
from laurentdecide.poly import PolyRing, RationalFunctionField
from laurentdecide.resolve import (
    AffineSystem,
    _blow_up_at,
    _constant_singular_points,
    blow_up_origin,
    decide_existential,
    descend,
    regularity_check,
)
from laurentdecide.series import (
    TruncatedSeries,
    evaluate,
    point_table,
    series_point,
    val_exact,
    val_ge,
    valuation,
)

F2 = FqContext(2)
F3 = FqContext(3)
F5 = FqContext(5)


def tring(ctx, *names):
    return PolyRing(ctx, tuple(names) + ("t",))


def rational_ring(ctx, *names):
    return PolyRing(RationalFunctionField(ctx), names)


# -- regularity ----------------------------------------------------------------


def test_regularity_frobenius_line():
    # {X^p - t}: the spread-out scheme is the affine line (Jacobian (0, -1)),
    # regular even though the generic fibre is nowhere smooth
    for ctx in (F2, F3, F5):
        R = tring(ctx, "X")
        f = R.from_terms({(ctx.p, 0): 1, (0, 1): -1})
        report = regularity_check(AffineSystem(R, [f]))
        assert report.status == "regular"
        assert report.dimension == 0


def test_regularity_cusp_singular():
    R = tring(F5, "X", "Y")
    f = R.from_terms({(0, 2, 0): 1, (3, 0, 0): -1})  # Y^2 - X^3
    report = regularity_check(AffineSystem(R, [f]))
    assert report.status == "singular"
    assert report.dimension == 1
    # the singular locus must pin the origin: X and Y vanish on it
    locus_gb = buchberger(report.singular_locus, ring=R)
    assert radical_membership(R.var(0), locus_gb.generators)
    assert radical_membership(R.var(1), locus_gb.generators)


def test_regularity_hyperbola_regular():
    R = tring(F3, "X", "Y")
    f = R.from_terms({(1, 1, 0): 1, (0, 0, 0): -1})  # XY - 1
    report = regularity_check(AffineSystem(R, [f]))
    assert report.status == "regular"


def test_regularity_principal_in_disguise_is_fine():
    # (X, XY) = (X): codimension 1 matched by the reduced basis size, and the
    # Y-axis is regular
    R = tring(F3, "X", "Y")
    f1 = R.from_terms({(1, 0, 0): 1})
    f2 = R.from_terms({(1, 1, 0): 1})
    report = regularity_check(AffineSystem(R, [f1, f2]))
    assert report.status == "regular"


def test_regularity_inconclusive_nonequidimensional():
    # (XZ, YZ) = (Z) * (X, Y) in 3 variables: a plane union a line, mixed
    # dimensions; neither the input count nor the basis size matches the
    # codimension, so unmixedness cannot be concluded
    R = tring(F3, "X", "Y", "Z")
    f1 = R.from_terms({(1, 0, 1, 0): 1})
    f2 = R.from_terms({(0, 1, 1, 0): 1})
    report = regularity_check(AffineSystem(R, [f1, f2]))
    assert report.status == "inconclusive"


# -- blow-ups -------------------------------------------------------------------


def curve_ring(ctx):
    return rational_ring(ctx, "X", "Y")


def test_blow_up_cusp():
    R = curve_ring(F5)
    x, y = R.var(0), R.var(1)
    f = y**2 - x**3
    c0, c1 = blow_up_origin(f)
    assert c0.multiplicity == 2
    assert c0.strict == y**2 - x  # Y'^2 - X
    assert c1.strict == R.one() - x**3 * y  # 1 - X'^3 Y
    for chart in (c0, c1):
        pullback = f.compose(list(chart.back_map), R)
        assert pullback == chart.strict * chart.exceptional**chart.multiplicity


def test_blow_up_node_normal_crossing():
    R = curve_ring(F3)
    x, y = R.var(0), R.var(1)
    f = x * y
    c0, c1 = blow_up_origin(f)
    assert c0.multiplicity == 2
    assert c0.strict == y
    assert c1.strict == x


def test_blow_up_smooth_line():
    R = curve_ring(F3)
    x, y = R.var(0), R.var(1)
    c0, c1 = blow_up_origin(y)
    assert c0.multiplicity == 1
    assert c0.strict == y
    assert c1.strict == R.one()


def test_blow_up_requires_origin():
    R = curve_ring(F3)
    with pytest.raises(ValueError):
        blow_up_origin(R.var(0) - R.one())


def test_cusp_resolves_in_one_blow_up():
    R = curve_ring(F5)
    x, y = R.var(0), R.var(1)
    f = y**2 - x**3
    charts = blow_up_origin(f)
    T = tring(F5, "X", "Y")
    for chart in charts:
        sys = AffineSystem(T, clear_denominators([chart.strict]))
        assert regularity_check(sys).status == "regular"


def test_tacnode_resolves_in_exactly_two():
    # Y^2 - X^4: first blow-up leaves the node Y'^2 - X^2 in chart 0,
    # second blow-up resolves it
    R = curve_ring(F5)
    x, y = R.var(0), R.var(1)
    f = y**2 - x**4
    first = blow_up_origin(f)
    assert first[0].strict == y**2 - x**2
    T = tring(F5, "X", "Y")
    assert regularity_check(AffineSystem(T, clear_denominators([first[0].strict]))).status == "singular"
    assert regularity_check(AffineSystem(T, clear_denominators([first[1].strict]))).status == "regular"
    second = blow_up_origin(first[0].strict)
    for chart in second:
        sys = AffineSystem(T, clear_denominators([chart.strict]))
        assert regularity_check(sys).status == "regular"


# A node at (0, 0) times a triple point at (1, 0): chart 0 of the node's
# blow-up still holds the triple point, off the exceptional divisor, and
# picks it next, so the multiplicity rises from 2 to 3 on the way down
NODE_AND_TRIPLE_POINT = "exists X, Y. (X*X - Y*Y)*((X-1)^3 - Y^3) = 0"
RISING_MULTIPLICITY = [
    NODE_AND_TRIPLE_POINT,
    NODE_AND_TRIPLE_POINT + " & ~(X = 0)",
    NODE_AND_TRIPLE_POINT + " & ~(X = Y)",
    "exists X, Y. (X*X - t*Y*Y)*((X-1)^3 - Y^3) = 0 & ~(Y = 0)",
]


@pytest.mark.parametrize("sentence", RISING_MULTIPLICITY)
def test_a_blow_up_chart_may_raise_the_multiplicity(sentence):
    verdict = decide(sentence, F5)
    assert verdict.is_sat
    problems, _ = verify_verdict(verdict)
    assert not problems


# -- blow-ups over F_q[X, Y, t] against the F_q(t) construction ------------------


def test_blow_up_carries_the_t_slot():
    T = tring(F3, "X", "Y")
    x, y, t = T.var(0), T.var(1), T.var(2)
    f = y**2 - t * x**3
    c0, c1 = blow_up_origin(f)
    assert c0.multiplicity == 2
    assert c0.strict == y**2 - t * x
    assert c1.strict == T.one() - t * x**3 * y
    for chart in (c0, c1):
        pullback = f.compose(list(chart.back_map) + [t], T)
        assert pullback == chart.strict * chart.exceptional**chart.multiplicity
    # mu counts X and Y only: t*X*Y has multiplicity 2 at the origin
    assert blow_up_origin(t * x * y)[0].multiplicity == 2


def _random_elem(rng, ctx):
    return rng.choice(list(ctx.elements()))


def _random_poly(rng, T, degree, terms):
    ctx = T.field
    return T.from_terms(
        {
            (rng.randrange(degree + 1), rng.randrange(degree + 1), rng.randrange(2)): _random_elem(rng, ctx)
            for _ in range(terms)
        }
    )


def _check_against_blowup_oracle(system, center, rng, witnesses=3, n=5):
    """Chart equations, pulled-back inequations and mapped chart witnesses
    of the blow-up at center agree with the F_q(t) construction."""
    ring = system.ring
    ctx = ring.field
    rfield = RationalFunctionField(ctx)
    center_rational = tuple(rfield.elem(c) for c in center)
    new = _blow_up_at(system.equations[0], center)
    old = blowup_oracle.charts_at(system, center)
    assert len(new) == len(old) == 2
    for (chart, images), (old_chart, old_eqs, old_g) in zip(new, old):
        assert (chart.index, chart.multiplicity) == (old_chart.index, old_chart.multiplicity)
        assert [chart.strict] == old_eqs
        if system.inequation is not None:
            assert system.inequation.compose(images, ring) == old_g
        for _ in range(witnesses):
            witness = [
                TruncatedSeries(ctx, [_random_elem(rng, ctx) for _ in range(n)], n) for _ in range(2)
            ]
            at = point_table(ring, witness, n)
            mapped = (at(images[0]), at(images[1]))
            assert mapped == blowup_oracle.map_chart_witness(old_chart, center_rational, witness, ring)


def _singular_points_against_oracle(system):
    """The F_q-points of the singular locus agree with the F_q(t) reading;
    returns them."""
    report = regularity_check(system)
    old = blowup_oracle.constant_singular_points(blowup_oracle.singular_locus(system))
    if report.status == "singular":
        assert report.singular_locus[0].ring == system.ring
        assert _constant_singular_points(report.singular_locus) == old
    else:
        # the locus meets no fibre, so no F_q-point lies on it
        assert report.status == "regular" and old == []
    return old


def test_blow_up_matches_the_rational_oracle_on_classic_singularities():
    rng = random.Random(11)
    for ctx in (F3, F5):
        T = tring(ctx, "X", "Y")
        x, y, t, one, two = T.var(0), T.var(1), T.var(2), T.one(), T.const(2)
        curves = {
            "cusp": y**2 - x**3,
            "tacnode": y**2 - x**4,
            "node": y**2 - x**2 - x**3,
            "twisted cusp": y**2 - t * x**3,
            "moved cusp": (y - two) ** 2 - (x - one) ** 3,
        }
        for name, f in curves.items():
            for g in (None, x, x - one + t * y, (y - two) * x):
                system = AffineSystem(T, [f], g)
                points = _singular_points_against_oracle(system)
                assert points, name
                _check_against_blowup_oracle(system, points[0], rng)


def test_blow_up_matches_the_rational_oracle_on_random_curves():
    rng = random.Random(2024)
    checked = singular = 0
    for _ in range(50):
        ctx = rng.choice((F2, F3, F5))
        T = tring(ctx, "X", "Y")
        center = (_random_elem(rng, ctx), _random_elem(rng, ctx))
        f = _random_poly(rng, T, 3, rng.randrange(2, 6))
        # move the curve through the centre: subtract its value there
        at_center = [T.const(center[0]), T.const(center[1]), T.var(2)]
        f = f - f.compose(at_center, T)
        if not any(e[0] + e[1] for e in f.terms):
            continue
        g = _random_poly(rng, T, 2, rng.randrange(1, 4)) if rng.randrange(3) else None
        system = AffineSystem(T, [f], g)
        _check_against_blowup_oracle(system, center, rng)
        points = _singular_points_against_oracle(system)
        singular += bool(points)
        checked += 1
    assert checked >= 40 and singular >= 5, (checked, singular)


# -- descend ---------------------------------------------------------------------


def test_descend_drops_dimension():
    R = tring(F3, "X", "Y")
    f = R.from_terms({(0, 2, 0): 1, (3, 0, 0): -1})  # Y^2 - X^3
    sys = AffineSystem(R, [f])
    out = descend(sys, R.var(0))
    gb = buchberger(out.equations, ring=R)
    assert dimension(gb) == 0


def test_descend_to_empty():
    R = tring(F3, "X", "Y")
    f = R.from_terms({(1, 1, 0): 1, (0, 0, 0): -1})  # XY - 1
    out = descend(AffineSystem(R, [f]), R.var(0))
    gb = buchberger(out.equations, ring=R)
    assert dimension(gb) is None


def test_descend_rejects_radical_member():
    R = tring(F3, "X", "Y")
    f = R.from_terms({(0, 1, 0): 1})  # Y
    with pytest.raises(ValueError):
        descend(AffineSystem(R, [f]), R.var(1))


def test_descend_adjoins_every_centre_polynomial():
    # the blow-up centre of the node XY = 0: both coordinates at once
    R = tring(F3, "X", "Y")
    x, y = R.var(0), R.var(1)
    sys = AffineSystem(R, [x * y], x - R.one())
    out = descend(sys, x, y)
    assert out.equations == [x * y, x, y]
    assert out.inequation is sys.inequation
    assert (sys.dim, out.dim) == (1, 0)
    # each centre polynomial is checked on its own
    with pytest.raises(ValueError):
        descend(AffineSystem(R, [y]), x, y)


# -- system views ----------------------------------------------------------------


def test_system_views_are_computed_once(monkeypatch):
    import laurentdecide.resolve as resolve

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(resolve, "buchberger", counted)
    R = tring(F3, "X", "Y")
    sys = AffineSystem(R, [R.var(0) * R.var(1), R.zero()])
    assert len(sys.equations) == 1  # zero equations are dropped
    assert sys.basis is sys.basis and sys.dim == 1
    assert len(calls) == 1
    with pytest.raises(AttributeError):
        sys.equations = []


def test_decide_keeps_a_normalized_input_system():
    # nothing to normalize: the verdict carries the input object, views and all
    R = tring(F3, "X")
    sys = AffineSystem(R, [R.var(0) - R.var(1)])
    v = decide_existential(sys)
    assert v.is_sat and v.system is sys
    # a repeated factor is normalized away, into a new system
    sq = AffineSystem(R, [(R.var(0) - R.var(1)) ** 2])
    v2 = decide_existential(sq)
    assert v2.system is not sq and v2.system.equations == sys.equations


def test_singular_report_carries_the_locus_dimension():
    R = tring(F3, "X", "Y")
    f = R.from_terms({(0, 2, 0): 1, (3, 0, 0): -1})  # the cusp, singular at 0
    report = regularity_check(AffineSystem(R, [f]))
    assert (report.status, report.dimension, report.locus_dimension) == ("singular", 1, 0)


def test_decide_perturbs_a_witness_missing_the_inequation():
    # with one candidate per level the certified witness is X = 0, Y = 0,
    # where X = 0 fails the inequation; perturbing X by t meets it
    from laurentdecide.frontend import decide
    from laurentdecide.resolve import RunConfig

    v = decide("exists X, Y. Y = 0 & ~(X = 0)", F3, RunConfig(candidate_cap=1, max_precision=8))
    assert v.is_sat
    assert [repr(x) for x in v.witness] == ["(t + O(t^8))", "(0 + O(t^8))"]
    assert v.inequation_valuation == 1
    cert = v.certificate
    assert (cert.rows, cert.cols, cert.e, cert.precision) == ((0,), (1,), 0, 8)
    assert "inequation attained exact valuation 1" in v.trace

# -- decide_existential ------------------------------------------------------------


def test_decide_cusp_with_inequation():
    # {Y^2 - X^3 = 0, X != 0} over F_5: SAT (smooth points abound)
    R = tring(F5, "X", "Y")
    f = R.from_terms({(0, 2, 0): 1, (3, 0, 0): -1})
    g = R.var(0)
    v = decide_existential(AffineSystem(R, [f], g))
    assert v.is_sat
    assert v.certificate is not None
    assert val_exact(v.inequation_valuation)
    # witness satisfies the curve to its precision and the inequation exactly
    n = v.witness[0].precision
    res = evaluate(f, series_point(R, list(v.witness), n))
    assert val_ge(valuation(res), n)


def test_decide_frobenius_unsat():
    for ctx in (F2, F3, F5):
        R = tring(ctx, "X")
        f = R.from_terms({(ctx.p, 0): 1, (0, 1): -1})
        v = decide_existential(AffineSystem(R, [f]))
        assert v.is_unsat and v.refuted_at == 2


def test_decide_trivial_radical_unsat():
    # {X = 0, X != 0}
    R = tring(F3, "X")
    v = decide_existential(AffineSystem(R, [R.var(0)], R.var(0)))
    assert v.is_unsat
    assert v.radical is not None and v.radical.verify()


def test_decide_unit_ideal_unsat():
    R = tring(F3, "X")
    v = decide_existential(AffineSystem(R, [R.var(0), R.var(0) - R.one()]))
    assert v.is_unsat and v.radical is not None


def test_decide_no_equations_with_inequation():
    # {X != 0} alone: SAT by perturbation away from the origin
    R = tring(F3, "X")
    v = decide_existential(AffineSystem(R, [], R.var(0)))
    assert v.is_sat
    assert val_exact(v.inequation_valuation)


def test_decide_empty_system_trivial_sat():
    R = tring(F3, "X")
    v = decide_existential(AffineSystem(R, []))
    assert v.is_sat


def test_decide_singular_curve_sat_via_blowup_machinery():
    # the node XY = 0 with X != 1 is satisfiable (take X = 0, Y arbitrary);
    # the origin-singular path must still find it
    R = tring(F3, "X", "Y")
    f = R.from_terms({(1, 1, 0): 1})
    g = R.var(0) - R.one()
    v = decide_existential(AffineSystem(R, [f], g))
    assert v.is_sat
    n = v.witness[0].precision
    res = evaluate(f, series_point(R, list(v.witness), n))
    assert val_ge(valuation(res), n)
    assert val_exact(v.inequation_valuation)


def test_decide_cusp_inequation_dies_on_curve():
    # {Y^2 - X^3 = 0, (Y^2 - X^3) != 0} is UNSAT by radical membership
    R = tring(F5, "X", "Y")
    f = R.from_terms({(0, 2, 0): 1, (3, 0, 0): -1})
    v = decide_existential(AffineSystem(R, [f], f))
    assert v.is_unsat and v.radical is not None


def test_decide_squarefree_normalization():
    # {(Y - X^2)^2 = 0, X != 0}: normalizes to the parabola and is SAT
    R = tring(F3, "X", "Y")
    par = R.from_terms({(0, 1, 0): 1, (2, 0, 0): -1})
    v = decide_existential(AffineSystem(R, [par * par], R.var(0)))
    assert v.is_sat
    assert any("squarefree" in line for line in v.trace)


def test_normalization_takes_no_squarefree_part_of_an_x_linear_equation(monkeypatch):
    # X-degree adds up over factors, so an equation of X-degree 1 (t*X - t^2*Y
    # with its t content, say) has no repeated factor that could lower it
    calls = []
    real = resolve.squarefree_equation
    monkeypatch.setattr(resolve, "squarefree_equation", lambda f: calls.append(f) or real(f))
    R = tring(F3, "X", "Y")
    x, y, t = R.var(0), R.var(1), R.var(2)
    linear = [t * x - t * t * y, x + y - t]
    v = decide_existential(AffineSystem(R, linear))
    assert v.is_sat and v.system.equations == linear
    assert calls == []
    # the parabola's X-partial is a unit, so it keeps its own too (the
    # Jacobian criterion); X*(Y - 1) has no partial in F_q[t]
    parabola, lines = y * y - x - R.one(), x * y - x
    v = decide_existential(AffineSystem(R, [linear[0], parabola]))
    assert v.is_sat and calls == []
    v = decide_existential(AffineSystem(R, [linear[0], lines]))
    assert v.is_sat and calls == [lines]


def test_normalization_skips_only_squarefree_parts_that_cannot_lower_a_degree(monkeypatch):
    # with a partial in F_q[t] \ {0} no squarefree part is taken: the
    # normalized systems and traces are those of the loop that takes them all
    calls = Counter()
    for module in (resolve, normalize_oracle):
        real = module.squarefree_equation
        monkeypatch.setattr(module, "squarefree_equation",
                            lambda f, _key=module, _real=real: calls.update([_key]) or _real(f))
    systems = chain(_criterion_1_systems(), _criterion_8_systems(), _more_fuzz_systems())
    for count, system in enumerate(systems, 1):
        trace, old_trace = [], []
        new, old = resolve._normalize(system, trace), normalize_oracle._normalize(system, old_trace)
        assert (new.ring, new.inequation, trace) == (old.ring, old.inequation, old_trace)
        assert [list(f.terms.items()) for f in new.equations] == [
            list(f.terms.items()) for f in old.equations
        ]
    assert count >= 200, count
    assert calls[resolve] < calls[normalize_oracle], calls


def test_decide_t_content_beside_a_cube_char3():
    # t*X^3*(Y^2 - t) over F_3 normalizes to X*(Y^2 - t): the point X = 0,
    # Y = 1 is smooth on it and meets Y != 0
    from laurentdecide.frontend import decide

    v = decide("exists X, Y. t*X^3*(Y*Y - t) = 0 & ~(Y = 0)", F3)
    assert v.is_sat
    assert [repr(x) for x in v.witness] == ["(0 + O(t^2))", "(1 + O(t^2))"]
    assert v.inequation_valuation == 0
    x, y = v.system.ring.var(0), v.system.ring.var(1)
    assert v.system.equations == [x * y * y - x * v.system.ring.var(2)]


def test_decide_t_content_beside_a_fifth_power_char5():
    from laurentdecide.frontend import decide

    v = decide("exists X, Y. t*X^5*(Y*Y - t) = 0", F5)
    assert v.is_sat
    assert [repr(x) for x in v.witness] == ["(0 + O(t^2))", "(1 + O(t^2))"]


def test_decide_closed_constants():
    R = PolyRing(F3, ("t",))
    # t^2 = 0 is false; t^2 != 0 is true
    sys_ring = tring(F3)
    f = sys_ring.from_terms({(2,): 1})
    v = decide_existential(AffineSystem(sys_ring, [f]))
    assert v.is_unsat
    v2 = decide_existential(AffineSystem(sys_ring, [], f))
    assert v2.is_sat and v2.inequation_valuation == 2


def test_decide_cone_via_singular_locus_descent():
    # C^2 + C*A + A^2 over F_2 (the F_4 norm form) vanishes on O^3 only along
    # the B-axis, which is exactly its singular locus; no point there is
    # smooth, so the only route is descending to that locus
    R = tring(F2, "A", "B", "C")
    f = R.from_terms({(2, 0, 0, 0): 1, (1, 0, 1, 0): 1, (0, 0, 2, 0): 1})
    v = decide_existential(AffineSystem(R, [f]))
    assert v.is_sat
    # witness on the B-axis: A = C = 0
    n = v.witness[0].precision
    assert not v.witness[0] and not v.witness[2]
    res = evaluate(f, series_point(R, list(v.witness), n))
    assert val_ge(valuation(res), n)


def test_decide_principal_collapse():
    # {X = 0, X*Y = 0} generates the principal ideal (X): the Y-axis, regular;
    # with Y != 1 it is satisfiable at (0, 0)
    R = tring(F3, "X", "Y")
    f1 = R.var(0)
    f2 = R.var(0) * R.var(1)
    g = R.var(1) - R.one()
    v = decide_existential(AffineSystem(R, [f1, f2], g))
    assert v.is_sat
    assert any("principal" in line for line in v.trace)
    assert val_exact(v.inequation_valuation)


def test_decide_zero_dimensional_inequation_picks_other_root():
    # X^2 = 1 with X != 1: no free coordinate to perturb, the decider must
    # move to the other certified residue class X = 2
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 0): -1})
    g = R.var(0) - R.one()
    v = decide_existential(AffineSystem(R, [f], g))
    assert v.is_sat
    assert v.witness[0].coeffs[0] == F3.elem(2)
    assert v.inequation_valuation == 0


def test_decide_inequation_needs_deeper_precision():
    # X^2 = 1 + t^5 with X^2 != 1: on the whole variety the inequation value
    # is exactly t^5, visible only once the schedule lifts past precision 5;
    # no perturbation is available (d = 0), deepening alone must find it
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 0): -1, (0, 5): -1})
    g = R.from_terms({(2, 0): 1, (0, 0): -1})
    v = decide_existential(AffineSystem(R, [f], g))
    assert v.is_sat
    assert v.inequation_valuation == 5
    n = v.witness[0].precision
    res = evaluate(f, series_point(R, list(v.witness), n))
    assert val_ge(valuation(res), n)


def test_decide_tacnode_with_inequation():
    # Y^2 = X^4 with X != 0 needs two nested blow-ups before a smooth chart
    # point appears; the witness must map back through both
    R = tring(F3, "X", "Y")
    f = R.from_terms({(0, 2, 0): 1, (4, 0, 0): -1})
    g = R.var(0)
    v = decide_existential(AffineSystem(R, [f], g))
    assert v.is_sat
    n = v.witness[0].precision
    res = evaluate(f, series_point(R, list(v.witness), n))
    assert val_ge(valuation(res), n)
    gval = valuation(evaluate(g, series_point(R, list(v.witness), n)))
    assert val_exact(gval)


def test_blowup_depth_cap_yields_unknown():
    from laurentdecide.resolve import RunConfig

    # X^2 + Y^2 = 0 over F_3: -1 is a nonsquare, so the only integral point is
    # the singular origin; certification never fires and only the blow-up can
    # decide, so capping it leaves unknown
    R = tring(F3, "X", "Y")
    f = R.from_terms({(2, 0, 0): 1, (0, 2, 0): 1})
    g = R.var(0)
    v = decide_existential(AffineSystem(R, [f], g), RunConfig(max_blowups=0, max_precision=8))
    assert v.is_unknown and v.reason == "blowup-depth-exhausted"


def test_blowup_unsat_aggregation():
    # same curve with the default budget: both charts refute (1 + Y'^2 has no
    # root over F_3) and the center kills the inequation, so the whole system
    # is refuted through the blow-up fan-out
    R = tring(F3, "X", "Y")
    f = R.from_terms({(2, 0, 0): 1, (0, 2, 0): 1})
    g = R.var(0)
    v = decide_existential(AffineSystem(R, [f], g))
    assert v.is_unsat
    assert v.branches and all(b.is_unsat for b in v.branches)


def test_truncation_is_asked_once_and_before_regularity(monkeypatch):
    # every normalized system meets decide_positive once, and the regularity
    # check sees only a system that decide_positive has just left UNKNOWN
    from make_decision_golden import EXTRA, fuzz_corpus
    from test_acceptance import CORPUS as CRITERION_8

    asked, checked = [], []  # (system, verdict) per call; holding them keeps ids apart
    real_decide, real_check = resolve.decide_positive, resolve.regularity_check

    def decide_positive(system, *args):
        v = real_decide(system, *args)
        asked.append((system, v))
        return v

    def regularity_check(system):
        assert asked and asked[-1][0] is system and asked[-1][1].is_unknown
        checked.append(system)
        return real_check(system)

    monkeypatch.setattr(resolve, "decide_positive", decide_positive)
    monkeypatch.setattr(resolve, "regularity_check", regularity_check)
    corpus = [(ctx, text, None) for _, ctx, text, _ in CRITERION_8]
    corpus += [(ctx, text, config) for _, ctx, text, config in fuzz_corpus() + EXTRA]
    for ctx, text, config in corpus:
        decide(text, ctx, config)
    assert len({id(system) for system, _ in asked}) == len(asked)
    assert checked


def test_a_certified_point_needs_no_regularity_check(monkeypatch):
    # a singular curve whose smooth point truncation certifies at level 4;
    # the blow-up route took over a minute on it
    def refuse(system):
        raise AssertionError("regularity checked after a decided truncation")

    monkeypatch.setattr(resolve, "regularity_check", refuse)
    v = decide("exists X, Y. 4*(X - 3)^3*(Y - 3)^3 + 3*t^2*(X - 3)^3 + 3*t*(X - 3)*(Y - 3) = 0"
               " & ~(X = 3)", F5)
    assert v.is_sat
    assert verify_verdict(v) == ([], [])


def test_verdict_trichotomy_exclusive():
    R = tring(F3, "X")
    sq = R.from_terms({(2, 0): 1, (0, 0): -1, (0, 1): -1})
    cases = [
        AffineSystem(R, [sq]),
        AffineSystem(R, [R.from_terms({(2, 0): 1, (0, 1): -1})]),
    ]
    for sys in cases:
        v = decide_existential(sys)
        assert v.status in ("sat", "unsat", "unknown")
        assert [v.is_sat, v.is_unsat, v.is_unknown].count(True) == 1


# -- the unit-minor shortcut of the regularity check -----------------------------


NON_SQUARES = {3: (2,), 5: (2, 3), 7: (3, 5, 6)}


def _system(text, ctx):
    (system,) = to_systems(eliminate_valuation_atoms(parse(text)), ctx)
    return system


def _regularity_cases():
    # norm forms X^2 - a*Y^2 = c*t^k: dF/dt = -k*c*t^(k-1) is a unit minor
    # unless p | k, when the Groebner path decides
    for p, non_squares in NON_SQUARES.items():
        ctx = FqContext(p)
        for a in non_squares:
            for c in (1, p - 1):
                for k in range(1, 8):
                    yield ctx, f"exists X, Y. X*X - {a}*Y*Y = {c}*t^{k}"
    yield F5, "exists X, Y. Y*Y = X^3"  # cusp
    yield F5, "exists X, Y. Y*Y = X^4"  # tacnode
    yield F3, "exists X, Y. Y*Y = X^3 + t"
    # two equations: a unit 2x2 minor, and a locus with no minor in t alone
    yield F3, "exists X, Y, Z. X = t*Z & Y = Z*Z + t"
    yield F5, "exists X, Y, Z. X*X = Y*Z & Y*Y = X*Z"


@pytest.mark.parametrize(
    "ctx, text", list(_regularity_cases()), ids=lambda v: v if isinstance(v, str) else repr(v)
)
def test_regularity_shortcut_matches_the_groebner_path(ctx, text):
    system = _system(text, ctx)
    report = regularity_check(system)
    expected = regularity_oracle.regularity_check(system)
    # the oracle predates the locus basis: every other field must agree
    for field in fields(expected):
        if field.name != "locus_basis":
            assert getattr(report, field.name) == getattr(expected, field.name), field.name
    if report.status == "singular":
        assert report.locus_basis == buchberger(report.singular_locus, ring=system.ring)
    else:
        assert report.locus_basis is None


@pytest.mark.parametrize("k, calls", [(1, 0), (3, 1)])
def test_unit_minor_skips_the_regularity_basis(monkeypatch, k, calls):
    # over F_3, dF/dt = -k*t^(k-1) is a unit for k = 1 and vanishes for k = 3
    system = _system(f"exists X, Y. X*X - 2*Y*Y = t^{k}", F3)
    assert system.dim == 1  # read before the check; one equation needs no basis
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(resolve, "buchberger", counting)
    assert regularity_check(system).status == "regular"
    assert len(seen) == calls
