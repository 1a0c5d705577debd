import random
from collections import Counter

import hensel_oracle
import make_decision_golden as golden
import pytest
from test_acceptance import _curated_systems, _random_system, minor_table
from test_series import _raised

from laurentdecide import cli, hensel, resolve, truncation
from laurentdecide.ff import FqContext
from laurentdecide.frontend import decide
from laurentdecide.hensel import (
    CertificateError,
    HenselCertificate,
    PerturbBudget,
    certify_liftable,
    newton_lift,
    smooth_perturb,
    system_dimension,
)
from laurentdecide.poly import PolyRing
from laurentdecide.resolve import AffineSystem
from laurentdecide.series import (
    TruncatedSeries,
    evaluate,
    point_table,
    series_point,
    val_ge,
    valuation,
)
from laurentdecide.truncation import RunConfig, decide_positive, iter_solutions, weil_restrict

F3 = FqContext(3)


def tring(ctx, *names):
    return PolyRing(ctx, tuple(names) + ("t",))


def S(ctx, coeffs, n):
    return TruncatedSeries(ctx, coeffs, n)


# {X^2 - (1+t)} over F_3 in the ring F_3[X, t]
def sqrt_system():
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 0): -1, (0, 1): -1})
    return R, [f]


def test_certify_sqrt_at_precision_one():
    # residual at X=1 is -t (valuation 1 >= 1), minor 2X has valuation 0
    R, eqs = sqrt_system()
    cert = certify_liftable(minor_table(R, eqs), [S(F3, [1], 1)])
    assert cert is not None
    assert cert.e == 0
    assert cert.rows == (0,) and cert.cols == (0,)


def test_certify_rejects_bad_residual():
    # {X^2 - t} at X = 0 mod t^2: residual -t has valuation 1 < 2
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 1): -1})
    assert certify_liftable(minor_table(R, [f]), [S(F3, [0, 0], 2)]) is None


def test_certify_linear_system():
    R = tring(F3, "X")
    f = R.from_terms({(1, 0): 1, (0, 1): -1})  # X - t
    cert = certify_liftable(minor_table(R, [f]), [S(F3, [0, 1, 0], 3)])
    assert cert is not None and cert.e == 0


def test_certify_empty_locus_refused():
    # {X, X - 1}: unit ideal over F_3(t)
    R = tring(F3, "X")
    f = R.from_terms({(1, 0): 1})
    g = f - R.one()
    assert system_dimension([f, g], R) is None
    assert certify_liftable(minor_table(R, [f, g]), [S(F3, [0], 1)]) is None


def test_certify_saturation_guard():
    # {Y(Y^2 - t), (Y^2 - t)(Y + t^40)} over F_3 at Y = 0: every truncated
    # residual check passes (t^41 is invisible below precision 41) and the
    # subsystem minor looks fine, but the Newton branch Y = 0 does not solve
    # the second equation; the saturation guard must refuse.
    R = tring(F3, "Y")
    y = R.var(0)
    t = R.var(1)
    a = y**2 - t
    f1 = y * a
    f2 = a * (y + t**40)
    point = [S(F3, [0] * 4, 4)]
    assert certify_liftable(minor_table(R, [f1, f2]), point) is None


def test_newton_lift_sqrt_of_one_plus_t():
    # lift X = 1 to X^2 = 1+t mod t^3: X = 1 + 2t + t^2 over F_3
    # (oracle: (1+2t+t^2)^2 = 1 + 4t + 6t^2 + ... = 1 + t mod t^3)
    R, eqs = sqrt_system()
    point = [S(F3, [1], 1)]
    table = minor_table(R, eqs)
    cert = certify_liftable(table, point)
    lifted = newton_lift(table, point, cert, 3)
    assert lifted[0].coeffs == tuple(F3.elem(c) for c in (1, 2, 1))
    sq = lifted[0] * lifted[0]
    assert sq == S(F3, [1, 1, 0], 3)


def test_newton_lift_exact_linear():
    R = tring(F3, "X")
    f = R.from_terms({(1, 0): 1, (0, 1): -1})  # X - t
    point = [S(F3, [0, 1, 0], 3)]
    table = minor_table(R, [f])
    cert = certify_liftable(table, point)
    lifted = newton_lift(table, point, cert, 6)
    assert lifted[0] == S(F3, [0, 1, 0, 0, 0, 0], 6)


def test_newton_lift_two_variable_inverse():
    # {XY - 1, X - (1+t)} from (1,1): Y = (1+t)^(-1) = 1 + 2t mod t^2 over F_3
    R = tring(F3, "X", "Y")
    f1 = R.from_terms({(1, 1, 0): 1, (0, 0, 0): -1})
    f2 = R.from_terms({(1, 0, 0): 1, (0, 0, 0): -1, (0, 0, 1): -1})
    point = [S(F3, [1], 1), S(F3, [1], 1)]
    table = minor_table(R, [f1, f2])
    cert = certify_liftable(table, point)
    assert cert is not None
    lifted = newton_lift(table, point, cert, 2)
    assert lifted[0] == S(F3, [1, 1], 2)
    assert lifted[1] == S(F3, [1, 2], 2)


def test_newton_quadratic_convergence_trace():
    R, eqs = sqrt_system()
    point = [S(F3, [1], 1)]
    table = minor_table(R, eqs)
    cert = certify_liftable(table, point)
    trace = []
    newton_lift(table, point, cert, 16, trace=trace)
    # v_next >= 2*v - 2e with e = 0
    for a, b in zip(trace, trace[1:]):
        assert b >= 2 * a - 2 * cert.e


def test_newton_lift_re_verifies_at_double_precision():
    R, eqs = sqrt_system()
    point = [S(F3, [1], 1)]
    table = minor_table(R, eqs)
    cert = certify_liftable(table, point)
    lifted = newton_lift(table, point, cert, 4)
    again = newton_lift(table, list(lifted), certify_liftable(table, list(lifted)), 8)
    # low-order coefficients are preserved by re-lifting
    assert again[0].coeffs[:4] == lifted[0].coeffs
    res = evaluate(eqs[0], series_point(eqs[0].ring, list(again), 8))
    assert val_ge(valuation(res), 8)


def test_newton_lift_higher_valuation_minor():
    # {X^2 - t^2*(1+t)} has the solution X = t*sqrt(1+t); at X = t the minor
    # 2X has valuation e = 1, so certification needs N > 2
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 2): -1, (0, 3): -1})
    point = [S(F3, [0, 1, 0], 3)]
    table = minor_table(R, [f])
    cert = certify_liftable(table, point)
    assert cert is not None and cert.e == 1
    lifted = newton_lift(table, point, cert, 6)
    res = evaluate(f, series_point(R, list(lifted), 6))
    assert val_ge(valuation(res), 6)
    # witness congruent to the input mod t^(N-e)
    assert lifted[0].coeffs[:2] == point[0].coeffs[:2]


def test_smooth_perturb_parabola():
    # V: Y - X^2, g = X, start (0,0): perturbing X by t gives (t, t^2)
    R = tring(F3, "X", "Y")
    f = R.from_terms({(0, 1, 0): 1, (2, 0, 0): -1})
    g = R.var(0)
    point = [S(F3, [0] * 4, 4), S(F3, [0] * 4, 4)]
    table = minor_table(R, [f])
    cert = certify_liftable(table, point)
    assert cert is not None
    out = smooth_perturb(table, point, cert, g, PerturbBudget())
    assert out is not None
    (x, y), cert2 = out
    assert x == S(F3, [0, 1, 0, 0], 4)
    assert y == S(F3, [0, 0, 1, 0], 4)
    gval = valuation(x)
    assert gval == 1


def test_smooth_perturb_hyperbola():
    # V: XY - 1, g = X - 1, start (1,1): X = 1+t works, Y = 1 - t + t^2 - ...
    R = tring(F3, "X", "Y")
    f = R.from_terms({(1, 1, 0): 1, (0, 0, 0): -1})
    g = R.var(0) - R.one()
    point = [S(F3, [1, 0, 0, 0], 4), S(F3, [1, 0, 0, 0], 4)]
    table = minor_table(R, [f])
    cert = certify_liftable(table, point)
    out = smooth_perturb(table, point, cert, g, PerturbBudget())
    assert out is not None
    (x, y), _ = out
    gv = valuation(evaluate(g, series_point(R, [x, y], 4)))
    assert gv == 1
    prod = x * y
    assert prod == TruncatedSeries.one(F3, 4)


def test_smooth_perturb_already_nonzero():
    # V: X - t, g = X: the start value t already has exact valuation 1
    R = tring(F3, "X")
    f = R.from_terms({(1, 0): 1, (0, 1): -1})
    g = R.var(0)
    point = [S(F3, [0, 1, 0], 3)]
    table = minor_table(R, [f])
    cert = certify_liftable(table, point)
    out = smooth_perturb(table, point, cert, g, PerturbBudget())
    assert out is not None
    assert out[0][0] == point[0]


def test_smooth_perturb_exhausts_budget():
    # V: Y - X^2 with g = X and a zero budget cannot move anywhere
    R = tring(F3, "X", "Y")
    f = R.from_terms({(0, 1, 0): 1, (2, 0, 0): -1})
    g = R.var(0)
    point = [S(F3, [0] * 4, 4), S(F3, [0] * 4, 4)]
    table = minor_table(R, [f])
    cert = certify_liftable(table, point)
    assert smooth_perturb(table, point, cert, g, PerturbBudget(directions=0, depth=0)) is None


@pytest.mark.parametrize("directions, depth", [(-1, 16), (8, -1)])
def test_perturb_budget_rejects_negative_fields(directions, depth):
    # a negative direction count would make free[:directions] drop the last
    # free coordinate; zero stays the legal "no perturbation"
    with pytest.raises(ValueError, match="perturbation budgets must be >= 0"):
        PerturbBudget(directions, depth)


def test_smooth_perturb_determinism():
    R = tring(F3, "X", "Y")
    f = R.from_terms({(0, 1, 0): 1, (2, 0, 0): -1})
    g = R.var(0)
    point = [S(F3, [0] * 5, 5), S(F3, [0] * 5, 5)]
    table = minor_table(R, [f])
    cert = certify_liftable(table, point)
    a = smooth_perturb(table, point, cert, g, PerturbBudget())
    b = smooth_perturb(table, point, cert, g, PerturbBudget())
    assert a is not None and b is not None
    assert a[0] == b[0] and a[1] == b[1]


# ---------------------------------------------------------------------------
# minor table: differential test against the per-call routine it replaces


def _saturation_system():
    # the system of test_certify_saturation_guard: every candidate Y = 0
    # mod t^N has a minor of valuation 1 in each row, and the saturation
    # guard rejects both (rows, cols)
    R = tring(F3, "Y")
    y, t = R.var(0), R.var(1)
    a = y**2 - t
    return R, [y * a, a * (y + t**40)]


def _differential(monkeypatch, modules):
    """Patch certify_liftable in the given modules so that every call is also
    answered by the oracle; returns the list of (exclude_col, certificate)
    pairs seen."""
    seen = []
    real = hensel.certify_liftable

    def checked(table, point, precision=None, exclude_col=None):
        cert = real(table, point, precision, exclude_col=exclude_col)
        equations, dim = table.equations, table.dim
        expected = hensel_oracle.certify_liftable(equations, point, dim, precision, exclude_col)
        assert cert == expected, (equations, point, dim, precision, exclude_col)
        seen.append((exclude_col, cert))
        return cert

    for module in modules:
        monkeypatch.setattr(module, "certify_liftable", checked)
    return seen


def criterion_1_sweep():
    """(ring, equations) of the criterion-1 sweep: over F_2, then F_3, the
    curated systems, 22 random ones in one and in two unknowns, and the
    saturation system."""
    rng = random.Random(190840)
    systems = []
    for ctx in (FqContext(2), F3):
        systems += _curated_systems(ctx)
        for m in (1, 2):
            systems += [_random_system(rng, ctx, m) for _ in range(22)]
        systems.append(_saturation_system())
    return systems


def test_minor_table_matches_oracle_on_criterion_1_sweep(monkeypatch):
    seen = _differential(monkeypatch, [truncation])
    config = RunConfig(max_precision=4, candidate_cap=32)
    for ring, eqs in criterion_1_sweep():
        decide_positive(AffineSystem(ring, eqs), config)
    assert sum(cert is not None for _, cert in seen) >= 20
    assert sum(cert is None for _, cert in seen) >= 20


# the lift-candidates shapes, and the sentence whose witness is perturbed
SHAPES = golden.NORM_FORMS + golden.CONES + [x for x in golden.EXTRA if x[0] == "perturb"]


@pytest.mark.parametrize("label, ctx, sentence, config", SHAPES, ids=[x[0] for x in SHAPES])
def test_minor_table_matches_oracle_on_lift_candidates_shapes(
    monkeypatch, label, ctx, sentence, config
):
    seen = _differential(monkeypatch, [truncation, hensel, resolve])
    decide(sentence, ctx, config)
    assert seen
    if label == "perturb":
        # the perturbed points are certified by minors avoiding one column
        assert any(col is not None for col, _ in seen)


def test_minor_table_saturation_rejections_match_oracle():
    R, eqs = _saturation_system()
    dim = system_dimension(eqs, R)
    table = minor_table(R, eqs)
    assert table.pairs == [((0,), (0,)), ((1,), (0,))]
    for n in (3, 4, 6, 8):
        point = [S(F3, [0] * n, n)]
        assert certify_liftable(table, point) is None
        assert hensel_oracle.certify_liftable(eqs, point, dim) is None
    assert [table.saturated(rows, cols) for rows, cols in table.pairs] == [False, False]


def test_minor_table_drops_minors_that_vanish_identically(monkeypatch):
    # over F_2 every partial of X^2 + Y^2 - t*Z^2 is the zero polynomial: no
    # minor has an exact valuation anywhere, so no point is ever evaluated
    F2 = FqContext(2)
    R = tring(F2, "X", "Y", "Z")
    x, y, z, t = R.var(0), R.var(1), R.var(2), R.var(3)
    eqs = [x * x + y * y - t * z * z]
    dim = system_dimension(eqs, R)
    table = minor_table(R, eqs)
    assert (dim, table.pairs) == (2, [])

    def no_point_table(*args):
        raise RuntimeError("a point table was built")

    monkeypatch.setattr(hensel, "point_table", no_point_table)
    for point in ([S(F2, [], 8)] * 3, [S(F2, [0, 1], 8), S(F2, [0, 1], 8), S(F2, [], 8)]):
        assert certify_liftable(table, point) is None
        assert certify_liftable(minor_table(R, eqs), point) is None


def test_a_minor_table_builds_each_saturation_basis_once(monkeypatch):
    R, eqs = _saturation_system()
    system = AffineSystem(R, eqs)
    table = system.minors
    calls = Counter()
    real_buchberger = hensel.buchberger
    real_saturated = hensel.MinorTable.saturated

    def counted_buchberger(*args, **kwargs):
        calls["buchberger"] += 1
        return real_buchberger(*args, **kwargs)

    def counted_saturated(table, rows, cols):
        calls["guard"] += 1
        return real_saturated(table, rows, cols)

    monkeypatch.setattr(hensel, "buchberger", counted_buchberger)
    monkeypatch.setattr(hensel.MinorTable, "saturated", counted_saturated)
    restriction = weil_restrict(eqs, R, 8)
    for assignment in iter_solutions(restriction.restricted, restriction.ring):
        assert certify_liftable(table, list(restriction.point(assignment)), precision=8) is None
    # one saturation Groebner basis per (rows, cols), however many
    # candidates reach the guard
    assert calls["guard"] > 2 * 2
    assert calls["buchberger"] == 2
    guards = calls["guard"]
    # the table outlives the call: a decision on it asks the guard again
    # and builds no basis
    decide_positive(system, RunConfig(max_precision=8))
    assert calls["guard"] > guards
    assert calls["buchberger"] == 2


def test_a_decision_builds_one_minor_table_per_system_and_verify_its_own(monkeypatch):
    # the golden sentence whose witness misses the inequation: the digit
    # search, the lift for the inequation and the perturbation all certify
    # on the system's one table; --verify re-certifies on a table of its own
    _, ctx, sentence, config = next(x for x in golden.EXTRA if x[0] == "perturb")
    built, received = [], []
    real_init = hensel.MinorTable.__init__

    def init(table, system):
        real_init(table, system)
        built.append(table)

    monkeypatch.setattr(hensel.MinorTable, "__init__", init)
    hensel_calls = [(truncation, "certify_liftable"), (truncation, "newton_lift"),
                    (truncation, "smooth_perturb"), (resolve, "certify_liftable"),
                    (hensel, "certify_liftable"), (hensel, "newton_lift"),
                    (cli, "certify_liftable")]
    for module, name in hensel_calls:

        def recorded(table, *args, _name=name, _real=getattr(module, name), **kwargs):
            received.append((_name, table))
            return _real(table, *args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    verdict = decide(sentence, ctx, config)
    assert verdict.is_sat and verdict.inequation_valuation is not None
    assert {name for name, _ in received} == {"certify_liftable", "newton_lift", "smooth_perturb"}
    assert built == [verdict.system.minors]
    assert all(table is built[0] for _, table in received)
    received.clear()
    problems, _ = cli.verify_verdict(verdict)
    assert not problems
    assert len(built) == 2 and received == [("certify_liftable", built[1])]


# ---------------------------------------------------------------------------
# fail-fast order: the gap minors first, then the residuals, then the guard


F5 = FqContext(5)


def _cusp_system(ctx):
    R = tring(ctx, "X", "Y")
    x, y = R.var(0), R.var(1)
    return R, [y**2 - x**3]


def _cone_system():
    # X^2 - 2Y^2 = tZ^2 over F_3, of dimension 2
    R = tring(F3, "X", "Y", "Z")
    x, y, z, t = (R.var(i) for i in range(4))
    return R, [x**2 - R.const(2) * y**2 - t * z**2]


def _gap_order_systems():
    """The cusps and the norm forms X^2 - 2Y^2 = t^2 over F_3 and F_5, the
    cone and the two-equation saturation system, each with its ring."""
    out = []
    for ctx in (F3, F5):
        R = tring(ctx, "X", "Y")
        x, y, t = R.var(0), R.var(1), R.var(2)
        out += [_cusp_system(ctx), (R, [x**2 - R.const(2) * y**2 - t**2])]
    return out + [_cone_system(), _saturation_system()]


def _random_point(rng, ctx, m, n):
    """m coordinates mod t^n whose digits are mostly zero, so that minor and
    residual valuations spread over the gap boundary."""
    elems = list(ctx.elements())
    return [
        S(ctx, [rng.choice(elems) if rng.random() < 0.3 else 0 for _ in range(n)], n)
        for _ in range(m)
    ]


def test_gap_order_matches_oracle_off_the_solutions():
    # points the digit search never yields: residuals below the precision,
    # with or without a minor in the gap, and minors avoiding each column
    rng = random.Random(20260)
    seen = Counter()
    for R, eqs in _gap_order_systems():
        ctx = R.field
        m = R.nvars - 1
        dim = system_dimension(eqs, R)
        table = minor_table(R, eqs)
        for _ in range(60):
            n = rng.randint(1, 8)
            point = _random_point(rng, ctx, m, n)
            for exclude_col in [None] + list(range(m)):
                cert = certify_liftable(table, point, exclude_col=exclude_col)
                expected = hensel_oracle.certify_liftable(eqs, point, dim, None, exclude_col)
                assert cert == expected, (eqs, point, exclude_col)
                if exclude_col is None:
                    # the same answer from a table of its own
                    assert certify_liftable(minor_table(R, eqs), point, precision=n) == cert
                at = point_table(R, point, n)
                gap = bool(table.gap_minors(at, n, exclude_col))
                residuals_pass = all(val_ge(valuation(at(f)), n) for f in eqs)
                seen[gap, residuals_pass, exclude_col is None] += 1
    # each of: a gap minor and a failing residual, both failing, passing
    # residuals without a gap minor (the cone near its vertex), and both
    # passing; with and without an excluded column
    for gap, residuals_pass in ((True, False), (False, False), (False, True), (True, True)):
        for free in (True, False):
            assert seen[gap, residuals_pass, free] >= 3, (gap, residuals_pass, free, seen)


def test_gap_order_raises_as_the_oracle_does():
    R, (cusp,) = _cusp_system(F3)
    _, (cone,) = _cone_system()
    x, y = R.var(0), R.var(1)
    a, b = S(F3, [1, 1, 0, 2], 4), S(F3, [0, 0, 1, 0], 4)
    zero = S(F3, [0] * 4, 4)
    cases = [
        ([cusp], [a]),  # arity
        ([cusp], [a, b, zero]),  # arity
        ([cone], [a, b]),  # arity
        ([cusp], [a, S(F3, [1, 1, 0], 3)]),  # mixed precisions
        ([cone], [zero, zero, S(F3, [0] * 5, 5)]),  # mixed precisions, no gap minor
        ([cusp], [S(F5, [1, 0, 0, 1], 4), b]),  # the point over F_5
        ([cusp], [a, S(F5, [1, 0, 0, 1], 4)]),  # Y over F_5, gap minor 2Y
        ([cone], [zero, zero, S(F5, [1, 0, 0, 0], 4)]),  # Z over F_5, no gap minor
        # X^2 - Y^3 at X = 0: 2X has no exact valuation and the Y-partial
        # -3Y^2 vanishes over F_3, so the gap scan never reads Y; the
        # residual would, and the oracle raises
        ([x**2 - y**3], [zero, S(F5, [1, 0, 0, 1], 4)]),
        ([x**2 - y**3], [zero, S(F5, [0, 1, 0, 0], 4)]),
    ]
    for eqs, point in cases:
        for exclude_col in (None, 0):
            expected = _raised(
                lambda: hensel_oracle.certify_liftable(eqs, point, None, None, exclude_col)
            )
            assert expected is not None
            table = minor_table(eqs[0].ring, eqs)
            got = _raised(lambda: certify_liftable(table, point, exclude_col=exclude_col))
            assert got == expected


@pytest.mark.parametrize("x_digits", [[0] * 8, [0, 0, 0, 0, 1, 0, 0, 0]], ids=["zero", "t^4"])
def test_a_cone_point_without_a_gap_minor_takes_no_series_products(monkeypatch, x_digits):
    # the Jacobian of X^2 - 2Y^2 - tZ^2 is linear and vanishes mod t^4 at
    # these points, so no minor has N > 2e at N = 8; the residual, whose
    # three squares the certificate would need, is never evaluated
    R, (cone,) = _cone_system()
    point = [S(F3, x_digits, 8), S(F3, [0] * 8, 8), S(F3, [0] * 8, 8)]
    calls = Counter()
    mul = TruncatedSeries.__mul__

    def counted(a, b):
        calls["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    assert certify_liftable(minor_table(R, [cone]), point) is None
    assert calls["mul"] == 0


def test_a_failing_residual_runs_no_saturation_guard(monkeypatch):
    # Y = 1 on the saturation system: both minors -t + ... have valuation 1
    # in the gap at N = 4, and the residual 1 - t fails, so no Groebner basis
    R, eqs = _saturation_system()
    table = minor_table(R, eqs)
    point = [S(F3, [1, 0, 0, 0], 4)]
    assert [e for e, _, _ in table.gap_minors(point_table(R, point, 4), 4)] == [1, 1]
    calls = Counter()
    real_buchberger = hensel.buchberger

    def counted_buchberger(*args, **kwargs):
        calls["buchberger"] += 1
        return real_buchberger(*args, **kwargs)

    monkeypatch.setattr(hensel, "buchberger", counted_buchberger)
    assert certify_liftable(table, point) is None
    assert certify_liftable(minor_table(R, eqs), point) is None
    assert calls["buchberger"] == 0
    assert table._saturated == {}


@pytest.mark.parametrize("precision", [2, 8])
def test_certify_rejects_a_precision_the_point_does_not_have(precision):
    R, eqs = sqrt_system()
    point = [S(F3, [1, 2, 1, 1], 4)]
    table = minor_table(R, eqs)
    with pytest.raises(ValueError, match=f"precision {precision} .* precision 4"):
        certify_liftable(table, point, precision=precision)
    assert certify_liftable(table, point, precision=4) == certify_liftable(table, point)


# ---------------------------------------------------------------------------
# the series that newton_lift and smooth_perturb build with the TruncatedSeries
# constructor, against the private helpers it replaced (hensel_oracle)


@pytest.mark.parametrize("ctx", [F3, FqContext(2, 2)], ids=repr)
def test_series_constructor_matches_the_deleted_helpers(ctx):
    rng = random.Random(19)
    elems = list(ctx.elements())

    def series(n):
        return S(ctx, [rng.choice(elems) for _ in range(n)], n)

    for n in range(1, 7):
        for p in range(1, 10):  # the precision shrinks, stays or grows
            x = series(n)
            assert TruncatedSeries(ctx, x.coeffs, p) == hensel_oracle._extend(x, p)
            for d in range(1, 12):  # deltas shorter and longer than p
                delta = series(d)
                lifted = TruncatedSeries(ctx, x.coeffs, p) + TruncatedSeries(ctx, delta.coeffs, p)
                assert lifted == hensel_oracle._add_exact(x, delta, p)
        x = series(n)
        for mm in range(n):  # the last digit included
            c = rng.choice(elems[1:])
            assert x + S(ctx, [0] * mm + [c], n) == hensel_oracle._bump(x, mm, c)


# ---------------------------------------------------------------------------
# newton_lift and smooth_perturb against the copies (hensel_oracle) that kept
# a branch of their own for a system with no equation and a path of its own
# for a certificate with no rows


def _outcome(fn):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return type(err), str(err)


def _same_lift(table, point, cert, target):
    got_trace, expected_trace = [], []
    got = _outcome(lambda: newton_lift(table, point, cert, target, got_trace))
    expected = _outcome(
        lambda: hensel_oracle.newton_lift(table, point, cert, target, expected_trace)
    )
    assert got == expected and got_trace == expected_trace, (point, cert, target)
    return got


def _same_perturbation(table, point, cert, g, budget):
    got = smooth_perturb(table, point, cert, g, budget)
    assert got == hensel_oracle.smooth_perturb(table, point, cert, g, budget), (point, g, budget)
    return got


BUDGETS = (PerturbBudget(), PerturbBudget(directions=1, depth=2), PerturbBudget(0, 0))


def test_a_system_without_equations_lifts_and_perturbs_as_the_copies_do():
    rng = random.Random(29)
    found = Counter()
    for names in (("X",), ("X", "Y")):
        R = tring(F3, *names)
        x, t = R.var(0), R.var(R.tpos)
        gs = [x, x - R.one()] + ([x * R.var(1) - t] if len(names) == 2 else [])
        table = minor_table(R, [])
        for n in (1, 2, 4, 8):
            for _ in range(6):
                point = _random_point(rng, F3, len(names), n)
                cert = certify_liftable(table, point)
                assert cert == HenselCertificate((), (), 0, n)
                for target in (1, n, n + 3, 2 * n):
                    _same_lift(table, point, cert, target)
                for g in gs:
                    for budget in BUDGETS:
                        found[_same_perturbation(table, point, cert, g, budget) is not None] += 1
    assert found[True] and found[False], found


def test_an_empty_minor_certificate_on_equations_lifts_as_the_copy_does():
    # X - t with a certificate of no rows: X = t has residual zero at every
    # target, X = t + t^3 only below 3, X = 0 and X = t + 2t^2 at none
    R = tring(F3, "X")
    table = minor_table(R, [R.var(0) - R.var(1)])
    raised = Counter()
    for coeffs in ([0, 1], [0, 1, 0, 1], [], [0, 1, 2]):
        for n in (2, 4, 8):
            point = [S(F3, coeffs, n)]
            for target in (1, 2, n, 2 * n):
                out = _same_lift(table, point, HenselCertificate((), (), 0, n), target)
                raised[out[0] is CertificateError] += 1
    assert raised[True] and raised[False], raised


def _perturbation_systems():
    """(table, point, g) of the smooth_perturb tests above."""
    R2, R1 = tring(F3, "X", "Y"), tring(F3, "X")
    x, y = R2.var(0), R2.var(1)
    parabola = minor_table(R2, [y - x * x])
    out = [(parabola, [S(F3, [0] * n, n)] * 2, x) for n in (4, 5)]
    out.append((minor_table(R2, [x * y - R2.one()]), [S(F3, [1, 0, 0, 0], 4)] * 2, x - R2.one()))
    out.append((minor_table(R1, [R1.var(0) - R1.var(1)]), [S(F3, [0, 1, 0], 3)], R1.var(0)))
    return out


def test_the_perturbation_systems_lift_and_perturb_as_the_copies_do():
    found = 0
    for table, point, g in _perturbation_systems():
        cert = certify_liftable(table, point)
        assert cert is not None
        n = point[0].precision
        for target in (n, 2 * n, 3 * n):
            _same_lift(table, point, cert, target)
        for budget in BUDGETS:
            found += _same_perturbation(table, point, cert, g, budget) is not None
    assert found >= 4
