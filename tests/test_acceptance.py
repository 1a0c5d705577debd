"""Acceptance criteria.

Each test implements one numbered criterion at its stated tolerance and
prints one PASS line when it holds.  Criterion 2 (SAT soundness) consumes the
SAT verdicts registered by the other criteria, so it runs after criterion 8.
"""

import itertools
import random
import time

from frontend_oracle import clear_denominators

from laurentdecide.cli import run as cli_run
from laurentdecide.ff import FqContext
from laurentdecide.frontend import InRing, Not, Sentence, TConst, decide
from laurentdecide.hensel import certify_liftable, newton_lift
from laurentdecide.ideal import buchberger, dimension, radical_membership
from laurentdecide.poly import (
    PolyRing,
    RationalFunction,
    RationalFunctionField,
    UniPoly,
)
from laurentdecide.resolve import AffineSystem, blow_up_origin, decide_existential, regularity_check
from laurentdecide.series import TruncatedSeries, point_table, val_ge, valuation
from laurentdecide.truncation import iter_solutions, weil_restrict

F2 = FqContext(2)
F3 = FqContext(3)
F4 = FqContext(2, 2)
F5 = FqContext(5)

# SAT verdicts produced while running criteria 1-8: (label, system, verdict)
SAT_REGISTRY = []


def minor_table(ring, equations):
    """The minor table the engine keeps for the system of the equations."""
    return AffineSystem(ring, equations).minors


def _register_sat(label, verdict):
    if verdict.is_sat and verdict.system is not None:
        SAT_REGISTRY.append((label, verdict))


def tring(ctx, *names):
    return PolyRing(ctx, tuple(names) + ("t",))


# ---------------------------------------------------------------------------
# criterion 1: truncation-oracle equivalence


def _coefficient_pool(ctx):
    """The sweep's coefficient set {0, 1, 2, t, 1+t} as (c0, c1) pairs."""
    return [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]


def _random_system(rng, ctx, m):
    """1-2 equations in m variables, total degree <= 3 in the X's,
    coefficients drawn from the pool."""
    ring = PolyRing(ctx, tuple(f"X{i+1}" for i in range(m)) + ("t",))
    pool = _coefficient_pool(ctx)
    monos = [
        e
        for e in itertools.product(range(4), repeat=m)
        if 0 < sum(e) <= 3
    ] + [(0,) * m]
    eqs = []
    for _ in range(rng.randrange(1, 3)):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e = rng.choice(monos)
            c0, c1 = rng.choice(pool)
            for texp, c in ((0, c0), (1, c1)):
                if c % ctx.p:
                    key = e + (texp,)
                    prev = terms.get(key, 0)
                    terms[key] = (prev + c) % ctx.p
        f = ring.from_terms(terms)
        if f:
            eqs.append(f)
    return ring, eqs


def _curated_systems(ctx):
    out = []
    r1 = tring(ctx, "X1")
    out.append((r1, [r1.from_terms({(2, 0): 1, (0, 1): -1})]))  # X^2 - t
    out.append((r1, [r1.from_terms({(ctx.p, 0): 1, (0, 1): -1})]))  # X^p - t
    out.append((r1, [r1.from_terms({(1, 0): 1, (0, 1): -1})]))  # X - t
    out.append((r1, [r1.from_terms({(2, 0): 1, (0, 0): -1, (0, 1): -1})]))  # X^2-(1+t)
    out.append((r1, [r1.from_terms({(0, 0): 1, (0, 1): 1})]))  # constant 1+t
    out.append((r1, [r1.zero()]))  # zero polynomial
    r2 = tring(ctx, "X1", "X2")
    out.append((r2, [r2.from_terms({(1, 1, 0): 1, (0, 0, 0): -1})]))  # X1*X2 - 1
    out.append(
        (r2, [r2.from_terms({(0, 2, 0): 1, (3, 0, 0): -1}), r2.from_terms({(1, 0, 0): 1, (0, 0, 1): -1})])
    )  # cusp + X1 = t
    return out


def _direct_truncation_solution(eqs, ring, n):
    """Independent oracle: search all of (F_q[t]/t^N)^m by series evaluation."""
    ctx = ring.field
    m = ring.nvars - 1
    elems = list(ctx.elements())
    for digits in itertools.product(elems, repeat=n * m):
        point = [TruncatedSeries(ctx, list(digits[j * n : (j + 1) * n]), n) for j in range(m)]
        at = point_table(ring, point, n)
        if all(not at(f) for f in eqs):
            return point
    return None


def test_criterion_1_truncation_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(190840)
    checks = 0
    for ctx in (F2, F3):
        systems = _curated_systems(ctx)
        for m in (1, 2):
            for _ in range(22):
                systems.append(_random_system(rng, ctx, m))
        for ring, eqs in systems:
            m = ring.nvars - 1
            for n in (1, 2, 3, 4):
                if ctx.q ** (n * m) > 7000:
                    continue  # keep the direct oracle inside the time budget
                restriction = weil_restrict(eqs, ring, n)
                found = next(iter_solutions(restriction.restricted, restriction.ring), None)
                direct = _direct_truncation_solution(eqs, ring, n)
                assert (found is None) == (direct is None), (
                    f"disagreement at q={ctx.q} N={n}: {eqs}"
                )
                if found is not None:
                    # the reported digit solution maps to a direct solution
                    point = restriction.point(found)
                    at = point_table(ring, point, n)
                    assert all(not at(f) for f in eqs)
                checks += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS - truncation oracle agreement on {checks} checks "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: UNSAT canon


def test_criterion_3_unsat_canon():
    for p in (2, 3, 5):
        ctx = FqContext(p)
        ring = tring(ctx, "X")
        square = ring.from_terms({(2, 0): 1, (0, 1): -1})
        frob = ring.from_terms({(p, 0): 1, (0, 1): -1})
        for f in (square, frob):
            v = decide_existential(AffineSystem(ring, [f]))
            assert v.is_unsat, f"{f} over F_{p} must be unsat"
            assert v.refuted_at == 2, f"{f} over F_{p} refuted at {v.refuted_at}"
    print("\nACCEPTANCE 3: PASS - X^2 - t and X^p - t refuted at N = 2 for p in {2, 3, 5}")


# ---------------------------------------------------------------------------
# criterion 4: valuation-predicate bank


def test_criterion_4_valuation_predicate_bank():
    start = time.monotonic()
    cases = 0
    for ctx in (F2, F3, F4):
        t = RationalFunction.from_unipoly(UniPoly(ctx, [0, 1]))
        for c in ctx.elements():
            if not c:
                continue
            c_rf = RationalFunction.from_unipoly(UniPoly(ctx, [c]))
            for k in range(-3, 4):
                x = c_rf * t**k
                pos = decide(Sentence([], InRing(TConst(x))), ctx)
                neg = decide(Sentence([], Not(InRing(TConst(x)))), ctx)
                assert pos.status in ("sat", "unsat")
                assert neg.status in ("sat", "unsat")
                assert pos.is_sat == (k >= 0), f"O({c!r}*t^{k}) over F_{ctx.q}"
                assert neg.is_sat == (k < 0), f"~O({c!r}*t^{k}) over F_{ctx.q}"
                if pos.is_sat:
                    _register_sat(f"c4-O(c*t^{k})-q{ctx.q}", pos)
                if neg.is_sat:
                    _register_sat(f"c4-negO(c*t^{k})-q{ctx.q}", neg)
                cases += 2
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"bank took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 4: PASS - {cases} ground valuation atoms decided correctly "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: Hensel convergence


def _lifting_suite():
    suite = []

    def sys1(ctx):  # X^2 = 1 + t
        r = tring(ctx, "X")
        return r, [r.from_terms({(2, 0): 1, (0, 0): -1, (0, 1): -1})], [TruncatedSeries(ctx, [1], 1)]

    def sys2(ctx):  # X^2 = 1 + t + t^2
        r = tring(ctx, "X")
        return (
            r,
            [r.from_terms({(2, 0): 1, (0, 0): -1, (0, 1): -1, (0, 2): -1})],
            [TruncatedSeries(ctx, [1], 1)],
        )

    def sys3():  # X^3 = 1 + t over F_5
        r = tring(F5, "X")
        return r, [r.from_terms({(3, 0): 1, (0, 0): -1, (0, 1): -1})], [TruncatedSeries(F5, [1], 1)]

    def sys4(ctx):  # {XY - 1, X - (1+t)}
        r = tring(ctx, "X", "Y")
        return (
            r,
            [
                r.from_terms({(1, 1, 0): 1, (0, 0, 0): -1}),
                r.from_terms({(1, 0, 0): 1, (0, 0, 0): -1, (0, 0, 1): -1}),
            ],
            [TruncatedSeries(ctx, [1], 1), TruncatedSeries(ctx, [1], 1)],
        )

    def sys5():  # {Y - X^2, X - (1+t)} over F_5
        r = tring(F5, "X", "Y")
        return (
            r,
            [
                r.from_terms({(0, 1, 0): 1, (2, 0, 0): -1}),
                r.from_terms({(1, 0, 0): 1, (0, 0, 0): -1, (0, 0, 1): -1}),
            ],
            [TruncatedSeries(F5, [1], 1), TruncatedSeries(F5, [1], 1)],
        )

    def sys6(ctx):  # X^2 = t^2 (1 + t): minor valuation e = 1
        r = tring(ctx, "X")
        return r, [r.from_terms({(2, 0): 1, (0, 2): -1, (0, 3): -1})], [TruncatedSeries(ctx, [0, 1, 0], 3)]

    def sys7():  # Artin-Schreier X^2 + X = t(1+t) over F_2
        r = tring(F2, "X")
        return (
            r,
            [r.from_terms({(2, 0): 1, (1, 0): 1, (0, 1): -1, (0, 2): -1})],
            [TruncatedSeries(F2, [0], 1)],
        )

    def sys8():  # linear 2x2 over F_3
        r = tring(F3, "X", "Y")
        return (
            r,
            [
                r.from_terms({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 0): -1, (0, 0, 1): -1}),
                r.from_terms({(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 0): -1, (0, 0, 1): -2}),
            ],
            [TruncatedSeries(F3, [1], 1), TruncatedSeries(F3, [0], 1)],
        )

    suite.append(sys1(F3))
    suite.append(sys1(F5))
    suite.append(sys2(F3))
    suite.append(sys3())
    suite.append(sys4(F3))
    suite.append(sys5())
    suite.append(sys6(F3))
    suite.append(sys6(F5))
    suite.append(sys7())
    suite.append(sys8())
    return suite


def test_criterion_5_hensel_convergence():
    suite = _lifting_suite()
    assert len(suite) == 10
    steps = 0
    for ring, eqs, point in suite:
        table = minor_table(ring, eqs)
        cert = certify_liftable(table, point)
        assert cert is not None, f"suite system failed to certify: {eqs}"
        trace = []
        target = 16
        lifted = newton_lift(table, point, cert, target, trace=trace)
        for a, b in zip(trace, trace[1:]):
            assert b >= 2 * a - 2 * cert.e, f"iteration {a} -> {b} with e={cert.e}"
            steps += 1
        for f in eqs:
            res = point_table(ring, lifted, target)(f)
            assert val_ge(valuation(res), target)
    print(f"\nACCEPTANCE 5: PASS - 10-system lifting suite, {steps} Newton steps "
          "all at least doubling (minus 2e)")


# ---------------------------------------------------------------------------
# criterion 6: Groebner suite


def test_criterion_6_groebner_suite():
    rng = random.Random(60609)
    # 50 random ideals in 2-3 variables, degree <= 3: idempotence
    count = 0
    while count < 50:
        nv = rng.choice((2, 3))
        ring = PolyRing(F3, tuple("XYZ"[:nv]))
        gens = []
        for _ in range(rng.randrange(1, 4)):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                e = tuple(rng.randrange(3) for _ in range(nv))
                if sum(e) > 3:
                    continue
                terms[e] = rng.randrange(3)
            f = ring.from_terms(terms)
            if f:
                gens.append(f)
        if not gens:
            continue
        gb = buchberger(gens, ring=ring)
        gb2 = buchberger(gb.generators, ring=ring)
        assert gb2.generators == gb.generators
        count += 1

    # radical membership against the explicit Rabinowitsch cofactor certificate
    ring2 = PolyRing(F3, ("X", "Y"))
    x, y = ring2.var(0), ring2.var(1)
    instances = [
        (x, [x**2], True),
        (x, [y], False),
        (ring2.one(), [x - ring2.one(), x], True),
        (y - x**2, [(y - x**2) ** 2], True),
        (x + y, [x * y], False),
    ]
    for g, gens, expect in instances:
        member, cert = radical_membership(g, gens, with_certificate=True)
        assert member == expect
        if member:
            assert cert.verify(), "certificate must recompose to 1"

    # dimension: 1 for (XY - 1), 0 for (X, Y), Empty for (1)
    assert dimension(buchberger([x * y - ring2.one()])) == 1
    assert dimension(buchberger([x, y])) == 0
    assert dimension(buchberger([ring2.one()])) is None
    print("\nACCEPTANCE 6: PASS - 50 idempotent bases, cofactor-checked radical "
          "membership, staircase dimensions")


# ---------------------------------------------------------------------------
# criterion 7: resolution suite


def _charts_regular(strict, ctx):
    ring = tring(ctx, "X", "Y")
    sys = AffineSystem(ring, clear_denominators([strict]))
    return regularity_check(sys).status == "regular"


def test_criterion_7_resolution_suite():
    rr = PolyRing(RationalFunctionField(F5), ("X", "Y"))
    x, y = rr.var(0), rr.var(1)

    def check_identity(curve, charts):
        for chart in charts:
            pullback = curve.compose(list(chart.back_map), rr)
            assert pullback == chart.strict * chart.exceptional**chart.multiplicity

    # cusp: regular strict transforms after exactly 1 blow-up
    cusp = y**2 - x**3
    charts = blow_up_origin(cusp)
    check_identity(cusp, charts)
    assert all(_charts_regular(c.strict, F5) for c in charts)

    # tacnode: not resolved after 1 (chart 0 is the node), resolved after 2
    tacnode = y**2 - x**4
    first = blow_up_origin(tacnode)
    check_identity(tacnode, first)
    statuses = [_charts_regular(c.strict, F5) for c in first]
    assert statuses == [False, True], "first blow-up must leave exactly the node chart"
    second = blow_up_origin(first[0].strict)
    check_identity(first[0].strict, second)
    assert all(_charts_regular(c.strict, F5) for c in second)
    print("\nACCEPTANCE 7: PASS - cusp resolves in 1 blow-up, tacnode in exactly 2, "
          "chart identities hold")


# ---------------------------------------------------------------------------
# criterion 8: end-to-end sentence corpus


# Each entry: (label, field, sentence, expected status).  Derivations:
#  1. X^2 = 1+t over F_3((t))): 1 is a simple root of X^2 - 1 mod t
#     (derivative 2 is a unit), Hensel lifts it; witness 1 + 2t + ...
#  2. X^2 = t over F_3((t)): v(X^2) = 2 v(X) is even, v(t) = 1 is odd.
#  3. X^2 = t over F_2((t)): same parity obstruction (squares in char 2
#     have only even-exponent coefficients).
#  4. X^2 = t over F_4((t)): same parity obstruction.
#  5. Y^2 = X^3, X != 0 over F_3((t)): (1, 1) lies on the cusp away from
#     the singular origin; d(Y^2-X^3)/dY = 2Y = 2 is a unit there.
#  6. Y^2 = X^3, X != 0 over F_2((t)): (1, 1) again; in char 2 the X-partial
#     -3X^2 = X^2 = 1 is the unit entry.
#  7. O(t) & ~O(1/t) over F_3((t)): v(t) = 1 >= 0 and v(1/t) = -1 < 0.
#  8. O(X*X - 1/t) over F_3((t)): for integral X, v(X^2 - 1/t) =
#     min(2 v(X), -1) = -1 < 0; never integral.
#  9. X^2 + X = t over F_2((t)): Artin-Schreier with residue equation
#     x0^2 + x0 = 0; root 0 has unit derivative 2*0 + 1 = 1.
# 10. Y^2 + Y + 1 = 0 over F_4((t)): the generator a satisfies a^2 + a + 1 = 0
#     by the modulus; exact constant witness.
# 11. Y^2 + Y + 1 = 0 over F_2((t)): no root mod t (0 and 1 both fail),
#     refuted at the first truncation level.
# 12. (X = t | X^2 = t) & X != 0 over F_3((t)): first disjunct gives X = t,
#     nonzero of valuation 1; the second is the parity-obstructed (2).
CORPUS = [
    ("c8-1", F3, "exists X. X*X = 1 + t", "sat"),
    ("c8-2", F3, "exists X. X*X = t", "unsat"),
    ("c8-3", F2, "exists X. X*X = t", "unsat"),
    ("c8-4", F4, "exists X. X*X = t", "unsat"),
    ("c8-5", F3, "exists X, Y. Y*Y = X^3 & ~(X = 0)", "sat"),
    ("c8-6", F2, "exists X, Y. Y*Y = X^3 & ~(X = 0)", "sat"),
    ("c8-7", F3, "O(t) & ~O(1/t)", "sat"),
    ("c8-8", F3, "exists X. O(X*X - 1/t)", "unsat"),
    ("c8-9", F2, "exists X. X*X + X = t", "sat"),
    ("c8-10", F4, "exists Y. Y*Y + Y + 1 = 0", "sat"),
    ("c8-11", F2, "exists Y. Y*Y + Y + 1 = 0", "unsat"),
    ("c8-12", F3, "exists X. (X = t | X*X = t) & ~(X = 0)", "sat"),
]


def test_criterion_8_sentence_corpus():
    start = time.monotonic()
    for label, ctx, text, expected in CORPUS:
        v = decide(text, ctx)
        assert v.status == expected, f"{label}: {text} -> {v.status}, expected {expected}"
        if v.is_sat:
            _register_sat(label, v)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"corpus took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 8: PASS - 12 sentences decided to hand-derived verdicts "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: SAT soundness (consumes the registry; runs after 1-8)


def test_criterion_2_sat_soundness():
    if not SAT_REGISTRY:
        # criteria were deselected: exercise the built-in minimum
        v = decide("exists X. X*X = 1 + t", F3)
        _register_sat("fallback", v)
    failures = []
    for label, verdict in SAT_REGISTRY:
        system = verdict.system
        eqs = system.equations
        witness = list(verdict.witness)
        cert = verdict.certificate
        target = 2 * cert.precision
        try:
            lifted = newton_lift(minor_table(system.ring, eqs), witness, cert, target)
        except Exception as err:  # noqa: BLE001 - report, do not mask
            failures.append(f"{label}: lift failed ({err})")
            continue
        for f in eqs:
            res = point_table(system.ring, lifted, target)(f)
            if not val_ge(valuation(res), target):
                failures.append(f"{label}: residual below doubled precision")
    assert not failures, failures
    print(f"\nACCEPTANCE 2: PASS - {len(SAT_REGISTRY)} SAT verdicts re-verified at "
          "doubled precision")


# ---------------------------------------------------------------------------
# criterion 9: determinism


def test_criterion_9_determinism(capsys):
    # the criterion-8 corpus through the CLI with 1 and 4 workers
    reports = {}
    for threads in ("1", "4"):
        lines = []
        for label, ctx, text, _ in CORPUS:
            if ctx.n == 1:
                field = f"p={ctx.p}"
            else:
                field = f"p={ctx.p} n={ctx.n} modulus=" + ",".join(str(c) for c in ctx.modulus)
            code = cli_run(["--field", field, "--threads", threads, "--trace", text])
            out = capsys.readouterr().out
            lines.append(out)
        reports[threads] = "".join(lines)
    assert reports["1"] == reports["4"], "reports must be byte-identical across workers"

    # criterion-1 style sweep re-run must also be byte-identical
    def sweep_digest():
        rng = random.Random(190840)
        parts = []
        for ctx in (F2, F3):
            ring, eqs = _random_system(rng, ctx, 2)
            for n in (1, 2):
                w = weil_restrict(eqs, ring, n)
                sol = next(iter_solutions(w.restricted, w.ring), None)
                parts.append(repr(sol))
        return "|".join(parts)

    assert sweep_digest() == sweep_digest()
    print("\nACCEPTANCE 9: PASS - byte-identical reports for 1 and 4 workers")
