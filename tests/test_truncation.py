import ast
import dataclasses
import inspect
import itertools
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from collections import Counter
from math import prod
from pathlib import Path

import hensel_oracle
import make_decision_golden as golden
import pytest
import truncation_oracle
import weil_oracle
from test_hensel import SHAPES, criterion_1_sweep
from weil_oracle import digit_terms

import laurentdecide
from laurentdecide import resolve
from laurentdecide.ff import FqContext
from laurentdecide.frontend import decide, eliminate_valuation_atoms, parse, to_systems
from laurentdecide.hensel import certify_liftable
from laurentdecide.poly import MultiPoly, PolyRing
from laurentdecide.resolve import AffineSystem
from laurentdecide.series import (
    TruncatedSeries,
    point_table,
    val_exact,
    val_ge,
    valuation,
    valuation_at,
)
from laurentdecide.truncation import (
    RunConfig,
    SearchBudgetExceeded,
    SkipRequest,
    WeilRestriction,
    _assign,
    decide_positive,
    iter_solutions,
    weil_restrict,
)
from test_acceptance import _curated_systems, _random_system, minor_table
from test_fraction_field_boundary import _banned_names
from test_fuzz import random_sentence

F2 = FqContext(2)
F3 = FqContext(3)
F4 = FqContext(2, 2)
F5 = FqContext(5)


def tring(ctx, *names):
    return PolyRing(ctx, tuple(names) + ("t",))


# -- weil_restrict ------------------------------------------------------------


def test_weil_restrict_x_squared_minus_t():
    # {X^2 - t} over F_3, N=2: digits y0, y1 give {y0^2, 2*y0*y1 - 1}
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 1): -1})
    w = weil_restrict([f], R, 2)
    D = w.ring
    assert D.names == ("X_0", "X_1")
    expected = [D.from_terms({(2, 0): 1}), D.from_terms({(1, 1): 2, (0, 0): -1})]
    assert w.restricted == list(map(digit_terms, expected))


def test_weil_restrict_linear():
    # {X - t}, N=2 -> {y0, y1 - 1}
    R = tring(F3, "X")
    f = R.from_terms({(1, 0): 1, (0, 1): -1})
    w = weil_restrict([f], R, 2)
    D = w.ring
    assert w.restricted == list(map(digit_terms, [D.var(0), D.var(1) - D.one()]))


def test_weil_restrict_char2_frobenius():
    # {X^2 - (1+t)} over F_2, N=2: (y0 + y1 t)^2 = y0^2 mod t^2, so the
    # t-coefficient is the inconsistent constant 1
    R = tring(F2, "X")
    f = R.from_terms({(2, 0): 1, (0, 0): 1, (0, 1): 1})
    w = weil_restrict([f], R, 2)
    D = w.ring
    assert w.restricted == list(map(digit_terms, [D.from_terms({(2, 0): 1, (0, 0): 1}), D.one()]))


def test_weil_restrict_exactness_oracle():
    # independent oracle: a tuple in (F_q[t]/t^N)^m solves the reduction iff
    # its digit expansion solves the restricted system
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 1): 2, (1, 1): 1})  # X^2 + t*X + 2t
    n = 2
    w = weil_restrict([f], R, n)
    elems = list(F3.elements())
    for digits in itertools.product(elems, repeat=n):
        x = TruncatedSeries(F3, list(digits), n)
        direct = point_table(R, [x], n)(f)
        restricted_ok = all(not _value(g, digits) for g in w.restricted)
        assert (not direct) == restricted_ok


def _value(terms, point):
    """A digit equation's value at a point of its digits."""
    ctx = point[0].ctx
    return sum((c * prod((point[i] for i in mono), start=ctx.one()) for mono, c in terms.items()),
               ctx.zero())


# -- the first solution of iter_solutions --------------------------------------


def test_solve_finite_unsat_pair():
    D = PolyRing(F3, ("Y0", "Y1"))
    system = [D.from_terms({(2, 0): 1}), D.from_terms({(1, 1): 2, (0, 0): -1})]
    assert next(iter_solutions(list(map(digit_terms, system)), D), None) is None


def test_solve_finite_single_var():
    D = PolyRing(F2, ("Y",))
    assert next(iter_solutions([digit_terms(D.var(0))], D), None) == (F2.zero(),)


def test_solve_finite_artin_schreier():
    # Y^2 + Y + 1: no root in F_2, root a in F_4 (a^2 + a = 1 with x^2+x+1)
    D2 = PolyRing(F2, ("Y",))
    f2 = D2.from_terms({(2,): 1, (1,): 1, (0,): 1})
    assert next(iter_solutions([digit_terms(f2)], D2), None) is None
    D4 = PolyRing(F4, ("Y",))
    f4 = D4.from_terms({(2,): 1, (1,): 1, (0,): 1})
    sol = next(iter_solutions([digit_terms(f4)], D4), None)
    assert sol == (F4.gen(),)


def test_iter_solutions_lexicographic_and_complete():
    # brute-force cross-check on a small system over F_3
    D = PolyRing(F3, ("A", "B"))
    f = D.from_terms({(1, 1): 1, (0, 0): -1})  # AB = 1
    got = list(iter_solutions([digit_terms(f)], D))
    elems = list(F3.elements())
    expected = [
        (a, b) for a in elems for b in elems if not f.eval_coeffs([a, b])
    ]
    assert got == expected


def test_iter_solutions_prunes_contradiction():
    D = PolyRing(F3, ("A",))
    assert list(iter_solutions([digit_terms(D.one())], D)) == []
    assert list(iter_solutions([digit_terms(D.zero())], D)) == [(c,) for c in F3.elements()]


# -- decide_positive ---------------------------------------------------------------


def test_decide_positive_unsat_x2_minus_t():
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 1): -1})
    v = decide_positive(AffineSystem(R, [f]))
    assert v.is_unsat and v.refuted_at == 2


def test_decide_positive_sqrt_sat():
    # {X^2 - (1+t)} over F_3: witness 1+2t mod t^2 with e=0
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 0): -1, (0, 1): -1})
    v = decide_positive(AffineSystem(R, [f]))
    assert v.is_sat
    assert v.certificate.e == 0
    assert v.witness[0].precision == 2
    assert [c.coords[0] for c in v.witness[0].coeffs] == [1, 2]


def test_decide_positive_linear_sat_at_two():
    R = tring(F3, "X")
    f = R.from_terms({(1, 0): 1, (0, 1): -1})
    v = decide_positive(AffineSystem(R, [f]))
    assert v.is_sat
    assert v.witness[0].precision == 2
    assert v.witness[0] == TruncatedSeries(F3, [0, 1], 2)


def test_decide_positive_frobenius_unsat():
    # {X^p - t} over F_p: refuted at N = 2 by the inconsistent constant
    for ctx in (F2, F3, F5):
        R = tring(ctx, "X")
        f = R.from_terms({(ctx.p, 0): 1, (0, 1): -1})
        v = decide_positive(AffineSystem(R, [f]))
        assert v.is_unsat and v.refuted_at == 2


def test_decide_positive_empty_system_sat():
    R = tring(F3, "X")
    v = decide_positive(AffineSystem(R, []))
    assert v.is_sat
    assert v.witness[0] == TruncatedSeries(F3, [], 2)


def test_decide_positive_closed_constants():
    # no variables: t^3 = 0 is refuted once the truncation sees t^3
    R = PolyRing(F3, ("t",))
    f = R.from_terms({(3,): 1})
    v = decide_positive(AffineSystem(R, [f]))
    assert v.is_unsat and v.refuted_at == 4
    v2 = decide_positive(AffineSystem(R, [R.zero()]))
    assert v2.is_sat and v2.witness == ()


def test_decide_positive_unknown_on_tight_budget():
    # certificate exists at N=1 but the confirming lift needs precision 2
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 0): -1, (0, 1): -1})
    v = decide_positive(AffineSystem(R, [f]), RunConfig(max_precision=1))
    assert v.is_unknown and v.reason == "precision-exhausted"


@pytest.mark.parametrize(
    "field, value",
    [("max_precision", 0), ("max_precision", -4), ("candidate_cap", 0),
     ("search_budget", 0), ("max_blowups", -1)],
)
def test_run_config_rejects_budgets_below_their_floor(field, value):
    # a candidate cap of 0 would otherwise end in UNKNOWN precision-exhausted,
    # naming the wrong budget
    with pytest.raises(ValueError, match="budgets must be >= 1"):
        RunConfig(**{field: value})


def test_run_config_takes_the_least_budgets():
    # no blow-up at all is a legal run; every other budget allows one unit
    config = RunConfig(max_precision=1, candidate_cap=1, search_budget=1, max_blowups=0)
    assert (config.max_precision, config.max_blowups) == (1, 0)


def test_decide_positive_witness_verifies():
    R = tring(F3, "X", "Y")
    # {Y - X^2, X - t}: witness (t, t^2)
    f1 = R.from_terms({(0, 1, 0): 1, (2, 0, 0): -1})
    f2 = R.from_terms({(1, 0, 0): 1, (0, 0, 1): -1})
    v = decide_positive(AffineSystem(R, [f1, f2]))
    assert v.is_sat
    for f in (f1, f2):
        r = point_table(R, v.witness, v.witness[0].precision)(f)
        assert val_ge(valuation(r), v.witness[0].precision)


def test_unsat_monotone_in_level():
    # once the restriction is unsolvable at N, it stays unsolvable beyond
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 1): -1})
    for n in (2, 3, 4):
        w = weil_restrict([f], R, n)
        assert next(iter_solutions(w.restricted, w.ring), None) is None


@pytest.mark.parametrize("max_precision", [1, 6, 8, 64])
def test_decide_positive_visits_the_levels_of_the_old_schedule(max_precision):
    # X^2 = 0 is solvable at every level, and no point certifies: its
    # Jacobian 2X never has exact valuation below half the precision
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1})
    trace = []
    v = decide_positive(AffineSystem(R, [f]), RunConfig(max_precision=max_precision), trace)
    assert v.is_unknown and v.reason == "precision-exhausted"
    visited = [int(m[1]) for m in map(re.compile(r"level (\d+): \d+ restricted").match, trace) if m]
    assert visited == list(hensel_oracle.PrecisionSchedule(max_precision).levels())


def test_search_budget_turns_explosion_into_unknown():
    import pytest

    from laurentdecide.truncation import SearchBudgetExceeded

    # two free variables, no constraints at low levels beyond t^3
    R = tring(F3, "X", "Y")
    f = R.from_terms({(1, 0, 3): 1, (0, 1, 3): 1})  # t^3 * (X + Y)
    with pytest.raises(SearchBudgetExceeded):
        w = weil_restrict([f], R, 4)
        list(iter_solutions(w.restricted, w.ring, node_budget=10))
    v = decide_positive(AffineSystem(R, [f]), RunConfig(max_precision=8, search_budget=10))
    assert v.is_unknown and v.reason == "search-budget-exhausted"
    # the exhaustive default still decides it (e = 3 needs confirmation at 16)
    v2 = decide_positive(AffineSystem(R, [f]), RunConfig(max_precision=16))
    assert v2.is_sat


def test_sat_never_regresses_with_finer_schedule():
    R = tring(F3, "X")
    f = R.from_terms({(2, 0): 1, (0, 0): -1, (0, 1): -1})
    v1 = decide_positive(AffineSystem(R, [f]), RunConfig(max_precision=4))
    v2 = decide_positive(AffineSystem(R, [f]), RunConfig(max_precision=64))
    assert v1.is_sat and v2.is_sat
    e = v1.certificate.e
    n = min(v1.witness[0].precision, v2.witness[0].precision) - e
    assert v1.witness[0].coeffs[:n] == v2.witness[0].coeffs[:n]


def test_weil_restrict_digit_major_names_and_point():
    # {X - t, Y - 1} over F_3, N=2: digits X_0, Y_0, X_1, Y_1
    R = tring(F3, "X", "Y")
    f = R.from_terms({(1, 0, 0): 1, (0, 0, 1): -1})
    g = R.from_terms({(0, 1, 0): 1, (0, 0, 0): -1})
    w = weil_restrict([f, g], R, 2)
    D = w.ring
    assert D.names == ("X_0", "Y_0", "X_1", "Y_1")
    assert w.restricted == list(
        map(digit_terms, [D.var(0), D.var(2) - D.one(), D.var(1) - D.one(), D.var(3)])
    )
    (sol,) = list(iter_solutions(w.restricted, D))
    x, y = w.point(sol)
    assert x == TruncatedSeries(F3, [0, 1], 2)
    assert y == TruncatedSeries(F3, [1, 0], 2)


def test_iter_solutions_node_count():
    # one node per visited partial assignment, the root and pruned ones
    # included: AB = 1 over F_3 visits the root, A = 0, 1, 2 (A = 0 dies)
    # and three B values under each of A = 1, 2
    D = PolyRing(F3, ("A", "B"))
    f, one = digit_terms(D.from_terms({(1, 1): 1, (0, 0): -1})), digit_terms(D.one())
    assert len(list(iter_solutions([f], D, node_budget=10))) == 2
    with pytest.raises(SearchBudgetExceeded):
        list(iter_solutions([f], D, node_budget=9))
    with pytest.raises(SearchBudgetExceeded):
        list(iter_solutions([one], D, node_budget=0))
    assert list(iter_solutions([one], D, node_budget=1)) == []


# -- regressions pinned by verdict and node count -------------------------------


def test_norm_form_t5_over_f5_refuted_at_eight():
    # the x-major search ran out of its 2,000,000-node budget here
    v = decide("exists X, Y. X*X - 2*Y*Y = t^5", F5)
    assert v.is_unsat and v.refuted_at == 8


def test_digit_major_search_refutes_within_small_budget():
    # X^2 + Y^2 = t^5 over F_3: -1 is a non-square, so the norm form only
    # takes even valuations.  Digit-major order refutes level 8 in a few
    # hundred nodes; the x-major order needs tens of thousands.
    R = tring(F3, "X", "Y")
    f = R.from_terms({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 5): -1})
    v = decide_positive(AffineSystem(R, [f]), RunConfig(search_budget=1_000))
    assert v.is_unsat and v.refuted_at == 8
    old = _xmajor_weil_restrict([f], R, 8)
    with pytest.raises(SearchBudgetExceeded):
        list(_xmajor_iter_solutions(old.restricted, old.ring, 1_000))


# -- differential tests against the x-major layer -------------------------------
#
# The three functions below are verbatim copies of the x-major truncation
# layer that this one replaced (digit k of unknown j at index j*N + k, every
# polynomial rebuilt at every search node).  They are the oracle.


def _xmajor_weil_restrict(equations, ring: PolyRing, level: int) -> WeilRestriction:
    """Coefficients of t^0..t^(level-1) of each equation after substituting
    the digit expansion for every unknown."""
    if level < 1:
        raise ValueError("truncation level must be >= 1")
    ctx = ring.field
    assert isinstance(ctx, FqContext), "weil restriction runs over F_q[t] systems"
    tpos = ring.tpos
    assert tpos is not None, "system ring must carry the t slot"
    xnames = [n for i, n in enumerate(ring.names) if i != tpos]
    m = len(xnames)

    digit_names = [f"{name}_{k}" for name in xnames for k in range(level)]
    assert len(set(digit_names)) == len(digit_names), "digit name collision"
    digits = PolyRing(ctx, digit_names)
    work = PolyRing(ctx, tuple(digit_names) + ("t",))

    t_img = work.var(work.nvars - 1)
    images = []
    xi = 0
    for i in range(ring.nvars):
        if i == tpos:
            images.append(t_img)
        else:
            expansion = work.zero()
            for k in range(level):
                expansion = expansion + work.var(xi * level + k) * t_img**k
            images.append(expansion)
            xi += 1

    restricted = []
    seen = set()
    for f in equations:
        expanded = f.compose(images, work)
        for k in range(level):
            coeff = expanded.coeff_of(work.nvars - 1, k)
            g = MultiPoly(digits, {e[:-1]: c for e, c in coeff.terms.items()})
            if not g:
                continue
            if g in seen:
                continue
            seen.add(g)
            restricted.append(g)
    return WeilRestriction(level, digits, restricted)


def _xmajor_substitute_var(f: MultiPoly, i: int, value):
    terms = {}
    for e, c in f.terms.items():
        k = e[i]
        c2 = c * value**k if k else c
        if not c2:
            continue
        e2 = e[:i] + (0,) + e[i + 1 :]
        if e2 in terms:
            s = terms[e2] + c2
            if s:
                terms[e2] = s
            else:
                del terms[e2]
        else:
            terms[e2] = c2
    return MultiPoly(f.ring, terms)


def _xmajor_iter_solutions(system, ring: PolyRing, node_budget: int | None = None):
    """All solutions over F_q in lexicographic enumeration order.

    Depth-first assignment with early pruning: a branch dies as soon as any
    fully-instantiated equation is a nonzero constant.  Without a node budget
    the search is exhaustive; with one, SearchBudgetExceeded fires once the
    walk exceeds it (callers must then treat the level as undecided).
    """
    ctx = ring.field
    elems = list(ctx.elements())
    nv = ring.nvars
    nodes = [0]

    def dead(polys):
        return any(p.is_constant() and p for p in polys)

    def rec(i, polys, acc):
        nodes[0] += 1
        if node_budget is not None and nodes[0] > node_budget:
            raise SearchBudgetExceeded(f"digit search exceeded {node_budget} nodes")
        if dead(polys):
            return
        if i == nv:
            if all(not p for p in polys):
                yield tuple(acc)
            return
        for v in elems:
            nxt = [_xmajor_substitute_var(p, i, v) for p in polys]
            acc.append(v)
            yield from rec(i + 1, nxt, acc)
            acc.pop()

    yield from rec(0, list(system), [])


def _xmajor_point(assignment, n, m):
    return tuple(tuple(assignment[j * n : (j + 1) * n]) for j in range(m))


def _digit_major(g, ring, n, m):
    """g with x-major digit index j*n + k moved to digit-major k*m + j."""
    terms = {}
    for e, c in g.terms.items():
        terms[tuple(e[j * n + k] for k in range(n) for j in range(m))] = c
    return MultiPoly(ring, terms)


def _criterion_1_systems():
    """The systems of the criterion-1 sweep, drawn in its order, as
    (ctx, ring, equations, curated) tuples."""
    rng = random.Random(190840)
    out = []
    for ctx in (F2, F3):
        out += [(ctx, ring, eqs, True) for ring, eqs in _curated_systems(ctx)]
        for m in (1, 2):
            for _ in range(22):
                ring, eqs = _random_system(rng, ctx, m)
                out.append((ctx, ring, eqs, False))
    return out


def _node_count(search, system, ring):
    """Nodes an exhaustive walk visits: the least budget it stays within."""
    lo, hi = 0, 1
    while True:
        try:
            list(search(system, ring, hi))
            break
        except SearchBudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            list(search(system, ring, mid))
            hi = mid
        except SearchBudgetExceeded:
            lo = mid
    return hi


def test_weil_restrict_matches_xmajor_oracle():
    # levels up to 8 on all criterion-1 systems, 12 and 16 on the curated
    # ones (the oracle's compose takes seconds per random system there)
    cases = []
    for _, ring, eqs, curated in _criterion_1_systems():
        levels = (1, 2, 3, 4, 6, 8) + ((12, 16) if curated else ())
        cases += [(ring, eqs, n) for n in levels]
    for ring, eqs, n in cases:
        m = ring.nvars - 1
        old = _xmajor_weil_restrict(eqs, ring, n)
        new = weil_restrict(eqs, ring, n)
        assert new.ring.names == tuple(
            old.ring.names[j * n + k] for k in range(n) for j in range(m)
        )
        assert new.restricted == [
            digit_terms(_digit_major(g, new.ring, n, m)) for g in old.restricted
        ]


def test_iter_solutions_matches_xmajor_oracle():
    # the solution sets, as series points, at every level criterion 1 checks
    checks = 0
    for ctx, ring, eqs, _ in _criterion_1_systems():
        m = ring.nvars - 1
        for n in (1, 2, 3, 4):
            if ctx.q ** (n * m) > 7000:
                continue
            old = _xmajor_weil_restrict(eqs, ring, n)
            new = weil_restrict(eqs, ring, n)
            expected = {
                _xmajor_point(a, n, m) for a in _xmajor_iter_solutions(old.restricted, old.ring)
            }
            got = {
                tuple(x.coeffs for x in new.point(a))
                for a in iter_solutions(new.restricted, new.ring)
            }
            assert got == expected, f"q={ctx.q} N={n}: {eqs}"
            checks += 1
    assert checks > 300


def test_iter_solutions_walks_the_oracle_nodes():
    # in the same variable order, pruning only the touched equations prunes
    # exactly where rebuilding every equation did, so the node counts (and
    # hence the meaning of search_budget) match the oracle's
    for ctx, ring, eqs, _ in _criterion_1_systems()[::4]:
        for n in (1, 2, 3):
            if ctx.q ** (n * (ring.nvars - 1)) > 800:
                continue
            old = _xmajor_weil_restrict(eqs, ring, n)
            assert _node_count(
                iter_solutions, list(map(digit_terms, old.restricted)), old.ring
            ) == _node_count(_xmajor_iter_solutions, old.restricted, old.ring)


# -- differential tests against the dense digit monomials ---------------------
#
# weil_oracle holds the restriction as it stood with every digit monomial a
# dense exponent tuple over all m*N digit variables.  The sparse one must
# build the same digit ring and the same restricted polynomials, in the same
# order, each with its terms in the same order.


def _assert_matches_dense_oracle(eqs, ring, levels):
    for n in levels:
        old = weil_oracle.weil_restrict(eqs, ring, n)
        new = weil_restrict(eqs, ring, n)
        assert new.ring.names == old.ring.names
        assert new.restricted == list(map(digit_terms, old.restricted))
        assert [list(g.items()) for g in new.restricted] == [
            list(digit_terms(g).items()) for g in old.restricted
        ], f"N={n}: {eqs}"


@pytest.mark.parametrize("ctx, a", [(F3, 2), (FqContext(5), 2), (FqContext(7), 3)])
def test_weil_restrict_matches_dense_oracle_on_norm_forms(ctx, a):
    R = tring(ctx, "X", "Y")
    x, y, t = R.var(0), R.var(1), R.var(2)
    for k in (1, 2, 3, 5):
        _assert_matches_dense_oracle([x * x - R.const(a) * y * y - t**k], R, range(1, 17))


# the singular cones X^2 - a*Y^2 = t*Z^2, each with its benchmarked precision cap
CONES = [(F2, -1, 32), (F3, 2, 16), (F5, 2, 8), (FqContext(7), 3, 8)]


def _cone(ctx, a):
    R = tring(ctx, "X", "Y", "Z")
    x, y, z, t = R.var(0), R.var(1), R.var(2), R.var(3)
    return R, [x * x - R.const(a) * y * y - t * z * z]


@pytest.mark.parametrize("ctx, a, max_precision", CONES)
def test_weil_restrict_matches_dense_oracle_on_the_cones(ctx, a, max_precision):
    # at every level up to the cone's precision cap
    R, eqs = _cone(ctx, a)
    _assert_matches_dense_oracle(eqs, R, range(1, max_precision + 1))


def test_weil_restrict_matches_dense_oracle_on_a_deep_curve():
    R = tring(FqContext(5), "X", "Y")
    x, y, t = R.var(0), R.var(1), R.var(2)
    _assert_matches_dense_oracle([y**3 - t * x**7], R, (8, 16, 32))


def test_weil_restrict_matches_dense_oracle_on_the_fuzz_systems():
    # every system to_systems builds from the first 60 sentences of each
    # seed of test_fuzz_sentences_f3 and _f2 (which decide 45: a positive O
    # atom of a polynomial builds no equation, so 45 leave fewer than 100
    # systems with one), at the levels their runs visit
    checked = 0
    for seed, ctx in ((777001, F3), (424242, F2)):
        rng = random.Random(seed)
        for _ in range(60):
            sentence = eliminate_valuation_atoms(parse(random_sentence(rng)))
            for system in to_systems(sentence, ctx):
                eqs = [f for f in system.equations if f]
                _assert_matches_dense_oracle(eqs, system.ring, (1, 2, 4, 8, 16))
                checked += bool(eqs)
    assert checked > 100


# weil_restrict builds X^d for p | d as the Frobenius image of X^(d/p), and
# for odd p writes X^2 out; every other power comes from the one below it by
# a step whose factor has unit coefficients, and a monomial's first unknown
# factor is its power vector itself.  In characteristic p the step deletes
# terms partway through a product (binomial coefficients vanish); a term
# deleted and met again moves to the end of its map, so the Frobenius and
# the square must place each term where the step would, which the term
# order check sees.  Each exponent runs alone and times Y, and the levels
# cross every slot kp at which the Frobenius drops terms.


@pytest.mark.parametrize(
    "ctx", [F2, F3, F4, F5, FqContext(7)], ids=["F2", "F3", "F4", "F5", "F7"]
)
def test_power_step_matches_dense_oracle_across_char_p_cancellation(ctx):
    R = tring(ctx, "X", "Y")
    x, y = R.var(0), R.var(1)
    p = ctx.p
    exponents = sorted({2, 3, p, p + 1, p + 2, 2 * p, 2 * p + 1, p * p, 7})

    def eqs(ds):
        return [x**d * f for d in ds for f in (R.one(), y)]

    _assert_matches_dense_oracle(eqs(exponents), R, range(1, 17))
    # the dense oracle takes seconds to build X^25 and X^49 at level 32 (7 s
    # for X^49), so powers above 15 stop at level 16
    _assert_matches_dense_oracle(eqs(d for d in exponents if d < 16), R, [32])


def test_first_factor_matches_dense_oracle_with_a_shift_and_a_constant():
    # X's power vector is the first factor, Y^2 multiplies in after it, the
    # t shifts its coefficients up one slot and -1 has no unknown at all
    R = tring(F3, "X", "Y")
    x, y, t = R.var(0), R.var(1), R.var(2)
    _assert_matches_dense_oracle([t * x * y**2 + x**2 - R.one()], R, range(1, 17))


def test_equations_sharing_a_power_vector_match_dense_oracle():
    # both equations read the cached X^2 vector, the first as a first factor
    # on its own, the second multiplied by Y: neither may change it
    R = tring(F5, "X", "Y")
    x, y, t = R.var(0), R.var(1), R.var(2)
    _assert_matches_dense_oracle([x**2 - t, x**2 * y - t * y**3], R, range(1, 17))


# -- differential tests against the MultiPoly digit search ---------------------
#
# weil_oracle.iter_solutions is the search as it stood over the MultiPoly
# systems of the dense restriction, each converted to (var, exp) monomials
# on entry.  On the restriction's own term maps the search must yield the
# same solutions in the same order and run out of a budget at the same node.

SEARCH_BUDGETS = (40, 1_000)


def _walk(search, system, ring, budget):
    """The solutions a budgeted walk yields, and whether it ran out."""
    found = []
    try:
        found.extend(search(system, ring, budget))
    except SearchBudgetExceeded:
        return found, True
    return found, False


def _assert_search_matches_oracle(eqs, ring, levels):
    """Compare the walks at each level and budget; returns how many ran out
    of their budget and how many did not."""
    outcomes = Counter()
    for n in levels:
        new = weil_restrict(eqs, ring, n)
        old = weil_oracle.weil_restrict(eqs, ring, n)
        for budget in SEARCH_BUDGETS:
            got = _walk(iter_solutions, new.restricted, new.ring, budget)
            expected = _walk(weil_oracle.iter_solutions, old.restricted, old.ring, budget)
            assert got == expected, f"N={n}, budget {budget}: {eqs}"
            outcomes[got[1]] += 1
    return outcomes


def test_search_matches_multipoly_oracle_on_the_fuzz_systems():
    outcomes = Counter()
    for seed, ctx in ((777001, F3), (424242, F2)):
        rng = random.Random(seed)
        for _ in range(45):
            sentence = eliminate_valuation_atoms(parse(random_sentence(rng)))
            for system in to_systems(sentence, ctx):
                eqs = [f for f in system.equations if f]
                outcomes += _assert_search_matches_oracle(eqs, system.ring, range(1, 17))
    # both budgets matter: some walks finish, others are cut short
    assert outcomes[False] > 1_000 and outcomes[True] > 1_000, outcomes


@pytest.mark.parametrize("ctx, a, max_precision", CONES)
def test_search_matches_multipoly_oracle_on_the_cones(ctx, a, max_precision):
    R, eqs = _cone(ctx, a)
    levels = hensel_oracle.PrecisionSchedule(max_precision).levels()
    outcomes = _assert_search_matches_oracle(eqs, R, levels)
    assert outcomes[True], outcomes


def test_search_matches_multipoly_oracle_on_a_deep_curve():
    R = tring(F5, "X", "Y")
    x, y, t = R.var(0), R.var(1), R.var(2)
    _assert_search_matches_oracle([y**3 - t * x**7], R, (8, 16))


def _flat(mono):
    """A sorted variable-index tuple as the oracle's (var, exp, ...) tuple."""
    return tuple(x for i in sorted(set(mono)) for x in (i, mono.count(i)))


def _assert_assign_matches_oracle(poly, i, pw):
    got = _assign(poly, i, pw)
    expected = weil_oracle._assign({_flat(mono): c for mono, c in poly.items()}, i, pw)
    assert [(_flat(mono), c) for mono, c in got.items()] == list(expected.items()), poly
    return got


def test_assign_matches_the_oracle_on_collisions_and_cancellations():
    ctx = F5
    one, two = ctx.one(), ctx.from_int(2)
    pw = [two**k for k in range(4)]  # variable 0 set to 2
    # X0*X1 reduces to 2*X1 and merges into the untouched X1 after it
    assert _assert_assign_matches_oracle({(0, 1): one, (2,): one, (1,): one}, 0, pw) == {
        (1,): ctx.from_int(3), (2,): one}
    # the sum cancels and deletes X1; X0^2*X1 reduces to 4*X1 and lands at
    # the end; X0 - 2 cancels to nothing as well
    got = _assert_assign_matches_oracle(
        {(0, 1): one, (2,): one, (1,): -two, (0, 0, 1): one, (0,): one, (): -two}, 0, pw
    )
    assert list(got.items()) == [((2,), one), ((1,), ctx.from_int(4))]
    # a zero value drops every monomial it touches
    zero = [ctx.one()] + [ctx.zero()] * 3
    assert _assert_assign_matches_oracle({(0, 1): one, (1,): one, (0,): one}, 0, zero) == {
        (1,): one}

    # seeded maps over few variables, so that reduced monomials often meet
    rng = random.Random(360)
    checked = Counter()
    for ctx in (F2, F3, F4, F5):
        elems = list(ctx.elements())
        for _ in range(400):
            i = rng.randrange(3)
            poly = {}
            for _ in range(rng.randrange(1, 9)):
                k = rng.randrange(4)
                rest = sorted(rng.randrange(i + 1, i + 4) for _ in range(rng.randrange(3)))
                poly[(i,) * k + tuple(rest)] = rng.choice(elems[1:])
            v = rng.choice(elems)
            got = _assert_assign_matches_oracle(poly, i, [v**k for k in range(4)])
            touched = [mono[mono.count(i):] for mono in poly if mono[:1] == (i,)]
            kept = [mono for mono in poly if mono[:1] != (i,)]
            checked["merged"] += any(mono in kept for mono in touched)
            checked["cancelled"] += any(mono not in got for mono in kept)
    assert checked["merged"] > 400 and checked["cancelled"] > 100, checked


def test_the_digit_layer_neither_imports_nor_builds_multipoly():
    # a digit system stays the restriction's term maps through the search
    source = (Path(laurentdecide.__file__).resolve().parent / "truncation.py").read_text(
        encoding="utf-8"
    )
    multipoly = frozenset({"MultiPoly"})
    assert _banned_names(source, multipoly) == []
    assert _banned_names("from .poly import MultiPoly, PolyRing", multipoly) == ["MultiPoly"]
    assert _banned_names("g = poly.MultiPoly(digits, terms)", multipoly) == ["MultiPoly"]


# -- one certificate per residue class ------------------------------------------
#
# A level-N candidate's certificate is a function of its digits below
# h = ceil(N/2), its class, and iter_solutions yields each class as one run,
# so decide_positive certifies the first candidate of a class and reuses its
# answer.  truncation_oracle holds the loop that certified every candidate:
# the two must agree on every verdict and every trace line.


def _first_solutions(ring, eqs, level, count=256):
    """The restriction of the system at the level, and the first count
    solutions of its digit search."""
    restriction = weil_restrict(eqs, ring, level)
    search = iter_solutions(restriction.restricted, restriction.ring)
    return restriction, list(itertools.islice(search, count))


def _class_systems():
    """The criterion-1 sweep, the saturation system among them, and the cones."""
    return criterion_1_sweep() + [_cone(ctx, a) for ctx, a, _ in CONES]


def test_each_candidate_certifies_as_the_first_of_its_class():
    outcomes = Counter()
    for ring, eqs in _class_systems():
        table = minor_table(ring, eqs)
        m = len(ring.xslots)
        for level in range(1, 9):
            restriction, solutions = _first_solutions(ring, eqs, level)
            first = {}
            for assignment in solutions:
                cert = certify_liftable(table, list(restriction.point(assignment)), precision=level)
                key = assignment[: m * ((level + 1) // 2)]
                if key in first:
                    assert cert == first[key], (eqs, level, assignment)
                    outcomes[cert is not None] += 1
                else:
                    first[key] = cert
    # classes of more than one candidate, both certified and rejected ones
    assert outcomes[True] > 10_000 and outcomes[False] > 10_000, outcomes


def test_iter_solutions_yields_each_class_as_one_run():
    # strictly increasing in lexicographic order of element index, digit
    # major: candidates sharing their low digits are consecutive
    for ring, eqs in _class_systems():
        index = {c: i for i, c in enumerate(ring.field.elements())}
        for level in range(1, 9):
            _, solutions = _first_solutions(ring, eqs, level)
            keys = [tuple(index[c] for c in assignment) for assignment in solutions]
            assert keys == sorted(set(keys)), (eqs, level)


def _oracle(system, config, trace):
    """The per-candidate oracle's decision of the system: its table and
    ring, and the inequation as the acceptance predicate; a witness that
    misses it is perturbed by the oracle's _sat_with_inequation."""
    g = system.inequation
    accept = None if g is None else (lambda witness: val_exact(valuation_at(g, witness)))
    pos = truncation_oracle.decide_positive(system.minors, system.ring, config, trace, accept)
    if pos.is_sat and g is not None and not accept(pos.witness):
        return truncation_oracle._sat_with_inequation(system, pos, config or RunConfig(), trace)
    return pos


# the oracle certifies at the last level too, where no lift fits the budget:
# decide_positive certifies nothing there and writes neither of these
UNCONFIRMABLE = re.compile(
    r"level \d+: certificate found but confirmation precision \d+ exceeds budget \d+"
)
UNCONFIRMED_SUFFIX = " with unconfirmed certificates"


def _assert_same_decision(system, config, trace=None):
    """decide_positive gives the composed oracle's verdict and trace, less
    the oracle's lines about certificates found at the last level, and
    every SAT with an inequation carries g's exact valuation at its witness."""
    trace = [] if trace is None else trace
    oracle_trace = list(trace)
    expected = _oracle(system, config, oracle_trace)
    expected_trace = [
        line.removesuffix(UNCONFIRMED_SUFFIX)
        if line.startswith("schedule exhausted at max precision") else line
        for line in oracle_trace if not UNCONFIRMABLE.fullmatch(line)
    ]
    got = decide_positive(system, config, trace)
    for name in ("status", "reason", "refuted_at", "witness", "certificate"):
        assert getattr(got, name) == getattr(expected, name), name
    assert trace == expected_trace
    g = system.inequation
    gval = valuation_at(g, got.witness) if got.is_sat and g is not None else None
    assert gval is None or val_exact(gval)
    assert got.inequation_valuation == gval
    return got


@pytest.mark.parametrize("max_precision", [4, 8])
def test_decide_positive_matches_per_candidate_oracle_on_the_sweep(max_precision):
    config = RunConfig(max_precision=max_precision, candidate_cap=32)
    statuses = Counter()
    for ring, eqs in criterion_1_sweep():
        statuses[_assert_same_decision(AffineSystem(ring, eqs), config).status] += 1
    assert min(statuses[s] for s in ("sat", "unsat", "unknown")) >= 5, statuses


# Y^2 = t*X^3 with X != 0 over F_3 (SAT with X = t, Y = t^2, answered
# UNKNOWN): its direct truncation meets the candidate cap inside one rejected
# class at every level from 8 to 64, where no candidate after the first
# builds its series point
CAPPED_CURVE = ("capped-curve-f3", F3, "exists X, Y. Y*Y = t*X*X*X & ~(X = 0)", None)
ORACLE_SHAPES = SHAPES + [CAPPED_CURVE]


@pytest.mark.parametrize(
    "label, ctx, sentence, config", ORACLE_SHAPES, ids=[x[0] for x in ORACLE_SHAPES]
)
def test_decide_positive_matches_per_candidate_oracle_on_lift_candidates(
    monkeypatch, label, ctx, sentence, config
):
    # every decide_positive call of the decision, with the caller's trace
    verdicts = []

    def compared(system, config=None, trace=None):
        verdicts.append(_assert_same_decision(system, config, trace))
        return verdicts[-1]

    monkeypatch.setattr(resolve, "decide_positive", compared)
    decide(sentence, ctx, config)
    assert verdicts
    if label == CAPPED_CURVE[0]:
        capped = {line for v in verdicts for line in v.trace if "candidate cap" in line}
        assert capped == {f"level {n}: candidate cap 256 reached" for n in (8, 16, 32, 64)}


# -- meeting the inequation -------------------------------------------------------
#
# A confirmed witness at which g has no exact valuation is lifted and
# perturbed inside decide_positive.  No benchmark workload gets that far, so
# a seeded corpus of random f = 0 & ~(g = 0) systems does: every
# decide_positive call of each decision is compared, verdict and whole
# trace, with the per-candidate oracle followed by the perturbation step as
# it stood in module resolve.

F7 = FqContext(7)


def _random_polynomial(rng, ring, count):
    """Up to count terms, each of degree <= 2 in every unknown and in t, with
    a nonzero coefficient."""
    units = [c for c in ring.field.elements() if c]
    return ring.from_terms(
        {tuple(rng.randrange(3) for _ in range(ring.nvars)): rng.choice(units)
         for _ in range(count)}
    )


def inequation_corpus(seed=21, count=80):
    """(system, config) pairs: one random equation and one random inequation
    in 1-3 unknowns over F_2, F_3, F_5 or F_7, under a candidate cap of 4, 16
    or 64 and a max precision of 8 or 16."""
    rng = random.Random(seed)
    for _ in range(count):
        ring = tring(rng.choice((F2, F3, F5, F7)), *("X", "Y", "Z")[: rng.randrange(1, 4)])
        f = _random_polynomial(rng, ring, rng.randrange(1, 4))
        g = _random_polynomial(rng, ring, rng.randrange(1, 3))
        config = RunConfig(max_precision=rng.choice((8, 16)), candidate_cap=rng.choice((4, 16, 64)))
        yield AffineSystem(ring, [f], g), config


def test_decide_positive_matches_the_composed_oracle_on_random_inequations(monkeypatch):
    verdicts, perturbed = [], []
    real_perturb = laurentdecide.truncation.smooth_perturb

    def compared(system, config=None, trace=None):
        verdicts.append(_assert_same_decision(system, config, trace))
        return verdicts[-1]

    def counted(*args):
        perturbed.append(real_perturb(*args))
        return perturbed[-1]

    monkeypatch.setattr(resolve, "decide_positive", compared)
    monkeypatch.setattr(laurentdecide.truncation, "smooth_perturb", counted)
    start = time.perf_counter()
    for system, config in inequation_corpus():
        resolve.decide_existential(system, config)
    elapsed = time.perf_counter() - start
    # the perturbation ran, and both of its outcomes occur
    assert len(perturbed) >= 5 and None in perturbed and any(perturbed), len(perturbed)
    reasons = Counter(v.reason for v in verdicts)
    assert reasons["perturbation-budget-exhausted"] == perturbed.count(None), reasons
    assert elapsed < 3, elapsed


def test_a_closed_system_meets_its_inequation_without_perturbing():
    # no unknowns: g is a polynomial in t, of exact valuation at the empty
    # witness, so no fallback is kept and the perturbation never runs
    ring = PolyRing(F3, ("t",))
    verdict = decide_positive(AffineSystem(ring, [], ring.var(0)))
    assert verdict.is_sat and verdict.witness == () and verdict.inequation_valuation == 1
    assert verdict.trace == ["level 1: 0 restricted equations, 0 digit variables",
                             "level 1: certified witness at precision 2"]


def test_the_last_level_only_refutes(monkeypatch):
    # the golden `perturb` input: its level-8 candidate certifies, but no
    # lift to 16 fits max_precision 8, so level 8 builds no series point and
    # certifies and lifts nothing; the level-1 witness is perturbed instead
    truncation = laurentdecide.truncation
    level, calls = [None], Counter()

    def at_level(name, fn):
        def recorded(*args, **kwargs):
            calls[level[0], name] += 1
            return fn(*args, **kwargs)
        return recorded

    def restricted(equations, ring, n):
        level[0] = n
        return weil_restrict(equations, ring, n)

    def perturbed(*args):
        level[0] = "perturbation"
        return sat_with_inequation(*args)

    sat_with_inequation = truncation._sat_with_inequation
    monkeypatch.setattr(truncation, "weil_restrict", restricted)
    monkeypatch.setattr(truncation, "_sat_with_inequation", perturbed)
    monkeypatch.setattr(WeilRestriction, "point", at_level("point", WeilRestriction.point))
    for name in ("certify_liftable", "newton_lift"):
        monkeypatch.setattr(truncation, name, at_level(name, getattr(truncation, name)))
    config = RunConfig(candidate_cap=1, max_precision=8)
    verdict = decide("exists X, Y. Y = 0 & ~(X = 0)", F3, config)
    assert verdict.is_sat and verdict.inequation_valuation == 1
    assert not any("exceeds budget" in line for line in verdict.trace), verdict.trace
    # no call at level 8
    assert {n for n, _ in calls} == {1, 2, 4, "perturbation"}, calls
    assert calls[1, "point"] and calls[1, "certify_liftable"] and calls[1, "newton_lift"]


# -- dropping the rest of a rejected class ---------------------------------------
#
# A SkipRequest set between two solutions asks iter_solutions to drop the
# rest of the last one's class, at most room of them.  It may do so only on
# a free tail, where the class is every value of its other variables: the
# walk must yield the plain walk's solutions minus the dropped ones, report
# how many it dropped, and run out of a budget exactly where the plain walk
# does.


def _asking(system, ring, budget, ask):
    """A walk that sets (depth, room) = ask(solution) on its SkipRequest
    after each solution ask returns one for: (solutions, whether it ran out
    of the budget, how many it dropped)."""
    skip = SkipRequest()
    found = []
    try:
        for solution in iter_solutions(system, ring, budget, skip):
            found.append(solution)
            asked = ask(solution)
            if asked is not None:
                skip.depth, skip.room = asked
    except SearchBudgetExceeded:
        return found, True, skip.skipped
    return found, False, skip.skipped


def _kept(solutions, q, nvars, ask):
    """Indices, into the complete plain walk, of the solutions a walk asking
    ask keeps: a request at depth d drops up to room of the solutions after
    the current one in its class when the class holds all q^(nvars - d)
    values of its other variables."""
    kept, at = [], 0
    while at < len(solutions):
        kept.append(at)
        asked = ask(solutions[at])
        at += 1
        if asked is not None:
            depth, room = asked
            key = solutions[at - 1][:depth]
            members = [s[:depth] == key for s in solutions]
            if sum(members) == q ** (nvars - depth):
                at += min(room, sum(members[at:]))
    return kept


def _at_each_class(depth, room):
    """An ask for a fresh walk: a request at the first solution of each class
    of the given depth."""
    last = []

    def ask(solution):
        if last[-1:] != [solution[:depth]]:
            last.append(solution[:depth])
            return depth, room
        return None

    return ask


def _assert_requests_drop_the_free_tails(system, ring, make_ask):
    """The asking walk against the plain one, unbudgeted and under every
    budget up to one past the plain walk's node count; returns how many
    solutions the unbudgeted walk dropped."""
    plain, _ = _walk(iter_solutions, system, ring, None)
    kept = _kept(plain, ring.field.q, ring.nvars, make_ask())
    got, ran_out, skipped = _asking(system, ring, None, make_ask())
    assert not ran_out and got == [plain[i] for i in kept]
    assert skipped == len(plain) - len(kept)
    for budget in range(1, _node_count(iter_solutions, system, ring) + 2):
        prefix, cut = _walk(iter_solutions, system, ring, budget)
        got, ran_out, _ = _asking(system, ring, budget, make_ask())
        assert ran_out == cut, budget
        assert got == [plain[i] for i in kept if i < len(prefix)], budget
    return skipped


ROOMS = (0, 1, 2, 5, 26, 124, 1_000)


@pytest.mark.parametrize("ctx, a, level", [(F3, 2, 2), (F3, 2, 3), (F5, 2, 2)])
def test_a_request_drops_the_rest_of_a_free_class(ctx, a, level):
    # the cones' singular zero class: every digit at or above ceil(N/2) free
    R, eqs = _cone(ctx, a)
    restriction = weil_restrict(eqs, R, level)
    depth = 3 * ((level + 1) // 2)
    for room in ROOMS:
        skipped = _assert_requests_drop_the_free_tails(
            restriction.restricted, restriction.ring, lambda: _at_each_class(depth, room)
        )
        assert (skipped > 0) == (room > 0), room


def test_a_request_may_come_at_any_solution_of_a_class():
    # AB = 1 over F_3 in A, B, C, D: every class of (A, B) is free, no class
    # of A alone is, and requests follow each other inside a class
    D = PolyRing(F3, ("A", "B", "C", "D"))
    system = [digit_terms(D.from_terms({(1, 1, 0, 0): 1, (0, 0, 0, 0): -1}))]
    for depth, room in itertools.product((1, 2, 3, 4), (0, 1, 2, 7)):
        skipped = _assert_requests_drop_the_free_tails(
            system, D, lambda: lambda solution: (depth, room)
        )
        assert (skipped > 0) == (depth in (2, 3) and room > 0), (depth, room)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_a_request_on_a_bound_tail_drops_nothing(level):
    # XY = t over F_3: at the class root the t^1 equation still binds the
    # tail digits, so every request is cleared and nothing is dropped
    R = tring(F3, "X", "Y")
    restriction = weil_restrict([R.var(0) * R.var(1) - R.var(2)], R, level)
    depth = 2 * ((level + 1) // 2)
    plain, _ = _walk(iter_solutions, restriction.restricted, restriction.ring, None)
    assert plain
    for room in ROOMS:
        got = _asking(restriction.restricted, restriction.ring, None, _at_each_class(depth, room))
        assert got == (plain, False, 0)


def test_iter_solutions_stays_a_generator_driven_by_next():
    # the benchmark's tracer forwards next() alone to a wrapped generator
    assert inspect.isgeneratorfunction(iter_solutions)
    assert _src_calls(("send", "throw")) == []
    assert _src_calls(("send",), "x = gen.send(None)\n") == ["<source>:1 .send("]


def _src_calls(methods, source=None):
    """The .method( calls, for each named method, in every module under src/
    (or in the given source)."""
    if source is not None:
        sources = {"<source>": source}
    else:
        root = Path(laurentdecide.__file__).resolve().parent
        sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(root.rglob("*.py"))}
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in methods):
                found.append(f"{name}:{node.lineno} .{node.func.attr}(")
    return found


# The budget and cap sweep: every decide_positive call of four decisions
# whose levels meet the candidate cap inside a rejected free class, under
# every candidate cap in 1..300 and every search budget up to one past the
# node count at which the request-free walk gets through the first capped
# level.  truncation_oracle walks and certifies every candidate.  Both
# loops restrict each level and certify each point the same way in every
# run, so the sweep computes each once.
SWEEP = [
    ("cone-p3", F3, golden.CONES[1][2], RunConfig(max_precision=8)),
    ("cone-p5", F5, golden.CONES[2][2], RunConfig(max_precision=8)),
    next(x for x in golden.NORM_FORMS if x[0] == "lift-p5-k4"),
    CAPPED_CURVE,
]


def _memoized(monkeypatch, name, key):
    """Patch truncation's and truncation_oracle's binding of a function with
    one cache keyed by key(*args, **kwargs)."""
    real, cache = getattr(truncation_oracle, name), {}

    def cached(*args, **kwargs):
        k = key(*args, **kwargs)
        if k not in cache:
            cache[k] = real(*args, **kwargs)
        return cache[k]

    for module in (truncation_oracle, laurentdecide.truncation):
        monkeypatch.setattr(module, name, cached)


def _decide_positive_calls(monkeypatch, ctx, sentence, config):
    """(system, config, trace so far) of each decide_positive call of the
    decision."""
    calls, real = [], resolve.decide_positive

    def recorded(system, config=None, trace=None):
        calls.append((system, config or RunConfig(), list(trace or [])))
        return real(system, config, trace)

    with monkeypatch.context() as patch:
        patch.setattr(resolve, "decide_positive", recorded)
        decide(sentence, ctx, config)
    return calls


def _first_capped_level(verdict):
    lines = [line for line in verdict.trace if line.endswith("reached")]
    return int(lines[0].split()[1][:-1]) if lines else None


def _recording_searches(monkeypatch):
    """Patch decide_positive's search to record, per search, its leaves, the
    class depth its caller asked to drop after each leaf (or None), and its
    SkipRequest."""
    searches, real = [], laurentdecide.truncation.iter_solutions

    def search(system, ring, node_budget=None, skip=None):
        leaves, asked = [], []
        searches.append((leaves, asked, skip))
        for leaf in real(system, ring, node_budget, skip):
            leaves.append(leaf)
            yield leaf
            asked.append(skip.depth)

    monkeypatch.setattr(laurentdecide.truncation, "iter_solutions", search)
    return searches


def _rejected_classes_capped_inside(searches):
    """After a leaf whose class its caller rejected, a search yields no leaf
    of that class but the last, which meets the cap; returns how many such
    classes end a search that way."""
    capped = 0
    for leaves, asked, _ in searches:
        for i, depth in enumerate(asked):
            if depth is not None:
                later = [j for j in range(i + 1, len(leaves))
                         if leaves[j][:depth] == leaves[i][:depth]]
                assert later in ([], [len(leaves) - 1]), (leaves[i], later)
                capped += bool(later)
    return capped


@pytest.mark.parametrize("label, ctx, sentence, config", SWEEP, ids=[x[0] for x in SWEEP])
def test_decide_positive_matches_per_candidate_oracle_under_every_budget_and_cap(
    monkeypatch, label, ctx, sentence, config
):
    calls = _decide_positive_calls(monkeypatch, ctx, sentence, config)
    _memoized(monkeypatch, "weil_restrict", lambda eqs, ring, level: (id(eqs), level))
    _memoized(monkeypatch, "certify_liftable",
              lambda table, point, precision=None, exclude_col=None: (
                  id(table), tuple((tuple(x.coeffs), x.precision) for x in point),
                  precision, exclude_col))
    levels = [
        _first_capped_level(_oracle(system, c, list(tr))) for system, c, tr in calls
    ]
    (system, base, trace), level = next(
        (call, n) for call, n in zip(calls, levels) if n is not None
    )

    def gets_through(budget):
        v = _oracle(system, dataclasses.replace(base, search_budget=budget), list(trace))
        return f"level {level}: candidate cap {base.candidate_cap} reached" in v.trace

    lo, hi = 0, 1  # the least budget that gets through: in (lo, hi]
    while not gets_through(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if gets_through(mid) else (mid, hi)
    searches = _recording_searches(monkeypatch)
    reasons, capped, dropped = Counter(), 0, 0
    for system, base, trace in calls:
        configs = [dataclasses.replace(base, candidate_cap=c) for c in range(1, 301)]
        configs += [dataclasses.replace(base, search_budget=b) for b in range(1, hi + 2)]
        for config in configs:
            reasons[_assert_same_decision(system, config, list(trace)).reason] += 1
            capped += _rejected_classes_capped_inside(searches)
            dropped += sum(skip.skipped for _, _, skip in searches)
            searches.clear()
    # budgets below the node count run out at some level, and rejected
    # classes are left both ways: the cap met inside, the rest dropped
    assert reasons["search-budget-exhausted"] >= hi - 1, reasons
    assert capped > 0 and dropped > 0


# -- soundness guards -------------------------------------------------------------


GUARDS = """
import sys
from laurentdecide.ff import FqContext
from laurentdecide.ideal import squarefree_part
from laurentdecide.poly import PolyRing, RationalFunctionField, to_rational_coeffs
from laurentdecide.resolve import AffineSystem, blow_up_origin, decide_existential, descend, regularity_check
from laurentdecide.truncation import weil_restrict
from laurentdecide.verdict import SAT, UNSAT, Verdict

if not sys.flags.optimize:
    sys.exit("the guards must be exercised under python -O")
F3 = FqContext(3)
R = PolyRing(F3, ("X", "Y", "t"))
X, Y = R.var(0), R.var(1)
Q = PolyRing(RationalFunctionField(F3), ("X",))
Q3 = PolyRing(RationalFunctionField(F3), ("X", "Y", "Z"))
cases = [
    (TypeError, lambda: weil_restrict([], PolyRing(RationalFunctionField(F3), ("X",)), 2)),
    (ValueError, lambda: weil_restrict([], PolyRing(F3, ("X",)), 2)),
    (ValueError, lambda: weil_restrict([], PolyRing(F3, ("X", "X", "t")), 2)),
    (ValueError, lambda: Verdict("maybe")),
    (ValueError, lambda: Verdict(SAT)),
    (ValueError, lambda: Verdict(UNSAT)),
    (TypeError, lambda: to_rational_coeffs(Q.var(0))),
    (TypeError, lambda: AffineSystem(Q, [])),
    (ValueError, lambda: AffineSystem(PolyRing(F3, ("t", "X")), [])),
    # the locus is the line X = 0 plus the point (1, 0): X misses the point
    # but cuts out the whole line
    (RuntimeError, lambda: descend(AffineSystem(R, [X * (X - R.one()), X * Y]), X)),
    # the unit ideal has no dimension to test regularity at
    (ValueError, lambda: regularity_check(AffineSystem(R, [R.one()]))),
    (ValueError, lambda: blow_up_origin(Q3.var(0) * Q3.var(1) - Q3.var(2) ** 2)),
    # squarefree parts are taken over the perfect field F_q, t a variable
    (TypeError, lambda: squarefree_part(Q.var(0) ** 2)),
]
for kind, case in cases:
    try:
        case()
    except kind as err:
        print(f"{kind.__name__}: {err}")
    else:
        print("no exception")
"""


def test_soundness_guards_survive_python_O():
    src = str(Path(laurentdecide.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", GUARDS], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "TypeError: weil restriction runs over F_q[t] systems",
        "ValueError: system ring must carry the t slot",
        "ValueError: digit name collision",
        "ValueError: unknown verdict status 'maybe'",
        "ValueError: SAT verdicts always carry a certificate",
        "ValueError: UNSAT verdicts always carry evidence",
        "TypeError: to_rational_coeffs takes a polynomial over F_q",
        "TypeError: affine systems live over F_q[t]",
        "ValueError: t is the last ring variable",
        "RuntimeError: descent must drop the dimension",
        "ValueError: emptiness is decided before the regularity check",
        "ValueError: blow-ups are implemented for plane curves",
        "TypeError: squarefree_part takes a polynomial over F_q",
    ]
