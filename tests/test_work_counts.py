"""Work, counted per call site, against the upper bounds committed in
data/work_counts.json.  The counts are deterministic, so a change that adds
work shows here without timing noise; a change that removes work should
lower the bounds to its new counts.

A call site is the module whose binding of the counted function was called.
For `buchberger`: `resolve` (system bases and the regularity check),
`hensel` (certificate saturation and dimensions) and `ideal` (radical
membership).  For `certify_liftable`: `truncation` (candidates of the digit
search and their Newton lifts), `hensel` (perturbed points) and `resolve`
(witnesses lifted for an inequation and mapped back from blow-up charts).
For `_tracked_reduce`: `ideal`, the fraction-free reductions, one per
S-polynomial Buchberger's pair criteria leave, one per generator of a basis
interreduced and one per normal form.

`RationalFunction` constructions (`__init__` and `from_unipoly`) are counted
per corpus, wherever they happen.  The Groebner routines work over
F_q[X, t] from entry to exit; only radical_membership builds F_q(t) values,
when it converts the certificate it returns (each cofactor coefficient over
the one denominator of its representation) and verifies it.  So a corpus
without a radical certificate builds none, and F_q(t) arithmetic coming
back into the Groebner layer shows here.

`MinorTable` constructions are counted per corpus: a system builds its
table once, on first use, and every certification, lift and perturbation
on it shares that table.  `MinorTable.gap_minors`, the scan of the minor
valuations at a point, is counted per corpus too.  A table keeps only the
minors whose determinant is a nonzero polynomial, and certify_liftable
returns before the scan when none is left, so a system whose minors all
vanish identically (the F_2 cone) scans none.

`WeilRestriction.point`, which assembles a digit assignment into series, is
counted per corpus: the digit search builds one for the first candidate of
each residue class, to certify the class, and one for each candidate of a
certified class, to lift it; a candidate of a rejected class builds none,
and neither does any candidate of the last level, which certifies nothing.

The digit search's leaves, the solutions `iter_solutions` yields, are
counted per corpus: once a class's first candidate is rejected, the search
drops the rest of the class when its other digits are free, so only the
candidates it still yields count.

Two functions that call themselves are counted per corpus at the top level
only, through every binding the package has, leaving out the calls they
make on themselves: `squarefree_part`, which normalization skips when a
partial of the equation is a nonzero polynomial in t alone, and
`gcd_multivariate` on two polynomials in t alone, which should be none:
contents over F_q[t] are taken with `uni_gcd`.
"""

import json
from collections import Counter
from pathlib import Path

import pytest
from make_decision_golden import NORM_FORMS, fuzz_corpus
from test_acceptance import CORPUS as CRITERION_8

from laurentdecide import cli, frontend, hensel, ideal, resolve, truncation
from laurentdecide.ff import FqContext
from laurentdecide.frontend import decide
from laurentdecide.poly import RationalFunction
from laurentdecide.resolve import RunConfig

BOUNDS = json.loads((Path(__file__).parent / "data" / "work_counts.json").read_text())
SITES = {
    "buchberger": {"resolve": resolve, "hensel": hensel, "ideal": ideal},
    "certify_liftable": {"truncation": truncation, "hensel": hensel, "resolve": resolve},
    "_tracked_reduce": {"ideal": ideal},
}
# (count, function, the calls it counts), each at the top level only
TOP_LEVEL = [
    ("squarefree_part", "squarefree_part", lambda f: True),
    ("t_only_gcd", "gcd_multivariate", lambda f, g: f.x_degree() <= 0 and g.x_degree() <= 0),
]

F2, F3, F5, F7 = FqContext(2), FqContext(3), FqContext(5), FqContext(7)
# norm forms X^2 - a*Y^2 = c*t^k with k odd, a the least non-square, c = 1:
# every one is refuted by the digit search
NORM_SHAPES = [(3, 2, 1), (3, 2, 3), (3, 2, 5), (3, 2, 7), (5, 2, 1), (5, 2, 3),
               (7, 3, 1), (7, 3, 3)]
# the singular cones X^2 - a*Y^2 = t*Z^2 & Z != 0 (X^2 + Y^2 over F_2), each
# at the precision cap it is benchmarked with, and one-equation systems whose
# inequation does (the first four) and does not vanish on the locus; the last
# two have two equations, where the Groebner route stays
CONES = [(F2, "X*X + Y*Y", 32), (F3, "X*X - 2*Y*Y", 16), (F5, "X*X - 2*Y*Y", 8),
         (F7, "X*X - 3*Y*Y", 8)]
INEQUATIONS = [
    (F3, "exists X. t*X = 0 & ~(X = 0)"),
    (F3, "exists X, Y. X*Y = 0 & ~(X*Y*Y = 0)"),
    (F5, "exists X, Y. t*X*X - t*Y = 0 & ~(X*X*X - X*Y = 0)"),
    (F3, "exists X. X*X = 1 & ~(X*X - 1 = 0)"),
    (F3, "exists X. X*X*X = t & ~(X = 1)"),
    (F3, "exists X, Y. X*Y = t & ~(X = 0)"),
    (F5, "exists X, Y. Y*Y = X*X*X & ~(X = 0)"),
    (F3, "exists X, Y. X = Y & Y = t & ~(X = t)"),
    (F3, "exists X, Y. X = Y & Y*Y = t + 1 & ~(X = 1)"),
]
CORPORA = {
    "criterion-8": [(ctx, text, None) for _, ctx, text, _ in CRITERION_8],
    # the sentences of test_fuzz_sentences_f3 and _f2
    "fuzz": [(ctx, text, config) for label, ctx, text, config in fuzz_corpus()
             if not label.startswith("fuzz-31415")],
    "norm-refute": [(FqContext(p), f"exists X, Y. X*X - {a}*Y*Y = 1*t^{k}", None)
                    for p, a, k in NORM_SHAPES],
    # the even-power norm forms of the lift-candidates benchmark: every one
    # is SAT, through a certified candidate and its Newton lift
    "lift": [(ctx, text, config) for _, ctx, text, config in NORM_FORMS],
    "inequations": [(ctx, f"exists X, Y, Z. {form} = t*Z*Z & ~(Z = 0)",
                     RunConfig(max_precision=cap)) for ctx, form, cap in CONES]
                   + [(ctx, text, None) for ctx, text in INEQUATIONS],
}


def _top_level(counts, key, real, counted):
    """real, adding to counts[key] each call that counted accepts and that no
    call of this wrapper encloses."""
    depth = 0

    def wrapper(*args):
        nonlocal depth
        if not depth and counted(*args):
            counts[key] += 1
        depth += 1
        try:
            return real(*args)
        finally:
            depth -= 1

    return wrapper


@pytest.fixture(scope="module", params=sorted(CORPORA))
def work(request):
    """(corpus, {function: {site: calls}}) for one pass over the corpus."""
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name, sites in SITES.items():
            for site, module in sites.items():

                def counting(*args, _key=(name, site), _real=getattr(module, name), **kwargs):
                    counts[_key] += 1
                    return _real(*args, **kwargs)

                patch.setattr(module, name, counting)
        for key, name, counted in TOP_LEVEL:
            wrapper = _top_level(counts, key, getattr(ideal, name), counted)
            for module in (cli, frontend, hensel, ideal, resolve, truncation):
                if hasattr(module, name):
                    patch.setattr(module, name, wrapper)
        real_init, real_from_unipoly = RationalFunction.__init__, RationalFunction.from_unipoly

        def init(self, num, den):
            counts["RationalFunction"] += 1
            real_init(self, num, den)

        def from_unipoly(cls, f):
            counts["RationalFunction"] += 1
            return real_from_unipoly(f)

        patch.setattr(RationalFunction, "__init__", init)
        patch.setattr(RationalFunction, "from_unipoly", classmethod(from_unipoly))
        real_table_init, real_gap_minors = hensel.MinorTable.__init__, hensel.MinorTable.gap_minors

        def table_init(*args, **kwargs):
            counts["MinorTable"] += 1
            real_table_init(*args, **kwargs)

        def gap_minors(*args, **kwargs):
            counts["gap_minors"] += 1
            return real_gap_minors(*args, **kwargs)

        patch.setattr(hensel.MinorTable, "__init__", table_init)
        patch.setattr(hensel.MinorTable, "gap_minors", gap_minors)
        real_point = truncation.WeilRestriction.point

        def point(*args, **kwargs):
            counts["point"] += 1
            return real_point(*args, **kwargs)

        patch.setattr(truncation.WeilRestriction, "point", point)
        real_search = truncation.iter_solutions

        def search(*args, **kwargs):
            for leaf in real_search(*args, **kwargs):
                counts["search_leaves"] += 1
                yield leaf

        patch.setattr(truncation, "iter_solutions", search)
        for ctx, text, config in CORPORA[request.param]:
            decide(text, ctx, config)
    counted = {name: {site: counts[name, site] for site in sites} for name, sites in SITES.items()}
    top_level = {key: counts[key] for key, _, _ in TOP_LEVEL}
    per_corpus = {key: counts[key]
                  for key in ("RationalFunction", "MinorTable", "gap_minors", "point",
                              "search_leaves")}
    return request.param, {**counted, **top_level, **per_corpus}


def _over_bounds(work, name):
    corpus, counts = work
    bounds = BOUNDS[f"{name}_calls"][corpus]
    assert set(bounds) == set(SITES[name])
    over = {site: (n, bounds[site]) for site, n in counts[name].items() if n > bounds[site]}
    assert not over, f"{corpus}: (count, bound) over the bound: {over}"


def test_buchberger_calls_stay_within_their_bounds(work):
    _over_bounds(work, "buchberger")


def test_certify_liftable_calls_stay_within_their_bounds(work):
    _over_bounds(work, "certify_liftable")


def test_buchberger_reductions_stay_within_their_bounds(work):
    _over_bounds(work, "_tracked_reduce")


def test_rational_function_constructions_stay_within_their_bounds(work):
    corpus, counts = work
    bound = BOUNDS["rational_function_constructions"][corpus]
    assert counts["RationalFunction"] <= bound, f"{corpus}: {counts['RationalFunction']} > {bound}"


def test_minor_table_constructions_stay_within_their_bounds(work):
    corpus, counts = work
    bound = BOUNDS["minor_table_constructions"][corpus]
    assert counts["MinorTable"] <= bound, f"{corpus}: {counts['MinorTable']} > {bound}"


def test_gap_minors_calls_stay_within_their_bounds(work):
    corpus, counts = work
    bound = BOUNDS["gap_minors_calls"][corpus]
    assert counts["gap_minors"] <= bound, f"{corpus}: {counts['gap_minors']} > {bound}"


def test_series_point_constructions_stay_within_their_bounds(work):
    corpus, counts = work
    bound = BOUNDS["point_calls"][corpus]
    assert counts["point"] <= bound, f"{corpus}: {counts['point']} > {bound}"


def test_search_leaves_stay_within_their_bounds(work):
    corpus, counts = work
    bound = BOUNDS["search_leaves"][corpus]
    assert counts["search_leaves"] <= bound, f"{corpus}: {counts['search_leaves']} > {bound}"


@pytest.mark.parametrize("key", [key for key, _, _ in TOP_LEVEL])
def test_top_level_calls_stay_within_their_bounds(work, key):
    corpus, counts = work
    bound = BOUNDS[f"{key}_calls"][corpus]
    assert counts[key] <= bound, f"{corpus}: {counts[key]} > {bound}"
