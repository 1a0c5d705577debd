"""Differential test of the skipped singular-locus descent.

`resolve._decide_normalized` keeps the descent to the singular locus only
when it answers SAT, and skips it when the inequation vanishes on the
locus, asked of the regularity basis without a certificate.  Over a
seeded sweep of planted cones (X-a)^2 - n*(Y-b)^2 = t^k*(Z-c)^2, n a
non-square (1 over F_2), each with an inequation, the descent the engine
ran before the skip, `decide_existential` on the singular locus at depth 1,
is run directly for every singular report: wherever the engine skips it,
it must end UNSAT, so no verdict can change.  The cone's only point over
F_q((t)) is its centre (a, b, c) when p is odd (the form is anisotropic),
and the inequations are picked so that both the skip and the descent occur.

The skip asks radical membership only when g's normal form by the locus
basis is not zero: the golden cones show it by their calls.  That question
is vanishes_on_locus, asked of the report's locus system, which the descent
then decides itself (golden cone-locus shows the object passed on).  For two
or more equations vanishes_on_locus answers from the system's basis where
radical_membership asked the equations: a seeded differential test compares
the two over F_2, F_3, F_4 and F_5, and an AST guard keeps in_ideal and
radical_membership out of every other place in resolve but the certificate
of an empty locus.
"""

import ast
import json
import random
from collections import Counter
from pathlib import Path

import make_decision_golden as golden
import pytest
from ideal_oracle import frac_buchberger, frac_reduce_poly

from laurentdecide import resolve
from laurentdecide.ff import FqContext
from laurentdecide.frontend import decide, eliminate_valuation_atoms, parse, to_systems
from laurentdecide.ideal import radical_membership
from laurentdecide.poly import PolyRing, to_rational_coeffs
from laurentdecide.resolve import AffineSystem, RunConfig, decide_existential, vanishes_on_locus

NON_SQUARES = {2: (1,), 3: (2,), 5: (2, 3), 7: (3, 5, 6)}
CONFIG = RunConfig(max_precision=4, candidate_cap=32)
SKIP_LINE = "inequation vanishes on the singular locus: no descent"
DESCENT_LINE = "descending to the singular locus"


def _cones(seed=34034, per_field=20):
    rng = random.Random(seed)
    for p, non_squares in NON_SQUARES.items():
        for _ in range(per_field):
            a, b, c = (rng.randrange(p) for _ in range(3))
            n = rng.choice(non_squares)
            k = rng.choice((1, 3))
            inequation = rng.choice(
                (f"Z = {c}", "X = 1", "X*Y = 0", f"Y = {b}", "Z = 1", f"X - {a} = t")
            )
            yield FqContext(p), (
                f"exists X, Y, Z. (X - {a})^2 - {n}*(Y - {b})^2 = t^{k}*(Z - {c})^2"
                f" & ~({inequation})"
            )


def test_a_skipped_descent_would_have_ended_unsat(monkeypatch):
    reports = []
    real_check = resolve.regularity_check

    def recording(system):
        report = real_check(system)
        reports.append((system, report))
        return report

    monkeypatch.setattr(resolve, "regularity_check", recording)
    skipped = ran = 0
    for ctx, text in _cones():
        (system,) = to_systems(eliminate_valuation_atoms(parse(text)), ctx)
        trace = []
        reports.clear()
        decide_existential(system, CONFIG, trace)
        expected_skips = expected_runs = 0
        for checked, report in reports:
            g = checked.inequation
            if (report.status != "singular" or g is None
                    or not report.locus.dim < checked.dim):
                continue
            # the ideal decides: the raw generators give the basis's answer
            skip = radical_membership(g, report.locus.basis.generators)
            assert skip == radical_membership(g, report.locus.equations), text
            if skip:
                locus = AffineSystem(checked.ring, report.locus.equations, g)
                descent = decide_existential(locus, CONFIG, [], 1)
                assert descent.is_unsat, (text, descent.status, descent.reason)
                expected_skips += 1
            else:
                expected_runs += 1
        assert trace.count(SKIP_LINE) == expected_skips, text
        assert trace.count(DESCENT_LINE) == expected_runs, text
        skipped += expected_skips
        ran += expected_runs
    # both branches occur, so the sweep cannot pass vacuously
    assert skipped >= 20
    assert ran >= 20


def _golden_decision(monkeypatch, label):
    """(verdict record, the locus bases of the regularity reports, the
    generator lists radical_membership was asked about) for a golden record."""
    bases, asked = [], []
    real_check, real_member = resolve.regularity_check, resolve.radical_membership

    def recording(system):
        report = real_check(system)
        bases.append(report.locus.basis if report.status == "singular" else None)
        return report

    def member(g, generators, *args, **kwargs):
        asked.append(generators)
        return real_member(g, generators, *args, **kwargs)

    monkeypatch.setattr(resolve, "regularity_check", recording)
    monkeypatch.setattr(resolve, "radical_membership", member)
    ctx, text, config = next((c, t, cfg) for name, c, t, cfg in golden.sentence_corpus()
                             if name == label)
    record = golden.verdict_record(decide(text, ctx, config))
    expected = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))["verdicts"][label]["verdict"]
    assert record == expected, label
    return record, [b for b in bases if b is not None], asked


@pytest.mark.parametrize("label, skip_calls", [("cone-p2", 1), ("cone-p3", 0), ("cone-p5", 0),
                                               ("cone-p7", 0), ("cone", 0)])
def test_a_zero_normal_form_skips_the_rabinowitsch_test(monkeypatch, label, skip_calls):
    # over F_3, F_5 and F_7 the locus basis is [Z, Y, X] and g = Z reduces to
    # 0; over F_2 it is [Z^2, X^2 + Y^2], whose leading monomials do not
    # divide Z, so no normal form is taken and radical membership decides
    record, bases, asked = _golden_decision(monkeypatch, label)
    assert SKIP_LINE in record["trace"]
    (basis,) = bases
    assert sum(generators is basis.generators for generators in asked) == skip_calls
    assert len(asked) == skip_calls



# -- one vanishing test ---------------------------------------------------------


def _random_poly(rng, ring, terms=3):
    """A nonzero polynomial of degree at most 1 in each of X, Y and t, with
    up to terms terms."""
    nonzero = list(ring.field.elements())[1:]
    while True:
        f = ring.from_terms({(rng.randrange(2), rng.randrange(2), rng.randrange(2)):
                             rng.choice(nonzero) for _ in range(terms)})
        if f:
            return f


def _locus_cases(ctx, rng, count=12):
    """(equations, test polynomials): seeded systems of two equations over
    F_q[X, Y, t], generic or with a square (h^2, f), whose h lies in the
    radical and, as a rule, not in the ideal; the test polynomials are 0,
    a combination of the equations, h times a unit, and random ones."""
    ring = PolyRing(ctx, ("X", "Y", "t"))
    x, y = ring.var(0), ring.var(1)
    yield [x * x, y], [ring.zero(), x, x * y + x * x, y + ring.one()]
    for i in range(count):
        h = _random_poly(rng, ring, 2)
        if h.x_degree() == 0:
            h = h + x
        f = _random_poly(rng, ring)
        equations = [h * h, f] if i % 2 else [_random_poly(rng, ring), f]
        combination = _random_poly(rng, ring, 1) * equations[0] + _random_poly(rng, ring, 1) * f
        tests = [ring.zero(), combination, h * ring.const(rng.choice(list(ctx.elements())[1:])),
                 _random_poly(rng, ring), _random_poly(rng, ring) + h]
        yield equations, tests


def _kind(g, oracle_basis, member):
    """zero, ideal (by a zero remainder over F_q(t) in the oracle's basis of
    the equations), radical or outside."""
    if not g:
        return "zero"
    if not frac_reduce_poly(to_rational_coeffs(g), oracle_basis.generators):
        return "ideal"
    return "radical" if member else "outside"


@pytest.mark.parametrize("ctx", [FqContext(2), FqContext(3), FqContext(2, 2), FqContext(5)],
                         ids=["F2", "F3", "F4", "F5"])
def test_vanishing_on_the_locus_by_its_basis_matches_radical_membership(ctx):
    # the rewrite asks the system's basis (a zero normal form, then one
    # Rabinowitsch test on the basis) where it asked the equations
    rng = random.Random(3939 + ctx.q)
    kinds = Counter()
    for equations, tests in _locus_cases(ctx, rng):
        system = AffineSystem(equations[0].ring, equations)
        assert len(system.equations) == 2
        oracle_basis = frac_buchberger([to_rational_coeffs(f) for f in equations])
        for g in tests:
            member = radical_membership(g, system.equations)
            assert vanishes_on_locus(system, g) == member, (equations, g)
            kinds[_kind(g, oracle_basis, member)] += 1
    assert all(kinds[k] >= 4 for k in ("zero", "ideal", "radical", "outside")), kinds


def test_the_descent_decides_the_reports_locus_itself(monkeypatch):
    # on golden cone-locus g = X - 1 does not vanish on the locus, so the
    # descent runs, on the very system the regularity check built
    reports, decided = [], []
    real_check, real_decide = resolve.regularity_check, resolve.decide_existential

    def recording(system):
        reports.append(real_check(system))
        return reports[-1]

    def deciding(system, *args):
        decided.append(system)
        return real_decide(system, *args)

    monkeypatch.setattr(resolve, "regularity_check", recording)
    monkeypatch.setattr(resolve, "decide_existential", deciding)
    record, _, _ = _golden_decision(monkeypatch, "cone-locus")
    assert DESCENT_LINE in record["trace"]
    (report,) = reports
    assert report.status == "singular"
    assert any(system is report.locus for system in decided)


# -- where the locus question is asked ------------------------------------------


def _references(source, name):
    """(top-level function, the tests of the ifs whose body holds it, as
    source) for each reference to name, bare or as a module attribute,
    outside the imports."""
    found = []

    def visit(node, function, tests):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, (ast.Name, ast.Attribute)) and name in (
                getattr(node, "id", None), getattr(node, "attr", None)):
            found.append((function, tests))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and function is None:
            function = node.name
        for field, value in ast.iter_fields(node):
            inner = tests + (ast.unparse(node.test),) if (
                isinstance(node, ast.If) and field == "body") else tests
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, function, inner)

    visit(ast.parse(source), None, ())
    return found


def test_the_locus_question_is_asked_in_one_place():
    source = Path(resolve.__file__).read_text(encoding="utf-8")
    assert {f for f, _ in _references(source, "in_ideal")} == {"vanishes_on_locus"}
    elsewhere = [(f, tests) for f, tests in _references(source, "radical_membership")
                 if f != "vanishes_on_locus"]
    # the certificate of an empty locus: 1 vanishes on it
    assert elsewhere == [("_decide_normalized", ("system.dim is None",))]


def test_the_reference_guard_sees_every_way_of_naming():
    source = ("from .ideal import in_ideal\n"
              "def f(g):\n    if g:\n        return ideal.in_ideal(g)\n"
              "def h(g):\n    if in_ideal:\n        pass\n    else:\n        map(in_ideal, [g])\n")
    assert _references(source, "in_ideal") == [("f", ("g",)), ("h", ()), ("h", ())]
