"""Differential test of the skipped singular-locus descent.

`resolve._decide_normalized` keeps the descent to the singular locus only
when it answers SAT, and skips it when the inequation vanishes on the
locus, asked once of the regularity basis without a certificate.  Over a
seeded sweep of planted cones (X-a)^2 - n*(Y-b)^2 = t^k*(Z-c)^2, n a
non-square (1 over F_2), each with an inequation, the descent the engine
ran before the skip, `decide_existential` on the singular locus at depth 1,
is run directly for every singular report: wherever the engine skips it,
it must end UNSAT, so no verdict can change.  The cone's only point over
F_q((t)) is its centre (a, b, c) when p is odd (the form is anisotropic),
and the inequations are picked so that both the skip and the descent occur.
"""

import random

from laurentdecide import resolve
from laurentdecide.ff import FqContext
from laurentdecide.frontend import eliminate_valuation_atoms, parse, to_systems
from laurentdecide.ideal import radical_membership
from laurentdecide.resolve import AffineSystem, RunConfig, decide_existential

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
                    or not report.locus_dimension < report.dimension):
                continue
            # the ideal decides: the raw generators give the basis's answer
            skip = radical_membership(g, report.locus_basis.generators)
            assert skip == radical_membership(g, report.singular_locus), text
            if skip:
                locus = AffineSystem(checked.ring, report.singular_locus, g)
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
