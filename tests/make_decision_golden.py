"""Golden verdict trees for the decision loop.

    PYTHONPATH=src python tests/make_decision_golden.py

writes tests/data/decision_golden.json: for every input of the corpus below,
the full verdict tree (status, refutation level, reason, inequation
valuation, certificate, witness coordinates, radical cofactors and lifted
generators, the attached system and the trace), and for the criterion-7
curves the blow-up charts and the regularity reports of their strict
transforms.  tests/test_decision_golden.py recomputes the same records and
compares them with the file; it never rewrites it.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from laurentdecide.ff import FqContext
from laurentdecide.frontend import decide
from laurentdecide.poly import PolyRing, RationalFunctionField
from laurentdecide.resolve import AffineSystem, RunConfig, blow_up_origin, regularity_check

sys.path.insert(0, str(Path(__file__).resolve().parent))

from frontend_oracle import clear_denominators  # noqa: E402
from test_acceptance import CORPUS as CRITERION_8  # noqa: E402
from test_fuzz import CONSTS, random_sentence  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "data" / "decision_golden.json"

F3 = FqContext(3)
F5 = FqContext(5)
F7 = FqContext(7)
FUZZ_CONFIG = RunConfig(max_precision=16, candidate_cap=64)

# sentences that reach the singular locus (where the inequation vanishes:
# cone; where the descent answers SAT at the origin: cone-locus), the
# blow-up centre (SAT only there: centre-point), a chart witness mapped back
# and valued at the inequation (chart-witness) and the perturbation of a
# certified witness
EXTRA = [
    ("cone", F3, "exists X, Y, Z. X*X - 2*Y*Y = t*Z*Z & ~(Z = 0)", RunConfig(max_precision=8)),
    ("cone-locus", F3, "exists X, Y, Z. X*X - 2*Y*Y = t*Z*Z & ~(X = 1)",
     RunConfig(max_precision=16)),
    ("centre-node", F3, "exists X, Y. X*Y = 0 & ~(X = 1)", None),
    ("centre-circle", F3, "exists X, Y. X*X + Y*Y = 0 & ~(X = 0)", None),
    ("centre-point", F3, "exists X, Y. X*X + Y*Y = 0", None),
    ("chart-witness", F3, "exists X, Y. Y*Y + t*t*X*X = t*X*X*X & ~(X = 0)", None),
    ("perturb", F3, "exists X, Y. Y = 0 & ~(X = 0)", RunConfig(candidate_cap=1, max_precision=8)),
]


# the lift-candidates shapes, a the least non-square and c = 1: even-power
# norm forms X^2 - a*Y^2 = t^k (SAT, a certified and lifted witness) and the
# singular cones X^2 - a*Y^2 = t*Z^2 with Z != 0 (F_2 writes X^2 + Y^2) at
# their max_precision, whose candidates all fail certification
LEAST_NON_SQUARE = {3: 2, 5: 2, 7: 3}
NORM_FORMS = [
    (f"lift-p{p}-k{k}", ctx, f"exists X, Y. X*X - {LEAST_NON_SQUARE[p]}*Y*Y = 1*t^{k}", None)
    for p, ctx, ks in ((3, F3, (2, 4, 6)), (5, F5, (2, 4, 6)), (7, F7, (2, 4)))
    for k in ks
]
CONES = [
    (
        f"cone-p{p}",
        ctx,
        "exists X, Y, Z. "
        + ("X*X + Y*Y" if p == 2 else f"X*X - {LEAST_NON_SQUARE[p]}*Y*Y")
        + " = t*Z*Z & ~(Z = 0)",
        RunConfig(max_precision=max_precision),
    )
    for p, ctx, max_precision in ((2, FqContext(2), 32), (3, F3, 16), (5, F5, 8), (7, F7, 8))
]


def fuzz_corpus():
    """The sentences of tests/test_fuzz.py, drawn from the same seeds."""
    out = []
    for seed, ctx in ((777001, F3), (424242, FqContext(2))):
        rng = random.Random(seed)
        out += [(f"fuzz-{seed}-{i}", ctx, random_sentence(rng), FUZZ_CONFIG) for i in range(45)]
    rng = random.Random(31415)
    shapes = ["{v}*{v} = {c}", "{v} = {c}", "{v}*{v} + {v} = {c}", "{v}*{v}*{v} = {c}"]
    for i in range(40):
        eqs = [
            rng.choice(shapes).format(v="A", c=rng.choice(CONSTS))
            for _ in range(rng.randrange(1, 3))
        ]
        out.append((f"fuzz-31415-{i}", F3, f"exists A. {' & '.join(eqs)}", FUZZ_CONFIG))
    return out


def sentence_corpus():
    """(label, field, sentence, config) for every decided sentence."""
    items = [(label, ctx, text, None) for label, ctx, text, _ in CRITERION_8]
    return items + fuzz_corpus() + EXTRA + NORM_FORMS + CONES


def _reprs(polys):
    return [repr(f) for f in polys]


def verdict_record(v):
    cert = v.certificate
    rad = v.radical
    system = v.system
    return {
        "status": v.status,
        "refuted_at": v.refuted_at,
        "reason": v.reason,
        "inequation_valuation": v.inequation_valuation,
        "certificate": [list(cert.rows), list(cert.cols), cert.e, cert.precision] if cert else None,
        "witness": (
            [[x.precision, [list(c.coords) for c in x.coeffs]] for x in v.witness]
            if v.witness is not None
            else None
        ),
        "radical": (
            {
                "lifted_gens": _reprs(rad.lifted_gens),
                "aux": repr(rad.aux),
                "cofactors": _reprs(rad.cofactors),
            }
            if rad is not None
            else None
        ),
        "system": (
            {
                "equations": _reprs(system.equations),
                "inequation": repr(system.inequation) if system.inequation is not None else None,
            }
            if system is not None
            else None
        ),
        "trace": list(v.trace),
        "branches": [verdict_record(b) for b in v.branches or ()],
    }


def resolution_records():
    """Criterion 7: blow-up charts of the cusp and the tacnode (and of the
    tacnode's node chart), with the regularity report of every strict
    transform."""
    rr = PolyRing(RationalFunctionField(F5), ("X", "Y"))
    ring = PolyRing(F5, ("X", "Y", "t"))
    x, y = rr.var(0), rr.var(1)
    curves = [("cusp", y**2 - x**3), ("tacnode", y**2 - x**4)]
    tacnode_charts = blow_up_origin(curves[1][1])
    curves.append(("tacnode-chart-0", tacnode_charts[0].strict))
    out = {}
    for label, curve in curves:
        charts = []
        for chart in blow_up_origin(curve):
            report = regularity_check(AffineSystem(ring, clear_denominators([chart.strict])))
            charts.append({
                "index": chart.index,
                "strict": repr(chart.strict),
                "multiplicity": chart.multiplicity,
                "back_map": _reprs(chart.back_map),
                "exceptional": repr(chart.exceptional),
                "regularity": [
                    report.status,
                    report.dimension,
                    _reprs(report.singular_locus) if report.singular_locus is not None else None,
                ],
            })
        out[label] = charts
    return out


def golden_records():
    verdicts = {
        label: {"field": [ctx.p, ctx.n], "sentence": text,
                "verdict": verdict_record(decide(text, ctx, config))}
        for label, ctx, text, config in sentence_corpus()
    }
    return {"resolution": resolution_records(), "verdicts": verdicts}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_records(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
