"""Groebner work, counted per call site, against the upper bounds committed
in data/work_counts.json.  The counts are deterministic, so a change that
adds work shows here without timing noise; a change that removes work
should lower the bounds to its new counts.

A call site is the module whose binding of `buchberger` was called:
`resolve` (system bases and the regularity check), `hensel` (certificate
saturation and dimensions) and `ideal` (radical membership).
"""

import json
from collections import Counter
from pathlib import Path

import pytest
from test_acceptance import CORPUS as CRITERION_8

from laurentdecide import hensel, ideal, resolve
from laurentdecide.ff import FqContext
from laurentdecide.frontend import decide

BOUNDS = json.loads((Path(__file__).parent / "data" / "work_counts.json").read_text())
SITES = {"resolve": resolve, "hensel": hensel, "ideal": ideal}

# norm forms X^2 - a*Y^2 = c*t^k with k odd, a the least non-square, c = 1:
# every one is refuted by the digit search
NORM_SHAPES = [(3, 2, 1), (3, 2, 3), (3, 2, 5), (3, 2, 7), (5, 2, 1), (5, 2, 3),
               (7, 3, 1), (7, 3, 3)]
CORPORA = {
    "criterion-8": [(ctx, text) for _, ctx, text, _ in CRITERION_8],
    "norm-refute": [(FqContext(p), f"exists X, Y. X*X - {a}*Y*Y = 1*t^{k}")
                    for p, a, k in NORM_SHAPES],
}


def buchberger_calls(monkeypatch, sentences):
    counts = Counter()
    for site, module in SITES.items():

        def counting(*args, _site=site, _real=module.buchberger, **kwargs):
            counts[_site] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "buchberger", counting)
    for ctx, text in sentences:
        decide(text, ctx)
    monkeypatch.undo()
    return {site: counts[site] for site in SITES}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_buchberger_calls_stay_within_their_bounds(monkeypatch, corpus):
    counts = buchberger_calls(monkeypatch, CORPORA[corpus])
    bounds = BOUNDS["buchberger_calls"][corpus]
    assert set(bounds) == set(SITES)
    over = {site: (counts[site], bounds[site]) for site in SITES if counts[site] > bounds[site]}
    assert not over, f"{corpus}: (count, bound) over the bound: {over}"
