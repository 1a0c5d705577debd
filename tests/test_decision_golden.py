"""Differential test of the decision loop against committed verdict trees.

tests/data/decision_golden.json was written by tests/make_decision_golden.py
before the loop was rewritten so that a system owns its F_q(t) view, basis
and dimension, with one descent, one certification and one inequation
valuation routine; the lift-candidates norm forms and cones were added
before series-point evaluation moved to one power table per point.  It was
regenerated once, when the loop came to ask the truncation decider before
the regularity check: traces lost their regularity lines where truncation
decides, and only `centre-node` changed otherwise, its SAT now coming
straight from truncation.  `centre-point`, SAT only at the blow-up centre,
and `chart-witness`, SAT through a chart witness mapped back, were added
then so that the centre's descent and the map-back still run.  It was
regenerated again when the last truncation level stopped certifying: only
`perturb` changed, in trace only, losing its level-8 "certificate found but
confirmation precision 16 exceeds budget 8" line.  It was regenerated
when the singular-locus descent came to run only where it can answer SAT:
`cone` and `cone-p2` to `cone-p7` changed in trace only, their descent,
refuted because Z vanishes on the singular locus, giving way to one line
saying so.  `cone-locus`, whose descent answers SAT at the origin, was
added then so that the descent still runs.  It was regenerated when the
front end came to settle O(s) for a polynomial s as true, with no fresh
unknown: the 32 records with such an atom (c8-7 and 31 fuzz sentences)
kept every status, reason, refutation level and inequation valuation,
branches included; their witnesses, certificates, attached systems and
traces lost the fresh unknown, in some records in branches or traces
only.  Every record must stay identical: verdicts, refutation levels,
certificates, witnesses, radical cofactors, attached systems and trace
text.  On failure the test names the records that differ and those among
them that differ outside their traces.
"""

import json
from collections import Counter

import make_decision_golden as golden

from laurentdecide import hensel, resolve, truncation


def _count_calls(monkeypatch, calls, module, name, key=None):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[key(*args, **kwargs) if key else name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _without_trace(record):
    """The record with every "trace" entry removed, nested branches included."""
    if isinstance(record, dict):
        return {k: _without_trace(v) for k, v in record.items() if k != "trace"}
    if isinstance(record, list):
        return [_without_trace(v) for v in record]
    return record


def test_decision_loop_matches_golden(monkeypatch):
    calls = Counter()
    for name in ("descend", "_decide_singular_curve", "valuation_at"):
        _count_calls(monkeypatch, calls, resolve, name)
    _count_calls(monkeypatch, calls, truncation, "_sat_with_inequation")
    _count_calls(
        monkeypatch,
        calls,
        hensel,
        "certify_liftable",
        key=lambda *a, exclude_col=None, **k: (
            "certify_perturbed" if exclude_col is not None else "certify_liftable"
        ),
    )
    expected = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    actual = golden.golden_records()

    assert actual["resolution"] == expected["resolution"]
    assert actual["verdicts"].keys() == expected["verdicts"].keys()
    differing = [label for label, record in expected["verdicts"].items()
                 if actual["verdicts"][label] != record]
    beyond_trace = [label for label in differing
                    if _without_trace(actual["verdicts"][label])
                    != _without_trace(expected["verdicts"][label])]
    assert not differing, (
        f"{len(differing)} records differ: {differing}; outside trace: {beyond_trace}"
    )

    # every rewritten path ran: the blow-up centre through descend, the
    # perturbation certified through certify_liftable, the inequation
    # helper, and the singular-locus descent read off the regularity report,
    # skipped where the inequation vanishes on the locus
    assert calls["descend"] >= 2
    assert calls["_decide_singular_curve"] >= 2
    assert calls["_sat_with_inequation"] >= 1
    assert calls["certify_perturbed"] >= 1
    assert calls["valuation_at"] >= 1
    cone = actual["verdicts"]["cone"]["verdict"]
    assert "inequation vanishes on the singular locus: no descent" in cone["trace"]
    cone_locus = actual["verdicts"]["cone-locus"]["verdict"]
    assert cone_locus["status"] == "sat"
    assert "descending to the singular locus" in cone_locus["trace"]


def test_without_trace_drops_traces_at_every_depth():
    record = {"verdict": {"status": "sat", "trace": ["a"],
                          "branches": [{"status": "sat", "trace": ["b"], "branches": []}]}}
    assert _without_trace(record) == {
        "verdict": {"status": "sat", "branches": [{"status": "sat", "branches": []}]}
    }
