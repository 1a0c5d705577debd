"""One pass over a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--check]

MODE is ``plain`` (timed, no instrumentation, gauged), ``traced`` (layer
spans), ``count`` (kernel op counts) or ``setup`` (set-up only).  The pass
decides every sentence once, in order, one at a time.  A gauged pass times
the CPU-speed gauge (``gauge.py``) before the first sentence and after each
one, outside the sentences' times; set-up is gauged in every mode.
``--check`` re-checks every verdict against its reference after the timed
pass.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import gauge

ROOT = Path(__file__).resolve().parent.parent


def digest(verdict):
    """Status, levels, reasons, certificates and witness of a verdict tree."""
    cert = verdict.certificate
    return [
        verdict.status,
        verdict.refuted_at,
        verdict.reason,
        verdict.inequation_valuation,
        [list(cert.rows), list(cert.cols), cert.e, cert.precision] if cert else None,
        [[list(c.coords) for c in x.coeffs] for x in verdict.witness] if verdict.witness else None,
        verdict.radical is not None,
        [digest(b) for b in verdict.branches or ()],
    ]


def run_pass(laurentdecide, items, probe=None, meter=None):
    """Decide every item once; returns (pass seconds, per-item seconds,
    verdicts).  An exception is kept in place of the verdict.  Given an
    entered ``gauge.Gauge``, each item is timed as one of its regions, and
    the returned times leave its samples out."""
    clock = time.perf_counter
    times, verdicts = [], []
    start = clock()
    for i, item in enumerate(items):
        if probe is not None:
            probe.sentence = i
        with meter.region() if meter else nullcontext():
            t0 = clock()
            try:
                verdict = laurentdecide.decide(item.text, item.ctx, item.config)
            except Exception as err:  # noqa: BLE001 - a raise is a counted failure
                verdict = err
            times.append(clock() - t0)
        verdicts.append(verdict)
    if meter:
        times = [r.seconds for r in meter.regions[-len(items):]]
        return sum(times), times, verdicts
    return clock() - start, times, verdicts


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "count", "setup"), required=True)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    # the harness modules import no engine code, so set-up below times the
    # engine import and the workload construction only
    import reference
    import tracer

    meter = gauge.Gauge()
    with meter:
        with meter.region() as setup:
            sys.path.insert(0, str(ROOT / "src"))
            import laurentdecide
            import corpus

            items = corpus.WORKLOADS[args.workload](args.seed)
        out = {"setup_s": setup.reference_s, "setup_wall_s": setup.seconds}
        if args.mode == "plain":
            pass_s, times, verdicts = run_pass(laurentdecide, items, meter=meter)
            out["gauges"] = [r.gauge for r in meter.regions[1:]]
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "traced":
        with tracer.Tracer() as probe:
            pass_s, times, verdicts = run_pass(laurentdecide, items, probe)
        out["layers"] = tracer.layer_metrics(probe, pass_s)
    elif args.mode == "count":
        with tracer.OpCounter() as probe:
            pass_s, times, verdicts = run_pass(laurentdecide, items, probe)
        out["counts"] = probe.metrics()
        out["buchberger_calls"] = {site: probe.counts[f"ideal.buchberger.calls.{site}"]
                                   for site in tracer.BUCHBERGER_SITES}
    out.update(
        pass_s=pass_s,
        times=times,
        digests=[digest(v) if not isinstance(v, Exception) else f"raised {v!r}"
                 for v in verdicts],
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if args.check:
        stats = Counter()
        bad, problems = [], []
        for i, (item, verdict) in enumerate(zip(items, verdicts)):
            if isinstance(verdict, Exception):
                found = [f"raised {verdict!r}"]
            else:
                found = reference.check(item, verdict, stats)
                stats["decided"] += verdict.status in ("sat", "unsat")
            if found:
                bad.append(i)
                problems += [f"{item.label}: {item.text}: {p}" for p in found]
        out["check"] = {"bad": bad, "problems": problems, **stats}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
