"""Decision benchmark for laurentdecide.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Load shape: a closed loop with one client;
one worker process at a time decides one sentence at a time, in a fixed
order.  Each pass runs in a fresh interpreter (``worker.py``), so every pass
starts from the same engine state and set-up is measured once per pass.

Workloads (see ``corpus.py``):

- sentence-mix: criterion-8 sentences plus 120 sentences of the fuzz
  grammar.  Groebner calls dominate; the digit search barely runs.
- norm-refute: norm forms set equal to odd powers of t, refuted at levels
  2-8 by exhaustive digit search; Groebner calls are under 1%.
- lift-candidates: even-k norm forms (SAT) and singular cones (UNKNOWN);
  the search yields candidates and certification, Newton lifting and the
  Weil restriction do the work.

``--trace 0`` repeats untraced passes for ``--seconds`` and reports the
end-to-end metrics.  Times are in reference seconds: each sentence's wall
time is scaled by a CPU-speed gauge timed around and during it
(``gauge.py``), so that the host's drifting speed drops out, and is then
taken as its median over the passes; ``setup_s`` is gauged the same way.
The first pass is re-checked against the references and every later pass
must reproduce its verdicts.  Workers run with a fixed hash seed.  ``--trace 1`` alternates
untraced and traced passes for ``--seconds``, then makes one op-counting
pass, and reports the per-layer metrics.  The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sentence-mix", "norm-refute", "lift-candidates")
DEADLINE_S = 170        # the whole run, workers included
SETUP_SAMPLES = 15      # set-up is measured at least this often per run
MODULES = ("__init__", "cli", "ff", "frontend", "hensel", "ideal", "poly", "resolve",
           "series", "truncation", "verdict")


class WorkerFailed(Exception):
    pass


def worker(args, mode, deadline, check=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode] + (["--check"] if check else [])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("run deadline passed")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, "PYTHONHASHSEED": "0"})
    except subprocess.TimeoutExpired as err:
        raise WorkerFailed(f"{mode} pass exceeded the run deadline") from err
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures(first, passes):
    """Failed decisions over all passes: a sentence fails in a pass when the
    reference check of the first pass rejected it, or when its verdict,
    refutation level or certificate differs from the first pass."""
    bad = set(first["check"]["bad"])
    return sum(
        i in bad or digest != first["digests"][i]
        for p in passes for i, digest in enumerate(p["digests"])
    )


def gauged_times(passes):
    """Each sentence's median over the passes of its time in reference
    seconds: its wall time divided by the mean gauge sample taken around and
    during it (see ``gauge.py``).

    The host's speed drifts by a third within seconds, so neither a
    sentence's wall time nor its best over a run is steady from run to run:
    in a 39-pass trial on lift-candidates, sums over 4 consecutive passes of
    per-sentence best wall times spread 28% (quartile distance over median).
    The median over the passes drops the odd pass that a burst of other work
    hit harder than the gauge shows."""
    gauged = [[t * gauge.REFERENCE_S / g for t, g in zip(p["times"], p["gauges"])]
              for p in passes]
    return [statistics.median(ts) for ts in zip(*gauged)]


def end_to_end(args, deadline):
    start = time.monotonic()
    first = worker(args, "plain", deadline, check=True)
    passes = [first]
    while time.monotonic() - start < args.seconds:
        passes.append(worker(args, "plain", deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(args, "setup", deadline)["setup_s"])
    check = first["check"]
    n = len(first["digests"])
    failed = failures(first, passes)
    times = gauged_times(passes)
    metrics = {
        "pass_s": (sum(times), "s"),
        "decided_frac": (check.get("decided", 0) / n, "ratio"),
        "verified_frac": (1 - len(check["bad"]) / n, "ratio"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"per-sentence gauged times over {len(passes)} passes: median "
          f"{statistics.median(times):.4g} s, p90 "
          f"{statistics.quantiles(times, n=10, method='inclusive')[8]:.4g} s "
          f"({n} sentences)", file=sys.stderr)
    return check, n * len(passes), failed, metrics


def unit(name):
    """Unit of a per-layer metric, from its name."""
    parts = name.split(".")
    if parts[0] == "src_lines":
        return "lines"
    if any(p.endswith("_s") for p in parts):
        return "s"
    if any(p.endswith("_frac") for p in parts):
        return "ratio"
    return "count"


def src_lines():
    """Lines per engine module; 0 for a module that no longer exists."""
    src = ROOT / "src" / "laurentdecide"
    lines = {f"src_lines.{m}": len((src / f"{m}.py").read_text().splitlines())
             if (src / f"{m}.py").exists() else 0 for m in MODULES}
    lines["src_lines.total"] = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    return {k: (v, unit(k)) for k, v in lines.items()}


def per_layer(args, deadline):
    start = time.monotonic()
    plain = [worker(args, "plain", deadline, check=True)]
    traced = [worker(args, "traced", deadline)]
    while time.monotonic() - start < args.seconds:
        plain.append(worker(args, "plain", deadline))
        traced.append(worker(args, "traced", deadline))
    counted = worker(args, "count", deadline)
    first = plain[0]
    check = first["check"]
    n = len(first["digests"])
    # the instrumentation must not change a verdict, level or certificate
    failed = failures(first, plain + traced + [counted])
    layers = [t["layers"] for t in traced]
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if unit(name) != "count":
            metrics[name] = statistics.median(values)
        else:
            # counts repeat exactly from pass to pass
            failed += len(set(values)) > 1
            metrics[name] = values[0]
    for site, calls in counted["buchberger_calls"].items():
        failed += calls != metrics[f"ideal.buchberger.calls.{site}"]
    metrics.update(counted["counts"])
    metrics["trace.overhead_frac"] = (min(t["pass_s"] for t in traced)
                                      / min(p["pass_s"] for p in plain) - 1)
    metrics["wall.pass_s"] = statistics.median(p["pass_s"] for p in plain)
    metrics["gauge.kernel_s"] = statistics.median(g for p in plain for g in p["gauges"])
    out = {k: (v, unit(k)) for k, v in metrics.items()}
    out.update(src_lines())
    attempted = n * (len(plain) + len(traced) + 1)
    return check, attempted, failed, out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            check, attempted, failed, metrics = per_layer(args, deadline)
        else:
            check, attempted, failed, metrics = end_to_end(args, deadline)
    except WorkerFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for problem in check["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"reference check: {len(check['bad'])} rejected, refuted levels "
          f"{check.get('levels_enumerated', 0)} re-enumerated, "
          f"{check.get('levels_skipped', 0)} over the enumeration cap", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
