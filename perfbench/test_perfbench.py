"""Tests of the benchmark's tracer, op counter and reference checker.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import laurentdecide  # noqa: E402
import pytest  # noqa: E402
from laurentdecide import hensel, ideal, resolve  # noqa: E402
from laurentdecide.series import TruncatedSeries  # noqa: E402

import corpus  # noqa: E402
import gauge  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def small_items():
    """A fast cross-section of all three workloads."""
    items = corpus.sentence_mix(5)[:30]
    items += [i for i in corpus.norm_refute(5) if i.label in ("norm-p3-k1", "norm-p3-k3")]
    items += [i for i in corpus.lift_candidates(5) if i.label in ("lift-p3-k2", "lift-p5-k2")]
    return items


def decide(label):
    item = next(i for i in corpus.CRITERION_8 if i[0] == label)
    return laurentdecide.decide(item[2], item[1])


# ---------------------------------------------------------------------------
# tracer pitfalls


def test_every_binding_of_a_function_is_patched_and_restored():
    originals = (resolve.buchberger, hensel.buchberger, ideal.buchberger)
    assert originals[0] is originals[1] is originals[2]
    with tracer.Tracer() as probe:
        assert all(m.buchberger is not originals[0] for m in (resolve, hensel, ideal))
        laurentdecide.decide("exists X, Y. Y*Y = X^3 & ~(X = 0)", corpus.F3)
    assert (resolve.buchberger, hensel.buchberger, ideal.buchberger) == originals
    sites = {s.site for s in probe.spans if s.name == "ideal.buchberger"}
    # patching ideal.buchberger alone would see only the "ideal" site
    assert {"resolve", "hensel", "ideal"} <= sites


def test_generator_is_timed_across_every_next():
    clock = FakeClock()

    def search():
        for k in range(3):
            clock.now += 1.0       # work done inside next()
            yield k

    probe = tracer.Tracer(clock=clock)
    wrapped = probe.wrap_generator(search, "truncation.search", "test")
    for _ in wrapped():
        clock.now += 10.0          # the consumer's own work is not search time
    spans = [s for s in probe.spans if s.name == "truncation.search"]
    assert sum(s.self_s for s in spans) == 3.0
    assert probe.counts["truncation.search.yielded"] == 3


def test_abandoned_generator_leaves_no_open_span():
    clock = FakeClock()
    closed = []

    def search():
        try:
            while True:
                clock.now += 1.0
                yield 0
        finally:
            closed.append(True)

    probe = tracer.Tracer(clock=clock)
    gen = probe.wrap_generator(search, "truncation.search", "test")()
    next(gen)
    gen.close()
    assert closed and probe._stack == []


def test_self_time_excludes_children_and_spans_carry_the_sentence():
    clock = FakeClock()
    probe = tracer.Tracer(clock=clock)

    def child():
        clock.now += 2.0

    wrapped_child = probe.wrap(child, "ideal.buchberger", "test")

    def parent():
        clock.now += 1.0
        wrapped_child()
        clock.now += 1.0

    probe.sentence = 7
    probe.wrap(parent, "resolve.decide_existential", "test")()
    by_name = {s.name: s for s in probe.spans}
    outer, inner = by_name["resolve.decide_existential"], by_name["ideal.buchberger"]
    assert outer.end - outer.start == 4.0 and outer.self_s == 2.0
    assert inner.self_s == 2.0 and inner.parent == outer.id
    assert {s.sentence for s in probe.spans} == {7}


def test_self_times_account_for_the_traced_pass():
    items = small_items()
    with tracer.Tracer() as probe:
        pass_s, _, _ = worker.run_pass(laurentdecide, items, probe)
    metrics = tracer.layer_metrics(probe, pass_s)
    assert 0.95 < metrics["trace.accounted_frac"] <= 1.0


def test_instrumented_passes_reproduce_the_untraced_verdicts():
    items = small_items()
    _, _, plain = worker.run_pass(laurentdecide, items)
    with tracer.Tracer() as probe:
        _, _, traced = worker.run_pass(laurentdecide, items, probe)
    with tracer.OpCounter() as counter:
        _, _, counted = worker.run_pass(laurentdecide, items, counter)
    expected = [worker.digest(v) for v in plain]
    assert [worker.digest(v) for v in traced] == expected
    assert [worker.digest(v) for v in counted] == expected


def test_op_counts_repeat_exactly():
    items = small_items()
    runs = []
    for _ in range(2):
        with tracer.OpCounter() as counter:
            worker.run_pass(laurentdecide, items, counter)
        runs.append(counter.metrics())
    assert runs[0] == runs[1]
    assert runs[0]["ff.elem_ops"] > 0 and runs[0]["series.mul_ops"] > 0


def test_groebner_repeats_are_counted_per_sentence():
    counter = tracer.OpCounter()
    with counter:
        gens = [ideal.PolyRing(corpus.F3, ("X",)).var(0)]
        for sentence in (0, 0, 1):
            counter.sentence = sentence
            ideal.buchberger(gens)
    assert counter.counts["ideal.buchberger.repeats"] == 1
    assert counter.metrics()["ideal.buchberger.repeat_frac"] == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# reference checker


def check(label, verdict):
    item = next(i for i in corpus.sentence_mix(1) if i.label == label)
    return reference.check(item, verdict, Counter())


def test_reference_accepts_engine_verdicts():
    for label in ("c8-1", "c8-2", "c8-5", "c8-10", "c8-11", "c8-12"):
        assert check(label, decide(label)) == [], label


def test_reference_rejects_a_wrong_status():
    verdict = decide("c8-1")
    assert check("c8-2", verdict)


def test_reference_rejects_a_perturbed_witness():
    verdict = decide("c8-1")
    x = verdict.witness[0]
    coeffs = list(x.coeffs)
    coeffs[-1] = coeffs[-1] + x.ctx.one()
    bad = dataclasses.replace(verdict, witness=(TruncatedSeries(x.ctx, coeffs, x.precision),))
    assert any("residual" in p for p in check("c8-1", bad))


def test_reference_rejects_a_wrong_certificate():
    verdict = decide("c8-1")
    bad_cert = dataclasses.replace(verdict.certificate, e=verdict.certificate.e + 1)
    assert check("c8-1", dataclasses.replace(verdict, certificate=bad_cert))


def test_reference_rejects_a_solvable_refutation_level():
    verdict = decide("c8-2")                       # X^2 = t, refuted at level 2
    branch = verdict.branches[0]
    assert branch.refuted_at == 2
    stats = Counter()
    assert reference.check_unsat(branch, stats) == [] and stats["levels_enumerated"] == 1
    lowered = dataclasses.replace(branch, refuted_at=1)   # X = 0 solves mod t
    assert reference.check_unsat(lowered, Counter())


def test_reference_recomposes_radical_certificates():
    for text in ("exists X. X = 1 & ~(X = 1)", "exists X. X = 1 & X = 2"):
        verdict = laurentdecide.decide(text, corpus.F3)
        branch = verdict.branches[0]
        assert branch.radical is not None, text
        assert reference.check_unsat(branch, Counter()) == [], text
        cert = branch.radical
        broken = dataclasses.replace(cert, cofactors=[c + c for c in cert.cofactors])
        assert reference.check_unsat(dataclasses.replace(branch, radical=broken),
                                     Counter()), text


# ---------------------------------------------------------------------------
# corpus and harness


def test_workloads_are_a_function_of_the_seed():
    for build in corpus.WORKLOADS.values():
        assert build(3) == build(3)
        assert [i.text for i in build(3)] != [i.text for i in build(4)]


def test_gauge_regions_leave_their_samples_out():
    handler = signal.getsignal(signal.SIGALRM)
    meter = gauge.Gauge()
    with meter:
        with meter.region() as region:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
    assert len(meter.samples) >= 5 and meter.sampling_s > 0
    assert abs(region.seconds + meter.sampling_s - 0.3) < 0.01
    assert min(meter.samples) <= region.gauge <= max(meter.samples)
    assert meter.regions == [region] and region.reference_s > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_fails_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "norm-refute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
