"""A certified point always lifts (Hensel's lemma; newton_lift has the short
proof), so the engine catches no CertificateError from newton_lift.  Seeded
random systems decide through decide_existential without one, and every SAT
verdict they give passes --verify's re-check.  The lifts are counted at both
bindings, truncation (certified candidates and the inequation fallback) and
hensel (perturbed points), so the sweep cannot pass without lifting.

A lifted point re-certifies for the same reason, so a lift that does not is
a broken invariant too: each of the three places that re-certify a lifted
point raises CertificateError, rather than returning a SAT without a
certificate."""

import random
from collections import Counter

import pytest

from laurentdecide import hensel, truncation
from laurentdecide.cli import verify_verdict
from laurentdecide.ff import FqContext
from laurentdecide.hensel import CertificateError, certify_liftable, smooth_perturb
from laurentdecide.poly import PolyRing
from laurentdecide.resolve import AffineSystem, RunConfig, decide_existential
from laurentdecide.series import TruncatedSeries
from laurentdecide.truncation import _sat_with_inequation, decide_positive

FIELDS = (FqContext(2), FqContext(3), FqContext(5), FqContext(7), FqContext(2, 2))


def _random_poly(rng, ring, m, terms):
    """terms random terms of X-degree and t-degree at most 2, with nonzero
    coefficients from the whole field."""
    scalars = [c for c in ring.field.elements() if c]
    out = {}
    for _ in range(terms):
        e = tuple(rng.randrange(3) for _ in range(m))
        while sum(e) > 2:
            e = tuple(rng.randrange(3) for _ in range(m))
        out[e + (rng.randrange(3),)] = rng.choice(scalars)
    return ring.from_terms(out)


def _random_system(rng):
    """1-3 unknowns over F_2, F_3, F_5, F_7 or F_4, 1-2 equations, an
    inequation half the time; max precision 8 or 16, candidate cap 4, 16 or
    64."""
    ctx = rng.choice(FIELDS)
    m = rng.randrange(1, 4)
    ring = PolyRing(ctx, tuple(f"X{i}" for i in range(m)) + ("t",))
    equations = [_random_poly(rng, ring, m, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 3))]
    g = _random_poly(rng, ring, m, rng.randrange(1, 3)) if rng.random() < 0.5 else None
    config = RunConfig(max_precision=rng.choice((8, 16)), candidate_cap=rng.choice((4, 16, 64)))
    return AffineSystem(ring, equations, g), config


def test_every_certified_point_lifts(monkeypatch):
    lifts = Counter()
    real = hensel.newton_lift
    for module in (truncation, hensel):

        def counting(*args, _site=module.__name__.rpartition(".")[2], **kwargs):
            lifts[_site] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "newton_lift", counting)
    rng = random.Random(4)
    problems = {}
    for i in range(200):
        system, config = _random_system(rng)
        verdict = decide_existential(system, config)
        if verdict.is_sat and (found := verify_verdict(verdict)[0]):
            problems[i] = found
    assert problems == {}
    # the sweep makes 345 and 349
    assert lifts["truncation"] >= 250 and lifts["hensel"] >= 250, lifts


def _no_certificate_after_a_lift(monkeypatch, module):
    """Make module's certify_liftable answer None once module's newton_lift
    has run, as a broken lift would."""
    lifted = []
    real_lift, real_certify = module.newton_lift, module.certify_liftable

    def lift(*args, **kwargs):
        lifted.append(True)
        return real_lift(*args, **kwargs)

    def certify(*args, **kwargs):
        return None if lifted else real_certify(*args, **kwargs)

    monkeypatch.setattr(module, "newton_lift", lift)
    monkeypatch.setattr(module, "certify_liftable", certify)
    return lifted


def _perturb_case():
    """Y = 0 & X != 0 over F_3 at the point (0, 0), certified at precision
    2: X vanishes there, so the point needs a lift and a perturbation."""
    ctx = FqContext(3)
    ring = PolyRing(ctx, ("X", "Y", "t"))
    system = AffineSystem(ring, [ring.var(1)], ring.var(0))
    point = [TruncatedSeries(ctx, [], 2)] * 2
    return system, point, certify_liftable(system.minors, point)


def test_a_candidate_lift_that_does_not_recertify_raises(monkeypatch):
    ring = PolyRing(FqContext(3), ("X", "t"))
    x, t = ring.var(0), ring.var(1)
    lifted = _no_certificate_after_a_lift(monkeypatch, truncation)
    with pytest.raises(CertificateError, match="did not re-certify"):
        decide_positive(AffineSystem(ring, [x * x - ring.one() - t]))
    assert lifted


def test_a_fallback_lift_that_does_not_recertify_raises(monkeypatch):
    system, point, cert = _perturb_case()
    lifted = _no_certificate_after_a_lift(monkeypatch, truncation)
    with pytest.raises(CertificateError, match="did not re-certify"):
        _sat_with_inequation(system, point, cert, RunConfig(max_precision=8), [])
    assert lifted


def test_a_perturbed_lift_that_does_not_recertify_raises(monkeypatch):
    system, point, cert = _perturb_case()
    lifted = _no_certificate_after_a_lift(monkeypatch, hensel)
    with pytest.raises(CertificateError, match="did not re-certify"):
        smooth_perturb(system.minors, point, cert, system.inequation, hensel.PerturbBudget())
    assert lifted
