"""A certified point always lifts (Hensel's lemma; newton_lift has the short
proof), so the engine catches no CertificateError from newton_lift.  Seeded
random systems decide through decide_existential without one, and every SAT
verdict they give passes --verify's re-check.  The lifts are counted at both
bindings, truncation (certified candidates and the inequation fallback) and
hensel (perturbed points), so the sweep cannot pass without lifting."""

import random
from collections import Counter

from laurentdecide import hensel, truncation
from laurentdecide.cli import verify_verdict
from laurentdecide.ff import FqContext
from laurentdecide.poly import PolyRing
from laurentdecide.resolve import AffineSystem, RunConfig, decide_existential

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
