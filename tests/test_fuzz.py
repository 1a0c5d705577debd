"""Seeded end-to-end fuzz: random small sentences cross-checked against
direct truncation enumeration.

For every verdict: SAT witnesses must re-verify (residuals at witness
precision, exact inequation valuation); UNSAT-by-truncation must agree with
an independent brute-force search at the refutation level; brute-force
solvability at low levels must never contradict a refutation.  UNKNOWN is
always legal.
"""

import itertools
import random

from laurentdecide.ff import FqContext
from laurentdecide.frontend import decide
from laurentdecide.resolve import RunConfig
from laurentdecide.series import TruncatedSeries, point_table, val_exact, val_ge, valuation

F2 = FqContext(2)
F3 = FqContext(3)

ATOM_POOL = [
    "{v} = {c}",
    "{v}*{v} = {c}",
    "{v}*{v} + {v} = {c}",
    "{v} = {c} * {w}",
    "{v}*{w} = {c}",
    "{v}*{v}*{v} = {c}",
    "O({v} + {c})",
    "O({c})",
]

CONSTS = ["0", "1", "2", "t", "1 + t", "t*t", "1/t", "1 + 2*t", "t + t*t"]


def random_sentence(rng):
    nvars = rng.randrange(1, 3)
    names = ["A", "B"][:nvars]
    natoms = rng.randrange(1, 4)
    parts = []
    for _ in range(natoms):
        shape = rng.choice(ATOM_POOL)
        atom = shape.format(
            v=rng.choice(names), w=rng.choice(names), c=rng.choice(CONSTS)
        )
        if rng.random() < 0.3:
            atom = f"~({atom})" if "=" in atom.split("O(")[0] or not atom.startswith("O") else f"~{atom}"
        parts.append(atom)
    glue = [rng.choice([" & ", " | "]) for _ in range(natoms - 1)]
    body = parts[0]
    for g, p in zip(glue, parts[1:]):
        body = f"({body}{g}{p})"
    return f"exists {', '.join(names)}. {body}"


def brute_force_level(system, n, cap=200000):
    """Direct search over (F_q[t]/t^N)^m; None when the space is too large."""
    ring = system.ring
    ctx = ring.field
    m = ring.nvars - 1
    if ctx.q ** (n * m) > cap:
        return None
    elems = list(ctx.elements())
    for digits in itertools.product(elems, repeat=n * m):
        point = [TruncatedSeries(ctx, list(digits[j * n : (j + 1) * n]), n) for j in range(m)]
        at = point_table(ring, point, n)
        if all(not at(f) for f in system.equations):
            if system.inequation is None:
                return True
            # a nonzero inequation value at this truncation witnesses g != 0
            if at(system.inequation):
                return True
    return False


def check_verdict(text, ctx, verdict):
    if verdict.is_sat:
        system = verdict.system
        witness = list(verdict.witness)
        precision = witness[0].precision if witness else 1
        at = point_table(system.ring, witness, precision)
        for f in system.equations:
            assert val_ge(valuation(at(f)), precision), (text, f)
        if system.inequation is not None and witness:
            assert val_exact(valuation(at(system.inequation))), text
        return
    if verdict.is_unsat:
        for branch in verdict.branches or [verdict]:
            if branch.refuted_at is not None and branch.system is not None:
                solvable = brute_force_level(branch.system, branch.refuted_at)
                assert solvable is not True, (
                    f"{text}: refuted at {branch.refuted_at} but brute force solves it"
                )
            if branch.radical is not None:
                assert branch.radical.verify(), text


def test_fuzz_sentences_f3():
    rng = random.Random(777001)
    config = RunConfig(max_precision=16, candidate_cap=64)
    for _ in range(45):
        text = random_sentence(rng)
        verdict = decide(text, F3, config)
        assert verdict.status in ("sat", "unsat", "unknown"), text
        check_verdict(text, F3, verdict)


def test_fuzz_sentences_f2():
    rng = random.Random(424242)
    config = RunConfig(max_precision=16, candidate_cap=64)
    for _ in range(45):
        text = random_sentence(rng)
        verdict = decide(text, F2, config)
        assert verdict.status in ("sat", "unsat", "unknown"), text
        check_verdict(text, F2, verdict)


def test_fuzz_unsat_never_contradicts_low_level_solvability():
    # pure equation systems: if the engine refutes at level L, the direct
    # search at smaller levels may still succeed, but never at L itself;
    # additionally if direct search fails at some level <= 3 the engine must
    # not claim SAT with a witness below that level's agreement
    rng = random.Random(31415)
    config = RunConfig(max_precision=16, candidate_cap=64)
    shapes = ["{v}*{v} = {c}", "{v} = {c}", "{v}*{v} + {v} = {c}", "{v}*{v}*{v} = {c}"]
    for _ in range(40):
        v = "A"
        eqs = [
            rng.choice(shapes).format(v=v, c=rng.choice(CONSTS))
            for _ in range(rng.randrange(1, 3))
        ]
        text = f"exists A. {' & '.join(eqs)}"
        verdict = decide(text, F3, config)
        check_verdict(text, F3, verdict)
        if verdict.is_sat:
            system = verdict.system
            for n in (1, 2):
                assert brute_force_level(system, n) is not False, (
                    f"{text}: SAT but unsolvable mod t^{n}"
                )
