"""Workload corpora and their hand-derived references.

Every workload is a list of ``Item``s built from the run seed alone.  The
``expect`` field of an item is the set of statuses the hand derivation
allows; ``None`` means no hand derivation exists and the verdict is judged
by re-checking its evidence only (see ``reference.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from laurentdecide import FqContext, RunConfig

F2 = FqContext(2)
F3 = FqContext(3)
F4 = FqContext(2, 2)
F5 = FqContext(5)
F7 = FqContext(7)
FIELDS = {2: F2, 3: F3, 5: F5, 7: F7}

SAT, UNSAT, UNKNOWN = "sat", "unsat", "unknown"

# quadratic non-residues mod p: X^2 - a*Y^2 is then the norm form of the
# unramified quadratic extension of F_p((t))
NON_SQUARES = {3: (2,), 5: (2, 3), 7: (3, 5, 6)}

FUZZ_CONFIG = RunConfig(max_precision=16, candidate_cap=64)
DEFAULT_CONFIG = RunConfig()


@dataclass(frozen=True)
class Item:
    label: str
    ctx: FqContext
    text: str
    config: RunConfig
    expect: frozenset | None   # statuses the hand derivation allows
    why: str = ""              # one-line derivation of expect


# Criterion-8 sentences with their derivations (the benchmark's own copy).
CRITERION_8 = [
    ("c8-1", F3, "exists X. X*X = 1 + t", {SAT},
     "1 is a simple root of X^2 - 1 mod t (derivative 2 is a unit); Hensel lifts it"),
    ("c8-2", F3, "exists X. X*X = t", {UNSAT},
     "v(X^2) = 2 v(X) is even, v(t) = 1 is odd"),
    ("c8-3", F2, "exists X. X*X = t", {UNSAT},
     "same parity obstruction: squares in char 2 have only even-exponent terms"),
    ("c8-4", F4, "exists X. X*X = t", {UNSAT},
     "same parity obstruction over F_4"),
    ("c8-5", F3, "exists X, Y. Y*Y = X^3 & ~(X = 0)", {SAT},
     "(1, 1) lies on the cusp off the singular origin; dF/dY = 2Y = 2 is a unit"),
    ("c8-6", F2, "exists X, Y. Y*Y = X^3 & ~(X = 0)", {SAT},
     "(1, 1) again; in char 2 the X-partial -3X^2 = X^2 = 1 is a unit"),
    ("c8-7", F3, "O(t) & ~O(1/t)", {SAT},
     "v(t) = 1 >= 0 and v(1/t) = -1 < 0"),
    ("c8-8", F3, "exists X. O(X*X - 1/t)", {UNSAT},
     "for integral X, v(X^2 - 1/t) = min(2 v(X), -1) = -1 < 0"),
    ("c8-9", F2, "exists X. X*X + X = t", {SAT},
     "residue equation x0^2 + x0 = 0 has root 0 with unit derivative 1"),
    ("c8-10", F4, "exists Y. Y*Y + Y + 1 = 0", {SAT},
     "the generator a of F_4 satisfies a^2 + a + 1 = 0 by the modulus"),
    ("c8-11", F2, "exists Y. Y*Y + Y + 1 = 0", {UNSAT},
     "no root mod t: 0 and 1 both give 1"),
    ("c8-12", F3, "exists X. (X = t | X*X = t) & ~(X = 0)", {SAT},
     "first disjunct X = t is nonzero of valuation 1"),
]

# The tests/test_fuzz.py grammar.  "{v}"/"{w}" mark variable slots so that
# a unit rescaling of the variables can be substituted afterwards.
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
NAMES = ("A", "B")

# The fuzz sentences are drawn once, with this fixed seed, and every run seed
# then rescales their variables by units.  A fresh draw per run seed is not
# steady: a handful of sentences with ~O atoms over F_3 cost 2-23 s each
# against a median of 0.02 s, so the total of 120 fresh draws ranged 3.8-35 s
# across seeds.  Rescaling X -> u*X (u a unit of F_q) is a ring automorphism
# of F_q[[t]]: verdicts, refutation levels and the shape of every Groebner
# computation stay, while witnesses and coefficients change.
FUZZ_DRAW_SEED = 11
FUZZ_COUNT = 120


def _fuzz_template(rng):
    """One sentence of the test_fuzz grammar, variables left as {A}/{B}."""
    nvars = rng.randrange(1, 3)
    names = NAMES[:nvars]
    natoms = rng.randrange(1, 4)
    parts = []
    for _ in range(natoms):
        shape = rng.choice(ATOM_POOL)
        atom = shape.format(
            v="{%s}" % rng.choice(names), w="{%s}" % rng.choice(names), c=rng.choice(CONSTS)
        )
        if rng.random() < 0.3:
            atom = f"~({atom})" if "=" in atom.split("O(")[0] or not atom.startswith("O") else f"~{atom}"
        parts.append(atom)
    glue = [rng.choice([" & ", " | "]) for _ in range(natoms - 1)]
    body = parts[0]
    for g, p in zip(glue, parts[1:]):
        body = f"({body}{g}{p})"
    return names, body


def sentence_mix(seed):
    rng = random.Random(seed)
    items = [
        Item(label, ctx, text, DEFAULT_CONFIG, frozenset(expect), why)
        for label, ctx, text, expect, why in CRITERION_8
    ]
    draw = random.Random(FUZZ_DRAW_SEED)
    for i in range(FUZZ_COUNT):
        ctx = (F3, F2)[i % 2]
        names, body = _fuzz_template(draw)
        units = {n: rng.randrange(1, ctx.p) for n in NAMES}
        slots = {n: n if units[n] == 1 else f"({units[n]}*{n})" for n in NAMES}
        text = f"exists {', '.join(names)}. {body.format(**slots)}"
        items.append(Item(f"fuzz-{i}", ctx, text, FUZZ_CONFIG, None))
    return items


# names the lift-candidates sentences draw their variables from; none is a
# uniformizer name (t, w, pi), the O predicate or an O-elimination variable
VARIABLE_NAMES = ("A", "B", "C", "D", "E", "F", "G", "H", "U", "V", "X", "Y", "Z")


def _norm_form(a, c, k, names):
    x, y = names
    return f"exists {x}, {y}. {x}*{x} - {a}*{y}*{y} = {c}*t^{k}"


def norm_refute(seed):
    """X^2 - a*Y^2 = c*t^k with k odd: UNSAT; a and c are drawn with the seed.

    The norm form of an unramified extension only takes values of even
    valuation, so it never equals c*t^k for odd k.  p = 5 stops at k = 3
    because k = 5, 7 exhaust the digit-search budget after about 130 s.
    """
    rng = random.Random(seed)
    items = []
    for p, ks in ((3, (1, 3, 5, 7)), (5, (1, 3)), (7, (1, 3))):
        for k in ks:
            a, c = rng.choice(NON_SQUARES[p]), rng.randrange(1, p)
            items.append(Item(
                f"norm-p{p}-k{k}", FIELDS[p], _norm_form(a, c, k, ("X", "Y")), DEFAULT_CONFIG,
                frozenset({UNSAT}), "norm form values have even valuation, k is odd",
            ))
    return items


# (p, max_precision) of the singular cones; F_2 writes the norm form X^2 + Y^2
CONES = ((2, 32), (3, 16), (5, 8), (7, 8))


def lift_candidates(seed):
    """Even-k norm forms (SAT) and singular cones (UNSAT by parity).

    With k even, X^2 - a*Y^2 = c has a smooth solution mod t (the norm map of
    F_{p^2} onto F_p is surjective) which Hensel lifts; scaling it by t^(k/2)
    solves the sentence.  The cones X^2 - a*Y^2 = t*Z^2 with Z != 0 have no
    solution: the left side has even valuation, the right side odd.  The
    engine may answer UNKNOWN there; SAT would be unsound.

    Here a is the least non-square and c = 1, and the seed only renames the
    variables.  The x-major digit search reaches its
    first certifying candidate at a depth set by (a, c): for p = 7, k = 4 the
    non-square values of c take 19-38 s against 0.1 s for the squares, and
    for p = 5, k = 4 the squares take 2.4 s against 0.1 s.  A seeded (a, c)
    would make the pass time a draw from that spread.
    """
    rng = random.Random(seed)
    items = []
    for p, ks in ((3, (2, 4, 6)), (5, (2, 4, 6)), (7, (2, 4))):
        for k in ks:
            names = rng.sample(VARIABLE_NAMES, 2)
            items.append(Item(
                f"lift-p{p}-k{k}", FIELDS[p], _norm_form(NON_SQUARES[p][0], 1, k, names),
                DEFAULT_CONFIG, frozenset({SAT}),
                "a smooth unit solution mod t lifts, scaled by t^(k/2)",
            ))
    for p, max_precision in CONES:
        x, y, z = rng.sample(VARIABLE_NAMES, 3)
        form = f"{x}*{x} + {y}*{y}" if p == 2 else f"{x}*{x} - {NON_SQUARES[p][0]}*{y}*{y}"
        items.append(Item(
            f"cone-p{p}", FIELDS[p], f"exists {x}, {y}, {z}. {form} = t*{z}*{z} & ~({z} = 0)",
            RunConfig(max_precision=max_precision), frozenset({UNSAT, UNKNOWN}),
            "left side has even valuation, t*Z^2 with Z != 0 has odd valuation",
        ))
    return items


WORKLOADS = {
    "sentence-mix": sentence_mix,
    "norm-refute": norm_refute,
    "lift-candidates": lift_candidates,
}
