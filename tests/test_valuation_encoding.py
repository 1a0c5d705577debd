"""Differential test of the O-elimination against the encoding it replaced,
the Artin-Schreier equation y^2 + y = t*s^2, in tests/frontend_oracle.py.
Every unknown ranges over F_q[[t]], so a polynomial s over F_q[t] in the
unknowns (no division, no explicit F_q(t) constant) is integral: O(s)
always holds and becomes the true literal 0 = 0, with no fresh unknown and
no equation.  Every other O(s) becomes the linear equation y = s in one
fresh unknown y: with s = N/d, d*y = N has a solution exactly when s is
integral.  ~O(s) stays t*s*w = 1 under both, polynomial s included: there
it is unsolvable, and the truncation decider refutes it at level 1, a
refutation level that a false literal in its place would lose.

The sentences: criterion 4's O(c*t^k) / ~O(c*t^k) sweep, the criterion-8
corpus, the seeded fuzz sentences, and hand cases O(0), O(1/t), O(3/t) (zero
over F_3), O(1/(1 + t)), O(X/t), O(a*X/t) & ~(X = 0) for a generator a of F_4,
O(a*t*X) & ~(X = 0) with a*t an explicit constant, and O(X) & ~O(X*X/t), over
F_2, F_3 and F_4.  decide must give the same status, reason and refutation
level under both encodings; a sentence with no positive O atom must be
rewritten identically.

A seeded property test checks the settled atom on its own: for a
fuzz-grammar term s without a division, O(s) & phi decides as phi does.
"""

import random
from collections import Counter

import frontend_oracle as old
import pytest
from test_acceptance import CORPUS as CRITERION_8
from test_fuzz import CONSTS, random_sentence

from laurentdecide import frontend
from laurentdecide.ff import FqContext
from laurentdecide.frontend import (
    And,
    Eq,
    InRing,
    Not,
    Or,
    Sentence,
    TConst,
    TNum,
    TOp,
    TUnif,
    TVar,
    eliminate_valuation_atoms,
    nnf,
    parse,
    parse_term_text,
    unparse,
    unparse_formula,
)
from laurentdecide.poly import RationalFunction, UniPoly
from laurentdecide.resolve import RunConfig

F2 = FqContext(2)
F3 = FqContext(3)
F4 = FqContext(2, 2)
FUZZ_CONFIG = RunConfig(max_precision=16, candidate_cap=64)

HAND = [
    "O(0)",
    "O(1/t)",
    "O(3/t)",
    "O(1/(1 + t))",
    "exists X. O(X/t)",
    "exists X. O(X) & ~O(X*X/t)",
    "~O(1/t)",
]


def _f4_coefficient(k=-1):
    """exists X. O(a*t^k*X) & ~(X = 0) for a generator a of F_4, a*t^k an
    explicit constant, which no integer literal can write.  With k >= 0 the
    term is integral, yet keeps its unknown: the rule reads the syntax."""
    t = RationalFunction.from_unipoly(UniPoly(F4, [0, 1]))
    c = RationalFunction.from_unipoly(UniPoly(F4, [F4.gen()])) * t**k
    x = TVar("X")
    return Sentence(["X"], And(InRing(TOp("*", TConst(c), x)), Not(Eq(x, TNum(0)))))


def criterion_4_sentences():
    """O(c*t^k) and ~O(c*t^k) for every nonzero c of F_2, F_3, F_4 and
    k = -3..3, as criterion 4 builds them."""
    for ctx in (F2, F3, F4):
        t = RationalFunction.from_unipoly(UniPoly(ctx, [0, 1]))
        for c in ctx.elements():
            if not c:
                continue
            c_rf = RationalFunction.from_unipoly(UniPoly(ctx, [c]))
            for k in range(-3, 4):
                atom = InRing(TConst(c_rf * t**k))
                yield ctx, Sentence([], atom), None
                yield ctx, Sentence([], Not(atom)), None


def _fuzz_sentences():
    """The sentences of tests/test_fuzz.py, drawn from the same seeds."""
    for seed, ctx in ((777001, F3), (424242, F2)):
        rng = random.Random(seed)
        for _ in range(45):
            yield ctx, parse(random_sentence(rng)), FUZZ_CONFIG


def _hand_sentences():
    for ctx in (F2, F3, F4):
        for text in HAND:
            yield ctx, parse(text), None
    yield F4, _f4_coefficient(), None
    yield F4, _f4_coefficient(1), None


SOURCES = {
    "criterion-4": criterion_4_sentences,
    "criterion-8": lambda: ((ctx, parse(text), None) for _, ctx, text, _ in CRITERION_8),
    "fuzz": _fuzz_sentences,
    "hand": _hand_sentences,
}


def _leaves(f):
    if isinstance(f, (And, Or)):
        return _leaves(f.left) + _leaves(f.right)
    return [f]


def _decide(encode, sentence, ctx, config, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(frontend, "eliminate_valuation_atoms", encode)
        v = frontend.decide(sentence, ctx, config)
    return v.status, v.reason, v.refuted_at


def _polynomial(term):
    """Whether term has no division and no explicit F_q(t) constant."""
    if isinstance(term, TOp):
        return term.op != "/" and _polynomial(term.left) and _polynomial(term.right)
    return not isinstance(term, TConst)


@pytest.mark.parametrize("source", SOURCES)
def test_one_unknown_and_one_equation_per_atom(source):
    # per atom whose term has a division or a constant; none for a
    # positive atom of a polynomial, which becomes 0 = 0
    for _, sentence, _ in SOURCES[source]():
        before = _leaves(nnf(sentence.formula))
        eliminated = eliminate_valuation_atoms(sentence)
        after = _leaves(eliminated.formula)
        fresh = iter(eliminated.variables[len(sentence.variables):])
        assert eliminated.variables[:len(sentence.variables)] == sentence.variables
        assert len(after) == len(before)
        settled = 0
        for f, g in zip(before, after):
            if isinstance(f, Not) and isinstance(f.inner, InRing):
                w = TVar(next(fresh))
                assert g == Eq(TOp("*", TOp("*", TUnif(), f.inner.term), w), TNum(1))
            elif isinstance(f, InRing) and _polynomial(f.term):
                assert g == Eq(TNum(0), TNum(0))
                settled += 1
            elif isinstance(f, InRing):
                assert g == Eq(TVar(next(fresh)), f.term)
            else:
                assert g == f
        assert next(fresh, None) is None
        # the replaced encoding had one more unknown per settled atom, and
        # the same leaves
        replaced = old.eliminate_valuation_atoms(sentence)
        assert len(replaced.variables) == len(eliminated.variables) + settled
        assert len(_leaves(replaced.formula)) == len(after)


@pytest.mark.parametrize(
    "ctx, sentence",
    [(F3, parse("O(1/(1 + t))")), (F3, parse("exists X. O(X/(1 + t)) & ~(X = 0)")),
     (F4, _f4_coefficient(1))],
    ids=["division", "division-of-an-unknown", "integral-constant"],
)
def test_a_division_or_a_constant_keeps_its_unknown(ctx, sentence):
    eliminated = eliminate_valuation_atoms(sentence)
    assert eliminated.variables == sentence.variables + ["y1"]
    (atom,) = [f for f in _leaves(sentence.formula) if isinstance(f, InRing)]
    assert Eq(TVar("y1"), atom.term) in _leaves(eliminated.formula)
    v = frontend.decide(sentence, ctx)
    assert v.is_sat and len(v.witness) == len(eliminated.variables)


@pytest.mark.parametrize("source", SOURCES)
def test_both_encodings_decide_alike(source, monkeypatch):
    decided = 0
    for ctx, sentence, config in SOURCES[source]():
        if not any(isinstance(f, InRing) for f in _leaves(nnf(sentence.formula))):
            assert eliminate_valuation_atoms(sentence) == old.eliminate_valuation_atoms(sentence)
            continue
        new = _decide(eliminate_valuation_atoms, sentence, ctx, config, monkeypatch)
        replaced = _decide(old.eliminate_valuation_atoms, sentence, ctx, config, monkeypatch)
        assert new == replaced, (ctx.q, sentence)
        decided += 1
    assert decided > 0


# fuzz-grammar terms with no division: the terms of its O atoms and the
# sides of its equation shapes, over its constants other than 1/t
POLYNOMIAL_TERMS = ["{v} + {c}", "{c}", "{v}*{v}", "{v}*{v} + {v}", "{c} * {w}", "{v}*{w}",
                    "{v}*{v}*{v}"]
POLYNOMIAL_CONSTS = [c for c in CONSTS if "/" not in c]


@pytest.mark.parametrize("ctx", [F2, F3, F4], ids=["F2", "F3", "F4"])
def test_a_polynomial_atom_leaves_the_verdict_alone(ctx):
    # O(s) & phi, O(s) on either side, decides as phi does
    rng = random.Random(2718 + ctx.q)
    statuses = Counter()
    for _ in range(30):
        phi = parse(random_sentence(rng))
        names = phi.variables
        shape = rng.choice(POLYNOMIAL_TERMS)
        s = InRing(parse_term_text(shape.format(
            v=rng.choice(names), w=rng.choice(names), c=rng.choice(POLYNOMIAL_CONSTS))))
        matrix = And(s, phi.formula) if rng.random() < 0.5 else And(phi.formula, s)
        got = frontend.decide(Sentence(names, matrix), ctx, FUZZ_CONFIG)
        want = frontend.decide(phi, ctx, FUZZ_CONFIG)
        assert (got.status, got.reason, got.refuted_at) == (
            want.status, want.reason, want.refuted_at), (ctx.q, unparse(phi), unparse_formula(s))
        statuses[want.status] += 1
    assert statuses["sat"] and statuses["unsat"], statuses
