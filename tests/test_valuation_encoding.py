"""Differential test of the O-elimination: O(s) as the linear equation y = s
in one fresh unknown y, against the encoding it replaced, the Artin-Schreier
equation y^2 + y = t*s^2, in tests/frontend_oracle.py.  Every unknown ranges
over F_q[[t]], so with s = N/d the equation d*y = N has a solution exactly
when s is integral.  ~O(s) stays t*s*w = 1 under both.

The sentences: criterion 4's O(c*t^k) / ~O(c*t^k) sweep, the criterion-8
corpus, the seeded fuzz sentences, and hand cases O(0), O(1/t), O(3/t) (zero
over F_3), O(1/(1 + t)), O(X/t), O(a*X/t) & ~(X = 0) for a generator a of F_4, and
O(X) & ~O(X*X/t), over F_2, F_3 and F_4.  decide must give the same status,
reason and refutation level under both encodings; a sentence with no
positive O atom must be rewritten identically.
"""

import random

import frontend_oracle as old
import pytest
from test_acceptance import CORPUS as CRITERION_8
from test_fuzz import random_sentence

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


def _f4_coefficient():
    """exists X. O(a*X/t) & ~(X = 0) for a generator a of F_4: a constant no
    integer literal can write."""
    a = F4.gen()
    a_over_t = RationalFunction(UniPoly(F4, [a]), UniPoly(F4, [0, 1]))
    x = TVar("X")
    return Sentence(["X"], And(InRing(TOp("*", TConst(a_over_t), x)), Not(Eq(x, TNum(0)))))


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


@pytest.mark.parametrize("source", SOURCES)
def test_one_unknown_and_one_equation_per_atom(source):
    for _, sentence, _ in SOURCES[source]():
        before = _leaves(nnf(sentence.formula))
        eliminated = eliminate_valuation_atoms(sentence)
        after = _leaves(eliminated.formula)
        fresh = iter(eliminated.variables[len(sentence.variables):])
        assert len(after) == len(before)
        for f, g in zip(before, after):
            if isinstance(f, Not) and isinstance(f.inner, InRing):
                w = TVar(next(fresh))
                assert g == Eq(TOp("*", TOp("*", TUnif(), f.inner.term), w), TNum(1))
            elif isinstance(f, InRing):
                assert g == Eq(TVar(next(fresh)), f.term)
            else:
                assert g == f
        assert next(fresh, None) is None
        # the replaced encoding had the same unknowns and leaves
        replaced = old.eliminate_valuation_atoms(sentence)
        assert replaced.variables == eliminated.variables
        assert len(_leaves(replaced.formula)) == len(after)


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
