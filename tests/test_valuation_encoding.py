"""Differential test of the O-elimination: ~O(s) as the single equation
t*s*w = 1 in one fresh unknown w, against the encoding it replaced,
t*s*w = 1 and O(w), in tests/frontend_oracle.py.  Every unknown ranges over
F_q[[t]], so w is integral without the O(w) conjunct, and t*s*w = 1 has an
integral solution w exactly when v(s) <= -1.

The sentences: criterion 4's O(c*t^k) / ~O(c*t^k) sweep, the criterion-8
corpus, the seeded fuzz sentences, and hand cases ~O(0), ~O(1/t), ~O(X),
~O(X/t), ~O(1/(1 + t)) and O(X) & ~O(X*X/t) over F_2, F_3 and F_4.
decide must give the same status, reason and refutation level under both
encodings; a sentence with no ~O atom must be rewritten identically.
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
    "~O(0)",
    "~O(1/t)",
    "exists X. ~O(X)",
    "exists X. ~O(X/t)",
    "~O(1/(1 + t))",
    "exists X. O(X) & ~O(X*X/t)",
]


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


SOURCES = {
    "criterion-4": criterion_4_sentences,
    "criterion-8": lambda: ((ctx, parse(text), None) for _, ctx, text, _ in CRITERION_8),
    "fuzz": _fuzz_sentences,
    "hand": lambda: ((ctx, parse(text), None) for ctx in (F2, F3, F4) for text in HAND),
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


def _is_negated_atom(f):
    return isinstance(f, Not) and isinstance(f.inner, InRing)


@pytest.mark.parametrize("source", SOURCES)
def test_one_unknown_and_one_equation_per_negated_atom(source):
    for _, sentence, _ in SOURCES[source]():
        before = _leaves(nnf(sentence.formula))
        eliminated = eliminate_valuation_atoms(sentence)
        after = _leaves(eliminated.formula)
        fresh = iter(eliminated.variables[len(sentence.variables):])
        assert len(after) == len(before)
        for f, g in zip(before, after):
            if _is_negated_atom(f):
                w = TVar(next(fresh))
                assert g == Eq(TOp("*", TOp("*", TUnif(), f.inner.term), w), TNum(1))
            elif isinstance(f, InRing):
                y = TVar(next(fresh))
                square = TOp("*", TUnif(), TOp("^", f.term, TNum(2)))
                assert g == Eq(TOp("+", TOp("^", y, TNum(2)), y), square)
            else:
                assert g == f
        assert next(fresh, None) is None
        # the replaced encoding paid one more unknown and equation per ~O atom
        replaced = old.eliminate_valuation_atoms(sentence)
        extra = sum(map(_is_negated_atom, before))
        assert len(replaced.variables) == len(eliminated.variables) + extra
        assert len(_leaves(replaced.formula)) == len(after) + extra


@pytest.mark.parametrize("source", SOURCES)
def test_both_encodings_decide_alike(source, monkeypatch):
    decided = 0
    for ctx, sentence, config in SOURCES[source]():
        if not any(map(_is_negated_atom, _leaves(nnf(sentence.formula)))):
            assert eliminate_valuation_atoms(sentence) == old.eliminate_valuation_atoms(sentence)
            continue
        new = _decide(eliminate_valuation_atoms, sentence, ctx, config, monkeypatch)
        replaced = _decide(old.eliminate_valuation_atoms, sentence, ctx, config, monkeypatch)
        assert new == replaced, (ctx.q, sentence)
        decided += 1
    assert decided > 0
