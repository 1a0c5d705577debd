"""Differential tests of the system builder: sentences and system files built
over F_q[X, t] as pairs (N, d) and cleared once must give exactly the systems
of the F_q(t) route in frontend_oracle, equation for equation and term for
term, and the same parse errors."""

import random

import frontend_oracle as old
import pytest
from test_acceptance import CORPUS as CRITERION_8

from laurentdecide.cli import load_system_file
from laurentdecide.ff import FqContext
from laurentdecide.frontend import (
    Eq,
    Not,
    ParseError,
    Sentence,
    TConst,
    TOp,
    TVar,
    eliminate_valuation_atoms,
    parse,
    parse_term_text,
    to_systems,
)
from laurentdecide.poly import RationalFunction, UniPoly

FIELDS = [FqContext(2), FqContext(3), FqContext(2, 2), FqContext(5), FqContext(7)]
F3 = FIELDS[1]


def assert_same_systems(new, want):
    assert len(new) == len(want)
    for a, b in zip(new, want):
        assert a.ring == b.ring
        assert [f.terms for f in a.equations] == [f.terms for f in b.equations]
        assert all(f.ring == a.ring for f in a.equations)
        if b.inequation is None:
            assert a.inequation is None
        else:
            assert a.inequation.terms == b.inequation.terms
            assert a.inequation.ring == a.ring


def systems_or_error(build, *args):
    try:
        return build(*args)
    except ParseError as err:
        return f"ParseError: {err}"


def check_sentence(text, ctx):
    sentence = eliminate_valuation_atoms(parse(text))
    new = systems_or_error(to_systems, sentence, ctx)
    want = systems_or_error(old.to_systems, sentence, ctx)
    if isinstance(want, str):
        assert new == want, text
    else:
        assert not isinstance(new, str), (text, new)
        assert_same_systems(new, want)


@pytest.mark.parametrize("label, ctx, text", [(c[0], c[1], c[2]) for c in CRITERION_8])
def test_criterion_8_systems_match_the_rational_route(label, ctx, text):
    check_sentence(text, ctx)


@pytest.mark.parametrize(
    "text",
    [
        # the t-content of the numerator cancels part of the denominator
        "exists X. (t*X + t)/t = 1",
        "exists X. (t*t*X + t)/(t*t) = X",
        "exists X, Y. X/(1 + t) = Y/(1 + t)",
        "exists X, Y. (X/t + Y/(1 + t))^2 = 1/(t*t + t)",
        "exists X. ((X/t)/(1 + 1/t))^3 = (1/t + 1/(1 + t))^2",
        "exists X. 2*X/(2 + t) = 1 & ~(X/t = 0) & ~((X + 1)/(t + t*t) = 1/t)",
        "exists X. X/(1 + 2) = 1",
        "exists X. 0*X = 1/t",
        "exists X. ~(X - X = 0)",
        "exists X. ~(1/t = 0) & X*X = 1",
        "exists X. O(X/t) & ~O(1/(X + t))",
    ],
)
def test_denominator_edge_cases_match_the_rational_route(text):
    check_sentence(text, F3)


def test_explicit_constants_enter_as_their_fraction():
    t = RationalFunction.from_unipoly(UniPoly(F3, [0, 1]))
    value = (t + RationalFunction.const(F3, 1)).inv() * t * t  # t^2/(1 + t)
    x = TVar("X")
    for formula in (
        Eq(TOp("*", TConst(value), x), TConst(value.inv())),
        Not(Eq(TOp("/", x, TConst(value)), TConst(t))),
    ):
        s = Sentence(["X"], formula)
        assert_same_systems(to_systems(s, F3), old.to_systems(s, F3))


# -- seeded fuzz ----------------------------------------------------------------

# X-free terms to divide by: t-polynomials, fractions, nested fractions, and
# "1 + 2", which is zero over F_3 (a division by zero in both routes)
DIVISORS = ["t", "1 + t", "2 + t*t", "t*t + t", "1/t", "1/(1 + t)", "(1 + t)/(t - 1)",
            "(1/t)/(1 + 1/t)", "t^2 - 1", "1 + 2", "2"]
LEAVES = ["{v}", "{v}", "{w}", "0", "1", "2", "t", "1/t", "{v}/(1 + t)", "t*t", "(1 + t)"]


def random_term(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(LEAVES).format(v=rng.choice(names), w=rng.choice(names))
    op = rng.choice("+-*/^")
    left = random_term(rng, names, depth - 1)
    if op == "/":
        return f"({left})/({rng.choice(DIVISORS)})"
    if op == "^":
        return f"({left})^{rng.randrange(0, 4)}"
    return f"({left}) {op} ({random_term(rng, names, depth - 1)})"


def random_sentence(rng):
    names = ["X", "Y"][: rng.randrange(1, 3)]
    atoms = []
    for _ in range(rng.randrange(1, 4)):
        roll = rng.random()
        if roll < 0.15:
            atom = f"O({random_term(rng, names, 2)})"
        else:
            atom = f"{random_term(rng, names, 3)} = {random_term(rng, names, 2)}"
        if rng.random() < 0.35:
            atom = f"~({atom})" if "=" in atom else f"~{atom}"
        atoms.append(atom)
    body = atoms[0]
    for atom in atoms[1:]:
        body = f"({body} {rng.choice('&|')} {atom})"
    return f"exists {', '.join(names)}. {body}"


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_systems_match_the_rational_route(seed):
    rng = random.Random(20260 + seed)
    for i in range(60):
        ctx = FIELDS[i % len(FIELDS)]
        check_sentence(random_sentence(rng), ctx)


# -- system files -----------------------------------------------------------------


SYSTEM_FILES = [
    "vars X\neq 1\n",
    "vars X\neq 0\neq X - t\n",
    "vars X\neq 1/t\nneq X\n",
    "vars X Y\neq t - t\neq (t*X + t)/t - 1\nneq 0\n",
    "vars X Y\neq X*Y - 1\nneq 0\nneq Y\n",
    "vars X\neq X*X - t\nneq 2\nneq X/(1 + t)\nneq 1/t\n",
    "vars X Y\neq (X/t + Y/(1 + t))^2 - 1/(t*t + t)\nneq (X - 1)/(t - 1)\nneq Y/t\n",
    "vars X\nneq X\nneq 1 + 2\n",
    "vars X\neq X/(1 + 2)\n",
]


@pytest.mark.parametrize("text", SYSTEM_FILES)
def test_system_files_match_the_rational_route(tmp_path, text):
    path = tmp_path / "case.system"
    path.write_text(text, encoding="utf-8")
    lines = text.strip().splitlines()
    names = lines[0].split()[1:]
    terms = {"eq": [], "neq": []}
    for line in lines[1:]:
        kind, body = line.split(None, 1)
        terms[kind].append(parse_term_text(body))
    new = systems_or_error(load_system_file, str(path), F3)
    want = systems_or_error(old.load_system, names, terms["eq"], terms["neq"], F3)
    if isinstance(want, str):
        # the file route places the error at its line; the message is the same
        assert isinstance(new, str) and new.startswith(want.rsplit(" at ", 1)[0]), new
    else:
        assert not isinstance(new, str), new
        assert_same_systems([new], [want])
