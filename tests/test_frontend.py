import pytest

from laurentdecide.ff import FqContext
from laurentdecide.frontend import (
    And,
    Eq,
    InRing,
    Not,
    Or,
    ParseError,
    Sentence,
    TConst,
    TNum,
    TOp,
    TUnif,
    TVar,
    decide,
    eliminate_valuation_atoms,
    nnf,
    parse,
    to_systems,
)
from laurentdecide.poly import RationalFunction, UniPoly
from laurentdecide.resolve import RunConfig
from laurentdecide.truncation import iter_solutions, weil_restrict

F2 = FqContext(2)
F3 = FqContext(3)
F4 = FqContext(2, 2)


# -- parsing ---------------------------------------------------------------


def test_parse_simple_equation():
    s = parse("exists X. X*X = 1 + t")
    assert s.variables == ["X"]
    assert isinstance(s.formula, Eq)
    assert s.formula.left == TOp("*", TVar("X"), TVar("X"))
    assert s.formula.right == TOp("+", TNum(1), TUnif())


def test_parse_inring_and_negation():
    s = parse("exists X. O(X) & ~(X = 0)")
    assert s.variables == ["X"]
    f = s.formula
    assert isinstance(f, And)
    assert isinstance(f.left, InRing) and f.left.term == TVar("X")
    assert isinstance(f.right, Not)


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse("exists X. X = )")
    assert "column 15" in str(info.value)


@pytest.mark.parametrize(
    "sentence, column",
    [
        # the formula reading of the parenthesis gets further than the atom
        # reading, which stops at '=' (column 14)
        ("exists X. (X = )", 16),
        ("exists X. (X = 1", 17),
        # a term-level parenthesis: the atom reading gets further
        ("exists X. (X + 1) * = 0", 21),
    ],
)
def test_parenthesis_errors_report_the_furthest_attempt(sentence, column):
    with pytest.raises(ParseError) as info:
        parse(sentence)
    assert info.value.column == column


def test_expect_names_the_end_of_input():
    # the token kind at the end of the text used to print as "found None"
    with pytest.raises(ParseError) as info:
        parse("exists X. (X = 1")
    assert str(info.value) == "expected ')', found end of input at column 17"


def test_parse_unbound_variable():
    with pytest.raises(ParseError) as info:
        parse("exists X. X = Y")
    assert "unbound" in str(info.value)


@pytest.mark.parametrize(
    "sentence, message",
    [
        ("exists X, Y. X*Y = 1 + X/0", "division by zero at column 25"),
        ("exists X. X = 1/(t - t)", "division by zero at column 16"),
        ("exists X. 1/X = t", "division by a variable term is not allowed at column 12"),
        ("exists X. X = Y", "unbound variable 'Y' at column 15"),
        ("exists X. X = 1 & ~(Y*X = 0)", "unbound variable 'Y' at column 21"),
        ("exists X. X = ", "unexpected end of input at column 15"),
    ],
)
def test_term_errors_report_the_column_of_their_token(sentence, message):
    # division errors point at the '/' and unbound variables at the name;
    # both used to say column 1
    with pytest.raises(ParseError) as info:
        to_systems(eliminate_valuation_atoms(parse(sentence)), F3)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "sentence, message",
    [
        # a superscript two used to escape as a bare ValueError from int()
        ("exists X. X = \u00b2", "unexpected character '\u00b2' at column 15"),
        # an Arabic-Indic digit one used to read as 1 (and answer SAT)
        ("exists X. X*X = \u0661", "unexpected character '\u0661' at column 17"),
        ("exists X. X = 1\u0661", "unexpected character '\u0661' at column 16"),
        ("exists X\u0661. X = 1", "unexpected character '\u0661' at column 9"),
        ("exists \u00c9. \u00c9 = 1", "unexpected character '\u00c9' at column 8"),
    ],
)
def test_integers_and_names_are_ascii(sentence, message):
    with pytest.raises(ParseError) as info:
        parse(sentence)
    assert str(info.value) == message



def test_term_nodes_compare_without_their_columns():
    assert parse("exists X. X*X = 1").formula.left == TOp("*", TVar("X"), TVar("X"))
    assert parse("exists X.   X =  1").formula.left.col == 13


def test_parse_closed_sentence():
    s = parse("O(t) & ~O(1/t)")
    assert s.variables == []


def _neg(term):
    return TOp("-", TNum(0), term)


@pytest.mark.parametrize(
    "left, tree",
    [
        ("-X", _neg(TVar("X"))),
        ("X*-X", TOp("*", TVar("X"), _neg(TVar("X")))),
        # the minus binds looser than the power: -(X^2), not (-X)^2
        ("-X^2", _neg(TOp("^", TVar("X"), TNum(2)))),
        ("--X", _neg(_neg(TVar("X")))),
    ],
)
def test_unary_minus_is_a_factor(left, tree):
    assert parse(f"exists X. {left} = 1").formula.left == tree


@pytest.mark.parametrize(
    "sentence, status, digit",
    [
        ("exists X. -X = 1", "sat", 2),
        ("exists X. X*-X = 2", "sat", 1),
        ("exists X. --X = 2", "sat", 2),
        # -(X^2) = 2 is X^2 = 1; (-X)^2 = 2 is X^2 = 2, and 2 is no square mod 3
        ("exists X. -X^2 = 2", "sat", 1),
        ("exists X. (-X)^2 = 2", "unsat", None),
    ],
)
def test_decide_reads_unary_minus(sentence, status, digit):
    v = decide(sentence, F3)
    assert v.status == status
    if digit is not None:
        assert v.witness[0].coeffs[0].coords == (digit,)


def test_variables_may_be_separated_by_blanks():
    assert parse("exists X Y. X = Y").variables == ["X", "Y"]
    assert parse("exists X Y, Z. X = Y + Z").variables == ["X", "Y", "Z"]


@pytest.mark.parametrize(
    "sentence, message",
    [
        ("exists X. X = 1 X", "unexpected trailing input 'X' at column 17"),
        ("exists X. X = 1 )", "unexpected trailing input ')' at column 17"),
        ("exists X. X^X = 1", "exponent must be an integer literal at column 13"),
        ("exists X. X^t = 1", "exponent must be an integer literal at column 13"),
    ],
)
def test_parse_errors_after_a_term_name_their_column(sentence, message):
    with pytest.raises(ParseError) as info:
        parse(sentence)
    assert str(info.value) == message


def test_parse_uniformizer_aliases():
    for alias in ("t", "w", "pi"):
        s = parse(f"exists X. X = {alias}")
        assert s.formula.right == TUnif()


def test_parse_rejects_uniformizer_as_variable():
    with pytest.raises(ParseError):
        parse("exists t. t = 1")


def test_parse_constant_division():
    s = parse("exists X. X = 1/t")
    systems = to_systems(eliminate_valuation_atoms(s), F3)
    assert len(systems) == 1
    # X = 1/t clears to tX - 1 (up to sign/unit)
    (sys,) = systems
    assert len(sys.equations) == 1
    f = sys.equations[0]
    assert f.ring.names == ("X", "t")
    assert set(f.terms) == {(1, 1), (0, 0)}


def test_variable_denominator_rejected():
    s = parse("exists X. 1/X = t")
    with pytest.raises(ParseError):
        to_systems(eliminate_valuation_atoms(s), F3)


# -- negation normal form -----------------------------------------------------


def test_nnf_de_morgan():
    a = Eq(TVar("X"), TNum(0))
    b = Eq(TVar("Y"), TNum(1))
    f = nnf(Not(And(a, b)))
    assert isinstance(f, Or)
    assert isinstance(f.left, Not) and f.left.inner == a
    f2 = nnf(Not(Or(a, b)))
    assert isinstance(f2, And)
    f3 = nnf(Not(Not(a)))
    assert f3 == a


# -- valuation-atom elimination -------------------------------------------------


def test_eliminate_positive_inring():
    one_over_t = TOp("/", TNum(1), TUnif())
    out = eliminate_valuation_atoms(Sentence([], InRing(one_over_t)))
    assert out.variables == ["y1"]
    # y = 1/t: y ranges over F_q[[t]], so the equation says 1/t is integral
    assert out.formula == Eq(TVar("y1"), one_over_t)
    # a polynomial in the unknowns is integral: O(X*X + t) always holds
    s = Sentence(["X"], InRing(TOp("+", TOp("*", TVar("X"), TVar("X")), TUnif())))
    out = eliminate_valuation_atoms(s)
    assert out.variables == ["X"]
    assert out.formula == Eq(TNum(0), TNum(0))
    (system,) = to_systems(out, F3)
    assert system.equations == [] and system.inequation is None


def test_eliminate_negative_inring():
    s = Sentence([], Not(InRing(TUnif())))
    out = eliminate_valuation_atoms(s)
    assert out.variables == ["w1"]
    assert isinstance(out.formula, Eq)


def test_eliminate_fresh_names_avoid_collisions():
    atom = InRing(TOp("/", TVar("y1"), TUnif()))
    s = Sentence(["y1"], And(Eq(TVar("y1"), TNum(0)), atom))
    out = eliminate_valuation_atoms(s)
    assert out.variables == ["y1", "y2"]


# -- to_systems ------------------------------------------------------------------


def test_to_systems_merges_inequations():
    s = parse("exists X, Y. X = 0 & ~(Y = 0) & ~(X = Y)")
    systems = to_systems(eliminate_valuation_atoms(s), F3)
    assert len(systems) == 1
    (sys,) = systems
    assert len(sys.equations) == 1
    assert sys.inequation is not None
    # the single inequation is the product Y * (X - Y)
    assert sys.inequation.total_degree() == 2


def test_to_systems_disjunction_splits():
    s = parse("exists X. X = 0 | X = 1")
    systems = to_systems(eliminate_valuation_atoms(s), F3)
    assert len(systems) == 2


def test_to_systems_model_preservation():
    # direct truncation-model check: the disjunction of system solvabilities
    # mod t^N must match direct evaluation of the matrix over F_q[t]/(t^N)
    s = parse("exists X. X*X = t | X = 1 + t")
    systems = to_systems(eliminate_valuation_atoms(s), F3)
    n = 2
    solvable = False
    for sys in systems:
        w = weil_restrict(sys.equations, sys.ring, n)
        if next(iter_solutions(w.restricted, w.ring), None) is not None:
            solvable = True
    # over F_3[t]/(t^2): X = 1+t solves the second disjunct
    assert solvable


# -- decide ---------------------------------------------------------------------


def test_decide_sqrt_sat():
    v = decide("exists X. X*X = 1 + t", F3)
    assert v.is_sat
    assert [c.coords[0] for c in v.witness[0].coeffs] == [1, 2]


def test_decide_sqrt_unsat():
    v = decide("exists X. X*X = t", F3)
    assert v.is_unsat


def test_decide_closed_atoms():
    v = decide("O(t) & ~O(1/t)", F3)
    assert v.is_sat


def test_decide_disjunction_first_sat_wins():
    v = decide("exists X. X*X = t | X = t", F3)
    assert v.is_sat
    assert v.witness is not None


def test_decide_inring_of_variable_is_trivial():
    # quantified variables range over the valuation ring, so O(X) adds nothing
    v = decide("exists X. O(X) & ~(X = 0)", F3)
    assert v.is_sat


def test_decide_negative_inring_of_variable_unsat():
    # ~O(X) for an integral variable can never hold
    v = decide("exists X. ~O(X)", F3)
    assert v.is_unsat


def test_ground_valuation_bank_small():
    # spot-checks of the criterion-4 bank shape: c * t^k integral iff k >= 0
    t = RationalFunction.from_unipoly(UniPoly(F3, [0, 1]))
    for k in (-2, -1, 0, 1, 2):
        x = t**k
        s = Sentence([], InRing(TConst(x)))
        v = decide(s, F3)
        assert v.is_sat == (k >= 0)
        s_neg = Sentence([], Not(InRing(TConst(x))))
        v_neg = decide(s_neg, F3)
        assert v_neg.is_sat == (k < 0)


def test_decide_unknown_on_starved_budget():
    v = decide("exists X. X*X = 1 + t", F3, RunConfig(max_precision=1))
    assert v.is_unknown
    assert "precision-exhausted" in v.reason


def test_constant_times_variable_division():
    # X = 1/t * Y clears to t*X - Y (up to unit)
    s = parse("exists X, Y. X = 1/t * Y")
    (sys,) = to_systems(eliminate_valuation_atoms(s), F3)
    (f,) = sys.equations
    assert set(f.terms) == {(1, 0, 1), (0, 1, 0)}


def test_unparse_round_trip():
    from laurentdecide.frontend import unparse

    texts = [
        "exists X. X*X = 1 + t",
        "exists X. O(X) & ~(X = 0)",
        "O(t) & ~O(1/t)",
        "exists X, Y. (X = t | Y = 1) & ~(X = Y)",
    ]
    for text in texts:
        s = parse(text)
        printed = unparse(s)
        s2 = parse(printed)
        # re-parsing the printout reproduces the sentence, and the
        # normalization is involutive through it
        assert unparse(s2) == printed
        e1 = eliminate_valuation_atoms(s)
        e2 = eliminate_valuation_atoms(s2)
        assert e1.variables == e2.variables
        assert unparse(Sentence(e1.variables, e1.formula)) == unparse(
            Sentence(e2.variables, e2.formula)
        )


def test_dnf_size_bounded_by_clause_product():
    from laurentdecide.frontend import _dnf

    # (a | b) & (c | d) & (e | f): DNF has at most 2*2*2 disjuncts
    s = parse(
        "exists X. (X = 0 | X = 1) & (X = t | X = 2) & (X = 1 + t | X = 1 + 2*t)"
    )
    disjuncts = _dnf(nnf(s.formula))
    assert len(disjuncts) == 8

