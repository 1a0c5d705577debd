"""Sentence front-end: parse existential sentences over F_q((t)) with the
valuation-ring predicate O( ) and the uniformizer, eliminate O-atoms by their
existential definition, normalize to a disjunction of equation-plus-inequation
systems, and aggregate the per-system verdicts.

Quantified variables range over the valuation ring F_q[[t]]; constants may be
arbitrary F_q(t) values, so O(c) for a constant c is a real condition.  Every
unknown is integral, so a polynomial over F_q[t] in the unknowns (a term with
no division and no explicit F_q(t) constant) is integral too: the positive
atom O(s) of such a term always holds and becomes the true literal 0 = 0,
with no fresh unknown.  Every other O-atom needs one fresh unknown and one
equation: O(s) becomes  exists y: y = s,  which holds exactly when s is
integral; the negative atom becomes  exists w: t*s*w = 1,  which holds for
some w in F_q[[t]] exactly when v(s) = -1 - v(w) < 0.  ~O(s) keeps that
equation even for polynomial s, where it is unsolvable: the truncation
decider refutes it at level 1, and that refutation level is part of the
verdict, which a false literal in its place would lose.  The paper's
Artin-Schreier form  y^2 + y = t*s^2  is needed only where unknowns range
over all of F_q((t)).
Systems are built over F_q[X, t]; F_q(t) appears here only as the type of an
explicit constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ff import FqContext
from .ideal import cancel_content
from .poly import PolyRing, RationalFunction
from .resolve import AffineSystem, RunConfig, decide_existential
from .verdict import SAT, UNKNOWN, UNSAT, Verdict


class ParseError(ValueError):
    """A parse error at a column (1-based) of the text, and at a line of a
    file when line is given."""

    def __init__(self, message, column, line=None):
        where = f"column {column}" if line is None else f"line {line}, column {column}"
        super().__init__(f"{message} at {where}")
        self.message, self.column = message, column


# ---------------------------------------------------------------------------
# terms and formulas


@dataclass(frozen=True)
class TNum:
    value: int


@dataclass(frozen=True)
class TConst:
    # an explicit F_q(t) constant (AST-level injections); the system builder
    # takes it as the pair (num, den) over F_q[X, t], not as an F_q(t) value
    value: RationalFunction


@dataclass(frozen=True)
class TVar:
    name: str
    col: int = field(default=1, compare=False, repr=False)  # of its token


@dataclass(frozen=True)
class TUnif:
    pass


@dataclass(frozen=True)
class TOp:
    op: str  # + - * / ^
    left: object
    right: object
    col: int = field(default=1, compare=False, repr=False)  # of the operator token


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class InRing:
    term: object


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass
class Sentence:
    variables: list
    formula: object

    def unbound_variables(self):
        """The TVar nodes of names the sentence does not bind, in order."""
        bound = set(self.variables)

        def walk_term(t):
            if isinstance(t, TVar):
                yield t
            elif isinstance(t, TOp):
                yield from walk_term(t.left)
                yield from walk_term(t.right)

        def walk(f):
            if isinstance(f, (And, Or)):
                yield from walk(f.left)
                yield from walk(f.right)
            elif isinstance(f, Not):
                yield from walk(f.inner)
            elif isinstance(f, Eq):
                yield from walk_term(f.left)
                yield from walk_term(f.right)
            elif isinstance(f, InRing):
                yield from walk_term(f.term)

        return [v for v in walk(self.formula) if v.name not in bound]


# ---------------------------------------------------------------------------
# lexer / parser

_UNIFORMIZER_NAMES = {"t", "w", "pi"}


def _tokenize(text, start=0):
    """The tokens of text[start:], with their columns (1-based) in text."""
    tokens = []
    i = start
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        # ASCII only: str.isdigit and isalnum also take other scripts' digits
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("num", int(text[i:j]), col))
            i = j
        elif ch.isascii() and ch.isalpha():
            j = i
            while j < n and text[j].isascii() and text[j].isalnum():
                j += 1
            word = text[i:j]
            tokens.append(("word", word, col))
            i = j
        elif ch in "+-*/^=&|~().,":
            tokens.append((ch, ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", col)
    tokens.append(("end", None, n + 1))
    return tokens


def _declare(variables, tok):
    """Append the variable name of the token to variables: a word that is
    neither a uniformizer name nor a keyword, declared once."""
    kind, name, col = tok
    if kind != "word":
        raise ParseError("expected a variable name", col)
    if name in _UNIFORMIZER_NAMES or name in ("exists", "O"):
        raise ParseError(f"{name!r} cannot be a variable", col)
    if name in variables:
        raise ParseError(f"duplicate variable {name!r}", col)
    variables.append(name)


class _Parser:
    def __init__(self, text, start=0):
        self.tokens = _tokenize(text, start)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {kind!r}, found {found}", tok[2])
        return tok

    def parse_sentence(self):
        variables = []
        kind, value, col = self.peek()
        if kind == "word" and value == "exists":
            self.next()
            while True:
                tok = self.next()
                _declare(variables, tok)
                if self.peek()[0] == ",":
                    self.next()
                    continue
                if self.peek()[0] == "word":
                    continue
                break
            self.expect(".")
        formula = self.parse_formula()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        sentence = Sentence(variables, formula)
        unbound = sentence.unbound_variables()
        if unbound:
            raise ParseError(f"unbound variable {unbound[0].name!r}", unbound[0].col)
        return sentence

    def parse_formula(self):
        left = self.parse_conjunction()
        while self.peek()[0] == "|":
            self.next()
            left = Or(left, self.parse_conjunction())
        return left

    def parse_conjunction(self):
        left = self.parse_unary()
        while self.peek()[0] == "&":
            self.next()
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self):
        kind, value, col = self.peek()
        if kind == "~":
            self.next()
            return Not(self.parse_unary())
        if kind == "(":
            # parenthesized formula or a term-level parenthesis of an atom:
            # parse a formula, and on a ParseError back up and parse an atom
            save = self.pos
            try:
                self.next()
                inner = self.parse_formula()
                self.expect(")")
                return inner
            except ParseError as formula_error:
                self.pos = save
                try:
                    return self.parse_atom()
                except ParseError as atom_error:
                    # report the attempt that got furthest
                    raise max(atom_error, formula_error, key=lambda e: e.column) from None
        return self.parse_atom()

    def parse_atom(self):
        kind, value, col = self.peek()
        if kind == "word" and value == "O":
            save = self.pos
            self.next()
            if self.peek()[0] == "(":
                self.next()
                term = self.parse_term()
                self.expect(")")
                return InRing(term)
            self.pos = save
        left = self.parse_term()
        self.expect("=")
        right = self.parse_term()
        return Eq(left, right)

    def parse_term(self):
        left = self.parse_product()
        while self.peek()[0] in ("+", "-"):
            op, _, col = self.next()
            left = TOp(op, left, self.parse_product(), col)
        return left

    def parse_product(self):
        left = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op, _, col = self.next()
            left = TOp(op, left, self.parse_factor(), col)
        return left

    def parse_factor(self):
        kind, value, col = self.peek()
        if kind == "-":
            self.next()
            inner = self.parse_factor()
            return TOp("-", TNum(0), inner, col)
        base = self.parse_base()
        while self.peek()[0] == "^":
            col = self.next()[2]
            tok = self.next()
            if tok[0] != "num":
                raise ParseError("exponent must be an integer literal", tok[2])
            base = TOp("^", base, TNum(tok[1]), col)
        return base

    def parse_base(self):
        kind, value, col = self.next()
        if kind == "num":
            return TNum(value)
        if kind == "word":
            if value in _UNIFORMIZER_NAMES:
                return TUnif()
            return TVar(value, col)
        if kind == "(":
            inner = self.parse_term()
            self.expect(")")
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", col)
        raise ParseError(f"unexpected token {value!r}", col)


def parse(text: str) -> Sentence:
    """Parse a sentence: [exists <vars> .] <formula>."""
    return _Parser(text).parse_sentence()


def parse_variables(text: str, start=0):
    """Parse a list of variable names separated by blanks (the header of a
    system file), under the rules of a sentence's exists clause.  Parsing
    starts at index start; error columns count from the start of text."""
    variables = []
    for tok in _tokenize(text, start)[:-1]:
        _declare(variables, tok)
    return variables


def parse_term_text(text: str, start=0):
    """Parse a bare polynomial term (for system files), starting at index
    start; error columns, in term nodes too, count from the start of text."""
    p = _Parser(text, start)
    term = p.parse_term()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return term


def unparse_term(term) -> str:
    if isinstance(term, TNum):
        return str(term.value)
    if isinstance(term, TUnif):
        return "t"
    if isinstance(term, TVar):
        return term.name
    if isinstance(term, TOp):
        if term.op == "^":
            return f"({unparse_term(term.left)})^{term.right.value}"
        return f"({unparse_term(term.left)} {term.op} {unparse_term(term.right)})"
    raise ValueError(f"cannot print {term!r} (explicit constants have no surface syntax)")


def unparse_formula(formula) -> str:
    if isinstance(formula, And):
        return f"({unparse_formula(formula.left)} & {unparse_formula(formula.right)})"
    if isinstance(formula, Or):
        return f"({unparse_formula(formula.left)} | {unparse_formula(formula.right)})"
    if isinstance(formula, Not):
        return f"~{unparse_formula(formula.inner)}"
    if isinstance(formula, Eq):
        return f"{unparse_term(formula.left)} = {unparse_term(formula.right)}"
    if isinstance(formula, InRing):
        return f"O({unparse_term(formula.term)})"
    raise AssertionError(f"unknown formula node {formula!r}")


def unparse(sentence: Sentence) -> str:
    head = ""
    if sentence.variables:
        head = "exists " + ", ".join(sentence.variables) + ". "
    return head + unparse_formula(sentence.formula)


# ---------------------------------------------------------------------------
# negation normal form and O-elimination


def nnf(formula, negate=False):
    if isinstance(formula, Not):
        return nnf(formula.inner, not negate)
    if isinstance(formula, And):
        parts = (nnf(formula.left, negate), nnf(formula.right, negate))
        return Or(*parts) if negate else And(*parts)
    if isinstance(formula, Or):
        parts = (nnf(formula.left, negate), nnf(formula.right, negate))
        return And(*parts) if negate else Or(*parts)
    return Not(formula) if negate else formula


def _fresh(base, taken, counter):
    while True:
        counter += 1
        name = f"{base}{counter}"
        if name not in taken:
            taken.add(name)
            return name, counter


def _is_polynomial(term) -> bool:
    """Whether term is a polynomial over F_q[t] in the unknowns: it has no
    division and no explicit F_q(t) constant."""
    if isinstance(term, TOp):
        return term.op != "/" and _is_polynomial(term.left) and _is_polynomial(term.right)
    return not isinstance(term, TConst)


def eliminate_valuation_atoms(sentence: Sentence) -> Sentence:
    """Rewrite O-atoms away: O(s) of a polynomial s as the true literal
    0 = 0, every other O(s) as the linear equation y = s in one fresh
    unknown y, and every ~O(s) as t*s*w = 1 in one fresh unknown w.  All are
    sound because the unknowns, y and w among them, range over F_q[[t]]: a
    polynomial in them is integral, and with s = N/d, d*y = N has an
    integral solution exactly when N/d is integral.  ~O(s) of a polynomial s
    is false, yet keeps its equation: the truncation decider refutes
    t*s*w = 1 at level 1, and the verdict keeps that refutation level."""
    matrix = nnf(sentence.formula)
    taken = set(sentence.variables) | _UNIFORMIZER_NAMES
    new_vars = list(sentence.variables)
    counters = {"y": 0, "w": 0}

    def fresh(base):
        name, counters[base] = _fresh(base, taken, counters[base])
        new_vars.append(name)
        return TVar(name)

    def rewrite(f):
        if isinstance(f, And):
            return And(rewrite(f.left), rewrite(f.right))
        if isinstance(f, Or):
            return Or(rewrite(f.left), rewrite(f.right))
        if isinstance(f, InRing):
            if _is_polynomial(f.term):
                return Eq(TNum(0), TNum(0))
            # y ranges over F_q[[t]], so y = s says v(s) >= 0
            return Eq(fresh("y"), f.term)
        if isinstance(f, Not):
            inner = f.inner
            if isinstance(inner, InRing):
                # w ranges over F_q[[t]], so t*s*w = 1 says v(s) <= -1
                return Eq(TOp("*", TOp("*", TUnif(), inner.term), fresh("w")), TNum(1))
            if isinstance(inner, Eq):
                return f
            raise AssertionError("negation normal form leaked a compound negation")
        return f

    return Sentence(new_vars, rewrite(matrix))


# ---------------------------------------------------------------------------
# systems


# A term is built as a pair (N, d) standing for N/d: N over the system's
# ring F_q[X, t] and d a nonzero polynomial in t alone.  Nothing is reduced
# on the way; an equation is cleared once at the end, and the cleared
# polynomial depends on N/d only, not on the pair that stands for it.


def _combine(op, a, b):
    """The pair of a op b, op one of + - *."""
    (n1, d1), (n2, d2) = a, b
    if op == "*":
        return n1 * n2, d1 * d2
    if d1 != d2:
        n1, n2, d1 = n1 * d2, n2 * d1, d1 * d2
    return (n1 + n2 if op == "+" else n1 - n2), d1


def term_pair(term, ring: PolyRing, var_index):
    """The term as a pair (N, d) standing for N/d, N over ring = F_q[X, t]
    and d a nonzero polynomial in t alone; division by an X-free term
    multiplies across.  Errors carry the column of their token."""
    if isinstance(term, TNum):
        return ring.const(term.value), ring.one()
    if isinstance(term, TConst):
        x0, value = (0,) * len(ring.xslots), term.value
        return tuple(ring.from_coefficients({x0: u}) for u in (value.num, value.den))
    if isinstance(term, TUnif):
        return ring.var(ring.tpos), ring.one()
    if isinstance(term, TVar):
        if term.name not in var_index:
            raise ParseError(f"unbound variable {term.name!r}", term.col)
        return ring.var(var_index[term.name]), ring.one()
    if isinstance(term, TOp):
        left = term_pair(term.left, ring, var_index)
        if term.op == "^":
            k = term.right.value
            return left[0] ** k, left[1] ** k
        right = term_pair(term.right, ring, var_index)
        if term.op == "/":
            if right[0].x_degree() > 0:
                raise ParseError("division by a variable term is not allowed", term.col)
            if not right[0]:
                raise ParseError("division by zero", term.col)
            return left[0] * right[1], left[1] * right[0]
        if term.op in ("+", "-", "*"):
            return _combine(term.op, left, right)
        raise AssertionError(f"unknown operator {term.op}")
    raise AssertionError(f"unknown term node {term!r}")


def _cleared(pair):
    """N/d scaled by the lcm of its reduced coefficient denominators, for the
    pair (N, d): N divided by gcd(d, c), c the F_q[t] content of N, and by
    the leading coefficient of d."""
    n, d = pair
    if not n:
        return n
    scale = d.lead_coeff().inv()
    if not d.is_constant():
        (den,) = d.x_coefficients().values()
        n = cancel_content(n, den)
    return n if scale is scale.ctx.one() else n.scale(scale)


def cleared_system(ring, equations, inequation_factors) -> AffineSystem:
    """The system N/d = 0 for each pair of equations, and the product of the
    pairs of inequation_factors != 0, each cleared once into ring."""
    g = None
    if inequation_factors:
        product = inequation_factors[0]
        for factor in inequation_factors[1:]:
            product = _combine("*", product, factor)
        g = _cleared(product)
    return AffineSystem(ring, [_cleared(f) for f in equations], g)


def _dnf(formula):
    if isinstance(formula, Or):
        return _dnf(formula.left) + _dnf(formula.right)
    if isinstance(formula, And):
        return [a + b for a in _dnf(formula.left) for b in _dnf(formula.right)]
    return [[formula]]


def to_systems(sentence: Sentence, ctx: FqContext):
    """Disjunctive normal form, one AffineSystem per disjunct over the ring
    F_q[X, t]: equalities as f = 0, negated equalities merged into a single
    product inequation.  Each side of an atom is built as a pair (N, d) over
    F_q[X, t] (see term_pair) and each equation is cleared once, so nothing
    is built over F_q(t)."""
    ring = PolyRing(ctx, tuple(sentence.variables) + ("t",))
    var_index = {name: i for i, name in enumerate(sentence.variables)}
    systems = []
    for disjunct in _dnf(sentence.formula):
        eqs = []
        ineq_factors = []
        infeasible = False
        for literal in disjunct:
            negated = isinstance(literal, Not)
            atom = literal.inner if negated else literal
            if not isinstance(atom, Eq):
                raise AssertionError("to_systems needs an O-free literal matrix")
            f = _combine(
                "-", term_pair(atom.left, ring, var_index), term_pair(atom.right, ring, var_index)
            )
            if f[0].x_degree() <= 0:
                # a nonzero constant = 0 and ~(0 = 0) are false; 0 = 0 and a
                # nonzero constant != 0 are true
                if bool(f[0]) != negated:
                    infeasible = True
                    break
                continue
            (ineq_factors if negated else eqs).append(f)
        if infeasible:
            systems.append(AffineSystem(ring, [ring.one()]))
            continue
        systems.append(cleared_system(ring, eqs, ineq_factors))
    return systems


def decide(sentence, ctx: FqContext, config: RunConfig | None = None) -> Verdict:
    """Decide a sentence over F_q((t)): SAT if some disjunct is SAT (first in
    order), UNSAT if all are, otherwise UNKNOWN."""
    if isinstance(sentence, str):
        sentence = parse(sentence)
    if config is None:
        config = RunConfig()
    eliminated = eliminate_valuation_atoms(sentence)
    systems = to_systems(eliminated, ctx)
    trace = [f"{len(systems)} disjunct(s) after normalization"]
    branches = []
    for i, system in enumerate(systems):
        trace.append(f"disjunct {i}: {len(system.equations)} equation(s)"
                     + (", inequation present" if system.inequation is not None else ""))
        v = decide_existential(system, config, trace)
        if v.is_sat:
            trace.append(f"disjunct {i} is satisfiable")
            return Verdict(
                SAT,
                witness=v.witness,
                certificate=v.certificate,
                inequation_valuation=v.inequation_valuation,
                branches=branches + [v],
                trace=trace,
                system=v.system,
            )
        branches.append(v)
    if all(v.is_unsat for v in branches):
        return Verdict(UNSAT, branches=branches, trace=trace,
                       refuted_at=next((v.refuted_at for v in branches if v.refuted_at), None))
    reasons = sorted({v.reason for v in branches if v.is_unknown})
    return Verdict(UNKNOWN, reason=";".join(r for r in reasons if r), branches=branches, trace=trace)
