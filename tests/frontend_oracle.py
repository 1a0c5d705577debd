"""Oracle for the differential tests of the system builder in
laurentdecide.frontend and laurentdecide.cli: the route as it stood when every
atom was built over F_q(t)[X], copied verbatim.  Each side of an atom becomes
a polynomial with reduced F_q(t) coefficients, the sides are subtracted there,
and clear_denominators scales the difference by the lcm of its coefficient
denominators into F_q[X, t].  The system-file route is the body of
load_system_file after its lines are parsed.  clear_denominators and uni_lcm
left the package when its F_q(t) generators did; the copies here also serve
the fixtures of other tests that write F_q(t) polynomials over F_q[X, t].

eliminate_valuation_atoms is the O-elimination as it stood when O(s) was
the Artin-Schreier equation y^2 + y = t*s^2 in its fresh unknown y, copied
verbatim; tests/test_valuation_encoding.py decides sentences under both, and
tests/test_ideal.py captures Groebner inputs under it."""

from __future__ import annotations

from laurentdecide.ff import FqContext
from laurentdecide.frontend import (
    _UNIFORMIZER_NAMES,
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
    _dnf,
    _fresh,
    nnf,
)
from laurentdecide.poly import (
    MultiPoly,
    PolyRing,
    RationalFunction,
    RationalFunctionField,
    UniPoly,
    uni_gcd,
)
from laurentdecide.resolve import AffineSystem


def uni_lcm(a: UniPoly, b: UniPoly) -> UniPoly:
    if not a or not b:
        return UniPoly._make(a.ctx, [])
    return ((a * b) // uni_gcd(a, b)).monic()


def clear_denominators(equations):
    """Scale each equation over F_q(t)[X] by the lcm of its coefficient
    denominators, yielding equations over F_q[t][X] (t as a slot) with the
    same zero set over F_q((t))."""
    out = []
    for f in equations:
        ring = f.ring
        if not isinstance(ring.field, RationalFunctionField):
            raise TypeError("clear_denominators takes polynomials over F_q(t)")
        ctx = ring.field.ctx
        target = PolyRing(ctx, ring.names + ("t",))
        if not f:
            out.append(target.zero())
            continue
        lcm = UniPoly.const(ctx, 1)
        for c in f.terms.values():
            lcm = uni_lcm(lcm, c.den)
        terms = {}
        for e, c in f.terms.items():
            scaled = c.num * (lcm // c.den)
            for k, ck in enumerate(scaled.coeffs):
                if not ck:
                    continue
                e2 = e + (k,)
                terms[e2] = ck
        out.append(MultiPoly(target, terms))
    return out


def _term_to_poly(term, ring: PolyRing, var_index):
    ctx = ring.field.ctx
    if isinstance(term, TNum):
        return ring.const(term.value)
    if isinstance(term, TConst):
        return ring.const(term.value)
    if isinstance(term, TUnif):
        t = RationalFunction.from_unipoly(UniPoly(ctx, [0, 1]))
        return ring.const(t)
    if isinstance(term, TVar):
        if term.name not in var_index:
            raise ParseError(f"unbound variable {term.name!r}", term.col)
        return ring.var(var_index[term.name])
    if isinstance(term, TOp):
        left = _term_to_poly(term.left, ring, var_index)
        if term.op == "^":
            return left ** term.right.value
        right = _term_to_poly(term.right, ring, var_index)
        if term.op == "+":
            return left + right
        if term.op == "-":
            return left - right
        if term.op == "*":
            return left * right
        if term.op == "/":
            if not right.is_constant():
                raise ParseError("division by a variable term is not allowed", term.col)
            c = right.constant_value()
            if not c:
                raise ParseError("division by zero", term.col)
            return left.scale(c.inv())
        raise AssertionError(f"unknown operator {term.op}")
    raise AssertionError(f"unknown term node {term!r}")


def to_systems(sentence, ctx: FqContext):
    """Disjunctive normal form, one AffineSystem per disjunct: equalities as
    f = 0 with denominators cleared, negated equalities merged into a single
    product inequation."""
    rring = PolyRing(RationalFunctionField(ctx), tuple(sentence.variables))
    ring = PolyRing(ctx, tuple(sentence.variables) + ("t",))
    var_index = {name: i for i, name in enumerate(sentence.variables)}
    systems = []
    for disjunct in _dnf(sentence.formula):
        eqs_rat = []
        ineq_factors = []
        infeasible = False
        for literal in disjunct:
            if isinstance(literal, Eq):
                f = _term_to_poly(literal.left, rring, var_index) - _term_to_poly(
                    literal.right, rring, var_index
                )
                if f.is_constant():
                    if f:
                        infeasible = True
                        break
                    continue  # 0 = 0
                eqs_rat.append(f)
            elif isinstance(literal, Not) and isinstance(literal.inner, Eq):
                inner = literal.inner
                gi = _term_to_poly(inner.left, rring, var_index) - _term_to_poly(
                    inner.right, rring, var_index
                )
                if gi.is_constant():
                    if not gi:
                        infeasible = True  # ~(0 = 0)
                        break
                    continue  # nonzero constant != 0 is always true
                ineq_factors.append(gi)
            else:
                raise AssertionError("to_systems needs an O-free literal matrix")
        if infeasible:
            one = rring.one()
            systems.append(AffineSystem(ring, clear_denominators([one])))
            continue
        systems.append(affine_system(ring, eqs_rat, ineq_factors))
    return systems


def affine_system(ring, eqs_rat, ineq_factors) -> AffineSystem:
    """The system eqs_rat = 0, prod(ineq_factors) != 0 over F_q(t)[X], with
    denominators cleared into ring (the X variables plus the t slot)."""
    g = None
    if ineq_factors:
        product = ineq_factors[0]
        for h in ineq_factors[1:]:
            product = product * h
        (g,) = clear_denominators([product])
    return AffineSystem(ring, clear_denominators(eqs_rat), g)


def load_system(names, eq_terms, neq_terms, ctx: FqContext) -> AffineSystem:
    """The system of a file with header names and parsed eq and neq terms."""
    rring = PolyRing(RationalFunctionField(ctx), tuple(names))
    ring = PolyRing(ctx, tuple(names) + ("t",))
    var_index = {name: i for i, name in enumerate(names)}
    polys = {"eq": [], "neq": []}
    for kind, terms in (("eq", eq_terms), ("neq", neq_terms)):
        for term in terms:
            polys[kind].append(_term_to_poly(term, rring, var_index))
    return affine_system(ring, polys["eq"], polys["neq"])


def eliminate_valuation_atoms(sentence: Sentence) -> Sentence:
    """Rewrite O-atoms away, each with one fresh unknown: O(s) as the
    Artin-Schreier equation y^2 + y = t*s^2, ~O(s) as t*s*w = 1."""
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
            # y^2 + y = t * s^2
            y, target = fresh("y"), TOp("*", TUnif(), TOp("^", f.term, TNum(2)))
            return Eq(TOp("+", TOp("^", y, TNum(2)), y), target)
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
