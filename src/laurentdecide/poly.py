"""Sparse multivariate polynomials over F_q and F_q(t).

Two coefficient domains share one term representation:

  * over F_q, the uniformizer t is a distinguished extra exponent slot
    (a variable named "t"), so "spreading out" t is a retag, not a
    conversion; the engine's systems live here, over F_q[X, t];
  * over F_q(t), coefficients are exact RationalFunction values (reduced
    fractions of univariate polynomials in t).  The engine computes over
    F_q[X, t] throughout, its Groebner bases included; these values are
    built only when ideal.radical_membership converts the certificate it
    returns (see to_rational_coeffs), besides the explicit constants of the
    front end and the CLI's certificate checks.

This module owns the split of a monomial into its unknowns X and its t
degree: PolyRing.tpos and PolyRing.xslots name the slots, and
MultiPoly.x_degree and MultiPoly.x_coefficients read a polynomial over
F_q[X, t] as one in X over F_q[t], its coefficients UniPoly values, and
PolyRing.from_coefficients builds one back, so other modules need not slice
exponents into the two.

The term order is graded reverse lexicographic everywhere; the zero
polynomial is the empty term map.
"""

from __future__ import annotations

from itertools import combinations
from operator import add, neg

from .ff import FqContext, FqElem


def power(base, k: int, one):
    """base^k for k >= 0 by repeated squaring, starting from the unit one;
    the one exponentiation loop of the polynomial and series types."""
    result = one
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def _factor_repr(cs):
    """A coefficient's repr cs as a factor of a product: parenthesized when
    it is a sum or a fraction."""
    return f"({cs})" if "+" in cs or "/" in cs else cs


def t_sum_repr(coeffs):
    """The sum of c_i*t^i over the nonzero coefficients, low to high; "0"
    when there is none."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        cs = repr(c)
        if i == 0:
            parts.append(cs)
        else:
            head = "" if cs == "1" else f"{_factor_repr(cs)}*"
            parts.append(f"{head}t" + (f"^{i}" if i > 1 else ""))
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# univariate polynomials over F_q (the coefficients of fraction-free
# Groebner bases, moduli of fractions, gcds, t-expansion of coefficients)


class UniPoly:
    """Dense univariate polynomial over F_q, coefficients low-to-high."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FqContext, coeffs):
        cs = [ctx.elem(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, ctx, cs):
        """From a list of elements of ctx, without coercion."""
        while cs and not cs[-1]:
            cs.pop()
        f = object.__new__(cls)
        f.ctx = ctx
        f.coeffs = tuple(cs)
        return f

    def _same_field(self, other):
        if other.ctx is not self.ctx:
            raise ValueError("mixed-field arithmetic")

    @classmethod
    def const(cls, ctx, c):
        return cls(ctx, [ctx.elem(c)])

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs and self.ctx is other.ctx

    def __hash__(self):
        return hash(self.coeffs)

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of zero polynomial")
        return len(self.coeffs) - 1

    def __add__(self, other):
        self._same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.ctx.zero()
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else z
            b = other.coeffs[i] if i < len(other.coeffs) else z
            out.append(a + b)
        return UniPoly._make(self.ctx, out)

    def __neg__(self):
        return UniPoly._make(self.ctx, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same_field(other)
        if not self or not other:
            return UniPoly._make(self.ctx, [])
        z = self.ctx.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return UniPoly._make(self.ctx, out)

    def __pow__(self, k: int):
        return power(self, k, UniPoly.const(self.ctx, 1))

    def divmod(self, other):
        """(quotient, remainder) by long division, in place on a copy of the
        coefficient list: each step clears the top coefficient of the
        remainder."""
        self._same_field(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        b = other.coeffs
        db = len(b) - 1
        r = list(self.coeffs)
        if len(r) <= db:
            return UniPoly._make(self.ctx, []), self
        inv_lead = b[-1].inv()
        q = [None] * (len(r) - db)
        for k in range(len(q) - 1, -1, -1):
            c = r[k + db] * inv_lead
            q[k] = c
            if c:
                for j in range(db):
                    r[k + j] = r[k + j] - c * b[j]
        return UniPoly._make(self.ctx, q), UniPoly._make(self.ctx, r[:db])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def scale(self, c):
        return UniPoly._make(self.ctx, [a * c for a in self.coeffs])

    def monic(self):
        return self.scale(self.coeffs[-1].inv()) if self else self

    def __repr__(self):
        return t_sum_repr(self.coeffs)


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over F_q by the Euclidean algorithm."""
    while b:
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# the field F_q(t)


class RationalFunction:
    """Reduced fraction num/den of univariate polynomials over F_q in t.

    den is monic and coprime to num.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = uni_gcd(num, den)
            if g.degree() > 0:
                num = num // g
                den = den // g
            lead_inv = den.coeffs[-1].inv()
            num, den = num.scale(lead_inv), den.scale(lead_inv)
        else:
            den = UniPoly.const(den.ctx, 1)
        self.num = num
        self.den = den

    @property
    def ctx(self):
        return self.den.ctx

    @classmethod
    def from_unipoly(cls, f: UniPoly):
        """f/1, reduced as it stands: no gcd is taken."""
        r = object.__new__(cls)
        r.num, r.den = f, UniPoly.const(f.ctx, 1)
        return r

    @classmethod
    def const(cls, ctx, c):
        return cls.from_unipoly(UniPoly.const(ctx, c))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inversion of zero in F_q(t)")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return power(self, k, RationalFunction.const(self.ctx, 1))

    def __repr__(self):
        if self.den.degree() == 0:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


class RationalFunctionField:
    """Coefficient-field descriptor for F_q(t)."""

    def __init__(self, ctx: FqContext):
        self.ctx = ctx

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and self.ctx == other.ctx

    def __hash__(self):
        return hash(("F_q(t)", self.ctx))

    def zero(self):
        return RationalFunction.const(self.ctx, 0)

    def one(self):
        return RationalFunction.const(self.ctx, 1)

    def from_int(self, k: int):
        return RationalFunction.const(self.ctx, k)

    def elem(self, v):
        if isinstance(v, (RationalFunction, UniPoly)):
            if v.ctx is not self.ctx:
                raise ValueError("element from a different field")
            return v if isinstance(v, RationalFunction) else RationalFunction.from_unipoly(v)
        if isinstance(v, (FqElem, int)):
            return RationalFunction.const(self.ctx, v)
        raise TypeError(f"cannot coerce {v!r} into F_q(t)")

    def __repr__(self):
        return f"Frac({self.ctx!r}[t])"


# ---------------------------------------------------------------------------
# term order


def grevlex_key(exps):
    """Sort key: larger key = larger monomial in graded reverse lex."""
    return (sum(exps), tuple(map(neg, reversed(exps))))


# ---------------------------------------------------------------------------
# multivariate polynomials


class PolyRing:
    """A polynomial ring descriptor: coefficient field + ordered variable names.

    A variable named "t" is the uniformizer slot; rings over F_q(t) must not
    declare one.  tpos is the index of the t slot (None without one), and
    xslots are the indices of the other variables, the unknowns.
    """

    def __init__(self, field, names):
        self.field = field
        self.names = tuple(names)
        if isinstance(field, RationalFunctionField) and "t" in self.names:
            raise ValueError("t cannot be both a variable and a coefficient")
        self.tpos = self.names.index("t") if "t" in self.names else None
        self.xslots = tuple(i for i in range(len(self.names)) if i != self.tpos)

    def fractions(self):
        """F_q(t)[X] for this ring F_q[X, t] over F_q: the t slot, if any,
        becomes the coefficients' variable."""
        return PolyRing(RationalFunctionField(self.field), [self.names[i] for i in self.xslots])

    @property
    def nvars(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.names)}]"

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self._coeff(c)
        if not c:
            return self.zero()
        return MultiPoly(self, {(0,) * self.nvars: c})

    def _coeff(self, c):
        return self.field.elem(c)

    def var(self, i: int):
        e = [0] * self.nvars
        e[i] = 1
        return MultiPoly(self, {tuple(e): self.field.one()})

    def from_coefficients(self, coefficients):
        """The polynomial whose MultiPoly.x_coefficients are coefficients
        ({X-exponent: UniPoly in t}), its terms in their order, each UniPoly's
        from t^0 up; one coefficient at X^0 gives a polynomial in t alone."""
        tpos = self.tpos
        return self.from_terms({x if tpos is None else x[:tpos] + (k,) + x[tpos:]: c
                                for x, u in coefficients.items() for k, c in enumerate(u.coeffs)})

    def from_terms(self, terms: dict):
        out = {}
        for exps, c in terms.items():
            c = self._coeff(c)
            if c:
                out[tuple(exps)] = c
        return MultiPoly(self, out)


class MultiPoly:
    """Sparse polynomial: map from exponent tuples to nonzero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _check(self, other):
        if not isinstance(other, MultiPoly) or (other.ring is not self.ring and other.ring != self.ring):
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
        return MultiPoly(self.ring, out)

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                if e in out:
                    s = out[e] + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                elif c:
                    out[e] = c
        return MultiPoly(self.ring, out)

    def __pow__(self, k: int):
        if len(self.terms) == 1:  # written out: exponents times k, coefficient to the k
            return MultiPoly(self.ring, {tuple(a * k for a in e): c**k for e, c in self.terms.items()})
        return power(self, k, self.ring.one())

    def scale(self, c):
        c = self.ring._coeff(c)
        if not c:
            return self.ring.zero()
        return MultiPoly(self.ring, {e: cc * c for e, cc in self.terms.items()})

    def mul_term(self, exps, c):
        """Multiply by the single term c * x^exps."""
        if not c:
            return self.ring.zero()
        return MultiPoly(
            self.ring,
            {tuple(map(add, e, exps)): cc * c for e, cc in self.terms.items()},
        )

    # -- order-dependent accessors

    def lead_monomial(self):
        if not self.terms:
            raise ValueError("leading monomial of zero")
        return max(self.terms, key=grevlex_key)

    def lead_coeff(self):
        return self.terms[self.lead_monomial()]

    def monic(self):
        if not self.terms:
            return self
        inv = self.lead_coeff().inv()
        return MultiPoly(self.ring, {e: c * inv for e, c in self.terms.items()})

    # -- structural accessors

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("total degree of the zero polynomial")
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        """Degree in variable i; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def x_degree(self) -> int:
        """Total degree in the unknowns (every slot but t); -1 for the zero
        polynomial."""
        tpos = self.ring.tpos
        return max((sum(e) - (0 if tpos is None else e[tpos]) for e in self.terms), default=-1)

    def x_coefficients(self):
        """The polynomial in the unknowns over F_q[t]: a map from each
        X-exponent (t slot dropped) to its coefficient as a UniPoly in t, in
        the order the terms first show them (constants for a ring without a
        t slot)."""
        tpos = self.ring.tpos
        ctx = self.ring.field
        zero = ctx.zero()
        columns = {}
        for e, c in self.terms.items():
            x, k = (e, 0) if tpos is None else (e[:tpos] + e[tpos + 1 :], e[tpos])
            cs = columns.setdefault(x, [])
            if k >= len(cs):
                cs += [zero] * (k + 1 - len(cs))
            cs[k] = c
        return {x: UniPoly._make(ctx, cs) for x, cs in columns.items()}

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def variables(self):
        """Indices of variables occurring with positive exponent."""
        seen = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    seen.add(i)
        return sorted(seen)

    def coeff_of(self, i: int, k: int):
        """Coefficient polynomial of x_i^k (exponent slot i dropped to 0)."""
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                e2 = list(e)
                e2[i] = 0
                out[tuple(e2)] = c
        return MultiPoly(self.ring, out)

    # -- calculus

    def partial(self, i: int):
        """Formal partial derivative; the char-p power rule is automatic.
        Lowering exponent i by one is injective on monomials, so no two
        terms land on one key."""
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            cc = c * self.ring.field.from_int(e[i])
            if cc:
                out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = cc
        return MultiPoly(self.ring, out)

    # -- substitution

    def compose(self, images, target: PolyRing):
        """Substitute images[i] (a MultiPoly in target) for variable i.

        Coefficients are carried over by target's coefficient coercion, so
        this also implements the F_q[t] -> F_q(t) retag when the image of
        the t slot is provided.
        """
        result = target.zero()
        for e, c in self.terms.items():
            term = target.const(c)
            for i, k in enumerate(e):
                if k:
                    term = term * images[i] ** k
            result = result + term
        return result

    def eval_coeffs(self, xs):
        """Exact evaluation at field elements (same coefficient field)."""
        acc = self.ring.field.zero()
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * xs[i] ** k
            acc = acc + v
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            cs = repr(c)
            for i, k in enumerate(e):
                if k:
                    factors.append(self.ring.names[i] + (f"^{k}" if k > 1 else ""))
            if not factors:
                parts.append(_factor_repr(cs))
            else:
                head = "" if cs == "1" else _factor_repr(cs) + "*"
                parts.append(head + "*".join(factors))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# derived operations


def jacobian(system, var_indices):
    """Matrix of partials: rows = equations, columns = var_indices."""
    return [[f.partial(j) for j in var_indices] for f in system]


def det_matrix(matrix, one):
    """Laplace-expansion determinant over any commutative ring; matrix sizes
    stay tiny (k <= 4 at desk scale).  The 0x0 determinant is one."""
    k = len(matrix)
    if k == 0:
        return one
    if k == 1:
        return matrix[0][0]
    if k == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    acc = None
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * det_matrix(minor, one)
        if acc is None:
            acc = term if j % 2 == 0 else -term
        else:
            acc = acc + term if j % 2 == 0 else acc - term
    return acc


def nonzero_minors(matrix, k, one):
    """{(rows, cols): det} of the size-k minors of matrix whose determinant
    is nonzero, rows then columns in lexicographic order."""
    minors = {}
    for rows in combinations(range(len(matrix)), k):
        for cols in combinations(range(len(matrix[0])), k):
            det = det_matrix([[matrix[i][j] for j in cols] for i in rows], one)
            if det:
                minors[rows, cols] = det
    return minors


def to_rational_coeffs(f: MultiPoly) -> MultiPoly:
    """f over F_q[X, t] read over F_q(t)[X]: the t slot is dropped, and the
    terms of each X-monomial become one coefficient in F_q[t].  A ring
    without a t slot keeps its variables and gets constant coefficients."""
    if not isinstance(f.ring.field, FqContext):
        raise TypeError("to_rational_coeffs takes a polynomial over F_q")
    out = {x: RationalFunction.from_unipoly(c) for x, c in f.x_coefficients().items()}
    return MultiPoly(f.ring.fractions(), out)
