"""Truncated t-adic arithmetic: elements of F_q[t]/(t^N) with explicit precision.

Precision is pessimistic (the min rule) and never grows implicitly; a series
whose stored coefficients all vanish has valuation AtLeast(N), never N, so
that certificate checks cannot overclaim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ff import FqContext
from .poly import MultiPoly, power, t_sum_repr


@dataclass(frozen=True)
class AtLeast:
    """Valuation lower bound: the truncation cannot distinguish 0 from t^N*u."""

    n: int

    def __repr__(self):
        return f"AtLeast({self.n})"


def val_ge(v, n: int) -> bool:
    """Is the valuation (int or AtLeast) certainly >= n?"""
    if isinstance(v, AtLeast):
        return v.n >= n
    return v >= n


def val_exact(v) -> bool:
    return not isinstance(v, AtLeast)


class TruncatedSeries:
    """An element of F_q[t]/(t^N): N stored coefficients plus the precision N.

    The constructor coerces its coefficients into ctx; arithmetic builds its
    results from elements of ctx directly and checks the context once per
    operation."""

    __slots__ = ("ctx", "coeffs", "precision")

    def __init__(self, ctx: FqContext, coeffs, precision: int | None = None):
        cs = [ctx.elem(c) for c in coeffs]
        if precision is None:
            precision = len(cs)
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if len(cs) < precision:
            cs += [ctx.zero()] * (precision - len(cs))
        self.ctx = ctx
        self.coeffs = tuple(cs[:precision])
        self.precision = precision

    @classmethod
    def _make(cls, ctx, coeffs, precision):
        """From precision elements of ctx, without coercion."""
        x = object.__new__(cls)
        x.ctx = ctx
        x.coeffs = tuple(coeffs)
        x.precision = precision
        return x

    def _same_field(self, other):
        if other.ctx is not self.ctx:
            raise ValueError("mixed-field arithmetic")

    @classmethod
    def zero(cls, ctx, precision):
        return cls(ctx, [], precision)

    @classmethod
    def one(cls, ctx, precision):
        return cls(ctx, [1], precision)

    @classmethod
    def t(cls, ctx, precision):
        if precision < 2:
            return cls.zero(ctx, precision)
        z = ctx.zero()
        return cls._make(ctx, [z, ctx.one()] + [z] * (precision - 2), precision)

    @classmethod
    def constant(cls, ctx, c, precision):
        return cls(ctx, [c], precision)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.ctx == other.ctx
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.precision))

    def __add__(self, other):
        self._same_field(other)
        n = min(self.precision, other.precision)
        return TruncatedSeries._make(
            self.ctx, [a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])], n
        )

    def __neg__(self):
        return TruncatedSeries._make(self.ctx, [-a for a in self.coeffs], self.precision)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same_field(other)
        n = min(self.precision, other.precision)
        z = self.ctx.zero()
        out = [z] * n
        for i, a in enumerate(self.coeffs[:n]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries._make(self.ctx, out, n)

    def __pow__(self, k: int):
        return power(self, k, TruncatedSeries.one(self.ctx, self.precision))

    def truncate(self, n: int) -> "TruncatedSeries":
        if n > self.precision:
            raise ValueError(f"cannot raise precision {self.precision} to {n}")
        return TruncatedSeries._make(self.ctx, self.coeffs[:n], n)

    def __repr__(self):
        return f"({t_sum_repr(self.coeffs)} + O(t^{self.precision}))"


def valuation(a: TruncatedSeries):
    """Index of the first nonzero stored coefficient, or AtLeast(precision)."""
    for i, c in enumerate(a.coeffs):
        if c:
            return i
    return AtLeast(a.precision)


def invert_unit(a: TruncatedSeries) -> TruncatedSeries:
    """Inverse of a t-adic unit (valuation 0), to full precision."""
    v = valuation(a)
    if v != 0:
        raise ValueError(f"not a unit: valuation {v}")
    inv0 = a.coeffs[0].inv()
    out = [inv0]
    for k in range(1, a.precision):
        acc = a.ctx.zero()
        for i in range(1, k + 1):
            acc = acc + a.coeffs[i] * out[k - i]
        out.append(-(inv0 * acc))
    return TruncatedSeries._make(a.ctx, out, a.precision)


def shift_right(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """Exact division by t^e; the e low coefficients must vanish.

    Costs e digits of precision: a known mod t^N determines a/t^e only
    mod t^(N-e)."""
    if e == 0:
        return a
    if any(a.coeffs[:e]):
        raise ValueError("division by t^e with nonzero low coefficients")
    if a.precision - e < 1:
        raise ValueError("shift consumes all precision")
    return TruncatedSeries._make(a.ctx, a.coeffs[e:], a.precision - e)


# the table of a coordinate equal to the series t: its powers are shifts
_SHIFT = "shift"


class PointTable:
    """Polynomials over F_q (t as a slot) evaluated at one series point.

    The point supplies one series per ring variable, all of one precision,
    which every value carries.  Each coordinate's powers are built on first
    use by successive multiplication, only up to the highest exponent asked
    for, and serve every later term and polynomial evaluated at the point.  A
    coordinate equal to the series t has no table: t^s is a shift.  A term's
    coefficient scales its monomial's value digit by digit.  The table lives
    as long as the caller holds it, one point only.
    """

    __slots__ = ("ctx", "precision", "point", "powers")

    def __init__(self, ring, point):
        if len(point) != ring.nvars:
            raise ValueError(f"need {ring.nvars} coordinates, got {len(point)}")
        if not point:
            raise ValueError("series evaluation needs at least the t coordinate")
        precision = point[0].precision
        ctx = point[0].ctx
        if ring.field is not ctx:
            raise ValueError("polynomial and point over different fields")
        for x in point:
            if x.precision != precision:
                raise ValueError("mixed precisions in evaluation point")
        self.ctx = ctx
        self.precision = precision
        self.point = point
        # powers[i]: None until coordinate i is used, then [None, x, x^2, ...],
        # or _SHIFT when x is the series t
        self.powers = [None] * len(point)

    def _powers_of(self, i):
        x = self.point[i]
        if x.ctx is not self.ctx:
            raise ValueError("mixed-field arithmetic")
        c = x.coeffs
        is_t = not c[0] and (len(c) == 1 or c[1] is x.ctx.one() and not any(c[2:]))
        pw = self.powers[i] = _SHIFT if is_t else [None, x]
        return pw

    def __call__(self, f: MultiPoly) -> TruncatedSeries:
        """The value of f, a polynomial over the ring the table was built for."""
        ctx, n, powers = self.ctx, self.precision, self.powers
        acc = [ctx.zero()] * n
        for e, c in f.terms.items():
            shift = 0
            value = None
            for i, k in enumerate(e):
                if not k:
                    continue
                pw = powers[i]
                if pw is None:
                    pw = self._powers_of(i)
                if pw is _SHIFT:
                    shift += k
                    continue
                while len(pw) <= k:
                    pw.append(pw[-1] * pw[1])
                value = pw[k] if value is None else value * pw[k]
            if shift >= n:
                continue
            if value is None:
                acc[shift] = acc[shift] + c
                continue
            for j, b in enumerate(value.coeffs[: n - shift], shift):
                if b:
                    acc[j] = acc[j] + c * b
        return TruncatedSeries._make(ctx, acc, n)


def evaluate(f: MultiPoly, point) -> TruncatedSeries:
    """Evaluate a polynomial over F_q (t as a slot) at a series point; see
    PointTable, which evaluates several polynomials at one point."""
    return PointTable(f.ring, point)(f)


def valuation_at(f: MultiPoly, witness):
    """Valuation of f (over F_q, with t slot) at a witness for its unknowns.
    With no unknowns f is a polynomial in t alone: its exact t-valuation."""
    ring = f.ring
    if not witness:
        return min(e[ring.tpos] for e in f.terms)
    return valuation(point_table(ring, witness, witness[0].precision)(f))


def coeff_to_json(c):
    """FqElem as an int for prime fields, else the coordinate vector."""
    return c.coords[0] if c.ctx.n == 1 else list(c.coords)


def witness_to_json(witness):
    """{"precision": N, "coords": [[c_0..c_{N-1}], ...]} with coordinates in
    the fixed field basis."""
    if not witness:
        return {"precision": None, "coords": []}
    return {
        "precision": witness[0].precision,
        "coords": [[coeff_to_json(c) for c in x.coeffs] for x in witness],
    }


def point_table(ring, xs, precision) -> PointTable:
    """The table of the point with unknowns xs and t in the ring's slot."""
    return PointTable(ring, series_point(ring, xs, precision))


def series_point(f_ring, xs, precision):
    """Assemble the evaluation point for a ring with a t slot: the given
    coordinate series plus t in the slot position."""
    tpos = f_ring.tpos
    ctx = f_ring.field
    point = list(xs)
    if tpos is not None:
        point.insert(tpos, TruncatedSeries.t(ctx, precision))
    return point
