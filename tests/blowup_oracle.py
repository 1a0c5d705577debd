"""Oracle for the differential tests of the blow-up step in
laurentdecide.resolve: the chart construction as it stood when it ran over
F_q(t), copied verbatim.  The curve and the inequation are retagged into
F_q(t), translated and blown up there, the chart equations come back through
clear_denominators, the singular points are read off the F_q(t) locus, and
chart witnesses are mapped back through t-adic expansions of the F_q(t)
coefficients.  The two valuations that expansion used are copied here as
functions, since their methods left the package with it."""

from __future__ import annotations

from itertools import combinations

from frontend_oracle import clear_denominators

from laurentdecide.poly import (
    MultiPoly,
    PolyRing,
    RationalFunctionField,
    det_matrix,
    jacobian,
    to_rational_coeffs,
)
from laurentdecide.resolve import BlowupChart
from laurentdecide.series import TruncatedSeries


def blow_up_origin(curve: MultiPoly):
    """Blow up a plane curve at the origin: two affine charts.

    Chart 0 substitutes Y = X*Y' and divides by X^mu; chart 1 substitutes
    X = Y*X' and divides by Y^mu.  Substituting a chart's back map into the
    curve recovers strict * exceptional^mu identically.
    """
    ring = curve.ring
    if ring.nvars != 2:
        raise ValueError("blow-ups are implemented for plane curves")
    if not curve:
        raise ValueError("cannot blow up the zero polynomial")
    mu = min(sum(e) for e in curve.terms)
    if mu < 1:
        raise ValueError("curve does not pass through the origin")
    x, y = ring.var(0), ring.var(1)
    charts = []
    for index, images, div_slot in ((0, [x, x * y], 0), (1, [y * x, y], 1)):
        total = curve.compose(images, ring)
        terms = {}
        for e, c in total.terms.items():
            if e[div_slot] < mu:
                raise RuntimeError("the exceptional divisor divides the total transform mu times")
            e2 = list(e)
            e2[div_slot] -= mu
            terms[tuple(e2)] = c
        strict = MultiPoly(ring, terms)
        charts.append(
            BlowupChart(
                index=index,
                strict=strict,
                multiplicity=mu,
                back_map=tuple(images),
                exceptional=ring.var(div_slot),
            )
        )
    return charts


def singular_locus(system):
    """The F_q(t) generators of the non-smooth locus (equations + minors),
    as the regularity check built them."""
    eqs = system.equations
    ring = system.ring
    m = len(system.xnames)
    k = m - system.dim
    jac = jacobian(eqs, list(range(ring.nvars)))
    minors = []
    for rows in combinations(range(len(eqs)), k):
        for cols in combinations(range(ring.nvars), k):
            det = det_matrix([[jac[i][j] for j in cols] for i in rows], ring.one())
            if det:
                minors.append(det)
    locus = [to_rational_coeffs(h) for h in eqs + minors]
    return [h for h in locus if h]


def constant_singular_points(locus):
    """F_q-rational points of the singular locus, in enumeration order."""
    field = locus[0].ring.field
    out = []
    for a in field.ctx.elements():
        for b in field.ctx.elements():
            pa, pb = field.elem(a), field.elem(b)
            if all(not h.eval_coeffs([pa, pb]) for h in locus):
                out.append((a, b))
    return out


def charts_at(system, center):
    """[(chart, chart equations, chart inequation)] of the blow-up of the
    plane curve system at the F_q-point center, built over F_q(t)."""
    ring = system.ring
    rring = PolyRing(RationalFunctionField(ring.field), system.xnames)
    g = system.inequation
    a, b = center
    curve = to_rational_coeffs(system.equations[0])
    x, y = rring.var(0), rring.var(1)
    translated = curve.compose([x + rring.const(a), y + rring.const(b)], rring)
    charts = blow_up_origin(translated)

    g_rat = to_rational_coeffs(g) if g is not None else None

    out = []
    for chart in charts:
        images = [back + rring.const(c) for back, c in zip(chart.back_map, (a, b))]
        chart_eqs = clear_denominators([chart.strict])
        chart_g = None
        if g_rat is not None:
            pulled = g_rat.compose(images, rring)
            if pulled:
                (chart_g,) = clear_denominators([pulled])
            else:
                chart_g = ring.zero()
        out.append((chart, chart_eqs, chart_g))
    return out


def map_chart_witness(chart, center, witness, ring):
    """Chart witness -> original coordinates: center + back_map(witness).
    center holds F_q(t) constants."""
    precision = witness[0].precision
    a, b = center
    u, w = witness
    images = []
    for const, back in zip((a, b), chart.back_map):
        acc = expand_rational(const, precision)
        for e, c in back.terms.items():
            term = expand_rational(c, precision)
            for i, k in enumerate(e):
                if k:
                    term = term * (u if i == 0 else w) ** k
            acc = acc + term
        images.append(acc)
    return tuple(images)


def _uni_valuation(f) -> int:
    """t-adic valuation of a UniPoly: index of the first nonzero coefficient."""
    if not f.coeffs:
        raise ValueError("valuation of zero polynomial")
    for i, c in enumerate(f.coeffs):
        if c:
            return i
    raise AssertionError("normalized polynomial with no nonzero coefficient")


def _t_valuation(r) -> int:
    if not r.num:
        raise ValueError("valuation of zero")
    return _uni_valuation(r.num) - _uni_valuation(r.den)


def expand_rational(r, n: int) -> TruncatedSeries:
    """t-adic expansion of an element of F_q(t) lying in F_q[[t]]."""
    ctx = r.ctx
    if not r.num:
        return TruncatedSeries.zero(ctx, n)
    if _t_valuation(r) < 0:
        raise ValueError(f"{r!r} has negative t-adic valuation, not integral")
    w = _uni_valuation(r.den)
    num = list(r.num.coeffs[w:]) if w else list(r.num.coeffs)
    den = list(r.den.coeffs[w:]) if w else list(r.den.coeffs)
    num += [ctx.zero()] * max(0, n - len(num))
    den += [ctx.zero()] * max(0, n - len(den))
    inv0 = den[0].inv()
    out = []
    for k in range(n):
        acc = num[k]
        for i in range(1, k + 1):
            acc = acc - den[i] * out[k - i]
        out.append(acc * inv0)
    return TruncatedSeries._make(ctx, out, n)
