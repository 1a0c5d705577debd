"""Oracle for the differential tests of laurentdecide.truncation: the Weil
restriction as it stood with dense digit monomials, copied verbatim.  Every
digit monomial is an exponent tuple over all m*N digit variables, and every
product adds two such tuples entry by entry."""

from __future__ import annotations

from operator import add

from laurentdecide.ff import FqContext
from laurentdecide.poly import MultiPoly, PolyRing
from laurentdecide.truncation import WeilRestriction


def _accumulate(out: dict, e, c):
    if e in out:
        s = out[e] + c
        if s:
            out[e] = s
        else:
            del out[e]
    elif c:
        out[e] = c


def _mul_mod(a, b, n):
    """Product of two vectors of digit term maps, truncated mod t^n."""
    out = [{} for _ in range(n)]
    for i in range(min(n, len(a))):
        if not a[i]:
            continue
        for j in range(min(n - i, len(b))):
            acc = out[i + j]
            for e1, c1 in a[i].items():
                for e2, c2 in b[j].items():
                    _accumulate(acc, tuple(map(add, e1, e2)), c1 * c2)
    return out


def weil_restrict(equations, ring: PolyRing, level: int) -> WeilRestriction:
    """Coefficients of t^0..t^(level-1) of each equation after substituting
    the digit expansion for every unknown.

    Each unknown is a vector of digit term maps, one per power of t, and all
    products are taken mod t^level, so no t-degree at or above the level is
    ever built.  Powers of each unknown are computed once per call.
    """
    if level < 1:
        raise ValueError("truncation level must be >= 1")
    ctx = ring.field
    if not isinstance(ctx, FqContext):
        raise TypeError("weil restriction runs over F_q[t] systems")
    tpos, xslots = ring.tpos, ring.xslots
    if tpos is None:
        raise ValueError("system ring must carry the t slot")
    m = len(xslots)

    digit_names = [f"{ring.names[i]}_{k}" for k in range(level) for i in xslots]
    if len(set(digit_names)) != len(digit_names):
        raise ValueError("digit name collision")
    digits = PolyRing(ctx, digit_names)
    one = digits.one().terms

    # powers[j][d] = (sum_k X_j_k t^k)^d mod t^level
    powers = [[[one], [digits.var(k * m + j).terms for k in range(level)]] for j in range(m)]

    def power(j, d):
        pw = powers[j]
        while len(pw) <= d:
            pw.append(_mul_mod(pw[-1], pw[1], level))
        return pw[d]

    restricted = []
    seen = set()
    for f in equations:
        coeffs = [{} for _ in range(level)]
        for e, c in f.terms.items():
            s = e[tpos]
            if s >= level:
                continue
            vec = [one]
            for j, i in enumerate(xslots):
                if e[i]:
                    vec = _mul_mod(vec, power(j, e[i]), level - s)
            for k, terms in enumerate(vec[: level - s]):
                acc = coeffs[k + s]
                for de, dc in terms.items():
                    _accumulate(acc, de, dc * c)
        for terms in coeffs:
            g = MultiPoly(digits, terms)
            if not g or g in seen:
                continue
            seen.add(g)
            restricted.append(g)
    return WeilRestriction(level, digits, restricted)

