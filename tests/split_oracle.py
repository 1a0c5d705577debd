"""Oracle for the differential test of the X/t split: the helpers that split
a monomial of F_q[X, t] into its unknowns and its t degree, one copy per
module, as they stood before module poly took the split over, copied
verbatim.  Inline tests are wrapped in a function whose body is the copied
expression.

  * frontend._x_free and frontend._t_poly;
  * resolve's unit-minor test, the same expression as _x_free;
  * hensel._x_indices (weil_restrict built the same list as its xslots);
  * system_dimension's has_x, for one equation f;
  * _normalize's local x_degree;
  * ideal._normalize_unit, t_content, primitive_monic and the
    primitive_part they call.

_x_free, _t_poly, the unit-minor test and x_degree read t as the last slot;
the others read ring.tpos.
"""

from __future__ import annotations

from laurentdecide.ideal import _quotient, gcd_multivariate
from laurentdecide.poly import MultiPoly, grevlex_key


def _x_free(f):
    """Whether f over F_q[X, t] (t the last slot) has no X in any term."""
    return all(sum(e) == e[-1] for e in f.terms)


def _t_poly(ring, u):
    """The polynomial u in t as an element of ring (t the last slot)."""
    zero = (0,) * (ring.nvars - 1)
    return ring.from_terms({zero + (k,): c for k, c in enumerate(u.coeffs)})


def unit_minor(h):
    return all(sum(e) == e[-1] for e in h.terms)


def _x_indices(ring):
    tpos = ring.tpos
    return [i for i in range(ring.nvars) if i != tpos]


def has_x(f):
    ring = f.ring
    tpos = ring.tpos
    return any(k for e in f.terms for i, k in enumerate(e) if i != tpos)


def x_degree(f):
    return max(sum(e) - e[-1] for e in f.terms)


def _normalize_unit(f: MultiPoly):
    """Scale so the grevlex leading coefficient is 1 (deterministic rep)."""
    if not f:
        return f
    return f.scale(f.lead_coeff().inv())


def primitive_monic(f: MultiPoly) -> MultiPoly:
    """The primitive part of a nonzero f over F_q[X, t], scaled so that the
    F_q[t] coefficient of its grevlex-leading X-monomial is monic in t: the
    F_q(t)-monic associate of f times the lcm of its denominators, the same
    for every associate of f over F_q(t)."""
    prim = primitive_part(f)
    tpos = prim.ring.tpos

    def x_part(e):
        return e[:tpos] + e[tpos + 1 :]

    lead_x = max((x_part(e) for e in prim.terms), key=grevlex_key)
    lead = max((e for e in prim.terms if x_part(e) == lead_x), key=lambda e: e[tpos])
    return prim.scale(prim.terms[lead].inv())


def t_content(f: MultiPoly) -> MultiPoly:
    """The content of a nonzero f over F_q[X, t]: the gcd in F_q[t] of its
    coefficients as a polynomial in X, with leading coefficient 1; a
    constant when f is primitive."""
    ring = f.ring
    tpos = ring.tpos
    t_coeffs = {}
    for e, c in f.terms.items():
        x_part = e[:tpos] + e[tpos + 1 :]
        t_coeffs.setdefault(x_part, {})[tuple(k if i == tpos else 0 for i, k in enumerate(e))] = c
    cont = ring.zero()
    for terms in t_coeffs.values():
        cont = gcd_multivariate(cont, MultiPoly(ring, terms))
        if cont.is_constant():
            break
    return cont


def primitive_part(f: MultiPoly) -> MultiPoly:
    """A nonzero f over F_q[X, t] divided by its t_content.  By Gauss's
    lemma a primitive divisor over F_q(t) of a polynomial over F_q[X, t]
    divides it over F_q[X, t]."""
    cont = t_content(f)
    return f if cont.is_constant() else _quotient(f, cont)
