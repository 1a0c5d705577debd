"""Oracle for the differential tests of where F_q(t) enters the engine: the
conversion to F_q(t) and the principal collapse as they stood when every
system kept an F_q(t) copy of its equations, copied verbatim.  The former
to_rational_coeffs built one RationalFunction per term, as the product of
t^k and the coefficient, and summed them per X-monomial; its
RationalFunction.from_unipoly (a reduced fraction, with a gcd) and
UniPoly.t_power are written out.  The former collapse took the one element
of the reduced basis over F_q(t) and cleared its denominators."""

from __future__ import annotations

from frontend_oracle import clear_denominators
from ideal_oracle import frac_buchberger

from laurentdecide.ff import FqContext
from laurentdecide.poly import MultiPoly, PolyRing, RationalFunction, RationalFunctionField, UniPoly


def _from_unipoly(f):
    return RationalFunction(f, UniPoly.const(f.ctx, 1))


def to_rational_coeffs(f: MultiPoly) -> MultiPoly:
    """Retag a poly over F_q with t slot into F_q(t) coefficients (X vars only)."""
    ring = f.ring
    tpos = ring.tpos
    ctx = ring.field
    if not isinstance(ctx, FqContext):
        raise TypeError("to_rational_coeffs takes a polynomial over F_q")
    if tpos is None:
        target = PolyRing(RationalFunctionField(ctx), ring.names)
        return f.compose([target.var(i) for i in range(ring.nvars)], target)
    names = tuple(n for i, n in enumerate(ring.names) if i != tpos)
    target = PolyRing(RationalFunctionField(ctx), names)
    out = {}
    for e, c in f.terms.items():
        et = e[tpos]
        e2 = tuple(k for i, k in enumerate(e) if i != tpos)
        coeff = _from_unipoly(UniPoly(ctx, [0] * et + [1])).__mul__(
            _from_unipoly(UniPoly(ctx, [c]))
        )
        if e2 in out:
            s = out[e2] + coeff
            if s:
                out[e2] = s
            else:
                del out[e2]
        else:
            out[e2] = coeff
    return MultiPoly(target, out)


def principal_basis(equations):
    """The reduced basis over F_q(t) of equations over F_q[X, t] (t last),
    built from their F_q(t) form."""
    rational = [to_rational_coeffs(f) for f in equations]
    return frac_buchberger(rational, ring=rational[0].ring)


def principal_generator(equations):
    """The collapse of equations whose basis over F_q(t) is principal: the
    basis element with its denominators cleared."""
    return clear_denominators(principal_basis(equations).generators)[0]
