"""Oracle for the differential tests of laurentdecide.poly: UniPoly.divmod
as it stood before the in-place long division, copied verbatim as a
function of the two polynomials (self is a, other is b).  Each step built
the quotient term and the product term * b as polynomials."""

from __future__ import annotations

from laurentdecide.poly import UniPoly


def divmod_poly(a: UniPoly, b: UniPoly):
    self, other = a, b
    self._same_field(other)
    if not other:
        raise ZeroDivisionError("division by the zero polynomial")
    q = UniPoly._make(self.ctx, [])
    r = self
    inv_lead = other.coeffs[-1].inv()
    zero = self.ctx.zero()
    while r and len(r.coeffs) >= len(other.coeffs):
        shift = len(r.coeffs) - len(other.coeffs)
        c = r.coeffs[-1] * inv_lead
        term = UniPoly._make(self.ctx, [zero] * shift + [c])
        q = q + term
        r = r - term * other
    return q, r
