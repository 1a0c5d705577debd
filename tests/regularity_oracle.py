"""Oracle for the differential tests of laurentdecide.resolve.regularity_check:
the check as it stood before a unit minor settled regularity, copied verbatim.
Every equidimensional system converts its equations and minors to F_q(t) and
asks a Groebner basis whether 1 lies in their ideal."""

from __future__ import annotations

from itertools import combinations

from ideal_oracle import frac_buchberger, frac_dimension

from laurentdecide.poly import (
    PolyRing,
    RationalFunctionField,
    det_matrix,
    jacobian,
    to_rational_coeffs,
)
from laurentdecide.resolve import AffineSystem, RegularityReport


def regularity_check(system: AffineSystem) -> RegularityReport:
    """Spread out (t a variable over the perfect F_q), compute the non-smooth
    locus via size-(m-d) Jacobian minors, and test whether it meets the
    generic fibre: 1 in (equations + minors) over F_q(t) means Regular.

    Requires an established equidimensional dimension: a hypersurface, a
    zero-dimensional locus, or codimension = number of given equations
    (unmixedness); anything else is Inconclusive.
    """
    eqs = system.equations
    ring = system.ring
    m = len(system.xnames)
    if not eqs:
        return RegularityReport("regular", dimension=m)
    dim = system.dim
    if dim is None:
        raise ValueError("emptiness is decided before the regularity check")
    k = m - dim
    # unmixedness: codimension matched by SOME generating set of that size
    equidimensional = (
        len(eqs) == 1 or dim == 0 or k == len(eqs) or k == len(system.basis.generators)
    )
    if not equidimensional:
        return RegularityReport("inconclusive", dimension=dim)
    # minors of the spread-out scheme: derivatives in the X's and in t
    jac = jacobian(eqs, list(range(ring.nvars)))
    minors = []
    for rows in combinations(range(len(eqs)), k):
        for cols in combinations(range(ring.nvars), k):
            det = det_matrix([[jac[i][j] for j in cols] for i in rows], ring.one())
            if det:
                minors.append(det)
    gb_locus = frac_buchberger(
        [to_rational_coeffs(h) for h in eqs + minors],
        ring=PolyRing(RationalFunctionField(ring.field), system.xnames),
    )
    if gb_locus.contains_one():
        return RegularityReport("regular", dimension=dim)
    return RegularityReport(
        "singular", dimension=dim, singular_locus=eqs + minors, locus_dimension=frac_dimension(gb_locus)
    )
