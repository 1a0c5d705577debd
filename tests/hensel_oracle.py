"""Oracle for the differential tests of laurentdecide.hensel: the
certification routine as it stood before the minor table, copied verbatim.
Every call rebuilds the Jacobian, evaluates every entry at the point, takes
every minor determinant, and re-runs the saturation guard for the minors it
tries.

Below it, copied verbatim as well, are the private series helpers of
newton_lift and smooth_perturb that the TruncatedSeries constructor replaced,
and the precision schedule whose doubling loop moved into decide_positive."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ideal_oracle import frac_buchberger, frac_reduce_poly

from laurentdecide.hensel import HenselCertificate, system_dimension
from laurentdecide.ideal import _rabinowitsch
from laurentdecide.poly import det_matrix, jacobian, to_rational_coeffs
from laurentdecide.series import TruncatedSeries, point_table, val_exact, val_ge, valuation


def _x_indices(ring):
    tpos = ring.tpos
    return [i for i in range(ring.nvars) if i != tpos]


def _saturation_ok(equations, rows, det_poly):
    """Every equation outside rows lies in (rows) : det^inf over F_q(t)."""
    others = [i for i in range(len(equations)) if i not in rows]
    if not others:
        return True
    det_rat = to_rational_coeffs(det_poly)
    if not det_rat:
        return False
    rat = [to_rational_coeffs(equations[i]) for i in list(rows) + others]
    lifted, aux = _rabinowitsch(rat, det_rat, "Zsat")
    gb = frac_buchberger(lifted[: len(rows)] + [aux], ring=aux.ring)
    return not any(frac_reduce_poly(f, gb.generators) for f in lifted[len(rows) :])


def _minor_search(equations, at, k, exclude_col=None):
    """Deterministic minor choice at the point of the table at: minimal
    determinant valuation, then lexicographic (rows, cols);
    saturation-checked.  Returns (rows, cols, e) or None."""
    ring = equations[0].ring
    xvars = _x_indices(ring)
    m = len(xvars)
    n = len(equations)
    if k > n or k > m:
        return None
    jac = jacobian(equations, xvars)
    jac_at = [[at(entry) for entry in row] for row in jac]
    candidates = []
    for rows in combinations(range(n), k):
        for cols_idx in combinations(range(m), k):
            if exclude_col is not None and exclude_col in cols_idx:
                continue
            sub = [[jac_at[i][j] for j in cols_idx] for i in rows]
            det = det_matrix(sub, None)
            v = valuation(det)
            if val_exact(v):
                candidates.append((v, rows, cols_idx))
    candidates.sort()
    for e, rows, cols_idx in candidates:
        det_poly = det_matrix([[jac[i][j] for j in cols_idx] for i in rows], ring.one())
        if _saturation_ok(equations, rows, det_poly):
            return rows, tuple(xvars[j] for j in cols_idx), e
    return None


def _saturation_empty(equations):
    """k = 0 case: with no bound equations the branch is the whole space, so
    every equation must already be zero."""
    return all(not f for f in equations)


def certify_liftable(equations, point, dim=None, precision=None, exclude_col=None):
    """HenselCertificate for the point, or None.

    Conditions: every residual valuation >= N (the point precision), some
    size-(m-d) Jacobian minor with determinant valuation e satisfying N > 2e,
    and the saturation guard for equations outside the minor rows.  A minor
    may not use the unknown at position exclude_col, when given.
    """
    equations = [f for f in equations if f]
    if precision is None:
        precision = point[0].precision if point else 1
    if not equations:
        return HenselCertificate((), (), 0, precision)
    ring = equations[0].ring
    n_prec = precision
    if dim is None:
        dim = system_dimension(equations, ring)
    if dim is None:
        return None  # empty locus over the algebraic closure of F_q(t)
    m = len(_x_indices(ring))
    k = m - dim
    if k < 0:
        return None
    at = point_table(ring, point, n_prec)
    for f in equations:
        if not val_ge(valuation(at(f)), n_prec):
            return None
    if k == 0:
        if not _saturation_empty(equations):
            return None
        return HenselCertificate((), (), 0, n_prec)
    found = _minor_search(equations, at, k, exclude_col)
    if found is None:
        return None
    rows, cols, e = found
    if not n_prec > 2 * e:
        return None
    return HenselCertificate(rows, tuple(cols), e, n_prec)


def _extend(x: TruncatedSeries, precision):
    """Zero-extend the stored representative to a higher working precision
    (the representative is an exact polynomial, so this is exact)."""
    if precision <= x.precision:
        return x.truncate(precision)
    return TruncatedSeries(x.ctx, list(x.coeffs), precision)


def _add_exact(x: TruncatedSeries, delta: TruncatedSeries, precision):
    coeffs = list(x.coeffs[:precision])
    coeffs += [x.ctx.zero()] * (precision - len(coeffs))
    for i, c in enumerate(delta.coeffs):
        if i < precision:
            coeffs[i] = coeffs[i] + c
    return TruncatedSeries(x.ctx, coeffs, precision)


def _bump(x: TruncatedSeries, mm: int, c):
    coeffs = list(x.coeffs)
    coeffs[mm] = coeffs[mm] + c
    return TruncatedSeries(x.ctx, coeffs, x.precision)


@dataclass(frozen=True)
class PrecisionSchedule:
    """Truncation levels 1, 2, 4, ... up to the precision budget."""

    max_precision: int = 64

    def levels(self):
        n = 1
        while n <= self.max_precision:
            yield n
            n *= 2
