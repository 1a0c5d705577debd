"""Oracle for the differential tests of laurentdecide.hensel: the
certification routine as it stood before the minor table, copied verbatim.
Every call rebuilds the Jacobian, evaluates every entry at the point, takes
every minor determinant, and re-runs the saturation guard for the minors it
tries.

Below it, copied verbatim as well, are the private series helpers of
newton_lift and smooth_perturb that the TruncatedSeries constructor replaced,
and the precision schedule whose doubling loop moved into decide_positive.

Last come newton_lift and smooth_perturb as they stood while a system with
no equation had a minor table without a ring, each with a branch of its own
for that system and newton_lift with a separate path for a certificate with
no rows.  They are copied verbatim but for one name: they certify through
the engine's hensel.certify_liftable, which the oracle's own
certify_liftable above would shadow."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ideal_oracle import frac_buchberger, frac_reduce_poly

from laurentdecide import hensel
from laurentdecide.hensel import CertificateError, HenselCertificate, PerturbBudget, system_dimension
from laurentdecide.ideal import _rabinowitsch
from laurentdecide.poly import det_matrix, jacobian, to_rational_coeffs
from laurentdecide.series import (
    TruncatedSeries,
    invert_unit,
    point_table,
    shift_right,
    val_exact,
    val_ge,
    valuation,
    valuation_at,
)


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


def newton_lift(table, point, certificate, target, trace=None):
    """Lift the point, certified on the system of the MinorTable table, to
    residual valuations >= target.

    Returns the refined point at precision target; the low t^(N-e) digits
    agree with the input.  Each iteration at least doubles (minus 2e) the
    minimum residual valuation of the driving square subsystem; stalls raise
    CertificateError.  trace, when given, collects the minimum subsystem
    residual valuation before each correction step.
    """
    equations = table.equations
    if not equations:
        # exact: the stored representatives are polynomials
        return tuple(TruncatedSeries(x.ctx, x.coeffs, target) for x in point)
    ring = table.ring
    e = certificate.e
    rows = list(certificate.rows)
    k = len(rows)
    work_prec = max(target, certificate.precision) + e + 1
    xs = [TruncatedSeries(x.ctx, x.coeffs, work_prec) for x in point]

    if k == 0:
        xs = [x.truncate(target) for x in xs]
        at = point_table(ring, xs, target)
        if not all(val_ge(valuation(at(f)), target) for f in equations):
            raise CertificateError("empty-minor certificate with nonzero residual")
        return tuple(xs)

    col_pos = [table.xvars.index(c) for c in certificate.cols]
    jac_sub = [[table.jacobian[i][j] for j in col_pos] for i in rows]

    prev_min = None
    max_iter = 2 * (target.bit_length() + 4)
    for _ in range(max_iter):
        at = point_table(ring, xs, work_prec)
        res = [at(f) for f in equations]
        vals_all = [valuation(r) for r in res]
        if all(val_ge(v, target) for v in vals_all):
            return tuple(x.truncate(target) for x in xs)
        sub_vals = [vals_all[i] for i in rows]
        v_min = min((v if val_exact(v) else v.n) for v in sub_vals)
        if trace is not None:
            trace.append(v_min)
        if prev_min is not None and v_min <= prev_min:
            raise CertificateError("Newton iteration stalled")
        prev_min = v_min
        if not v_min > 2 * e:
            raise CertificateError("residual valuation fell inside the minor gap")
        j_at = [[at(entry) for entry in row] for row in jac_sub]
        det = det_matrix(j_at, None)
        vdet = valuation(det)
        if vdet != e:
            raise CertificateError(f"minor valuation drifted: {vdet} != {e}")
        unit_inv = invert_unit(shift_right(det, e))
        deltas = []
        for idx in range(k):
            col_mat = [
                [j_at[r][c] if c != idx else -res[rows[r]] for c in range(k)]
                for r in range(k)
            ]
            num = det_matrix(col_mat, None)
            if not val_ge(valuation(num), e):
                raise CertificateError("Cramer numerator below minor valuation")
            deltas.append(shift_right(num, e) * unit_inv)
        for idx, dpos in enumerate(col_pos):
            xs[dpos] = xs[dpos] + TruncatedSeries(ring.field, deltas[idx].coeffs, work_prec)
    raise CertificateError("Newton budget exhausted before reaching target")


def smooth_perturb(table, point, certificate, g, budget: PerturbBudget):
    """A certified solution with g of exact finite valuation (hence nonzero),
    or None when the budget is exhausted.

    Perturbs one free coordinate (outside the certificate's bound columns) by
    c*t^M, then re-solves the bound coordinates by Newton.  Deterministic
    order: depths M increasing, then directions by coordinate index, then
    scalars in field-enumeration order.  Every perturbed point is certified
    afresh, at the precision its residuals reach, by a minor avoiding the
    perturbed coordinate, through the MinorTable table of the system.
    """
    equations = table.equations
    if not point:
        # closed system: g is a constant in t
        return (point, certificate) if g else None
    if val_exact(valuation_at(g, point)):
        return point, certificate
    precision = point[0].precision
    if equations and table.dim is None:
        return None  # empty locus cannot carry a certified point
    bound = set(certificate.cols)
    ring = table.ring if equations else g.ring
    xvars = ring.xslots
    free = [j for j in xvars if j not in bound][: budget.directions]
    if not free:
        return None
    nonzero_scalars = [c for c in g.ring.field.elements() if c]
    xpos = {v: i for i, v in enumerate(xvars)}

    m0 = max(1, 2 * certificate.e + 1)
    for mm in range(m0, m0 + budget.depth):
        if mm >= precision:
            break
        for j in free:
            for c in nonzero_scalars:
                xs = [
                    x + TruncatedSeries(x.ctx, [0] * mm + [c], x.precision) if xvars[i] == j else x
                    for i, x in enumerate(point)
                ]
                if not equations:
                    if val_exact(valuation_at(g, xs)):
                        return tuple(xs), certificate
                    continue
                # residual valuations never exceed the precision
                at = point_table(ring, xs, precision)
                floor = min(
                    (v if val_exact(v) else v.n) for v in map(valuation, map(at, equations))
                )
                if floor < 1:
                    continue
                cert2 = hensel.certify_liftable(
                    table, [x.truncate(floor) for x in xs], exclude_col=xpos[j]
                )
                if cert2 is None:
                    continue
                try:
                    lifted = newton_lift(table, xs, cert2, precision)
                except CertificateError:
                    continue
                if val_exact(valuation_at(g, lifted)):
                    final = hensel.certify_liftable(table, list(lifted))
                    if final is not None:
                        return tuple(lifted), final
    return None
