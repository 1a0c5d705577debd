"""Newton/Hensel lifting of approximate solutions in F_q[t]/(t^N).

A liftability certificate names a square Jacobian subsystem (rows = equation
indices, cols = bound variables) whose determinant has valuation e at the
witness, with every residual of valuation >= N and N > 2e.  Newton iteration
on that subsystem then converges t-adically to an exact solution congruent to
the witness mod t^(N-e).

Soundness guard: equations outside the chosen rows must lie in the saturation
(rows-ideal) : det^infinity over F_q(t), checked by a fraction-free Groebner
computation over F_q[X, t].  Without it, an equation vanishing to high but
finite order at the witness could survive every truncated residual check
while the Newton limit misses it.  With it, the limit solves the full system
because det is a unit along the lifted branch.

A certified point always lifts (newton_lift has the short proof), so the
engine catches no CertificateError: one raised is a broken invariant.

What does not depend on the point (the Jacobian, its nonzero minors and
each minor's guard answer) is a MinorTable of the system, built once per
system and handed to every certification, lift and perturbation; it is the
one argument through which these routines learn the ring, the equations
and their dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideal import _rabinowitsch, buchberger, dimension, normal_form
from .poly import det_matrix, jacobian, nonzero_minors
from .series import (
    TruncatedSeries,
    invert_unit,
    point_table,
    shift_right,
    val_exact,
    val_ge,
    valuation,
    valuation_at,
)


class CertificateError(Exception):
    """A certificate failed to deliver what it promised at the point."""


@dataclass(frozen=True)
class HenselCertificate:
    rows: tuple
    cols: tuple
    e: int
    precision: int

    def to_json(self):
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "e": self.e,
            "precision": self.precision,
        }


@dataclass(frozen=True)
class PerturbBudget:
    directions: int = 8
    depth: int = 16

    def __post_init__(self):
        if min(self.directions, self.depth) < 0:
            raise ValueError("perturbation budgets must be >= 0")


def system_dimension(equations, ring, basis=None):
    """Krull dimension of the locus of the equations over F_q(t), None when
    it is empty; the one routine for every dimension and emptiness question.

    At most one equation needs no Groebner basis: none leaves all m unknowns
    free; one equation f is a unit of F_q(t)[X] when it has no X-term (an
    empty locus) and cuts out a hypersurface of dimension m - 1 otherwise.
    Two or more are read off the reduced basis (over F_q(t), its generators
    over F_q[X, t]): basis() when the caller keeps one, a fresh one
    otherwise.
    """
    eqs = [f for f in equations if f]
    m = len(ring.xslots)
    if not eqs:
        return m
    if len(eqs) == 1:
        return m - 1 if eqs[0].x_degree() > 0 else None
    return dimension(buchberger(eqs, ring=ring) if basis is None else basis())


class MinorTable:
    """The point-independent half of certify_liftable for one system.

    Built from a system (a resolve.AffineSystem, read through its ring,
    nonzero equations and dim alone, dim the Krull dimension over F_q(t),
    None for an empty locus) and keeping those three: the x indices, the
    minor size k = m - dim, the Jacobian in the unknowns and, in
    lexicographic order, the (rows, cols) index pairs of the size-k minors
    whose determinant polynomial is nonzero, each determinant computed once
    and kept.  The pairs are empty when no minor can certify: an empty
    locus, k <= 0 (a nonzero equation bounds dim below m), k above the
    number of equations or unknowns, or every size-k determinant the zero
    polynomial (X^2 + Y^2 - t*Z^2 over F_2, whose partials all vanish),
    which has no exact valuation at any point.  At a point, gap_minors scans
    the minor valuations and keeps those in the gap N > 2e; choose runs the
    saturation guard over them.  A minor's guard answer is computed on its
    first use, from its determinant polynomial, and kept.  The engine's
    table is the system's view
    resolve.AffineSystem.minors: it lives as long as its system and serves
    every point certified, lifted or perturbed on it.
    """

    def __init__(self, system):
        self.ring, self.equations, self.dim = system.ring, system.equations, system.dim
        self.xvars = self.ring.xslots
        n, m = len(self.equations), len(self.xvars)
        k = None if self.dim is None else m - self.dim
        self.jacobian = jacobian(self.equations, self.xvars)
        self._dets = {}
        if k is not None and 0 < k <= min(n, m):
            self._dets = nonzero_minors(self.jacobian, k, self.ring.one())
        self.pairs = list(self._dets)
        # the ring variables the equations use: a coordinate of one of them
        # over another field is an error even when no minor lies in the gap
        # and the residuals are never evaluated
        self.used = {i for f in self.equations for e in f.terms for i, a in enumerate(e) if a}
        self._saturated = {}

    def saturated(self, rows, cols):
        """Every equation outside rows lies in (rows) : det^inf over F_q(t),
        det the (rows, cols) minor of the Jacobian."""
        key = (rows, cols)
        if key not in self._saturated:
            self._saturated[key] = self._saturation_ok(rows, cols)
        return self._saturated[key]

    def _saturation_ok(self, rows, cols):
        others = [i for i in range(len(self.equations)) if i not in rows]
        if not others:
            return True
        eqs = [self.equations[i] for i in list(rows) + others]
        # Z goes after t: the Groebner routines read (X, t, Z) as F_q[t][X, Z]
        lifted, aux = _rabinowitsch(eqs, self._dets[rows, cols], "Zsat")
        gb = buchberger(lifted[: len(rows)] + [aux], ring=aux.ring)
        return not any(normal_form(f, gb) for f in lifted[len(rows) :])

    def gap_minors(self, at, precision, exclude_col=None):
        """(e, rows, cols) of every minor avoiding the unknown at position
        exclude_col whose determinant has exact valuation e at the point of
        the table at with precision > 2e, sorted: minimal e first, then
        lexicographic (rows, cols)."""
        jac_at = [
            [at(entry) if j != exclude_col else None for j, entry in enumerate(row)]
            for row in self.jacobian
        ]
        minors = []
        for rows, cols in self.pairs:
            if exclude_col in cols:
                continue
            v = valuation(det_matrix([[jac_at[i][j] for j in cols] for i in rows], None))
            if val_exact(v) and precision > 2 * v:
                minors.append((v, rows, cols))
        minors.sort()
        return minors

    def choose(self, minors, precision):
        """The certificate of the first of the gap minors, in their order,
        that passes the saturation guard; None when none does."""
        for e, rows, cols in minors:
            if self.saturated(rows, cols):
                return HenselCertificate(rows, tuple(self.xvars[j] for j in cols), e, precision)
        return None


def certify_liftable(table, point, precision=None, exclude_col=None):
    """HenselCertificate for the point of the system of the MinorTable
    table, or None.

    Conditions: some size-(m - dim) Jacobian minor with determinant valuation e
    satisfying N > 2e (N the point precision), every residual valuation
    >= N, and the saturation guard for equations outside the minor rows.  A
    minor may not use the unknown at position exclude_col, when given.  The
    tests run cheapest first: the minor valuations, which need only the
    Jacobian entries at the point; the residuals, only when some minor lies
    in the gap; the guard (a Groebner basis per minor, kept in the table),
    only when every residual passes.  precision, when given, must be the
    point's.
    """
    if precision is None:
        precision = point[0].precision if point else 1
    elif point and point[0].precision != precision:
        raise ValueError(
            f"precision {precision} disagrees with the point's precision {point[0].precision}"
        )
    if not table.equations:
        return HenselCertificate((), (), 0, precision)
    if not table.pairs:
        return None
    at = point_table(table.ring, point, precision)
    if any(at.point[i].ctx is not at.ctx for i in table.used):
        raise ValueError("mixed-field arithmetic")
    minors = table.gap_minors(at, precision, exclude_col)
    if not minors:
        return None
    for f in table.equations:
        if not val_ge(valuation(at(f)), precision):
            return None
    return table.choose(minors, precision)


def recertified(certificate):
    """certificate, certify_liftable's answer at a point newton_lift
    returned; None there breaks Hensel's lemma (newton_lift's contract),
    and CertificateError says so."""
    if certificate is None:
        raise CertificateError("a lifted point did not re-certify")
    return certificate


def newton_lift(table, point, certificate, target, trace=None):
    """Lift the point, certified on the system of the MinorTable table, to
    residual valuations >= target.

    Returns the refined point at precision target; the low t^(N-e) digits
    agree with the input.  A certificate with no rows, as a system with no
    equation has, corrects nothing: CertificateError unless every residual
    already reaches target.  trace, when given, collects the minimum
    subsystem residual valuation before each correction step.

    Contract: a certificate certify_liftable gave for the point, or for one
    sharing its digits below ceil(N/2) that solves the same level, lifts,
    and certify_liftable certifies the lift at target.  Every residual is
    >= N > 2e, so each step at least doubles v - 2e on the minor's rows;
    each correction has valuation > e, so the minor keeps valuation e (no
    drift, no Cramer failure) and bit_length(target) + 4 steps suffice.
    By the saturation guard the other equations vanish at the exact lift
    x*, and v(x_k - x*) >= (row residual) - e, so they lag the rows by at
    most e, which the working precision absorbs: no stall.  The guards
    below fire only on certificates certify_liftable did not give.
    """
    ring = table.ring
    e = certificate.e
    rows = list(certificate.rows)
    k = len(rows)
    work_prec = max(target, certificate.precision) + e + 1
    xs = [TruncatedSeries(x.ctx, x.coeffs, work_prec) for x in point]

    col_pos = [table.xvars.index(c) for c in certificate.cols]
    jac_sub = [[table.jacobian[i][j] for j in col_pos] for i in rows]

    prev_min = None
    max_iter = 2 * (target.bit_length() + 4)
    for _ in range(max_iter):
        at = point_table(ring, xs, work_prec)
        res = [at(f) for f in table.equations]
        vals_all = [valuation(r) for r in res]
        if all(val_ge(v, target) for v in vals_all):
            return tuple(x.truncate(target) for x in xs)
        if k == 0:
            raise CertificateError("empty-minor certificate with nonzero residual")
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
    afresh, at the precision its residuals reach (at least min(N, M) >= 1),
    by a minor avoiding the perturbed coordinate, through the MinorTable
    table of the system; a point so certified always lifts (newton_lift).
    The point is certified, so the locus is not empty; with no unknowns g is
    a nonzero polynomial in t, of exact valuation, and the point comes back.
    """
    if val_exact(valuation_at(g, point)):
        return point, certificate
    precision = point[0].precision
    bound = set(certificate.cols)
    ring = table.ring
    xvars = ring.xslots
    free = [j for j in xvars if j not in bound][: budget.directions]
    if not free:
        return None
    nonzero_scalars = [c for c in ring.field.elements() if c]
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
                # residual valuations never exceed the precision
                at = point_table(ring, xs, precision)
                residuals = map(valuation, map(at, table.equations))
                floor = min((v if val_exact(v) else v.n for v in residuals), default=precision)
                cert2 = certify_liftable(
                    table, [x.truncate(floor) for x in xs], exclude_col=xpos[j]
                )
                if cert2 is None:
                    continue
                lifted = newton_lift(table, xs, cert2, precision)
                if val_exact(valuation_at(g, lifted)):
                    return tuple(lifted), recertified(certify_liftable(table, list(lifted)))
    return None
