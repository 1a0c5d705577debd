"""Oracle for the differential test of laurentdecide.series.PointTable and
series_point: point evaluation and series_point as they stood before point
evaluation shared one power table per point, copied verbatim.  Every term is a full series product of its
coefficient with each coordinate raised by binary powering, the t slot
included."""

from __future__ import annotations

from laurentdecide.poly import MultiPoly
from laurentdecide.series import TruncatedSeries


def evaluate(f: MultiPoly, point) -> TruncatedSeries:
    """Evaluate a polynomial over F_q (t as a slot) at a series point.

    The point supplies one series per ring variable; the t slot, if present,
    must be given the series t.  All precisions must agree, and the result
    carries that shared precision.
    """
    ring = f.ring
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
    zeros = [ctx.zero()] * (precision - 1)
    acc = TruncatedSeries.zero(ctx, precision)
    for e, c in f.terms.items():
        term = TruncatedSeries._make(ctx, [c] + zeros, precision)
        for i, k in enumerate(e):
            if k:
                term = term * point[i] ** k
        acc = acc + term
    return acc


def series_point(f_ring, xs, precision):
    """Assemble the evaluation point for a ring with a t slot: the given
    coordinate series plus t in the slot position."""
    tpos = f_ring.tpos
    ctx = f_ring.field
    point = list(xs)
    if tpos is not None:
        point.insert(tpos, TruncatedSeries.t(ctx, precision))
    return point
