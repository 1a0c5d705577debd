"""Top-level decision loop for equation-plus-inequation systems over F_q[[t]].

Pipeline per system: normalize (squarefree hypersurfaces, radical bookkeeping),
check emptiness and whether the inequation dies on the whole locus, then test
regularity by spreading out (t becomes a variable over the perfect field F_q)
and asking whether the non-smooth locus meets the generic fibre.  Regular
systems go to the truncation decider, with a perturbation pass when an
inequation is present.  Singular plane curves are blown up at rational
singular points, charts are decided recursively, and the exceptional centre
descends to a lower-dimensional system.  Everything else is an honest
UNKNOWN: verdicts must stay sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .ff import FqContext
from .hensel import (
    CertificateError,
    PerturbBudget,
    certify_liftable,
    newton_lift,
    smooth_perturb,
)
from .ideal import buchberger, dimension, radical_membership, squarefree_part
from .poly import (
    MultiPoly,
    PolyRing,
    RationalFunctionField,
    clear_denominators,
    det_matrix,
    jacobian,
    to_rational_coeffs,
)
from .series import evaluate, expand_rational, series_point, val_exact, valuation
from .truncation import PrecisionSchedule, decide_positive
from .verdict import SAT, UNKNOWN, UNSAT, Verdict


@dataclass(frozen=True)
class RunConfig:
    """Budgets for one decision run."""

    max_precision: int = 64
    perturb_budget: PerturbBudget = PerturbBudget()
    candidate_cap: int = 256
    max_blowups: int = 16
    search_budget: int = 2_000_000  # digit-search nodes per truncation level


@dataclass
class AffineSystem:
    """Equations f_1..f_n plus at most one inequation g != 0, over F_q[t][X].

    The ring carries the t slot as its last variable.
    """

    ring: PolyRing
    equations: list
    inequation: MultiPoly | None = None

    def __post_init__(self):
        if not isinstance(self.ring.field, FqContext):
            raise TypeError("affine systems live over F_q[t]")
        if self.ring.tpos != self.ring.nvars - 1:
            raise ValueError("t is the last ring variable")
        self.equations = [f for f in self.equations if f]

    @property
    def xnames(self):
        return self.ring.names[:-1]

    def rational_ring(self):
        return PolyRing(RationalFunctionField(self.ring.field), self.xnames)


@dataclass
class RegularityReport:
    status: str  # "regular" | "singular" | "inconclusive"
    dimension: int | None = None
    singular_locus: list | None = None  # generators over F_q(t) (equations + minors)


@dataclass
class BlowupChart:
    index: int
    strict: MultiPoly        # strict transform, F_q(t) coefficients
    multiplicity: int
    back_map: tuple          # images of the original two coordinates
    exceptional: MultiPoly   # chart equation of the exceptional divisor


def regularity_check(system: AffineSystem, gb=None, dim=None) -> RegularityReport:
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
    eqs_rat = [to_rational_coeffs(f) for f in eqs]
    if gb is None:
        gb = buchberger(eqs_rat, ring=eqs_rat[0].ring)
    if dim is None:
        dim = dimension(gb)
    assert dim is not None, "emptiness is decided before the regularity check"
    k = m - dim
    # unmixedness: codimension matched by SOME generating set of that size
    equidimensional = (
        len(eqs) == 1 or dim == 0 or k == len(eqs) or k == len(gb.generators)
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
    locus = eqs_rat + [to_rational_coeffs(h) for h in minors]
    locus = [h for h in locus if h]
    gb_locus = buchberger(locus, ring=eqs_rat[0].ring)
    if gb_locus.contains_one():
        return RegularityReport("regular", dimension=dim)
    return RegularityReport("singular", dimension=dim, singular_locus=locus)


def blow_up_origin(curve: MultiPoly):
    """Blow up a plane curve at the origin: two affine charts.

    Chart 0 substitutes Y = X*Y' and divides by X^mu; chart 1 substitutes
    X = Y*X' and divides by Y^mu.  Substituting a chart's back map into the
    curve recovers strict * exceptional^mu identically.
    """
    ring = curve.ring
    assert ring.nvars == 2, "blow-ups are implemented for plane curves"
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
            assert e[div_slot] >= mu
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


def descend(system: AffineSystem, u: MultiPoly) -> AffineSystem:
    """Adjoin u to the equations (the locus away from u is handled elsewhere);
    the dimension must strictly decrease."""
    eqs_rat = [to_rational_coeffs(f) for f in system.equations]
    u_rat = to_rational_coeffs(u)
    rring = system.rational_ring()
    if radical_membership(u_rat, eqs_rat):
        raise ValueError("descent center vanishes on the whole locus")
    before = dimension(buchberger(eqs_rat, ring=rring))
    after = dimension(buchberger(eqs_rat + [u_rat], ring=rring))
    if not (after is None or after < before):
        raise RuntimeError("descent must drop the dimension")
    return AffineSystem(system.ring, system.equations + [u], system.inequation)


def _g_valuation(system: AffineSystem, witness):
    g = system.inequation
    if not witness:
        # no unknowns: g is a polynomial in t alone, valuation is exact
        return min(e[system.ring.tpos] for e in g.terms)
    precision = witness[0].precision
    pt = series_point(system.ring, list(witness), precision)
    return valuation(evaluate(g, pt))


def _sat_with_inequation(system, pos, dim, config, trace):
    """Perturb a certified solution until the inequation has exact valuation."""
    eqs = system.equations
    g = system.inequation
    cert = pos.certificate
    budget = config.perturb_budget
    room = 2 * cert.e + budget.depth + 2
    target = min(config.max_precision, max(pos.witness[0].precision if pos.witness else 1, room))
    witness = pos.witness
    if witness and target > witness[0].precision:
        try:
            witness = newton_lift(eqs, list(witness), cert, target)
            cert2 = certify_liftable(eqs, list(witness), dim, precision=target)
            if cert2 is not None:
                cert = cert2
        except CertificateError:
            witness = pos.witness
    out = smooth_perturb(eqs, list(witness), cert, g, budget, dim=dim)
    if out is None:
        trace.append("perturbation budget exhausted without meeting the inequation")
        return Verdict(UNKNOWN, reason="perturbation-budget-exhausted", trace=trace)
    final_witness, final_cert = out
    gval = _g_valuation(system, final_witness)
    if not val_exact(gval):
        raise RuntimeError("perturbed witness leaves the inequation valuation inexact")
    trace.append(f"inequation attained exact valuation {gval}")
    return Verdict(
        SAT,
        witness=tuple(final_witness),
        certificate=final_cert,
        inequation_valuation=gval,
        trace=trace,
    )


def _constant_singular_points(eqs_rat, locus):
    """F_q-rational points of the singular locus, in enumeration order."""
    rring = eqs_rat[0].ring
    ctx = rring.field.ctx
    field = rring.field
    out = []
    for a in ctx.elements():
        for b in ctx.elements():
            pa, pb = field.elem(a), field.elem(b)
            if all(not h.eval_coeffs([pa, pb]) for h in locus):
                out.append((a, b))
    return out


def _map_chart_witness(chart, center, witness, ring):
    """Chart witness -> original coordinates: center + back_map(witness)."""
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


def decide_existential(
    system: AffineSystem,
    config: RunConfig | None = None,
    trace: list | None = None,
    _depth: int = 0,
    _prev_mult: int | None = None,
) -> Verdict:
    """SAT/UNSAT/UNKNOWN for: do the equations vanish and the inequation not,
    somewhere on F_q[[t]]^m?"""
    if config is None:
        config = RunConfig()
    if trace is None:
        trace = []
    ring = system.ring
    eqs = [f for f in system.equations if f]
    g = system.inequation
    rring = system.rational_ring()

    if g is not None and g.is_constant():
        gc = to_rational_coeffs(g).constant_value() if g else None
        if g and gc:
            trace.append("inequation is a nonzero constant, dropped")
            g = None
        # a zero inequation is handled by the radical test below

    # normalization: equation-wise squarefree parts (zero sets unchanged),
    # and when the reduced basis is principal the system IS a hypersurface in
    # disguise (e.g. {X, X*Y}); the loop settles in at most two rounds
    while True:
        replaced = []
        changed = False
        for f in eqs:
            rat = to_rational_coeffs(f)
            if rat.is_constant():
                replaced.append(f)
                continue
            sf = squarefree_part(rat)
            if sf.monic() != rat.monic():
                changed = True
                (f,) = clear_denominators([sf])
            replaced.append(f)
        if changed:
            trace.append("replaced equations by their squarefree parts")
        eqs = replaced
        eqs_rat = [to_rational_coeffs(f) for f in eqs]
        gb = buchberger(eqs_rat, ring=rring)
        if len(gb.generators) == 1 and len(eqs) > 1:
            trace.append("equations collapse to a principal ideal")
            eqs = clear_denominators([gb.generators[0]])
            continue
        break

    # all verdicts below refer to the normalized equations, so certificates
    # and refutation levels verify against this system
    normalized = AffineSystem(ring, eqs, g)

    if gb.contains_one():
        _, cert = radical_membership(rring.one(), eqs_rat, with_certificate=True)
        trace.append("equations generate the unit ideal over F_q(t)")
        return Verdict(UNSAT, radical=cert, trace=trace, system=normalized)
    dim = dimension(gb)

    if g is not None:
        g_rat = to_rational_coeffs(g)
        member, rcert = radical_membership(g_rat, eqs_rat, with_certificate=True)
        if member:
            trace.append("inequation vanishes identically on the locus")
            return Verdict(UNSAT, radical=rcert, trace=trace, system=normalized)

    report = regularity_check(normalized, gb=gb, dim=dim)
    trace.append(f"regularity: {report.status} (dimension {report.dimension})")

    if report.status == "regular":
        out = _decide_by_truncation(normalized, eqs, g, dim, config, trace)
        out.system = normalized
        return out

    plane_curve = len(system.xnames) == 2 and len(eqs) == 1
    if report.status == "singular" and plane_curve:
        out = _decide_singular_curve(
            normalized, eqs_rat, report, config, trace, _depth, _prev_mult
        )
        if out.system is None:
            out.system = normalized
        if not out.is_unknown:
            return out
    else:
        out = Verdict(
            UNKNOWN,
            reason="resolution-out-of-scope" if report.status == "singular" else "inconclusive-regularity",
            trace=trace,
            system=normalized,
        )

    # sound fallback for singular/inconclusive loci: truncation refutation
    # needs no smoothness, and the saturation-guarded certificate is
    # self-contained, so a decided outcome here is trustworthy even without
    # a resolution
    trace.append(f"{out.reason}: trying the direct truncation decision anyway")
    direct = _decide_by_truncation(normalized, eqs, g, dim, config, trace)
    if not direct.is_unknown:
        direct.system = normalized
        return direct

    # solutions sitting on the singular locus form a strictly smaller system;
    # a SAT found there is a genuine solution (the smooth part stays out of
    # scope, so UNSAT cannot propagate from this descent)
    if (
        report.status == "singular"
        and report.singular_locus
        and _depth < config.max_blowups
    ):
        sing_eqs = clear_denominators(report.singular_locus)
        sing_gb = buchberger(report.singular_locus, ring=rring)
        sing_dim = dimension(sing_gb)
        if sing_dim is not None and sing_dim < report.dimension:
            trace.append("descending to the singular locus")
            v_sing = decide_existential(
                AffineSystem(ring, sing_eqs, g), config, trace, _depth + 1
            )
            if v_sing.is_sat:
                return v_sing
    return out


def _decide_by_truncation(normalized, eqs, g, dim, config, trace):
    """Level-deepening decision of the equations plus optional inequation."""
    ring = normalized.ring
    schedule = PrecisionSchedule(config.max_precision)
    accept = None
    if g is not None:
        g_poly = g

        def accept(witness):
            if not witness:
                return bool(g_poly)  # x-free g: a nonzero polynomial in t
            pt = series_point(ring, list(witness), witness[0].precision)
            return val_exact(valuation(evaluate(g_poly, pt)))

    pos = decide_positive(
        eqs, ring, schedule, config.candidate_cap, trace, config.search_budget, accept, dim
    )
    if not pos.is_sat or g is None:
        return pos
    gval = _g_valuation(normalized, pos.witness)
    if val_exact(gval):
        pos.inequation_valuation = gval
        return pos
    return _sat_with_inequation(normalized, pos, dim, config, trace)


def _decide_singular_curve(system, eqs_rat, report, config, trace, depth, prev_mult):
    ring = system.ring
    rring = system.rational_ring()
    g = system.inequation
    if depth >= config.max_blowups:
        trace.append(f"blow-up depth cap {config.max_blowups} reached")
        return Verdict(UNKNOWN, reason="blowup-depth-exhausted", trace=trace)

    curve = eqs_rat[0]
    locus = report.singular_locus
    centers = _constant_singular_points(eqs_rat, locus)
    if not centers:
        trace.append("singular locus has no F_q-rational point: cannot pick a center")
        return Verdict(UNKNOWN, reason="non-rational-singular-center", trace=trace)
    a, b = centers[0]
    trace.append(f"blowing up the singular point ({a!r}, {b!r})")

    x, y = rring.var(0), rring.var(1)
    translated = curve.compose([x + rring.const(a), y + rring.const(b)], rring)
    mu = min(sum(e) for e in translated.terms)
    if prev_mult is not None and mu > prev_mult:
        raise RuntimeError("blow-up multiplicity must not increase")
    charts = blow_up_origin(translated)

    g_rat = to_rational_coeffs(g) if g is not None else None
    center_rational = (rring.field.elem(a), rring.field.elem(b))

    branches = []
    for chart in charts:
        images = [
            chart.back_map[0] + rring.const(a),
            chart.back_map[1] + rring.const(b),
        ]
        chart_eqs = clear_denominators([chart.strict])
        chart_g = None
        if g_rat is not None:
            pulled = g_rat.compose(images, rring)
            if pulled:
                (chart_g,) = clear_denominators([pulled])
            else:
                chart_g = ring.zero()
        chart_system = AffineSystem(ring, chart_eqs, chart_g)
        trace.append(f"descending into blow-up chart {chart.index} (multiplicity {mu})")
        v = decide_existential(chart_system, config, trace, depth + 1, mu)
        if v.is_sat:
            mapped = _map_chart_witness(chart, center_rational, v.witness, ring)
            cert = certify_liftable(system.equations, list(mapped), report.dimension)
            gval = _g_valuation(system, mapped) if g is not None else None
            g_ok = g is None or val_exact(gval)
            if cert is not None and g_ok:
                trace.append(f"chart {chart.index} witness mapped back and re-certified")
                return Verdict(
                    SAT,
                    witness=mapped,
                    certificate=cert,
                    inequation_valuation=gval,
                    trace=trace,
                    system=system,
                )
            trace.append(
                f"chart {chart.index} witness failed re-certification on the base"
            )
            v = Verdict(UNKNOWN, reason="recertification-failed", trace=trace)
        branches.append(v)

    # the charts cover everything except the centre itself: decide it exactly
    center_eqs = list(system.equations)
    for i, c in enumerate((a, b)):
        u = ring.var(i) - ring.const(c)
        u_rat = to_rational_coeffs(u)
        if not radical_membership(u_rat, eqs_rat):
            center_eqs.append(u)
    center_system = AffineSystem(ring, center_eqs, g)
    center_gb = buchberger(
        [to_rational_coeffs(f) for f in center_eqs], ring=rring
    )
    center_dim = dimension(center_gb)
    if not (center_dim is None or center_dim < report.dimension):
        raise RuntimeError("descent must drop the dimension")
    trace.append("descending to the blow-up center")
    v_center = decide_existential(center_system, config, trace, depth + 1, None)
    if v_center.is_sat:
        return v_center
    branches.append(v_center)

    if all(v.is_unsat for v in branches):
        trace.append("all blow-up branches refuted")
        return Verdict(UNSAT, refuted_at=None, radical=None, trace=trace, branches=branches)
    reason = next((v.reason for v in branches if v.is_unknown), "branch-unknown")
    return Verdict(UNKNOWN, reason=reason, trace=trace, branches=branches)
