"""Top-level decision loop for equation-plus-inequation systems over F_q[[t]].

Pipeline per system: normalize (squarefree hypersurfaces, radical bookkeeping),
check emptiness and whether the inequation dies on the whole locus, then ask
the truncation decider, which meets the inequation itself and needs no
smoothness.  What it leaves undecided has its regularity tested by spreading
out (t a variable over the perfect field F_q): does the non-smooth locus meet
the generic fibre?  A singular plane curve is blown up at one rational
singular point, the first F_q-point of its singular locus in field order:
the search stops there, though a locus with no F_q-point still tries all
q^2.  The charts are decided recursively, and the exceptional centre
descends to a lower-dimensional system.  A SAT may still come from the singular
locus, decided as a system of lower dimension, unless the inequation
vanishes there, which vanishes_on_locus settles from that system's basis.
Everything else, regular systems included, is an honest UNKNOWN: verdicts
must stay sound.

Everything here lives over the system's own ring F_q[X, t]: systems,
singular loci, blow-up charts and back maps (a centre is an F_q-point and a
back map has coefficient 1), and the generator of a principal collapse.
A normalized system with at most one equation is answered there as well:
its emptiness and dimension come from the X-degree of the equation, and
whether g vanishes on its locus from one exact division (Gauss's lemma); a
unit minor settles regularity.  The questions about the generic fibre that
need a Groebner basis are asked of module ideal with these polynomials,
and ideal answers them over F_q(t) with bases over F_q[X, t]; the radical
certificates it returns are the only F_q(t) values this module passes on.

A system is immutable and owns the views derived from its equations: one
reduced Groebner basis, its dimension and the minor table of the Hensel
layer, each computed at most once and only when a question needs it; every
certification, lift and perturbation on the system shares its one table.
The blow-up centre is adjoined through `descend`, which checks that the
dimension drops; the singular locus is one such system, built by the
regularity check with its basis and dimension, and the descent decides that
object itself once its dimension is below the system's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .ff import FqContext
from .hensel import MinorTable, certify_liftable, system_dimension
from .ideal import (
    buchberger,
    exact_divide,
    in_ideal,
    primitive_part,
    radical_membership,
    squarefree_equation,
)
from .poly import MultiPoly, PolyRing, jacobian, nonzero_minors
from .series import point_table, val_exact, valuation_at
from .truncation import RunConfig, decide_positive
from .verdict import SAT, UNKNOWN, UNSAT, Verdict


@dataclass(frozen=True)
class AffineSystem:
    """Equations f_1..f_n plus at most one inequation g != 0, over F_q[t][X].

    The ring carries the t slot as its last variable.  Zero equations are
    dropped.  The views `basis`, `dim` and `minors` are computed on first
    use and kept with the object.
    """

    ring: PolyRing
    equations: list
    inequation: MultiPoly | None = None

    def __post_init__(self):
        if not isinstance(self.ring.field, FqContext):
            raise TypeError("affine systems live over F_q[t]")
        if self.ring.tpos != self.ring.nvars - 1:
            raise ValueError("t is the last ring variable")
        object.__setattr__(self, "equations", [f for f in self.equations if f])

    @property
    def xnames(self):
        return self.ring.names[:-1]

    @cached_property
    def basis(self):
        """Reduced Groebner basis of the equations over F_q(t), each generator
        in t_primitive form over the system's ring."""
        return buchberger(self.equations, ring=self.ring)

    @cached_property
    def dim(self):
        """Krull dimension of the locus over F_q(t); None when it is empty.
        The basis is built only for two or more equations."""
        return system_dimension(self.equations, self.ring, lambda: self.basis)

    @cached_property
    def minors(self):
        """The MinorTable of the system: the one table through which the
        Hensel layer certifies, lifts and perturbs points of this system."""
        return MinorTable(self)


@dataclass
class RegularityReport:
    """A status, "regular", "singular" or "inconclusive", and the singular
    locus once the check builds it: one AffineSystem of the equations plus
    the nonzero Jacobian minors, with the system's inequation, whose dim is
    None exactly when it leaves the status "regular"."""

    status: str
    locus: AffineSystem | None = None


@dataclass
class BlowupChart:
    index: int
    strict: MultiPoly        # strict transform, in the curve's ring
    multiplicity: int
    back_map: tuple          # images of the original two coordinates
    exceptional: MultiPoly   # chart equation of the exceptional divisor


def regularity_check(system: AffineSystem) -> RegularityReport:
    """Spread out (t a variable over the perfect F_q), compute the non-smooth
    locus via size-(m-d) Jacobian minors, and test whether it meets the
    generic fibre: 1 in (equations + minors) over F_q(t) means Regular.

    A nonzero minor in t alone (dF/dt = -k*c*t^(k-1) for F = G(X) - c*t^k
    with p not dividing k, say) is a unit of F_q(t), so it settles Regular
    before any Groebner basis.  Otherwise the locus system is built, and
    Regular means its dim is None (its basis is the unit ideal).

    Requires an established equidimensional dimension: a hypersurface, a
    zero-dimensional locus, or codimension = number of given equations
    (unmixedness); anything else is Inconclusive.
    """
    eqs = system.equations
    ring = system.ring
    m = len(system.xnames)
    if not eqs:
        return RegularityReport("regular")
    dim = system.dim
    if dim is None:
        raise ValueError("emptiness is decided before the regularity check")
    k = m - dim
    # unmixedness: codimension matched by SOME generating set of that size
    equidimensional = (
        len(eqs) == 1 or dim == 0 or k == len(eqs) or k == len(system.basis.generators)
    )
    if not equidimensional:
        return RegularityReport("inconclusive")
    # minors of the spread-out scheme: derivatives in the X's and in t
    minors = list(nonzero_minors(jacobian(eqs, range(ring.nvars)), k, ring.one()).values())
    if any(h.x_degree() == 0 for h in minors):
        return RegularityReport("regular")
    locus = AffineSystem(ring, eqs + minors, system.inequation)
    return RegularityReport("regular" if locus.dim is None else "singular", locus)


def blow_up_origin(curve: MultiPoly):
    """Blow up a plane curve in the unknowns X, Y at the origin: two affine
    charts.  A t slot after them (F_q[X, Y, t]) is carried through unchanged.

    Chart 0 substitutes Y = X*Y' and divides by X^mu; chart 1 substitutes
    X = Y*X' and divides by Y^mu.  Substituting a chart's back map into the
    curve recovers strict * exceptional^mu identically.
    """
    ring = curve.ring
    if ring.nvars != 2 + (ring.tpos == 2):
        raise ValueError("blow-ups are implemented for plane curves")
    if not curve:
        raise ValueError("cannot blow up the zero polynomial")
    mu = min(e[0] + e[1] for e in curve.terms)
    if mu < 1:
        raise ValueError("curve does not pass through the origin")
    x, y = ring.var(0), ring.var(1)
    t_slot = [ring.var(2)] if ring.nvars == 3 else []
    charts = []
    for index, images, div_slot in ((0, [x, x * y], 0), (1, [y * x, y], 1)):
        total = curve.compose(images + t_slot, ring)
        terms = {}
        for e, c in total.terms.items():
            if e[div_slot] < mu:
                raise RuntimeError("the exceptional divisor divides the total transform mu times")
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


def _blow_up_at(curve, centre):
    """The blow-up charts of a plane curve over F_q[X, Y, t] at the F_q-point
    centre = (a, b), each with its back map through the centre: the images
    of X, Y and t as polynomials in the chart's coordinates."""
    ring = curve.ring
    x, y, t = ring.var(0), ring.var(1), ring.var(2)
    a, b = (ring.const(c) for c in centre)
    charts = blow_up_origin(curve.compose([x + a, y + b, t], ring))
    return [(chart, [chart.back_map[0] + a, chart.back_map[1] + b, t]) for chart in charts]


def vanishes_on_locus(system: AffineSystem, g: MultiPoly, with_certificate=False):
    """Does g vanish on the whole locus of a normalized system over the
    algebraic closure of F_q(t)?  Answers as radical_membership does.

    With no equation g must be 0.  A normalized equation f has no repeated
    factor of positive X-degree, so its primitive part f0 generates a radical
    ideal over F_q(t), and g vanishes on the locus iff f0 divides g, over
    F_q[X, t] by Gauss's lemma.  Two or more equations ask the system's own
    reduced basis, which generates the same ideal: a zero normal form
    (ideal.in_ideal, which takes a nonzero g) puts g in it, and otherwise one
    Rabinowitsch test on the basis decides.  A certificate is built only when
    g does vanish, and always over the equations themselves: it is checked
    (cli._radical_problems) as a recomposition of 1 from the system's
    equations, in order, not from a basis.
    """
    eqs = system.equations
    if len(eqs) > 1:
        if with_certificate:
            return radical_membership(g, eqs, with_certificate=True)
        basis = system.basis
        return not g or in_ideal(g, basis) or radical_membership(g, basis.generators)
    member = exact_divide(g, primitive_part(eqs[0])) is not None if eqs else not g
    if not with_certificate:
        return member
    if not member:
        return False, None
    return radical_membership(g, eqs, with_certificate=True)


def descend(system: AffineSystem, *centre: MultiPoly) -> AffineSystem:
    """Adjoin the centre polynomials to the equations of a normalized system
    (the locus away from them is handled elsewhere).  None may vanish on the
    whole locus, and the dimension must strictly decrease."""
    for u in centre:
        if vanishes_on_locus(system, u):
            raise ValueError("descent center vanishes on the whole locus")
    lower = AffineSystem(system.ring, system.equations + list(centre), system.inequation)
    if not (lower.dim is None or lower.dim < system.dim):
        raise RuntimeError("descent must drop the dimension")
    return lower


def _first_rational_centre(locus):
    """The first F_q-rational point of the singular locus (generators over
    F_q[X, Y, t]) in field order, or None: (a, b) is one when every generator
    vanishes identically in t at X = a, Y = b.  The walk stops at the first
    such point; a locus with none costs all q^2 points."""
    ring = locus[0].ring
    t = ring.var(ring.tpos)
    for a in ring.field.elements():
        for b in ring.field.elements():
            at = [ring.const(a), ring.const(b), t]
            if not any(h.compose(at, ring) for h in locus):
                return a, b
    return None


def decide_existential(
    system: AffineSystem,
    config: RunConfig | None = None,
    trace: list | None = None,
    _depth: int = 0,
) -> Verdict:
    """SAT/UNSAT/UNKNOWN for: do the equations vanish and the inequation not,
    somewhere on F_q[[t]]^m?

    The verdict refers to the normalized system, which it carries as
    `system`, so certificates and refutation levels verify against it."""
    if config is None:
        config = RunConfig()
    if trace is None:
        trace = []
    normalized = _normalize(system, trace)
    out = _decide_normalized(normalized, config, trace, _depth)
    if out.system is None:
        out.system = normalized
    return out


def _normalize(system, trace):
    """Drop a nonzero constant inequation and replace each equation of X-degree
    two or more by its squarefree part over F_q[X, t] with the F_q[t] content
    divided out (zero sets over F_q((t)) unchanged), when that lowers its total
    X-degree, which it cannot when a partial of f shows that f has no
    repeated factor of positive X-degree (_squarefree_by_a_partial); when
    two or more equations have a principal reduced basis the system IS a
    hypersurface in disguise (e.g. {X, X*Y}), and the basis's one generator
    replaces them; no basis is built for fewer.  Settles in at most two
    rounds, and returns the input object when nothing changes."""
    ring = system.ring
    g = system.inequation
    # a zero inequation stays: the radical test handles it
    if g is not None and g.is_constant() and g:
        trace.append("inequation is a nonzero constant, dropped")
        g = None
        system = AffineSystem(ring, system.equations, g)

    while True:
        replaced = []
        changed = False
        for f in system.equations:
            # X-degree adds up over factors: an X-linear equation keeps its own
            if f.x_degree() > 1 and not _squarefree_by_a_partial(f):
                sf = squarefree_equation(f)
                if sf.x_degree() < f.x_degree():
                    changed = True
                    f = sf
            replaced.append(f)
        if changed:
            trace.append("replaced equations by their squarefree parts")
            system = AffineSystem(ring, replaced, g)
        if len(system.equations) > 1 and len(system.basis.generators) == 1:
            trace.append("equations collapse to a principal ideal")
            system = AffineSystem(ring, [system.basis.generators[0]], g)
            continue
        return system


def _squarefree_by_a_partial(f):
    """Whether a partial of f is a nonzero polynomial in t alone, or a single
    term that no unknown dividing f divides.  A repeated factor of positive
    X-degree divides every partial (Jacobian criterion), so f has none."""
    dividing = [j for j in f.ring.xslots if all(e[j] for e in f.terms)]
    return any(d.x_degree() == 0 or len(d.terms) == 1 and not any(a[j] for a in d.terms for j in dividing)
               for d in map(f.partial, range(f.ring.nvars)))


def _decide_normalized(system, config, trace, depth):
    """The verdict on a normalized system; decide_existential attaches it.
    Emptiness, then g on the locus, then one truncation decision: only its
    UNKNOWN goes on to the regularity check, the blow-ups and the descent.

    The descent decides the report's locus system itself, reusing the
    basis and dimension the regularity check built when _normalize keeps
    it, and only a SAT from it is kept.  So it is skipped when
    vanishes_on_locus(report.locus, g) holds, and no verdict changes: the
    descent would decide that very system, its _normalize keeps the zero
    set, so the normalized locus is empty or g vanishes on all of it, and
    the descent could only end UNSAT.  When g is None or does not vanish
    there, the descent runs; its own certified inequation test then builds
    a tracked basis after the untracked one."""
    g = system.inequation
    if system.dim is None:
        _, cert = radical_membership(system.ring.one(), system.equations, with_certificate=True)
        trace.append("equations generate the unit ideal over F_q(t)")
        return Verdict(UNSAT, radical=cert, trace=trace)

    if g is not None:
        member, rcert = vanishes_on_locus(system, g, with_certificate=True)
        if member:
            trace.append("inequation vanishes identically on the locus")
            return Verdict(UNSAT, radical=rcert, trace=trace)

    # truncation needs no smoothness: its refutation is sound at any level and
    # its saturation-guarded certificate self-contained, so a decided verdict
    # stands; regularity only picks what to try when it is undecided
    direct = decide_positive(system, config, trace)
    if not direct.is_unknown:
        return direct

    report = regularity_check(system)
    trace.append(f"regularity: {report.status} (dimension {system.dim})")

    if report.status == "regular":
        return direct

    plane_curve = len(system.xnames) == 2 and len(system.equations) == 1
    if report.status == "singular" and plane_curve:
        out = _decide_singular_curve(system, report, config, trace, depth)
        if not out.is_unknown:
            return out
    else:
        reason = "resolution-out-of-scope" if report.status == "singular" else "inconclusive-regularity"
        out = Verdict(UNKNOWN, reason=reason, trace=trace)

    # solutions sitting on the singular locus form a strictly smaller system;
    # a SAT found there is a genuine solution (the smooth part stays out of
    # scope, so UNSAT cannot propagate from this descent)
    if (
        report.status == "singular"
        and depth < config.max_blowups
        and report.locus.dim < system.dim
    ):
        if g is not None and vanishes_on_locus(report.locus, g):
            trace.append("inequation vanishes on the singular locus: no descent")
            return out
        trace.append("descending to the singular locus")
        v_sing = decide_existential(report.locus, config, trace, depth + 1)
        if v_sing.is_sat:
            return v_sing
    return out


def _decide_singular_curve(system, report, config, trace, depth):
    ring = system.ring
    g = system.inequation
    if depth >= config.max_blowups:
        trace.append(f"blow-up depth cap {config.max_blowups} reached")
        return Verdict(UNKNOWN, reason="blowup-depth-exhausted", trace=trace)

    centre = _first_rational_centre(report.locus.equations)
    if centre is None:
        trace.append("singular locus has no F_q-rational point: cannot pick a center")
        return Verdict(UNKNOWN, reason="non-rational-singular-center", trace=trace)
    a, b = centre
    trace.append(f"blowing up the singular point ({a!r}, {b!r})")

    charts = _blow_up_at(system.equations[0], (a, b))
    mu = charts[0][0].multiplicity

    branches = []
    for chart, images in charts:
        chart_g = g.compose(images, ring) if g is not None else None
        chart_system = AffineSystem(ring, [chart.strict], chart_g)
        trace.append(f"descending into blow-up chart {chart.index} (multiplicity {mu})")
        v = decide_existential(chart_system, config, trace, depth + 1)
        if v.is_sat:
            at = point_table(ring, v.witness, v.witness[0].precision)
            mapped = (at(images[0]), at(images[1]))
            cert = certify_liftable(system.minors, list(mapped))
            gval = valuation_at(g, mapped) if g is not None else None
            if cert is not None and (g is None or val_exact(gval)):
                trace.append(f"chart {chart.index} witness mapped back and re-certified")
                return Verdict(
                    SAT,
                    witness=mapped,
                    certificate=cert,
                    inequation_valuation=gval,
                    trace=trace,
                )
            trace.append(
                f"chart {chart.index} witness failed re-certification on the base"
            )
            v = Verdict(UNKNOWN, reason="recertification-failed", trace=trace)
        branches.append(v)

    # the charts cover everything except the centre itself: decide it exactly
    center_system = descend(system, ring.var(0) - ring.const(a), ring.var(1) - ring.const(b))
    trace.append("descending to the blow-up center")
    v_center = decide_existential(center_system, config, trace, depth + 1)
    if v_center.is_sat:
        return v_center
    branches.append(v_center)

    if all(v.is_unsat for v in branches):
        trace.append("all blow-up branches refuted")
        return Verdict(UNSAT, refuted_at=None, radical=None, trace=trace, branches=branches)
    reason = next((v.reason for v in branches if v.is_unknown), "branch-unknown")
    return Verdict(UNKNOWN, reason=reason, trace=trace, branches=branches)
