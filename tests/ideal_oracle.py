"""Oracle for the differential tests of laurentdecide.ideal: the division,
Buchberger and radical-membership routines as they stood before the division
loop was merged and cofactors became optional, copied verbatim.  Two division
loops (reduce_poly and _tracked_reduce), representation vectors built on
every call, and its own Rabinowitsch construction (extend_ring).  Below
them, frac_buchberger: the F_q(t) Buchberger with pair criteria that the
fraction-free loop over F_q[t][X] replaced, with the division over F_q(t)
(frac_reduce_poly) and the staircase dimension (frac_dimension) that read
its monic bases."""

from __future__ import annotations

import heapq
from itertools import combinations

from laurentdecide.ideal import (
    GroebnerBasis,
    RadicalCertificate,
    _divides,
    _mono_lcm,
    _mono_sub,
)
from laurentdecide.poly import MultiPoly, PolyRing, grevlex_key, to_rational_coeffs


def reduce_poly(f: MultiPoly, basis, with_quotients=False):
    """Full multivariate division of f by the ordered basis.

    Returns the normal form r, and with_quotients also the list q with
    f = sum q_i * basis_i + r.  No term of r is divisible by any basis
    leading term.  Deterministic: divisors tried in list order, the leading
    reducible term is always peeled first.
    """
    ring = f.ring
    quotients = [ring.zero() for _ in basis] if with_quotients else None
    lead = [(g.lead_monomial(), g.lead_coeff()) for g in basis]
    r_terms = {}
    work = f
    while work:
        m = work.lead_monomial()
        c = work.terms[m]
        for i, g in enumerate(basis):
            lm, lc = lead[i]
            if _divides(lm, m):
                factor = c * lc.inv()
                shift = _mono_sub(m, lm)
                work = work - g.mul_term(shift, factor)
                if with_quotients:
                    quotients[i] = quotients[i] + MultiPoly(ring, {shift: factor})
                break
        else:
            r_terms[m] = c
            work = work - MultiPoly(ring, {m: c})
    r = MultiPoly(ring, r_terms)
    if with_quotients:
        return r, quotients
    return r


class _Tracked:
    """A working polynomial with its representation over the input gens."""

    __slots__ = ("poly", "rep", "sugar")

    def __init__(self, poly, rep, sugar):
        self.poly = poly
        self.rep = rep
        self.sugar = sugar


def _tracked_reduce(f: _Tracked, basis, ring):
    """Reduce f.poly by basis (list of _Tracked), updating the representation."""
    work = f.poly
    rep = list(f.rep)
    sugar = f.sugar
    r_terms = {}
    lead = [(g.poly.lead_monomial(), g.poly.lead_coeff()) for g in basis]
    while work:
        m = work.lead_monomial()
        c = work.terms[m]
        for i, g in enumerate(basis):
            lm, lc = lead[i]
            if _divides(lm, m):
                factor = c * lc.inv()
                shift = _mono_sub(m, lm)
                work = work - g.poly.mul_term(shift, factor)
                for k in range(len(rep)):
                    if g.rep[k]:
                        rep[k] = rep[k] - g.rep[k].mul_term(shift, factor)
                sugar = max(sugar, g.sugar + sum(shift))
                break
        else:
            r_terms[m] = c
            work = work - MultiPoly(ring, {m: c})
    return _Tracked(MultiPoly(ring, r_terms), rep, sugar)


def buchberger(generators, ring: PolyRing | None = None, track: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of the given generators (grevlex).

    Sugar pair selection, coprime-leading-term skip.  With track=True each
    output generator carries cofactors over the input list.
    """
    gens = list(generators)
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = gens[0].ring
    one = ring.one()
    zero = ring.zero()

    work = []
    for i, g in enumerate(gens):
        if not g:
            continue
        rep = [one if k == i else zero for k in range(len(gens))]
        work.append(_Tracked(g, rep, g.total_degree()))

    basis = []
    pairs = []

    def add_pairs(j):
        for i in range(j):
            lm_i = basis[i].poly.lead_monomial()
            lm_j = basis[j].poly.lead_monomial()
            lcm = _mono_lcm(lm_i, lm_j)
            if lcm == tuple(a + b for a, b in zip(lm_i, lm_j)):
                continue  # coprime leading terms: S-poly reduces to zero
            sugar = max(
                basis[i].sugar + sum(_mono_sub(lcm, lm_i)),
                basis[j].sugar + sum(_mono_sub(lcm, lm_j)),
            )
            heapq.heappush(pairs, (sugar, grevlex_key(lcm), i, j))

    for f in work:
        basis.append(f)
        add_pairs(len(basis) - 1)

    nrep = len(gens)
    while pairs:
        sugar, _, i, j = heapq.heappop(pairs)
        fi, fj = basis[i], basis[j]
        lm_i = fi.poly.lead_monomial()
        lm_j = fj.poly.lead_monomial()
        lcm = _mono_lcm(lm_i, lm_j)
        ci = fi.poly.lead_coeff().inv()
        cj = fj.poly.lead_coeff().inv()
        si = _mono_sub(lcm, lm_i)
        sj = _mono_sub(lcm, lm_j)
        s = fi.poly.mul_term(si, ci) - fj.poly.mul_term(sj, cj)
        rep = [zero] * nrep
        for k in range(nrep):
            a = fi.rep[k].mul_term(si, ci) if fi.rep[k] else zero
            b = fj.rep[k].mul_term(sj, cj) if fj.rep[k] else zero
            rep[k] = a - b
        cand = _tracked_reduce(_Tracked(s, rep, sugar), basis, ring)
        if cand.poly:
            basis.append(cand)
            add_pairs(len(basis) - 1)

    reduced = _interreduce(basis, ring, nrep)
    generators_out = [t.poly for t in reduced]
    cof = [t.rep for t in reduced] if track else None
    return GroebnerBasis(ring, generators_out, cof)


def _interreduce(basis, ring, nrep):
    """Minimalize, tail-reduce, make monic, sort by leading monomial."""
    items = [t for t in basis if t.poly]
    # minimal: drop any generator whose LT is divisible by another's LT
    items.sort(key=lambda t: grevlex_key(t.poly.lead_monomial()))
    minimal = []
    for t in items:
        lm = t.poly.lead_monomial()
        if any(_divides(u.poly.lead_monomial(), lm) for u in minimal):
            continue
        minimal.append(t)
    # tail-reduce each against the others, iterate to a fixed point
    changed = True
    while changed:
        changed = False
        for idx in range(len(minimal)):
            others = minimal[:idx] + minimal[idx + 1 :]
            if not others:
                continue
            red = _tracked_reduce(minimal[idx], others, ring)
            if red.poly != minimal[idx].poly:
                changed = True
            assert red.poly, "minimal generator reduced to zero"
            minimal[idx] = red
    out = []
    for t in minimal:
        inv = t.poly.lead_coeff().inv()
        poly = t.poly.scale(inv)
        rep = [r.scale(inv) for r in t.rep]
        out.append(_Tracked(poly, rep, t.sugar))
    out.sort(key=lambda t: grevlex_key(t.poly.lead_monomial()))
    return out


def _fresh_name(base, taken):
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def extend_ring(ring: PolyRing, base_name: str):
    """Ring with one fresh variable appended; returns (new_ring, lift)."""
    name = _fresh_name(base_name, set(ring.names))
    new_ring = PolyRing(ring.field, ring.names + (name,))

    def lift(f):
        return MultiPoly(new_ring, {e + (0,): c for e, c in f.terms.items()})

    return new_ring, lift


def radical_membership(g: MultiPoly, generators, with_certificate=False):
    """Does g vanish on the zero locus of the generators (over the algebraic
    closure)?  Rabinowitsch: 1 in (gens) + (1 - Z*g)."""
    if isinstance(generators, GroebnerBasis):
        generators = generators.generators
    gens = [f for f in generators if f]
    ring = g.ring
    ext, lift = extend_ring(ring, "Zrad")
    lifted = [lift(f) for f in gens]
    z = ext.var(ext.nvars - 1)
    aux = ext.one() - z * lift(g)
    gb = buchberger(lifted + [aux], track=with_certificate)
    member = gb.contains_one()
    if not with_certificate:
        return member
    if not member:
        return False, None
    idx = next(i for i, h in enumerate(gb.generators) if h.is_constant() and h)
    unit = gb.generators[idx].constant_value()
    scale = unit.inv()
    cof = [c.scale(scale) for c in gb.cofactors[idx]]
    cert = RadicalCertificate(ext, lifted, aux, cof)
    if not cert.verify():
        raise RuntimeError("radical cofactors do not recompose to 1")
    return True, cert


# ---------------------------------------------------------------------------
# Buchberger over F_q(t) with the sugar strategy and the Gebauer-Moeller
# criteria, as it stood before the fraction-free loop over F_q[t][X]: every
# input converted to F_q(t)[X] at entry, every step in RationalFunction
# arithmetic.  Copied verbatim but for names, which carry "frac" here.


def _frac_read(f: MultiPoly):
    """f as the Groebner routines read it: over F_q(t)[X] when its ring has
    a t slot, as it stands otherwise."""
    return f if f.ring.tpos is None else to_rational_coeffs(f)


def frac_reduce_poly(f: MultiPoly, divisors, with_quotients=False):
    """Full multivariate division of f by the ordered list of divisors.

    Returns the normal form r, and with_quotients also the list of quotients
    with f = sum quotients[i] * divisors[i] + r.  No term of r is divisible
    by any divisor's leading term.  Deterministic: divisors are tried in list
    order and the leading reducible term is always peeled first.  Each step
    (divisor i, shift, factor) records the term factor * x^shift of
    quotients[i]; the peeled leading monomials strictly decrease, so no shift
    repeats within one quotient.
    """
    ring = f.ring
    steps = [{} for _ in divisors]
    lead = [(g.lead_monomial(), g.lead_coeff()) for g in divisors]
    r_terms = {}
    work = f
    while work:
        m = work.lead_monomial()
        c = work.terms[m]
        for i, g in enumerate(divisors):
            lm, lc = lead[i]
            if _divides(lm, m):
                factor = c * lc.inv()
                shift = _mono_sub(m, lm)
                work = work - g.mul_term(shift, factor)
                steps[i][shift] = factor
                break
        else:
            r_terms[m] = c
            work = work - MultiPoly(ring, {m: c})
    r = MultiPoly(ring, r_terms)
    if with_quotients:
        return r, [MultiPoly(ring, q) for q in steps]
    return r


class _FracTracked:
    """A working polynomial with its sugar and, when tracking, its
    representation over the input generators (None otherwise)."""

    __slots__ = ("poly", "rep", "sugar")

    def __init__(self, poly, rep, sugar):
        self.poly = poly
        self.rep = rep
        self.sugar = sugar


def _frac_tracked_reduce(f: _FracTracked, basis):
    """Reduce f.poly by basis (list of _FracTracked); the sugar and the
    representation follow from the quotients."""
    r, quotients = frac_reduce_poly(f.poly, [g.poly for g in basis], with_quotients=True)
    used = [(g, q) for g, q in zip(basis, quotients) if q]
    sugar = max([f.sugar] + [g.sugar + q.total_degree() for g, q in used])
    rep = f.rep
    if rep is not None:
        rep = list(rep)
        for g, q in used:
            for k, gk in enumerate(g.rep):
                if gk:
                    rep[k] = rep[k] - gk * q
    return _FracTracked(r, rep, sugar)


def frac_buchberger(generators, ring: PolyRing | None = None, track: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of the given generators (grevlex), over
    F_q(t)[X] when their ring is F_q[X, t].

    Sugar pair selection; the Gebauer-Moeller criteria (Gebauer & Moeller,
    J. Symb. Comput. 6, 1988) drop pairs whose S-polynomial would reduce to
    zero.  With track=True each output generator carries cofactors over the
    input list; without it no representation is built at all.  The reduced
    basis is unique, but its cofactors depend on which pairs are reduced,
    and in what order.
    """
    gens = [_frac_read(f) for f in generators]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = gens[0].ring
    elif ring.tpos is not None:
        ring = to_rational_coeffs(ring.zero()).ring
    one = ring.one()
    zero = ring.zero()

    basis = []
    lms = []  # leading monomial of each basis element
    active = []  # the elements whose leading monomial no later one divides
    live = {}  # pending pair (i, j) -> lcm; a pruned pair leaves only here
    pairs = []

    def add(t):
        """Append t to the basis and update the pairs by the Gebauer-Moeller
        criteria (Becker & Weispfenning, GTM 141, 5.5, UPDATE)."""
        h, lm_h = len(basis), t.poly.lead_monomial()
        basis.append(t)
        lms.append(lm_h)
        new = [(_mono_lcm(lms[g], lm_h), g) for g in active]
        kept = []
        for k, (lcm, g) in enumerate(new):
            coprime = lcm == tuple(a + b for a, b in zip(lms[g], lm_h))
            # M and F: another new lcm divides this one (the last of an equal
            # group stays, a coprime pair stands for its group)
            rest = [m for m, _, _ in kept] + [m for m, _ in new[k + 1 :]]
            if coprime or not any(_divides(m, lcm) for m in rest):
                kept.append((lcm, g, coprime))
        for (i, j), lcm in list(live.items()):  # B: h chains i to j
            if _divides(lm_h, lcm) and _mono_lcm(lms[i], lm_h) != lcm != _mono_lcm(lms[j], lm_h):
                del live[i, j]
        for lcm, g, coprime in kept:
            if coprime:
                continue  # coprime leading terms: S-poly reduces to zero
            sugar = max(
                basis[g].sugar + sum(_mono_sub(lcm, lms[g])),
                t.sugar + sum(_mono_sub(lcm, lm_h)),
            )
            live[g, h] = lcm
            heapq.heappush(pairs, (sugar, grevlex_key(lcm), g, h))
        active[:] = [g for g in active if not _divides(lm_h, lms[g])] + [h]

    for i, g in enumerate(gens):
        if not g:
            continue
        rep = [one if k == i else zero for k in range(len(gens))] if track else None
        add(_FracTracked(g, rep, g.total_degree()))

    while pairs:
        sugar, _, i, j = heapq.heappop(pairs)
        lcm = live.pop((i, j), None)
        if lcm is None:
            continue
        fi, fj = basis[i], basis[j]
        ci = fi.poly.lead_coeff().inv()
        cj = fj.poly.lead_coeff().inv()
        si = _mono_sub(lcm, lms[i])
        sj = _mono_sub(lcm, lms[j])
        s = fi.poly.mul_term(si, ci) - fj.poly.mul_term(sj, cj)
        rep = None
        if track:
            rep = [a.mul_term(si, ci) - b.mul_term(sj, cj) for a, b in zip(fi.rep, fj.rep)]
        cand = _frac_tracked_reduce(_FracTracked(s, rep, sugar), basis)
        if cand.poly:
            add(cand)

    reduced = _frac_interreduce(basis)
    cof = [t.rep for t in reduced] if track else None
    return GroebnerBasis(ring, [t.poly for t in reduced], cof)


def _frac_interreduce(basis):
    """Minimalize, tail-reduce, make monic, sort by leading monomial."""
    items = [t for t in basis if t.poly]
    # minimal: drop any generator whose LT is divisible by another's LT
    items.sort(key=lambda t: grevlex_key(t.poly.lead_monomial()))
    minimal = []
    for t in items:
        lm = t.poly.lead_monomial()
        if any(_divides(u.poly.lead_monomial(), lm) for u in minimal):
            continue
        minimal.append(t)
    # tail-reduce each against the others once: no leading term changes, so
    # a generator stays reduced while the others are reduced after it
    for idx in range(len(minimal)):
        others = minimal[:idx] + minimal[idx + 1 :]
        if not others:
            continue
        red = _frac_tracked_reduce(minimal[idx], others)
        if not red.poly:
            raise RuntimeError("minimal generator reduced to zero")
        minimal[idx] = red
    out = []
    for t in minimal:
        inv = t.poly.lead_coeff().inv()
        rep = [r.scale(inv) for r in t.rep] if t.rep is not None else None
        out.append(_FracTracked(t.poly.scale(inv), rep, t.sugar))
    out.sort(key=lambda t: grevlex_key(t.poly.lead_monomial()))
    return out


def frac_dimension(gb: GroebnerBasis):
    """Krull dimension of the quotient ring, from the leading-term staircase:
    the largest variable subset S such that no leading monomial is supported
    inside S.  Returns None for the unit ideal (empty locus)."""
    if gb.contains_one():
        return None
    nvars = gb.ring.nvars
    supports = [
        frozenset(i for i, k in enumerate(f.lead_monomial()) if k) for f in gb.generators if f
    ]
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            sset = set(subset)
            if all(not supp <= sset for supp in supports):
                return size
    raise AssertionError("the empty subset is always independent")
