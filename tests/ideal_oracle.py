"""Oracle for the differential tests of laurentdecide.ideal: the division,
Buchberger and radical-membership routines as they stood before the division
loop was merged and cofactors became optional, copied verbatim.  Two division
loops (reduce_poly and _tracked_reduce), representation vectors built on
every call, and its own Rabinowitsch construction (extend_ring)."""

from __future__ import annotations

import heapq

from laurentdecide.ideal import (
    GroebnerBasis,
    RadicalCertificate,
    _divides,
    _mono_lcm,
    _mono_sub,
)
from laurentdecide.poly import MultiPoly, PolyRing, grevlex_key


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
