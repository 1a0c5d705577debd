"""Groebner-basis services over F_q[X, t], and squarefree parts over F_q.

The Groebner routines (buchberger, normal_form, dimension and
radical_membership) read a ring with a t slot, F_q[X, t] with the slot
anywhere, as F_q[t][X], and answer for the ideal over F_q(t)[X]; a ring
without a t slot is F_q[X].  They work over the input ring from entry to
exit: by Gauss's lemma each element of the reduced basis over F_q(t) is
returned as its primitive associate over F_q[t], t_primitive's quotient,
which is unique, and normal forms come back in that form too.  F_q(t)
appears in radical_membership alone, which converts the certificate it
returns.  Nothing here may round or specialize: the Jacobian criterion is
unreliable over imperfect fields.  Squarefree parts and gcds work over the
perfect field F_q with t as one more variable, where every polynomial whose
partials all vanish is a p-th power.  Contents over F_q[t] are taken in one
place, t_primitive, with uni_gcd.

Buchberger with the sugar selection strategy and the Gebauer-Moeller pair
criteria, reduced bases, normal forms, Rabinowitsch radical membership with
explicit cofactor certificates, staircase Krull dimension.  One reduction,
_tracked_reduce, serves Buchberger, its interreduction and normal forms: it
scales by leading coefficients instead of dividing.  exact_divide divides
by one polynomial over F_q, the field division.  Buchberger keeps a
representation over the input generators, with one denominator in F_q[t],
only under track=True, which only certified radical membership asks for.
Radical membership and the saturation guard of the Hensel layer share one
Rabinowitsch construction, _rabinowitsch, with the fresh variable after t.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

from .ff import FqContext
from .poly import MultiPoly, PolyRing, UniPoly, grevlex_key, uni_gcd


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass
class GroebnerBasis:
    """Reduced Groebner basis for the graded reverse lexicographic order of
    the unknowns, over F_q(t) for a ring with a t slot: each generator is
    given over the ring itself, in t_primitive form (monic over F_q without
    a t slot), with its terms in no set order.

    When built with tracking, cofactors[i] is a pair (D, R): D a nonzero
    UniPoly in t and R a list of polynomials over the ring, one per input
    polynomial f_j, with D * generators[i] = sum R[j] * f_j.
    """

    ring: PolyRing
    generators: list
    cofactors: list | None = None

    def __len__(self):
        return len(self.generators)

    def contains_one(self) -> bool:
        return any(g.is_constant() and g for g in self.generators)


class _Tracked:
    """A working polynomial over F_q[t] in the unknowns, {X-exponent:
    UniPoly}, with its leading monomial (None while unknown), its sugar and,
    when tracking, its representation (D, R) over the input generators f_j,
    D in F_q[t] and each R[j] in the same form as the polynomial, with
    D * poly = sum R[j] * f_j (None otherwise)."""

    __slots__ = ("poly", "lm", "rep", "sugar")

    def __init__(self, poly, rep, sugar, lm=None):
        self.poly = poly
        self.lm = lm
        self.rep = rep
        self.sugar = sugar


def _lead(poly):
    """The leading X-monomial of a nonzero polynomial over F_q[t]."""
    return max(poly, key=grevlex_key)


def _is_one(u: UniPoly) -> bool:
    return len(u.coeffs) == 1 and u.coeffs[0].code == 1


def _sub_shifted(work, poly, shift, b):
    """work -= b * x^shift * poly over F_q[t], in place."""
    for e, c in poly.items():
        e = tuple(x + y for x, y in zip(e, shift))
        d = c * b
        w = work.get(e)
        if w is None:
            work[e] = -d
        else:
            w = w - d
            if w:
                work[e] = w
            else:
                del work[e]


def _combine(p, a, sp, q, b, sq):
    """a * x^sp * p - b * x^sq * q over F_q[t], as a new polynomial."""
    out = {tuple(x + y for x, y in zip(e, sp)): c * a for e, c in p.items()}
    _sub_shifted(out, q, sq, b)
    return out


def _rep_combine(rp, a, sp, rq, b, sq):
    """The representation of a * x^sp * p - b * x^sq * q from those of p and
    q: its denominator is the lcm of theirs, one uni_gcd."""
    (dp, p), (dq, q) = rp, rq
    h = uni_gcd(dp, dq)
    a, b = a * (dq // h), b * (dp // h)
    return dp * (dq // h), [_combine(u, a, sp, v, b, sq) for u, v in zip(p, q)]


def t_primitive(poly):
    """(d, poly / d) for a nonzero poly {X-exponent: UniPoly} over F_q[t]: d is
    its content times the unit that makes the quotient's leading coefficient
    monic in t, so the quotient is the same for every associate over F_q(t)."""
    lead = poly[_lead(poly)]
    d = UniPoly(lead.ctx, [])
    for c in sorted(poly.values(), key=lambda c: len(c.coeffs)):
        d = uni_gcd(d, c)
        if len(d.coeffs) == 1:
            break
    d = d.scale(lead.coeffs[-1])
    return d, (poly if _is_one(d) else {e: c // d for e, c in poly.items()})


def _tracked_reduce(f: _Tracked, basis):
    """Reduce f.poly by basis (list of _Tracked) without fractions, then
    divide out the content of the remainder.

    The steps are those of full division over F_q(t), each scaled: the
    leading reducible term c*x^m, against the first g whose leading term
    lc*x^lm divides it, is cleared by r <- (lc/h)*r - (c/h)*x^(m-lm)*g with
    h = gcd(c, lc), where r holds the terms already set aside too.  So every
    intermediate, and the result, is an F_q(t)-multiple of that division's;
    the sugar and the representation follow the steps, and the content
    divided out goes into the representation's denominator."""
    work = dict(f.poly)
    rest = {}
    rep = f.rep
    sugar = f.sugar
    while work:
        m = _lead(work)
        c = work[m]
        for g in basis:
            if _divides(g.lm, m):
                break
        else:
            rest[m] = work.pop(m)
            continue
        lc = g.poly[g.lm]
        h = uni_gcd(c, lc)
        a, b = (lc, c) if len(h.coeffs) == 1 else (lc // h, c // h)
        if not _is_one(a):
            work = {e: v * a for e, v in work.items()}
            rest = {e: v * a for e, v in rest.items()}
        shift = _mono_sub(m, g.lm)
        _sub_shifted(work, g.poly, shift, b)
        sugar = max(sugar, g.sugar + sum(shift))
        if rep is not None:
            rep = _rep_combine(rep, a, (0,) * len(m), g.rep, b, shift)
    if not rest:
        return _Tracked(rest, rep, sugar)
    d, poly = t_primitive(rest)
    if rep is not None and not _is_one(d):
        rep = (rep[0] * d, rep[1])
    return _Tracked(poly, rep, sugar, _lead(poly))


def buchberger(generators, ring: PolyRing | None = None, track: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of the given generators (for grevlex in the
    unknowns) over F_q(t)[X] when their ring is F_q[X, t] (the t slot
    anywhere), over F_q[X] when it has no t slot; see GroebnerBasis for the
    form of its generators and cofactors.

    The loop works fraction-free over F_q[t][X]: each basis element is
    primitive, with a leading coefficient monic in t, read straight off the
    t slot; the S-polynomial of f_i and f_j is
    (lc_j/h)*x^s_i*f_i - (lc_i/h)*x^s_j*f_j with h = gcd(lc_i, lc_j), and
    _tracked_reduce reduces it the same way.  Every intermediate is an
    F_q(t)-multiple of the one a loop over F_q(t) would hold, so the
    primitive forms of the two bases agree.

    Sugar pair selection; the Gebauer-Moeller criteria (Gebauer & Moeller,
    J. Symb. Comput. 6, 1988) drop pairs whose S-polynomial would reduce to
    zero.  With track=True each output generator carries cofactors over the
    input list; without it no representation is built at all.  The reduced
    basis is unique, but its cofactors depend on which pairs are reduced,
    and in what order.
    """
    gens = list(generators)
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = gens[0].ring
    if not isinstance(ring.field, FqContext):
        raise TypeError("buchberger takes polynomials over F_q")

    basis = []
    lms = []  # leading monomial of each basis element
    active = []  # the elements whose leading monomial no later one divides
    live = {}  # pending pair (i, j) -> lcm; a pruned pair leaves only here
    pairs = []

    def add(t):
        """Append t to the basis and update the pairs by the Gebauer-Moeller
        criteria (Becker & Weispfenning, GTM 141, 5.5, UPDATE)."""
        h, lm_h = len(basis), t.lm
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

    unit = {(0,) * len(ring.xslots): UniPoly.const(ring.field, 1)}
    for i, g in enumerate(gens):
        if not g:
            continue
        d, poly = t_primitive(g.x_coefficients())
        rep = (d, [unit if k == i else {} for k in range(len(gens))]) if track else None
        add(_Tracked(poly, rep, max(sum(e) for e in poly), _lead(poly)))

    while pairs:
        sugar, _, i, j = heapq.heappop(pairs)
        lcm = live.pop((i, j), None)
        if lcm is None:
            continue
        fi, fj = basis[i], basis[j]
        li, lj = fi.poly[lms[i]], fj.poly[lms[j]]
        h = uni_gcd(li, lj)
        ai, aj = (lj, li) if len(h.coeffs) == 1 else (lj // h, li // h)
        si = _mono_sub(lcm, lms[i])
        sj = _mono_sub(lcm, lms[j])
        s = _combine(fi.poly, ai, si, fj.poly, aj, sj)
        rep = _rep_combine(fi.rep, ai, si, fj.rep, aj, sj) if track else None
        cand = _tracked_reduce(_Tracked(s, rep, sugar), basis)
        if cand.poly:
            add(cand)

    reduced = _interreduce(basis)
    cof = None
    if track:
        cof = [(t.rep[0], [ring.from_coefficients(r) for r in t.rep[1]]) for t in reduced]
    return GroebnerBasis(ring, [ring.from_coefficients(t.poly) for t in reduced], cof)


def _interreduce(basis):
    """Sort by leading monomial, minimalize and tail-reduce; every element
    stays in t_primitive form."""
    # minimal: drop any generator whose LT is divisible by another's LT
    items = sorted(basis, key=lambda t: grevlex_key(t.lm))
    minimal = []
    for t in items:
        if any(_divides(u.lm, t.lm) for u in minimal):
            continue
        minimal.append(t)
    # tail-reduce each against the others once: no leading term changes, so
    # a generator stays reduced while the others are reduced after it
    for idx in range(len(minimal)):
        others = minimal[:idx] + minimal[idx + 1 :]
        if not others:
            continue
        red = _tracked_reduce(minimal[idx], others)
        if not red.poly:
            raise RuntimeError("minimal generator reduced to zero")
        minimal[idx] = red
    return minimal


def normal_form(f: MultiPoly, gb: GroebnerBasis):
    """f reduced by the basis gb of its ring, fraction-free: the remainder of
    the division over F_q(t) (over F_q without a t slot) up to a unit, in
    t_primitive form, so zero exactly when f lies in the ideal."""
    basis = []
    for g in gb.generators:
        poly = g.x_coefficients()
        basis.append(_Tracked(poly, None, 0, _lead(poly)))
    return f.ring.from_coefficients(_tracked_reduce(_Tracked(f.x_coefficients(), None, 0), basis).poly)


def ideal_membership(f: MultiPoly, gb: GroebnerBasis) -> bool:
    """f lies in the ideal iff its normal form vanishes."""
    return not normal_form(f, gb)


# ---------------------------------------------------------------------------
# radical membership (Rabinowitsch)


@dataclass
class RadicalCertificate:
    """Cofactors for 1 = sum c_i * f_i + c_last * (1 - Z*g) in F[X, Z]."""

    ring: PolyRing          # the extended ring with the Rabinowitsch variable
    lifted_gens: list       # input generators lifted to the extended ring
    aux: MultiPoly          # 1 - Z*g
    cofactors: list         # same length as lifted_gens + 1

    def verify(self) -> bool:
        acc = self.ring.zero()
        gens = self.lifted_gens + [self.aux]
        for c, f in zip(self.cofactors, gens):
            acc = acc + c * f
        return acc == self.ring.one()


def _rabinowitsch(gens, g: MultiPoly, base_name: str):
    """(lifted gens, 1 - Z*g): the Rabinowitsch generators of
    (gens) + (1 - Z*g) in g's ring with one fresh variable Z appended, named
    base_name, or base_name2, base_name3, ... if that is taken.  Their ideal
    meets the original ring in the saturation (gens) : g^inf."""
    ring = g.ring
    name, k = base_name, 2
    while name in ring.names:
        name, k = f"{base_name}{k}", k + 1
    ext = PolyRing(ring.field, ring.names + (name,))

    def lift(f):
        return MultiPoly(ext, {e + (0,): c for e, c in f.terms.items()})

    return [lift(f) for f in gens], ext.one() - ext.var(ring.nvars) * lift(g)


def radical_membership(g: MultiPoly, generators, with_certificate=False):
    """Does g vanish on the zero locus of the generators (a list; over the
    algebraic closure)?  Rabinowitsch: 1 in (gens) + (1 - Z*g).  The
    certificate lives over g's ring with Z appended, after t, over F_q(t)
    for a ring with a t slot, F_q(t)[X, Z]: the basis (1) comes with
    D * 1 = sum R_j * f_j over F_q[X, t, Z], and each cofactor is R_j / D,
    the one conversion into F_q(t) of the Groebner routines."""
    from .poly import RationalFunction, to_rational_coeffs

    lifted, aux = _rabinowitsch([f for f in generators if f], g, "Zrad")
    gb = buchberger(lifted + [aux], track=with_certificate)
    member = gb.contains_one()
    if not with_certificate:
        return member
    if not member:
        return False, None
    ((d, rep),) = gb.cofactors
    if aux.ring.tpos is None:
        inv = d.coeffs[0].inv()
        cert = RadicalCertificate(aux.ring, lifted, aux, [r.scale(inv) for r in rep])
    else:
        ring = aux.ring.fractions()
        cof = [MultiPoly(ring, {x: RationalFunction(c, d) for x, c in r.x_coefficients().items()})
               for r in rep]
        cert = RadicalCertificate(
            ring, [to_rational_coeffs(f) for f in lifted], to_rational_coeffs(aux), cof
        )
    if not cert.verify():
        raise RuntimeError("radical cofactors do not recompose to 1")
    return True, cert


# ---------------------------------------------------------------------------
# dimension


def dimension(gb: GroebnerBasis):
    """Krull dimension of the quotient ring, from the leading-term staircase
    in the unknowns: the largest subset S of the unknowns such that no
    leading monomial is supported inside S.  Returns None for the unit ideal
    (empty locus)."""
    if gb.contains_one():
        return None
    nvars = len(gb.ring.xslots)
    supports = [frozenset(i for i, k in enumerate(_lead(f.x_coefficients())) if k)
                for f in gb.generators]
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            sset = set(subset)
            if all(not supp <= sset for supp in supports):
                return size
    raise AssertionError("the empty subset is always independent")


# ---------------------------------------------------------------------------
# exact division and gcds over F_q (squarefree parts need a recursive gcd,
# which the public surface deliberately does not expose)


def exact_divide(f: MultiPoly, g: MultiPoly):
    """f / g when g divides f exactly; None otherwise.  Division over F_q
    stops at the first leading term of what is left that lm(g) does not
    divide; the quotient keeps its terms in the order they are peeled."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    lm, lc = g.lead_monomial(), g.lead_coeff()
    quotient = {}
    work = f
    while work:
        m = work.lead_monomial()
        if not _divides(lm, m):
            return None
        factor = work.terms[m] * lc.inv()
        shift = _mono_sub(m, lm)
        work = work - g.mul_term(shift, factor)
        quotient[shift] = factor
    return MultiPoly(f.ring, quotient)


def _quotient(f: MultiPoly, g: MultiPoly):
    """f / g for a g known to divide f (a gcd, a factor)."""
    q = exact_divide(f, g)
    if q is None:
        raise RuntimeError("a known divisor does not divide")
    return q


def _content_in(f: MultiPoly, x: int):
    """gcd of the coefficients of f as a polynomial in x."""
    cont = f.ring.zero()
    for k in dict.fromkeys(e[x] for e in f.terms):
        cont = gcd_multivariate(cont, f.coeff_of(x, k))
        if cont.is_constant():
            break
    return cont


def _pseudo_remainder(a: MultiPoly, b: MultiPoly, x: int):
    """Lazy pseudo-remainder of a by b in x: while r has x-degree dr >= db,
    r becomes r*lc(b) - c*x^(dr-db)*b, with c the x^dr coefficient of r."""
    db = b.degree_in(x)
    lb = b.coeff_of(x, db)
    one = b.ring.field.one()
    r = a
    while r and r.degree_in(x) >= db:
        dr = r.degree_in(x)
        shift = tuple(dr - db if i == x else 0 for i in range(b.ring.nvars))
        r = r * lb - r.coeff_of(x, dr) * b.mul_term(shift, one)
    return r


def _gcd_in_x(f: MultiPoly, g: MultiPoly, x: int):
    """gcd of two polynomials primitive in x and of positive x-degree, by the
    primitive pseudo-remainder sequence over D[x], D the polynomials in the
    other variables (Brown & Collins, J. ACM 18, 1971)."""
    a, b = (f, g) if f.degree_in(x) >= g.degree_in(x) else (g, f)
    while True:
        r = _pseudo_remainder(a, b, x)
        if not r:
            return b.monic()
        if r.degree_in(x) == 0:
            return f.ring.one()
        a, b = b, _quotient(r, _content_in(r, x))


def gcd_multivariate(f: MultiPoly, g: MultiPoly):
    """Deterministic gcd up to a field unit (leading coefficient 1), over a
    field F_q.  The main variable is the one of least degree in f and g;
    ties go to the higher index."""
    if not f:
        return g.monic()
    if not g:
        return f.monic()
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    vs = set(f.variables()) | set(g.variables())
    x = min(vs, key=lambda v: (max(f.degree_in(v), g.degree_in(v)), -v))
    if f.degree_in(x) == 0:
        return gcd_multivariate(f, _content_in(g, x))
    if g.degree_in(x) == 0:
        return gcd_multivariate(_content_in(f, x), g)
    cf, cg = _content_in(f, x), _content_in(g, x)
    h = _gcd_in_x(_quotient(f, cf), _quotient(g, cg), x)
    return (gcd_multivariate(cf, cg) * h).monic()


# ---------------------------------------------------------------------------
# squarefree part


def squarefree_part(f: MultiPoly) -> MultiPoly:
    """The product of the distinct irreducible factors of f over the perfect
    field F_q, each taken once (leading coefficient 1); t, when f's ring has
    the slot, is a variable like the others.

    Yun-style (Yun, SYMSAC 1976): G = gcd(f, every partial of f) keeps the
    factors whose multiplicity p divides whole and the others once less, so
    w = f / G holds each of the others once.  Stripping w's factors out of G
    leaves a polynomial with every exponent divisible by p, which is h^p with
    h read off coefficientwise by p-th roots (F_q is perfect); recurse on h.
    """
    ctx = f.ring.field
    if not isinstance(ctx, FqContext):
        raise TypeError("squarefree_part takes a polynomial over F_q")
    if not f:
        raise ValueError("squarefree part of the zero polynomial")
    if f.is_constant():
        return f.ring.one()
    G = f
    for v in f.variables():
        G = gcd_multivariate(G, f.partial(v))
        if G.is_constant():
            return f.monic()
    w = _quotient(f, G)
    c = G
    while True:
        e = gcd_multivariate(c, w)
        if e.is_constant():
            break
        c = _quotient(c, e)
    if c.is_constant():
        return w.monic()
    p = ctx.p
    if any(k % p for e in c.terms for k in e):
        raise RuntimeError("the stripped repeated part must be a p-th power")
    h = MultiPoly(f.ring, {tuple(k // p for k in e): a.pth_root() for e, a in c.terms.items()})
    return (w * squarefree_part(h)).monic()


def squarefree_equation(f: MultiPoly) -> MultiPoly:
    """The squarefree part of an equation f over F_q[X, t] in the form of
    primitive_monic."""
    return primitive_monic(squarefree_part(f))


def cancel_content(f: MultiPoly, d: UniPoly) -> MultiPoly:
    """A nonzero f over F_q[X, t] divided by gcd(d, its content), d in F_q[t]:
    f as it stands when that is 1."""
    poly = f.x_coefficients()
    g = uni_gcd(d, t_primitive(poly)[0])
    return f if len(g.coeffs) == 1 else f.ring.from_coefficients({x: c // g for x, c in poly.items()})


def primitive_part(f: MultiPoly) -> MultiPoly:
    """A nonzero f over F_q[X, t] divided by its content over F_q[t]."""
    return cancel_content(f, UniPoly(f.ring.field, []))


def primitive_monic(f: MultiPoly) -> MultiPoly:
    """The quotient of t_primitive for a nonzero f over F_q[X, t]."""
    d, prim = t_primitive(f.x_coefficients())
    return f.scale(d.coeffs[0].inv()) if len(d.coeffs) == 1 else f.ring.from_coefficients(prim)
