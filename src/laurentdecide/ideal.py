"""Groebner-basis services over F_q and F_q(t).

Buchberger with the sugar selection strategy and the coprime-leading-term
criterion, reduced bases, normal forms with quotient tracking, Rabinowitsch
radical membership with explicit cofactor certificates, staircase Krull
dimension, and squarefree parts (including the characteristic-p deflation
cases).  Coefficients over F_q(t) are exact RationalFunction values: the
Jacobian criterion is unreliable over imperfect fields, so nothing here may
round or specialize.

One division routine, reduce_poly, serves normal forms, quotients, exact
division and every reduction inside Buchberger; sugar and cofactors are read
off its quotients.  Buchberger keeps representation vectors over the input
generators only under track=True, which only certified radical membership
asks for.  Radical membership and the saturation guard of the Hensel layer
share one Rabinowitsch construction, _rabinowitsch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

from .poly import MultiPoly, PolyRing, RationalFunctionField, grevlex_key


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def reduce_poly(f: MultiPoly, divisors, with_quotients=False):
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


@dataclass
class GroebnerBasis:
    """Reduced Groebner basis in graded reverse lexicographic order.

    When built with tracking, cofactors[i] expresses generators[i] as a
    combination of the original input polynomials.
    """

    ring: PolyRing
    generators: list
    cofactors: list | None = None

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def contains_one(self) -> bool:
        return any(g.is_constant() and g for g in self.generators)


class _Tracked:
    """A working polynomial with its sugar and, when tracking, its
    representation over the input generators (None otherwise)."""

    __slots__ = ("poly", "rep", "sugar")

    def __init__(self, poly, rep, sugar):
        self.poly = poly
        self.rep = rep
        self.sugar = sugar


def _tracked_reduce(f: _Tracked, basis):
    """Reduce f.poly by basis (list of _Tracked); the sugar and the
    representation follow from the quotients."""
    r, quotients = reduce_poly(f.poly, [g.poly for g in basis], with_quotients=True)
    used = [(g, q) for g, q in zip(basis, quotients) if q]
    sugar = max([f.sugar] + [g.sugar + q.total_degree() for g, q in used])
    rep = f.rep
    if rep is not None:
        rep = list(rep)
        for g, q in used:
            for k, gk in enumerate(g.rep):
                if gk:
                    rep[k] = rep[k] - gk * q
    return _Tracked(r, rep, sugar)


def buchberger(generators, ring: PolyRing | None = None, track: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of the given generators (grevlex).

    Sugar pair selection, coprime-leading-term skip.  With track=True each
    output generator carries cofactors over the input list; without it no
    representation is built at all.
    """
    gens = list(generators)
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = gens[0].ring
    one = ring.one()
    zero = ring.zero()

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

    for i, g in enumerate(gens):
        if not g:
            continue
        rep = [one if k == i else zero for k in range(len(gens))] if track else None
        basis.append(_Tracked(g, rep, g.total_degree()))
        add_pairs(len(basis) - 1)

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
        rep = None
        if track:
            rep = [a.mul_term(si, ci) - b.mul_term(sj, cj) for a, b in zip(fi.rep, fj.rep)]
        cand = _tracked_reduce(_Tracked(s, rep, sugar), basis)
        if cand.poly:
            basis.append(cand)
            add_pairs(len(basis) - 1)

    reduced = _interreduce(basis)
    cof = [t.rep for t in reduced] if track else None
    return GroebnerBasis(ring, [t.poly for t in reduced], cof)


def _interreduce(basis):
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
            red = _tracked_reduce(minimal[idx], others)
            if red.poly != minimal[idx].poly:
                changed = True
            if not red.poly:
                raise RuntimeError("minimal generator reduced to zero")
            minimal[idx] = red
    out = []
    for t in minimal:
        inv = t.poly.lead_coeff().inv()
        rep = [r.scale(inv) for r in t.rep] if t.rep is not None else None
        out.append(_Tracked(t.poly.scale(inv), rep, t.sugar))
    out.sort(key=lambda t: grevlex_key(t.poly.lead_monomial()))
    return out


def normal_form(f: MultiPoly, gb: GroebnerBasis, with_quotients=False):
    return reduce_poly(f, gb.generators, with_quotients)


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
    """Does g vanish on the zero locus of the generators (over the algebraic
    closure)?  Rabinowitsch: 1 in (gens) + (1 - Z*g)."""
    if isinstance(generators, GroebnerBasis):
        generators = generators.generators
    lifted, aux = _rabinowitsch([f for f in generators if f], g, "Zrad")
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
    cert = RadicalCertificate(aux.ring, lifted, aux, cof)
    if not cert.verify():
        raise RuntimeError("radical cofactors do not recompose to 1")
    return True, cert


# ---------------------------------------------------------------------------
# dimension


def dimension(gb: GroebnerBasis, nvars: int | None = None):
    """Krull dimension of the quotient ring, from the leading-term staircase:
    the largest variable subset S such that no leading monomial is supported
    inside S.  Returns None for the unit ideal (empty locus)."""
    if gb.contains_one():
        return None
    if nvars is None:
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


# ---------------------------------------------------------------------------
# exact division and gcd helpers (private: contents need a recursive gcd,
# which the public surface deliberately does not expose)


def exact_divide(f: MultiPoly, g: MultiPoly):
    """f / g when g divides f exactly; None otherwise."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    r, (q,) = reduce_poly(f, [g], with_quotients=True)
    if r:
        return None
    return q


class _Frac:
    """Unreduced fraction of MultiPolys, enough for a Euclidean pass."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __bool__(self):
        return bool(self.num)

    def __sub__(self, other):
        return _Frac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Frac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError
        return _Frac(self.num * other.den, self.den * other.num)


def _as_x_coeffs(f: MultiPoly, x: int):
    """f as a map degree-in-x -> coefficient MultiPoly (x slot zeroed)."""
    out = {}
    for e, c in f.terms.items():
        k = e[x]
        e2 = list(e)
        e2[x] = 0
        key = tuple(e2)
        bucket = out.setdefault(k, {})
        bucket[key] = bucket[key] + c if key in bucket else c
        if not bucket[key]:
            del bucket[key]
    return {k: MultiPoly(f.ring, terms) for k, terms in out.items() if terms}


def _content_in(f: MultiPoly, x: int):
    """gcd of the coefficients of f as a polynomial in x."""
    coeffs = list(_as_x_coeffs(f, x).values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        cont = gcd_multivariate(cont, c)
        if cont.is_constant():
            break
    return _normalize_unit(cont)


def _normalize_unit(f: MultiPoly):
    """Scale so the grevlex leading coefficient is 1 (deterministic rep)."""
    if not f:
        return f
    return f.scale(f.lead_coeff().inv())


def _gcd_in_x(f: MultiPoly, g: MultiPoly, x: int):
    """Primitive gcd of two polynomials viewed univariately in x, by Euclid
    over the fraction field of the remaining variables."""
    ring = f.ring
    one = ring.one()

    def to_frac(h):
        cs = _as_x_coeffs(h, x)
        return {k: _Frac(c, one) for k, c in cs.items()}

    def deg(fr):
        return max(fr) if fr else -1

    def normalize(fr):
        return {k: v for k, v in fr.items() if v}

    a, b = to_frac(f), to_frac(g)
    if deg(a) < deg(b):
        a, b = b, a
    while b:
        # a mod b in Frac[x]
        da, db = deg(a), deg(b)
        lead_b = b[db]
        r = dict(a)
        while r and deg(r) >= db:
            dr = deg(r)
            factor = r[dr] / lead_b
            for k, v in b.items():
                kk = k + dr - db
                r[kk] = (r.get(kk) - v * factor) if kk in r else _Frac(-(v * factor).num, (v * factor).den)
            r = normalize(r)
        a, b = b, r
    # clear fractions: multiply by the product of denominators
    den_prod = one
    for v in a.values():
        den_prod = den_prod * v.den
    terms = {}
    for k, v in a.items():
        scaled = v.num * exact_divide(den_prod, v.den)
        for e, c in scaled.terms.items():
            e2 = list(e)
            e2[x] += k
            key = tuple(e2)
            terms[key] = terms[key] + c if key in terms else c
    cleared = MultiPoly(ring, {e: c for e, c in terms.items() if c})
    if not cleared:
        return ring.zero()
    if cleared.degree_in(x) == 0:
        return ring.one()
    cont = _content_in(cleared, x)
    prim = exact_divide(cleared, cont)
    if prim is None:
        raise RuntimeError("the content divides the polynomial")
    return _normalize_unit(prim)


def gcd_multivariate(f: MultiPoly, g: MultiPoly):
    """Deterministic gcd up to a field unit (leading coefficient 1)."""
    if not f:
        return _normalize_unit(g)
    if not g:
        return _normalize_unit(f)
    vs = sorted(set(f.variables()) | set(g.variables()))
    if not vs:
        return f.ring.one()
    x = vs[-1]  # occurs in at least one of f, g
    dfx, dgx = f.degree_in(x), g.degree_in(x)
    if dfx == 0:
        return gcd_multivariate(f, _content_in(g, x))
    if dgx == 0:
        return gcd_multivariate(_content_in(f, x), g)
    cf, cg = _content_in(f, x), _content_in(g, x)
    pf = exact_divide(f, cf)
    pg = exact_divide(g, cg)
    c = gcd_multivariate(cf, cg)
    h = _gcd_in_x(pf, pg, x)
    return _normalize_unit(c * h)


# ---------------------------------------------------------------------------
# squarefree part


def _deflate(f: MultiPoly, x: int, p: int):
    if any(e[x] % p for e in f.terms):
        raise RuntimeError("deflation needs exponents divisible by p")
    terms = {}
    for e, c in f.terms.items():
        e2 = list(e)
        e2[x] //= p
        terms[tuple(e2)] = c
    return MultiPoly(f.ring, terms)


def _inflate(f: MultiPoly, x: int, p: int):
    terms = {}
    for e, c in f.terms.items():
        e2 = list(e)
        e2[x] *= p
        terms[tuple(e2)] = c
    return MultiPoly(f.ring, terms)


def _pth_root_of_deflation(g: MultiPoly, x: int, p: int):
    """Given g with f = g(x^p), the h with f = h^p, if one is visible.

    f = h^p forces h = sum b x^k with b^p the x^k-coefficient of g: the
    x exponent survives untouched while every other exponent divides by p
    and every coefficient takes a p-th root.  None when the pattern fails
    (then f is not a p-th power over this coefficient field).
    """
    terms = {}
    for e, c in g.terms.items():
        if any(k % p for i, k in enumerate(e) if i != x):
            return None
        if not c.is_pth_power():
            return None
        e2 = tuple(k if i == x else k // p for i, k in enumerate(e))
        terms[e2] = c.pth_root()
    return MultiPoly(g.ring, terms)


def _char(ring: PolyRing) -> int:
    field = ring.field
    if isinstance(field, RationalFunctionField):
        return field.ctx.p
    return field.p


def squarefree_part(f: MultiPoly, main_var: int | None = None) -> MultiPoly:
    """A polynomial with the same zero locus as f (over any field extension)
    and, outside the documented deflation corner, no repeated factors.

    Characteristic-p inputs with vanishing derivative are deflated
    (f = g(x^p)); visible p-th powers take coefficientwise roots.
    """
    if not f:
        raise ValueError("squarefree part of the zero polynomial")
    if f.is_constant():
        return f.ring.one()
    vs = f.variables()
    x = main_var if main_var is not None and f.degree_in(main_var) > 0 else vs[0]
    cont = _content_in(f, x)
    prim = exact_divide(f, cont)
    if prim is None:
        raise RuntimeError("the content divides the polynomial")
    head = squarefree_part(cont) if not cont.is_constant() else f.ring.one()
    tail = _squarefree_primitive(prim, x)
    return _normalize_unit(head * tail)


def _squarefree_primitive(f: MultiPoly, x: int) -> MultiPoly:
    p = _char(f.ring)
    if f.degree_in(x) == 0:
        return f if not f.is_constant() else f.ring.one()
    d = f.partial(x)
    if not d:
        # f = g(x^p); a visible p-th root strips the whole power, otherwise
        # repeated factors of f show up as repeated factors of g
        g = _deflate(f, x, p)
        root = _pth_root_of_deflation(g, x, p)
        if root is not None:
            return squarefree_part(root, x)
        s = squarefree_part(g, x)
        return _inflate(s, x, p)
    g = gcd_multivariate(f, d)
    if g.is_constant():
        return _normalize_unit(f)
    w = exact_divide(f, g)
    if w is None:
        raise RuntimeError("gcd(f, f') divides f")
    # strip the factors of w out of g; what remains collects the factors with
    # exponent divisible by p or with vanishing x-derivative, so it has zero
    # x-derivative itself and recurses through the deflation branch
    c = g
    while True:
        e = gcd_multivariate(c, w)
        if e.is_constant():
            break
        c = exact_divide(c, e)
        if c is None:
            raise RuntimeError("a gcd divides its argument")
    if c.is_constant():
        return _normalize_unit(w)
    if c.partial(x):
        raise RuntimeError("residual repeated part must be x-inseparable")
    return _normalize_unit(w * _squarefree_primitive(c, x))
