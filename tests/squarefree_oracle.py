"""Oracle for the differential test of laurentdecide.ideal.squarefree_part:
the squarefree part over F_q(t)[X] as it stood before squarefree parts moved
to F_q[X, t], copied verbatim.  A content/primitive split in one main
variable, gcds by Euclid over the fraction field of the other variables
(unreduced _Frac values), and the characteristic-p deflation branch.  The
p-th-power test and root of its F_q(t) coefficients, once methods of UniPoly
and RationalFunction, are the functions _is_pth_power and _pth_root."""

from __future__ import annotations

from laurentdecide.ideal import exact_divide
from laurentdecide.poly import MultiPoly, PolyRing, RationalFunction, RationalFunctionField, UniPoly


def _uni_is_pth_power(f: UniPoly) -> bool:
    """p-th powers in F_q[t] are exactly the polynomials in t^p
    (coefficients are automatic: F_q is perfect)."""
    p = f.ctx.p
    return all(not c for i, c in enumerate(f.coeffs) if i % p)


def _uni_pth_root(f: UniPoly) -> UniPoly:
    p = f.ctx.p
    if not _uni_is_pth_power(f):
        raise ValueError(f"{f!r} is not a p-th power")
    out = [f.coeffs[i].pth_root() for i in range(0, len(f.coeffs), p)]
    return UniPoly._make(f.ctx, out)


def _is_pth_power(c) -> bool:
    if isinstance(c, RationalFunction):
        return _uni_is_pth_power(c.num) and _uni_is_pth_power(c.den)
    return True  # finite fields are perfect


def _pth_root(c):
    if isinstance(c, RationalFunction):
        return RationalFunction(_uni_pth_root(c.num), _uni_pth_root(c.den))
    return c.pth_root()


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
        if not _is_pth_power(c):
            return None
        e2 = tuple(k if i == x else k // p for i, k in enumerate(e))
        terms[e2] = _pth_root(c)
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
