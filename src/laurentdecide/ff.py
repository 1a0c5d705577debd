"""Exact arithmetic in the finite field F_q, q = p^n, on integer codes.

An element's coordinates over Z/p in the basis 1, a, ..., a^(n-1), where a is
a root of a monic irreducible modulus of degree n, are the base-p digits of
its code 0..q-1 (c_0 least significant).  The default modulus is the
lexicographically smallest monic irreducible (comparing the coefficient
tuple c_0..c_{n-1}), so contexts are reproducible across runs.

Contexts are interned: equal (p, n, modulus) give one object, so fields
compare by identity, and each context holds one FqElem per code.  Prime
fields compute on codes mod p (set-up O(p)); extension fields look sums and
products up in q x q tables built once from a discrete-log table.  Arithmetic
does no field check per scalar: the polynomial and series types check their
contexts once per operation.
"""

from __future__ import annotations

from itertools import product

# a context holds one element object per code, an extension field also its
# q x q tables: both sizes are capped
MAX_PRIME = 1 << 16
MAX_TABLE_Q = 1 << 10


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _is_irreducible(modulus, p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2 over Z/p."""
    n = len(modulus) - 1
    if n < 1 or modulus[-1] != 1:
        return False
    for d in range(1, n // 2 + 1):
        # all monic polynomials of degree d: coefficient tuples over Z/p
        for code in range(p**d):
            div = _digits(code, p, d) + [1]
            # does div divide modulus? compute remainder
            r = list(modulus)
            for i in range(len(r) - 1, d - 1, -1):
                lead = r[i] % p
                if lead:
                    for j in range(d + 1):
                        r[i - d + j] = (r[i - d + j] - lead * div[j]) % p
            if not any(c % p for c in r[:d]):
                return False
    return True


def _smallest_irreducible(p: int, n: int):
    """Lexicographically smallest monic irreducible of degree n over Z/p."""
    # coefficient tuples (c_0..c_{n-1}) in lexicographic order, c_0 slowest
    for tail in product(range(p), repeat=n):
        if _is_irreducible(list(tail) + [1], p):
            return tail + (1,)
    raise ValueError(f"no irreducible of degree {n} over F_{p}")  # unreachable


def _digits(code: int, p: int, n: int):
    out = []
    for _ in range(n):
        out.append(code % p)
        code //= p
    return out


def _mulmod(u, v, modulus, p):
    """Product of two coordinate vectors modulo the monic modulus, over Z/p."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                prod[i + j] += x * y
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d] % p
        if c:
            for i in range(n):
                prod[d - n + i] -= c * modulus[i]
    return [c % p for c in prod[:n]]


class FqContext:
    """The field F_q = F_p^n with a fixed monic irreducible modulus.

    Interned: FqContext(p, n, modulus) returns the one context of that field.
    A modulus given for n = 1 must still be monic of degree 1.
    """

    _interned: dict = {}

    def __new__(cls, p: int, n: int = 1, modulus=None):
        key = (p, n, None if modulus is None else tuple(modulus))
        ctx = cls._interned.get(key)
        if ctx is None:
            ctx = object.__new__(cls)
            ctx._setup(p, n, modulus)
            ctx = cls._interned.setdefault((ctx.p, ctx.n, ctx.modulus), ctx)
            cls._interned[key] = ctx
        return ctx

    def _setup(self, p, n, modulus):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is not None:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree n = {n}")
        self.p = p
        self.n = n
        self.q = q = p**n
        if n == 1:
            if p > MAX_PRIME:
                raise ValueError(f"prime field of order {p} exceeds the limit {MAX_PRIME}")
            self.modulus = None
            # doubled, so that a + b, a - b and -a index it without a reduction
            elems = [FqElem._make(self, k) for k in range(p)]
            self._elems = elems + elems
            return
        if q > MAX_TABLE_Q:
            raise ValueError(f"extension field of order {q} exceeds the table limit {MAX_TABLE_Q}")
        if modulus is None:
            modulus = _smallest_irreducible(p, n)
        if not _is_irreducible(list(modulus), p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        self._elems = elems = [FqElem._make(self, k) for k in range(q)]
        self._build_tables(elems)

    def _build_tables(self, elems):
        p, n, q = self.p, self.n, self.q
        weights = [p**i for i in range(n)]

        def code(vec):
            return sum(c * w for c, w in zip(vec, weights))

        # discrete logarithms to a primitive element g
        for g in range(2, q):
            gvec = _digits(g, p, n)
            powers, vec = [1], gvec
            while len(powers) < q - 1:
                k = code(vec)
                if k == 1:
                    break
                powers.append(k)
                vec = _mulmod(vec, gvec, self.modulus, p)
            if len(powers) == q - 1:
                break
        log = [0] * q
        for i, k in enumerate(powers):
            log[k] = i
        self._log = log
        self._exp = exp = [elems[k] for k in powers]
        exp2 = exp + exp
        zero = elems[0]
        self._mul = [[zero] * q] + [
            [zero] + [exp2[log[a] + log[b]] for b in range(1, q)] for a in range(1, q)
        ]
        self._inv = [None] + [exp[-log[a]] for a in range(1, q)]
        # digitwise addition: code a + b from the sums of the low digits and
        # the table of the remaining n - 1 digits
        low = [[(x + y) % p for y in range(p)] for x in range(p)]
        add = low
        for _ in range(n - 2):
            add = [[x + p * y for y in add[a // p] for x in low[a % p]] for a in range(len(add) * p)]
        self._add = [[elems[x + p * y] for y in add[a // p] for x in low[a % p]] for a in range(q)]
        self._neg = [elems[code([-c % p for c in _digits(a, p, n)])] for a in range(q)]

    def __reduce__(self):
        return (FqContext, (self.p, self.n, self.modulus))

    def __repr__(self):
        if self.n == 1:
            return f"F_{self.p}"
        return f"F_{self.q}(mod={list(self.modulus)})"

    def elem(self, value) -> "FqElem":
        """The element given by an element of this field, an int or a
        coordinate sequence."""
        if isinstance(value, FqElem):
            if value.ctx is not self:
                raise ValueError("element from a different field")
            return value
        if isinstance(value, int):
            return self._elems[value % self.p]
        coords = [int(c) % self.p for c in value]
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        code = 0
        for c in reversed(coords):
            code = code * self.p + c
        return self._elems[code]

    def zero(self) -> "FqElem":
        return self._elems[0]

    def one(self) -> "FqElem":
        return self._elems[1]

    def from_int(self, k: int) -> "FqElem":
        return self._elems[k % self.p]

    def gen(self) -> "FqElem":
        """The basis element a (requires n > 1)."""
        if self.n == 1:
            raise ValueError("prime field has no extension generator")
        return self._elems[self.p]

    def elements(self):
        """All q elements in coordinate-lexicographic order: 0, 1, ..., a, a+1, ...

        Equivalently ascending codes: base-p counting with c_0 the least
        significant digit.
        """
        return iter(self._elems[: self.q])


class FqElem:
    """An element of F_q: its context and its code.  There is one object per
    element, so equality is identity."""

    __slots__ = ("ctx", "code")

    @classmethod
    def _make(cls, ctx, code):
        self = object.__new__(cls)
        self.ctx = ctx
        self.code = code
        return self

    def __reduce__(self):
        return (self.ctx.elem, (self.coords,))

    @property
    def coords(self):
        return tuple(_digits(self.code, self.ctx.p, self.ctx.n))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        if self.ctx.n == 1:
            return str(self.code)
        parts = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else str(c) + "*"
                parts.append(f"{head}a" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts) if parts else "0"

    def __add__(self, other):
        ctx = self.ctx
        if ctx.n == 1:
            return ctx._elems[self.code + other.code]
        return ctx._add[self.code][other.code]

    def __neg__(self):
        ctx = self.ctx
        if ctx.n == 1:
            return ctx._elems[-self.code]
        return ctx._neg[self.code]

    def __sub__(self, other):
        ctx = self.ctx
        if ctx.n == 1:
            return ctx._elems[self.code - other.code]
        return ctx._add[self.code][ctx._neg[other.code].code]

    def __mul__(self, other):
        ctx = self.ctx
        if ctx.n == 1:
            return ctx._elems[self.code * other.code % ctx.p]
        return ctx._mul[self.code][other.code]

    def inv(self) -> "FqElem":
        if not self.code:
            raise ZeroDivisionError("inversion of zero in F_q")
        ctx = self.ctx
        if ctx.n == 1:
            return ctx._elems[pow(self.code, -1, ctx.p)]
        return ctx._inv[self.code]

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        ctx = self.ctx
        if ctx.n == 1:
            return ctx._elems[pow(self.code, k, ctx.p)]
        if not self.code:
            return ctx._elems[0 if k else 1]
        return ctx._exp[ctx._log[self.code] * k % (ctx.q - 1)]

    def pth_root(self) -> "FqElem":
        """The unique p-th root (finite fields are perfect): a^(p^(n-1))."""
        return self ** (self.ctx.p ** (self.ctx.n - 1))
