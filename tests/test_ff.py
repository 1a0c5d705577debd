import copy
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurentdecide.ff import FqContext, _is_irreducible, _smallest_irreducible, fq_context, is_prime
from laurentdecide.frontend import decide
from laurentdecide.series import TruncatedSeries, invert_unit


def test_prime_field_construction():
    f2 = FqContext(2)
    assert f2.q == 2
    assert f2.modulus is None


def test_f4_explicit_modulus():
    # x^2 + x + 1 is the unique irreducible quadratic over F_2
    f4 = FqContext(2, 2, (1, 1, 1))
    assert f4.q == 4


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        FqContext(2, 2, (1, 0, 1))


@pytest.mark.parametrize("modulus", [(1, 1, 1), (1, 0, 1), (1,), (1, 2), (2, 0), (0, 3)])
def test_prime_field_rejects_a_modulus_not_monic_of_degree_1(modulus):
    # a quadratic modulus over F_3 defines F_9, not F_3: it must not be
    # dropped silently
    with pytest.raises(ValueError, match="monic of degree"):
        FqContext(3, 1, modulus)


def test_prime_field_accepts_a_monic_linear_modulus():
    assert FqContext(3, 1, (2, 1)) is FqContext(3, 1, (5, 4)) is FqContext(3)


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        FqContext(4)
    with pytest.raises(ValueError):
        FqContext(1)


def test_default_modulus_is_deterministic():
    f4a = FqContext(2, 2)
    f4b = FqContext(2, 2)
    assert f4a.modulus == f4b.modulus == (1, 1, 1)
    # degree-3 over F_2: (1,0,1,1) = 1 + x^2 + x^3 is lex-smaller than (1,1,0,1)
    f8 = FqContext(2, 3)
    assert f8.modulus == (1, 0, 1, 1)


def test_f2_addition():
    f2 = FqContext(2)
    one = f2.one()
    assert one + one == f2.zero()


def test_f4_generator_square():
    # a*a reduces to a+1 modulo x^2+x+1
    f4 = FqContext(2, 2, (1, 1, 1))
    a = f4.gen()
    assert a * a == f4.elem((1, 1))


def test_f3_inverse():
    f3 = FqContext(3)
    two = f3.elem(2)
    assert two.inv() == two  # 2*2 = 4 = 1 mod 3
    assert two.inv() * two == f3.one()


def test_inversion_of_zero_raises():
    f3 = FqContext(3)
    with pytest.raises(ZeroDivisionError):
        f3.zero().inv()


@pytest.mark.parametrize("ctx", [FqContext(2), FqContext(3), FqContext(2, 2), FqContext(5)])
def test_enumeration_count_and_distinctness(ctx):
    elems = list(ctx.elements())
    assert len(elems) == ctx.q
    assert len(set(elems)) == ctx.q


def test_enumeration_order_f4():
    f4 = FqContext(2, 2)
    elems = list(f4.elements())
    # lexicographic on coordinate vectors: 0, 1, a, a+1
    assert [e.coords for e in elems] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_enumeration_order_f3():
    f3 = FqContext(3)
    assert [e.coords[0] for e in f3.elements()] == [0, 1, 2]


@pytest.mark.parametrize("ctx", [FqContext(2), FqContext(3), FqContext(5), FqContext(2, 2), FqContext(3, 2)])
def test_field_axioms_random(ctx):
    rng = random.Random(20240801)
    elems = list(ctx.elements())
    for _ in range(60):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


@pytest.mark.parametrize("ctx", [FqContext(2), FqContext(3), FqContext(2, 2), FqContext(3, 2)])
def test_frobenius_fixed_points(ctx):
    # a^q = a for every element of F_q
    for a in ctx.elements():
        assert a ** ctx.q == a


@pytest.mark.parametrize("ctx", [FqContext(2), FqContext(5), FqContext(2, 2), FqContext(3, 2)])
def test_inverses_over_full_enumeration(ctx):
    for a in ctx.elements():
        if a:
            assert a.inv() * a == ctx.one()


def test_enumeration_closed_under_ops():
    ctx = FqContext(2, 2)
    elems = set(ctx.elements())
    for a in elems:
        for b in elems:
            assert a + b in elems
            assert a * b in elems


@pytest.mark.parametrize("ctx", [FqContext(2, 2), FqContext(3, 2), FqContext(5)])
def test_pth_root_inverts_frobenius(ctx):
    for a in ctx.elements():
        assert a.pth_root() ** ctx.p == a


def test_context_cache():
    assert fq_context(3) is fq_context(3)
    assert fq_context(2, 2) is fq_context(2, 2)


def test_contexts_are_interned():
    assert FqContext(2, 2) is FqContext(2, 2, (1, 1, 1)) is FqContext(2, 2, [3, 1, 1])
    assert FqContext(3, 2) is not FqContext(3, 2, (2, 1, 1))
    assert fq_context is FqContext
    assert FqContext(5).elem(7) is FqContext(5).elem(2)
    assert copy.deepcopy(FqContext(3, 2).gen()) is FqContext(3, 2).gen()


def test_elem_rejects_other_fields():
    with pytest.raises(ValueError):
        FqContext(3).elem(FqContext(5).one())
    with pytest.raises(ValueError):
        FqContext(2, 2).elem((1, 0, 1))


def test_large_field_setup():
    # prime fields compute on codes mod p, so their set-up is linear in p;
    # extension fields build q x q tables, so their order is capped
    f = FqContext(10007)
    assert f.elem(10006) * f.elem(10006) == f.one()
    assert f.elem(1234).inv() * f.elem(1234) == f.one()
    f256 = FqContext(2, 8)
    a = f256.gen()
    assert a ** 255 == f256.one() and a.inv() * a == f256.one()
    with pytest.raises(ValueError):
        FqContext(2, 11)
    with pytest.raises(ValueError):
        FqContext(1_000_003)


def test_large_prime_field_decisions():
    f = FqContext(10007)
    assert decide("exists X. X*X = 1 + t", f).is_sat
    v = decide("exists X. X*X = t", f)
    assert v.is_unsat and v.refuted_at == 2


# -- differential tests against the coordinate-tuple kernel -----------------
#
# _OldContext, _OldElem, _old_zp_mul and _old_zp_mod below are verbatim copies
# of the kernel that the integer-coded one replaced (elements as coordinate
# tuples, products by polynomial multiplication and reduction), renamed.
# They are the oracle.


def _old_zp_mul(a, b, p):
    # polynomial product over Z/p, dense low-to-high coefficient lists
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _old_zp_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, over Z/p."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return [c % p for c in a[:dm]] + [0] * max(0, dm - len(a))


class _OldContext:
    """The field F_q = F_p^n with a fixed monic irreducible modulus."""

    def __init__(self, p: int, n: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.n = n
        self.q = p**n
        if n == 1:
            self.modulus = None
        else:
            if modulus is None:
                modulus = _smallest_irreducible(p, n)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree n")
            if not _is_irreducible(list(modulus), p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus

    def __eq__(self, other):
        return (
            isinstance(other, _OldContext)
            and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def elem(self, value) -> "_OldElem":
        """Build an element from an int or a coordinate sequence."""
        if isinstance(value, _OldElem):
            if value.ctx != self:
                raise ValueError("element from a different field")
            return value
        if isinstance(value, int):
            coords = (value % self.p,) + (0,) * (self.n - 1)
            return _OldElem(self, coords)
        coords = tuple(int(c) % self.p for c in value)
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        return _OldElem(self, coords)

    def zero(self) -> "_OldElem":
        return self.elem(0)

    def one(self) -> "_OldElem":
        return self.elem(1)

    def elements(self):
        """All q elements in coordinate-lexicographic order: 0, 1, ..., a, a+1, ...

        Equivalently base-p counting with c_0 the least significant digit.
        """
        for k in range(self.q):
            coords = []
            v = k
            for _ in range(self.n):
                coords.append(v % self.p)
                v //= self.p
            yield _OldElem(self, tuple(coords))


class _OldElem:
    """An element of F_q as a coordinate tuple over Z/p."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: _OldContext, coords):
        self.ctx = ctx
        self.coords = tuple(coords)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, _OldElem)
            and self.ctx == other.ctx
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def _check(self, other):
        if not isinstance(other, _OldElem) or other.ctx != self.ctx:
            raise ValueError("mixed-field arithmetic")

    def __add__(self, other):
        self._check(other)
        p = self.ctx.p
        return _OldElem(self.ctx, tuple((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        p = self.ctx.p
        return _OldElem(self.ctx, tuple((-a) % p for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        if ctx.n == 1:
            return _OldElem(ctx, ((self.coords[0] * other.coords[0]) % ctx.p,))
        prod = _old_zp_mul(list(self.coords), list(other.coords), ctx.p)
        red = _old_zp_mod(prod, list(ctx.modulus), ctx.p)
        return _OldElem(ctx, tuple(red[: ctx.n]))

    def inv(self) -> "_OldElem":
        if not self:
            raise ZeroDivisionError("inversion of zero in F_q")
        # a^(q-2) = a^(-1); q is tiny, square-and-multiply is plenty
        return self ** (self.ctx.q - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        result = self.ctx.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def pth_root(self) -> "_OldElem":
        """The unique p-th root (finite fields are perfect): a^(p^(n-1))."""
        return self ** (self.ctx.p ** (self.ctx.n - 1))


# every monic irreducible quadratic over F_2 (there is one) and F_3, and both
# irreducible cubics over F_2
SMALL_FIELDS = [
    (2, 1, None), (3, 1, None), (5, 1, None), (7, 1, None),
    (2, 2, None), (2, 2, (1, 1, 1)),
    (2, 3, (1, 0, 1, 1)), (2, 3, (1, 1, 0, 1)),
    (3, 2, (1, 0, 1)), (3, 2, (2, 1, 1)), (3, 2, (2, 2, 1)),
]
EXPONENTS = (0, 1, 2, 3, 5, 7, 26, -1, -2, -5)


def _agree_unary(new, old):
    assert new.coords == old.coords
    assert bool(new) == bool(old)
    assert (-new).coords == (-old).coords
    assert new.pth_root().coords == old.pth_root().coords
    for k in EXPONENTS:
        if k >= 0 or old:
            assert (new**k).coords == (old**k).coords
    if old:
        assert new.inv().coords == old.inv().coords
    else:
        with pytest.raises(ZeroDivisionError):
            new.inv()


def _agree_binary(a, b, x, y):
    assert (a + b).coords == (x + y).coords
    assert (a - b).coords == (x - y).coords
    assert (a * b).coords == (x * y).coords
    if y:
        assert (a / b).coords == (x / y).coords


@pytest.mark.parametrize("p,n,modulus", SMALL_FIELDS)
def test_kernel_matches_coordinate_oracle_on_every_pair(p, n, modulus):
    ctx, oracle = FqContext(p, n, modulus), _OldContext(p, n, modulus)
    assert ctx.modulus == oracle.modulus
    new, old = list(ctx.elements()), list(oracle.elements())
    assert [e.coords for e in new] == [e.coords for e in old]
    assert [ctx.elem(e.coords) for e in old] == new
    for a, x in zip(new, old):
        _agree_unary(a, x)
        for b, y in zip(new, old):
            _agree_binary(a, b, x, y)


def test_kernel_matches_coordinate_oracle_on_large_prime():
    p = 10007
    ctx, oracle = FqContext(p), _OldContext(p)
    rng = random.Random(10007)
    for _ in range(300):
        i, j = rng.randrange(p), rng.randrange(p)
        a, b, x, y = ctx.elem(i), ctx.elem(j), oracle.elem(i), oracle.elem(j)
        _agree_unary(a, x)
        _agree_binary(a, b, x, y)
    assert [e.coords for e in itertools.islice(ctx.elements(), 50)] == [
        e.coords for e in itertools.islice(oracle.elements(), 50)
    ]


# -- property tests --------------------------------------------------------

PROPERTY_FIELDS = [FqContext(2), FqContext(3), FqContext(7), FqContext(2, 2), FqContext(2, 3),
                   FqContext(3, 2), FqContext(10007)]
PROPERTIES = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def coords_of(ctx, code):
    return [code // ctx.p**i % ctx.p for i in range(ctx.n)]


@st.composite
def elements_of(draw, ctx):
    return ctx.elem(coords_of(ctx, draw(st.integers(0, ctx.q - 1))))


@PROPERTIES
@given(st.data())
def test_field_axioms_property(data):
    ctx = data.draw(st.sampled_from(PROPERTY_FIELDS))
    a, b, c = (data.draw(elements_of(ctx)) for _ in range(3))
    zero, one = ctx.zero(), ctx.one()
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)
    if a:
        assert a * a.inv() == one and (a * b) / a == b
    assert a.pth_root() ** ctx.p == a
    assert a ** ctx.q == a


@st.composite
def series_of(draw, ctx, precision, unit=False):
    codes = draw(st.lists(st.integers(0, ctx.q - 1), min_size=precision, max_size=precision))
    if unit and not codes[0]:
        codes[0] = 1
    return TruncatedSeries(ctx, [coords_of(ctx, k) for k in codes], precision)


@PROPERTIES
@given(st.data())
def test_series_ring_laws_property(data):
    ctx = data.draw(st.sampled_from(PROPERTY_FIELDS))
    n = data.draw(st.integers(1, 6))
    a, b, c = (data.draw(series_of(ctx, n)) for _ in range(3))
    zero, one = TruncatedSeries.zero(ctx, n), TruncatedSeries.one(ctx, n)
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    assert a ** 3 == a * a * a
    # the precision of a sum or product is the smaller one
    short = a.truncate(max(1, n - 1))
    assert (short * b).precision == short.precision
    assert short * b == short * b.truncate(short.precision)


@PROPERTIES
@given(st.data())
def test_invert_unit_property(data):
    ctx = data.draw(st.sampled_from(PROPERTY_FIELDS))
    n = data.draw(st.integers(1, 6))
    u = data.draw(series_of(ctx, n, unit=True))
    inv = invert_unit(u)
    assert inv.precision == n
    assert u * inv == TruncatedSeries.one(ctx, n)
    assert invert_unit(inv) == u
