"""Independent re-check of verdicts and their evidence.

Nothing here calls the engine's arithmetic: field elements, F_q[t]
polynomials and truncated series are re-implemented on integer codes, and the
engine's objects are only read (coordinates, exponent tuples, precisions).

- SAT: every equation of the decided system vanishes at the witness to its
  precision, the inequation has exact valuation (equal to the reported one),
  and the certificate's Jacobian minor has valuation e with precision > 2e.
- UNSAT by truncation: the refuted level is re-enumerated when it has at
  most BRUTE_FORCE_CAP digit tuples; larger levels are counted as skipped.
- UNSAT by radical membership: the cofactors recompose to 1 exactly, and the
  generators they multiply are the decided system's equations and 1 - Z*g.
"""

from __future__ import annotations

import itertools

BRUTE_FORCE_CAP = 200_000


class Field:
    """F_q on codes 0..q-1 (base-p digits of the coordinate vector)."""

    def __init__(self, p, n=1, modulus=None):
        self.p, self.n, self.q = p, n, p**n
        vecs = [self._digits(k) for k in range(self.q)]
        index = {v: k for k, v in enumerate(vecs)}
        self.add = [[index[tuple((x + y) % p for x, y in zip(a, b))] for b in vecs] for a in vecs]
        self.neg = [index[tuple(-x % p for x in a)] for a in vecs]
        self.mul = [[index[self._mulvec(a, b, modulus)] for b in vecs] for a in vecs]

    def _digits(self, k):
        out = []
        for _ in range(self.n):
            out.append(k % self.p)
            k //= self.p
        return tuple(out)

    def _mulvec(self, a, b, modulus):
        p, n = self.p, self.n
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the monic modulus of degree n
        for d in range(len(prod) - 1, n - 1, -1):
            c = prod[d]
            if c:
                for i in range(n + 1):
                    prod[d - n + i] = (prod[d - n + i] - c * modulus[i]) % p
        return tuple(prod[:n])

    def code(self, elem):
        k = 0
        for c in reversed(elem.coords):
            k = k * self.p + c
        return k


def field_of(ctx):
    return Field(ctx.p, ctx.n, ctx.modulus)


# ---------------------------------------------------------------------------
# truncated series: lists of codes of length N


def series_mul(F, a, b):
    n = len(a)
    out = [0] * n
    add, mul = F.add, F.mul
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j in range(n - i):
                y = b[j]
                if y:
                    out[i + j] = add[out[i + j]][row[y]]
    return out


def series_add(F, a, b):
    return [F.add[x][y] for x, y in zip(a, b)]


def series_valuation(a):
    """Index of the first nonzero digit, or None when a = 0 mod t^N."""
    return next((i for i, x in enumerate(a) if x), None)


def codes(F, poly):
    """{exps: code} of a polynomial over F_q (t in the last slot)."""
    return {e: F.code(c) for e, c in poly.terms.items()}


def evaluate(F, terms, point, n):
    """A {exps: code} polynomial in F_q[X, t], t in the last exponent slot, at
    a series point mod t^n."""
    powers = {}

    def power(j, k):
        if (j, k) not in powers:
            powers[j, k] = [1] + [0] * (n - 1) if k == 0 else series_mul(F, power(j, k - 1), point[j])
        return powers[j, k]

    acc = [0] * n
    for exps, c in terms.items():
        if exps[-1] >= n:
            continue
        term = [0] * n
        term[exps[-1]] = c
        for j, k in enumerate(exps[:-1]):
            if k:
                term = series_mul(F, term, power(j, k))
        acc = series_add(F, acc, term)
    return acc


def partial(F, terms, j):
    """d/dX_j of a {exps: code} polynomial."""
    out = {}
    for exps, c in terms.items():
        k = exps[j]
        c = F.mul[c][k % F.p] if k else 0
        if c:
            out[exps[:j] + (k - 1,) + exps[j + 1:]] = c
    return out


def det(F, m):
    """Determinant of a small square matrix of series, by cofactor expansion."""
    if len(m) == 1:
        return m[0][0]
    acc = [0] * len(m[0][0])
    for j, a in enumerate(m[0]):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = series_mul(F, a, det(F, minor))
        if j % 2:
            term = [F.neg[x] for x in term]
        acc = series_add(F, acc, term)
    return acc


# ---------------------------------------------------------------------------
# checks


def check_sat(verdict):
    system = verdict.system
    if system is None:
        return ["SAT verdict without its system"]
    F = field_of(system.ring.field)
    cert = verdict.certificate
    witness = list(verdict.witness or ())
    n = witness[0].precision if witness else cert.precision
    point = [[F.code(c) for c in x.coeffs[:n]] for x in witness]
    problems = []
    for f in system.equations:
        if series_valuation(evaluate(F, codes(F, f), point, n)) is not None:
            problems.append(f"residual below witness precision {n}")
    if system.inequation is not None and witness:
        v = series_valuation(evaluate(F, codes(F, system.inequation), point, n))
        if v is None:
            problems.append("inequation not exactly valued at the witness")
        elif verdict.inequation_valuation is not None and v != verdict.inequation_valuation:
            problems.append(f"inequation valuation {v} != reported {verdict.inequation_valuation}")
    if not n > 2 * cert.e:
        problems.append(f"precision {n} not above 2e = {2 * cert.e}")
    if cert.rows:
        jac = [[evaluate(F, partial(F, codes(F, system.equations[r]), c), point, n)
                for c in cert.cols] for r in cert.rows]
        v = series_valuation(det(F, jac))
        if v != cert.e:
            problems.append(f"certificate minor valuation {v} != e = {cert.e}")
    elif any(system.equations):
        problems.append("empty certificate minor with equations present")
    return problems


def brute_force_solvable(system, level):
    """Does the system's equation part have a solution mod t^level?

    None when the space exceeds BRUTE_FORCE_CAP digit tuples."""
    ctx = system.ring.field
    m = system.ring.nvars - 1
    if ctx.q ** (level * m) > BRUTE_FORCE_CAP:
        return None
    F = field_of(ctx)
    eqs = [codes(F, f) for f in system.equations]
    values = [list(v) for v in itertools.product(range(F.q), repeat=level)]
    for point in itertools.product(values, repeat=m):
        if all(series_valuation(evaluate(F, f, point, level)) is None for f in eqs):
            return True
    return False


# F_q[t] polynomials for the radical check: lists of codes, low to high


def _upoly(F, unipoly):
    return [F.code(c) for c in unipoly.coeffs]


def _pmul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add[out[i + j]][F.mul[x][y]]
    return _trim(out)


def _padd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = F.add[out[i]][y]
    return _trim(out)


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _frac_sum_is(F, fracs, target):
    """Is sum(num/den) == target (a code polynomial) in F_q(t)?"""
    by_den = {}
    for num, den in fracs:
        key = tuple(den)
        by_den[key] = _padd(F, by_den.get(key, []), num)
    dens = list(by_den)
    total = []
    for i, d in enumerate(dens):
        term = by_den[d]
        for j, other in enumerate(dens):
            if j != i:
                term = _pmul(F, term, list(other))
        total = _padd(F, total, term)
    common = [1]
    for d in dens:
        common = _pmul(F, common, list(d))
    return total == _pmul(F, target, common)


def _rat_terms(F, poly, drop_last=0):
    """{x-exps: (num, den)} of a polynomial over F_q(t)."""
    out = {}
    for e, c in poly.terms.items():
        key = e[: len(e) - drop_last]
        out[key] = (_upoly(F, c.num), _upoly(F, c.den))
    return out


def _t_terms(F, poly):
    """{x-exps: F_q[t] coefficient} of a polynomial with t in the last slot."""
    out = {}
    for e, c in poly.terms.items():
        coeff = out.setdefault(e[:-1], [])
        coeff += [0] * (e[-1] + 1 - len(coeff))
        coeff[e[-1]] = F.code(c)
    return out


def _same_poly(F, rat_terms, t_terms):
    keys = set(rat_terms) | set(t_terms)
    for k in keys:
        num, den = rat_terms.get(k, ([], [1]))
        if not _frac_sum_is(F, [(num, den)], _trim(list(t_terms.get(k, [])))):
            return False
    return True


def check_radical(cert, system):
    F = field_of(cert.ring.field.ctx)
    problems = []
    gens = list(cert.lifted_gens) + [cert.aux]
    if len(cert.cofactors) != len(gens):
        return ["radical certificate cofactor count mismatch"]
    acc = {}
    for c, f in zip(cert.cofactors, gens):
        for e1, (n1, d1) in _rat_terms(F, c).items():
            for e2, (n2, d2) in _rat_terms(F, f).items():
                mono = tuple(a + b for a, b in zip(e1, e2))
                acc.setdefault(mono, []).append((_pmul(F, n1, n2), _pmul(F, d1, d2)))
    zero = (0,) * cert.ring.nvars
    if not all(_frac_sum_is(F, acc.get(mono, []), [1] if mono == zero else [])
               for mono in set(acc) | {zero}):
        problems.append("radical cofactors do not recompose to 1")
    if system is not None:
        eqs = list(system.equations)
        if len(eqs) != len(cert.lifted_gens) or not all(
            _same_poly(F, _rat_terms(F, lg, 1), _t_terms(F, f))
            for lg, f in zip(cert.lifted_gens, eqs)
        ):
            problems.append("radical certificate generators are not the system's equations")
        # aux = 1 - Z*g with g the inequation, or g = 1 for the unit ideal
        z = cert.ring.nvars - 1
        g_terms = {}
        for e, (num, den) in _rat_terms(F, cert.aux).items():
            if e[z] == 1:
                g_terms[e[:z]] = ([F.neg[x] for x in num], den)
            elif any(e) or not _frac_sum_is(F, [(num, den)], [1]):
                problems.append("radical auxiliary generator is not 1 - Z*g")
        allowed = [{(0,) * z: [1]}]
        if system.inequation is not None:
            allowed.append(_t_terms(F, system.inequation))
        if not any(_same_poly(F, g_terms, g) for g in allowed):
            problems.append("radical certificate speaks about another inequation")
    return problems


def check_unsat(verdict, stats):
    """Problems with an UNSAT verdict tree; stats counts performed and
    skipped re-enumerations."""
    problems = []
    checked = False
    if verdict.radical is not None:
        problems += check_radical(verdict.radical, verdict.system)
        checked = True
    if verdict.refuted_at is not None and verdict.system is not None:
        solvable = brute_force_solvable(verdict.system, verdict.refuted_at)
        if solvable is None:
            stats["levels_skipped"] += 1
        else:
            stats["levels_enumerated"] += 1
        if solvable:
            problems.append(f"refuted level {verdict.refuted_at} admits a solution")
        checked = True
    for branch in verdict.branches or ():
        if not branch.is_unsat:
            problems.append("UNSAT verdict with a branch that is not UNSAT")
        else:
            problems += check_unsat(branch, stats)
        checked = True
    if not checked:
        problems.append("UNSAT verdict without checkable evidence")
    return problems


def check(item, verdict, stats):
    """Problems with one verdict against the item's reference."""
    problems = []
    if item.expect is not None and verdict.status not in item.expect:
        problems.append(f"status {verdict.status}, reference allows {sorted(item.expect)}: "
                        f"{item.why}")
    if verdict.is_sat:
        problems += check_sat(verdict)
    elif verdict.is_unsat:
        problems += check_unsat(verdict, stats)
    elif not verdict.reason:
        problems.append("UNKNOWN without a reason code")
    return problems
