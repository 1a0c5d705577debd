"""Oracle for the differential tests of laurentdecide.truncation, copied
verbatim from the layer it replaced: the Weil restriction with dense digit
monomials, where every digit monomial is an exponent tuple over all m*N
digit variables and every product adds two such tuples entry by entry, and
the digit search over MultiPoly systems, which turned each polynomial into
flat (var, exp, ...) monomials (_sparse) before assigning variables.

digit_terms converts a MultiPoly into the engine's form of a digit
equation, a term map keyed by sorted variable-index tuples."""

from __future__ import annotations

from operator import add

from laurentdecide.ff import FqContext
from laurentdecide.poly import MultiPoly, PolyRing
from laurentdecide.truncation import SearchBudgetExceeded, WeilRestriction


def _accumulate(out: dict, e, c):
    if e in out:
        s = out[e] + c
        if s:
            out[e] = s
        else:
            del out[e]
    elif c:
        out[e] = c


def _mul_mod(a, b, n):
    """Product of two vectors of digit term maps, truncated mod t^n."""
    out = [{} for _ in range(n)]
    for i in range(min(n, len(a))):
        if not a[i]:
            continue
        for j in range(min(n - i, len(b))):
            acc = out[i + j]
            for e1, c1 in a[i].items():
                for e2, c2 in b[j].items():
                    _accumulate(acc, tuple(map(add, e1, e2)), c1 * c2)
    return out


def weil_restrict(equations, ring: PolyRing, level: int) -> WeilRestriction:
    """Coefficients of t^0..t^(level-1) of each equation after substituting
    the digit expansion for every unknown.

    Each unknown is a vector of digit term maps, one per power of t, and all
    products are taken mod t^level, so no t-degree at or above the level is
    ever built.  Powers of each unknown are computed once per call.
    """
    if level < 1:
        raise ValueError("truncation level must be >= 1")
    ctx = ring.field
    if not isinstance(ctx, FqContext):
        raise TypeError("weil restriction runs over F_q[t] systems")
    tpos, xslots = ring.tpos, ring.xslots
    if tpos is None:
        raise ValueError("system ring must carry the t slot")
    m = len(xslots)

    digit_names = [f"{ring.names[i]}_{k}" for k in range(level) for i in xslots]
    if len(set(digit_names)) != len(digit_names):
        raise ValueError("digit name collision")
    digits = PolyRing(ctx, digit_names)
    one = digits.one().terms

    # powers[j][d] = (sum_k X_j_k t^k)^d mod t^level
    powers = [[[one], [digits.var(k * m + j).terms for k in range(level)]] for j in range(m)]

    def power(j, d):
        pw = powers[j]
        while len(pw) <= d:
            pw.append(_mul_mod(pw[-1], pw[1], level))
        return pw[d]

    restricted = []
    seen = set()
    for f in equations:
        coeffs = [{} for _ in range(level)]
        for e, c in f.terms.items():
            s = e[tpos]
            if s >= level:
                continue
            vec = [one]
            for j, i in enumerate(xslots):
                if e[i]:
                    vec = _mul_mod(vec, power(j, e[i]), level - s)
            for k, terms in enumerate(vec[: level - s]):
                acc = coeffs[k + s]
                for de, dc in terms.items():
                    _accumulate(acc, de, dc * c)
        for terms in coeffs:
            g = MultiPoly(digits, terms)
            if not g or g in seen:
                continue
            seen.add(g)
            restricted.append(g)
    return WeilRestriction(level, digits, restricted)


def digit_terms(g: MultiPoly):
    """The term map of g keyed by sorted variable-index tuples, one entry per
    unit of degree, in g's term order."""
    return {tuple(i for i, k in enumerate(e) for _ in range(k)): c for e, c in g.terms.items()}


def _sparse(f: MultiPoly):
    """Term map keyed by flat (var, exp, var, exp, ...) tuples, vars ascending."""
    out = {}
    for e, c in f.terms.items():
        out[tuple(x for i, k in enumerate(e) if k for x in (i, k))] = c
    return out


def _assign(poly: dict, i: int, pw):
    """Substitute the value with powers pw for variable i, the least variable
    left in poly."""
    out = {}
    for mono, c in poly.items():
        if mono and mono[0] == i:
            c = c * pw[mono[1]]
            if not c:
                continue
            mono = mono[2:]
        _accumulate(out, mono, c)
    return out


def iter_solutions(system, ring: PolyRing, node_budget: int | None = None):
    """All solutions over F_q, lexicographic in ring variable order.

    Depth-first assignment of the variables in ring order.  Assigning a
    variable substitutes it into the equations that still contain it, and
    only those are checked: the branch dies as soon as one of them is a
    nonzero constant.  Every visited partial assignment counts as one node,
    pruned ones and the empty root included.  Without a node budget the
    search is exhaustive; with one, SearchBudgetExceeded fires once the walk
    exceeds it (callers must then treat the level as undecided).
    """
    elems = list(ring.field.elements())
    nv = ring.nvars
    polys = [_sparse(p) for p in system]
    users = [[] for _ in range(nv)]
    for idx, p in enumerate(polys):
        for i in sorted({i for mono in p for i in mono[::2]}):
            users[i].append(idx)
    top = max([0] + [k for p in polys for mono in p for k in mono[1::2]])
    powers = [[v**k for k in range(top + 1)] for v in elems]

    def dead(p):
        return len(p) == 1 and () in p

    def assign(state, i, pw):
        """state with variable i set, or None once an equation dies."""
        state = list(state)
        for idx in users[i]:
            p = state[idx] = _assign(state[idx], i, pw)
            if dead(p):
                return None
        return state

    nodes = 1
    if node_budget is not None and nodes > node_budget:
        raise SearchBudgetExceeded(f"digit search exceeded {node_budget} nodes")
    if any(dead(p) for p in polys):
        return
    if nv == 0:
        yield ()
        return
    # states[i]: the system with variables 0..i-1 set; tried[i]: how many
    # values of variable i the walk has visited
    states = [polys] + [None] * nv
    tried = [0] * nv
    acc = [None] * nv
    i = 0
    while i >= 0:
        vi = tried[i]
        if vi == len(elems):
            tried[i] = 0
            i -= 1
            continue
        tried[i] = vi + 1
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise SearchBudgetExceeded(f"digit search exceeded {node_budget} nodes")
        state = assign(states[i], i, powers[vi]) if users[i] else states[i]
        if state is None:
            continue
        acc[i] = elems[vi]
        if i + 1 == nv:
            yield tuple(acc)
        else:
            states[i + 1] = state
            i += 1
