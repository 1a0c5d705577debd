"""Positive-existential solvability in F_q[[t]] by truncation.

A system of equations over F_q[t] has a solution in F_q[[t]] iff its
reduction mod t^N is solvable for every N; unsolvability at a single level
is therefore a sound refutation.  Solvability mod t^N is an F_q-question
after expanding each unknown into N series digits (Weil restriction; in
characteristic p, x^(pd) is the Frobenius image of x^d), and the digit
system, term maps keyed by sorted digit-index tuples from the restriction
through the search, is searched by exhaustive enumeration with pruning; the
rest of a residue class whose certification failed is counted in closed
form, not walked, when its remaining digits are free.  A mod-t^N solution
becomes a SAT verdict once Hensel certification succeeds and the Newton
lift to doubled precision fits the budget (so the last level only refutes);
a certified point always lifts, and certifies again at the lift.  Both
verdicts stay sound, and UNKNOWN is a legal outcome.
An inequation g != 0 is met here too: by a confirmed witness at which g has
exact valuation, or else by perturbing one along its free coordinates.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

from .ff import FqContext
from .hensel import PerturbBudget, certify_liftable, newton_lift, recertified, smooth_perturb
from .poly import PolyRing
from .series import TruncatedSeries, val_exact, valuation_at
from .verdict import SAT, UNKNOWN, UNSAT, Verdict


@dataclass(frozen=True)
class RunConfig:
    """Budgets for one decision run."""

    max_precision: int = 64  # truncation levels run 1, 2, 4, ... up to this
    perturb_budget: PerturbBudget = PerturbBudget()
    candidate_cap: int = 256  # candidates per level, certified or not
    max_blowups: int = 16
    search_budget: int = 2_000_000  # digit-search nodes per truncation level

    def __post_init__(self):
        counts = (self.max_precision, self.candidate_cap, self.search_budget)
        if min(counts) < 1 or self.max_blowups < 0:
            raise ValueError("budgets must be >= 1")


@dataclass
class WeilRestriction:
    """The mod-t^N reduction of a system, expanded over F_q.

    Digit variables are ordered digit-major: with m unknowns, digit k of
    unknown j sits at index k*m + j, so the ring reads X_0, Y_0, X_1, Y_1, ...
    The coefficient of t^k only involves digits 0..k, so a search in ring
    order has every t^k equation fully set once digit k of each unknown is.
    A tuple over F_q[t]/(t^N) solves the reduced system iff its digit
    expansion solves the restricted one.  Each restricted equation is a term
    map keyed by sorted digit-index tuples, X_0^2 * X_1 as (0, 0, 2).
    """

    level: int
    ring: PolyRing
    restricted: list

    def point(self, assignment):
        """Assemble the series point from a digit assignment."""
        n = self.level
        m = self.ring.nvars // n
        return tuple(
            TruncatedSeries._make(self.ring.field, assignment[j::m], n) for j in range(m)
        )


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
    """Product of two vectors of digit term maps, truncated mod t^n.  A digit
    monomial is the sorted tuple of its digit-variable indices, one entry per
    unit of degree."""
    out = [{} for _ in range(n)]
    for i in range(min(n, len(a))):
        if not a[i]:
            continue
        for j in range(min(n - i, len(b))):
            acc = out[i + j]
            for e1, c1 in a[i].items():
                for e2, c2 in b[j].items():
                    _accumulate(acc, tuple(sorted(e1 + e2)), c1 * c2)
    return out


def _power_step(prev, j, m, n):
    """prev * sum_k X_j_k t^k mod t^n, the next power of unknown j of m: the
    factor's coefficients are all 1, so each product inserts the digit index
    k*m + j and adds a coefficient unmultiplied, in _mul_mod's order, which
    keeps every term map's content and insertion order."""
    out = [{} for _ in range(n)]
    for i, terms in enumerate(prev):
        if not terms:
            continue
        for k in range(n - i):
            idx = k * m + j
            acc = out[i + k]
            for e1, c1 in terms.items():
                at = bisect(e1, idx)
                e = e1[:at] + (idx,) + e1[at:]
                if e in acc:
                    c = acc[e] + c1
                    if c:
                        acc[e] = c
                    else:
                        del acc[e]
                else:
                    acc[e] = c1
    return out


def _frobenius(prev, p, n):
    """prev^p mod t^n in characteristic p: slot k moves to slot kp and each
    digit index repeats p times; the multinomial coefficients lie in F_p."""
    out = [{} for _ in range(n)]
    for k in range(min(len(prev), (n + p - 1) // p)):
        out[k * p] = {tuple(i for i in e for _ in range(p)): c for e, c in prev[k].items()}
    return out


def _square(j, m, n, unit):
    """(sum_k X_j_k t^k)^2 mod t^n for odd p: slot s holds X_j_a X_j_b,
    a <= b = s - a, in increasing a, times 2 when a < b."""
    two = unit + unit
    return [
        {(a * m + j, (s - a) * m + j): two if 2 * a < s else unit for a in range(s // 2 + 1)}
        for s in range(n)
    ]


def weil_restrict(equations, ring: PolyRing, level: int) -> WeilRestriction:
    """Coefficients of t^0..t^(level-1) of each equation after substituting
    the digit expansion for every unknown.

    Each unknown is a vector of digit term maps, one per power of t, and all
    products are taken mod t^level, so no t-degree at or above the level is
    ever built.  Powers of each unknown are computed once per call: x^d for
    p | d as the Frobenius image of x^(d/p), x^2 for odd p written out, and
    every other power from the one below it by _power_step (the digit
    expansion's coefficients are all 1, so a step inserts digit indices and
    multiplies nothing); all three build the same term maps in the same
    insertion order.  A monomial's first unknown factor is its power vector
    itself; the others multiply in with _mul_mod.  Each restricted equation
    is the term map the products built, in their insertion order; zero and
    repeated ones are dropped.
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
    unit = ctx.one()
    one = {(): unit}
    p = ctx.p

    # powers[j][d] = (sum_k X_j_k t^k)^d mod t^level
    powers = [[[one], [{(k * m + j,): unit} for k in range(level)]] for j in range(m)]

    def power(j, d):
        pw = powers[j]
        while len(pw) <= d:
            e = len(pw)
            if e % p == 0:
                pw.append(_frobenius(pw[e // p], p, level))
            elif e == 2:
                pw.append(_square(j, m, level, unit))
            else:
                pw.append(_power_step(pw[-1], j, m, level))
        return pw[d]

    restricted = []
    seen = set()
    for f in equations:
        coeffs = [{} for _ in range(level)]
        for e, c in f.terms.items():
            s = e[tpos]
            if s >= level:
                continue
            vec = None
            for j, i in enumerate(xslots):
                if e[i]:
                    pw = power(j, e[i])
                    vec = pw if vec is None else _mul_mod(vec, pw, level - s)
            if vec is None:
                vec = [one]
            for k, terms in enumerate(vec[: level - s]):
                acc = coeffs[k + s]
                for de, dc in terms.items():
                    _accumulate(acc, de, dc * c)
        for terms in coeffs:
            key = frozenset(terms.items())
            if terms and key not in seen:
                seen.add(key)
                restricted.append(terms)
    return WeilRestriction(level, digits, restricted)


def _assign(poly: dict, i: int, pw):
    """Substitute the value with powers pw for variable i, the least variable
    left in poly: its occurrences are the leading run of a monomial."""
    out = {}
    for mono, c in poly.items():
        if mono and mono[0] == i:
            k = mono.count(i)
            c = c * pw[k]
            if not c:
                continue
            mono = mono[k:]
        if mono in out:
            c = out[mono] + c
            if not c:
                del out[mono]
                continue
        out[mono] = c
    return out


class SearchBudgetExceeded(Exception):
    """The digit search walked more nodes than the caller allowed."""


@dataclass
class SkipRequest:
    """A request, set between two solutions of iter_solutions, to drop the
    solutions after the last one that share its first depth variables (its
    class), at most room of them.

    The search reads it when resumed, clears depth and adds the solutions it
    dropped to skipped.  It drops them only when the class is a free tail:
    every equation is empty once the first depth variables are set, so the
    class is every value of the other r variables, a base-q counter.  If more
    than room are left, it yields the one after the room-th and walks on from
    there; otherwise it ends the class.  Either way it counts the nodes the
    walk would have visited, q^j at depth j below the class, and raises
    SearchBudgetExceeded exactly where the walk would have.  On any other
    class the request is cleared and the walk goes on as without it.
    decide_positive sets it after the first member of each class it
    rejects: at the last truncation level, of every class.
    """

    depth: int | None = None
    room: int = 0
    skipped: int = 0


def iter_solutions(system, ring: PolyRing, node_budget: int | None = None,
                   skip: SkipRequest | None = None):
    """All solutions over F_q of a system of term maps keyed by sorted
    variable-index tuples, as weil_restrict builds, in lexicographic order.

    Depth-first assignment of the variables in ring order.  Assigning a
    variable substitutes it into the equations that still contain it, and
    only those are checked: the branch dies as soon as one of them is a
    nonzero constant.  Every visited partial assignment counts as one node,
    pruned ones and the empty root included.  Without a node budget the
    search is exhaustive; with one, SearchBudgetExceeded fires once the walk
    exceeds it (callers must then treat the level as undecided).

    A caller that passes skip can ask, between two solutions, to drop the
    rest of a class (SkipRequest); without one every solution is yielded.
    The generator is driven by next() alone.
    """
    elems = list(ring.field.elements())
    nv = ring.nvars
    polys = list(system)
    users = [[] for _ in range(nv)]
    for idx, p in enumerate(polys):
        for i in sorted({i for mono in p for i in mono}):
            users[i].append(idx)
    top = max([0] + [mono.count(i) for p in polys for mono in p for i in mono])
    powers = [[v**k for k in range(top + 1)] for v in elems]

    def dead(p):
        return len(p) == 1 and () in p

    def assign(state, i, pw):
        """state with variable i set, or None once an equation dies; an
        equation already empty stays as it is."""
        state = list(state)
        for idx in users[i]:
            p = state[idx]
            if p:
                p = state[idx] = _assign(p, i, pw)
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
            while skip is not None and skip.depth is not None:
                d, skip.depth = skip.depth, None
                if d >= nv or any(states[d]):
                    break  # no tail, or not a free one: walk it
                # the tail's digits count members in base q; the walk from
                # member a to member b visits the nodes whose prefixes differ
                r, q = nv - d, len(elems)
                member = 0
                for v in range(d, nv):
                    member = member * q + tried[v] - 1
                last, room_out = q**r - 1, member + skip.room + 1
                target = min(room_out, last)
                nodes += sum(target // q**e - member // q**e for e in range(r))
                if node_budget is not None and nodes > node_budget:
                    raise SearchBudgetExceeded(f"digit search exceeded {node_budget} nodes")
                skip.skipped += target - member - (room_out <= last)
                for v in range(nv - 1, d - 1, -1):
                    target, digit = divmod(target, q)
                    tried[v], acc[v] = digit + 1, elems[digit]
                if room_out > last:
                    break  # the class is done: backtrack past it
                yield tuple(acc)
        else:
            states[i + 1] = state
            i += 1


def decide_positive(system, config: RunConfig | None = None, trace: list | None = None) -> Verdict:
    """Decide a system over F_q[[t]]: its equations, and its inequation g
    when it has one.  The system (a resolve.AffineSystem) is read through
    its minors, ring and inequation attributes alone.

    Truncation levels N = 1, 2, 4, ... up to config.max_precision: UNSAT(N)
    as soon as level N has no mod-t^N solution; SAT once one of the first
    config.candidate_cap solutions of a level certifies, lifted by Newton to
    doubled precision and certified there (Hensel's lemma: this never fails,
    and a failure would raise); UNKNOWN when the levels run out (or the
    digit search at some level outgrows config.search_budget nodes).  The last
    level, whose 2N exceeds config.max_precision, only refutes: it certifies
    nothing, but walks to the candidate cap, as its node count decides
    between the two UNKNOWN reasons.

    With an inequation, a confirmed witness is returned only when g has
    exact valuation there, which the verdict carries as
    inequation_valuation.  Others are remembered but the search keeps
    going, deeper levels included; when nothing better turns up, the first
    is perturbed until g has exact valuation (_sat_with_inequation), and the
    verdict is UNKNOWN if the perturbation budget runs out.  Refutation
    ignores the inequation.

    Every certification and lift of the call goes through the system's
    MinorTable, and so does every later call on the same system: a
    saturation guard answered once is never recomputed.

    One certificate serves each run of candidates sharing their digits below
    ceil(N/2), on which alone it depends; lifted witnesses are certified anew.
    The series point of a candidate is built only when it is read: once per
    class below the last level, for its certificate, and for each candidate
    of a certified class, for its lift.  Once a class's first candidate is
    rejected, as every class of the last level is, a SkipRequest asks the
    search to drop the rest of the class; it does so when the class's other
    digits are free (no restricted monomial holds two digits at or above
    ceil(N/2), so a class whose equations all vanish is every value of
    those digits) and reports how many it dropped, which count toward
    config.candidate_cap as if each had been tried.  A candidate of a
    rejected class that the search still yields costs a slice and a compare.
    """
    if config is None:
        config = RunConfig()
    if trace is None:
        trace = []
    table, ring, g = system.minors, system.ring, system.inequation
    fallback = None
    level = 1
    while level <= config.max_precision:
        restriction = weil_restrict(table.equations, ring, level)
        trace.append(
            f"level {level}: {len(restriction.restricted)} restricted equations, "
            f"{restriction.ring.nvars} digit variables"
        )
        target = 2 * level  # a certificate's gap 2e < N puts its lift at 2N
        tried = 0
        # iter_solutions yields each class (the digits below ceil(level/2))
        # as one run, so the last class and its certificate are all to keep
        digits_below = len(ring.xslots) * ((level + 1) // 2)
        last_class = cert = None
        skip = SkipRequest()
        try:
            for assignment in iter_solutions(
                restriction.restricted, restriction.ring, config.search_budget, skip
            ):
                tried += 1
                if tried + skip.skipped > config.candidate_cap:
                    trace.append(f"level {level}: candidate cap {config.candidate_cap} reached")
                    break
                key = assignment[:digits_below]
                if key != last_class:
                    last_class, cert = key, None
                    if target <= config.max_precision:
                        point = restriction.point(assignment)
                        cert = certify_liftable(table, list(point), precision=level)
                    if cert is None:
                        skip.depth = digits_below
                        skip.room = config.candidate_cap - tried - skip.skipped
                elif cert is not None:
                    point = restriction.point(assignment)
                if cert is None:
                    continue
                lifted = newton_lift(table, list(point), cert, target)
                final = recertified(certify_liftable(table, list(lifted), precision=target))
                gval = None if g is None else valuation_at(g, lifted)
                if gval is not None and not val_exact(gval):
                    if fallback is None:
                        fallback = lifted, final
                        trace.append(
                            f"level {level}: certified witness missed the acceptance "
                            "predicate, kept as fallback"
                        )
                    continue
                trace.append(f"level {level}: certified witness at precision {target}")
                return Verdict(SAT, witness=lifted, certificate=final,
                               inequation_valuation=gval, trace=trace)
        except SearchBudgetExceeded:
            trace.append(f"level {level}: digit search budget exhausted")
            return Verdict(UNKNOWN, reason="search-budget-exhausted", trace=trace)
        if not tried:
            trace.append(f"level {level}: restricted system unsolvable")
            return Verdict(UNSAT, refuted_at=level, trace=trace)
        level *= 2
    if fallback is not None:
        trace.append("no accepted witness; returning the first certified one")
        return _sat_with_inequation(system, *fallback, config, trace)
    trace.append(f"schedule exhausted at max precision {config.max_precision}")
    return Verdict(UNKNOWN, reason="precision-exhausted", trace=trace)


def _sat_with_inequation(system, witness, cert, config, trace):
    """Lift a confirmed witness, certified by cert, at which the inequation g
    has no exact valuation, to the precision the perturbation budget needs
    (up to config.max_precision), then perturb it until g has one."""
    table, g = system.minors, system.inequation
    budget = config.perturb_budget
    target = min(config.max_precision, 2 * cert.e + budget.depth + 2)
    if target > witness[0].precision:
        witness = newton_lift(table, list(witness), cert, target)
        cert = recertified(certify_liftable(table, list(witness), precision=target))
    out = smooth_perturb(table, list(witness), cert, g, budget)
    if out is None:
        trace.append("perturbation budget exhausted without meeting the inequation")
        return Verdict(UNKNOWN, reason="perturbation-budget-exhausted", trace=trace)
    witness, cert = out
    gval = valuation_at(g, witness)
    if not val_exact(gval):
        raise RuntimeError("perturbed witness leaves the inequation valuation inexact")
    trace.append(f"inequation attained exact valuation {gval}")
    return Verdict(SAT, witness=tuple(witness), certificate=cert,
                   inequation_valuation=gval, trace=trace)
