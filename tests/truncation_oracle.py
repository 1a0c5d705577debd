"""Oracle for the differential tests of laurentdecide.truncation: the
decision loop as it stood before it certified each residue class once,
copied verbatim.  Every candidate of the digit search, up to the candidate
cap, is certified on its own, although its certificate depends only on its
digits below ceil(N/2).

The loop returns a witness that misses its acceptance predicate as it is;
_sat_with_inequation, copied verbatim from module resolve as it stood while
that module perturbed such a witness, is the step that followed it there."""

from __future__ import annotations

from laurentdecide.hensel import CertificateError, certify_liftable, newton_lift, smooth_perturb
from laurentdecide.series import val_exact, valuation_at
from laurentdecide.poly import PolyRing
from laurentdecide.truncation import (
    RunConfig,
    SearchBudgetExceeded,
    iter_solutions,
    weil_restrict,
)
from laurentdecide.verdict import SAT, UNKNOWN, UNSAT, Verdict


def decide_positive(
    table,
    ring: PolyRing,
    config: RunConfig | None = None,
    trace: list | None = None,
    accept=None,
) -> Verdict:
    """Decide a pure equation system (no inequation) over F_q[[t]]: the
    system of the MinorTable table, over ring.

    Truncation levels N = 1, 2, 4, ... up to config.max_precision: UNSAT(N)
    as soon as level N has no mod-t^N solution; SAT once one of the first
    config.candidate_cap solutions of a level certifies and its Newton lift to
    doubled precision confirms; UNKNOWN when the levels run out (or the digit
    search at some level outgrows config.search_budget nodes).

    An optional accept(witness) predicate lets the caller prefer certified
    witnesses with an extra property (an inequation holding, say): candidates
    failing it are remembered but the search keeps going, deeper levels
    included; the first remembered witness is returned when nothing better
    turns up.  Refutation is independent of accept.

    Every certification and lift of the call goes through the table, and so
    does every later call on the same table: a saturation guard answered
    once is never recomputed.
    """
    if config is None:
        config = RunConfig()
    if trace is None:
        trace = []
    eqs = table.equations
    blocked_by_budget = False
    fallback = None
    level = 1
    while level <= config.max_precision:
        restriction = weil_restrict(eqs, ring, level)
        trace.append(
            f"level {level}: {len(restriction.restricted)} restricted equations, "
            f"{restriction.ring.nvars} digit variables"
        )
        found_any = False
        tried = 0
        try:
            for assignment in iter_solutions(
                restriction.restricted, restriction.ring, config.search_budget
            ):
                found_any = True
                tried += 1
                if tried > config.candidate_cap:
                    trace.append(f"level {level}: candidate cap {config.candidate_cap} reached")
                    break
                point = restriction.point(assignment)
                cert = certify_liftable(table, list(point), precision=level)
                if cert is None:
                    continue
                target = 2 * max(level, cert.e + 1)
                if target > config.max_precision:
                    blocked_by_budget = True
                    trace.append(
                        f"level {level}: certificate found but confirmation precision "
                        f"{target} exceeds budget {config.max_precision}"
                    )
                    continue
                try:
                    lifted = newton_lift(table, list(point), cert, target)
                except CertificateError as err:
                    trace.append(f"level {level}: lift rejected a candidate ({err})")
                    continue
                final = certify_liftable(table, list(lifted), precision=target)
                if final is None:
                    continue
                if accept is not None and not accept(lifted):
                    if fallback is None:
                        fallback = Verdict(SAT, witness=lifted, certificate=final, trace=trace)
                        trace.append(
                            f"level {level}: certified witness missed the acceptance "
                            "predicate, kept as fallback"
                        )
                    continue
                trace.append(f"level {level}: certified witness at precision {target}")
                return Verdict(SAT, witness=lifted, certificate=final, trace=trace)
        except SearchBudgetExceeded:
            trace.append(f"level {level}: digit search budget exhausted")
            return Verdict(UNKNOWN, reason="search-budget-exhausted", trace=trace)
        if not found_any:
            trace.append(f"level {level}: restricted system unsolvable")
            return Verdict(UNSAT, refuted_at=level, trace=trace)
        level *= 2
    if fallback is not None:
        trace.append("no accepted witness; returning the first certified one")
        return fallback
    trace.append(f"schedule exhausted at max precision {config.max_precision}"
                 + (" with unconfirmed certificates" if blocked_by_budget else ""))
    return Verdict(UNKNOWN, reason="precision-exhausted", trace=trace)


def _sat_with_inequation(system, pos, config, trace):
    """Perturb a certified solution until the inequation has exact valuation."""
    table = system.minors
    g = system.inequation
    cert = pos.certificate
    budget = config.perturb_budget
    room = 2 * cert.e + budget.depth + 2
    target = min(config.max_precision, max(pos.witness[0].precision if pos.witness else 1, room))
    witness = pos.witness
    if witness and target > witness[0].precision:
        try:
            witness = newton_lift(table, list(witness), cert, target)
            cert2 = certify_liftable(table, list(witness), precision=target)
            if cert2 is not None:
                cert = cert2
        except CertificateError:
            witness = pos.witness
    out = smooth_perturb(table, list(witness), cert, g, budget)
    if out is None:
        trace.append("perturbation budget exhausted without meeting the inequation")
        return Verdict(UNKNOWN, reason="perturbation-budget-exhausted", trace=trace)
    final_witness, final_cert = out
    gval = valuation_at(g, final_witness)
    if not val_exact(gval):
        raise RuntimeError("perturbed witness leaves the inequation valuation inexact")
    trace.append(f"inequation attained exact valuation {gval}")
    return Verdict(
        SAT,
        witness=tuple(final_witness),
        certificate=final_cert,
        inequation_valuation=gval,
        trace=trace,
    )
