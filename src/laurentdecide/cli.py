"""Command-line entry point.

    decide --field p=3 "exists X. X*X = 1 + t"

Exit codes: 0 = decided (sat or unsat), 2 = usage/parse error, 3 = unknown.
Output is deterministic for identical inputs and configuration regardless of
the --threads value.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys

from .ff import FqContext
from .frontend import (
    ParseError,
    cleared_system,
    decide,
    parse_term_text,
    parse_variables,
    term_pair,
)
from .hensel import PerturbBudget, certify_liftable
from .poly import MultiPoly, PolyRing, to_rational_coeffs
from .resolve import AffineSystem, RunConfig, decide_existential
from .series import (
    TruncatedSeries,
    point_table,
    val_exact,
    val_ge,
    valuation,
    witness_to_json,
)
from .verdict import Verdict

SCHEMA = "laurent-decide/1"
VERIFY_TUPLE_CAP = 1 << 16
# nothing re-checks that the charts and the centre cover a blown-up curve
BLOWUP_SKIPPED = "blow-up decomposition not re-checked"


def ascii_int(text: str, what: str = "integer") -> int:
    """The integer that text writes in ASCII digits 0-9 after an optional
    minus sign, and nothing else: int() alone also reads "_" separators, a
    plus sign, surrounding blanks and other scripts' digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"malformed {what} {text!r}, expected ASCII digits 0-9")
    return int(text)


def parse_field_spec(text: str) -> FqContext:
    """Field spec string: "p=<p> n=<n> [modulus=<coeffs low-to-high>]"."""
    p = None
    n = 1
    modulus = None
    seen = set()
    for part in text.split():
        if "=" not in part:
            raise ValueError(f"malformed field component {part!r}")
        key, value = part.split("=", 1)
        if key in seen:
            raise ValueError(f"field component {key!r} given twice")
        seen.add(key)
        if key == "p":
            p = ascii_int(value, "p")
        elif key == "n":
            n = ascii_int(value, "n")
        elif key == "modulus":
            modulus = tuple(ascii_int(c, "modulus coefficient") for c in value.split(","))
        else:
            raise ValueError(f"unknown field component {key!r}")
    if p is None:
        raise ValueError("field spec needs p=<prime>")
    return FqContext(p, n, modulus)


def parse_budget(text: str) -> PerturbBudget:
    """Perturbation budget "directions x depth", e.g. "8x16"."""
    try:
        directions, depth = (ascii_int(part) for part in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"malformed perturb budget {text!r}, expected DxM") from None
    if directions < 1 or depth < 1:
        raise ValueError("budgets must be >= 1")
    return PerturbBudget(directions, depth)


def load_system_file(path: str, ctx: FqContext) -> AffineSystem:
    """System file: header "vars X1 X2 ...", then "eq <poly>" lines and
    optional "neq <poly>" lines (merged into one product inequation).  Blank
    lines and lines starting with # are skipped; parse errors name the file
    line and the column within it.  Terms are built over F_q[X, t] by the
    sentence front end's builder (frontend.term_pair) and cleared once each,
    never over F_q(t); unlike a sentence, a constant eq or neq line is kept
    as it is."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = []
        for number, raw in enumerate(handle, 1):
            line = raw.rstrip()
            body = line.lstrip()
            if body and not body.startswith("#"):
                kind = body.split(None, 1)[0]
                # index where the text after the kind word starts
                lines.append((number, line, kind, len(line) - len(body) + len(kind)))
    if not lines or lines[0][2] != "vars":
        raise ValueError("system file must start with a 'vars' header")
    number, line, _, start = lines[0]
    names = _at_line(number, parse_variables, line, start)
    ring = PolyRing(ctx, tuple(names) + ("t",))
    var_index = {name: i for i, name in enumerate(names)}
    pairs = {"eq": [], "neq": []}
    for number, line, kind, start in lines[1:]:
        if kind not in pairs:
            raise ParseError(f"unknown system line kind {kind!r}", start - len(kind) + 1, number)
        if not line[start:].strip():
            raise ParseError(f"{kind!r} line has no polynomial", start + 1, number)
        term = _at_line(number, parse_term_text, line, start)
        pairs[kind].append(_at_line(number, term_pair, term, ring, var_index))
    return cleared_system(ring, pairs["eq"], pairs["neq"])


def _at_line(number, parse, *args):
    """parse(*args), with a parse error placed at the file line number."""
    try:
        return parse(*args)
    except ParseError as err:
        raise ParseError(err.message, err.column, number) from None


def _branch_summary(branch: Verdict) -> dict:
    out = {"status": branch.status}
    if branch.refuted_at is not None:
        out["refuted_at"] = branch.refuted_at
    if branch.radical is not None:
        out["evidence"] = "radical-membership"
    if branch.branches:
        out["branches"] = [_branch_summary(b) for b in branch.branches]
    return out


def verdict_to_report(verdict: Verdict, include_trace: bool) -> dict:
    report = {"schema": SCHEMA, "status": verdict.status}
    if verdict.is_sat:
        wjson = witness_to_json(verdict.witness)
        report["witness"] = wjson["coords"]
        report["precision"] = (
            wjson["precision"] if wjson["precision"] is not None else verdict.certificate.precision
        )
        report["certificate"] = verdict.certificate.to_json()
        if verdict.inequation_valuation is not None:
            report["inequation_valuation"] = verdict.inequation_valuation
    elif verdict.is_unsat:
        if verdict.refuted_at is not None:
            report["refuted_at"] = verdict.refuted_at
        if verdict.radical is not None:
            report["evidence"] = "radical-membership"
        if verdict.branches:
            report["disjuncts"] = [_branch_summary(b) for b in verdict.branches]
    else:
        report["reason"] = verdict.reason or "unknown"
    if include_trace:
        report["trace"] = list(verdict.trace)
    return report


def _verify_sat(verdict: Verdict) -> list:
    problems = []
    system = verdict.system
    if system is None:
        return ["no system attached to the verdict"]
    witness = list(verdict.witness)
    precision = witness[0].precision if witness else verdict.certificate.precision
    if witness:
        at = point_table(system.ring, witness, precision)
        for f in system.equations:
            if not val_ge(valuation(at(f)), precision):
                problems.append(f"residual of {f!r} below witness precision")
        if system.inequation is not None and not val_exact(valuation(at(system.inequation))):
            problems.append("inequation value not exactly valued at the witness")
    # a system of its own: nothing the decision cached is reused
    fresh = certify_liftable(AffineSystem(system.ring, system.equations).minors, witness,
                             precision=precision)
    if fresh is None:
        problems.append("re-certification by the engine's certify_liftable failed")
    return problems


def _radical_problems(cert, system) -> list:
    """Problems with a radical certificate of the system: its cofactors must
    recompose to 1, its generators must be the system's equations over
    F_q(t), in order, and its auxiliary generator must be 1 - Z*g, with g
    the system's inequation or g = 1 for the unit ideal."""
    problems = [] if cert.verify() else ["radical certificate does not recompose to 1"]
    if system is None:
        return problems
    ext = cert.ring
    if ext.names[:-1] != system.xnames:
        return problems + ["radical certificate lives over another ring"]

    def lift(f):
        return MultiPoly(ext, {e + (0,): c for e, c in to_rational_coeffs(f).terms.items()})

    if cert.lifted_gens != [lift(f) for f in system.equations]:
        problems.append("radical certificate generators are not the system's equations")
    z = ext.var(ext.nvars - 1)
    allowed = [ext.one() - z]
    if system.inequation is not None:
        allowed.append(ext.one() - z * lift(system.inequation))
    if cert.aux not in allowed:
        problems.append("radical certificate speaks about another inequation")
    return problems


def _verify_unsat(verdict: Verdict, skipped: list) -> list:
    """Problems found in the UNSAT evidence; checks not run go to skipped."""
    problems = []
    system = verdict.system
    if verdict.radical is not None:
        problems.extend(_radical_problems(verdict.radical, system))
    if verdict.refuted_at is not None and system is not None:
        n = verdict.refuted_at
        ctx = system.ring.field
        m = len(system.xnames)
        total = ctx.q ** (n * m)
        if total > VERIFY_TUPLE_CAP:
            skipped.append(
                f"refutation level {n} not re-enumerated: "
                f"{total} tuples exceed the cap {VERIFY_TUPLE_CAP}"
            )
        else:
            elems = list(ctx.elements())
            for digits in itertools.product(elems, repeat=n * m):
                point = [
                    TruncatedSeries(ctx, list(digits[j * n : (j + 1) * n]), n)
                    for j in range(m)
                ]
                at = point_table(system.ring, point, n)
                if all(not at(f) for f in system.equations):
                    problems.append(f"refutation level {n} admits a mod-t^{n} solution")
                    break
    if verdict.branches:
        # a system's own case split is a blow-up (the disjunction has no system)
        if system is not None and BLOWUP_SKIPPED not in skipped:
            skipped.append(BLOWUP_SKIPPED)
        for b in verdict.branches:
            problems.extend(_verify_unsat(b, skipped) if b.is_unsat else [])
    return problems


def verify_verdict(verdict: Verdict):
    """(problems, skipped): what the re-check found, and the checks it did
    not run."""
    skipped = []
    if verdict.is_sat:
        return _verify_sat(verdict), skipped
    if verdict.is_unsat:
        return _verify_unsat(verdict, skipped), skipped
    return [], ["unknown verdict: no evidence to check"]


def format_text(report: dict) -> str:
    lines = [f"status: {report['status']}"]
    for key in ("precision", "refuted_at", "reason", "inequation_valuation", "evidence"):
        if key in report:
            lines.append(f"{key}: {report[key]}")
    if "witness" in report:
        lines.append(f"witness: {report['witness']}")
    if "certificate" in report:
        lines.append(f"certificate: {report['certificate']}")
    if "verified" in report:
        lines.append(f"verified: {report['verified']}")
    for line in report.get("verify_problems", []):
        lines.append(f"verify_problem: {line}")
    for line in report.get("verify_skipped", []):
        lines.append(f"verify_skipped: {line}")
    for line in report.get("trace", []):
        lines.append(f"  | {line}")
    return "\n".join(lines)


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="decide",
        description="Decide existential sentences over the Laurent series field F_q((t)).",
    )
    ap.add_argument("sentence", nargs="?", help="sentence text (or use --sentence/--system-file)")
    ap.add_argument("--field", default="p=2", help='field spec, e.g. "p=3" or "p=2 n=2 modulus=1,1,1"')
    ap.add_argument("--sentence", dest="sentence_opt", help="sentence text")
    ap.add_argument("--system-file", help="path to a system file (vars/eq/neq lines)")
    defaults = RunConfig()
    budget = defaults.perturb_budget
    ap.add_argument("--max-precision", type=ascii_int, default=defaults.max_precision)
    ap.add_argument("--perturb-budget", default=f"{budget.directions}x{budget.depth}", help="directions x depth, e.g. 8x16")
    ap.add_argument("--candidate-cap", type=ascii_int, default=defaults.candidate_cap)
    ap.add_argument("--format", choices=("json", "text"), default="json")
    ap.add_argument("--threads", type=ascii_int, default=1, help="worker count (reserved; execution is deterministic)")
    ap.add_argument("--verify", action="store_true", help="re-check the verdict's evidence with the engine's own routines")
    ap.add_argument("--trace", action="store_true", help="include the decision trace")
    return ap


def run(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        ctx = parse_field_spec(args.field)
        budget = parse_budget(args.perturb_budget)
        if args.threads < 1:
            raise ValueError("budgets must be >= 1")
        config = RunConfig(
            max_precision=args.max_precision,
            perturb_budget=budget,
            candidate_cap=args.candidate_cap,
        )
        text = args.sentence_opt or args.sentence
        if args.system_file and text:
            raise ValueError("give either a sentence or --system-file, not both")
        if args.system_file:
            verdict = decide_existential(load_system_file(args.system_file, ctx), config)
        elif text:
            verdict = decide(text, ctx, config)
        else:
            raise ValueError("nothing to decide: give a sentence or --system-file")
    except (ParseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    report = verdict_to_report(verdict, args.trace)
    if args.verify:
        problems, skipped = verify_verdict(verdict)
        if verdict.status in ("sat", "unsat"):
            # the evidence speaks about the normalized system only
            skipped.append(
                "normalization not re-checked"
                if args.system_file
                else "sentence translation and normalization not re-checked"
            )
        report["verified"] = not problems
        if problems:
            report["verify_problems"] = problems
        if skipped:
            report["verify_skipped"] = skipped
    out = (
        json.dumps(report, sort_keys=True)
        if args.format == "json"
        else format_text(report)
    )
    print(out)
    if args.verify and not report.get("verified", True):
        return 2
    return 0 if verdict.status in ("sat", "unsat") else 3


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
