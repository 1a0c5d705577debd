import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from laurentdecide import cli
from laurentdecide.cli import (
    load_system_file,
    parse_budget,
    parse_field_spec,
    run,
    verify_verdict,
)
from laurentdecide.ff import FqContext
from laurentdecide.frontend import decide
from laurentdecide.series import TruncatedSeries

F3 = FqContext(3)
# --verify checks evidence against the normalized system, not the input
TRANSLATION_SKIPPED = "sentence translation and normalization not re-checked"


def run_cli(args, capsys):
    code = run(args)
    out = capsys.readouterr().out.strip()
    return code, out


def test_field_spec_parsing():
    ctx = parse_field_spec("p=3")
    assert ctx.p == 3 and ctx.n == 1
    ctx4 = parse_field_spec("p=2 n=2 modulus=1,1,1")
    assert ctx4.q == 4
    with pytest.raises(ValueError):
        parse_field_spec("n=2")
    with pytest.raises(ValueError):
        parse_field_spec("p=3 bogus=1")


@pytest.mark.parametrize("spec", ["p=3 p=5", "p=3 n=1 n=1", "p=2 n=2 modulus=1,1,1 modulus=1,1,1"])
def test_field_spec_rejects_a_repeated_component(spec):
    with pytest.raises(ValueError, match="given twice"):
        parse_field_spec(spec)


@pytest.mark.parametrize(
    "spec, sentence",
    [
        # F_5's answer (3 is not a square mod 5) given for F_3, where 3 = 0
        ("p=3 p=5", "exists X. X*X = 3"),
        # F_3's answer given for the F_9 that the modulus 1 + x + x^2 defines
        ("p=3 modulus=1,1,1", "exists X. X*X = 2"),
    ],
)
def test_cli_field_spec_is_not_reinterpreted(spec, sentence, capsys):
    code = run(["--field", spec, sentence])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.out
    assert captured.err.startswith("error: "), captured.err


def test_budget_parsing():
    b = parse_budget("8x16")
    assert b.directions == 8 and b.depth == 16
    with pytest.raises(ValueError):
        parse_budget("8")


def test_cli_sat_report(capsys):
    code, out = run_cli(["--field", "p=3", "exists X. X*X = 1 + t"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "laurent-decide/1"
    assert report["status"] == "sat"
    assert report["witness"] == [[1, 2]]
    assert report["precision"] == 2
    assert report["certificate"]["e"] == 0


def test_cli_unsat_report(capsys):
    code, out = run_cli(["--field", "p=3", "exists X. X*X = t"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "unsat"
    assert report["refuted_at"] == 2
    assert report["disjuncts"] == [{"status": "unsat", "refuted_at": 2}]


def test_cli_unsat_mixed_evidence(capsys):
    # one disjunct refuted by truncation, the other by radical membership
    code, out = run_cli(
        ["--field", "p=3", "exists X. X*X = t | (X = 0 & ~(X = 0))"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "unsat"
    assert any("refuted_at" in d for d in report["disjuncts"])
    assert any(d.get("evidence") == "radical-membership" for d in report["disjuncts"])


def test_cli_unknown_exit_code(capsys):
    code, out = run_cli(
        ["--field", "p=3", "--max-precision", "1", "exists X. X*X = 1+t+t*t*t"], capsys
    )
    assert code == 3
    assert json.loads(out)["status"] == "unknown"


def test_cli_parse_error_exit_code(capsys):
    code = run(["--field", "p=3", "exists X. X = )"])
    err = capsys.readouterr().err
    assert code == 2
    assert "column" in err


def test_cli_non_ascii_digit_is_a_parse_error(capsys):
    code = run(["--field", "p=3", "exists X. X = \u00b2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unexpected character '\u00b2' at column 15" in err


def test_cli_verify_sat(capsys):
    code, out = run_cli(["--field", "p=3", "--verify", "exists X. X*X = 1 + t"], capsys)
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_cli_verify_unsat(capsys):
    code, out = run_cli(["--field", "p=3", "--verify", "exists X. X*X = t"], capsys)
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_cli_verify_reports_skipped_refutation(capsys):
    # level 8 in two unknowns is 3^16 tuples, above the re-enumeration cap
    code, out = run_cli(["--field", "p=3", "--verify", "exists X, Y. X*X + Y*Y = t^5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "unsat" and report["refuted_at"] == 8
    assert report["verified"] is True
    assert report["verify_skipped"] == [
        "refutation level 8 not re-enumerated: 43046721 tuples exceed the cap 65536",
        TRANSLATION_SKIPPED,
    ]
    code, out = run_cli(
        ["--field", "p=3", "--verify", "--format", "text", "exists X, Y. X*X + Y*Y = t^5"],
        capsys,
    )
    assert "verify_skipped: refutation level 8 not re-enumerated" in out


def test_cli_verify_unknown_checks_nothing(capsys):
    code, out = run_cli(
        ["--field", "p=3", "--max-precision", "1", "--verify", "exists X. X*X = 1+t+t*t*t"],
        capsys,
    )
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "unknown"
    assert report["verify_skipped"] == ["unknown verdict: no evidence to check"]


def test_cli_verify_checked_refutation_skips_nothing(capsys):
    code, out = run_cli(["--field", "p=3", "--verify", "exists X. X*X = t"], capsys)
    assert code == 0
    assert json.loads(out)["verify_skipped"] == [TRANSLATION_SKIPPED]


@pytest.mark.parametrize("equation, status", [("X*X - 1 - t", "sat"), ("X*X - t", "unsat")])
def test_cli_verify_names_the_unchecked_translation(tmp_path, capsys, equation, status):
    code, out = run_cli(["--field", "p=3", "--verify", f"exists X. {equation} = 0"], capsys)
    report = json.loads(out)
    assert (code, report["status"], report["verify_skipped"]) == (0, status, [TRANSLATION_SKIPPED])
    path = tmp_path / "one.system"
    path.write_text(f"vars X\neq {equation}\n", encoding="utf-8")
    code, out = run_cli(["--field", "p=3", "--verify", "--system-file", str(path)], capsys)
    report = json.loads(out)
    assert (code, report["status"]) == (0, status)
    assert report["verify_skipped"] == ["normalization not re-checked"]


def test_cli_verify_names_the_unchecked_blow_up(capsys):
    # refuted by blowing up the origin: both charts at level 1, the centre by
    # radical membership; nothing re-checks that these cover the curve
    code, out = run_cli(
        ["--field", "p=3", "--verify", "exists X, Y. X*X + Y*Y = 0 & ~(X = 0)"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "unsat" and report["verified"] is True
    assert len(report["disjuncts"][0]["branches"]) == 3
    assert report["verify_skipped"] == ["blow-up decomposition not re-checked", TRANSLATION_SKIPPED]


def _with_digit(verdict, coord, k, digit):
    """The verdict with digit k of witness coordinate coord replaced."""
    witness = list(verdict.witness)
    x = witness[coord]
    coeffs = list(x.coeffs)
    coeffs[k] = x.ctx.elem(digit)
    witness[coord] = TruncatedSeries(x.ctx, coeffs, x.precision)
    return replace(verdict, witness=tuple(witness))


def test_verify_rejects_a_witness_with_a_changed_digit():
    verdict = decide("exists X. X*X = 1 + t", F3)  # X = 1 + 2t
    assert verify_verdict(verdict) == ([], [])
    # X = 1 leaves the residual -t, below the precision 2
    assert verify_verdict(_with_digit(verdict, 0, 1, 0)) == ([
        "residual of X^2 + 2*t + 2 below witness precision",
        "re-certification by the engine's certify_liftable failed",
    ], [])


def test_verify_rejects_a_witness_where_the_inequation_vanishes():
    verdict = decide("exists X, Y. Y = 0 & ~(X = 0)", F3)  # X = 1, Y = 0
    assert verify_verdict(verdict) == ([], [])
    # X = 0 still solves Y = 0 and still certifies, but misses X != 0
    assert verify_verdict(_with_digit(verdict, 0, 0, 0)) == (
        ["inequation value not exactly valued at the witness"], []
    )


def _lowered_refutation():
    """exists X. X*X = t over F_3, claimed refuted at level 1, where X = 0
    solves X*X = t mod t."""
    verdict = decide("exists X. X*X = t", F3)
    (branch,) = verdict.branches
    assert (verdict.refuted_at, branch.refuted_at) == (2, 2)
    return replace(verdict, refuted_at=1, branches=[replace(branch, refuted_at=1)])


def test_verify_rejects_a_lowered_refutation_level():
    assert verify_verdict(_lowered_refutation()) == (
        ["refutation level 1 admits a mod-t^1 solution"], []
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "tampered, problem",
    [
        (lambda: _with_digit(decide("exists X. X*X = 1 + t", F3), 0, 1, 0),
         "residual of X^2 + 2*t + 2 below witness precision"),
        (_lowered_refutation, "refutation level 1 admits a mod-t^1 solution"),
    ],
)
def test_cli_verify_failure_exits_2(monkeypatch, capsys, fmt, tampered, problem):
    verdict = tampered()
    monkeypatch.setattr(cli, "decide", lambda text, ctx, config: verdict)
    code, out = run_cli(["--field", "p=3", "--verify", "--format", fmt, "exists X. X = 0"], capsys)
    assert code == 2
    if fmt == "json":
        report = json.loads(out)
        assert report["verified"] is False and problem in report["verify_problems"]
    else:
        lines = out.splitlines()
        assert "verified: False" in lines
        assert f"verify_problem: {problem}" in lines


def _radical_branch(text, ctx):
    verdict = decide(text, ctx)
    (branch,) = verdict.branches
    assert branch.radical is not None and verify_verdict(verdict) == ([], [])
    return verdict, branch


@pytest.mark.parametrize(
    "first, second",
    [
        # the certificates live over different rings
        ("exists X. X*X = 1 & ~(X*X - 1 = 0)", "exists X, Y. X = 0 & Y = 1 & ~(X*Y = 0)"),
        # one ring: the generators and the inequation differ
        ("exists X. X*X = 1 & ~(X*X - 1 = 0)", "exists X. X = 1 & ~(X - 1 = 0)"),
    ],
)
def test_verify_rejects_a_radical_certificate_of_another_system(first, second):
    # each certificate recomposes to 1 on its own generators, so only the
    # check against the branch's system can tell that they were swapped
    a, branch_a = _radical_branch(first, F3)
    b, branch_b = _radical_branch(second, F3)
    branch_a.radical, branch_b.radical = branch_b.radical, branch_a.radical
    for verdict in (a, b):
        problems, _ = verify_verdict(verdict)
        assert problems and all("radical certificate" in p for p in problems), problems


def test_verify_names_each_foreign_part_of_a_radical_certificate():
    _, own = _radical_branch("exists X. X = 1 & ~(X - 1 = 0)", F3)
    _, other = _radical_branch("exists X. X*X = 1 & ~(X*X - 1 = 0)", F3)
    # the unit-ideal certificate of X = 0 & X = 1 uses g = 1 and passes
    _radical_branch("exists X. X = 0 & X = 1", F3)
    cert = own.radical
    own.radical = replace(cert, lifted_gens=other.radical.lifted_gens)
    assert verify_verdict(own)[0] == [
        "radical certificate does not recompose to 1",
        "radical certificate generators are not the system's equations",
    ]
    own.radical = replace(cert, aux=other.radical.aux)
    assert verify_verdict(own)[0][-1] == "radical certificate speaks about another inequation"


def test_cli_verify_squarefree_normalized_sat(capsys):
    # the certificate refers to the squarefree replacement (Y - X^2), whose
    # Jacobian is unit-bearing; verification must target that system, not the
    # raw square whose Jacobian vanishes on the locus
    code, out = run_cli(
        ["--field", "p=3", "--verify", "exists X, Y. (Y - X*X)*(Y - X*X) = 0 & ~(X = 0)"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "sat"
    assert report["verified"] is True


def test_cli_verify_singular_curve_sat(capsys):
    # witness produced through the blow-up path re-verifies against the base
    code, out = run_cli(
        ["--field", "p=3", "--verify", "exists X, Y. Y*Y = X^4 & ~(X = 0)"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "sat"
    assert report["verified"] is True


def test_cli_text_format(capsys):
    code, out = run_cli(["--field", "p=3", "--format", "text", "exists X. X*X = 1 + t"], capsys)
    assert code == 0
    assert out.startswith("status: sat")


def test_cli_trace_flag(capsys):
    code, out = run_cli(["--field", "p=3", "--trace", "exists X. X*X = 1 + t"], capsys)
    report = json.loads(out)
    assert any("level" in line for line in report["trace"])


def test_cli_extension_field(capsys):
    # Y^2 + Y + 1 = 0 has no root in F_2[[t]] but has one in F_4[[t]]
    code2, out2 = run_cli(["--field", "p=2", "exists Y. Y*Y + Y + 1 = 0"], capsys)
    assert json.loads(out2)["status"] == "unsat"
    code4, out4 = run_cli(
        ["--field", "p=2 n=2 modulus=1,1,1", "exists Y. Y*Y + Y + 1 = 0"], capsys
    )
    report = json.loads(out4)
    assert report["status"] == "sat"
    # witness coordinate serialized as a basis vector: a = (0, 1)
    assert report["witness"][0][0] == [0, 1]


def test_system_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "cusp.system"
    path.write_text("vars X Y\neq Y^2 - X^3\nneq X\n", encoding="utf-8")
    system = load_system_file(str(path), FqContext(5))
    assert len(system.equations) == 1
    assert system.inequation is not None
    code, out = run_cli(["--field", "p=5", "--system-file", str(path), "--verify"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "sat"
    assert report["verified"] is True


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_system_file_unsat_by_radical_membership_names_its_evidence(tmp_path, capsys, fmt):
    # X = 1 forces the inequation X - 1 to vanish: one radical certificate,
    # reported at the top level since a system file has no disjunction
    path = tmp_path / "radical.system"
    path.write_text("vars X\neq X - 1\nneq X - 1\n", encoding="utf-8")
    code, out = run_cli(
        ["--field", "p=3", "--system-file", str(path), "--verify", "--format", fmt], capsys
    )
    assert code == 0
    if fmt == "json":
        report = json.loads(out)
        assert (report["status"], report["evidence"], report["verified"]) == (
            "unsat", "radical-membership", True
        )
        assert "disjuncts" not in report
    else:
        lines = out.splitlines()
        assert lines[0] == "status: unsat"
        assert "evidence: radical-membership" in lines and "verified: True" in lines


def test_system_file_merges_neq_lines(tmp_path):
    path = tmp_path / "sys.system"
    path.write_text("vars X\neq X - t\nneq X\nneq X - 1\n", encoding="utf-8")
    system = load_system_file(str(path), FqContext(3))
    assert system.inequation.total_degree() == 2


def test_cli_determinism_across_threads(capsys):
    args = ["--field", "p=3", "--trace", "exists X. X*X = 1 + t"]
    _, out1 = run_cli(args + ["--threads", "1"], capsys)
    _, out4 = run_cli(args + ["--threads", "4"], capsys)
    assert out1 == out4


def test_cli_entrypoint_subprocess():
    # the child interpreter does not inherit pytest's pythonpath setting
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "laurentdecide.cli", "--field", "p=3", "exists X. X = t"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "sat"


@pytest.mark.parametrize(
    "equation, status",
    [("(X*X - t)^2", "unsat"), ("(X - 1)^2*(X - 1 - t)", "sat")],
)
def test_system_file_verifies_the_normalized_system(tmp_path, capsys, equation, status):
    # the verdict refers to the squarefree part; re-checking it against the
    # input's repeated factor would find a mod-t^2 solution of (X^2 - t)^2 and
    # no liftable minor at X = 1 on (X - 1)^2*(X - 1 - t)
    path = tmp_path / "square.system"
    path.write_text(f"vars X\neq {equation}\n", encoding="utf-8")
    code, out = run_cli(["--field", "p=3", "--system-file", str(path), "--verify"], capsys)
    report = json.loads(out)
    assert (code, report["status"], report["verified"]) == (0, status, True)
    assert "verify_problems" not in report


def test_cli_verifies_a_perturbed_witness(capsys):
    # candidate cap 1 keeps the witness X = 0, which misses the inequation,
    # so the engine perturbs it to X = t
    code, out = run_cli(
        ["--field", "p=3", "--candidate-cap", "1", "--max-precision", "8", "--verify",
         "exists X, Y. Y = 0 & ~(X = 0)"],
        capsys,
    )
    report = json.loads(out)
    assert (code, report["status"], report["verified"]) == (0, "sat", True)
    assert report["witness"] == [[0, 1, 0, 0, 0, 0, 0, 0], [0] * 8]
    assert report["inequation_valuation"] == 1


@pytest.mark.parametrize("budget", ["-1x16", "0x0", "8x0", "0x16"])
def test_cli_rejects_non_positive_perturb_budget(capsys, budget):
    with pytest.raises(ValueError, match="budgets must be >= 1"):
        parse_budget(budget)
    code = run(["--field", "p=3", f"--perturb-budget={budget}", "exists X. X = t"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budgets must be >= 1" in captured.err


@pytest.mark.parametrize("flag", ["--max-precision", "--candidate-cap", "--threads"])
@pytest.mark.parametrize("value", ["0", "-4"])
def test_cli_rejects_non_positive_integer_budgets(capsys, flag, value):
    code = run(["--field", "p=3", f"{flag}={value}", "exists X. X = t"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: budgets must be >= 1\n")


@pytest.mark.parametrize("budget", ["8x", "x8", "ax8", "8", "8x8x8", "1_6x8", "\uff18x16", "8x+16", " 8x16"])
def test_cli_rejects_malformed_perturb_budget(capsys, budget):
    message = f"malformed perturb budget {budget!r}, expected DxM"
    with pytest.raises(ValueError) as err:
        parse_budget(budget)
    assert str(err.value) == message
    code = run(["--field", "p=3", f"--perturb-budget={budget}", "exists X. X = t"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


# int() would read each of these: a digit separator, a plus sign, blanks
# and a full-width digit
@pytest.mark.parametrize(
    "spec, what, value",
    [
        ("p=\uff13", "p", "\uff13"),
        ("p=1_1", "p", "1_1"),
        ("p=2 n=+2 modulus=1,1,1", "n", "+2"),
        ("p=2 n=2 modulus=1,1,+1", "modulus coefficient", "+1"),
    ],
)
def test_field_spec_takes_ascii_digits_only(spec, what, value, capsys):
    message = f"malformed {what} {value!r}, expected ASCII digits 0-9"
    with pytest.raises(ValueError) as err:
        parse_field_spec(spec)
    assert str(err.value) == message
    code = run(["--field", spec, "exists X. X = t"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--max-precision", "--candidate-cap", "--threads"])
@pytest.mark.parametrize("value", ["1_6", "+8", " 8", "\uff18"])
def test_cli_integer_flags_take_ascii_digits_only(flag, value, capsys):
    with pytest.raises(SystemExit) as exit_:
        run(["--field", "p=3", f"{flag}={value}", "exists X. X = t"])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"argument {flag}: invalid ascii_int value: {value!r}\n")


def test_cli_verifies_t_content_beside_a_cube(capsys):
    # t*X^3*(Y^2 - t) over F_3: the squarefree part X*(Y^2 - t) has the
    # liftable point X = 0, Y = 1
    code, out = run_cli(
        ["--field", "p=3", "--verify", "exists X, Y. t*X^3*(Y*Y - t) = 0 & ~(Y = 0)"], capsys
    )
    report = json.loads(out)
    assert (code, report["status"], report["verified"]) == (0, "sat", True)
    assert report["witness"] == [[0, 0], [1, 0]]
    assert "verify_problems" not in report


@pytest.mark.parametrize(
    "header, equation, message",
    [
        ("vars pi", "pi*pi - 1", "'pi' cannot be a variable"),
        ("vars w", "w - 1", "'w' cannot be a variable"),
        ("vars t", "t - 1", "'t' cannot be a variable"),
        ("vars exists", "exists - 1", "'exists' cannot be a variable"),
        ("vars O", "O - 1", "'O' cannot be a variable"),
        ("vars X Y X", "X - 1", "duplicate variable 'X'"),
        ("vars X, Y", "X - 1", "expected a variable name"),
        ("vars X", "Y - 1", "unbound variable 'Y'"),
    ],
)
def test_system_file_rejects_bad_variable_names(tmp_path, capsys, header, equation, message):
    # the term parser reads t, w and pi as the uniformizer, so a file that
    # declared pi would decide pi*pi - 1 = 0 about t and answer a verified
    # unsat although pi = 1 solves it
    path = tmp_path / "names.system"
    path.write_text(f"{header}\neq {equation}\n", encoding="utf-8")
    code = run(["--field", "p=3", "--verify", "--system-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "sentence",
    ["exists X. X/0 = 1", "exists X. X = 1/0", "O(1/0)", "exists X. X/3 = 1",
     "exists X. X = 1/(t - t)"],
)
def test_cli_rejects_division_by_zero(capsys, sentence):
    code = run(["--field", "p=3", sentence])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "division by zero" in captured.err


def test_system_file_rejects_division_by_zero(tmp_path, capsys):
    path = tmp_path / "zero.system"
    path.write_text("vars X\neq X/0 - 1\n", encoding="utf-8")
    code = run(["--field", "p=3", "--system-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "division by zero" in captured.err


@pytest.mark.parametrize(
    "text, message",
    [
        # header columns count from the start of the line, not from after 'vars'
        ("vars X Y X\neq X - 1\n", "duplicate variable 'X' at line 1, column 10"),
        ("vars X, Y\neq X - 1\n", "expected a variable name at line 1, column 7"),
        # term columns count from the start of the line; comments and blank
        # lines keep their line numbers
        ("# cusp\nvars X\n\n  eq X + Y\n", "unbound variable 'Y' at line 4, column 10"),
        ("vars X\neq X/0 - 1\n", "division by zero at line 2, column 5"),
        ("vars X\neq X/X\n", "division by a variable term is not allowed at line 2, column 5"),
        ("vars X\neq X = 1\n", "unexpected trailing input '=' at line 2, column 6"),
        # a line with no polynomial says so
        ("vars X\neq X\nneq\n", "'neq' line has no polynomial at line 3, column 4"),
        ("vars X\neq   \n", "'eq' line has no polynomial at line 2, column 3"),
        # the line kind is checked before its term is parsed
        ("vars X\nfoo X/0\n", "unknown system line kind 'foo' at line 2, column 1"),
    ],
)
def test_system_file_errors_name_the_line_and_column(tmp_path, capsys, text, message):
    path = tmp_path / "bad.system"
    path.write_text(text, encoding="utf-8")
    code = run(["--field", "p=3", "--system-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
