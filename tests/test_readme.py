"""The command-line examples of README.md, run through cli.run: every
indented `decide ...` line of the "Command line" section must print, as
parsed JSON, what the lines under it show once joined.  The budget defaults
its flag list gives must be those of RunConfig and PerturbBudget."""

import json
import re
import shlex
from pathlib import Path

import pytest

from laurentdecide.cli import build_arg_parser, parse_budget, run
from laurentdecide.hensel import PerturbBudget
from laurentdecide.resolve import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("\n\n"):
        lines = [line.strip() for line in block.splitlines() if line.startswith("    ")]
        if lines and lines[0].startswith("decide "):
            examples.append((lines[0], " ".join(lines[1:])))
    return examples


EXAMPLES = _examples()


def test_the_section_has_a_sat_and_an_unsat_example():
    statuses = sorted(json.loads(printed)["status"] for _, printed in EXAMPLES)
    assert statuses == ["sat", "unsat"], EXAMPLES


@pytest.mark.parametrize("command, printed", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_what_the_cli_prints(command, printed, capsys):
    code = run(shlex.split(command)[1:])
    assert json.loads(capsys.readouterr().out) == json.loads(printed)
    assert code == 0


def _documented_default(flag):
    """The "(default ...)" value of flag's bullet in the flag list."""
    text = README.read_text(encoding="utf-8")
    found = re.search(rf"^\* `{flag}[^`]*` \(default `?([^)`]+)`?\)", text, re.MULTILINE)
    assert found, flag
    return found[1]


def test_the_documented_budget_defaults_are_the_engine_defaults():
    config, budget = RunConfig(), PerturbBudget()
    assert config.perturb_budget == budget
    assert _documented_default("--max-precision") == str(config.max_precision)
    assert _documented_default("--candidate-cap") == str(config.candidate_cap)
    assert _documented_default("--perturb-budget") == f"{budget.directions}x{budget.depth}"
    args = build_arg_parser().parse_args([])
    assert (args.max_precision, args.candidate_cap) == (config.max_precision, config.candidate_cap)
    assert parse_budget(args.perturb_budget) == budget
