"""The command-line examples of README.md, run through cli.run: every
indented `decide ...` line of the "Command line" section must print, as
parsed JSON, what the lines under it show once joined."""

import json
import shlex
from pathlib import Path

import pytest

from laurentdecide.cli import run

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
