"""The README's `$ kerdock ...` examples print what the README says they print."""

import shlex
from pathlib import Path

import pytest

from kerdock.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(command, expected stdout) for each `$ kerdock` line in a fenced block.

    An example's output runs to the next `$` line or the end of its block;
    examples whose output is elided with `...` are left out.
    """
    out = []
    fenced = False
    current = None
    for line in README.read_text().splitlines() + ["```"]:
        if line.startswith("```"):
            fenced = not fenced
        if current is not None and (line.startswith("```") or line.startswith("$ ")):
            command, lines = current
            while lines and not lines[-1].strip():
                lines.pop()
            if "..." not in lines:
                out.append((command, "".join(f"{x}\n" for x in lines)))
            current = None
        if fenced and line.startswith("$ kerdock "):
            current = (line[2:], [])
        elif current is not None:
            current[1].append(line)
    return out


EXAMPLES = _examples()


def test_readme_has_the_examples():
    subcommands = {shlex.split(command)[1] for command, _ in EXAMPLES}
    assert {"decode", "sparse-approx", "verify", "bench"} <= subcommands


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(command, expected, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected
