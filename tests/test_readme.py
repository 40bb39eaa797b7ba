"""The README's command-line examples print what the README shows."""

import shlex
from pathlib import Path

import pytest

from nearfactor.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[str, str]]:
    """Each `nearfactor ...` line followed by a `{` line, with that line."""
    lines = README.read_text(encoding="utf-8").splitlines()
    return [
        (command, output)
        for command, output in zip(lines, lines[1:])
        if command.startswith("nearfactor ") and output.startswith("{")
    ]


EXAMPLES = _examples()

# Every `nearfactor ...` line, without its trailing `# comment`.
COMMANDS = [
    line.partition("#")[0].strip()
    for line in README.read_text(encoding="utf-8").splitlines()
    if line.startswith("nearfactor ")
]


def test_the_readme_shows_example_output():
    assert [command for command, _ in EXAMPLES] == [
        "nearfactor construct --n 5 --k 0",
        "nearfactor pairs --n 9",
        "nearfactor oracle --n 5",
    ]


@pytest.mark.parametrize("command, output", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_its_output(capsys, command, output):
    assert main(shlex.split(command)[1:]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (output + "\n", "")


def test_the_readme_shows_every_subcommand():
    subcommands = {shlex.split(command)[1] for command in COMMANDS}
    assert subcommands == {"construct", "pairs", "equiv", "oracle", "verify"}


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_parses_and_runs(capsys, command):
    argv = shlex.split(command)[1:]
    build_parser().parse_args(argv)
    if "--input" in argv:
        return  # names a file the reader brings
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
