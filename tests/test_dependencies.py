"""What a CLI process imports: the stdlib only, not all of it, and only the
library modules its subcommand runs."""

import subprocess
import sys
from pathlib import Path

import pytest

import nearfactor
from nearfactor._record import to_json

SRC = str(Path(nearfactor.__file__).resolve().parents[1])

# Run without site (-S) so that .pth hooks of unrelated installed packages do
# not show up; isolated (-I) so the environment cannot add paths either.  -I
# also ignores PYTHONDONTWRITEBYTECODE, so -B keeps the probe from leaving
# bytecode under src/.  The probe runs STATEMENT, then prints the loaded
# modules on stderr, since stdout carries any CLI output, and exits with
# `code`.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
code = 0
{statement}
print("\\n".join(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""

RUN_CLI = "import nearfactor.cli\ncode = nearfactor.cli.main(sys.argv[2:])"


def _modules_loaded(statement: str, *argv: str, cwd=None) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", PROBE.format(statement=statement), SRC, *argv],
        capture_output=True,
        text=True,
        check=True,
        cwd=cwd,
    )
    return proc.stderr.split()


def _modules_loaded_by_cli() -> list[str]:
    return _modules_loaded("import nearfactor.cli")


def test_cli_imports_only_the_standard_library():
    loaded = {name.partition(".")[0] for name in _modules_loaded_by_cli()}
    assert "nearfactor" in loaded
    foreign = [
        name
        for name in sorted(loaded)
        if name not in sys.stdlib_module_names and name not in ("nearfactor", "__main__")
    ]
    assert foreign == []


def test_cli_start_skips_dataclasses_inspect_and_typing():
    # Each costs milliseconds at every CLI start and serves no output:
    # dataclasses pulls in inspect, ast, dis and tokenize, and typing is only
    # named in annotations, which the package keeps as strings.
    loaded = set(_modules_loaded_by_cli())
    assert "nearfactor.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "typing"})


def test_importing_the_package_loads_none_of_its_modules():
    loaded = _modules_loaded("import nearfactor")
    assert [name for name in loaded if name.startswith("nearfactor")] == ["nearfactor"]


# What the CLI imports for every subcommand: the modules it names at the top.
CLI = {"nearfactor", "nearfactor._record", "nearfactor.cli"} | {
    f"nearfactor.{name}" for name in ("factors", "numtheory", "pairing")
}


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["construct", "--n", "5"], CLI),
        (["pairs", "--n", "5"], CLI),
        (["verify", "--input", "family.json"], CLI),
        (["equiv", "--s", "3", "--t", "5"], CLI | {"nearfactor.product", "nearfactor.equivalence"}),
        (["oracle", "--n", "5"], CLI | {"nearfactor.oracle"}),
    ],
    ids=["construct", "pairs", "verify", "equiv", "oracle"],
)
def test_a_subcommand_loads_only_the_library_modules_it_runs(argv, expected, tmp_path):
    family = nearfactor.build_modular_factorization(5)
    (tmp_path / "family.json").write_text(to_json(family.to_dict()), encoding="utf-8")
    loaded = _modules_loaded(RUN_CLI, *argv, cwd=tmp_path)
    assert {name for name in loaded if name.startswith("nearfactor")} == expected
