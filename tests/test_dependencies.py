"""What a CLI process imports: the stdlib only, and not all of it."""

import subprocess
import sys
from pathlib import Path

import nearfactor

# Run without site (-S) so that .pth hooks of unrelated installed packages do
# not show up; isolated (-I) so the environment cannot add paths either.  -I
# also ignores PYTHONDONTWRITEBYTECODE, so -B keeps the probe from leaving
# bytecode under src/.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import nearfactor.cli
print("\\n".join(sorted(sys.modules)))
"""


def _modules_loaded_by_cli() -> list[str]:
    src = str(Path(nearfactor.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", PROBE, src],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.split()


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
