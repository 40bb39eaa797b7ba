"""The package has no runtime dependencies: the CLI imports only the stdlib."""

import subprocess
import sys
from pathlib import Path

import nearfactor

# Run without site (-S) so that .pth hooks of unrelated installed packages do
# not show up; isolated (-I) so the environment cannot add paths either.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import nearfactor.cli
print("\\n".join(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_cli_imports_only_the_standard_library():
    src = str(Path(nearfactor.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE, src],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = proc.stdout.split()
    assert "nearfactor" in loaded
    foreign = [
        name
        for name in loaded
        if name not in sys.stdlib_module_names and name not in ("nearfactor", "__main__")
    ]
    assert foreign == []
