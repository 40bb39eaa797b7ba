"""Locate the checkout this benchmark lives in and import nearfactor from its src/.

The benchmark must measure the source tree next to it, never an installed
copy, so `load_nearfactor` puts `<root>/src` first on `sys.path` and checks
where the package was imported from.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"


class CheckoutError(RuntimeError):
    """The checkout has no importable nearfactor source tree."""


def load_nearfactor():
    """Import nearfactor from `<root>/src`; raise CheckoutError if it is absent."""
    init = SRC / "nearfactor" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"no nearfactor sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nearfactor

    if Path(nearfactor.__file__).resolve() != init.resolve():
        raise CheckoutError(f"nearfactor imported from {nearfactor.__file__}, not {init}")
    return nearfactor


def child_env() -> dict[str, str]:
    """Environment for CLI and setup subprocesses: the checkout's src first."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env
