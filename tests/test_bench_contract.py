"""The benchmark tracer's names still exist in nearfactor.

`perfbench/tracing.py` wraps library functions by name; a rename under
`src/` would leave a traced name dangling and break the benchmark.  The
tracer module is loaded from its file, without being imported as a package
and without writing bytecode under `perfbench/`.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _submodule(name):
    return importlib.import_module(f"nearfactor.{name}")


def test_traced_names_resolve_in_nearfactor(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    for module, names in tracing.TRACED.items():
        for name in names:
            assert callable(getattr(_submodule(module), name)), (module, name)
    for module, cls_name, attr in tracing.TRACED_METHODS:
        cls = getattr(_submodule(module), cls_name)
        assert callable(getattr(cls, attr)), (module, cls_name, attr)
    for module, name in tracing.RENAMED:
        assert callable(getattr(_submodule(module), name)), (module, name)
