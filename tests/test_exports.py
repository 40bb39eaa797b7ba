"""Each library module declares its public names in `__all__`; the package
re-exports them all, module by module, when it is first asked for a name."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import nearfactor
from nearfactor import equivalence, factors, numtheory, oracle, pairing, product

MODULES = [numtheory, factors, pairing, product, equivalence, oracle]

# The public names that are neither functions nor classes.
CONSTANTS = {
    factors: {"Edge"},
    pairing: {"TERMINAL_CYCLE", "TERMINAL_EARLY", "TERMINAL_REACHED"},
    product: {"PairVertex"},
}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_function_and_class_is_exported(module):
    public = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert public
    assert set(module.__all__) == public | CONSTANTS.get(module, set())
    assert len(module.__all__) == len(set(module.__all__))
    assert public - set(nearfactor.__all__) == set()
    for name in module.__all__:
        assert getattr(nearfactor, name) is getattr(module, name)


def test_the_package_lists_the_module_lists_in_order():
    listed = [name for module in MODULES for name in module.__all__]
    assert nearfactor.__all__ == listed + ["__version__"]


# Runs CODE in a fresh interpreter right after `import nearfactor` and
# returns the JSON of the `result` it sets; -I, -S and -B as in
# test_dependencies.
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import nearfactor
exec(sys.argv[2])
print(json.dumps(result))
"""


def _fresh(code: str):
    src = str(Path(nearfactor.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", PROBE, src, code],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_the_first_lookup_loads_every_module_and_removes_the_hooks():
    # A module that keeps a __getattr__ loses CPython's specialised reads of
    # all its attributes, so the hook must be gone after its one use.
    listed, oracle_is_the_module, hooks = _fresh(
        "result = [nearfactor.__all__,"
        " nearfactor.oracle is sys.modules['nearfactor.oracle'],"
        " sorted({'__getattr__', '__dir__'} & set(vars(nearfactor)))]"
    )
    assert listed == nearfactor.__all__
    assert len(listed) == 50
    assert oracle_is_the_module
    assert hooks == []


def test_a_star_import_binds_every_public_name():
    bound = _fresh(
        "before = set(globals())\n"
        "from nearfactor import *\n"
        "result = sorted(set(globals()) - before - {'before'})"
    )
    assert bound == sorted(nearfactor.__all__)


def test_dir_of_a_fresh_package_lists_every_public_name():
    listed = _fresh("result = dir(nearfactor)")
    assert set(nearfactor.__all__) <= set(listed)


def test_an_unknown_name_is_the_standard_attribute_error():
    message, found, hooks = _fresh(
        "try:\n"
        "    nearfactor.no_such_name\n"
        "except AttributeError as exc:\n"
        "    result = [str(exc), hasattr(nearfactor, 'no_such_name'),"
        " '__getattr__' in vars(nearfactor)]"
    )
    assert message == "module 'nearfactor' has no attribute 'no_such_name'"
    assert (found, hooks) == (False, False)


def test_threads_racing_to_the_first_lookup_all_find_their_names():
    # Until the hooks are gone, a thread may find some names bound and others
    # not; each must still get every name it asks for.
    missing, alive, hooks = _fresh(
        "import threading\n"
        "sys.setswitchinterval(1e-6)\n"
        f"names = {nearfactor.__all__!r}\n"
        "start, missing = threading.Barrier(8), []\n"
        "def look(i):\n"
        "    start.wait()\n"
        "    missing.extend(n for n in names[i::8] if not hasattr(nearfactor, n))\n"
        "threads = [threading.Thread(target=look, args=(i,)) for i in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "result = [missing, [t.is_alive() for t in threads], '__getattr__' in vars(nearfactor)]"
    )
    assert missing == []
    assert alive == [False] * 8
    assert hooks is False
