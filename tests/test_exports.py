"""Each library module declares its public names in `__all__`; the package
re-exports them all, module by module."""

import inspect

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
