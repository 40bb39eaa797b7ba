"""The package exports every public function and class of its library modules."""

import inspect

import pytest

import nearfactor
from nearfactor import equivalence, factors, numtheory, oracle, pairing, product


@pytest.mark.parametrize(
    "module", [numtheory, factors, pairing, product, equivalence, oracle]
)
def test_every_public_function_and_class_is_exported(module):
    public = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert public
    assert public - set(nearfactor.__all__) == set()
    for name in public:
        assert getattr(nearfactor, name) is getattr(module, name)
