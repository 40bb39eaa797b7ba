"""The value contract of the nine record classes.

Each record is immutable, compares equal only to an instance of its own
class with equal fields, hashes as the tuple of its fields and prints as
`Name(field=value, ...)`.  The repr strings below are pinned.
"""

import copy
import importlib
import inspect
import itertools
import json
import pickle
import pkgutil

import pytest

import nearfactor
from nearfactor import (
    EquivalenceReport,
    Factor,
    Factorization,
    FactorVerdict,
    OracleSummary,
    PairClassification,
    ProductFactor,
    Residue,
    UnionWalk,
)
from nearfactor._record import Record

F = Factor(3, ((0, 1),), 2, 1)
WALK = UnionWalk(2, (2, 0, 1), ((2, 0), (0, 1)), "reached-other-isolated")

# class, field names, positional arguments, the fields they store, repr, and
# another value for the last field.
CASES = [
    (
        Residue,
        ("value", "modulus"),
        (1, 3),
        (1, 3),
        "Residue(value=1, modulus=3)",
        5,
    ),
    (
        Factor,
        ("n", "edges", "isolated", "index"),
        (3, [(1, 0)], 2, 1),
        (3, ((0, 1),), 2, 1),
        "Factor(n=3, edges=((0, 1),), isolated=2, index=1)",
        0,
    ),
    (
        Factorization,
        ("n", "factors"),
        (3, [F]),
        (3, (F,)),
        "Factorization(n=3, factors=(Factor(n=3, edges=((0, 1),), isolated=2, index=1),))",
        (),
    ),
    (
        FactorVerdict,
        ("valid", "reason"),
        (False, "vertex 1 covered twice"),
        (False, "vertex 1 covered twice"),
        "FactorVerdict(valid=False, reason='vertex 1 covered twice')",
        "vertex 2 covered twice",
    ),
    (
        UnionWalk,
        ("start", "vertices", "edges", "terminal"),
        (2, (2, 0, 1), ((2, 0), (0, 1)), "reached-other-isolated"),
        (2, (2, 0, 1), ((2, 0), (0, 1)), "reached-other-isolated"),
        "UnionWalk(start=2, vertices=(2, 0, 1), edges=((2, 0), (0, 1)), "
        "terminal='reached-other-isolated')",
        "stopped-early",
    ),
    (
        PairClassification,
        ("n", "perfect", "witness", "cycle", "gcd_perfect"),
        (3, True, WALK, None, True),
        (3, True, WALK, None, True),
        "PairClassification(n=3, perfect=True, witness=UnionWalk(start=2, "
        "vertices=(2, 0, 1), edges=((2, 0), (0, 1)), terminal='reached-other-isolated'), "
        "cycle=None, gcd_perfect=True)",
        False,
    ),
    (
        ProductFactor,
        ("s", "t", "k", "l", "edges", "isolated"),
        (3, 3, 0, 1, (((0, 0), (0, 1)),), (0, 2)),
        (3, 3, 0, 1, (((0, 0), (0, 1)),), (0, 2)),
        "ProductFactor(s=3, t=3, k=0, l=1, edges=(((0, 0), (0, 1)),), isolated=(0, 2))",
        (0, 0),
    ),
    (
        EquivalenceReport,
        (
            "s",
            "t",
            "n",
            "index_map",
            "all_edge_sets_equal",
            "direct_bound",
            "product_bound",
            "bounds_equal",
            "failures",
        ),
        (3, 5, 15, ((0, 0, 0),), True, 60, 60, True, ()),
        (3, 5, 15, ((0, 0, 0),), True, 60, 60, True, ()),
        "EquivalenceReport(s=3, t=5, n=15, index_map=((0, 0, 0),), "
        "all_edge_sets_equal=True, direct_bound=60, product_bound=60, "
        "bounds_equal=True, failures=())",
        (1,),
    ),
    (
        OracleSummary,
        ("n", "exact_c", "lower_bound", "factorizations_seen"),
        (5, 10, 10, 6),
        (5, 10, 10, 6),
        "OracleSummary(n=5, exact_c=10, lower_bound=10, factorizations_seen=6)",
        7,
    ),
]

# class, arguments omitted, the stored fields then.
DEFAULTS = [
    (Factor, (3, ((0, 1),)), (3, ((0, 1),), None, None)),
    (Factor, (3, ((0, 1),), 2), (3, ((0, 1),), 2, None)),
    (Factorization, (3,), (3, ())),
    (FactorVerdict, (True,), (True, None)),
    (PairClassification, (3, False), (3, False, None, None, None)),
]

# The annotation string of each constructor parameter, in field order.
ANNOTATIONS = {
    Residue: ("int", "int"),
    Factor: ("int", "tuple[Edge, ...]", "int | None", "int | None"),
    Factorization: ("int", "tuple[Factor, ...]"),
    FactorVerdict: ("bool", "str | None"),
    UnionWalk: ("int", "tuple[int, ...]", "tuple[tuple[int, int], ...]", "str"),
    PairClassification: (
        "int",
        "bool",
        "UnionWalk | None",
        "tuple[int, ...] | None",
        "bool | None",
    ),
    ProductFactor: (
        "int",
        "int",
        "int",
        "int",
        "tuple[tuple[PairVertex, PairVertex], ...]",
        "PairVertex",
    ),
    EquivalenceReport: (
        "int",
        "int",
        "int",
        "tuple[tuple[int, int, int], ...]",
        "bool",
        "int",
        "int",
        "bool",
        "tuple[int, ...]",
    ),
    OracleSummary: ("int", "int", "int", "int"),
}

IDS = [case[0].__name__ for case in CASES]


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


def _defaults(cls, names):
    """Each field's default as the DEFAULTS rows give it, else `empty`."""
    rows = [(len(omitted), stored) for c, omitted, stored in DEFAULTS if c is cls]
    first, stored = min(rows, default=(len(names), ()))
    return (inspect.Parameter.empty,) * first + stored[first:]


@pytest.mark.parametrize("cls, names, args, stored, text, other", CASES, ids=IDS)
def test_positional_and_keyword_construction(cls, names, args, stored, text, other):
    assert cls.__match_args__ == names
    signature = inspect.signature(cls)
    assert list(signature.parameters) == list(names)
    params = signature.parameters.values()
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert tuple(p.default for p in params) == _defaults(cls, names)
    assert tuple(p.annotation for p in params) == ANNOTATIONS[cls]
    assert signature.return_annotation == "None"
    # A field's default lives on its constructor, not on the class.
    assert not [name for name in names if hasattr(cls, name)]
    positional = cls(*args)
    keyword = cls(**dict(zip(names, args)))
    mixed = cls(args[0], **dict(zip(names[1:], args[1:])))
    for obj in (positional, keyword, mixed):
        assert type(obj) is cls
        assert _fields(obj, names) == stored
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args[:-1], **{names[0]: args[0], names[-1]: args[-1]})
    with pytest.raises(TypeError):
        cls(*args, unknown=1)


@pytest.mark.parametrize("cls, omitted, stored", DEFAULTS)
def test_default_construction(cls, omitted, stored):
    assert _fields(cls(*omitted), cls.__match_args__) == stored


def test_required_fields_have_no_default():
    for cls, _, args, _, _, _ in CASES:
        if cls not in {c for c, _, _ in DEFAULTS}:
            with pytest.raises(TypeError):
                cls(*args[:-1])


def test_constructors_validate():
    with pytest.raises(ValueError):
        Residue(3, 3)
    with pytest.raises(ValueError):
        Residue(0, 0)
    with pytest.raises(ValueError):
        Factor(2, ((0, 1),))
    with pytest.raises(ValueError):
        Factor(3, ((1, 1),))
    with pytest.raises(ValueError):
        Factorization(2)
    with pytest.raises(TypeError):
        Factor(3.0, ())
    with pytest.raises(TypeError):
        Factor(3, (), isolated="2")


@pytest.mark.parametrize("cls, names, args, stored, text, other", CASES, ids=IDS)
def test_fields_are_frozen(cls, names, args, stored, text, other):
    obj = cls(*args)
    for name in names + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _fields(obj, names) == stored


def test_factor_caches_are_frozen_but_kept():
    f = Factor(3, ((0, 1),), 2, 1)
    for name in ("partners", "modular_index"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    assert f.partners == (1, 0, None)
    assert f.partners is f.partners
    assert f.modular_index == 1


@pytest.mark.parametrize("cls, names, args, stored, text, other", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, names, args, stored, text, other):
    a = cls(*args)
    b = cls(*args)
    assert a is not b
    assert a == b
    assert not (a != b)
    assert hash(a) == hash(b) == hash(stored)
    assert a != stored
    assert stored != a
    changed = cls(*args[:-1], other)
    assert a != changed
    assert not (a == changed)
    assert len({a, b, changed}) == 2


def test_no_equality_across_classes():
    assert Residue(1, 3) != (1, 3)
    assert (1, 3) != Residue(1, 3)
    instances = [cls(*args) for cls, _, args, _, _, _ in CASES]
    for a, b in itertools.combinations(instances, 2):
        assert a != b
        assert not (a == b)

    class Tagged(Residue):
        pass

    assert Residue(1, 3) != Tagged(1, 3)
    assert Tagged(1, 3) == Tagged(1, 3)


@pytest.mark.parametrize("cls, names, args, stored, text, other", CASES, ids=IDS)
def test_repr(cls, names, args, stored, text, other):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, names, args, stored, text, other", CASES, ids=IDS)
def test_copy_and_pickle_keep_the_value(cls, names, args, stored, text, other):
    obj = cls(*args)
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls
        assert clone == obj
        assert _fields(clone, names) == stored


def test_pattern_matching_by_position():
    match Residue(2, 5):
        case Residue(value, modulus):
            assert (value, modulus) == (2, 5)
        case _:
            pytest.fail("Residue did not match by position")


@pytest.mark.parametrize("cls, names, args, stored, text, other", CASES, ids=IDS)
def test_to_dict_names_the_fields_in_plain_json(cls, names, args, stored, text, other):
    # A tuple left in, or a nested record not turned into its dict, would
    # differ from the JSON round trip (or fail to encode).
    data = cls(*args).to_dict()
    assert sorted(data) == sorted(names)
    assert data == json.loads(json.dumps(data))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_has_a_contract_row():
    # A record added to the package must bring its row in CASES with it.
    for module in pkgutil.iter_modules(nearfactor.__path__, "nearfactor."):
        importlib.import_module(module.name)
    defined = {
        cls
        for cls in _subclasses(Record)
        if cls.__module__ == "nearfactor" or cls.__module__.startswith("nearfactor.")
    }
    assert defined == {case[0] for case in CASES}
