"""Each library module declares its public names in `__all__`; the package
re-exports them all, module by module, when it is first asked for a name.
Every integer argument of those names passes one check, which refuses
booleans."""

import ast
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import nearfactor
from nearfactor import equivalence, factors, numtheory, oracle, pairing, product
from nearfactor import (
    Factor,
    Factorization,
    Residue,
    build_equivalence_report,
    build_modular_factor,
    build_modular_factor_even,
    build_modular_factorization,
    build_product_factor,
    count_perfect_product_pairs,
    crt_combine,
    crt_vertex_map,
    enumerate_factorizations,
    exact_c,
    factor_index_of_edge,
    gcd,
    half_mod,
    is_perfect_by_gcd,
    is_perfect_product_pair,
    map_factor_index,
    mod_inverse,
    nth_union_edge,
    oracle_summary,
    predicted_perfect_product_pairs,
    product_bound,
    totient,
    verify_factor_equality,
    write_factorizations_ndjson,
)

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


# Each integer argument of a public function or checking constructor: the
# function, the parameter, the name the message gives it, and a call with a
# flag b there and valid values elsewhere.  A pinned name (n, isolated, index,
# first index, second index) stands where it already did; otherwise the
# message names the parameter.
INTEGER_ARGUMENTS = [
    (Residue, "value", "value", lambda b: Residue(b, 5)),
    (Residue, "modulus", "modulus", lambda b: Residue(0, b)),
    (gcd, "a", "a", lambda b: gcd(b, 4)),
    (gcd, "b", "b", lambda b: gcd(4, b)),
    (totient, "n", "n", lambda b: totient(b)),
    (mod_inverse, "r", "r", lambda b: mod_inverse(b, 5)),
    (mod_inverse, "n", "n", lambda b: mod_inverse(2, b)),
    (half_mod, "k", "k", lambda b: half_mod(b, 5)),
    (half_mod, "n", "n", lambda b: half_mod(1, b)),
    (crt_combine, "k", "k", lambda b: crt_combine(b, 0, 3, 5)),
    (crt_combine, "l", "l", lambda b: crt_combine(0, b, 3, 5)),
    (crt_combine, "s", "s", lambda b: crt_combine(0, 0, b, 5)),
    (crt_combine, "t", "t", lambda b: crt_combine(0, 0, 3, b)),
    (Factor, "n", "n", lambda b: Factor(b, ((1, 2),), 0)),
    (Factor, "isolated", "isolated", lambda b: Factor(5, ((1, 4), (2, 3)), b)),
    (Factor, "index", "index", lambda b: Factor(5, ((1, 4), (2, 3)), 0, b)),
    (Factorization, "n", "n", lambda b: Factorization(b)),
    (build_modular_factor, "n", "n", lambda b: build_modular_factor(b, 1)),
    (build_modular_factor, "k", "index", lambda b: build_modular_factor(5, b)),
    (build_modular_factor_even, "n", "n", lambda b: build_modular_factor_even(b, 1)),
    (build_modular_factor_even, "k", "index", lambda b: build_modular_factor_even(4, b)),
    (build_modular_factorization, "n", "n", lambda b: build_modular_factorization(b)),
    (factor_index_of_edge, "n", "n", lambda b: factor_index_of_edge(b, (0, 1))),
    (is_perfect_by_gcd, "k", "k", lambda b: is_perfect_by_gcd(b, 1, 5)),
    (is_perfect_by_gcd, "l", "l", lambda b: is_perfect_by_gcd(0, b, 5)),
    (is_perfect_by_gcd, "n", "n", lambda b: is_perfect_by_gcd(0, 1, b)),
    (nth_union_edge, "k", "k", lambda b: nth_union_edge(b, 1, 5, 1)),
    (nth_union_edge, "l", "l", lambda b: nth_union_edge(0, b, 5, 1)),
    (nth_union_edge, "n", "n", lambda b: nth_union_edge(0, 1, b, 1)),
    (nth_union_edge, "i", "i", lambda b: nth_union_edge(0, 1, 5, b)),
    (build_product_factor, "s", "s", lambda b: build_product_factor(b, 5, 0, 0)),
    (build_product_factor, "t", "t", lambda b: build_product_factor(3, b, 0, 0)),
    (build_product_factor, "k", "first index", lambda b: build_product_factor(3, 5, b, 0)),
    (build_product_factor, "l", "second index", lambda b: build_product_factor(3, 5, 0, b)),
    (is_perfect_product_pair, "s", "s", lambda b: is_perfect_product_pair(b, 5, (0, 0), (1, 1))),
    (is_perfect_product_pair, "t", "t", lambda b: is_perfect_product_pair(3, b, (0, 0), (1, 1))),
    (is_perfect_product_pair, "kl", "first index",
     lambda b: is_perfect_product_pair(3, 5, (b, 0), (1, 1))),
    (is_perfect_product_pair, "kl", "second index",
     lambda b: is_perfect_product_pair(3, 5, (0, b), (1, 1))),
    (is_perfect_product_pair, "kl2", "first index",
     lambda b: is_perfect_product_pair(3, 5, (0, 0), (b, 1))),
    (is_perfect_product_pair, "kl2", "second index",
     lambda b: is_perfect_product_pair(3, 5, (0, 0), (1, b))),
    (product_bound, "s", "s", lambda b: product_bound(b, 5, 1, 1)),
    (product_bound, "t", "t", lambda b: product_bound(3, b, 1, 1)),
    (product_bound, "c_s", "c_s", lambda b: product_bound(3, 5, b, 1)),
    (product_bound, "c_t", "c_t", lambda b: product_bound(3, 5, 1, b)),
    (predicted_perfect_product_pairs, "s", "s", lambda b: predicted_perfect_product_pairs(b, 5)),
    (predicted_perfect_product_pairs, "t", "t", lambda b: predicted_perfect_product_pairs(3, b)),
    (count_perfect_product_pairs, "s", "s", lambda b: count_perfect_product_pairs(b, 5)),
    (count_perfect_product_pairs, "t", "t", lambda b: count_perfect_product_pairs(3, b)),
    (crt_vertex_map, "v", "v", lambda b: crt_vertex_map(b, 3, 5)),
    (crt_vertex_map, "s", "s", lambda b: crt_vertex_map(0, b, 5)),
    (crt_vertex_map, "t", "t", lambda b: crt_vertex_map(0, 3, b)),
    (map_factor_index, "p", "p", lambda b: map_factor_index(b, 3, 5)),
    (map_factor_index, "s", "s", lambda b: map_factor_index(0, b, 5)),
    (map_factor_index, "t", "t", lambda b: map_factor_index(0, 3, b)),
    (verify_factor_equality, "p", "p", lambda b: verify_factor_equality(b, 3, 5)),
    (verify_factor_equality, "s", "s", lambda b: verify_factor_equality(0, b, 5)),
    (verify_factor_equality, "t", "t", lambda b: verify_factor_equality(0, 3, b)),
    (build_equivalence_report, "s", "s", lambda b: build_equivalence_report(b, 5)),
    (build_equivalence_report, "t", "t", lambda b: build_equivalence_report(3, b)),
    (enumerate_factorizations, "n", "n", lambda b: next(enumerate_factorizations(b))),
    (oracle_summary, "n", "n", lambda b: oracle_summary(b)),
    (exact_c, "n", "n", lambda b: exact_c(b)),
    (write_factorizations_ndjson, "n", "n",
     lambda b: write_factorizations_ndjson(b, io.StringIO())),
]


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param(name, call, id=f"{function.__name__}-{parameter}-{name}")
        for function, parameter, name, call in INTEGER_ARGUMENTS
    ],
)
def test_every_integer_argument_refuses_a_boolean(name, call, flag):
    with pytest.raises(ValueError) as excinfo:
        call(flag)
    assert str(excinfo.value) == f"{name} must be an integer, got {flag}"


def test_the_table_names_every_integer_argument():
    # Records that only store their fields are out of scope, and make_edge's
    # message names the whole edge (tests/test_factors.py pins it).
    checked = [Residue, Factor, Factorization] + [
        value
        for name in nearfactor.__all__
        if inspect.isfunction(value := getattr(nearfactor, name))
        and name != "make_edge"
    ]
    integer = {"int", "int | None", "tuple[int, int]"}
    expected = {
        (function, parameter.name)
        for function in checked
        for parameter in inspect.signature(function).parameters.values()
        if parameter.annotation in integer
    }
    assert {(function, parameter) for function, parameter, _, _ in INTEGER_ARGUMENTS} == expected


# The integer decision is made in one place: operator.index is called, and a
# value is tested for bool, only in numtheory._integer and in make_edge,
# whose message names the whole edge.
INTEGER_CHECKS = {("numtheory", "_integer"), ("factors", "make_edge")}


def _is_name(node, *names):
    return isinstance(node, ast.Name) and node.id in names


def _decides(node) -> bool:
    """Whether node imports or reads operator.index, or tests against bool."""
    if isinstance(node, ast.ImportFrom) and node.module == "operator":
        return any(alias.name == "index" for alias in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr == "index" and _is_name(node.value, "operator")
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
    elif isinstance(node, ast.Call) and _is_name(node.func, "isinstance", "issubclass"):
        operands = node.args
    else:
        return False
    return any(_is_name(n, "bool") for operand in operands for n in ast.walk(operand))


def _enclosing(node, module, test, function=None):
    """(module, enclosing function) of each node that passes test."""
    for child in ast.iter_child_nodes(node):
        if test(child):
            yield module, function
        inner = child.name if isinstance(child, ast.FunctionDef) else function
        yield from _enclosing(child, module, test, inner)


def _library_sites(test) -> set:
    src = Path(nearfactor.__file__).resolve().parent
    return {
        site
        for path in sorted(src.glob("*.py"))
        for site in _enclosing(ast.parse(path.read_text()), path.stem, test)
    }


def test_only_the_integer_check_and_make_edge_decide_what_an_integer_is():
    assert _library_sites(_decides) == INTEGER_CHECKS


def _cycles(node) -> bool:
    """Whether node calls itertools.cycle, or imports it under another name."""
    if isinstance(node, ast.ImportFrom) and node.module == "itertools":
        return any(alias.name == "cycle" and alias.asname for alias in node.names)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "cycle" and _is_name(func.value, "itertools")
    return _is_name(func, "cycle")


def test_one_function_traces_a_union():
    """pairing._trace is the one witness tracer: no second loop cycles two arrays."""
    assert _library_sites(_cycles) == {("pairing", "_trace")}
