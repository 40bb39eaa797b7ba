import json
import tracemalloc

import pytest

from nearfactor.factors import (
    Factor,
    Factorization,
    FactorVerdict,
    build_modular_factor,
    build_modular_factor_even,
    build_modular_factorization,
    factor_index_of_edge,
    factorization_problems,
    make_edge,
    validate_factor,
)
from nearfactor.pairing import classify_pair


def test_make_edge_canonical():
    assert make_edge(4, 1) == (1, 4)
    assert make_edge(0, 3) == (0, 3)
    with pytest.raises(ValueError):
        make_edge(2, 2)


def test_factor_stores_edges_canonically():
    f = Factor(n=5, edges=((4, 1), (3, 2)), isolated=0)
    assert f.edges == ((1, 4), (2, 3))


def test_factor_rejects_tiny_order():
    with pytest.raises(ValueError):
        Factor(n=2, edges=((0, 1),))


def test_build_modular_factor_examples():
    f = build_modular_factor(5, 0)
    assert f.isolated == 0
    assert f.edges == ((1, 4), (2, 3))

    f = build_modular_factor(5, 1)
    assert f.isolated == 3
    assert f.edges == ((0, 1), (2, 4))

    f = build_modular_factor(7, 4)
    assert f.isolated == 2
    assert f.edges == ((0, 4), (1, 3), (5, 6))


def test_build_modular_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        build_modular_factor(6, 0)
    with pytest.raises(ValueError):
        build_modular_factor(1, 0)
    with pytest.raises(ValueError):
        build_modular_factor(5, 5)
    with pytest.raises(ValueError):
        build_modular_factor(5, -1)


def test_build_modular_factor_even_examples():
    assert build_modular_factor_even(6, 1).edges == ((0, 1), (2, 5), (3, 4))
    assert build_modular_factor_even(6, 0).edges == ((0, 3), (1, 5), (2, 4))
    assert build_modular_factor_even(4, 3).edges == ((0, 3), (1, 2))


def test_build_modular_factor_even_rejects_odd_order():
    with pytest.raises(ValueError):
        build_modular_factor_even(5, 0)
    with pytest.raises(ValueError):
        build_modular_factor_even(2, 0)
    with pytest.raises(ValueError):
        build_modular_factor_even(6, 6)


def _modular_by_edges(n, k):
    """Factor k built through Factor(...) from every edge {i, j} with i + j = k."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (i + j) % n == k]
    if n % 2:
        return Factor(n, tuple(edges), next(v for v in range(n) if 2 * v % n == k), k)
    if k % 2 == 0:
        edges.append((k // 2, (n + k) // 2))  # the two solutions of 2 * v = k
    return Factor(n, tuple(edges), None, k)


@pytest.mark.parametrize(
    "n, build",
    [(n, build_modular_factor) for n in range(3, 42, 2)]
    + [(n, build_modular_factor_even) for n in range(4, 25, 2)],
)
def test_builders_give_the_factor_built_from_its_edges(n, build):
    for k in range(n):
        f, ref = build(n, k), _modular_by_edges(n, k)
        assert f == ref and hash(f) == hash(ref), (n, k)
        assert repr(f) == repr(ref) and f.to_dict() == ref.to_dict(), (n, k)
        assert f.modular_index == ref.modular_index, (n, k)
        assert f.modular_index == (k if n % 2 or k % 2 else None), (n, k)
        assert vars(f)["partners"] == ref.partners, (n, k)


def test_modular_factorization_k3():
    fz = build_modular_factorization(3)
    assert fz.n == 3
    assert [f.isolated for f in fz.factors] == [0, 2, 1]
    assert [f.edges for f in fz.factors] == [((1, 2),), ((0, 1),), ((0, 2),)]


def test_factor_index_of_edge_examples():
    assert factor_index_of_edge(5, (2, 4)).value == 1
    assert factor_index_of_edge(9, (0, 3)).value == 3
    assert factor_index_of_edge(7, (5, 6)).value == 4


def test_factor_index_of_edge_rejects_loops_and_range():
    with pytest.raises(ValueError):
        factor_index_of_edge(5, (2, 2))
    with pytest.raises(ValueError):
        factor_index_of_edge(5, (0, 5))
    with pytest.raises(ValueError):
        factor_index_of_edge(6, (0, 1))


def test_validate_factor_accepts_modular_families():
    for n in range(3, 100, 2):
        for k in range(n):
            f = build_modular_factor(n, k)
            assert validate_factor(f).valid
            assert len(f.edges) == (n - 1) // 2
            assert (2 * f.isolated) % n == k


def test_validate_factor_names_first_violation():
    doubled = Factor(n=5, edges=((1, 4), (2, 4)), isolated=0)
    verdict = validate_factor(doubled)
    assert not verdict
    assert verdict.reason == "vertex 4 covered twice"

    sparse = Factor(n=5, edges=((1, 4),), isolated=0)
    verdict = validate_factor(sparse)
    assert not verdict
    assert verdict.reason == "vertices {2, 3} uncovered"

    out_of_range = Factor(n=5, edges=((1, 7), (2, 3)), isolated=0)
    assert "out of range" in validate_factor(out_of_range).reason

    no_isolated = Factor(n=5, edges=((1, 4), (2, 3)))
    assert "isolated" in validate_factor(no_isolated).reason

    covered_isolated = Factor(n=5, edges=((0, 1), (2, 4)), isolated=0)
    assert "covered" in validate_factor(covered_isolated).reason

    even_with_isolated = Factor(n=4, edges=((0, 2), (1, 3)), isolated=0)
    assert not validate_factor(even_with_isolated)


@pytest.mark.parametrize("isolated", [-1, 5, 7])
def test_validate_factor_refuses_an_isolated_vertex_out_of_range(isolated):
    f = Factor(n=5, edges=build_modular_factor(5, 0).edges, isolated=isolated)
    reason = f"isolated vertex {isolated} out of range for order 5"
    assert validate_factor(f) == FactorVerdict(False, reason)


def test_validate_factor_even_matchings():
    for n in range(4, 61, 2):
        for k in range(n):
            f = build_modular_factor_even(n, k)
            assert validate_factor(f).valid
            assert f.isolated is None
            assert len(f.edges) == n // 2


def test_modular_family_partitions_edge_set():
    for n in (5, 9, 15, 21):
        fz = build_modular_factorization(n)
        seen = set()
        for f in fz.factors:
            for e in f.edges:
                assert factor_index_of_edge(n, e).value == f.index
                assert e not in seen
                seen.add(e)
        assert len(seen) == n * (n - 1) // 2
        assert sorted(f.isolated for f in fz.factors) == list(range(n))


def test_even_family_does_not_partition():
    # the even-order builders give valid matchings, but the n factors
    # collectively repeat edges (each even-k special pair also occurs in an
    # odd-k factor), so no partition claim is made for even order
    n = 6
    family = [build_modular_factor_even(n, k) for k in range(n)]
    all_edges = [e for f in family for e in f.edges]
    assert len(all_edges) > len(set(all_edges))


def test_factor_json_roundtrip():
    f = build_modular_factor(9, 4)
    assert Factor.from_dict(f.to_dict()) == f
    classify_pair(f, build_modular_factor(9, 0))  # fills the per-instance memo
    assert f.partners is f.partners
    fresh = Factor.from_dict(f.to_dict())
    assert fresh == f and hash(fresh) == hash(f)
    assert fresh.to_dict() == f.to_dict()
    data = f.to_dict()
    assert data["edges"] == [[u, v] for u, v in f.edges]
    assert data["n"] == 9 and data["index"] == 4


@pytest.mark.parametrize(
    "edge, shown",
    [([1, 2, 3, 4], "[1, 2, 3, 4]"), ([1, 2, 3], "[1, 2, 3]"), ([1], "[1]"),
     ([], "[]"), (list(range(50)), "[0, 1, 2, 3, 4, 5, ...]"), ((0, 1, 2), "(0, 1, 2)")],
)
def test_factor_from_dict_requires_two_endpoints_per_edge(edge, shown):
    """And factor_index_of_edge, with the same message."""
    data = build_modular_factor(5, 0).to_dict()
    data["edges"].append(edge)
    for build in (lambda: Factor.from_dict(data), lambda: factor_index_of_edge(5, edge)):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == f"edge {shown} must have exactly two endpoints"


@pytest.mark.parametrize("field", ["n", "isolated", "index"])
@pytest.mark.parametrize("flag", [True, False])
def test_factor_from_dict_rejects_booleans(field, flag):
    """from_dict, Factor(), Factorization() and the modular builders alike."""
    data = build_modular_factor(5, 1).to_dict()
    data[field] = flag
    builds = [lambda: Factor.from_dict(data), lambda: Factor(**data)]
    if field == "n":
        builds += [
            lambda: Factorization(flag),
            lambda: build_modular_factor(flag, 1),
            lambda: build_modular_factor_even(flag, 1),
            lambda: factor_index_of_edge(flag, (0, 1)),
        ]
    if field == "index":
        builds += [
            lambda: build_modular_factor(5, flag),
            lambda: build_modular_factor_even(4, flag),
        ]
    for build in builds:
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == f"{field} must be an integer, got {flag}"


@pytest.mark.parametrize("edge", [[True, 4], [2, True], [False, 3], [True, False]])
def test_factor_from_dict_rejects_boolean_endpoints(edge):
    """from_dict, Factor() with a list or tuple edge, make_edge and
    factor_index_of_edge alike."""
    data = build_modular_factor(5, 0).to_dict()
    data["edges"][0] = edge
    fz = {"n": 5, "factors": [data]}
    for build in (
        lambda: Factor.from_dict(data),
        lambda: Factorization.from_dict(fz),
        lambda: Factor(**data),
        lambda: Factor(5, [tuple(edge)], 0),
        lambda: make_edge(*edge),
        lambda: factor_index_of_edge(5, edge),
    ):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == f"edge {edge!r} must have integer endpoints"


def test_factor_reports_the_first_of_several_defects():
    """n first, then each edge in order, then isolated, then index."""
    data = {"n": True, "edges": [[2, 2], [6, 1], [1, 2, 3]]}
    data.update(isolated=False, index=True)
    for message, fix in (
        ("n must be an integer, got True", {"n": 7}),
        ("loop edge (2, 2) is not allowed", {"edges": [[6, 1], [1, 2, 3]]}),
        ("edge [1, 2, 3] must have exactly two endpoints", {"edges": [[6, 1]]}),
        ("isolated must be an integer, got False", {"isolated": 0}),
        ("index must be an integer, got True", {"index": 0}),
    ):
        with pytest.raises(ValueError) as excinfo:
            Factor.from_dict(data)
        assert str(excinfo.value) == message
        data.update(fix)
    assert Factor.from_dict(data) == Factor(7, ((1, 6),), 0, 0)


def test_factorization_from_dict_rejects_booleans():
    data = build_modular_factorization(5).to_dict()
    data["n"] = True
    with pytest.raises(ValueError, match="^n must be an integer, got True$"):
        Factorization.from_dict(data)
    # Every 1 written as true, as in the JSON a careless tool might emit.
    data = json.loads(json.dumps(build_modular_factorization(5).to_dict()).replace("1", "true"))
    with pytest.raises(ValueError, match="must be an integer|must have integer endpoints"):
        Factorization.from_dict(data)


def test_factorization_json_roundtrip():
    fz = build_modular_factorization(7)
    again = Factorization.from_dict(fz.to_dict())
    assert again == fz


def test_factorization_problems_clean_and_broken():
    fz = build_modular_factorization(7)
    assert factorization_problems(fz) == []

    factors = list(fz.factors)
    factors[0] = Factor(n=7, edges=factors[0].edges[:-1], isolated=factors[0].isolated)
    broken = Factorization(n=7, factors=tuple(factors))
    problems = factorization_problems(broken)
    assert problems
    assert any("invalid" in p for p in problems)


_K5 = build_modular_factorization(5).factors


@pytest.mark.parametrize(
    "factors, problems",
    [
        # A factor of another order stops the checks after the factor list.
        (
            (_K5[0], build_modular_factor(7, 1), *_K5[2:]),
            ["factor 1 has order 7, expected 5"],
        ),
        # A repeated factor shares its edges and leaves a vertex never isolated.
        (
            (_K5[0], _K5[0], *_K5[2:]),
            [
                "edge (1, 4) appears in factors 0 and 1",
                "edge (2, 3) appears in factors 0 and 1",
                "vertex 0 is isolated in 2 factors, expected 1",
                "vertex 3 is isolated in 0 factors, expected 1",
            ],
        ),
    ],
)
def test_factorization_problems_names_order_and_isolation_defects(factors, problems):
    assert factorization_problems(Factorization(n=5, factors=factors)) == problems


@pytest.mark.parametrize(
    "factor, reason",
    [
        # Texts with at most ten uncovered vertices, as recorded before the cap.
        (Factor(9, ((2, 3), (4, 5), (6, 7)), 0), "vertices {8, 1} uncovered"),
        (Factor(8, ((0, 1),)), "vertices {2, 3, 4, 5, 6, 7} uncovered"),
        (Factor(13, ((0, 1),), 12), "vertices {2, 3, 4, 5, 6, 7, 8, 9, 10, 11} uncovered"),
        # More than ten: the first ten by label, then the count of the rest.
        (
            Factor(14, ((0, 1),)),
            "vertices {2, 3, 4, 5, 6, 7, 8, 9, 10, 11} and 2 more uncovered",
        ),
        (
            Factor(15, ((5, 9),), 0),
            "vertices {1, 2, 3, 4, 6, 7, 8, 10, 11, 12} and 2 more uncovered",
        ),
    ],
)
def test_validate_factor_names_at_most_ten_uncovered_vertices(factor, reason):
    assert validate_factor(factor) == FactorVerdict(False, reason)


def test_validate_factor_memory_is_bounded_by_the_edges():
    n = 2_000_001
    document = '{"n": 2000001, "factors": [{"n": 2000001, "edges": [], "isolated": 0}]}'
    tracemalloc.start()
    try:
        problems = factorization_problems(Factorization.from_dict(json.loads(document)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problems == [
        f"expected {n} factors for order {n}, found 1",
        "factor 0 invalid: vertices {1, 2, 3, 4, 5, 6, 7, 8, 9, 10} "
        f"and {n - 11} more uncovered",
        f"{n * (n - 1) // 2} edges of the complete graph are missing",
    ]
    assert peak < 1_000_000
