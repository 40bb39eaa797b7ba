import pytest

from nearfactor.factors import (
    Factor,
    Factorization,
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
    assert "uncovered" in verdict.reason and "2" in verdict.reason

    out_of_range = Factor(n=5, edges=((1, 7), (2, 3)), isolated=0)
    assert "out of range" in validate_factor(out_of_range).reason

    no_isolated = Factor(n=5, edges=((1, 4), (2, 3)))
    assert "isolated" in validate_factor(no_isolated).reason

    covered_isolated = Factor(n=5, edges=((0, 1), (2, 4)), isolated=0)
    assert "covered" in validate_factor(covered_isolated).reason

    even_with_isolated = Factor(n=4, edges=((0, 2), (1, 3)), isolated=0)
    assert not validate_factor(even_with_isolated)


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
