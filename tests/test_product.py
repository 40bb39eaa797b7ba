from itertools import combinations

import pytest

from nearfactor.factors import validate_factor
from nearfactor.numtheory import half_mod, totient
from nearfactor.product import (
    build_product_factor,
    count_perfect_product_pairs,
    flatten_product_factor,
    is_perfect_product_pair,
    predicted_perfect_product_pairs,
    product_bound,
)


def test_build_product_factor_3x5():
    pf = build_product_factor(3, 5, 0, 0)
    assert pf.isolated == (0, 0)
    assert len(pf.edges) == 7
    assert ((1, 1), (2, 4)) in pf.edges
    assert ((0, 1), (0, 4)) in pf.edges  # equal first coordinates are allowed


def test_build_product_factor_more_examples():
    assert len(build_product_factor(3, 3, 0, 0).edges) == 4
    assert build_product_factor(3, 5, 1, 2).isolated == (2, 1)


def test_build_product_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        build_product_factor(4, 5, 0, 0)
    with pytest.raises(ValueError):
        build_product_factor(3, 5, 3, 0)
    with pytest.raises(ValueError):
        build_product_factor(3, 5, 0, -1)
    with pytest.raises(ValueError):
        build_product_factor(1, 5, 0, 0)


def test_product_factor_sums_and_isolated():
    for s in (3, 5, 7, 9):
        for t in (3, 5, 7, 9):
            for k in range(s):
                for l in range(t):
                    pf = build_product_factor(s, t, k, l)
                    assert pf.isolated == (
                        half_mod(k, s).value,
                        half_mod(l, t).value,
                    )
                    for (i, j), (ip, jp) in pf.edges:
                        assert (i + ip) % s == k
                        assert (j + jp) % t == l


def test_flattened_product_factor_is_valid():
    for s, t in ((3, 5), (3, 3), (5, 7), (7, 9)):
        for k in range(s):
            for l in range(t):
                flat = flatten_product_factor(build_product_factor(s, t, k, l))
                assert flat.n == s * t
                assert validate_factor(flat).valid


def test_positional_flattening():
    pf = build_product_factor(3, 5, 0, 0)
    flat = pf.flattened()
    assert flat.isolated == 0
    assert pf.flatten_vertex((2, 4)) == 14
    assert (1, 14) not in flat.edges  # (0,1)-(2,4) is not an edge of this factor
    assert (6, 14) in flat.edges  # (1,1)-(2,4) is


def test_is_perfect_product_pair_examples():
    assert is_perfect_product_pair(3, 5, (0, 0), (1, 1)) is True
    assert is_perfect_product_pair(3, 5, (0, 0), (0, 1)) is False
    assert is_perfect_product_pair(3, 5, (0, 0), (1, 0)) is False
    with pytest.raises(ValueError):
        is_perfect_product_pair(3, 5, (1, 2), (1, 2))


def test_product_bound_examples():
    assert product_bound(3, 5, 3, 10) == 60
    assert product_bound(3, 3, 0, 5) == 0
    assert product_bound(5, 7, 10, 21) == 420
    with pytest.raises(ValueError):
        product_bound(3, 5, -1, 10)
    with pytest.raises(ValueError, match="constituent order s"):
        product_bound(4, 5, 1, 1)
    with pytest.raises(ValueError, match="constituent order s"):
        product_bound(True, 5, 1, 1)


def test_count_perfect_product_pairs_coprime():
    assert count_perfect_product_pairs(3, 5) == 60
    assert count_perfect_product_pairs(3, 7) == 126


def test_traversal_matches_criterion_when_coprime():
    for s, t in ((3, 5), (3, 7), (5, 7)):
        assert count_perfect_product_pairs(s, t) == predicted_perfect_product_pairs(
            s, t
        )
        assert count_perfect_product_pairs(s, t) == 2 * (s * totient(s) // 2) * (
            t * totient(t) // 2
        )


def test_non_coprime_orders_split_the_two_notions():
    # the two-gcd criterion keeps predicting pairs, but no union walk can
    # cover all s*t vertices when gcd(s, t) > 1, so the traversal count is 0
    assert predicted_perfect_product_pairs(3, 3) == 18
    assert count_perfect_product_pairs(3, 3) == 0
    assert predicted_perfect_product_pairs(3, 9) > 0
    assert count_perfect_product_pairs(3, 9) == 0


def test_product_family_partitions_pair_edges():
    # each edge's coordinate sums pin its (k, l), so the family is always a
    # partition of the complete graph on pair vertices
    for s, t in ((3, 5), (3, 3)):
        seen = set()
        for k in range(s):
            for l in range(t):
                for e in flatten_product_factor(
                    build_product_factor(s, t, k, l)
                ).edges:
                    assert e not in seen
                    seen.add(e)
        n = s * t
        assert len(seen) == n * (n - 1) // 2
