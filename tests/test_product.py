import json
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from nearfactor import pairing, product
from nearfactor.factors import (
    Factor,
    Factorization,
    build_modular_factor_even,
    build_modular_factorization,
    factorization_problems,
    validate_factor,
)
from nearfactor.numtheory import half_mod, totient
from nearfactor.oracle import enumerate_factorizations, independent_hamiltonicity_check
from nearfactor.pairing import count_perfect_pairs
from nearfactor.product import (
    ProductFactor,
    build_product_factor,
    count_perfect_product_pairs,
    flatten_product_factor,
    is_perfect_product_pair,
    predicted_perfect_product_pairs,
    product_bound,
    product_factorization,
)

K9_PERFECT = Path(__file__).parent / "data" / "k9_perfect.json"


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
    with pytest.raises(ValueError, match="^s must be an integer, got True$"):
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


# ---------------------------------------------- product_factorization builder


def _pair_vertex_loop(s, t, k, l):
    """Edges and isolated vertex of product factor (k, l), built pair by pair."""
    edges = []
    for i in range(s):
        ip = (k - i) % s
        for j in range(t):
            a = (i, j)
            b = (ip, (l - j) % t)
            if a < b:
                edges.append((a, b))
    return tuple(edges), (half_mod(k, s).value, half_mod(l, t).value)


def test_build_product_factor_matches_the_pair_vertex_loop():
    orders = (3, 5, 7, 9, 15)
    for s in orders:
        for t in orders:
            for k in range(s):
                for l in range(t):
                    pf = build_product_factor(s, t, k, l)
                    assert (pf.edges, pf.isolated) == _pair_vertex_loop(s, t, k, l)


@pytest.mark.parametrize("s, t", [(3, 3), (3, 5), (5, 15), (15, 5), (7, 9), (9, 7)])
def test_product_factorization_of_modular_families(s, t):
    fz = product_factorization(
        build_modular_factorization(s), build_modular_factorization(t)
    )
    expected = [
        build_product_factor(s, t, k, l).flattened() for k in range(s) for l in range(t)
    ]
    assert fz.n == s * t
    assert len(fz.factors) == len(expected)
    for got, want in zip(fz.factors, expected):
        assert got == want
        assert got.partners == want.partners


@pytest.mark.parametrize("s, t", [(3, 3), (3, 5), (5, 15), (15, 5), (7, 9), (9, 7)])
def test_flattened_equals_the_checking_rebuild(s, t):
    for k in range(s):
        for l in range(t):
            pf = build_product_factor(s, t, k, l)
            flat = pf.flatten_vertex
            ref = Factor(
                s * t, [(flat(a), flat(b)) for a, b in pf.edges], flat(pf.isolated)
            )
            f = pf.flattened()
            assert f == ref and hash(f) == hash(ref) and f.to_dict() == ref.to_dict()
            assert vars(f)["partners"] == ref.partners
            again = pf.flattened()  # the record keeps its array unedited
            assert again == ref and vars(again)["partners"] == ref.partners
            # the kept array is no field of the record
            fields = ProductFactor(s, t, k, l, pf.edges, pf.isolated)
            assert pf == fields and hash(pf) == hash(fields)
            assert repr(pf) == repr(fields) and pf.to_dict() == fields.to_dict()


def test_a_record_built_field_by_field_flattens_through_factor():
    one_edge = ProductFactor(3, 3, 0, 1, (((0, 0), (0, 1)),), (0, 2))
    f = one_edge.flattened()
    assert f == Factor(9, ((0, 1),), 2)
    assert "partners" not in vars(f)
    loop = ProductFactor(3, 3, 0, 1, (((0, 0), (0, 0)),), (0, 2))
    with pytest.raises(ValueError, match="loop edge"):
        loop.flattened()


def test_product_indices_refuse_booleans():
    for k, l, message in [
        (True, 0, "first index must be an integer, got True"),
        (0, False, "second index must be an integer, got False"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            build_product_factor(3, 5, k, l)
        assert str(excinfo.value) == message
    for kl, kl2, message in [
        ((True, 0), (0, 1), "first index must be an integer, got True"),
        ((0, True), (1, 1), "second index must be an integer, got True"),
        ((0, 0), (False, 1), "first index must be an integer, got False"),
        ((0, 0), (1, False), "second index must be an integer, got False"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            is_perfect_product_pair(3, 5, kl, kl2)
        assert str(excinfo.value) == message


def test_product_factors_equal_their_rebuild_from_edges():
    """Non-modular input too: each factor is the Factor its edges describe."""
    k9 = Factorization.from_dict(json.loads(K9_PERFECT.read_text()))
    stream = enumerate_factorizations(5)
    for a, b in ((k9, build_modular_factorization(5)), (next(stream), next(stream))):
        for f in product_factorization(a, b).factors:
            ref = Factor(f.n, f.edges, f.isolated, f.index)
            assert f == ref and hash(f) == hash(ref) and f.to_dict() == ref.to_dict()
            assert vars(f)["partners"] == ref.partners


def test_product_factorization_rejects_invalid_and_even_input():
    k3, k5 = build_modular_factorization(3), build_modular_factorization(5)
    short = Factorization(n=5, factors=k5.factors[:4])
    with pytest.raises(ValueError, match="factorization B: expected 5 factors"):
        product_factorization(k3, short)
    even = Factorization(
        n=4, factors=tuple(build_modular_factor_even(4, k) for k in (1, 3))
    )
    with pytest.raises(ValueError, match="factorization A: even order 4"):
        product_factorization(even, k3)


def test_count_cross_check_fires_on_a_wrong_prediction(monkeypatch):
    real = product.predicted_perfect_product_pairs
    monkeypatch.setattr(
        product, "predicted_perfect_product_pairs", lambda s, t: real(s, t) + 1
    )
    with pytest.raises(RuntimeError, match="two-gcd criterion predicts 61"):
        count_perfect_product_pairs(3, 5)
    assert count_perfect_product_pairs(3, 3) == 0  # no cross-check when not coprime


def _hop_tables(a, b):
    """The hop tables and starts of product(a, b), read off `_product_mates`."""
    n, tables, starts = a.n * b.n, [], []
    for mate, c in product._product_mates(a, b):
        assert mate[c] == c  # the array _prebuilt takes
        mate[c] = n
        tables.append(mate + [n])
        starts.append(c)
    return tables, starts


ODD_ORDERS = range(3, 16, 2)


@pytest.mark.parametrize("s", ODD_ORDERS)
@pytest.mark.parametrize("t", ODD_ORDERS)
def test_count_walks_the_tables_of_product_factorization(s, t):
    """The count's tables, starts and verdicts are those of the built family."""
    a, b = build_modular_factorization(s), build_modular_factorization(t)
    fz = product_factorization(a, b)
    tables, starts = _hop_tables(a, b)
    assert tables == list(map(pairing._hops, fz.factors))
    assert starts == [f.isolated for f in fz.factors]
    verdicts = list(pairing._table_verdicts(tables, starts, s * t))
    assert verdicts == list(pairing._pair_verdicts(fz))
    assert count_perfect_product_pairs(s, t) == sum(verdicts) == count_perfect_pairs(fz)


def test_k9_witness_times_modular_k5_through_the_tables():
    a, b = _k9_perfect(), build_modular_factorization(5)
    tables, starts = _hop_tables(a, b)
    assert sum(pairing._table_verdicts(tables, starts, 45)) == 720 == 2 * 36 * 10


def test_count_builds_no_product_factor(monkeypatch):
    """The count walks arrays: Factors of order s and t, none of order s*t.

    The modular inputs are built as Factors; no product factor, hop table
    from a Factor, walkability check or count_perfect_pairs call is made,
    and the two families it has just built are not checked again.
    """
    real = Factor._prebuilt

    def constituents_only(cls, n, *args):
        if n > 15:
            raise AssertionError(f"a Factor of order {n} was built")
        return real(n, *args)

    def refuse(*args):
        raise AssertionError("the count left the hop tables")

    monkeypatch.setattr(Factor, "_prebuilt", classmethod(constituents_only))
    for name in ("_walkable", "_hops", "count_perfect_pairs"):
        monkeypatch.setattr(pairing, name, refuse)
        monkeypatch.setattr(product, name, refuse, raising=False)
    with monkeypatch.context() as checks:
        checks.setattr(product, "factorization_problems", refuse)
        assert count_perfect_product_pairs(7, 9) == 1134
        assert count_perfect_product_pairs(5, 15) == 0
    with pytest.raises(AssertionError, match="order 63 was built"):
        product_factorization(build_modular_factorization(7), build_modular_factorization(9))


def test_prediction_matches_the_pairwise_criterion():
    odd = range(3, 14, 2)
    for s in odd:
        for t in odd:
            indices = [(k, l) for k in range(s) for l in range(t)]
            brute = sum(
                is_perfect_product_pair(s, t, a, b) for a, b in combinations(indices, 2)
            )
            assert predicted_perfect_product_pairs(s, t) == brute, (s, t)


@pytest.mark.parametrize("s", range(3, 16, 2))
@pytest.mark.parametrize("t", range(3, 16, 2))
def test_prediction_counts_the_passing_index_differences(s, t):
    """s*t/2 pairs per nonzero difference the public criterion passes."""
    differences = [(dk, dl) for dk in range(s) for dl in range(t) if dk or dl]
    passing = sum(is_perfect_product_pair(s, t, d, (0, 0)) for d in differences)
    predicted = predicted_perfect_product_pairs(s, t)
    assert predicted == s * t * passing // 2
    assert predicted == s * t * totient(s) * totient(t) // 2


# ------------------------------------------- doubling on non-modular inputs


def _k9_perfect():
    return Factorization.from_dict(json.loads(K9_PERFECT.read_text()))


def test_k9_witness_is_a_perfect_factorization():
    fz = _k9_perfect()
    assert factorization_problems(fz) == []
    assert count_perfect_pairs(fz) == 36 == comb(9, 2)
    pairs = list(combinations(fz.factors, 2))
    assert len(pairs) == 36
    assert all(independent_hamiltonicity_check(f, g) for f, g in pairs)


def test_k9_witness_doubles_with_modular_k5():
    fz = product_factorization(_k9_perfect(), build_modular_factorization(5))
    assert factorization_problems(fz) == []
    assert count_perfect_pairs(fz) == 720 == 2 * 36 * 10


def test_every_k5_factorization_doubles_with_modular_k3():
    k3 = build_modular_factorization(3)
    seen = 0
    for a in enumerate_factorizations(5):
        fz = product_factorization(a, k3)
        assert factorization_problems(fz) == []
        assert count_perfect_pairs(fz) == 2 * count_perfect_pairs(a) * 3
        seen += 1
    assert seen == 6


def test_k9_witness_times_k3_has_no_perfect_pair():
    fz = product_factorization(_k9_perfect(), build_modular_factorization(3))
    assert factorization_problems(fz) == []
    assert count_perfect_pairs(fz) == 0
