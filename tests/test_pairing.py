from itertools import combinations, permutations

import pytest

import nearfactor.pairing as pairing
from nearfactor.factors import (
    Factor,
    Factorization,
    build_modular_factor,
    build_modular_factorization,
)
from nearfactor.numtheory import gcd, totient
from nearfactor.pairing import (
    TERMINAL_CYCLE,
    TERMINAL_EARLY,
    TERMINAL_REACHED,
    classify_pair,
    count_perfect_pairs,
    is_perfect_by_gcd,
    nth_union_edge,
    union_walk,
)


def test_union_walk_full_path():
    walk = union_walk(build_modular_factor(5, 0), build_modular_factor(5, 1))
    assert walk.start == 0
    assert walk.vertices == (0, 1, 4, 2, 3)
    assert walk.edges == ((0, 1), (1, 4), (4, 2), (2, 3))
    assert walk.terminal == TERMINAL_REACHED


def test_union_walk_stops_early():
    # the walk dead-ends at the other isolated vertex after 3 of 9 vertices
    walk = union_walk(build_modular_factor(9, 0), build_modular_factor(9, 3))
    assert walk.vertices == (0, 3, 6)
    assert walk.edges == tuple(zip(walk.vertices, walk.vertices[1:]))
    assert walk.terminal == TERMINAL_EARLY


def test_union_walk_k3():
    fz = build_modular_factorization(3)
    walk = union_walk(fz.factors[0], fz.factors[1])
    assert walk.vertices == (0, 1, 2)
    assert walk.terminal == TERMINAL_REACHED


def test_union_walk_rejects_bad_pairs():
    """union_walk's refusals are classify_pair's at odd order, word for word."""
    f5 = build_modular_factor(5, 0)
    with pytest.raises(ValueError, match="mismatched"):
        union_walk(f5, build_modular_factor(7, 0))
    with pytest.raises(ValueError, match="distinct"):
        union_walk(f5, build_modular_factor(5, 0))
    g5 = build_modular_factor(5, 1)
    e4 = Factor(4, ((0, 1), (2, 3)))
    cases = [
        (f5, e4, "mismatched graph orders: 5 vs 4"),
        (e4, f5, "mismatched graph orders: 4 vs 5"),
        (f5, Factor(5, f5.edges, 0), "factors must be distinct"),
        (e4, Factor(4, e4.edges), "factors must be distinct"),
        (Factor(5, f5.edges), g5, "both factors need an isolated vertex (odd order)"),
        (f5, Factor(5, g5.edges), "both factors need an isolated vertex (odd order)"),
        (Factor(5, f5.edges, 5), g5, "isolated vertex 5 out of range for order 5"),
    ]
    for f, g, message in cases:
        deciders = (classify_pair, union_walk) if f.n % 2 else (classify_pair,)
        for decide in deciders:
            with pytest.raises(ValueError) as excinfo:
                decide(f, g)
            assert str(excinfo.value) == message, (decide, f, g)


def test_classify_pair_raises_on_every_call_for_malformed_factors():
    # a failed partner array is not remembered: the second call raises too
    doubled = Factor(n=5, edges=((1, 4), (2, 4)), isolated=0)
    doubled_even = Factor(n=4, edges=((0, 1), (0, 2)))
    out_of_range = Factor(n=5, edges=((1, 4), (2, 5)), isolated=0)
    cases = (
        (doubled, build_modular_factor(5, 1), "vertex 4 covered twice"),
        (build_modular_factor(5, 1), doubled, "vertex 4 covered twice"),
        (doubled_even, Factor(n=4, edges=((0, 3), (1, 2))), "vertex 0 covered twice"),
        (out_of_range, build_modular_factor(5, 1), "vertex 5 out of range for order 5"),
    )
    for f, g, message in cases:
        for _ in range(2):
            with pytest.raises(ValueError) as excinfo:
                classify_pair(f, g)
            assert str(excinfo.value) == message


def test_union_walk_never_revisits():
    for n in range(3, 26, 2):
        fz = build_modular_factorization(n)
        for f, g in combinations(fz.factors, 2):
            walk = union_walk(f, g)
            assert len(walk.vertices) <= n
            assert len(set(walk.vertices)) == len(walk.vertices)
            assert len(walk.edges) == len(walk.vertices) - 1


@pytest.mark.parametrize("isolated", [-5, 7])
@pytest.mark.parametrize(
    "decide",
    [
        union_walk,
        classify_pair,
        lambda f, g: count_perfect_pairs(Factorization(n=5, factors=(f, g))),
    ],
    ids=["union_walk", "classify_pair", "count_perfect_pairs"],
)
def test_walk_refuses_a_start_out_of_range(decide, isolated):
    # -5 would index from the end of a partner array, 7 past it
    f, g = build_modular_factorization(5).factors[:2]
    bad = Factor(n=5, edges=f.edges, isolated=isolated)
    message = f"isolated vertex {isolated} out of range for order 5"
    with pytest.raises(ValueError, match=message):
        decide(bad, g)


@pytest.mark.parametrize(
    "f, g, vertices",
    [
        # f declares the covered vertex 0 isolated: the walk returns to it.
        (Factor(5, ((0, 1), (3, 4)), 0), build_modular_factor(5, 1), (0, 1, 0)),
        # The same through a 4-cycle: five vertices listed, four visited.
        (
            Factor(5, ((0, 1), (2, 3)), 0),
            Factor(5, ((0, 3), (1, 2)), 4),
            (0, 3, 2, 1, 0),
        ),
    ],
)
def test_walk_from_a_covered_start_closes_a_cycle(f, g, vertices):
    walk = union_walk(f, g)
    assert walk.terminal == TERMINAL_CYCLE
    assert walk.vertices == vertices
    assert walk.edges == tuple(zip(vertices, vertices[1:]))
    assert walk.edges == tuple(zip(walk.vertices, walk.vertices[1:]))
    assert not classify_pair(f, g).perfect
    fz = Factorization(5, (f, g))
    assert not pairing._walkable(fz)
    assert count_perfect_pairs(fz) == 0


def test_nth_union_edge_examples():
    assert nth_union_edge(0, 1, 5, 1) == (0, 1)
    assert nth_union_edge(0, 1, 5, 2) == (1, 4)
    assert nth_union_edge(1, 0, 5, 1) == (3, 2)


def test_nth_union_edge_rejects_bad_positions():
    for args, message in [
        ((0, 1, 5, 0), "edge position 0 not in [1, 4]"),
        ((0, 1, 5, 5), "edge position 5 not in [1, 4]"),
        ((2, 2, 5, 1), "factor indices must be distinct"),
        ((0, 5, 5, 1), "factor indices must be distinct"),
        ((0, 1, 1, 1), "closed-form walk edges require odd n >= 3, got 1"),
        ((0, 1, 6, 1), "closed-form walk edges require odd n >= 3, got 6"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            nth_union_edge(*args)
        assert str(excinfo.value) == message, args


def test_nth_union_edge_matches_walk():
    """The closed form gives every edge of the walk, a non-coprime prefix too."""
    for n in (5, 9, 15, 21):
        fz = build_modular_factorization(n)
        for k, l in permutations(range(n), 2):
            walk = union_walk(fz.factors[k], fz.factors[l])
            assert (len(walk.edges) == n - 1) == (gcd(k - l, n) == 1)
            for i, edge in enumerate(walk.edges, start=1):
                assert nth_union_edge(k, l, n, i) == edge


def test_is_perfect_by_gcd_examples():
    assert is_perfect_by_gcd(0, 1, 5) is True
    assert is_perfect_by_gcd(0, 3, 9) is False
    assert is_perfect_by_gcd(2, 7, 15) is False
    assert is_perfect_by_gcd(1, 5, 15) is True
    for args, message in [
        ((2, 2, 5), "factor indices must be distinct"),
        ((0, 5, 5), "factor indices must be distinct"),
        ((0, 1, 1), "the gcd criterion applies to odd n >= 3, got 1"),
        ((0, 1, 6), "the gcd criterion applies to odd n >= 3, got 6"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            is_perfect_by_gcd(*args)
        assert str(excinfo.value) == message, args


class _Index:
    """An integer-like object that defines only __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_the_modular_criteria_take_any_index_like_argument():
    """Exact ints skip the integer check; anything else still goes through it."""
    for k, l, n in ((0, 1, 5), (0, 3, 9), (2, 7, 15), (1, 5, 15), (-1, 8, 7)):
        wrapped = [_Index(x) for x in (k, l, n)]
        assert is_perfect_by_gcd(*wrapped) is is_perfect_by_gcd(k, l, n)
        for i in range(1, n):
            assert nth_union_edge(*wrapped, _Index(i)) == nth_union_edge(k, l, n, i)
    for args in ((0, 1.0, 5), (0, 1, 5.0), ("0", 1, 5)):
        with pytest.raises(TypeError):
            is_perfect_by_gcd(*args)
    with pytest.raises(TypeError):
        nth_union_edge(0, 1, 5, 1.0)


def test_classify_pair_odd_order():
    perfect = classify_pair(build_modular_factor(5, 0), build_modular_factor(5, 1))
    assert perfect.perfect is True
    assert perfect.gcd_perfect is True
    assert perfect.criterion_agreement is True
    assert perfect.witness is not None and perfect.cycle is None

    broken = classify_pair(build_modular_factor(9, 0), build_modular_factor(9, 3))
    assert broken.perfect is False
    assert broken.gcd_perfect is False
    assert broken.criterion_agreement is True

    assert classify_pair(
        build_modular_factor(9, 0), build_modular_factor(9, 1)
    ).perfect


def test_classify_pair_symmetric():
    for n in (5, 9, 15):
        fz = build_modular_factorization(n)
        for f, g in combinations(fz.factors, 2):
            assert classify_pair(f, g).perfect == classify_pair(g, f).perfect


def test_classify_pair_skips_gcd_for_unlabeled_factors():
    f = Factor(n=5, edges=((1, 4), (2, 3)), isolated=0)
    g = Factor(n=5, edges=((0, 1), (2, 4)), isolated=3)
    mislabeled = Factor(n=5, edges=f.edges, isolated=0, index=2)  # edges sum to 0
    for pair in ((f, g), (mislabeled, build_modular_factor(5, 1))):
        outcome = classify_pair(*pair)
        assert outcome.perfect is True
        assert outcome.gcd_perfect is None
        assert outcome.criterion_agreement is None


def test_classify_pair_even_order():
    from nearfactor.factors import build_modular_factor_even
    from nearfactor.oracle import independent_hamiltonicity_check

    f0 = build_modular_factor_even(4, 0)
    f1 = build_modular_factor_even(4, 1)
    outcome = classify_pair(f0, f1)
    assert outcome.perfect is True
    assert outcome.cycle == (0, 2, 3, 1)
    assert outcome.witness is None and outcome.gcd_perfect is None

    # indices 0 and 2 produce the same matching on K_4, hence no pair
    f2 = build_modular_factor_even(4, 2)
    with pytest.raises(ValueError, match="distinct"):
        classify_pair(f0, f2)

    # a shared edge collapses the union into short cycles
    f = Factor(n=6, edges=((0, 1), (2, 3), (4, 5)))
    g = Factor(n=6, edges=((0, 1), (2, 4), (3, 5)))
    outcome = classify_pair(f, g)
    assert outcome.perfect is False
    assert outcome.cycle == (0, 1)

    # every pair of distinct modular matchings: the cycle through vertex 0,
    # traced here f-edge first, and the census decider's verdict
    for n in range(4, 21, 2):
        factors = [build_modular_factor_even(n, k) for k in range(n)]
        for f, g in combinations(factors, 2):
            if f.edges == g.edges:
                continue
            mate = [{u: v for e in h.edges for u, v in (e, e[::-1])} for h in (f, g)]
            ring, v, turn = [0], mate[0][0], 1
            while v != 0:
                ring.append(v)
                v, turn = mate[turn][v], 1 - turn
            outcome = classify_pair(f, g)
            assert outcome.cycle == tuple(ring), (n, f.index, g.index)
            assert outcome.perfect == independent_hamiltonicity_check(f, g)
            assert outcome.witness is None and outcome.gcd_perfect is None


def test_count_perfect_pairs_examples():
    assert count_perfect_pairs(build_modular_factorization(3)) == 3
    assert count_perfect_pairs(build_modular_factorization(5)) == 10
    assert count_perfect_pairs(build_modular_factorization(9)) == 27


def test_count_matches_formula_midrange():
    for n in (15, 21, 33, 45):
        fz = build_modular_factorization(n)
        assert count_perfect_pairs(fz) == n * totient(n) // 2


def test_walk_and_gcd_criterion_refuse_orders_outside_odd_n_from_3():
    even = Factor(4, ((0, 1), (2, 3))), Factor(4, ((0, 2), (1, 3)))
    with pytest.raises(ValueError, match="odd order only"):
        union_walk(*even)
    for n in (1, 2, 4):
        with pytest.raises(ValueError, match=f"odd n >= 3, got {n}"):
            is_perfect_by_gcd(0, 1, n)
