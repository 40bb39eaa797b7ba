"""The witness-free counting kernel against the witness path and the oracle.

`_is_perfect` must return exactly `classify_pair(f, g).perfect`, raising the
same errors, on any pair of factors, well-formed or not; `count_perfect_pairs`
counts through it and must build no witness.
"""

import random
import tracemalloc
from itertools import combinations, islice

import nearfactor.pairing as pairing
from nearfactor.factors import (
    Factor,
    Factorization,
    build_modular_factorization,
    factorization_problems,
)
from nearfactor.oracle import enumerate_factorizations, independent_hamiltonicity_check
from nearfactor.pairing import _is_perfect, classify_pair, count_perfect_pairs


def _matching(rng: random.Random, n: int) -> tuple[list[tuple[int, int]], int | None]:
    """A random (near-)perfect matching of K_n and its uncovered vertex."""
    order = list(range(n))
    rng.shuffle(order)
    isolated = order.pop() if n % 2 else None
    return [(order[i], order[i + 1]) for i in range(0, len(order), 2)], isolated


def _factor(rng: random.Random, n: int, shape: str) -> Factor:
    edges, isolated = _matching(rng, n)
    if shape == "partial":
        edges = rng.sample(edges, rng.randrange(len(edges) + 1))
    elif shape == "wrong-isolated":
        isolated = rng.choice([None, -n - 1, -1, 0, n - 1, n, rng.randrange(n)])
    elif shape == "malformed":
        u, v = rng.sample(range(n + 1), 2)
        edges.append((u, v))  # covers a vertex twice or leaves the range
    return Factor(n=n, edges=tuple(edges), isolated=isolated)


def _sharing(rng: random.Random, f: Factor) -> Factor:
    """f with two of its edges re-paired: every other edge is shared."""
    edges = list(f.edges)
    if len(edges) >= 2:
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if len({a, b, c, d}) == 4:
            edges[i], edges[j] = (a, c), (b, d)
    return Factor(n=f.n, edges=tuple(edges), isolated=f.isolated)


def _outcome(decide, f: Factor, g: Factor):
    try:
        return decide(f, g)
    except (ValueError, IndexError) as exc:
        return type(exc).__name__, str(exc)


def _random_pair(rng: random.Random) -> tuple[Factor, Factor]:
    n = rng.choice([3, 4, 5, 6, 7, 8, 9])
    shapes = ["well-formed"] * 4 + ["partial", "wrong-isolated", "malformed"]
    f = _factor(rng, n, rng.choice(shapes))
    kind = rng.random()
    if kind < 0.25:
        g = _sharing(rng, f)
    elif kind < 0.3:
        g = Factor(n=n, edges=f.edges, isolated=(n - 1 if n % 2 else None))
    elif kind < 0.33:
        g = _factor(rng, n + 2, "well-formed")
    else:
        g = _factor(rng, n, rng.choice(shapes))
    return f, g


def test_kernel_matches_classify_pair_on_random_pairs():
    rng = random.Random(20140)
    outcomes = set()
    for _ in range(4000):
        f, g = _random_pair(rng)
        expected = _outcome(lambda a, b: classify_pair(a, b).perfect, f, g)
        assert _outcome(_is_perfect, f, g) == expected, (f, g)
        outcomes.add(expected if isinstance(expected, bool) else expected[0])
    assert outcomes == {True, False, "ValueError", "IndexError"}


def test_count_agrees_with_witness_path_and_oracle_on_n9_prefix():
    rng = random.Random(9)
    sample = rng.sample(list(islice(enumerate_factorizations(9), 3000)), 40)
    for fz in sample:
        pairs = list(combinations(fz.factors, 2))
        by_witness = sum(classify_pair(f, g).perfect for f, g in pairs)
        by_census = sum(independent_hamiltonicity_check(f, g) for f, g in pairs)
        assert count_perfect_pairs(fz) == by_witness == by_census


def test_count_perfect_pairs_builds_no_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("counting built a witness")

    monkeypatch.setattr(pairing, "classify_pair", refuse)
    monkeypatch.setattr(pairing, "union_walk", refuse)
    assert count_perfect_pairs(build_modular_factorization(9)) == 27


def test_factor_count_mismatch_allocates_no_vertex_census():
    n = 2_000_001
    tracemalloc.start()
    try:
        problems = factorization_problems(Factorization(n=n, factors=()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problems == [
        f"expected {n} factors for order {n}, found 0",
        f"{n * (n - 1) // 2} edges of the complete graph are missing",
    ]
    assert peak < 1_000_000
