"""The witness-free counting kernel against the witness path and the oracle.

`count_perfect_pairs` must equal the sum of `classify_pair(f, g).perfect`
over all pairs, or raise the error of the first failing pair, on any
factors, well-formed or not, and must build no witness when it walks.
"""

import json
import random
import tracemalloc
from itertools import combinations, islice
from pathlib import Path

import pytest

import nearfactor.pairing as pairing
from nearfactor.factors import (
    Factor,
    Factorization,
    build_modular_factor_even,
    build_modular_factorization,
    factorization_problems,
)
from nearfactor.oracle import enumerate_factorizations, independent_hamiltonicity_check
from nearfactor.pairing import TERMINAL_EARLY, classify_pair, count_perfect_pairs
from nearfactor.product import product_factorization

K9_PERFECT = Path(__file__).parent / "data" / "k9_perfect.json"


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


def _count_pair(f: Factor, g: Factor) -> bool:
    return count_perfect_pairs(Factorization(n=f.n, factors=(f, g))) == 1


def test_kernel_matches_classify_pair_on_random_pairs():
    """One pair counted as a factorization: walked or classified, as expected.

    The walk covers shared edges, and a wrong but in-range isolated vertex
    only when that vertex is uncovered; every pair it cannot walk is
    classified, errors included.
    """
    rng = random.Random(20140)
    outcomes = set()  # (walked, verdict or error type)
    for _ in range(4000):
        f, g = _random_pair(rng)
        expected = _outcome(lambda a, b: classify_pair(a, b).perfect, f, g)
        assert _outcome(_count_pair, f, g) == expected, (f, g)
        walked = pairing._walkable(Factorization(n=f.n, factors=(f, g)))
        outcome = expected if isinstance(expected, bool) else expected[0]
        outcomes.add((walked, outcome))
    assert outcomes == {
        (True, True),
        (True, False),
        (False, True),
        (False, False),
        (False, "ValueError"),
    }


def _per_pair(fz: Factorization):
    """The reference count: every pair through classify_pair, in order."""
    try:
        return sum(classify_pair(f, g).perfect for f, g in combinations(fz.factors, 2))
    except (ValueError, IndexError) as exc:
        return type(exc).__name__, str(exc)


def _random_factorization(rng: random.Random, streams: dict) -> Factorization:
    """A shuffled whole factorization, or up to six random factors.

    The random factors may carry a repeated factor, one of another order or
    one sharing all but two edges with another.
    """
    n = rng.choice([3, 4, 5, 7, 9])
    kind = rng.random()
    if kind < 0.2 and n % 2:
        whole = rng.choice([build_modular_factorization(n), *streams[n]])
        factors = list(whole.factors)
        rng.shuffle(factors)
        return Factorization(n=n, factors=tuple(factors))
    shapes = ["well-formed"] * 12 + ["partial", "wrong-isolated", "malformed"]
    factors = [_factor(rng, n, rng.choice(shapes)) for _ in range(rng.randrange(7))]
    if factors and kind < 0.35:
        factors.insert(rng.randrange(len(factors) + 1), rng.choice(factors))
    elif factors and kind < 0.45:
        other = _factor(rng, n + 2, "well-formed")
        factors.insert(rng.randrange(len(factors) + 1), other)
    elif factors and kind < 0.5:
        factors.append(_sharing(rng, rng.choice(factors)))
    return Factorization(n=n, factors=tuple(factors))


def test_count_fast_path_matches_per_pair_reference():
    """count_perfect_pairs equals the per-pair sum, or raises its first error.

    Covers both the whole-factorization walk (preconditions hold) and the
    per-pair fallback: mismatched orders, repeated factors, even order,
    missing or out-of-range isolated vertices, malformed factors, and 0 or
    1 factors.
    """
    streams = {n: list(islice(enumerate_factorizations(n), 200)) for n in (3, 5, 7, 9)}
    rng = random.Random(5)
    seen = set()  # (fast path taken, some pair perfect or the error type)
    for _ in range(3000):
        fz = _random_factorization(rng, streams)
        expected = _per_pair(fz)
        try:
            got = count_perfect_pairs(fz)
        except (ValueError, IndexError) as exc:
            got = type(exc).__name__, str(exc)
        assert got == expected, fz
        outcome = expected[0] if isinstance(expected, tuple) else expected > 0
        seen.add((pairing._walkable(fz), outcome))
    assert seen == {
        (True, True),
        (True, False),
        (False, True),
        (False, False),
        (False, "ValueError"),
    }


def test_count_fast_path_edge_cases():
    f, g = build_modular_factorization(5).factors[:2]
    assert count_perfect_pairs(Factorization(n=5, factors=())) == 0
    assert count_perfect_pairs(Factorization(n=5, factors=(f,))) == 0
    h = build_modular_factorization(7).factors[0]
    unset = Factor(n=5, edges=f.edges)
    for factors, message in [
        ((f, g, f), "factors must be distinct"),
        ((f, g, Factor(f.n, f.edges, f.isolated)), "factors must be distinct"),
        ((f, h), "mismatched graph orders: 5 vs 7"),
        ((unset, g), "both factors need an isolated vertex (odd order)"),
    ]:
        fz = Factorization(n=5, factors=factors)
        assert not pairing._walkable(fz)
        with pytest.raises(ValueError) as excinfo:
            count_perfect_pairs(fz)
        assert str(excinfo.value) == message
        assert _per_pair(fz) == ("ValueError", message)
    even = Factorization(
        n=6, factors=tuple(build_modular_factor_even(6, k) for k in (1, 3, 5))
    )
    assert not pairing._walkable(even)
    assert count_perfect_pairs(even) == _per_pair(even) == 3


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


def _kernel_cases():
    """Every modular family of odd order up to 61, three products, the K_9 witness."""
    for n in range(3, 62, 2):
        yield f"modular {n}", build_modular_factorization(n)
    for s, t in ((7, 9), (5, 15), (3, 5)):
        a, b = build_modular_factorization(s), build_modular_factorization(t)
        yield f"product ({s}, {t})", product_factorization(a, b)
    yield "k9_perfect", Factorization.from_dict(json.loads(K9_PERFECT.read_text()))


def test_kernel_matches_classify_pair_on_whole_families():
    """The hop-table walk decides every ordered pair as the witness walk does.

    The kernel tests for a missing edge once per block of four double
    steps, then takes the (n - 1) / 2 % 4 double steps left over.  The
    cases cover each of those four remainders, and walks that meet a
    missing edge in each of the four double steps of a block.
    """
    remainders = set()
    stops = set()
    for name, fz in _kernel_cases():
        assert pairing._walkable(fz), name
        n = fz.n
        remainders.add((n - 1) // 2 % 4)
        tables = [pairing._hops(f) for f in fz.factors]
        for i, f in enumerate(fz.factors):
            others = fz.factors[:i] + fz.factors[i + 1 :]
            verdicts = [classify_pair(f, g) for g in others]
            reached = pairing._reached(tables[i], tables[:i] + tables[i + 1 :], f.isolated, n)
            assert list(reached) == [v.perfect for v in verdicts], (name, f)
            # A walk that stops early meets its missing edge in double step
            # len(edges) // 2, counted from 0.
            for walk in (v.witness for v in verdicts):
                step = len(walk.edges) // 2
                if walk.terminal == TERMINAL_EARLY and step < (n - 1) // 8 * 4:
                    stops.add(step % 4)
    assert remainders == stops == {0, 1, 2, 3}
