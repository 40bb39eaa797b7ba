"""Seeded random differential tests on valid factorizations.

A vertex relabelling of a near-one-factorization is another one with the
same perfect pairs, so it must stay valid and keep its count under both the
walk (`count_perfect_pairs`) and the degree census
(`independent_hamiltonicity_check`).  A corruption of one edge must be
reported by `factorization_problems`.  The inputs are the modular families
of every odd order up to 31, the perfect factorization of K_9 in
`tests/data/k9_perfect.json` and a sample of the n = 7 oracle stream.  The
random choices come from stdlib `random` with fixed seeds, so every run
checks the same cases.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from nearfactor.factors import (
    Factor,
    Factorization,
    build_modular_factorization,
    factorization_problems,
    make_edge,
)
from nearfactor.oracle import enumerate_factorizations, independent_hamiltonicity_check
from nearfactor.pairing import count_perfect_pairs

K9_PERFECT = Path(__file__).parent / "data" / "k9_perfect.json"
SEEDS = (1, 7919, 20261018)


def _inputs(rng):
    """(name, factorization, its perfect-pair count) for every input."""
    for n in range(3, 32, 2):
        fz = build_modular_factorization(n)
        yield f"modular {n}", fz, count_perfect_pairs(fz)
    k9 = Factorization.from_dict(json.loads(K9_PERFECT.read_text()))
    yield "k9_perfect", k9, 36
    stream = list(enumerate_factorizations(7))
    for i in sorted(rng.sample(range(len(stream)), 12)):
        fz = stream[i]
        yield f"n = 7 stream item {i}", fz, count_perfect_pairs(fz)


def _relabelled(fz, perm):
    return Factorization(
        fz.n,
        tuple(
            Factor(
                f.n,
                tuple((perm[u], perm[v]) for u, v in f.edges),
                perm[f.isolated],
                f.index,
            )
            for f in fz.factors
        ),
    )


def _census_count(fz):
    return sum(independent_hamiltonicity_check(f, g) for f, g in combinations(fz.factors, 2))


@pytest.mark.parametrize("seed", SEEDS)
def test_relabelling_keeps_validity_and_count(seed):
    rng = random.Random(seed)
    for name, fz, count in _inputs(rng):
        assert factorization_problems(fz) == [], name
        perm = list(range(fz.n))
        rng.shuffle(perm)
        moved = _relabelled(fz, perm)
        assert factorization_problems(moved) == [], (name, perm)
        assert count_perfect_pairs(moved) == count == _census_count(moved), (name, perm)


def _replaced(fz, pos, edges):
    """fz with the edges of factor pos replaced."""
    f = fz.factors[pos]
    factors = list(fz.factors)
    factors[pos] = Factor(f.n, edges, f.isolated, f.index)
    return Factorization(fz.n, tuple(factors))


@pytest.mark.parametrize("seed", SEEDS)
def test_every_one_edge_corruption_is_reported(seed):
    """A moved endpoint, a dropped edge and a copied edge are each named."""
    rng = random.Random(seed)
    for name, fz, _ in _inputs(rng):
        n = fz.n
        pos = rng.randrange(len(fz.factors))
        edges = list(fz.factors[pos].edges)
        i = rng.randrange(len(edges))
        u, v = rng.sample(edges[i], 2)
        case = (name, pos, (u, v))

        w = rng.choice([x for x in range(n) if x not in (u, v)])
        moved = make_edge(u, w)
        problems = factorization_problems(
            _replaced(fz, pos, edges[:i] + [moved] + edges[i + 1 :])
        )
        assert any(p.startswith(f"factor {pos} invalid: ") for p in problems), case
        assert any(p.startswith(f"edge {moved} appears in factors ") for p in problems), case

        problems = factorization_problems(_replaced(fz, pos, edges[:i] + edges[i + 1 :]))
        assert f"factor {pos} invalid: vertices {set(edges[i])} uncovered" in problems, case
        assert "1 edges of the complete graph are missing" in problems, case

        other = rng.choice([q for q in range(len(fz.factors)) if q != pos])
        copied = _replaced(fz, other, fz.factors[other].edges + (edges[i],))
        first, second = sorted((pos, other))
        problems = factorization_problems(copied)
        assert f"edge {edges[i]} appears in factors {first} and {second}" in problems, case
