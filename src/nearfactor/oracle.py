"""Exhaustive ground truth for small orders.

Enumerates every partition of E(K_n) into n near-one-factors (odd n up to 9)
by backtracking, and derives the exact maximum perfect-pair count.  Factor
relabeling symmetry is broken by the fact that in any such partition each
vertex is isolated exactly once, so the factor isolating vertex p can be
pinned as factor p; every partition then corresponds to exactly one
assignment of edges to factors.

Also provides a Hamiltonicity check that is deliberately independent of the
alternating-walk traversal: it builds the union graph explicitly and decides
by degree census plus a connectivity scan.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import combinations
from typing import IO, Iterator

from .factors import Factor, Factorization
from .numtheory import totient
from .pairing import classify_pair, count_perfect_pairs


class CostGuardError(RuntimeError):
    """Raised when a run would be unboundedly expensive without explicit opt-in."""


def _check_enumerable(n: int, expensive: bool = True) -> int:
    """The order as an int; refuses n = 9 (CostGuardError) unless expensive."""
    n = operator.index(n)
    if n % 2 == 0 or not 3 <= n <= 9:
        raise ValueError(f"enumeration supports odd n with 3 <= n <= 9, got {n}")
    if n == 9 and not expensive:
        raise CostGuardError(
            "exact counting for n = 9 enumerates over a billion factorizations; "
            "pass expensive=True to run it anyway"
        )
    return n


def enumerate_factorizations(n: int) -> Iterator[Factorization]:
    """Yield every near-one-factorization of K_n exactly once, canonically.

    Edges are assigned in lexicographic order; the factor assigned to an
    edge {u, v} may be any factor other than u and v whose matching does not
    yet touch u or v (per-vertex bitmasks).  Emitted factorizations carry
    factors sorted by their edge lists; factor indices are left unset.  Each
    factor arrives with its partner array already built, so counting never
    rebuilds it.
    """
    n = _check_enumerable(n)
    edge_list = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = len(edge_list)
    full = (1 << n) - 1
    # used[v] = bitmask of factors already matching vertex v; factor v itself
    # is banned at v from the start, which pins "factor p isolates vertex p".
    used = [1 << v for v in range(n)]
    assigned = [0] * m

    def emit() -> Factorization:
        # One pass fills each factor's edges (canonical and in lex order,
        # since edge_list is) and its partner array.
        edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        partners: list[list[int | None]] = [[None] * n for _ in range(n)]
        for e, c in zip(edge_list, assigned):
            edges[c].append(e)
            p = partners[c]
            u, v = e
            p[u] = v
            p[v] = u
        # Sorted by edge list = sorted by first edge: the factors holding
        # (0, 1), ..., (0, n-1), then factor 0, which isolates vertex 0.
        return Factorization(
            n=n,
            factors=tuple(
                Factor._prebuilt(n, tuple(edges[c]), c, tuple(partners[c]))
                for c in assigned[: n - 1] + [0]
            ),
        )

    def search(pos: int) -> Iterator[Factorization]:
        if pos == m:
            yield emit()
            return
        u, v = edge_list[pos]
        avail = full & ~(used[u] | used[v])
        while avail:
            bit = avail & -avail
            avail ^= bit
            used[u] |= bit
            used[v] |= bit
            assigned[pos] = bit.bit_length() - 1
            yield from search(pos + 1)
            used[u] ^= bit
            used[v] ^= bit

    yield from search(0)


@dataclass(frozen=True)
class OracleSummary:
    n: int
    exact_c: int
    lower_bound: int
    factorizations_seen: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "exact_c": self.exact_c,
            "lower_bound": self.lower_bound,
            "factorizations_seen": self.factorizations_seen,
        }


def oracle_summary(n: int, expensive: bool = False) -> OracleSummary:
    """exact_c together with the n*phi(n)/2 lower bound, in one pass.

    Streams the enumeration, never materializing it.  For n == 9 the search
    space is enormous, so the run is refused unless expensive=True.
    """
    n = _check_enumerable(n, expensive)
    best = 0
    seen = 0
    for fz in enumerate_factorizations(n):
        seen += 1
        best = max(best, count_perfect_pairs(fz))
    return OracleSummary(
        n=n,
        exact_c=best,
        lower_bound=n * totient(n) // 2,
        factorizations_seen=seen,
    )


def exact_c(n: int, expensive: bool = False) -> int:
    """Exact maximum perfect-pair count over all factorizations of K_n."""
    return oracle_summary(n, expensive).exact_c


def independent_hamiltonicity_check(f: Factor, g: Factor) -> bool:
    """Decide perfection of a pair without the alternating-walk machinery.

    Builds the union of the two edge lists explicitly and checks that it is
    a single path through all n vertices (odd order) or a single n-cycle
    (even order), by degree census and a connectivity scan.
    """
    if f.n != g.n:
        raise ValueError(f"mismatched graph orders: {f.n} vs {g.n}")
    n = f.n
    union = list(f.edges) + list(g.edges)
    expected_edges = n - 1 if n % 2 == 1 else n
    if len(union) != expected_edges:
        return False
    if len(set(union)) != expected_edges:
        return False  # a repeated edge forms a two-vertex cycle
    degree = [0] * n
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in union:
        if not 0 <= u < n or not 0 <= v < n:
            return False
        degree[u] += 1
        degree[v] += 1
        adjacency[u].append(v)
        adjacency[v].append(u)
    if n % 2 == 1:
        ones = [v for v in range(n) if degree[v] == 1]
        if len(ones) != 2 or any(degree[v] != 2 for v in range(n) if v not in ones):
            return False
        start = ones[0]
    else:
        if any(d != 2 for d in degree):
            return False
        start = 0
    reached = {start}
    frontier = [start]
    while frontier:
        w = frontier.pop()
        for x in adjacency[w]:
            if x not in reached:
                reached.add(x)
                frontier.append(x)
    return len(reached) == n


def write_factorizations_ndjson(n: int, stream: IO[str]) -> int:
    """Dump every enumerated factorization as one JSON object per line."""
    count = 0
    for fz in enumerate_factorizations(n):
        stream.write(json.dumps(fz.to_dict(), sort_keys=True, separators=(",", ":")))
        stream.write("\n")
        count += 1
    return count


def oracle_agrees_with_classification(fz: Factorization) -> bool:
    """True when both perfection deciders agree on every pair of factors."""
    for f, g in combinations(fz.factors, 2):
        if classify_pair(f, g).perfect != independent_hamiltonicity_check(f, g):
            return False
    return True
