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
from collections.abc import Iterator
from io import TextIOBase
from itertools import combinations

from ._record import Record
from .factors import Factor, Factorization
from .numtheory import totient
from .pairing import _Verdicts, classify_pair, count_perfect_pairs


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
    yet touch u or v (per-vertex bitmasks), lowest factor first.  Emitted
    factorizations carry factors sorted by their edge lists; factor indices
    are left unset.  Each factor arrives with its partner array already
    built, so counting never rebuilds it.  Within one call, equal factors
    are one shared (immutable) object: each distinct factor is built once,
    when it first completes, into the run's table, which no other call
    shares.  The table holds each factor under its slot (its creation
    index) with its walk inputs and pair verdicts; every factorization
    carries the slots of its factors and the table, with which
    count_perfect_pairs walks each distinct pair once per run.
    """
    n = _check_enumerable(n)
    edge_list = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = len(edge_list)
    full = (1 << n) - 1
    # used[v] = bitmask of factors already matching vertex v; factor v itself
    # is banned at v from the start, which pins "factor p isolates vertex p".
    used = [1 << v for v in range(n)]
    # held[c] = bitmask of the edge positions assigned to factor c.  At a
    # leaf the mask alone determines the factor (c is the one vertex its
    # edges miss), so it is the key of `built`, which gives the factor's
    # slot in `run`, this run's memo of factors and their pair verdicts.
    held = [0] * n
    assigned = [0] * m
    avail = [0] * m
    built: dict[int, int] = {}
    run = _Verdicts()

    def build(c: int, mask: int) -> int:
        edges = [e for pos, e in enumerate(edge_list) if mask >> pos & 1]
        partners: list[int | None] = [None] * n
        for u, v in edges:
            partners[u] = v
            partners[v] = u
        built[mask] = slot = run.add(
            Factor._prebuilt(n, tuple(edges), c, tuple(partners))
        )
        return slot

    # Explicit-stack backtracking: avail[pos] holds the factors still to try
    # at edge pos and assigned[pos] the current one.  Every assignment is
    # undone once, right after its leaf is yielded or its subtree exhausted.
    last = m - 1
    pos = 0
    avail[0] = full & ~(used[0] | used[1])  # edge (0, 1)
    while True:
        free = avail[pos]
        if free:
            bit = free & -free
            avail[pos] = free ^ bit
            u, v = edge_list[pos]
            used[u] |= bit
            used[v] |= bit
            c = assigned[pos] = bit.bit_length() - 1
            held[c] |= 1 << pos
            if pos < last:
                pos += 1
                u, v = edge_list[pos]
                avail[pos] = full & ~(used[u] | used[v])
                continue
            # Sorted by edge list = sorted by first edge: the factors holding
            # (0, 1), ..., (0, n-1), then factor 0, which isolates vertex 0.
            slots = []
            for k in assigned[: n - 1] + [0]:
                slot = built.get(held[k])
                if slot is None:
                    slot = build(k, held[k])
                slots.append(slot)
            fz = Factorization(n=n, factors=[run.factors[a] for a in slots])
            vars(fz)["_run"] = (tuple(slots), run)
            yield fz
        else:
            pos -= 1
            if pos < 0:
                return
            u, v = edge_list[pos]
            c = assigned[pos]
            bit = 1 << c
        used[u] ^= bit
        used[v] ^= bit
        held[c] ^= 1 << pos


class OracleSummary(Record):
    """exact_c(n) with the paper's n*phi(n)/2 bound and the enumeration size."""

    n: int
    exact_c: int
    lower_bound: int
    factorizations_seen: int

    def __init__(
        self, n: int, exact_c: int, lower_bound: int, factorizations_seen: int
    ) -> None:
        vars(self).update(
            n=n,
            exact_c=exact_c,
            lower_bound=lower_bound,
            factorizations_seen=factorizations_seen,
        )

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


def write_factorizations_ndjson(n: int, stream: TextIOBase) -> int:
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
