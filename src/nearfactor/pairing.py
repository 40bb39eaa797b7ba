"""Perfect-pair classification for pairs of (near-)one-factors.

For odd order, two near-one-factors form a perfect pair when their union is
a Hamiltonian path; the path is found by walking from the isolated vertex of
the first factor, alternating edges of the second and first factor.  For the
modular family the i-th edge of that walk has a closed form, and perfection
is equivalent to gcd(k - l, n) == 1.  For even order a pair is perfect when
the union of the two perfect matchings is a single Hamiltonian cycle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations

from .factors import Factor, Factorization
from .numtheory import gcd

TERMINAL_REACHED = "reached-other-isolated"
TERMINAL_CYCLE = "closed-cycle"
TERMINAL_EARLY = "stopped-early"


@dataclass(frozen=True)
class UnionWalk:
    """Trace of the alternating walk through the union of two factors.

    `terminal` is one of:
      - "reached-other-isolated": dead end at the second factor's isolated
        vertex after covering all n vertices (a Hamiltonian path witness);
      - "stopped-early": dead end before covering all n vertices;
      - "closed-cycle": the next edge would revisit a vertex (possible only
        for malformed or overlapping input factors).
    """

    start: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    terminal: str

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "vertices": list(self.vertices),
            "edges": [[a, b] for a, b in self.edges],
            "terminal": self.terminal,
        }


@dataclass(frozen=True)
class PairClassification:
    """Verdict for one pair of factors.

    `perfect` comes from the traversal witness (the walk for odd order, the
    union-cycle scan for even order).  When both factors are modular with
    distinct indices, `gcd_perfect` records the coprimality criterion and
    `criterion_agreement` records whether the two verdicts coincide.
    """

    n: int
    perfect: bool
    witness: UnionWalk | None = None
    cycle: tuple[int, ...] | None = None
    gcd_perfect: bool | None = None

    @property
    def criterion_agreement(self) -> bool | None:
        if self.gcd_perfect is None:
            return None
        return self.gcd_perfect == self.perfect


def _check_same_order(f: Factor, g: Factor) -> int:
    if f.n != g.n:
        raise ValueError(f"mismatched graph orders: {f.n} vs {g.n}")
    return f.n


def union_walk(f: Factor, g: Factor) -> UnionWalk:
    """Walk from f's isolated vertex, alternating an edge of g, then of f.

    The walk stops at a vertex with no continuing edge in the factor whose
    turn it is (for well-formed factors this is g's isolated vertex), or as
    soon as the next edge would revisit a vertex.
    """
    n = _check_same_order(f, g)
    if n % 2 == 0:
        raise ValueError("the alternating walk is defined for odd order only")
    if f.edges == g.edges:
        raise ValueError("factors must be distinct")
    if f.isolated is None or g.isolated is None:
        raise ValueError("both factors need an isolated vertex (odd order)")
    steps = (g.partners, f.partners)
    start = f.isolated
    vertices = [start]
    edges: list[tuple[int, int]] = []
    seen = {start}
    current = start
    i = 1
    while True:
        nxt = steps[(i - 1) % 2][current]
        if nxt is None:
            terminal = TERMINAL_REACHED if len(vertices) == n else TERMINAL_EARLY
            break
        if nxt in seen:
            # Unreachable for well-formed distinct near-one-factors; kept so
            # that overlapping external input cannot loop forever.
            if nxt == start:
                edges.append((current, nxt))
                vertices.append(nxt)
            terminal = TERMINAL_CYCLE
            break
        edges.append((current, nxt))
        vertices.append(nxt)
        seen.add(nxt)
        current = nxt
        i += 1
    return UnionWalk(start, tuple(vertices), tuple(edges), terminal)


def nth_union_edge(k: int, l: int, n: int, i: int) -> tuple[int, int]:
    """Closed form for the i-th edge (1-based) of the alternating walk.

    The walk starts at the isolated vertex of the modular factor k and uses
    an edge of factor l first.  Returned as an ordered (from, to) pair.
    """
    n = operator.index(n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"closed-form walk edges require odd n >= 3, got {n}")
    k = operator.index(k) % n
    l = operator.index(l) % n
    if k == l:
        raise ValueError("factor indices must be distinct")
    i = operator.index(i)
    if not 1 <= i <= n - 1:
        raise ValueError(f"edge position {i} not in [1, {n - 1}]")
    inv2 = pow(2, -1, n)
    kh = k * inv2 % n
    lh = l * inv2 % n
    if i % 2 == 1:
        a = (i * kh - (i - 1) * lh) % n
        b = ((i + 1) * lh - i * kh) % n
    else:
        a = (i * lh - (i - 1) * kh) % n
        b = ((i + 1) * kh - i * lh) % n
    return (a, b)


def is_perfect_by_gcd(k: int, l: int, n: int) -> bool:
    """Coprimality criterion for modular pairs: gcd((k - l) % n, n) == 1."""
    n = operator.index(n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"the gcd criterion applies to odd n >= 3, got {n}")
    k = operator.index(k) % n
    l = operator.index(l) % n
    if k == l:
        raise ValueError("factor indices must be distinct")
    return gcd((k - l) % n, n) == 1


def _union_cycle(f: Factor, g: Factor) -> tuple[int, ...]:
    """Vertices of the union cycle through vertex 0 (even order).

    The union of two distinct perfect matchings is 2-regular (as a
    multigraph), so the component of vertex 0 is a cycle; it is traced by
    alternating an edge of f with an edge of g.
    """
    pf = f.partners
    pg = g.partners
    if None in pf or None in pg:
        raise ValueError("even-order classification requires perfect matchings")
    cycle = [0]
    v = pf[0]
    use_g = True
    while v != 0:
        cycle.append(v)
        v = pg[v] if use_g else pf[v]
        use_g = not use_g
    return tuple(cycle)


def classify_pair(f: Factor, g: Factor) -> PairClassification:
    """Classify a pair of factors of the same K_n; traversal is authoritative.

    Odd order: perfect iff the alternating walk covers all n vertices.
    Even order: perfect iff the union of the two matchings is one n-cycle.
    """
    n = _check_same_order(f, g)
    if f.edges == g.edges:
        raise ValueError("factors must be distinct")
    if n % 2 == 1:
        walk = union_walk(f, g)
        perfect = len(walk.vertices) == n
        gcd_perfect = None
        if f.index is not None and g.index is not None:
            ki, li = f.modular_index, g.modular_index
            if ki is not None and li is not None and ki != li:
                gcd_perfect = is_perfect_by_gcd(ki, li, n)
        return PairClassification(
            n=n, perfect=perfect, witness=walk, gcd_perfect=gcd_perfect
        )
    cycle = _union_cycle(f, g)
    return PairClassification(n=n, perfect=len(cycle) == n, cycle=cycle)


def count_perfect_pairs(fz: Factorization) -> int:
    """Number of unordered perfect pairs among the factors, by traversal."""
    return sum(
        1 for f, g in combinations(fz.factors, 2) if classify_pair(f, g).perfect
    )
