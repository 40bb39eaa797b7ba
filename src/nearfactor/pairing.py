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
from collections.abc import Iterator
from itertools import combinations, cycle, starmap
from math import gcd

from ._record import Record
from .factors import Factor, Factorization

TERMINAL_REACHED = "reached-other-isolated"
TERMINAL_CYCLE = "closed-cycle"
TERMINAL_EARLY = "stopped-early"


class UnionWalk(Record):
    """Trace of the alternating walk through the union of two factors.

    `terminal` is one of:
      - "reached-other-isolated": dead end at the second factor's isolated
        vertex after covering all n vertices (a Hamiltonian path witness);
      - "stopped-early": dead end before covering all n vertices;
      - "closed-cycle": the next edge returns to the start (possible only
        when the first factor covers its declared isolated vertex).
    """

    start: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    terminal: str


class PairClassification(Record):
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
    turn it is (for well-formed factors this is g's isolated vertex), or at
    the start, the one vertex it can revisit (see `_reached`).
    """
    n = _check_same_order(f, g)
    if n % 2 == 0:
        raise ValueError("the alternating walk is defined for odd order only")
    if f.edges == g.edges:
        raise ValueError("factors must be distinct")
    if f.isolated is None or g.isolated is None:
        raise ValueError("both factors need an isolated vertex (odd order)")
    start = f.isolated
    if not 0 <= start < n:
        raise ValueError(f"isolated vertex {start} out of range for order {n}")
    vertices = [start]
    edges: list[tuple[int, int]] = []
    current = start
    for step in cycle((g.partners, f.partners)):
        nxt = step[current]
        if nxt is None:
            terminal = TERMINAL_REACHED if len(vertices) == n else TERMINAL_EARLY
            break
        edges.append((current, nxt))
        vertices.append(nxt)
        if nxt == start:
            terminal = TERMINAL_CYCLE
            break
        current = nxt
    return UnionWalk(start, tuple(vertices), tuple(edges), terminal)


def _modular_pair(k: int, l: int, n: int, claim: str) -> tuple[int, int, int]:
    """(k % n, l % n, n) for distinct indices mod an odd n >= 3.

    Any other n is refused with a message that opens with `claim`.
    """
    n = operator.index(n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"{claim} odd n >= 3, got {n}")
    k = operator.index(k) % n
    l = operator.index(l) % n
    if k == l:
        raise ValueError("factor indices must be distinct")
    return k, l, n


def nth_union_edge(k: int, l: int, n: int, i: int) -> tuple[int, int]:
    """Closed form for the i-th edge (1-based) of the alternating walk.

    The walk starts at the isolated vertex of the modular factor k and uses
    an edge of factor l first.  Returned as an ordered (from, to) pair: with
    h = 1/2 mod n, the edge straddles c = l*h (odd i) or k*h (even i) at
    distance s = +-(k - l)*h*i, as (c + s, c - s) mod n.
    """
    k, l, n = _modular_pair(k, l, n, "closed-form walk edges require")
    i = operator.index(i)
    if not 1 <= i <= n - 1:
        raise ValueError(f"edge position {i} not in [1, {n - 1}]")
    h = (n + 1) // 2
    s = (k - l) * h * i
    if i % 2 == 1:
        c = l * h
    else:
        c, s = k * h, -s
    return ((c + s) % n, (c - s) % n)


def is_perfect_by_gcd(k: int, l: int, n: int) -> bool:
    """Coprimality criterion for modular pairs: gcd((k - l) % n, n) == 1."""
    k, l, n = _modular_pair(k, l, n, "the gcd criterion applies to")
    return gcd((k - l) % n, n) == 1


def classify_pair(f: Factor, g: Factor) -> PairClassification:
    """Classify a pair of factors of the same K_n; traversal is authoritative.

    Odd order: perfect iff the alternating walk covers all n vertices and
    ends at a missing edge, not back at its start.
    Even order: perfect iff the union of the two matchings is one n-cycle.
    """
    if f.n % 2 == 1:
        walk = union_walk(f, g)  # checks the orders, the edge lists and the starts
        perfect = walk.terminal == TERMINAL_REACHED
        gcd_perfect = None
        ki, li = f.modular_index, g.modular_index
        if ki is not None and li is not None and ki != li:
            gcd_perfect = is_perfect_by_gcd(ki, li, f.n)
        return PairClassification(
            n=f.n, perfect=perfect, witness=walk, gcd_perfect=gcd_perfect
        )
    n = _check_same_order(f, g)
    if f.edges == g.edges:
        raise ValueError("factors must be distinct")
    # The union of two distinct perfect matchings is 2-regular (as a
    # multigraph), so the component of vertex 0 is a cycle; it is traced by
    # alternating an edge of f with an edge of g.
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
    return PairClassification(n=n, perfect=len(cycle) == n, cycle=tuple(cycle))


def _reached(f: Factor, g: Factor) -> bool:
    """Whether the walk from f's isolated vertex reaches every vertex.

    The walk takes a g-edge, then an f-edge, and so on, along the two
    partner arrays.  Precondition, which `_walkable` checks: f and g share
    one odd order and have partner arrays that build, and f's isolated
    vertex is in range and uncovered.  The walk can then revisit only the
    start, which f cannot lead back to and g only from g.partners[start],
    revisited first; so every step reaches a new vertex, and the walk is a
    Hamiltonian path iff it makes (n - 1) / 2 g-then-f double steps
    without a missing edge.
    """
    pf = f.partners
    pg = g.partners
    v = f.isolated
    k = len(pf) // 2
    while k:
        v = pg[v]
        if v is None:
            return False
        v = pf[v]
        if v is None:
            return False
        k -= 1
    return True


def _walkable(fz: Factorization) -> bool:
    """Whether `_reached` decides every pair of factors as classify_pair would.

    It does when the factors share one odd order and have pairwise distinct
    edge lists, partner arrays that build and isolated vertices that are
    set, in range and uncovered.
    """
    factors = fz.factors
    n = factors[0].n if factors else 0
    if n % 2 == 0 or len({f.edges for f in factors}) != len(factors):
        return False
    for f in factors:
        start = f.isolated
        try:
            partners = f.partners
        except ValueError:
            return False
        if f.n != n or start not in range(n) or partners[start] is not None:
            return False
    return True


def _pair_verdicts(fz: Factorization) -> Iterator[bool]:
    """Whether each pair of factors is perfect, in `combinations` order.

    The witness-free walk on the factors when `_walkable` holds; otherwise
    every pair goes through classify_pair, so the error raised is the one
    of the first failing pair.
    """
    pairs = combinations(fz.factors, 2)
    if _walkable(fz):
        return starmap(_reached, pairs)
    return (classify_pair(f, g).perfect for f, g in pairs)


def count_perfect_pairs(fz: Factorization) -> int:
    """Number of unordered perfect pairs among the factors, by traversal.

    Counts with the witness-free walk; classify_pair and union_walk give
    the verdict of one pair together with its path or cycle.  A
    factorization from enumerate_factorizations carries the count its run
    took from the verdicts it decided when it built each factor; any other
    is the sum of `_pair_verdicts`, which checks once that `_walkable`
    holds and then walks the factors themselves, or else classifies pair
    by pair.
    """
    count = vars(fz).get("_perfect_pairs")  # set by enumerate_factorizations
    if count is None:
        return sum(_pair_verdicts(fz))
    return count
