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

import operator
from collections.abc import Iterator
from io import TextIOBase
from itertools import combinations
from operator import lshift, or_

from ._record import Record, to_json
from .factors import Factor, Factorization
from .numtheory import totient
from .pairing import _reached, classify_pair, count_perfect_pairs


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


def _fill(edges, marks, used, held, full):
    """Yield once per way to give every edge in `edges` a factor, lowest first.

    The oracle's one edge search.  Edge (u, v) may take any factor of `full`
    missing from used[u] | used[v]; while a yield is pending, `used` and
    `held` include the assignment (edge i with factor c: bit c in both ends'
    `used`, marks[i] in held[c]).  Explicit stack: avail[i] holds the
    factors still to try at edge i; every assignment is undone once.
    """
    if not edges:
        yield
        return
    last = len(edges) - 1
    avail = [0] * len(edges)
    picked = [0] * len(edges)
    pos = 0
    u, v = edges[0]
    avail[0] = full & ~(used[u] | used[v])
    while True:
        free = avail[pos]
        if free:
            bit = free & -free
            avail[pos] = free ^ bit
            u, v = edges[pos]
            used[u] |= bit
            used[v] |= bit
            c = picked[pos] = bit.bit_length() - 1
            held[c] |= marks[pos]
            if pos < last:
                pos += 1
                u, v = edges[pos]
                avail[pos] = full & ~(used[u] | used[v])
                continue
            yield
        else:
            pos -= 1
            if pos < 0:
                return
            u, v = edges[pos]
            c = picked[pos]
            bit = 1 << c
        used[u] ^= bit
        used[v] ^= bit
        held[c] ^= marks[pos]


def enumerate_factorizations(n: int) -> Iterator[Factorization]:
    """Yield every near-one-factorization of K_n exactly once, canonically.

    Edges are assigned in lexicographic order; the factor assigned to an
    edge {u, v} may be any factor other than u and v whose matching does not
    yet touch u or v (per-vertex bitmasks), lowest factor first.  Emitted
    factorizations carry factors sorted by their edge lists; factor indices
    are left unset.  Row u is the edges (u, v), v > u.  Once the rows before
    the tail, the last four vertices R.. (R = max(1, n - 4)), are assigned,
    the ways to finish depend only on the factors already matching each
    remaining vertex, so a run searches the tail (`tails`) and row R - 1
    (`rows`) once per distinct state and replays them; a state with no
    completion is stored empty.  Each factor arrives with its partner
    array already built, so counting never rebuilds it.  Within one call,
    equal factors are one shared (immutable) object: each distinct factor
    is built once, when it first completes, under its slot (its run-local
    creation index).  Building slot b walks its factor against that of every
    earlier slot a with no edge in common and another isolated vertex, the
    only factors it can share a factorization with, and marks a perfect
    pair in both slots' masks: bit a of `perfect[b]` and bit b of
    `perfect[a]`.  Each yielded factorization carries only its perfect-pair
    count, read off the masks of its factors' slots, which
    count_perfect_pairs returns without a walk; slots and masks live only
    as long as the call.
    """
    n = _check_enumerable(n)
    full = (1 << n) - 1
    tail = max(1, n - 4)
    row = tail - 1
    edge_list = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # Of m edges, the one at position pos is bit m - 1 - pos of a factor's
    # edge mask, so disjoint masks sort, largest first, by first edge: the
    # emitted order.  The mask alone determines the factor, so it is the key of
    # `built`, which gives the factor's slot.  made[slot] is the factor and
    # perfect[slot] the bitmask of the slots it forms a perfect pair with.
    marks = [1 << pos for pos in reversed(range(len(edge_list)))]
    at_row = edge_list.index((row, row + 1))
    row_edges = slice(at_row, at_row + n - tail)
    tail_edges = slice(row_edges.stop, None)
    built: dict[int, int] = {}
    made: list[Factor] = []
    perfect: list[int] = []

    def build(mask: int) -> int:
        edges = [e for e, mark in zip(edge_list, marks) if mask & mark]
        mate: list[int | None] = list(range(n))
        for u, v in edges:
            mate[u] = v
            mate[v] = u
        # _reached needs a well-formed array; a double cover leaves two fixed points.
        fixed = [v for v in range(n) if mate[v] == v]
        if len(edges) != n // 2 or len(fixed) != 1:
            raise RuntimeError(f"the search built a malformed factor: {edges}")
        c = fixed[0]
        f = Factor._prebuilt(n, mate, c)
        b = len(made)
        mine = 0
        for other, a in built.items():
            if not other & mask and made[a].isolated != c and _reached(made[a], f):
                mine |= 1 << a
                perfect[a] |= 1 << b
        made.append(f)
        perfect.append(mine)
        built[mask] = b
        return b

    # Memo keys pack one n-bit field per tail vertex, tail + i at bit i * n
    # (spread * x copies x into every field): `tails` is keyed on used[tail:]
    # and lists every completion of the tail's edges, `rows` is keyed on the
    # factors banned on each edge of the row, used[row] | used[v], and lists
    # the row's assignments.  An entry holds the edge masks the assignment
    # adds per factor, then (used in rows) the bits it adds to the key;
    # `shared` holds one copy of each row entry and of each row value.
    shifts = range(0, (n - tail) * n, n)
    spread = sum(1 << s for s in shifts)
    pad = [0] * (row + 1)

    def search(edges: slice, key: int) -> list[tuple[int, ...]]:
        used = pad + [key >> s & full for s in shifts]
        held = [0] * n
        found = _fill(edge_list[edges], marks[edges], used, held, full)
        return [(*held, sum(map(lshift, used[tail:], shifts)) ^ key) for _ in found]

    shared: dict[int | tuple, tuple] = {}
    rows: dict[int, tuple] = {}
    tails: dict[int, tuple] = {}
    used = [1 << v for v in range(n)]  # factor v isolates vertex v
    held = [0] * n
    new = object.__new__  # leaves skip Factorization.__init__, as Factor._prebuilt does
    slot_of = built.__getitem__
    for _ in _fill(edge_list[:at_row], marks[:at_row], used, held, full):
        rest = sum(map(lshift, used[tail:], shifts))
        key = rest | used[row] * spread
        options = rows.get(key)
        if options is None:
            found = tuple([shared.setdefault(w[n], w) for w in search(row_edges, key)])
            options = rows[key] = shared.setdefault(found, found)
        for way in options:
            state = rest | way[n]
            ends = tails.get(state)
            if ends is None:
                ends = tails[state] = tuple([w[:n] for w in search(tail_edges, state)])
            if not ends:
                continue
            base = list(map(or_, held, way))
            for last in ends:
                masks = sorted(map(or_, base, last), reverse=True)
                try:
                    slots = tuple(map(slot_of, masks))
                except KeyError:
                    slots = tuple([built[k] if k in built else build(k) for k in masks])
                count = earlier = 0  # earlier: the slots of the factors before this one
                for a in slots:
                    count += (perfect[a] & earlier).bit_count()
                    earlier |= 1 << a
                fz = new(Factorization)
                factors = tuple(map(made.__getitem__, slots))
                vars(fz).update(n=n, factors=factors, _perfect_pairs=count)
                yield fz


class OracleSummary(Record):
    """exact_c(n) with the paper's n*phi(n)/2 bound and the enumeration size."""

    n: int
    exact_c: int
    lower_bound: int
    factorizations_seen: int


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
        stream.write(to_json(fz.to_dict()))
        count += 1
    return count


def oracle_agrees_with_classification(fz: Factorization) -> bool:
    """True when both perfection deciders agree on every pair of factors."""
    for f, g in combinations(fz.factors, 2):
        if classify_pair(f, g).perfect != independent_hamiltonicity_check(f, g):
            return False
    return True
