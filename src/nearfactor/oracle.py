"""Exhaustive ground truth for small orders.

Enumerates every partition of E(K_n) into n near-one-factors (odd n up to 9)
by backtracking, and derives the exact maximum perfect-pair count.  Factor
relabeling symmetry is broken by the fact that in any such partition each
vertex is isolated exactly once, so the factor isolating vertex p can be
pinned as factor p; every partition then corresponds to exactly one
assignment of edges to factors.

Also provides a Hamiltonicity check that is deliberately independent of the
alternating-walk traversal: it reads only the two edge lists and decides by
a degree census of their union plus a scan along each vertex's XOR of
neighbours.
"""

from __future__ import annotations

from collections.abc import Iterator
from io import TextIOBase
from itertools import combinations
from operator import lshift, or_

from ._record import Record, to_json
from .factors import Factor, Factorization
from .numtheory import CostGuardError, _integer, totient
from .pairing import _hops, _reached, classify_pair, count_perfect_pairs

__all__ = [
    "OracleSummary",
    "enumerate_factorizations",
    "exact_c",
    "independent_hamiltonicity_check",
    "oracle_agrees_with_classification",
    "oracle_summary",
    "write_factorizations_ndjson",
]


def _check_enumerable(n: int, expensive: bool = True) -> int:
    """The order as an int; refuses n = 9 (CostGuardError) unless expensive."""
    n = _integer(n, "n")
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

    The oracle's prefix search.  Edge (u, v) may take any factor of `full`
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


def _row_ways(key, marks, n, full):
    """Row R - 1's ways in _fill's order: each factor's added edge mask (marks[i]
    for the edge to R + i), then the bits added to `key`, whose field i (n bits
    at i * n) holds the factors banned on that edge.
    """
    m0, m1, m2, m3 = marks
    ways = []
    f0 = full & ~key
    while f0:
        f0 ^= (x := f0 & -f0)
        f1 = full & ~(key >> n | x)
        while f1:
            f1 ^= (y := f1 & -f1)
            f2 = full & ~(key >> 2 * n | x | y)
            while f2:
                f2 ^= (z := f2 & -f2)
                f3 = full & ~(key >> 3 * n | x | y | z)
                while f3:
                    f3 ^= (w := f3 & -f3)
                    held = [0] * n
                    held[x.bit_length() - 1] = m0
                    held[y.bit_length() - 1] = m1
                    held[z.bit_length() - 1] = m2
                    held[w.bit_length() - 1] = m3
                    ways.append((*held, x | (y | (z | w << n) << n) << n))
    return ways


def _wide_row_ways(key, marks, n, full):
    """Row R - 2's ways in _fill's order, as _row_ways gives row R - 1's, over
    its five edges, to R - 1 + i for i < 5: field i of `key` holds the factors
    banned on the edge to R - 1 + i, and the added bits go to vertex R - 1 + i.
    """
    m0, m1, m2, m3, m4 = marks
    ways = []
    f0 = full & ~key
    while f0:
        f0 ^= (a := f0 & -f0)
        f1 = full & ~(key >> n | a)
        while f1:
            f1 ^= (b := f1 & -f1)
            f2 = full & ~(key >> 2 * n | a | b)
            while f2:
                f2 ^= (c := f2 & -f2)
                f3 = full & ~(key >> 3 * n | a | b | c)
                while f3:
                    f3 ^= (d := f3 & -f3)
                    f4 = full & ~(key >> 4 * n | a | b | c | d)
                    while f4:
                        f4 ^= (e := f4 & -f4)
                        held = [0] * n
                        held[a.bit_length() - 1] = m0
                        held[b.bit_length() - 1] = m1
                        held[c.bit_length() - 1] = m2
                        held[d.bit_length() - 1] = m3
                        held[e.bit_length() - 1] = m4
                        ways.append((*held, a | (b | (c | (d | e << n) << n) << n) << n))
    return ways


def _tail_ends(state, marks, n, full):
    """The tail's ends in _fill's order: each factor's mask of the six edges,
    lexicographic (`marks`), where one factor may take two disjoint edges.
    Field i of `state` (n bits at i * n) holds the factors at vertex R + i.
    """
    u0, u1, u2, u3 = state & full, state >> n & full, state >> 2 * n & full, state >> 3 * n
    ends = []
    f0 = full & ~(u0 | u1)
    while f0:
        f0 ^= (a := f0 & -f0)
        f1 = full & ~(u0 | a | u2)
        while f1:
            f1 ^= (b := f1 & -f1)
            f2 = full & ~(u0 | a | b | u3)
            while f2:
                f2 ^= (c := f2 & -f2)
                f3 = full & ~(u1 | a | u2 | b)
                while f3:
                    f3 ^= (d := f3 & -f3)
                    f4 = full & ~(u1 | a | d | u3 | c)
                    while f4:
                        f4 ^= (e := f4 & -f4)
                        f5 = full & ~(u2 | b | d | u3 | c | e)
                        while f5:
                            f5 ^= (g := f5 & -f5)
                            held = [0] * n
                            for bit, mark in zip((a, b, c, d, e, g), marks):
                                held[bit.bit_length() - 1] |= mark
                            ends.append(tuple(held))
    return tuple(ends)


def enumerate_factorizations(n: int) -> Iterator[Factorization]:
    """Yield every near-one-factorization of K_n exactly once, canonically.

    Edges are assigned in lexicographic order; the factor assigned to an
    edge {u, v} may be any factor other than u and v whose matching does not
    yet touch u or v (per-vertex bitmasks), lowest factor first.  Emitted
    factorizations carry factors sorted by their edge lists; factor indices
    are left unset.  Row u is the edges (u, v), v > u; the tail is the last
    four vertices R.. (R = max(1, n - 4)).  Once _fill has assigned the rows
    before R - 2, the ways to finish depend only on the factors already
    matching each remaining vertex, so a run fills row R - 2 (`wides`, by
    _wide_row_ways), row R - 1 (`rows`, by _row_ways) and the tail (`tails`,
    by _tail_ends) once per distinct state and replays them; a state with no
    way on is stored empty.  K_3 and K_5 have no row R - 2.  Each
    factor arrives with its partner array already built, so counting never
    rebuilds it.  Within one call, equal factors are one shared (immutable)
    object: each distinct factor is built once, when it first completes,
    under its slot (its run-local creation index).  Building slot b walks
    its factor against that of every earlier slot a with no edge in common
    and another isolated vertex, the only factors it can share a
    factorization with, and marks a perfect pair in both slots' masks: bit
    a of `perfect[b]` and bit b of `perfect[a]`.  Each yielded factorization
    carries only its perfect-pair count, read off the masks of its factors'
    slots, which count_perfect_pairs returns without a walk; slots and masks
    live only as long as the call.
    """
    n = _check_enumerable(n)
    full = (1 << n) - 1
    tail = max(1, n - 4)
    row = tail - 1
    edge_list = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # Of m edges, the one at position pos is bit m - 1 - pos of a factor's
    # edge mask, so disjoint masks sort, largest first, by first edge: the
    # emitted order.  The mask alone determines the factor, so it is the key of
    # `built`, which gives the factor's slot.  made[slot] is the factor,
    # tables[slot] its hop table and perfect[slot] the bitmask of the slots it
    # forms a perfect pair with.
    marks = [1 << pos for pos in reversed(range(len(edge_list)))]
    at_row = edge_list.index((row, row + 1)) if n > 3 else 3  # K_3: no tail
    at_wide = edge_list.index((row - 1, row)) if n > 5 else at_row  # row R - 2
    wide_marks, row_marks = marks[at_wide:at_row], marks[at_row : at_row + 4]
    tail_marks = marks[at_row + 4 :]
    built: dict[int, int] = {}
    made: list[Factor] = []
    tables: list[list[int]] = []
    perfect: list[int] = []
    bits: list[int] = []  # bits[slot] == 1 << slot

    def build(mask: int) -> int:
        edges = [e for e, mark in zip(edge_list, marks) if mask & mark]
        mate: list[int | None] = list(range(n))
        for u, v in edges:
            mate[u] = v
            mate[v] = u
        # _reached decides a pair only from the one uncovered vertex of a factor
        # of (n - 1) / 2 edges; a double cover leaves two fixed points.
        fixed = [v for v in range(n) if mate[v] == v]
        if len(edges) != n // 2 or len(fixed) != 1:
            raise RuntimeError(f"the search built a malformed factor: {edges}")
        c = fixed[0]
        f = Factor._prebuilt(n, mate, c)
        b = len(made)
        hops = _hops(f)
        earlier = [
            a for other, a in built.items() if not other & mask and made[a].isolated != c
        ]
        mine = 0
        for a, reached in zip(earlier, _reached(hops, [tables[a] for a in earlier], c, n)):
            if reached:
                mine |= 1 << a
                perfect[a] |= 1 << b
        made.append(f)
        tables.append(hops)
        perfect.append(mine)
        bits.append(1 << b)
        built[mask] = b
        return b

    # Memo keys pack one n-bit field per vertex from R - 1 on, R - 1 + i at bit
    # i * n; row R - 1 and tail keys drop the first field.  spread * x copies x
    # into every field of a row R - 1 key, wide_spread * x into every field of
    # a row R - 2 key.  `shared` holds one copy of each way and of each memo
    # value: a row R - 2 way sets the fifth field of its bits, which no row
    # R - 1 way reaches, so their ways never collide (the empty way that
    # stands in for row R - 2 at n <= 5 has no bits).
    shifts = range(0, (n - row) * n, n)
    spread = sum(1 << s for s in shifts[:-1])
    wide_spread = spread << n | 1
    shared: dict[int | tuple, tuple] = {}
    wides: dict[int, tuple] = {}
    rows: dict[int, tuple] = {}
    tails: dict[int, tuple] = {}

    def stored(memo: dict, key: int, ways: list) -> tuple:
        """Memoise `ways` under `key`, each way and their tuple kept once."""
        found = tuple([shared.setdefault(w[n], w) for w in ways])
        memo[key] = found = shared.setdefault(found, found)
        return found

    if n == 3:  # _fill assigns all three edges, filling every mask: nothing is left
        rows[full * spread], tails[full * spread] = ((0,) * 4,), ((0,) * 3,)
    used = [1 << v for v in range(n)]  # factor v isolates vertex v
    held = [0] * n
    new = object.__new__  # leaves skip Factorization.__init__, as Factor._prebuilt does
    slot_of = built.__getitem__
    for _ in _fill(edge_list[:at_wide], marks[:at_wide], used, held, full):
        below = sum(map(lshift, used[row:], shifts))
        # At n <= 5 there is no row R - 2 and _fill yields once, so one key.
        key = below | used[row - 1] * wide_spread
        options = wides.get(key)
        if options is None:
            ways = _wide_row_ways(key, wide_marks, n, full) if n > 5 else [(0,) * (n + 1)]
            options = stored(wides, key, ways)
        for wide in options:
            top = below | wide[n]
            rest = top >> n
            key = rest | (top & full) * spread
            row_options = rows.get(key)
            if row_options is None:
                row_options = stored(rows, key, _row_ways(key, row_marks, n, full))
            if not row_options:
                continue
            upper = list(map(or_, held, wide))
            for way in row_options:
                state = rest | way[n]
                ends = tails.get(state)
                if ends is None:
                    ends = tails[state] = _tail_ends(state, tail_marks, n, full)
                if not ends:
                    continue
                base = list(map(or_, upper, way))
                for last in ends:
                    masks = sorted(map(or_, base, last), reverse=True)
                    try:
                        slots = tuple(map(slot_of, masks))
                    except KeyError:
                        slots = tuple([built[k] if k in built else build(k) for k in masks])
                    count = earlier = 0  # earlier: the slots of the factors before this one
                    for a in slots:
                        count += (perfect[a] & earlier).bit_count()
                        earlier |= bits[a]
                    fz = new(Factorization)
                    attrs = vars(fz)
                    attrs["n"] = n
                    attrs["factors"] = tuple(map(made.__getitem__, slots))
                    attrs["_perfect_pairs"] = count
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

    Reads only n and the two edge lists, never `partners`.  One pass over
    the union records each vertex's degree and the XOR of its neighbours,
    refusing an endpoint outside 0..n-1.  The union is a single path through
    all n vertices (odd order) iff it has n - 1 edges, two vertices of
    degree 1 and n - 2 of degree 2, and the XOR links lead from one end to
    the other in n - 1 steps; a single n-cycle (even order) iff it has n
    edges, every degree is 2, and the links lead around the cycle through
    its first edge in n steps.  A repeated edge or a shorter cycle is a
    component the links never leave.
    """
    if f.n != g.n:
        raise ValueError(f"mismatched graph orders: {f.n} vs {g.n}")
    n = f.n
    union = f.edges + g.edges
    if len(union) != n - n % 2:
        return False
    degree = [0] * n
    link = [0] * n  # the XOR of each vertex's neighbours
    for u, v in union:
        if not (0 <= u < n and 0 <= v < n):
            return False
        degree[u] += 1
        degree[v] += 1
        link[u] ^= v
        link[v] ^= u
    if n % 2 == 1:
        if degree.count(1) != 2 or degree.count(2) != n - 2:
            return False
        prev = degree.index(1)
        cur = link[prev]
        steps = 1
        while degree[cur] == 2:
            prev, cur = cur, link[cur] ^ prev
            steps += 1
        return steps == n - 1
    if degree.count(2) != n:
        return False
    start, cur = union[0]
    prev, steps = start, 1
    while cur != start:
        prev, cur = cur, link[cur] ^ prev
        steps += 1
    return steps == n


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
