"""Near-one-factors and one-factors of complete graphs, built by modular sums.

A near-one-factor of the complete graph on an odd number of vertices is a
perfect matching on all vertices but one (the isolated vertex).  For even
order the analogous object is an ordinary perfect matching.  The modular
family indexed by k collects the edges {i, j} with (i + j) % n == k.
"""

from __future__ import annotations

import operator
import reprlib
from functools import cached_property
from itertools import chain, islice

from ._record import Record
from .numtheory import Residue, half_mod

__all__ = [
    "Edge",
    "Factor",
    "Factorization",
    "FactorVerdict",
    "build_modular_factor",
    "build_modular_factor_even",
    "build_modular_factorization",
    "factor_index_of_edge",
    "factorization_problems",
    "make_edge",
    "validate_factor",
]

Edge = tuple[int, int]

# The most uncovered vertices validate_factor names in its reason.
_NAMED_UNCOVERED = 10


def make_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge; no booleans, no loops."""
    if u.__class__ is bool or v.__class__ is bool:
        raise ValueError(f"edge {reprlib.repr([u, v])} must have integer endpoints")
    u = operator.index(u)
    v = operator.index(v)
    if u == v:
        raise ValueError(f"loop edge ({u}, {v}) is not allowed")
    return (u, v) if u < v else (v, u)


def _not_bool(value, name: str):
    """`value`, refused if it is a boolean: operator.index(True) == 1."""
    if value.__class__ is bool:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _order(n: int) -> int:
    """`n` as a graph order: an integer, not a boolean, and at least 3."""
    n = operator.index(_not_bool(n, "n"))
    if n < 3:
        raise ValueError(f"graph order must be >= 3, got {n}")
    return n


class Factor(Record):
    """One (near-)one-factor: a set of edges on the vertices 0..n-1.

    Edges are stored canonically ((min, max), lexicographically sorted).
    `isolated` is the uncovered vertex (odd order only); `index` is an
    optional label, the modular sum k for factors built by this module.
    The constructor checks n (an integer >= 3), each edge in turn (two
    integer endpoints, no loop), then isolated and index, and raises on the
    first defect; a boolean is refused wherever an integer belongs.
    Structural invariants beyond that are checked by validate_factor, so
    that externally supplied (possibly broken) factors can still be
    represented and diagnosed.
    `partners` and `modular_index` are computed on first use and kept on
    the instance; they take no part in ==, hash or to_dict.
    """

    n: int
    edges: tuple[Edge, ...]
    isolated: int | None
    index: int | None

    def __init__(
        self,
        n: int,
        edges: tuple[Edge, ...],
        isolated: int | None = None,
        index: int | None = None,
    ) -> None:
        n = _order(n)
        canonical = []
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"edge {reprlib.repr(e)} must have exactly two endpoints")
            canonical.append(make_edge(e[0], e[1]))
        canonical.sort()
        if isolated is not None:
            isolated = operator.index(_not_bool(isolated, "isolated"))
        if index is not None:
            index = operator.index(_not_bool(index, "index"))
        vars(self).update(n=n, edges=tuple(canonical), isolated=isolated, index=index)

    @classmethod
    def _prebuilt(
        cls, n: int, mate: list[int | None], isolated: int | None, index: int | None = None
    ) -> "Factor":
        """The factor read off its partner array, which it takes over and edits.

        mate[i] is i's partner and mate[isolated] == isolated; the edges
        (i, mate[i]) with i < mate[i] come out canonical and sorted, and
        `partners` is seeded with mate once mate[isolated] is None.  Skips
        __init__'s checks.  Precondition, not checked: `n` is an int >= 3
        and mate a list of ints on 0..n-1 with mate[mate[i]] == i, fixed at
        `isolated` alone (at no vertex when `isolated` is None).
        """
        edges = tuple([(i, p) for i, p in enumerate(mate) if i < p])
        if isolated is not None:
            mate[isolated] = None
        f = object.__new__(cls)
        vars(f).update(
            n=n, edges=edges, isolated=isolated, index=index, partners=tuple(mate)
        )
        return f

    @cached_property
    def partners(self) -> tuple[int | None, ...]:
        """Vertex -> matched partner (None where uncovered), built once.

        Raises ValueError on an out-of-range vertex or a vertex covered
        twice, on every access (a failure is not cached); its message is
        validate_factor's reason, which is also the non-raising verdict.
        """
        n = self.n
        partner: list[int | None] = [None] * n
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n and partner[u] is partner[v] is None):
                raise ValueError(validate_factor(self).reason)
            partner[u] = v
            partner[v] = u
        return tuple(partner)

    @cached_property
    def modular_index(self) -> int | None:
        """`index` when every edge sums to it mod n, else None; checked once."""
        k = self.index
        if k is None or any((u + v) % self.n != k for u, v in self.edges):
            return None
        return k

    def to_dict(self) -> dict:
        """The file schema from_dict reads; faster than Record.to_dict on edges."""
        return {
            "n": self.n,
            "index": self.index,
            "isolated": self.isolated,
            "edges": [[u, v] for u, v in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Factor":
        """The factor a to_dict() record describes.

        It reads the fields and leaves every check to the constructor:
        ValueError for a value the constructor refuses, and KeyError,
        TypeError or IndexError for a malformed record.
        """
        return cls(data["n"], data["edges"], data.get("isolated"), data.get("index"))


class Factorization(Record):
    """A list of factors intended to partition the edge set of K_n."""

    n: int
    factors: tuple[Factor, ...]

    def __init__(self, n: int, factors: tuple[Factor, ...] = ()) -> None:
        vars(self).update(n=_order(n), factors=tuple(factors))

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild from the fields alone, so a copy
        # leaves behind the perfect-pair count enumerate_factorizations sets.
        return (self.__class__, (self.n, self.factors))

    @classmethod
    def from_dict(cls, data: dict) -> "Factorization":
        return cls(data["n"], tuple(map(Factor.from_dict, data["factors"])))


class FactorVerdict(Record):
    """Outcome of validate_factor: valid flag plus the first violation found."""

    valid: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def validate_factor(f: Factor) -> FactorVerdict:
    """Check the (near-)one-factor invariants, naming the first violated one.

    Odd order: every vertex except the isolated one is covered exactly once.
    Even order: no isolated vertex, every vertex covered exactly once.
    Memory is linear in the number of edges, not in the order: the reason
    names at most ten uncovered vertices and counts the rest.  Validity is
    decided on whole lists first; only an invalid factor is diagnosed edge
    by edge.
    """
    n, iso = f.n, f.isolated
    ends = set(chain.from_iterable(f.edges))
    if (
        len(f.edges) == n // 2
        and len(ends) == n - n % 2
        and min(ends) >= 0
        and max(ends) < n
        and (iso is None if n % 2 == 0 else iso in range(n) and iso not in ends)
    ):
        return FactorVerdict(True)
    covered: set[int] = set()
    for u, v in f.edges:
        for w in (u, v):
            if not 0 <= w < f.n:
                return FactorVerdict(False, f"vertex {w} out of range for order {f.n}")
        for w in (u, v):
            if w in covered:
                return FactorVerdict(False, f"vertex {w} covered twice")
            covered.add(w)
    if f.n % 2 == 1:
        if f.isolated is None:
            return FactorVerdict(False, "odd order requires an isolated vertex")
        if not 0 <= f.isolated < f.n:
            return FactorVerdict(
                False, f"isolated vertex {f.isolated} out of range for order {f.n}"
            )
        if f.isolated in covered:
            return FactorVerdict(
                False, f"isolated vertex {f.isolated} is covered by an edge"
            )
    elif f.isolated is not None:
        return FactorVerdict(False, "even order admits no isolated vertex")
    # Every vertex is now covered, isolated (odd order only) or uncovered,
    # and as the whole-list check failed, some vertex is uncovered.
    missing = f.n - len(covered) - f.n % 2
    uncovered = (w for w in range(f.n) if w not in covered and w != f.isolated)
    named = set(islice(uncovered, _NAMED_UNCOVERED))
    rest = missing - len(named)
    more = f" and {rest} more" if rest else ""
    return FactorVerdict(False, f"vertices {named}{more} uncovered")


def build_modular_factor(n: int, k: int) -> Factor:
    """The near-one-factor of odd-order K_n with edges {i, j}, (i+j) % n == k.

    Its isolated vertex is the unique v with (2*v) % n == k.
    """
    n = _order(n)
    k = operator.index(_not_bool(k, "index"))
    if n % 2 == 0:
        raise ValueError(f"modular near-one-factor requires odd order, got {n}")
    return _modular_factor(n, k, half_mod(k, n).value)


def build_modular_factor_even(n: int, k: int) -> Factor:
    """The modular one-factor (perfect matching) of even-order K_n for index k.

    Odd k: all pairs {i, j} with (i + j) % n == k.
    Even k: the pair {k/2, (n+k)/2} (the two solutions of 2*i == k mod n)
    plus every pair {i, j} of the remaining vertices with (i + j) % n == k.
    """
    n = operator.index(n)
    k = operator.index(k)
    if n < 4 or n % 2 == 1:
        raise ValueError(f"modular one-factor requires even order >= 4, got {n}")
    return _modular_factor(n, k, None)


def _modular_factor(n: int, k: int, isolated: int | None) -> Factor:
    """Factor k of the modular family of K_n, read off its partner array.

    p[i] = (k - i) % n; its fixed points, the v with 2 * v % n == k, are
    `isolated` (odd n) or paired with each other (even n, even k).
    """
    if not 0 <= k < n:
        raise ValueError(f"factor index {k} not in [0, {n})")
    partners: list[int | None] = [*range(k, -1, -1), *range(n - 1, k, -1)]
    if n % 2 == 0 and k % 2 == 0:
        a, b = k // 2, (n + k) // 2
        partners[a], partners[b] = b, a
    return Factor._prebuilt(n, partners, isolated, k)


def build_modular_factorization(n: int) -> Factorization:
    """All n modular near-one-factors of odd-order K_n, in index order."""
    return Factorization(
        n=n, factors=tuple(build_modular_factor(n, k) for k in range(operator.index(n)))
    )


def factor_index_of_edge(n: int, e: Edge) -> Residue:
    """Index of the unique modular factor of odd-order K_n containing edge e."""
    n = operator.index(n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modular factor lookup requires odd order >= 3, got {n}")
    u, v = make_edge(e[0], e[1])
    if not 0 <= u < n or not 0 <= v < n:
        raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
    return Residue((u + v) % n, n)


def factorization_problems(fz: Factorization) -> list[str]:
    """All partition-level defects of a factorization (empty list = valid).

    Checks each factor individually, then edge-disjointness, full coverage
    of E(K_n), and (for odd order) that every vertex is isolated exactly once.
    Even-order input is treated as a one-factorization with n - 1 factors.
    """
    problems: list[str] = []
    n = fz.n
    expected = n if n % 2 == 1 else n - 1
    if len(fz.factors) != expected:
        problems.append(
            f"expected {expected} factors for order {n}, found {len(fz.factors)}"
        )
    orders_ok = True
    for pos, f in enumerate(fz.factors):
        if f.n != n:
            problems.append(f"factor {pos} has order {f.n}, expected {n}")
            orders_ok = False
            continue
        verdict = validate_factor(f)
        if not verdict:
            problems.append(f"factor {pos} invalid: {verdict.reason}")
    if not orders_ok:
        return problems
    distinct = set(chain.from_iterable(f.edges for f in fz.factors))
    full = n * (n - 1) // 2
    if len(distinct) < sum(len(f.edges) for f in fz.factors):
        seen: dict[Edge, int] = {}
        for pos, f in enumerate(fz.factors):
            for e in f.edges:
                if e in seen:
                    problems.append(f"edge {e} appears in factors {seen[e]} and {pos}")
                else:
                    seen[e] = pos
    elif len(distinct) < full:
        problems.append(f"{full - len(distinct)} edges of the complete graph are missing")
    # The isolation census is O(n) in the declared order and reports only
    # when the factor count is right; skipping it otherwise keeps a tiny file
    # that declares a huge n from allocating memory linear in that n.
    if n % 2 == 1 and len(fz.factors) == expected:
        iso_count = [0] * n
        for f in fz.factors:
            if f.isolated is not None and 0 <= f.isolated < n:
                iso_count[f.isolated] += 1
        for v, c in enumerate(iso_count):
            if c != 1:
                problems.append(f"vertex {v} is isolated in {c} factors, expected 1")
    return problems
