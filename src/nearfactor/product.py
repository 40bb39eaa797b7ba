"""Product factors on pair vertices (i, j) of K_s x K_t, flattened to K_{st}.

The product factor indexed by (k, l) joins (i, j) with ((k - i) % s,
(l - j) % t); equivalently its edges are all pairs of distinct vertices
whose first coordinates sum to k mod s and second coordinates sum to l
mod t.  Exactly one vertex is its own partner and stays isolated, so each
factor is a near-one-factor of the complete graph on the s*t pair vertices.
product_factorization builds the product of any two odd-order factorizations
from their partner arrays; for two modular families it gives these factors,
and count_perfect_product_pairs walks the arrays as hop tables, with no Factor.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd

from ._record import Record
from .factors import (
    Factor,
    Factorization,
    build_modular_factorization,
    factorization_problems,
)
from .numtheory import _integer
from .pairing import _table_verdicts

__all__ = [
    "PairVertex",
    "ProductFactor",
    "build_product_factor",
    "count_perfect_product_pairs",
    "flatten_product_factor",
    "is_perfect_product_pair",
    "predicted_perfect_product_pairs",
    "product_bound",
    "product_factorization",
]

PairVertex = tuple[int, int]


class ProductFactor(Record):
    """A near-one-factor of the complete graph on the s*t pair vertices.

    build_product_factor keeps the positional partner array it built, the
    isolated vertex mapped to itself, beside the fields; flattened() reads
    the Factor off a copy of it.  A record built field by field has no
    array, and flattened() checks its edges through Factor().
    """

    s: int
    t: int
    k: int
    l: int
    edges: tuple[tuple[PairVertex, PairVertex], ...]
    isolated: PairVertex
    _mate = None  # not a field, so not in ==, hash, repr or to_dict

    def flatten_vertex(self, pv: PairVertex) -> int:
        """Positional encoding of a pair vertex: (i, j) -> i * t + j."""
        return pv[0] * self.t + pv[1]

    def flattened(self) -> Factor:
        """The same factor on K_{s*t} under the positional vertex encoding."""
        n, flat = self.s * self.t, self.flatten_vertex
        if self._mate is not None:  # _prebuilt edits the array it is given
            return Factor._prebuilt(n, self._mate.copy(), flat(self.isolated))
        return Factor(n, tuple((flat(a), flat(b)) for a, b in self.edges), flat(self.isolated))


def _check_orders(s: int, t: int) -> tuple[int, int]:
    s = _integer(s, "s")
    t = _integer(t, "t")
    for name, value in (("s", s), ("t", t)):
        if value < 3 or value % 2 == 0:
            raise ValueError(f"constituent order {name} must be odd and >= 3, got {value}")
    return s, t


def _partner_product(fh: list[int], gh: list[int], t: int) -> list[int]:
    """Partner array of F x G on the vertices i*t + j; isolated vertices map to self."""
    return [x * t + y for x in fh for y in gh]


def build_product_factor(s: int, t: int, k: int, l: int) -> ProductFactor:
    """Product factor (k, l) on the s*t pair vertices; O(s*t) construction.

    s and t must be odd (coprimality is not required).  The isolated vertex
    is (half of k mod s, half of l mod t).
    """
    s, t = _check_orders(s, t)
    k = _integer(k, "first index")
    l = _integer(l, "second index")
    if not 0 <= k < s:
        raise ValueError(f"first index {k} not in [0, {s})")
    if not 0 <= l < t:
        raise ValueError(f"second index {l} not in [0, {t})")
    return _product_factor(s, t, k, l)


def _product_factor(s: int, t: int, k: int, l: int) -> ProductFactor:
    """build_product_factor on checked ints: odd s, t >= 3, k in [0, s), l in [0, t)."""
    iso = (k * ((s + 1) // 2) % s, l * ((t + 1) // 2) % t)  # half of k, half of l
    fh = [(k - i) % s for i in range(s)]
    partner = _partner_product(fh, [(l - j) % t for j in range(t)], t)
    edges = tuple((divmod(x, t), divmod(y, t)) for x, y in enumerate(partner) if x < y)
    pf = ProductFactor(s=s, t=t, k=k, l=l, edges=edges, isolated=iso)
    vars(pf)["_mate"] = partner
    return pf


def _product_mates(a: Factorization, b: Factorization) -> Iterator[tuple[list[int], int]]:
    """product_factorization's factors, in order, as (partner array, isolated vertex)."""
    # The partner arrays F-hat and G-hat: each isolated vertex maps to itself.
    hats = [
        [[v if w is None else w for v, w in enumerate(f.partners)] for f in fz.factors]
        for fz in (a, b)
    ]
    t = b.n
    for f, fh in zip(a.factors, hats[0]):
        for g, gh in zip(b.factors, hats[1]):
            yield _partner_product(fh, gh, t), f.isolated * t + g.isolated


def product_factorization(a: Factorization, b: Factorization) -> Factorization:
    """The product of valid odd-order factorizations A of K_s and B of K_t.

    Factor (F, G) joins (i, j) with (F(i), G(j)), where F(i) = i at F's
    isolated vertex, on the vertices i * t + j of K_{s*t}; factors come A
    outer, B inner.  An invalid input raises ValueError naming its first problem.
    """
    for name, fz in (("A", a), ("B", b)):
        problems = [f"even order {fz.n}"] if fz.n % 2 == 0 else factorization_problems(fz)
        if problems:
            raise ValueError(f"factorization {name}: {problems[0]}")
    n, mates = a.n * b.n, _product_mates(a, b)
    return Factorization(n=n, factors=tuple(Factor._prebuilt(n, m, c) for m, c in mates))


def flatten_product_factor(pf: ProductFactor) -> Factor:
    """Positional flattening of a product factor to a Factor on K_{s*t}."""
    return pf.flattened()


def is_perfect_product_pair(
    s: int, t: int, kl: tuple[int, int], kl2: tuple[int, int]
) -> bool:
    """Two-gcd criterion: both index differences coprime to their modulus."""
    s, t = _check_orders(s, t)
    (k, l), (k2, l2) = (
        (_integer(i, "first index") % s, _integer(j, "second index") % t)
        for i, j in (kl, kl2)
    )
    if (k, l) == (k2, l2):
        raise ValueError("product factor index pairs must be distinct")
    return gcd(k - k2, s) == 1 and gcd(l - l2, t) == 1


def product_bound(s: int, t: int, c_s: int, c_t: int) -> int:
    """Perfect pairs guaranteed on K_{s*t} by combining counts: 2 * c_s * c_t.

    s and t are the constituent orders the counts refer to (odd, >= 3); the
    bound itself depends only on the two counts.
    """
    _check_orders(s, t)
    c_s = _integer(c_s, "c_s")
    c_t = _integer(c_t, "c_t")
    if c_s < 0 or c_t < 0:
        raise ValueError("perfect-pair counts cannot be negative")
    return 2 * c_s * c_t


def predicted_perfect_product_pairs(s: int, t: int) -> int:
    """Unordered product-factor pairs passing the two-gcd criterion.

    The criterion depends only on the index difference (dk, dl), and each of
    the s*t - 1 nonzero differences is shared by s*t ordered pairs.  s and t
    are checked once; each difference d = dk * t + dl is then tested with
    math.gcd on its two ints.
    """
    s, t = _check_orders(s, t)
    passing = sum(gcd(d // t, s) == 1 == gcd(d % t, t) for d in range(1, s * t))
    return s * t * passing // 2


def count_perfect_product_pairs(s: int, t: int) -> int:
    """Unordered perfect pairs in the full product family, by traversal.

    The alternating walk counts the product of the two modular families on
    the partner arrays product_factorization builds it from, made hop tables
    (pairing._hops) in place; both families are valid, so neither is checked
    and no product Factor is built.
    For coprime s and t the two-gcd criterion decides the same pairs, and a
    mismatch raises RuntimeError.  For non-coprime s and t it is NOT
    equivalent to the walk (which covers only lcm-many of the s*t vertices),
    so no cross-check is applied there; compare with
    predicted_perfect_product_pairs to observe the divergence.
    """
    s, t = _check_orders(s, t)
    n, a, b = s * t, build_modular_factorization(s), build_modular_factorization(t)
    tables, starts = map(list, zip(*_product_mates(a, b)))
    for hops, c in zip(tables, starts):
        hops[c] = n
        hops.append(n)
    walked = sum(_table_verdicts(tables, starts, n))
    if gcd(s, t) == 1:
        predicted = predicted_perfect_product_pairs(s, t)
        if walked != predicted:
            raise RuntimeError(
                f"traversal found {walked} perfect pairs for ({s}, {t}) "
                f"but the two-gcd criterion predicts {predicted}"
            )
    return walked
