"""Product factors on pair vertices (i, j) of K_s x K_t, flattened to K_{st}.

The product factor indexed by (k, l) joins (i, j) with ((k - i) % s,
(l - j) % t); equivalently its edges are all pairs of distinct vertices
whose first coordinates sum to k mod s and second coordinates sum to l
mod t.  Exactly one vertex is its own partner and stays isolated, so each
factor is a near-one-factor of the complete graph on the s*t pair vertices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations

from .factors import Factor, Factorization
from .numtheory import gcd, half_mod
from .pairing import count_perfect_pairs

PairVertex = tuple[int, int]


@dataclass(frozen=True)
class ProductFactor:
    """A near-one-factor of the complete graph on the s*t pair vertices."""

    s: int
    t: int
    k: int
    l: int
    edges: tuple[tuple[PairVertex, PairVertex], ...]
    isolated: PairVertex

    def flatten_vertex(self, pv: PairVertex) -> int:
        """Positional encoding of a pair vertex: (i, j) -> i * t + j."""
        return pv[0] * self.t + pv[1]

    def flattened(self) -> Factor:
        """The same factor on K_{s*t} under the positional vertex encoding."""
        edges = []
        for a, b in self.edges:
            fa, fb = self.flatten_vertex(a), self.flatten_vertex(b)
            edges.append((fa, fb) if fa < fb else (fb, fa))
        return Factor(
            n=self.s * self.t,
            edges=tuple(edges),
            isolated=self.flatten_vertex(self.isolated),
            index=None,
        )

    def to_dict(self) -> dict:
        data = self.flattened().to_dict()
        data.update(
            {
                "s": self.s,
                "t": self.t,
                "k": self.k,
                "l": self.l,
                "vertex_encoding": "positional",
            }
        )
        return data


def _check_orders(s: int, t: int) -> tuple[int, int]:
    s = operator.index(s)
    t = operator.index(t)
    for name, value in (("s", s), ("t", t)):
        if value < 3 or value % 2 == 0:
            raise ValueError(f"constituent order {name} must be odd and >= 3, got {value}")
    return s, t


def build_product_factor(s: int, t: int, k: int, l: int) -> ProductFactor:
    """Product factor (k, l) on the s*t pair vertices; O(s*t) construction.

    s and t must be odd (coprimality is not required).  The isolated vertex
    is (half of k mod s, half of l mod t).
    """
    s, t = _check_orders(s, t)
    k = operator.index(k)
    l = operator.index(l)
    if not 0 <= k < s:
        raise ValueError(f"first index {k} not in [0, {s})")
    if not 0 <= l < t:
        raise ValueError(f"second index {l} not in [0, {t})")
    iso = (half_mod(k, s).value, half_mod(l, t).value)
    edges = []
    for i in range(s):
        ip = (k - i) % s
        for j in range(t):
            a = (i, j)
            b = (ip, (l - j) % t)
            if a < b:
                edges.append((a, b))
    return ProductFactor(s=s, t=t, k=k, l=l, edges=tuple(edges), isolated=iso)


def flatten_product_factor(pf: ProductFactor) -> Factor:
    """Positional flattening of a product factor to a Factor on K_{s*t}."""
    return pf.flattened()


def is_perfect_product_pair(
    s: int, t: int, kl: tuple[int, int], kl2: tuple[int, int]
) -> bool:
    """Two-gcd criterion: both index differences coprime to their modulus."""
    s, t = _check_orders(s, t)
    k, l = (operator.index(kl[0]) % s, operator.index(kl[1]) % t)
    k2, l2 = (operator.index(kl2[0]) % s, operator.index(kl2[1]) % t)
    if (k, l) == (k2, l2):
        raise ValueError("product factor index pairs must be distinct")
    return gcd((k - k2) % s, s) == 1 and gcd((l - l2) % t, t) == 1


def product_bound(s: int, t: int, c_s: int, c_t: int) -> int:
    """Perfect pairs guaranteed on K_{s*t} by combining counts: 2 * c_s * c_t.

    s and t label the constituent orders the counts refer to; the bound
    itself depends only on the two counts.
    """
    c_s = operator.index(c_s)
    c_t = operator.index(c_t)
    if c_s < 0 or c_t < 0:
        raise ValueError("perfect-pair counts cannot be negative")
    return 2 * c_s * c_t


def predicted_perfect_product_pairs(s: int, t: int) -> int:
    """Unordered product-factor pairs passing the two-gcd criterion."""
    s, t = _check_orders(s, t)
    indices = [(k, l) for k in range(s) for l in range(t)]
    return sum(
        1 for a, b in combinations(indices, 2) if is_perfect_product_pair(s, t, a, b)
    )


def count_perfect_product_pairs(s: int, t: int) -> int:
    """Unordered perfect pairs in the full product family, by traversal.

    Every product factor is flattened to K_{s*t} and pairs are classified by
    the alternating walk.  For coprime s and t the two-gcd criterion decides
    exactly the same pairs, and a mismatch raises RuntimeError.  For
    non-coprime s and t the criterion is NOT equivalent to the walk (the walk
    covers only lcm-many vertices and never all s*t of them), so no
    cross-check is applied there; compare with
    predicted_perfect_product_pairs to observe the divergence.
    """
    s, t = _check_orders(s, t)
    flat = tuple(
        build_product_factor(s, t, k, l).flattened() for k in range(s) for l in range(t)
    )
    walked = count_perfect_pairs(Factorization(n=s * t, factors=flat))
    if gcd(s, t) == 1:
        predicted = predicted_perfect_product_pairs(s, t)
        if walked != predicted:
            raise RuntimeError(
                f"traversal found {walked} perfect pairs for ({s}, {t}) "
                f"but the two-gcd criterion predicts {predicted}"
            )
    return walked
