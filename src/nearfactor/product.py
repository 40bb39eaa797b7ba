"""Product factors on pair vertices (i, j) of K_s x K_t, flattened to K_{st}.

The product factor indexed by (k, l) joins (i, j) with ((k - i) % s,
(l - j) % t); equivalently its edges are all pairs of distinct vertices
whose first coordinates sum to k mod s and second coordinates sum to l
mod t.  Exactly one vertex is its own partner and stays isolated, so each
factor is a near-one-factor of the complete graph on the s*t pair vertices.
product_factorization builds the product of any two odd-order factorizations
from their partner arrays; for two modular families it gives these factors.
"""

from __future__ import annotations

import operator

from ._record import Record
from .factors import (
    Factor,
    Factorization,
    build_modular_factorization,
    factorization_problems,
)
from .numtheory import gcd, half_mod
from .pairing import count_perfect_pairs

PairVertex = tuple[int, int]


class ProductFactor(Record):
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
        flat = self.flatten_vertex
        return Factor(
            n=self.s * self.t,
            edges=tuple((flat(a), flat(b)) for a, b in self.edges),
            isolated=flat(self.isolated),
            index=None,
        )


def _check_orders(s: int, t: int) -> tuple[int, int]:
    s = operator.index(s)
    t = operator.index(t)
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
    k = operator.index(k)
    l = operator.index(l)
    if not 0 <= k < s:
        raise ValueError(f"first index {k} not in [0, {s})")
    if not 0 <= l < t:
        raise ValueError(f"second index {l} not in [0, {t})")
    iso = (half_mod(k, s).value, half_mod(l, t).value)
    fh = [(k - i) % s for i in range(s)]
    partner = _partner_product(fh, [(l - j) % t for j in range(t)], t)
    edges = tuple((divmod(x, t), divmod(y, t)) for x, y in enumerate(partner) if x < y)
    return ProductFactor(s=s, t=t, k=k, l=l, edges=edges, isolated=iso)


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
    # The partner arrays F-hat and G-hat: each isolated vertex maps to itself.
    hats = [
        [[v if w is None else w for v, w in enumerate(f.partners)] for f in fz.factors]
        for fz in (a, b)
    ]
    t = b.n
    factors = []
    for f, fh in zip(a.factors, hats[0]):
        for g, gh in zip(b.factors, hats[1]):
            mate = _partner_product(fh, gh, t)
            factors.append(Factor._prebuilt(a.n * t, mate, f.isolated * t + g.isolated))
    return Factorization(n=a.n * t, factors=tuple(factors))


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

    s and t are the constituent orders the counts refer to (odd, >= 3); the
    bound itself depends only on the two counts.
    """
    _check_orders(s, t)
    c_s = operator.index(c_s)
    c_t = operator.index(c_t)
    if c_s < 0 or c_t < 0:
        raise ValueError("perfect-pair counts cannot be negative")
    return 2 * c_s * c_t


def predicted_perfect_product_pairs(s: int, t: int) -> int:
    """Unordered product-factor pairs passing the two-gcd criterion.

    The criterion depends only on the index difference (dk, dl), and each of
    the s*t - 1 nonzero differences is shared by s*t ordered pairs.
    """
    s, t = _check_orders(s, t)
    differences = (divmod(d, t) for d in range(1, s * t))
    passing = sum(is_perfect_product_pair(s, t, dkl, (0, 0)) for dkl in differences)
    return s * t * passing // 2


def count_perfect_product_pairs(s: int, t: int) -> int:
    """Unordered perfect pairs in the full product family, by traversal.

    The product of the two modular families (product_factorization) is
    counted by the alternating walk.  For coprime s and t the two-gcd
    criterion decides exactly the same pairs, and a mismatch raises
    RuntimeError.  For non-coprime s and t the criterion is NOT equivalent
    to the walk (the walk covers only lcm-many vertices and never all s*t of
    them), so no cross-check is applied there; compare with
    predicted_perfect_product_pairs to observe the divergence.
    """
    s, t = _check_orders(s, t)
    a, b = build_modular_factorization(s), build_modular_factorization(t)
    walked = count_perfect_pairs(product_factorization(a, b))
    if gcd(s, t) == 1:
        predicted = predicted_perfect_product_pairs(s, t)
        if walked != predicted:
            raise RuntimeError(
                f"traversal found {walked} perfect pairs for ({s}, {t}) "
                f"but the two-gcd criterion predicts {predicted}"
            )
    return walked
