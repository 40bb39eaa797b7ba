"""Correspondence between modular factors of K_{st} and product factors.

For coprime odd s and t, reducing a vertex of K_{st} modulo s and modulo t
identifies the modular factor with index p with the product factor indexed
by (p % s, p % t): same edges, same isolated vertex.  Consequently the two
lower bounds on the number of perfect pairs coincide:
n * phi(n) / 2 == 2 * (s * phi(s) / 2) * (t * phi(t) / 2) for n = s * t.
"""

from __future__ import annotations

import operator

from ._record import Record
from .factors import build_modular_factor
from .numtheory import _check_coprime, totient
from .product import _check_orders, build_product_factor, product_bound


class EquivalenceReport(Record):
    """Outcome of the full factor-by-factor comparison for one (s, t)."""

    s: int
    t: int
    n: int
    index_map: tuple[tuple[int, int, int], ...]
    all_edge_sets_equal: bool
    direct_bound: int
    product_bound: int
    bounds_equal: bool
    failures: tuple[int, ...]


def crt_vertex_map(v: int, s: int, t: int) -> tuple[int, int]:
    """Vertex of K_{st} -> pair vertex: v -> (v % s, v % t); a bijection."""
    s, t = _check_coprime(s, t)
    v = operator.index(v)
    if not 0 <= v < s * t:
        raise ValueError(f"vertex {v} not in [0, {s * t})")
    return (v % s, v % t)


def map_factor_index(p: int, s: int, t: int) -> tuple[int, int]:
    """Modular factor index of K_{st} -> product factor index pair."""
    s, t = _check_coprime(s, t)
    p = operator.index(p) % (s * t)
    return (p % s, p % t)


def _same_factor(p: int, s: int, t: int) -> bool:
    """verify_factor_equality for coprime ints s, t and p in [0, s*t)."""
    direct = build_modular_factor(s * t, p)
    prod = build_product_factor(s, t, p % s, p % t)
    mapped = set()
    for u, v in direct.edges:
        a = (u % s, u % t)
        b = (v % s, v % t)
        mapped.add((a, b) if a < b else (b, a))
    iso = direct.isolated
    return mapped == set(prod.edges) and (iso % s, iso % t) == prod.isolated


def verify_factor_equality(p: int, s: int, t: int) -> bool:
    """Check that modular factor p of K_{st} equals product factor (p%s, p%t).

    Edge sets must match under the vertex map v -> (v % s, v % t) and the
    isolated vertices must correspond.
    """
    s, t = _check_coprime(s, t)
    return _same_factor(operator.index(p) % (s * t), s, t)


def build_equivalence_report(s: int, t: int) -> EquivalenceReport:
    """Compare every factor index p of K_{st} and both lower bounds.

    s and t must be coprime, odd, and >= 3.  The report is produced even
    when some comparison fails; failing p values are listed in `failures`.
    """
    s, t = _check_orders(*_check_coprime(s, t))
    n = s * t
    failures = tuple(p for p in range(n) if not _same_factor(p, s, t))
    direct_bound = n * totient(n) // 2
    prod_bound = product_bound(s, t, s * totient(s) // 2, t * totient(t) // 2)
    return EquivalenceReport(
        s=s,
        t=t,
        n=n,
        index_map=tuple((p, p % s, p % t) for p in range(n)),
        all_edge_sets_equal=not failures,
        direct_bound=direct_bound,
        product_bound=prod_bound,
        bounds_equal=direct_bound == prod_bound,
        failures=failures,
    )
