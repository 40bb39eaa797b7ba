"""Correspondence between modular factors of K_{st} and product factors.

For coprime odd s and t, reducing a vertex of K_{st} modulo s and modulo t
identifies the modular factor with index p with the product factor indexed
by (p % s, p % t): same edges, same isolated vertex.  Consequently the two
lower bounds on the number of perfect pairs coincide:
n * phi(n) / 2 == 2 * (s * phi(s) / 2) * (t * phi(t) / 2) for n = s * t.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .factors import build_modular_factor
from .numtheory import gcd, totient
from .product import _check_orders, build_product_factor, product_bound


@dataclass(frozen=True)
class EquivalenceReport:
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

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "t": self.t,
            "n": self.n,
            "index_map": [[p, k, l] for p, k, l in self.index_map],
            "all_edge_sets_equal": self.all_edge_sets_equal,
            "direct_bound": self.direct_bound,
            "product_bound": self.product_bound,
            "bounds_equal": self.bounds_equal,
            "failures": list(self.failures),
        }


def _check_coprime(s: int, t: int) -> tuple[int, int]:
    s = operator.index(s)
    t = operator.index(t)
    if s < 1 or t < 1:
        raise ValueError(f"moduli must be >= 1, got ({s}, {t})")
    g = gcd(s, t)
    if g != 1:
        raise ValueError(f"moduli not coprime: gcd({s}, {t}) = {g}")
    return s, t


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


def verify_factor_equality(p: int, s: int, t: int) -> bool:
    """Check that modular factor p of K_{st} equals product factor (p%s, p%t).

    Edge sets must match under the vertex map v -> (v % s, v % t) and the
    isolated vertices must correspond.
    """
    s, t = _check_coprime(s, t)
    n = s * t
    p = operator.index(p) % n
    direct = build_modular_factor(n, p)
    prod = build_product_factor(s, t, p % s, p % t)
    mapped = set()
    for u, v in direct.edges:
        a = (u % s, u % t)
        b = (v % s, v % t)
        mapped.add((a, b) if a < b else (b, a))
    if mapped != set(prod.edges):
        return False
    return crt_vertex_map(direct.isolated, s, t) == prod.isolated


def build_equivalence_report(s: int, t: int) -> EquivalenceReport:
    """Compare every factor index p of K_{st} and both lower bounds.

    s and t must be coprime, odd, and >= 3.  The report is produced even
    when some comparison fails; failing p values are listed in `failures`.
    """
    s, t = _check_orders(*_check_coprime(s, t))
    n = s * t
    index_map = []
    failures = []
    for p in range(n):
        k, l = map_factor_index(p, s, t)
        index_map.append((p, k, l))
        if not verify_factor_equality(p, s, t):
            failures.append(p)
    direct_bound = n * totient(n) // 2
    prod_bound = product_bound(s, t, s * totient(s) // 2, t * totient(t) // 2)
    return EquivalenceReport(
        s=s,
        t=t,
        n=n,
        index_map=tuple(index_map),
        all_edge_sets_equal=not failures,
        direct_bound=direct_bound,
        product_bound=prod_bound,
        bounds_equal=direct_bound == prod_bound,
        failures=tuple(failures),
    )
