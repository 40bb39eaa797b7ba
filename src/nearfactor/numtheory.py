"""Exact modular arithmetic helpers: gcd, totient, inverses, halving, CRT."""

from __future__ import annotations

import math
import operator

from ._record import Record

__all__ = [
    "Residue",
    "crt_combine",
    "gcd",
    "half_mod",
    "mod_inverse",
    "totient",
]


def _integer(value, name: str) -> int:
    """The library's one integer check: operator.index, refusing booleans."""
    if value.__class__ is bool:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


class Residue(Record):
    """An integer stored normalized into [0, modulus)."""

    value: int
    modulus: int

    def __init__(self, value: int, modulus: int) -> None:
        value = _integer(value, "value")
        modulus = _integer(modulus, "modulus")
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if not 0 <= value < modulus:
            raise ValueError(f"residue value {value} not in [0, {modulus})")
        vars(self).update(value=value, modulus=modulus)

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of |a| and |b|, with gcd(0, 0) = 0."""
    return math.gcd(_integer(a, "a"), _integer(b, "b"))


def totient(n: int) -> int:
    """Count of integers in [1, n] coprime to n, via trial-division factoring."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"totient requires n >= 1, got {n}")
    result = n
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            result -= result // p
            while remaining % p == 0:
                remaining //= p
        p += 1
    if remaining > 1:
        result -= result // remaining
    return result


def mod_inverse(r: int, n: int) -> Residue:
    """The x in [0, n) with (r * x) % n == 1.

    Raises ValueError ("no inverse") when gcd(r, n) != 1.
    """
    n = _integer(n, "n")
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    r = _integer(r, "r")
    try:
        x = pow(r, -1, n)
    except ValueError:
        raise ValueError(f"no inverse: gcd({r}, {n}) = {math.gcd(r, n)} != 1") from None
    return Residue(x, n)


def half_mod(k: int, n: int) -> Residue:
    """Half of k modulo odd n: the unique x in [0, n) with (2 * x) % n == k % n."""
    n = _integer(n, "n")
    if n < 3 or n % 2 == 0:
        raise ValueError(f"half_mod requires odd n >= 3, got {n}")
    return Residue(_integer(k, "k") * ((n + 1) // 2) % n, n)


def _check_coprime(s: int, t: int) -> tuple[int, int]:
    s = _integer(s, "s")
    t = _integer(t, "t")
    if s < 1 or t < 1:
        raise ValueError(f"moduli must be >= 1, got ({s}, {t})")
    g = gcd(s, t)
    if g != 1:
        raise ValueError(f"moduli not coprime: gcd({s}, {t}) = {g}")
    return s, t


def crt_combine(k: int, l: int, s: int, t: int) -> Residue:
    """The unique p in [0, s*t) with p % s == k % s and p % t == l % t.

    The moduli s and t must be coprime; otherwise ValueError
    ("moduli not coprime") is raised.
    """
    s, t = _check_coprime(s, t)
    k = _integer(k, "k") % s
    l = _integer(l, "l") % t
    p = (k * t * pow(t, -1, s) + l * s * pow(s, -1, t)) % (s * t)
    return Residue(p, s * t)
