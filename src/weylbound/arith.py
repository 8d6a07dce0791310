"""Elementary number-theoretic utilities shared across the toolkit.

Everything here is exact integer arithmetic except the root-of-unity
tables, which materialize e(j/c) once per modulus so that exponential
sums never re-reduce large arguments through floating point.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def inv_mod(a: int, c: int) -> int | None:
    """Inverse of a modulo c >= 1, or None when gcd(a, c) > 1.

    Nonexistence is signalled, not raised: callers' preconditions are
    exactly statements about which inverses exist.
    """
    try:
        return pow(a, -1, c)
    except ValueError:
        return None


def require_inv(a: int, c: int) -> int:
    """Inverse of a mod c; raises ValueError when it does not exist."""
    v = inv_mod(a, c)
    if v is None:
        raise ValueError(f"{a} is not invertible modulo {c}")
    return v


def complex_abs(z):
    """|z| for a complex number or array; an array's moduli come from
    hypot, which rounds as Python's abs(complex) does (np.abs can differ
    by an ulp)."""
    return abs(z) if isinstance(z, complex) else np.hypot(z.real, z.imag)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] by trial division (n <= ~10^12)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes, inclusive."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, v in enumerate(sieve) if v]


def divisor_counts(n: int) -> np.ndarray:
    """d(1..n) as an int array (index 0 unused): one count of every
    multiple j k <= n of every k <= n."""
    ks = np.arange(1, n + 1)
    counts = n // ks
    k = np.repeat(ks, counts)
    # j runs 1..n // k within each k's run
    j = np.arange(1, len(k) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.bincount(k * j, minlength=n + 1)


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo the odd prime q."""
    phi = q - 1
    prime_factors = [p for p, _ in factorize(phi)]
    for g in range(2, q):
        if all(pow(g, phi // p, q) != 1 for p in prime_factors):
            return g
    raise ValueError(f"no primitive root modulo {q}")


@lru_cache(maxsize=4096)
def unit_roots(c: int) -> np.ndarray:
    """Table of the c-th roots of unity: roots[j] = e(j/c).

    Cached read-only; exponents are reduced mod c by the caller so the
    argument passed to exp never exceeds 2*pi.
    """
    j = np.arange(c)
    w = np.exp(2j * np.pi * j / c)
    w.setflags(write=False)
    return w
