"""Prime generation.

Everything here is pure and immutable after construction, so it is safe to
share between threads without locking (the lazily grown module-level sieve
cache is guarded internally).
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "sieve_primes",
    "first_primes",
    "primes_up_to",
    "is_prime",
]


def sieve_primes(limit: int) -> np.ndarray:
    """All primes up to and including ``limit``, read-only, by plain
    Eratosthenes.

    Raises ValueError for limit < 2 (the table would be empty).
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    primes = np.nonzero(mask)[0].astype(np.int64)
    primes.setflags(write=False)
    return primes


# Shared (limit, primes), empty at import: the first lookup sieves what it
# asks for, and a lookup past the table sieves again, wider.
_cache_lock = threading.Lock()
_cached = (1, np.zeros(0, dtype=np.int64))


def _grown_to(limit: int) -> tuple[int, np.ndarray]:
    global _cached
    with _cache_lock:
        if _cached[0] < limit:
            _cached = (limit, sieve_primes(limit))
        return _cached


def _nth_prime_bound(n: int) -> int:
    """Upper bound for the n-th prime (Rosser-type, valid for n >= 6)."""
    if n < 6:
        return 13
    x = float(n)
    return int(x * (math.log(x) + math.log(math.log(x)))) + 1


def first_primes(n: int) -> np.ndarray:
    """Array of the first n primes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    limit, primes = _grown_to(_nth_prime_bound(n))
    while len(primes) < n:
        limit, primes = _grown_to(limit * 2)
    return primes[:n]


def primes_up_to(limit: int) -> np.ndarray:
    """Array of all primes <= limit."""
    primes = _grown_to(max(limit, 2))[1]
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True
