"""Prime generation.

Every table is sieved for the call that asks for it and returned read-only;
nothing is kept between calls, so no table outlives its last reader and the
functions are safe to call from any thread.
"""

from __future__ import annotations

import math

import numpy as np

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
    primes = np.flatnonzero(mask).astype(np.int64, copy=False)
    primes.setflags(write=False)
    return primes


def _nth_prime_bound(n: int) -> int:
    """An upper bound for the n-th prime: Rosser's p_n < n (ln n + ln ln n)
    for n >= 6, and 13 below, so one sieve to it holds the first n primes."""
    if n < 6:
        return 13
    x = float(n)
    return int(x * (math.log(x) + math.log(math.log(x)))) + 1


def first_primes(n: int) -> np.ndarray:
    """Array of the first n primes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sieve_primes(_nth_prime_bound(n))[:n]


def primes_up_to(limit: int) -> np.ndarray:
    """Array of all primes <= limit, empty below 2."""
    if limit < 2:
        primes = np.zeros(0, dtype=np.int64)
        primes.setflags(write=False)
        return primes
    return sieve_primes(limit)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first 13 primes as bases, which
    is exact below psi_13 = 3317044064679887385961981 (Sorenson and
    Webster, Math. Comp. 2017).  Raises ValueError at or above psi_13."""
    if n >= 3317044064679887385961981:
        raise ValueError(f"is_prime is exact only below 3317044064679887385961981, got {n}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):  # a strong probable prime has x = -1 at some a^(2^r d), r < s
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True
