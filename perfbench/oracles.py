"""Reference values the benchmark checks the program against.

Nothing here imports legsums: every value is either a printed figure from
the paper or a computation written independently of the package (plain
Python integers and math.fsum, or mpmath at 30 digits).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath

#: The paper's printed density table: primes among the first N with
#: L(alpha, p) >= 0.  The floats are the literals scripts/density_table.py uses.
INV_2PI = 0.15915494309189535
INV_E = 0.36787944117144233
PRINTED_NONNEG = {
    (Fraction(2, 5), 1000): 896,
    (Fraction(2, 5), 10000): 8915,
    (Fraction(3, 8), 1000): 917,
    (Fraction(3, 8), 10000): 9122,
    (Fraction(1, 12), 1000): 884,
    (Fraction(1, 12), 10000): 8799,
    (INV_2PI, 1000): 812,
    (INV_2PI, 10000): 8019,
    (INV_E, 1000): 937,
    (INV_E, 10000): 9340,
}


def smallest_prime_factors(n: int) -> list[int]:
    """spf[m] for 0 <= m <= n (spf[0] = spf[1] = 0), by a plain sieve."""
    spf = [0] * (n + 1)
    for p in range(2, n + 1):
        if spf[p] == 0:
            for m in range(p, n + 1, p):
                if spf[m] == 0:
                    spf[m] = p
    return spf


def odd_exponent_primes(m: int, spf: list[int]) -> list[int]:
    """The primes dividing m to an odd power."""
    out = []
    while m > 1:
        p, e = spf[m], 0
        while m % p == 0:
            m //= p
            e += 1
        if e % 2:
            out.append(p)
    return out


def squarefree_cores(n: int) -> list[int]:
    """core[m] = product of the primes dividing m to an odd power."""
    spf = smallest_prime_factors(n)
    return [0] + [math.prod(odd_exponent_primes(m, spf)) for m in range(1, n + 1)]


def coefficient(alpha: Fraction, parity: str, n: int) -> float:
    """sin(2 pi n alpha) ('plus') or 1 - cos(2 pi n alpha) ('minus'), with the
    angle reduced modulo 1 in exact arithmetic first."""
    theta = 2 * math.pi * float((n * alpha) % 1)
    if parity == "plus":
        return 0.0 if (2 * n * alpha).denominator == 1 else math.sin(theta)
    return 0.0 if (n * alpha).denominator == 1 else 1 - math.cos(theta)


def coefficients(alpha: Fraction, parity: str, N: int) -> list[float]:
    return [coefficient(alpha, parity, n) for n in range(1, N + 1)]


def multiplicative_extension(prime_signs: dict[int, int], N: int, spf: list[int]) -> list[int]:
    """X_1..X_N from the prime signs, completely multiplicatively."""
    x = [0, 1] + [0] * (N - 1)
    for n in range(2, N + 1):
        p = spf[n]
        x[n] = prime_signs[p] * x[n // p]
    return x[1:]


def series_value(coeffs: list[float], x: list[int]) -> float:
    """sum a_n X_n / n, correctly rounded by math.fsum."""
    return math.fsum(a * s / n for n, (a, s) in enumerate(zip(coeffs, x), start=1) if a)


def second_moment(coeffs: list[float]) -> float:
    """E[(sum a_m X_m / m)^2] = sum over kernels d of (sum_{core(m)=d} a_m/m)^2."""
    cores = squarefree_cores(len(coeffs))
    groups: dict[int, list[float]] = {}
    for m, a in enumerate(coeffs, start=1):
        if a:
            groups.setdefault(cores[m], []).append(a / m)
    return math.fsum(math.fsum(g) ** 2 for g in groups.values())


def exhaustive_moments(coeffs: list[float], kmax: int) -> list[float]:
    """E[S^k] for k = 1..kmax, averaged over every sign vector on the primes
    up to N = len(coeffs)."""
    N = len(coeffs)
    spf = smallest_prime_factors(N)
    primes = [p for p in range(2, N + 1) if spf[p] == p]
    values = []
    for signs in itertools.product((1, -1), repeat=len(primes)):
        x = multiplicative_extension(dict(zip(primes, signs)), N, spf)
        values.append(series_value(coeffs, x))
    return [math.fsum(v**k for v in values) / len(values) for k in range(1, kmax + 1)]


def zeta_ratio_scaled() -> float:
    """zeta(4/3)^3 / zeta(8/3) * 2^(4/3) at 30 digits."""
    with mpmath.workdps(30):
        third = mpmath.mpf(1) / 3
        return float(mpmath.zeta(4 * third) ** 3 / mpmath.zeta(8 * third) * 2 ** (4 * third))


def _min_negativity(D, sigma2):
    """min over u in (0, 1) of exp(-ln^2 u / (8 sigma2)) + D/u.

    In x = ln u the derivative is negative far left and at x = 0 and positive
    in between; the minimum is the first sign change from - to +, refined by
    bisection.  The endpoint x -> 0 gives 1 + D, never smaller here.
    """
    def f(x):
        return mpmath.exp(-x * x / (8 * sigma2)) + D * mpmath.exp(-x)

    def df(x):
        return -x / (4 * sigma2) * mpmath.exp(-x * x / (8 * sigma2)) - D * mpmath.exp(-x)

    grid = [mpmath.mpf(-k) / 50 for k in range(1500, 0, -1)]
    for a, b in zip(grid, grid[1:]):
        if df(a) < 0 < df(b):
            break
    else:
        return min(mpmath.mpf(1) + D, min(f(x) for x in grid))
    for _ in range(110):
        mid = (a + b) / 2
        if df(mid) < 0:
            a = mid
        else:
            b = mid
    return min(f((a + b) / 2), mpmath.mpf(1) + D)


def c_lower_recomputed(delta: float) -> float:
    """1 - (P_minus + P_plus)/2 at |alpha - 1/3| = delta with the prefactors
    3/pi^2 * 313.3 and 9/pi^2 * 313.3, sigma^2 = 0.395, at 30 digits."""
    with mpmath.workdps(30):
        sigma2 = mpmath.mpf("0.395")
        d23 = mpmath.mpf(delta) ** (mpmath.mpf(2) / 3)
        k = mpmath.mpf("313.3") / mpmath.pi**2
        p_minus = min(_min_negativity(3 * k * d23, sigma2), 1)
        p_plus = min(_min_negativity(9 * k * d23, sigma2), 1)
        return float(1 - (p_minus + p_plus) / 2)
