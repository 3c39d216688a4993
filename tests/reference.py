"""Reference computations the tests compare the package against."""

import math
from fractions import Fraction

import numpy as np

from legsums.primes import jacobi, primes_up_to
from legsums.randmodel import _euler_sum, decompose_rational, prime_sign_matrix


def prime_sign(seed: int, p: int) -> int:
    """X_p of the sample with the given seed: its cell of the sign block."""
    return int(prime_sign_matrix(np.array([seed]), np.array([p]))[0, 0])


def x_of(n: int, sign_of) -> int:
    """X_n by trial division: the product of sign_of(p) over the primes p
    that divide n to an odd power."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sign, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            sign *= sign_of(p)
        p += 1
    return sign * sign_of(n) if n > 1 else sign


def kronecker_chi(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for a != 0, defined for every integer n.

    For a not congruent to 3 (mod 4) it is periodic in n with period
    dividing 4|a|, and it is the principal character of that period exactly
    when a is a perfect square.
    """
    if a == 0:
        raise ValueError("kronecker_chi requires a != 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n == 0:
        return 1 if a in (1, -1) else 0
    # strip factors of 2 from n; (a/2) = 0, +1, -1 by a mod 8
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # now n odd and positive
    if a < 0 and n % 4 == 3:
        result = -result
    return result * jacobi(abs(a), n)


def legendre_values(p: int) -> np.ndarray:
    """(n/p) for 0 <= n < p by the Jacobi symbol."""
    return np.array([jacobi(n, p) for n in range(p)])


def gauss_sum(p: int) -> complex:
    """The quadratic Gauss sum: (n/p) e^{2 pi i n/p} summed over n mod p."""
    n = np.arange(p)
    return complex(np.sum(legendre_values(p) * np.exp(2j * math.pi * n / p)))


def log_euler_identity(signs: np.ndarray, P: int) -> tuple[float, float, float, float]:
    """At truncation P, both alpha = 1/3 Euler products against a
    deterministic normalizer times exp of a weighted sign sum: the relative
    errors (minus, plus) and the normalizers (minus, plus).

    signs holds X_p for the primes p <= P, in order.  The products are the
    Euler engine's values of the 1/3 decompositions.

    Per prime: (1 - eps/p)^(-1) = ((p+1)/(p-1))^(eps/2) * (1 - 1/p^2)^(-1/2)
    for eps = ±1, so the exponent weight is +(1/2) ln((p+1)/(p-1)) X_p.
    (With the weight written as (1/2) ln((p-1)/(p+1)) X_p the sign is wrong
    and the identity fails; see Findings in README.md.)

    The minus-parity series uses eps = X_p and normalizer -> pi/sqrt(3);
    the plus-parity series uses eps = (p|3) X_p and normalizer -> pi/3.
    """
    primes = primes_up_to(P)
    signs = np.asarray(signs)
    products = [
        float(_euler_sum(decompose_rational(Fraction(1, 3), parity).terms, signs[None, :], primes, P)[0].real)
        for parity in ("minus", "plus")
    ]
    keep = primes != 3
    x = signs[keep].astype(np.float64)
    leg3 = np.where(primes[keep] % 3 == 1, 1.0, -1.0)
    p = primes[keep].astype(np.float64)
    half_log = 0.5 * np.log((p + 1) / (p - 1))
    norm = float(np.prod(1.0 / np.sqrt(1.0 - 1.0 / p**2)))
    norm_minus, norm_plus = 1.5 * norm, (math.sqrt(3) / 2) * norm
    exponentials = (norm_minus * math.exp(np.dot(half_log, x)),
                    norm_plus * math.exp(np.dot(half_log, leg3 * x)))
    err_minus, err_plus = (abs(prod - e) / abs(e) for prod, e in zip(products, exponentials))
    return err_minus, err_plus, norm_minus, norm_plus
