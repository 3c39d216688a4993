"""Reference computations the tests compare the package against."""

import numpy as np

from legsums.randmodel import prime_sign_matrix


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
