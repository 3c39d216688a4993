import math
from fractions import Fraction

import numpy as np
import pytest

from legsums.charsum import legendre_sum
from legsums.randmodel import fourier_partial
from legsums.primes import primes_up_to
from reference import fourier_direct, gauss_sum, legendre_values

ODD_PRIMES_499 = [p for p in primes_up_to(499).tolist() if p > 2]


def test_gauss_sums_match_closed_form():
    for p in ODD_PRIMES_499:
        closed_form = math.sqrt(p) if p % 4 == 1 else 1j * math.sqrt(p)
        err = abs(gauss_sum(p) - closed_form)
        assert err <= 1e-9 * math.sqrt(p), p


def test_gauss_sum_modulus_squared_is_p():
    for p in ODD_PRIMES_499:
        g = gauss_sum(p)
        assert abs((g * g.conjugate()).real - p) <= 1e-9 * p


def test_fourier_partial_boundary_rejected():
    with pytest.raises(ValueError, match=r"alpha\*p integral"):
        fourier_partial(Fraction(1, 3), 3, 100)
    with pytest.raises(ValueError, match=r"alpha\*p integral"):
        fourier_partial(Fraction(2, 7), 7, 100)


def test_fourier_partial_converges():
    for alpha, p in [(Fraction(2, 5), 101), (Fraction(1, 3), 103), (0.123, 97)]:
        exact = legendre_sum(alpha, p)
        err_small = abs(fourier_partial(alpha, p, 1000) - exact)
        err_big = abs(fourier_partial(alpha, p, 100000) - exact)
        assert err_big <= 0.1
        assert err_big < err_small


# 1009 .. 10009 exceed the smaller truncations; 3 .. 103 are at most M in
# nearly every case, so there the multiples of p, which carry no term, count
@pytest.mark.parametrize("p", [1009, 1013, 10007, 10009, 3, 5, 101, 103])
def test_fourier_partial_equals_the_direct_sum(p):
    # the series engine on the prime's sign row against the term-by-term sum
    for alpha in (Fraction(1, 3), Fraction(2, 5), 1 / math.e):
        if (Fraction(alpha) * p).denominator == 1:
            continue
        for M in (10**2, 10**3, 10**4, 10**5):
            direct = fourier_direct(alpha, p, M)
            assert abs(fourier_partial(alpha, p, M) - direct) <= 1e-12 * max(1.0, abs(direct))


def _twisted_sum_max(alpha, p, N):
    """max over N' <= N of |sum_{n<=N'} e^{2 pi i alpha n} (n/p)|, relative
    to sqrt(p) ln(p)."""
    n = np.arange(1, N + 1)
    partial = np.cumsum(np.exp(2j * math.pi * float(alpha) * n) * legendre_values(p)[n % p])
    return float(np.max(np.abs(partial))) / (math.sqrt(p) * math.log(p))


def test_twisted_sum_stays_below_log_scale():
    # Polya-Vinogradov-type sanity: normalized max partial sum is O(1)
    for alpha, p in [(Fraction(2, 5), 101), (0.3, 499)]:
        assert _twisted_sum_max(alpha, p, 10000) < 5.0


def test_twisted_sum_single_term():
    p = 7
    val = _twisted_sum_max(0.2, p, 1)
    assert abs(val - 1.0 / (math.sqrt(p) * math.log(p))) < 1e-12
