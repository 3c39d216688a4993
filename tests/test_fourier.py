import cmath
import math
from fractions import Fraction

import pytest

from legsums.charsum import legendre_sum
from legsums.fourier import (
    BoundaryAlphaError,
    fourier_coeff,
    fourier_partial,
    gauss_sum,
    gauss_sum_closed_form,
    twisted_sum_check,
)
from legsums.primes import primes_up_to

ODD_PRIMES_499 = [p for p in primes_up_to(499).tolist() if p > 2]


def test_fourier_coeff_zero_mode():
    assert fourier_coeff(0.3, 0) == 0.3 + 0j


def test_fourier_coeff_conjugate_symmetry():
    for m in (1, 2, 7):
        assert cmath.isclose(
            fourier_coeff(0.3, -m), fourier_coeff(0.3, m).conjugate()
        )


def test_fourier_coeff_parseval():
    # sum of |c_m|^2 over |m| <= M converges to alpha (the L2 norm of the
    # indicator of [0, alpha])
    alpha = 0.37
    M = 20000
    total = abs(fourier_coeff(alpha, 0)) ** 2 + 2 * sum(
        abs(fourier_coeff(alpha, m)) ** 2 for m in range(1, M + 1)
    )
    assert abs(total - alpha) < 1.0 / M * 10


def test_gauss_sums_match_closed_form():
    for p in ODD_PRIMES_499:
        err = abs(gauss_sum(p) - gauss_sum_closed_form(p))
        assert err <= 1e-9 * math.sqrt(p), p


def test_gauss_sum_modulus_squared_is_p():
    for p in ODD_PRIMES_499:
        g = gauss_sum(p)
        assert abs((g * g.conjugate()).real - p) <= 1e-9 * p


def test_gauss_sum_rejects_two_and_composites():
    with pytest.raises(ValueError):
        gauss_sum(2)
    with pytest.raises(ValueError):
        gauss_sum(15)


def test_fourier_partial_boundary_rejected():
    with pytest.raises(BoundaryAlphaError):
        fourier_partial(Fraction(1, 3), 3, 100)
    with pytest.raises(BoundaryAlphaError):
        fourier_partial(Fraction(2, 7), 7, 100)


def test_fourier_partial_converges():
    for alpha, p in [(Fraction(2, 5), 101), (Fraction(1, 3), 103), (0.123, 97)]:
        exact = legendre_sum(alpha, p)
        err_small = abs(fourier_partial(alpha, p, 1000) - exact)
        err_big = abs(fourier_partial(alpha, p, 100000) - exact)
        assert err_big <= 0.1
        assert err_big < err_small


def test_twisted_sum_stays_below_log_scale():
    # Polya-Vinogradov-type sanity: normalized max partial sum is O(1)
    for alpha, p in [(Fraction(2, 5), 101), (0.3, 499)]:
        assert twisted_sum_check(alpha, p, 10000) < 5.0


@pytest.mark.parametrize("p", [2, 9, 100])
def test_twisted_sum_rejects_non_odd_prime(p):
    with pytest.raises(ValueError, match="needs an odd prime"):
        twisted_sum_check(0.3, p, 50)


def test_twisted_sum_single_term():
    p = 7
    val = twisted_sum_check(0.2, p, 1)
    assert abs(val - 1.0 / (math.sqrt(p) * math.log(p))) < 1e-12
