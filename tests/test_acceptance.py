"""Acceptance gate: one test (or parametrized group) per criterion.

Where a printed claim and an independent recomputation disagree, the test
asserts the recomputed statement against an oracle that does not go through
the code under test, and pins the value, so a finding that moves fails.  Each
such case is marked "finding:" in a comment; the Findings section of README.md
lists them.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from legsums.charsum import density_scan, dirichlet_checks, legendre_sum
from legsums.randmodel import fourier_partial
from legsums.primes import primes_up_to
from legsums import randmodel as rm
from legsums import tails
from reference import (CHI_0_5, class_number_h, gauss_sum, jacobi, log_euler_identity,
                       prime_sign, x_of)

INV_2PI = 0.15915494309189535
INV_E = 0.36787944117144233

DENSITY_TABLE_1000 = [
    (Fraction(2, 5), 896),
    (Fraction(3, 8), 917),
    (Fraction(1, 12), 884),
    (INV_2PI, 812),
    (INV_E, 937),
]
DENSITY_TABLE_10000 = [
    (Fraction(2, 5), 8915),
    (Fraction(3, 8), 9122),
    (Fraction(1, 12), 8799),
    (INV_2PI, 8019),
    (INV_E, 9340),
]
DENSITY_TABLE_100000 = [
    (Fraction(2, 5), 89041),
    (Fraction(3, 8), 91036),
    (Fraction(1, 12), 87868),
    (INV_2PI, 79784),
    (INV_E, 93260),
]


# --------------------------------------------------------------------------
# 1. density tables

@pytest.mark.parametrize("alpha,expected", DENSITY_TABLE_1000)
def test_criterion_1_density_1000(alpha, expected):
    assert density_scan(alpha, 1000).nonneg_count == expected


@pytest.mark.parametrize("alpha,expected", DENSITY_TABLE_10000)
def test_criterion_1_density_10000(alpha, expected):
    assert density_scan(alpha, 10000).nonneg_count == expected


@pytest.mark.slow
@pytest.mark.parametrize("alpha,expected", DENSITY_TABLE_100000)
def test_criterion_1_density_100000(alpha, expected):
    assert density_scan(alpha, 100000, threads=4).nonneg_count == expected


# --------------------------------------------------------------------------
# 2. class-number identity

def test_criterion_2_dirichlet_identity():
    checks = dirichlet_checks(2000)
    assert [chk.p for chk in checks] == primes_up_to(2000).tolist()[1:]
    for chk in checks[1:]:
        assert chk.lhs == chk.rhs, chk.p


# --------------------------------------------------------------------------
# 3. Gauss sums

def test_criterion_3_gauss_sums():
    for p in primes_up_to(499).tolist():
        if p == 2:
            continue
        closed_form = math.sqrt(p) if p % 4 == 1 else 1j * math.sqrt(p)
        assert abs(gauss_sum(p) - closed_form) <= 1e-9 * math.sqrt(p)


# --------------------------------------------------------------------------
# 4. Fourier reconstruction

def test_criterion_4_fourier_pairs():
    rng = random.Random(0)
    primes = [p for p in primes_up_to(1000).tolist() if p > 2]
    pairs = []
    while len(pairs) < 20:
        p = rng.choice(primes)
        alpha = rng.uniform(0.02, 0.98)
        if abs(alpha * p - round(alpha * p)) < 1e-6:
            continue
        pairs.append((alpha, p))
    improved = 0
    for alpha, p in pairs:
        exact = legendre_sum(alpha, p)
        err_small = abs(fourier_partial(alpha, p, 10**3) - exact)
        err_big = abs(fourier_partial(alpha, p, 10**5) - exact)
        assert err_big <= 0.1, (alpha, p, err_big)
        if err_big < err_small:
            improved += 1
    assert improved >= 18


# --------------------------------------------------------------------------
# 5. sign laws and positivity estimates

SIGN_LAWS = [
    (Fraction(1, 2), "minus"),
    (Fraction(1, 3), "plus"),
    (Fraction(1, 3), "minus"),
    (Fraction(1, 4), "plus"),
    (Fraction(1, 4), "minus"),
    (Fraction(1, 6), "plus"),
    (Fraction(1, 6), "minus"),  # finding: negative exactly when X_2 = X_3 = -1
    (Fraction(3, 8), "minus"),
    (Fraction(2, 5), "minus"),
]


@pytest.mark.parametrize("alpha,parity", SIGN_LAWS)
def test_criterion_5_sign_laws(alpha, parity):
    d = rm.decompose_rational(alpha, parity)
    vals = rm.euler_values_matrix(d, 1000, seed0=0, prime_cutoff=1000)
    if (alpha, parity) == (Fraction(1, 6), "minus"):
        _assert_sixth_minus_conditional_law(vals)
        return
    assert vals.min() >= -1e-9, f"min {vals.min()} at alpha={alpha} {parity}"


def _assert_sixth_minus_conditional_law(vals):
    # The (1/6, minus) terms collapse to
    # (1 + X_2 + X_3 - X_2 X_3)/2 * prod_p (1 - X_p/p)^-1, so the law holds
    # unless X_2 = X_3 = -1, where the prefactor is -1.
    primes = primes_up_to(1000)
    signs = rm.prime_sign_matrix(np.arange(1000), primes).astype(np.float64)
    x2, x3 = signs[:, 0], signs[:, 1]
    euler = np.prod(1.0 / (1.0 - signs / primes), axis=1)
    np.testing.assert_allclose(vals, (1 + x2 + x3 - x2 * x3) / 2 * euler, rtol=1e-10)
    both_negative = (x2 == -1) & (x3 == -1)
    assert 0 < both_negative.sum() < len(vals)
    assert vals[~both_negative].min() >= -1e-9
    assert vals[both_negative].max() < 0

    # The same law for real primes p ≡ 3 (mod 4), through the class-number
    # closed form of the sum over (0, p/6) (Berndt 1976): L(1/6, p) < 0
    # exactly when (2/p) = (3/p) = -1, that is, when p ≡ 19 (mod 24).
    for p in primes_up_to(2000).tolist():
        if p <= 3 or p % 4 != 3:
            continue
        L = legendre_sum(Fraction(1, 6), p)
        prefactor = (1 + jacobi(2, p) + jacobi(3, p) - jacobi(6, p)) // 2
        assert L == prefactor * class_number_h(p), p
        assert (L < 0) == (p % 24 == 19), (p, L)
    assert legendre_sum(Fraction(1, 6), 19) == -1


def test_criterion_5_minus_class_dips_below_zero_between_third_and_half():
    # finding: on the minus class, L(alpha, p) >= 0 does not hold on all of
    # [1/3, 1/2]; at p = 218527 ≡ 7 (mod 24) it is 282 at 1/3 and 141 at 1/2,
    # but -2 at 8/17 (m = 102836)
    p = 218527
    assert p % 24 == 7
    partial = list(itertools.accumulate((jacobi(n, p) for n in range(1, p // 2 + 1)), initial=0))
    for alpha, expected in ((Fraction(1, 3), 282), (Fraction(8, 17), -2), (Fraction(1, 2), 141)):
        assert partial[math.floor(alpha * p)] == expected, alpha
        assert legendre_sum(alpha, p) == expected, alpha
    assert math.floor(Fraction(8, 17) * p) == 102836


def test_criterion_5_minus_class_dips_to_minus_ten_at_877783():
    # the second such prime, and the last among the first 10^5 primes:
    # p = 877783 ≡ 7 (mod 24) is negative at 57 cutoffs m of the window
    # [ceil(p/3), floor(p/2)], with its minimum -10 at m = 413072, two below
    # floor(8p/17)
    p = 877783
    assert p % 24 == 7
    partial = list(itertools.accumulate((jacobi(n, p) for n in range(1, p // 2 + 1)), initial=0))
    lo = -(-p // 3)
    window = partial[lo:]
    assert min(window) == -10
    assert lo + window.index(-10) == 413072 == math.floor(Fraction(8, 17) * p) - 2
    assert sum(value < 0 for value in window) == 57
    assert legendre_sum(Fraction(413072, p), p) == -10


def test_criterion_5_eighth_plus_conditional_law():
    d = rm.decompose_rational(Fraction(1, 8), "plus")
    seeds = np.arange(1000)
    x2 = rm.prime_sign_matrix(seeds, np.array([2]))[:, 0]
    vals = rm.euler_values_matrix(d, 1000, seed0=0, prime_cutoff=1000)
    assert vals[x2 == 1].min() >= -1e-9


def test_criterion_5_c_estimates():
    est_third = rm.estimate_positivity(
        rm.decompose_rational(Fraction(1, 3), "minus"), 1000, prime_cutoff=1000
    )
    assert est_third.nonneg_fraction == 1.0

    est_fifth = rm.estimate_positivity(
        rm.decompose_rational(Fraction(1, 5), "plus"), 1000, prime_cutoff=1000
    )
    assert est_fifth.nonneg_fraction >= 2 / 3 - 2 * est_fifth.ci95_nonneg


def test_criterion_5_two_fifths_mean_positive():
    N, samples = 10**4, 30000
    c = rm.CoefficientSpec("plus", Fraction(2, 5)).coefficients(N)
    vals = rm.sample_series_matrix(c[:, None], N, samples, seed0=0)[:, 0]
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples))
    assert mean > 3 * se
    assert abs(mean - rm.moment_direct(c, 1)) <= 3 * se


# --------------------------------------------------------------------------
# 6. quintic-phase constants and twist product

def test_criterion_6_xi_variance_and_phi():
    xi = rm.xi_statistics(10**6)
    assert abs(xi.variance - 0.35355) <= 1e-4
    assert abs(xi.phi - 0.553) <= 1e-3


def test_criterion_6_chebyshev_bound_below_one_third():
    xi = rm.xi_statistics(10**6)
    assert xi.phi == pytest.approx(math.atan((math.sqrt(5) - 1) / 2), abs=1e-12)

    # finding: the two-sided quotient V/(pi/2 - phi)^2 is not below 1/3, not
    # even from the printed inputs: 0.35355/(pi/2 - 0.553)^2 = 0.34129.
    printed_quotient = 0.35355 / (math.pi / 2 - 0.553) ** 2
    assert abs(xi.chebyshev_bound - printed_quotient) <= 1e-3
    assert xi.chebyshev_bound > 1 / 3

    # The bound the step needs: theta is a sum of independent symmetric
    # terms, so P(theta <= -t) <= V/(2 t^2), and the 1/5 sine series is
    # negative only if theta < -(pi/2 - phi) or theta > pi/2 + phi.
    V = xi.variance + 1 / 10**6
    one_sided = V / (2 * (math.pi / 2 - xi.phi) ** 2) + V / (2 * (math.pi / 2 + xi.phi) ** 2)
    assert abs(one_sided - 0.2100) <= 1e-3
    assert one_sided < 1 / 3


def test_criterion_6_twist_product():
    # seed 0's sign row and its twist, the negated row, through the Euler engine
    P = 10**5
    primes = primes_up_to(P)
    s = rm.prime_sign_matrix(np.array([0]), primes)[0]
    prod = np.prod(rm._euler_sum((rm.Term(1, CHI_0_5),), np.stack([s, -s]), primes, P)).real
    target = 4 * math.pi**2 / 25
    assert abs(prod - target) / target <= 1e-4


# --------------------------------------------------------------------------
# 7. moment identity

def test_criterion_7_moments_direct_vs_mc():
    samples = 10**5
    specs = [
        (alpha, parity)
        for alpha in (Fraction(1, 3), Fraction(1, 4))
        for parity in ("plus", "minus")
    ]
    # k = 5, 6 average over 2^pi(sqrt(N)) sign vectors, 2^16 at N = 3000
    for N, orders in ((10**4, (2, 3, 4)), (3000, (5, 6))):
        cols = np.column_stack(
            [rm.CoefficientSpec(par, a).coefficients(N) for a, par in specs]
        )
        values = rm.sample_series_matrix(cols, N, samples, seed0=0)
        for j, (alpha, parity) in enumerate(specs):
            exact = rm.moment_bundle(cols[:, j], max(orders))
            for k in orders:
                powers = values[:, j] ** k
                mc = float(powers.mean())
                se = float(powers.std(ddof=1) / math.sqrt(samples))
                assert abs(mc - exact[k]) <= 3 * se, (N, alpha, parity, k, mc, exact[k], se)


# --------------------------------------------------------------------------
# 8. certification constant chain

def test_criterion_8_sigma2():
    partial, tail, total = tails.sigma2_one_third(10**6)
    assert total < 0.395


def test_criterion_8_zeta_ratio():
    assert tails.zeta_ratio_check(10**5).scaled < 92


def test_criterion_8_distance_prefactor():
    assert abs(tails.distance_bound(2 * math.pi, 1, 1) - 313.3) < 0.5


def test_criterion_8_optimized_thresholds():
    om = tails.optimize_u(0.395, 0.015)
    op = tails.optimize_u(0.395, 0.0447)
    assert abs(om.u - 0.0756) <= 1e-3 and om.value <= 0.32
    assert abs(op.u - 0.12957) <= 1e-3 and op.value <= 0.612


def _min_negativity_bound(D) -> mpmath.mpf:
    """min over u in (0, 1) of exp(-ln^2(u)/(8 * 0.395)) + D/u, by a root of
    the derivative in x = ln(u), seeded from a coarse grid."""
    sigma2 = mpmath.mpf("0.395")

    def f(x):
        return mpmath.exp(-x * x / (8 * sigma2)) + D * mpmath.exp(-x)

    def df(x):
        return -x / (4 * sigma2) * mpmath.exp(-x * x / (8 * sigma2)) - D * mpmath.exp(-x)

    x0 = min((mpmath.mpf(-k) / 20 for k in range(1, 400)), key=f)
    return f(mpmath.findroot(df, x0))


@pytest.mark.parametrize("constants", ["printed", "recomputed"])
@pytest.mark.parametrize("side", [+1, -1])
def test_criterion_8_certified_lower_bound(constants, side):
    rep = tails.certify_neighborhood(1 / 3 + side * 2e-6, constants=constants)
    if constants == "printed":
        assert rep.c_lower >= 0.534, f"{constants}: c_lower = {rep.c_lower:.4f}"
        return
    # finding: the prefactors 3/pi^2 * 313.3 = 95.23 and 9/pi^2 * 313.3 =
    # 285.70 give c_lower = 0.53105 < 0.534; the printed 94/282 round down.
    with mpmath.workdps(30):
        d23 = mpmath.mpf(2e-6) ** (mpmath.mpf(2) / 3)
        p_minus = _min_negativity_bound(3 * mpmath.mpf("313.3") / mpmath.pi**2 * d23)
        p_plus = _min_negativity_bound(9 * mpmath.mpf("313.3") / mpmath.pi**2 * d23)
        expected = float(1 - (p_minus + p_plus) / 2)
    assert rep.certified is False
    assert abs(rep.c_lower - expected) <= 1e-9, (rep.c_lower, expected)
    for D, u, p_neg in ((rep.d_minus, rep.u_minus, rep.p_neg_minus),
                        (rep.d_plus, rep.u_plus, rep.p_neg_plus)):
        assert abs(tails.negativity_bound(0.395, D, u) - p_neg) <= 1e-12
    assert rep.c_lower > 1 / 2


# --------------------------------------------------------------------------
# 9. model-level property suite

def test_criterion_9_multiplicativity_x():
    rng = random.Random(1)
    sign_of = functools.partial(prime_sign, 0)
    for _ in range(1000):
        a, b = rng.randint(1, 5000), rng.randint(1, 5000)
        assert x_of(a * b, sign_of) == x_of(a, sign_of) * x_of(b, sign_of)


def test_criterion_9_multiplicativity_jacobi():
    rng = random.Random(2)
    for _ in range(1000):
        a, b = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        n = 2 * rng.randint(0, 10**4) + 1
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_criterion_9_empirical_subgaussian_tail():
    # eta = sum a_i kappa_i with fair signs kappa_i and sum a_i^2 = sigma2
    # has P(eta >= T) <= exp(-T^2 / (2 sigma2)); with a_i = 2^-i every eta
    # is exact in floating point, whatever the summation order
    coeffs = 2.0 ** -np.arange(1, 21)
    sigma2 = float(np.sum(coeffs**2))
    samples = 10**6
    signs = np.random.default_rng(0).integers(0, 2, size=(samples, len(coeffs)), dtype=np.int8) * 2 - 1
    eta = np.zeros(samples)
    for a, column in zip(coeffs, signs.T):
        eta += a * column
    for T in np.linspace(0.05, 1.0, 20):
        freq = np.count_nonzero(eta >= T) / samples
        bound = math.exp(-T * T / (2 * sigma2))
        assert freq <= bound, (T, freq, bound)


def test_criterion_9_log_euler_identity_100_seeds():
    signs = rm.prime_sign_matrix(np.arange(100), primes_up_to(1000))
    for seed in range(100):
        err_minus, err_plus, _, _ = log_euler_identity(signs[seed], 1000)
        assert max(err_minus, err_plus) <= 1e-6, seed
