import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from legsums.cli import main
from legsums.primes import primes_up_to
from legsums.randmodel import CoefficientSpec, moment_direct, prime_sign_matrix, sample_series_matrix
from legsums import tails
from legsums.tails import (
    certify_neighborhood,
    distance_bound,
    negativity_bound,
    optimize_u,
    sigma2_one_third,
    zeta_ratio_check,
)
from reference import log_euler_identity, s2_target, tau_of_square, tau_square_partial


# --------------------------------------------------------------------------
# the negativity bound

def test_mgf_grid_inequality():
    # cosh(t) <= exp(t^2/2), the inequality behind the tail bound
    for t in np.linspace(-10, 10, 81):
        assert math.cosh(t) <= math.exp(t * t / 2) * (1 + 1e-15)


def test_negativity_bound_values():
    assert negativity_bound(0.395, 0.015, 0.0756) <= 0.32
    assert negativity_bound(0.395, 0.0447, 0.12957) <= 0.612


def test_negativity_bound_domain():
    with pytest.raises(ValueError):
        negativity_bound(0.395, 0.01, 1.5)
    with pytest.raises(ValueError):
        negativity_bound(0.395, -0.1, 0.5)


def test_negativity_bound_vanishes_with_D_and_u():
    # with D = 0 the bound is exp(-ln^2 u / (8 sigma2)) -> 0 as u -> 0
    assert negativity_bound(0.395, 0.0, 1e-12) < 1e-40


def test_optimize_u_reproduces_thresholds():
    om = optimize_u(0.395, 0.015)
    op = optimize_u(0.395, 0.0447)
    assert abs(om.u - 0.0756) < 1e-3
    assert abs(op.u - 0.12957) < 1e-3
    assert om.value <= 0.32
    assert op.value <= 0.612


def test_optimize_u_small_D_limit():
    prev_u, prev_v = 1.0, 1.0
    for D in (1e-2, 1e-4, 1e-6, 1e-8):
        opt = optimize_u(0.395, D)
        assert opt.u < prev_u and opt.value < prev_v
        prev_u, prev_v = opt.u, opt.value
    assert optimize_u(0.395, 0.0) == tails.UOptimum(0.0, 0.0)


def test_optimize_u_degenerate_flag():
    # no threshold brings the bound below 1
    assert optimize_u(0.395, 5.0).value >= 1


def _mp_min_negativity_bound(sigma2, D):
    """(u, value) at the interior minimum of negativity_bound, to 30 digits:
    a grid in s = -ln(u), then a bracketed root of the log-derivative."""
    with mpmath.workdps(30):
        s2, D = mpmath.mpf(sigma2), mpmath.mpf(D)

        def f(s):
            return mpmath.exp(-s * s / (8 * s2)) + D * mpmath.exp(s)

        def df(s):
            return -s / (4 * s2) * mpmath.exp(-s * s / (8 * s2)) + D * mpmath.exp(s)

        step = mpmath.mpf(1) / 20
        s0 = min((k * step for k in range(1, 1601)), key=f)
        s = mpmath.findroot(lambda s: df(s) / f(s), (s0 - step, s0 + step), solver="anderson")
        return mpmath.exp(-s), f(s)


@pytest.mark.parametrize("D", [1e-200, 1e-30, 1e-8, 1e-4, 0.015, 0.0447, 0.1])
def test_optimize_u_matches_mpmath_minimum(D):
    opt = optimize_u(0.395, D)
    u, value = _mp_min_negativity_bound(0.395, D)
    assert abs(opt.u - u) <= 1e-12 * u
    assert abs(opt.value - value) <= 1e-12 * value
    assert opt.value < 1


@pytest.mark.parametrize("D", [0.3, 5.0])
def test_optimize_u_without_interior_minimum_is_degenerate(D):
    opt = optimize_u(0.395, D)
    assert 0 < opt.u < 1
    assert opt.value >= 1


# --------------------------------------------------------------------------
# the variance constant

def test_sigma2_partial_and_tail():
    partial, tail, total = sigma2_one_third(10**5)
    assert total < 0.395
    assert partial < total
    p4, t4, tot4 = sigma2_one_third(10**4)
    assert p4 <= partial  # partial nondecreasing in cutoff
    assert tot4 >= p4


def test_sigma2_raises_when_bound_exceeds_constant(monkeypatch):
    # an explicit raise, not an assert: python -O must not drop the check
    _, _, total = sigma2_one_third(10**4)
    monkeypatch.setattr(tails, "SIGMA2", total * (1 - 1e-9))
    with pytest.raises(ArithmeticError, match="variance bound violated"):
        sigma2_one_third(10**4)


def test_sigma2_p2_term():
    # the p = 2 term alone
    assert 0.25 * math.log(1 / 3) ** 2 == pytest.approx(0.3017, abs=1e-4)


def test_sigma2_tail_is_rigorous_for_integers():
    # artanh(1/n)^2 <= 1/(n^2-1): spot-check the bound used for the tail
    for n in range(100, 1000, 37):
        assert math.atanh(1 / n) ** 2 <= 1 / (n * n - 1)


# --------------------------------------------------------------------------
# exact log-Euler identity

def test_log_euler_identity_random_seeds():
    for row in prime_sign_matrix(np.arange(10), primes_up_to(1000)):
        err_minus, err_plus, _, _ = log_euler_identity(row, 1000)
        assert max(err_minus, err_plus) <= 1e-6


def test_log_euler_identity_constant_signs():
    for sign in (1, -1):
        err_minus, err_plus, _, _ = log_euler_identity(
            np.full(len(primes_up_to(1000)), sign, dtype=np.int8), 1000)
        assert max(err_minus, err_plus) <= 1e-6


def test_log_euler_normalizers_converge():
    _, _, norm_minus, norm_plus = log_euler_identity(
        prime_sign_matrix(np.array([0]), primes_up_to(10**6))[0], 10**6)
    assert abs(norm_minus - math.pi / math.sqrt(3)) < 1e-6
    assert abs(norm_plus - math.pi / 3) < 1e-6


# --------------------------------------------------------------------------
# divisor-series constant

def test_tau_of_square_multiplicative():
    tau = tau_of_square(100)
    assert tau[6] == 9  # tau(36) = 9 = tau(4) * tau(9)
    assert tau[6] == tau[2] * tau[3]
    assert tau[36] == 25  # tau(36^2) = tau(2^4 3^4) = 25
    assert tau[1] == 1 and tau[2] == 3 and tau[4] == 5


def test_zeta_ratio_below_92():
    rep = zeta_ratio_check(10**5)
    assert rep.scaled < 92
    assert tau_square_partial(10**5, 4 / 3) < rep.scaled / 2 ** (4 / 3)  # from below


def test_zeta_ratio_s2_dirichlet_series():
    s2_partial, target = tau_square_partial(10**6, 2), s2_target()
    assert abs(s2_partial - target) < 1e-3
    assert s2_partial < target


def test_zeta_ratio_leaves_mpmath_precision_alone(capsys):
    with mpmath.workdps(17):
        zeta_ratio_check(10**3)
        assert mpmath.mp.dps == 17
        assert main(["constants"]) == 0
        assert mpmath.mp.dps == 17


# --------------------------------------------------------------------------
# distance in alpha

def test_distance_bound_values():
    assert distance_bound(2 * math.pi, 1, 1) == pytest.approx(313.26, abs=0.05)
    assert abs(distance_bound(2 * math.pi, 1, 1) - 313.3) < 0.5
    assert distance_bound(1, 1, 0) == 0.0
    assert 313.3 * (2e-6) ** (2 / 3) == pytest.approx(0.0497, abs=1e-4)


def _distance_moments(alpha, beta, parity, N, samples, seed=0):
    """The exact second moment of the difference of the two truncated
    series, and a Monte Carlo estimate of it with its standard error."""
    diff = CoefficientSpec(parity, alpha).coefficients(N) - CoefficientSpec(parity, beta).coefficients(N)
    squares = sample_series_matrix(diff[:, None], N, samples, seed)[:, 0] ** 2
    return moment_direct(diff, 2), float(squares.mean()), float(squares.std(ddof=1) / math.sqrt(samples))


def test_empirical_distance_zero_at_equal_alpha():
    exact, mc, _ = _distance_moments(Fraction(1, 3), Fraction(1, 3), "minus", N=500, samples=100)
    assert exact == 0.0
    assert mc == 0.0


def test_empirical_distance_bounded_and_consistent():
    alpha, beta = 1 / 3, 1 / 3 + 1e-3
    exact, mc, se = _distance_moments(alpha, beta, "minus", N=10**4, samples=4000)
    assert exact <= 313.3 * 1e-3 ** (2 / 3)
    assert abs(mc - exact) <= 3 * se


# --------------------------------------------------------------------------
# certification

def test_certify_at_boundary_printed():
    rep = certify_neighborhood(1 / 3 + 2e-6, constants="printed")
    assert rep.c_lower >= 0.534
    assert rep.certified
    assert rep.c_lower == pytest.approx(1 - (rep.p_neg_minus + rep.p_neg_plus) / 2)
    assert 0 <= rep.p_neg_minus <= 1 and 0 <= rep.p_neg_plus <= 1


def test_certify_reports_negativity_bound_at_optimum():
    for constants in ("printed", "recomputed"):
        rep = certify_neighborhood(1 / 3 + 2e-6, constants=constants)
        assert rep.p_neg_minus == min(negativity_bound(tails.SIGMA2, rep.d_minus, rep.u_minus), 1.0)
        assert rep.p_neg_plus == min(negativity_bound(tails.SIGMA2, rep.d_plus, rep.u_plus), 1.0)


def test_certify_depends_on_negativity_bound(monkeypatch):
    before = certify_neighborhood(1 / 3 + 2e-6, constants="recomputed")
    original = tails.negativity_bound
    monkeypatch.setattr(tails, "negativity_bound", lambda s, D, u: original(s, D, u) + 0.01)
    after = certify_neighborhood(1 / 3 + 2e-6, constants="recomputed")
    assert after.p_neg_minus == pytest.approx(before.p_neg_minus + 0.01, abs=1e-9)
    assert after.p_neg_plus == pytest.approx(before.p_neg_plus + 0.01, abs=1e-9)
    assert after.c_lower == pytest.approx(before.c_lower - 0.01, abs=1e-9)


def test_certify_degenerate_at_center():
    rep = certify_neighborhood(1 / 3)
    assert rep.c_lower == 1.0
    assert rep.certified
    assert rep.u_minus == rep.u_plus == 0.0  # the limit optimum at D = 0


def test_certify_far_alpha_not_certifying():
    rep = certify_neighborhood(1 / 3 + 1e-3)
    assert not rep.certified
    assert rep.c_lower < 0.5


def test_certify_monotone_in_delta():
    deltas = [0.0, 1e-8, 1e-7, 1e-6, 2e-6, 1e-5, 1e-4, 1e-3]
    values = [certify_neighborhood(1 / 3 + d).c_lower for d in deltas]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_printed_intermediate_constants():
    d23 = (2e-6) ** (2 / 3)
    assert 94 * d23 <= 0.015
    # 282 * (2e-6)^(2/3) = 0.0447647...: slightly ABOVE the printed 0.0447
    # (rounded down in print); accept it to within 1e-4
    assert 282 * d23 <= 0.0447 + 1e-4


def test_certify_json_keys(capsys):
    assert main(["certify", "--alpha", str(1 / 3 + 2e-6)]) == 0
    keys = set(json.loads(capsys.readouterr().out))
    assert keys == {
        "alpha", "delta", "d_minus", "d_plus", "u_minus", "u_plus",
        "p_neg_minus", "p_neg_plus", "c_lower", "certified",
    }
