"""Sub-Gaussian tail machinery and the positivity certificate near 1/3.

The chain: the logarithm of the Euler-product form of the alpha = 1/3 series
is a weighted sum of independent signs with summable squared weights, hence
sub-Gaussian; an L2 bound on how fast the series moves as alpha varies then
converts the tail bound into a lower bound on the positivity proportion for
every alpha in a small neighborhood of 1/3.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .primes import primes_up_to
from .randmodel import (
    CoefficientSpec, _euler_sum, decompose_rational, moment_direct, sample_series_matrix,
)

__all__ = [
    "SubGaussianSeries",
    "UOptimum",
    "Lemma7Report",
    "ZetaRatioReport",
    "DistanceReport",
    "CertificationReport",
    "subgaussian_tail",
    "negativity_bound",
    "optimize_u",
    "sigma2_one_third",
    "log_euler_identity_check",
    "zeta_ratio_check",
    "tau_of_square",
    "distance_bound",
    "empirical_distance",
    "certify_neighborhood",
    "PRINTED",
    "RECOMPUTED",
]

SIGMA2 = 0.395  # certified upper bound for the alpha = 1/3 sign variance


# --------------------------------------------------------------------------
# sub-Gaussian class

@dataclass(frozen=True)
class SubGaussianSeries:
    """eta = sum a_i kappa_i with independent fair signs kappa_i.

    sigma2 must dominate sum a_i^2; then P(eta >= T) <= exp(-T^2 / (2 sigma2)).
    """

    coefficients: tuple[float, ...]
    sigma2: float

    def __post_init__(self):
        s = sum(a * a for a in self.coefficients)
        if s > self.sigma2 * (1 + 1e-12):
            raise ValueError(f"sum of squares {s} exceeds sigma2 {self.sigma2}")

    def tail_bound(self, T: float) -> float:
        return subgaussian_tail(self.sigma2, T)

    def empirical_tail(self, T_grid: np.ndarray, samples: int, seed: int = 0):
        """Monte Carlo frequency of eta >= T for each T in the grid."""
        rng = np.random.default_rng(seed)
        a = np.asarray(self.coefficients)
        signs = rng.integers(0, 2, size=(samples, len(a)), dtype=np.int8) * 2 - 1
        eta = signs.astype(np.float64) @ a
        return np.array([np.count_nonzero(eta >= T) / samples for T in T_grid])


def subgaussian_tail(sigma2: float, T: float) -> float:
    """exp(-T^2 / (2 sigma2)): one-sided tail bound for the class above."""
    if sigma2 <= 0 or T <= 0:
        raise ValueError("sigma2 and T must be positive")
    return math.exp(-T * T / (2 * sigma2))


def negativity_bound(sigma2: float, D: float, u: float) -> float:
    """exp(-ln^2(u) / (8 sigma2)) + D/u: bound on the probability that a
    series goes negative when its mean squared distance from an
    almost-surely-positive log-normal one is at most D; u in (0, 1) is the
    threshold that splits the two terms."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if not 0 < u < 1:
        raise ValueError(f"u must lie in (0, 1), got {u}")
    if D < 0:
        raise ValueError("D must be nonnegative")
    return math.exp(-math.log(u) ** 2 / (8 * sigma2)) + D / u


@dataclass(frozen=True)
class UOptimum:
    u: float
    value: float
    degenerate: bool = False


def optimize_u(sigma2: float, D: float) -> UOptimum:
    """Minimize u -> negativity_bound(sigma2, D, u) over (0, 1).

    With s = -ln(u) the bound falls in s exactly where
    h(s) = ln(s / (4 sigma2)) - s^2 / (8 sigma2) - s exceeds ln(D).  h is
    strictly concave (h'' = -1/s^2 - 1/(4 sigma2)) and peaks at
    s* = 2 sqrt(sigma2 (sigma2 + 1)) - 2 sigma2, so the only interior
    minimum is the root of h = ln(D) above s*, found by bisection to the
    last float.  If h(s*) <= ln(D) the bound only grows with s; u = exp(-s*)
    is returned, and its value >= 1 flags it degenerate.  D = 0 gives the
    limit optimum (0, 0).
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if D < 0:
        raise ValueError("D must be nonnegative")
    if D == 0:
        return UOptimum(u=0.0, value=0.0, degenerate=True)

    def falls(s: float) -> bool:
        return math.log(s / (4 * sigma2)) - s * s / (8 * sigma2) - s > math.log(D)

    lo = 2 * math.sqrt(sigma2 * (sigma2 + 1)) - 2 * sigma2
    if falls(lo):
        hi = 2 * lo
        while falls(hi):
            lo, hi = hi, 2 * hi
        while lo < (mid := (lo + hi) / 2) < hi:
            lo, hi = (mid, hi) if falls(mid) else (lo, mid)
    u = math.exp(-lo)
    value = negativity_bound(sigma2, D, u)
    return UOptimum(u=u, value=value, degenerate=value >= 1)


# --------------------------------------------------------------------------
# the variance constant

def sigma2_one_third(prime_cutoff: int = 1_000_000) -> tuple[float, float, float]:
    """(partial_sum, tail_bound, total) for sum over primes p != 3 of
    (1/4) ln^2((p-1)/(p+1)).

    The summand equals artanh(1/p)^2 <= 1/(p^2 - 1), and
    sum_{n > P} 1/(n^2 - 1) telescopes to (1/P + 1/(P+1))/2, which gives a
    rigorous tail.  (Comparing the summand against 1/n^2 alone fails, since
    artanh(1/n) > 1/n.)  Raises ArithmeticError unless total < SIGMA2.
    """
    if prime_cutoff < 100:
        raise ValueError("prime_cutoff must be >= 100")
    p = primes_up_to(prime_cutoff).astype(np.float64)
    p = p[p != 3]
    partial = float(np.sum(0.25 * np.log((p - 1) / (p + 1)) ** 2))
    tail = 0.5 * (1.0 / prime_cutoff + 1.0 / (prime_cutoff + 1))
    total = partial + tail
    if not total < SIGMA2:
        raise ArithmeticError(f"variance bound violated: {total} >= {SIGMA2}")
    return partial, tail, total


# --------------------------------------------------------------------------
# exact log-Euler identity

@dataclass(frozen=True)
class Lemma7Report:
    product_minus: float
    exponential_minus: float
    product_plus: float
    exponential_plus: float
    normalizer_minus: float
    normalizer_plus: float

    @property
    def rel_err_minus(self) -> float:
        return abs(self.product_minus - self.exponential_minus) / abs(
            self.exponential_minus
        )

    @property
    def rel_err_plus(self) -> float:
        return abs(self.product_plus - self.exponential_plus) / abs(
            self.exponential_plus
        )

    def ok(self, tol: float = 1e-6) -> bool:
        return self.rel_err_minus <= tol and self.rel_err_plus <= tol


def log_euler_identity_check(signs: np.ndarray, P: int) -> Lemma7Report:
    """Check, at truncation P, that both alpha = 1/3 Euler products equal a
    deterministic normalizer times exp of a weighted sign sum.

    signs holds X_p for the primes p <= P, in order: one row of
    `randmodel.prime_sign_matrix`, or any ±1 row on those primes.  The
    products are the Euler engine's values of the 1/3 decompositions.

    Per prime: (1 - eps/p)^(-1) = ((p+1)/(p-1))^(eps/2) * (1 - 1/p^2)^(-1/2)
    for eps = ±1, so the exponent weight is +(1/2) ln((p+1)/(p-1)) X_p.
    (With the weight written as (1/2) ln((p-1)/(p+1)) X_p the sign is wrong
    and the identity fails; see Findings in README.md.)

    The minus-parity series uses eps = X_p and normalizer -> pi/sqrt(3);
    the plus-parity series uses eps = (p|3) X_p and normalizer -> pi/3.
    """
    primes = primes_up_to(P)
    signs = np.asarray(signs)
    third = [decompose_rational(Fraction(1, 3), parity).terms for parity in ("minus", "plus")]
    prod_minus, prod_plus = (float(_euler_sum(t, signs[None, :], primes, P)[0].real) for t in third)
    keep = primes != 3
    x = signs[keep].astype(np.float64)
    leg3 = np.where(primes[keep] % 3 == 1, 1.0, -1.0)
    p = primes[keep].astype(np.float64)
    half_log = 0.5 * np.log((p + 1) / (p - 1))
    norm = float(np.prod(1.0 / np.sqrt(1.0 - 1.0 / p**2)))

    exp_minus = 1.5 * norm * math.exp(float(np.dot(half_log, x)))
    exp_plus = (math.sqrt(3) / 2) * norm * math.exp(float(np.dot(half_log, leg3 * x)))

    return Lemma7Report(
        product_minus=prod_minus,
        exponential_minus=exp_minus,
        product_plus=prod_plus,
        exponential_plus=exp_plus,
        normalizer_minus=1.5 * norm,
        normalizer_plus=(math.sqrt(3) / 2) * norm,
    )


# --------------------------------------------------------------------------
# the divisor-series constant

def tau_of_square(N: int) -> np.ndarray:
    """tau(n^2) for 0 <= n <= N (index 0 unused, set to 0).

    Built multiplicatively: a factor p^e in n contributes 2e + 1.
    """
    tau = np.ones(N + 1)
    tau[0] = 0.0
    for p in primes_up_to(N).tolist():
        q = p
        e = 1
        while q <= N:
            # lift multiples of p^e from weight 2e-1 to 2e+1
            tau[q::q] *= (2 * e + 1) / (2 * e - 1)
            q *= p
            e += 1
    return tau


@dataclass(frozen=True)
class ZetaRatioReport:
    ratio: float          # zeta(4/3)^3 / zeta(8/3)
    scaled: float         # ratio * 2^(4/3)
    partial_43: float     # sum_{n<=N} tau(n^2)/n^(4/3)
    s2_partial: float     # sum_{n<=N} tau(n^2)/n^2
    s2_target: float      # zeta(2)^3 / zeta(4)

    @property
    def below_92(self) -> bool:
        return self.scaled < 92

    @property
    def from_below(self) -> bool:
        return self.partial_43 < self.ratio


def zeta_ratio_check(N: int = 1_000_000) -> ZetaRatioReport:
    """The Dirichlet series of tau(n^2) at s is zeta(s)^3/zeta(2s); at
    s = 4/3, the value times 2^(4/3) stays below 92."""
    with mpmath.workdps(20):
        ratio = float(mpmath.zeta(mpmath.mpf(4) / 3) ** 3 / mpmath.zeta(mpmath.mpf(8) / 3))
        s2_target = float(mpmath.zeta(2) ** 3 / mpmath.zeta(4))
    tau = tau_of_square(N)
    n = np.arange(1, N + 1, dtype=np.float64)
    partial_43 = float(np.sum(tau[1:] / n ** (4 / 3)))
    s2_partial = float(np.sum(tau[1:] / n**2))
    return ZetaRatioReport(
        ratio=ratio,
        scaled=ratio * 2 ** (4 / 3),
        partial_43=partial_43,
        s2_partial=s2_partial,
        s2_target=s2_target,
    )


# --------------------------------------------------------------------------
# L2 distance in alpha

def distance_bound(L: float, C: float, delta: float) -> float:
    """92 * delta^(2/3) * L^(2/3) * C^(4/3): second-moment bound on how far
    the series moves when alpha shifts by delta, for an L-Lipschitz
    coefficient function bounded by C."""
    if L <= 0 or C <= 0 or delta < 0:
        raise ValueError("L, C must be positive and delta nonnegative")
    return 92 * delta ** (2 / 3) * L ** (2 / 3) * C ** (4 / 3)


#: the specialized one-variable form of the bound above at L = 2*pi, C = 1
SPECIALIZED_313 = 313.3


@dataclass(frozen=True)
class DistanceReport:
    mc_estimate: float
    mc_se: float
    exact_truncated: float


def empirical_distance(
    alpha,
    beta,
    parity: str,
    N: int = 10_000,
    samples: int = 10_000,
    seed: int = 0,
) -> DistanceReport:
    """Second moment of the difference of the two truncated series.

    exact_truncated groups indices by squarefree kernel (the double sum over
    nm = square); mc_estimate simulates the same truncation.
    """
    diff = CoefficientSpec(parity, alpha).coefficients(N) - CoefficientSpec(
        parity, beta
    ).coefficients(N)
    exact = moment_direct(diff, 2)
    values = sample_series_matrix(diff[:, None], N, samples, seed)[:, 0]
    sq = values**2
    return DistanceReport(
        mc_estimate=float(sq.mean()),
        mc_se=float(sq.std(ddof=1) / math.sqrt(samples)),
        exact_truncated=exact,
    )


# --------------------------------------------------------------------------
# the certificate

#: printed distance-bound prefactors for the minus/plus series near 1/3
PRINTED = (94.0, 282.0)
#: the same prefactors recomputed as (3/pi^2) resp. (9/pi^2) times 313.3
RECOMPUTED = (3 * SPECIALIZED_313 / math.pi**2, 9 * SPECIALIZED_313 / math.pi**2)


@dataclass(frozen=True)
class CertificationReport:
    alpha: float
    delta: float
    d_minus: float
    d_plus: float
    u_minus: float
    u_plus: float
    p_neg_minus: float
    p_neg_plus: float
    c_lower: float
    certified: bool
    constants: str
    degenerate: bool = False

    def as_dict(self) -> dict:
        """The certificate's fields without the constants label and the
        degenerate flag."""
        out = asdict(self)
        del out["constants"], out["degenerate"]
        return out


def certify_neighborhood(alpha: float, constants: str = "printed") -> CertificationReport:
    """Lower-bound the proportion of primes with nonnegative partial sum at
    the given alpha near 1/3.

    delta = |alpha - 1/3|; squared-distance bounds D∓ = k∓ * delta^(2/3)
    with prefactors (94, 282) as printed or (~95.2, ~285.7) recomputed from
    3/pi^2 resp. 9/pi^2 times 313.3; thresholds u∓ optimized;
    P_neg∓ = negativity_bound(SIGMA2, D∓, u∓), capped at 1; the final
    bound is c_lower = 1 - (P_neg_minus + P_neg_plus)/2.  certified means
    delta <= 2e-6 and c_lower >= 0.534.
    """
    if constants == "printed":
        k_minus, k_plus = PRINTED
    elif constants == "recomputed":
        k_minus, k_plus = RECOMPUTED
    else:
        raise ValueError(f"constants must be 'printed' or 'recomputed', got {constants!r}")
    delta = abs(alpha - 1 / 3)
    d23 = delta ** (2 / 3)
    d_minus, d_plus = k_minus * d23, k_plus * d23
    if delta == 0:
        return CertificationReport(
            alpha=alpha, delta=0.0, d_minus=0.0, d_plus=0.0,
            u_minus=0.0, u_plus=0.0, p_neg_minus=0.0, p_neg_plus=0.0,
            c_lower=1.0, certified=True, constants=constants, degenerate=True,
        )
    opt_minus = optimize_u(SIGMA2, d_minus)
    opt_plus = optimize_u(SIGMA2, d_plus)
    p_minus = min(negativity_bound(SIGMA2, d_minus, opt_minus.u), 1.0)
    p_plus = min(negativity_bound(SIGMA2, d_plus, opt_plus.u), 1.0)
    c_lower = 1 - (p_minus + p_plus) / 2
    return CertificationReport(
        alpha=alpha,
        delta=delta,
        d_minus=d_minus,
        d_plus=d_plus,
        u_minus=opt_minus.u,
        u_plus=opt_plus.u,
        p_neg_minus=p_minus,
        p_neg_plus=p_plus,
        c_lower=c_lower,
        certified=delta <= 2e-6 * (1 + 1e-9) and c_lower >= 0.534,
        constants=constants,
        degenerate=opt_minus.degenerate or opt_plus.degenerate,
    )
