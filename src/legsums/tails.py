"""The positivity certificate near alpha = 1/3 and the constants behind it.

The chain: the logarithm of the Euler-product form of the alpha = 1/3 series
is a weighted sum of independent signs whose squared weights sum to less
than SIGMA2 (`sigma2_one_third`), hence sub-Gaussian; the mean squared
distance the series moves when alpha shifts by delta is at most a prefactor
times delta^(2/3) (`distance_bound`, whose 92 rests on `zeta_ratio_check`);
`negativity_bound`, at the threshold from `optimize_u`, bounds the
probability that the shifted series is negative, and `certify_neighborhood`
turns that into a lower bound on the positivity proportion for every alpha
in a small neighborhood of 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .primes import primes_up_to


SIGMA2 = 0.395  # certified upper bound for the alpha = 1/3 sign variance


# --------------------------------------------------------------------------
# the negativity bound

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


def optimize_u(sigma2: float, D: float) -> UOptimum:
    """Minimize u -> negativity_bound(sigma2, D, u) over (0, 1).

    With s = -ln(u) the bound falls in s exactly where
    h(s) = ln(s / (4 sigma2)) - s^2 / (8 sigma2) - s exceeds ln(D).  h is
    strictly concave (h'' = -1/s^2 - 1/(4 sigma2)) and peaks at
    s* = 2 sqrt(sigma2 (sigma2 + 1)) - 2 sigma2, so the only interior
    minimum is the root of h = ln(D) above s*, found by bisection to the
    last float.  If h(s*) <= ln(D) the bound only grows with s; u = exp(-s*)
    is returned, with a value >= 1.  D = 0 gives the limit optimum (0, 0).
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if D < 0:
        raise ValueError("D must be nonnegative")
    if D == 0:
        return UOptimum(u=0.0, value=0.0)

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
    return UOptimum(u=u, value=negativity_bound(sigma2, D, u))


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
# the divisor-series constant

@dataclass(frozen=True)
class ZetaRatioReport:
    """The constant zeta(4/3)^3 / zeta(8/3), from mpmath, and N as the
    caller gave it: no partial sum of the Dirichlet series is computed
    here, so N only names the length to which a caller may check one."""

    N: int
    ratio: float          # zeta(4/3)^3 / zeta(8/3)
    scaled: float         # ratio * 2^(4/3)

    @property
    def below_92(self) -> bool:
        return self.scaled < 92


def zeta_ratio_check(N: int = 1_000_000) -> ZetaRatioReport:
    """The Dirichlet series of tau(n^2) at s is zeta(s)^3/zeta(2s); at
    s = 4/3, the value times 2^(4/3) stays below 92."""
    with mpmath.workdps(20):
        ratio = float(mpmath.zeta(mpmath.mpf(4) / 3) ** 3 / mpmath.zeta(mpmath.mpf(8) / 3))
    return ZetaRatioReport(N=N, ratio=ratio, scaled=ratio * 2 ** (4 / 3))


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
    opt_minus = optimize_u(SIGMA2, d_minus)
    opt_plus = optimize_u(SIGMA2, d_plus)
    p_minus = min(opt_minus.value, 1.0)
    p_plus = min(opt_plus.value, 1.0)
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
    )
