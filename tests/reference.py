"""Reference computations the tests compare the package against."""

import math
from fractions import Fraction

import mpmath
import numpy as np

from legsums.primes import primes_up_to
from legsums.randmodel import (
    CharTable,
    CoefficientSpec,
    RationalDecomposition,
    Term,
    _euler_sum,
    decompose_rational,
    prime_sign_matrix,
)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by binary reciprocity.

    Coincides with the Legendre symbol when n is an odd prime; fully
    multiplicative in both arguments; 0 iff gcd(a, n) > 1.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs positive odd n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


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


def prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 1 with multiplicity, in increasing order,
    by trial division."""
    factors, p = [], 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    return factors + [n] if n > 1 else factors


# --------------------------------------------------------------------------
# the decomposition rows typed by hand, the oracle for decompose_rational

def _principal(q: int, name: str) -> CharTable:
    values = tuple(1.0 if math.gcd(r, q) == 1 else 0.0 for r in range(q))
    return CharTable(name=name, period=q, values=values)


CHI_0_2 = _principal(2, "chi_0_2")
CHI_0_3 = _principal(3, "chi_0_3")
CHI_0_5 = _principal(5, "chi_0_5")
CHI_0_6 = _principal(6, "chi_0_6")
LEG3 = CharTable("legendre_mod3", 3, (0, 1, -1))
LEG5 = CharTable("legendre_mod5", 5, (0, 1, -1, -1, 1))
CHI4 = CharTable("chi4", 4, (0, 1, 0, -1))
CHI6 = CharTable("chi6", 6, (0, 1, 0, 0, 0, -1))
KRON_M2 = CharTable("kronecker_-2", 8, (0, 1, 0, 1, 0, -1, 0, -1))
KRON_P2 = CharTable("kronecker_2", 8, (0, 1, 0, -1, 0, -1, 0, 1))
CHI12 = CharTable("chi4*chi_0_3", 12, (0, 1, 0, 0, 0, 1, 0, -1, 0, 0, 0, -1))
KRON12 = CharTable("kronecker_12", 12, (0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1))
KAPPA = CharTable("kappa_mod5", 5, (0, 1, 1j, -1j, -1))
KAPPA_BAR = CharTable("kappa_mod5_bar", 5, tuple(complex(v).conjugate() for v in KAPPA.values))

#: quintic amplitudes: sin(2 pi n / 5) = ((A - iB)/2) kappa(n) + conj term
QUINTIC_A = math.sqrt((5 + math.sqrt(5)) / 8)
QUINTIC_B = math.sqrt((5 - math.sqrt(5)) / 8)

_SQ3_2 = math.sqrt(3) / 2
_SQ2_2 = math.sqrt(2) / 2

#: the 1/q rows, keyed by (q, parity); b/q follows in hand_decomposition
HAND_ROWS: dict[tuple[int, str], tuple[Term, ...]] = {
    (1, "plus"): (),
    (1, "minus"): (),
    (2, "plus"): (),
    (2, "minus"): (Term(2, CHI_0_2),),
    (3, "plus"): (Term(_SQ3_2, LEG3),),
    (3, "minus"): (Term(1.5, CHI_0_3),),
    (4, "plus"): (Term(1, CHI4),),
    (4, "minus"): (Term(1, CHI_0_2), Term(2, CHI_0_2, 2)),
    (6, "plus"): (Term(_SQ3_2, CHI6), Term(_SQ3_2, LEG3, 2)),
    (6, "minus"): (
        Term(2, CHI_0_2, 3),
        Term(0.5, CHI_0_3),
        Term(1, CHI_0_3, 2),
    ),
    (8, "plus"): (Term(_SQ2_2, KRON_M2), Term(1, CHI4, 2)),
    (8, "minus"): (
        Term(1, CHI_0_2),
        Term(1, CHI_0_2, 2),
        Term(2, CHI_0_2, 4),
        Term(-_SQ2_2, KRON_P2),
    ),
    (12, "plus"): (
        Term(0.5, CHI12),
        Term(_SQ3_2, CHI6, 2),
        Term(1, CHI4, 3),
        Term(_SQ3_2, LEG3, 4),
    ),
    (12, "minus"): (
        Term(-_SQ3_2, KRON12),
        Term(1, CHI_0_2),
        Term(0.5, CHI_0_6, 2),
        Term(1.5, CHI_0_3, 4),
        Term(2, CHI_0_2, 6),
    ),
    (5, "plus"): (
        Term((QUINTIC_A - 1j * QUINTIC_B) / 2, KAPPA),
        Term((QUINTIC_A + 1j * QUINTIC_B) / 2, KAPPA_BAR),
    ),
    # NB: the coefficient pair here is (5/4, sqrt(5)/4); that is what the
    # listed one-period values force (solve at n = 1, 2).
    (5, "minus"): (Term(1.25, CHI_0_5), Term(-math.sqrt(5) / 4, LEG5)),
}


def hand_decomposition(alpha: Fraction, parity: str) -> RationalDecomposition:
    """The hand row of alpha = b/q: a_n(b/q) = a_{bn}(1/q), and every
    dilation d of a 1/q row divides q while gcd(b, q) = 1, so d | bn iff
    d | n and chi(bn/d) = chi(b) chi(n/d).  The b/q row is thus the 1/q
    row with each coefficient times chi(b)."""
    b = alpha.numerator
    terms = tuple(Term(t.coeff * t.chi.values[b % t.chi.period], t.chi, t.dilation)
                  for t in HAND_ROWS[alpha.denominator, parity])
    return RationalDecomposition(terms=terms)


def decomposition_coefficients(decomp: RationalDecomposition, N: int) -> np.ndarray:
    """a_1 .. a_N summed from the terms of a decomposition."""
    n = np.arange(1, N + 1)
    total = np.zeros(N, dtype=complex)
    for t in decomp.terms:
        hit = n % t.dilation == 0
        total[hit] += t.coeff * t.chi.on(n[hit] // t.dilation)
    return total.real


def period_lcm(decomp: RationalDecomposition) -> int:
    """A common period of every term of a decomposition."""
    return math.lcm(1, *(t.chi.period * t.dilation for t in decomp.terms))


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


def fourier_direct(alpha, p: int, M: int) -> float:
    """Pólya's truncated expansion of L(alpha, p) summed term by term:
    (sqrt(p)/pi) sum_{m <= M} (m/p) a_m / m, with the sine coefficients for
    p ≡ 1 (mod 4) and the 1 - cos ones for p ≡ 3 (mod 4)."""
    m = np.arange(1, M + 1)
    chi = legendre_values(p)[m % p]
    terms = CoefficientSpec("plus" if p % 4 == 1 else "minus", alpha).coefficients(M) / m
    return math.sqrt(p) / math.pi * float(np.sum(terms * chi))


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


# --------------------------------------------------------------------------
# class numbers one prime at a time, the oracle for charsum's sieved table

def class_number_h(p: int) -> int:
    """Class number h(-p) for p ≡ 3 (mod 4), by counting reduced binary
    quadratic forms (a, b, c) of discriminant b^2 - 4ac = -p.

    Reduced means |b| <= a <= c with b > 0 whenever |b| = a or a = c.
    Independent of any L-function machinery; O(p) work.
    """
    count = 0
    a = 1
    while 3 * a * a <= p:
        # -p ≡ b^2 (mod 4) forces b odd
        for b in range(1, a + 1, 2):
            num = b * b + p
            if num % (4 * a) == 0:
                c = num // (4 * a)
                if c >= a:
                    count += 1  # the b > 0 form
                    if b != a and a != c:
                        count += 1  # its distinct -b companion
        a += 1
    return count


# --------------------------------------------------------------------------
# the Dirichlet series of tau(n^2), zeta(s)^3 / zeta(2s), that checks the
# constant of tails.zeta_ratio_check

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


def tau_square_partial(N: int, s: float) -> float:
    """sum_{n<=N} tau(n^2)/n^s"""
    n = np.arange(1, N + 1, dtype=np.float64)
    return float(np.sum(tau_of_square(N)[1:] / n**s))


def s2_target() -> float:
    """zeta(2)^3 / zeta(4), the series at s = 2"""
    with mpmath.workdps(20):
        return float(mpmath.zeta(2) ** 3 / mpmath.zeta(4))
