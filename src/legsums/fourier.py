"""Fourier-side identities: interval coefficients, quadratic Gauss sums, and
truncated reconstructions of the Legendre partial sums."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .charsum import Alpha, _quadratic_residues
from .primes import is_prime
from .randmodel import CoefficientSpec

__all__ = [
    "BoundaryAlphaError",
    "fourier_coeff",
    "gauss_sum",
    "gauss_sum_closed_form",
    "fourier_partial",
    "twisted_sum_check",
]


class BoundaryAlphaError(ValueError):
    """alpha*p is an integer: the pointwise Fourier identity excludes it."""


def fourier_coeff(alpha: float, m: int) -> complex:
    """Fourier coefficient of the periodic indicator of [0, alpha]."""
    if m == 0:
        return complex(alpha)
    return (1 - cmath.exp(-2j * math.pi * alpha * m)) / (2j * math.pi * m)


def _legendre_values(p: int) -> np.ndarray:
    """(n/p) for n = 0..p-1 as an int8 array."""
    chi = -np.ones(p, dtype=np.int8)
    chi[_quadratic_residues(p)] = 1
    chi[0] = 0
    return chi


def gauss_sum(p: int) -> complex:
    """Quadratic Gauss sum by direct summation of e^{2πin/p} (n/p)."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"gauss_sum needs an odd prime, got {p}")
    n = np.arange(p)
    chi = _legendre_values(p)
    return complex(np.sum(chi * np.exp(2j * math.pi * n / p)))


def gauss_sum_closed_form(p: int) -> complex:
    """sqrt(p) for p ≡ 1 (mod 4), i*sqrt(p) for p ≡ 3 (mod 4)."""
    if p % 4 == 1:
        return complex(math.sqrt(p))
    return 1j * math.sqrt(p)


def _check_not_boundary(alpha: Alpha, p: int) -> None:
    """A float alpha is the dyadic rational it stores, so the test is exact."""
    if (Fraction(alpha) * p).denominator == 1:
        raise BoundaryAlphaError(f"alpha*p integral for alpha={alpha}, p={p}")


def fourier_partial(alpha: Alpha, p: int, M: int) -> float:
    """Truncated Fourier reconstruction of the Legendre partial sum.

    The +m/-m terms are paired analytically, which turns the series into the
    model's sine coefficients (CoefficientSpec 'plus') for p ≡ 1 (mod 4) and
    its 1 - cos ones ('minus') for p ≡ 3 (mod 4); the truncation is real.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if p == 2 or not is_prime(p):
        raise ValueError(f"fourier_partial needs an odd prime, got {p}")
    _check_not_boundary(alpha, p)
    m = np.arange(1, M + 1)
    chi = _legendre_values(p)[m % p].astype(np.float64)
    terms = CoefficientSpec("plus" if p % 4 == 1 else "minus", alpha).coefficients(M) / m
    return math.sqrt(p) / math.pi * float(np.dot(terms, chi))


def twisted_sum_check(alpha: Alpha, p: int, N: int) -> float:
    """Largest twisted character sum up to N, relative to sqrt(p)*ln(p).

    Returns max over N' <= N of |sum_{n<=N'} e^{2πi alpha n} (n/p)| divided
    by sqrt(p)*ln(p).  Values well above 1 indicate a bug, not a disproof.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if p == 2 or not is_prime(p):
        raise ValueError(f"twisted_sum_check needs an odd prime, got {p}")
    a = float(alpha)
    n = np.arange(1, N + 1)
    chi = _legendre_values(p)[n % p].astype(np.float64)
    partial = np.cumsum(np.exp(2j * math.pi * a * n) * chi)
    return float(np.max(np.abs(partial))) / (math.sqrt(p) * math.log(p))

