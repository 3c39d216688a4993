"""Truncated Fourier reconstructions of the Legendre partial sums."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .charsum import Alpha, _quadratic_residues
from .primes import is_prime
from .randmodel import CoefficientSpec

__all__ = [
    "BoundaryAlphaError",
    "fourier_partial",
]


class BoundaryAlphaError(ValueError):
    """alpha*p is an integer: the pointwise Fourier identity excludes it."""


def _legendre_values(p: int) -> np.ndarray:
    """(n/p) for n = 0..p-1 as an int8 array."""
    chi = -np.ones(p, dtype=np.int8)
    chi[_quadratic_residues(p)] = 1
    chi[0] = 0
    return chi


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
    # numpy's pairwise sum, not BLAS's np.dot: OpenBLAS may split a long dot
    # product across threads, and the printed value would then depend on
    # the thread count
    return math.sqrt(p) / math.pi * float(np.sum(terms * chi))

