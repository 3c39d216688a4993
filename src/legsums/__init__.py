"""Exact Legendre-symbol partial sums, their positivity densities across
primes, and a random completely multiplicative model with a certified
positivity lower bound near alpha = 1/3.

The interface is the modules: ``legsums.primes``, ``legsums.charsum``,
``legsums.randmodel`` (whose series engine also evaluates a prime's truncated
Fourier reconstruction, the prime as one sample row) and ``legsums.tails``.
"""

from . import charsum, primes, randmodel, tails

__version__ = "0.1.0"
