"""Exact Legendre-symbol partial sums, their positivity densities across
primes, and a random completely multiplicative model with a certified
positivity lower bound near alpha = 1/3.

The interface is the modules: ``legsums.primes``, ``legsums.charsum``,
``legsums.fourier``, ``legsums.randmodel`` and ``legsums.tails``.
"""

from . import charsum, fourier, primes, randmodel, tails

__version__ = "0.1.0"
