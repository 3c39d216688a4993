"""Exact partial sums of Legendre symbols and positivity density scans.

The central quantity is L(alpha, p), the partial sum of (n/p) over
1 <= n <= m = floor(alpha*p).  The cutoff m is computed in exact integer
arithmetic for every alpha, floats included: a float is a dyadic rational.
Every count works on the squares k^2 for 1 <= k <= (p-1)/2, whose residues
mod an odd prime p are the quadratic residues, each once, so that
L(alpha, p) = 2 #{k : k^2 mod p <= m} - m.  One driver, _count_spans,
cuts a scan's primes into spans at 131071 and builds the read-only tables of
squares: one uint32 table for the span up to 131071, on the calling thread,
and one uint64 table that every span above shares across threads.  Each
span counts in one of two ways:

- Residues.  The squares are reduced mod p once per prime (three array
  passes) and compared with every cutoff (two passes per alpha).  Scans with
  several alphas run this, and so does legendre_sum, a one-prime run of it.
- Floor sum.  A scan with one alpha counts
  #{k : k^2 mod p > m} = sum_k floor((k^2 + p - 1 - m)/p) - B_p
  in three passes per prime and no comparison, with
  B_p = sum_k floor(k^2/p) = (sum_k k^2 - S_p)/p.  The quadratic residues
  sum to S_p = p(p-1)/4 for p ≡ 1 (mod 4), and to p(p-1-2h(-p))/4 for
  p ≡ 3 (mod 4), p > 3, by Dirichlet's class number formula (Davenport,
  *Multiplicative Number Theory*, ch. 6).  The class numbers h(-p) of a
  scan's primes come from one sieve of reduced binary quadratic forms.

dirichlet_checks checks that table: it counts the half-length sums of every
odd prime up to a bound from the residues, which read no class number, and
returns them beside L(1/2, p) = (2 - (2/p)) h(-p), read from the table.

The floor sum costs three passes per alpha against the residues' two, so it
would slow a scan with several alphas, and sieving the class numbers up to
one large prime costs O(p^{3/2}) where its residues cost O(p).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .primes import first_primes, is_prime, primes_up_to

Alpha = Fraction | float | int


def parse_alpha(text: str) -> Alpha:
    """Parse an alpha argument: 'a/b' gives an exact Fraction, else float."""
    if "/" in text:
        return Fraction(text)
    return float(text)


def alpha_cutoff(alpha: Alpha, p):
    """floor(alpha * p) in exact integer arithmetic.

    A float alpha is taken as the dyadic rational it stores, so the result
    never depends on how alpha*p would round.  p is an int, or an integer
    array giving an int64 array of cutoffs.
    """
    if not (0 <= alpha < 1):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    a = Fraction(alpha)
    num, den = a.numerator, a.denominator
    if np.ndim(p) == 0:
        return (num * int(p)) // den
    return np.array([(num * q) // den for q in np.asarray(p).tolist()], dtype=np.int64)


# --------------------------------------------------------------------------
# the residue primitive

_LAST_UINT32_PRIME = 2 * math.isqrt(np.iinfo(np.uint32).max) + 1  # 131071, the 12251st prime
_BLOCK = 2**11  # the primes of a span whose cutoffs are held at once


def _squares(h: int) -> np.ndarray:
    """k^2 for 1 <= k <= h, read-only, in the narrowest unsigned dtype that
    holds h^2 (uint32 up to h = 65535, that is p <= 131071; uint64 above).

    The same dtype holds k^2 + 2h <= (h+1)^2 - 1, the largest value the floor
    count forms: at h = 65535 that is exactly 2^32 - 1."""
    dtype = np.uint32 if 2 * h + 1 <= _LAST_UINT32_PRIME else np.uint64
    k = np.arange(1, h + 1, dtype=dtype)
    np.multiply(k, k, out=k)
    k.flags.writeable = False
    return k


def _reduce_squares(squares: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """k^2 mod p for 1 <= k <= (p-1)/2, written into out[:(p-1)/2].

    For an odd prime p these are the quadratic residues, each exactly once.
    squares comes from _squares(h) with h >= (p-1)/2; out is a buffer of the
    same dtype, distinct from squares.  The remainder is taken as
    k^2 - (k^2 // p) * p: numpy divides an array by a scalar through a
    precomputed multiplier, which is several times faster than np.remainder.
    """
    h = (p - 1) // 2
    sq, r = squares[:h], out[:h]
    np.floor_divide(sq, p, out=r)
    np.multiply(r, p, out=r)
    return np.subtract(sq, r, out=r)


def legendre_sum(alpha: Alpha, p: int) -> int:
    """Exact partial sum of Legendre symbols (n/p) for n <= floor(alpha*p).

    A one-prime, one-alpha run of the density sweep's residue count.  For
    p = 2 every symbol in the range is taken as 0, so the sum is 0 (see
    DensityReport for why p = 2 participates in scans at all).
    """
    if not is_prime(p):
        raise ValueError(f"legendre_sum needs a prime, got {p}")
    return int(_scan_chunk([alpha], _squares((p - 1) // 2), np.array([p]))[0, 0])


# --------------------------------------------------------------------------
# density scans

@dataclass(frozen=True)
class DensityReport:
    """Counts of primes with nonnegative / strictly positive partial sums.

    The scan covers the first ``prime_count`` primes including p = 2, whose
    partial sum is 0 by convention and therefore lands in zero_count; p = 2
    belongs to neither mod-4 class, so
    nonneg_1mod4 + nonneg_3mod4 + 1 == nonneg_count.
    """

    alpha: Alpha
    prime_count: int
    nonneg_count: int
    strict_pos_count: int
    zero_count: int
    nonneg_1mod4: int
    nonneg_3mod4: int


def _scan_chunk(alphas, squares: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """L(alpha_j, p_i) for the chunk's primes from the residues, as an int64
    array with one row per alpha.

    squares is a shared table (_squares) that reaches the chunk's largest
    prime; the chunk reads it up to that prime, and the residue and mask
    buffers are its own.  The primes are walked in blocks of _BLOCK, and a
    block's cutoffs are computed when it is reached, so the chunk holds
    O(_BLOCK) Python objects however many primes it counts.
    """
    squares = squares[: (int(primes[-1]) - 1) // 2]
    residues = np.empty_like(squares)
    mask = np.empty(len(squares), dtype=bool)
    sums = np.zeros((len(alphas), len(primes)), dtype=np.int64)
    for a in range(0, len(primes), _BLOCK):
        block = primes[a : a + _BLOCK]
        cutoffs = np.stack([alpha_cutoff(alpha, block) for alpha in alphas], axis=1)
        for i, (p, ms) in enumerate(zip(block.tolist(), cutoffs.tolist()), a):
            if p == 2:  # L(alpha, 2) = 0 by convention (see DensityReport)
                continue
            r = _reduce_squares(squares, p, out=residues)
            below = mask[: len(r)]
            sums[:, i] = [2 * np.count_nonzero(np.less_equal(r, m, out=below)) - m for m in ms]
    return sums


def _floor_chunk(alpha: Alpha, squares: np.ndarray, primes: np.ndarray,
                 offsets: np.ndarray) -> np.ndarray:
    """L(alpha, p_i) for the chunk's primes and one alpha, from the floor sum,
    as an int64 array.

    offsets[i] = B_{p_i} (_floor_offsets).  The squares, the buffer and the
    blocks are as in _scan_chunk.  The sum over k is reduced in the table's
    own dtype and may wrap around, which does no harm: the count it gives,
    after B_p is taken away modulo the same power of two, lies in
    [0, (p-1)/2].
    """
    squares = squares[: (int(primes[-1]) - 1) // 2]
    shifted = np.empty_like(squares)
    sums = np.empty(len(primes), dtype=np.int64)
    for a in range(0, len(primes), _BLOCK):
        block = primes[a : a + _BLOCK]
        cutoffs = alpha_cutoff(alpha, block)
        totals = np.empty(len(block), dtype=squares.dtype)
        for i, (p, m) in enumerate(zip(block.tolist(), cutoffs.tolist())):
            h = (p - 1) // 2
            t = np.add(squares[:h], p - 1 - m, out=shifted[:h])
            np.floor_divide(t, p, out=t)
            totals[i] = np.add.reduce(t, dtype=t.dtype)
        above = (totals - offsets[a : a + _BLOCK].astype(totals.dtype)).astype(np.int64)
        sums[a : a + _BLOCK] = block - 1 - cutoffs - 2 * above
    sums[primes == 2] = 0
    return sums


# the reduced forms of discriminant -(4j + 3) at index j, sieved on first use
# and again, wider, whenever a lookup reaches past them
_forms_lock = threading.Lock()
_forms = np.zeros(0, dtype=np.int32)


def _count_reduced_forms(limit: int) -> np.ndarray:
    """The number of reduced forms (a, b, c) of discriminant
    b^2 - 4ac = -(4j + 3), for every 4j + 3 <= limit.

    Reduced means |b| <= a <= c with b > 0 whenever |b| = a or a = c.  b is
    odd, so j = ac - (b^2 + 3)/4, and as c runs up from a each (a, b) adds an
    arithmetic progression of step a in j.  O(limit^{3/2}) work in about
    limit/12 strided adds, one per (a, b).
    """
    counts = np.zeros((limit - 3) // 4 + 1, dtype=np.int32)
    a = 1
    while 3 * a * a <= limit:
        for b in range(1, a + 1, 2):
            j = a * a - (b * b + 3) // 4
            if j < len(counts):
                counts[j] += 1  # c = a: the b > 0 form only
                counts[j + a :: a] += 2 if b < a else 1  # c > a: ±b unless b = a
        a += 1
    return counts


def _class_numbers(primes: np.ndarray) -> np.ndarray:
    """h(-p) for each p ≡ 3 (mod 4) of the ascending array primes, and 0 for
    every other prime, read from the module's table of reduced forms."""
    global _forms
    top = int(primes[-1])
    with _forms_lock:
        if len(_forms) <= (top - 3) // 4:
            _forms = _count_reduced_forms(top)
        forms = _forms
    three = primes % 4 == 3
    class_numbers = np.zeros_like(primes)
    class_numbers[three] = forms[primes[three] // 4]
    return class_numbers


def _floor_offsets(primes: np.ndarray) -> np.ndarray:
    """B_p = sum_{k <= (p-1)/2} floor(k^2/p) for each prime of the ascending
    array primes (0 at p = 2).

    With h = (p-1)/2, sum_k k^2 = h(h+1)p/6, so B_p = (h(h-2) + 3h(-p))/6 for
    p ≡ 3 (mod 4), p > 3, and h(h-2)/6 for p ≡ 1 (mod 4).  At p = 3, where
    S_3 = 1, the floor of (h(h-2) + 3h(-3))/6 = 2/6 is B_3 = 0 all the same.
    """
    h = (primes - 1) // 2
    return (h * (h - 2) + 3 * _class_numbers(primes)) // 6


def _tally(alpha: Alpha, sums: np.ndarray, mod4: np.ndarray) -> DensityReport:
    """The report of one row of partial sums, with mod4 = primes % 4."""
    nonneg, strict = sums >= 0, sums > 0
    one, three = mod4 == 1, mod4 == 3
    masks = (nonneg, strict, sums == 0, nonneg & one, nonneg & three)
    return DensityReport(alpha, len(sums), *(int(np.count_nonzero(m)) for m in masks))


def _count_spans(primes: np.ndarray, chunk, *columns, threads: int | None = None) -> np.ndarray:
    """chunk(squares, primes[a:b], *(c[..., a:b] for c in columns)) over spans
    [a, b) covering the ascending primes, joined in order on the last axis.

    The primes up to 131071 are one span on the calling thread, and their
    squares one uint32 table up to the largest of them.  Those above share
    one uint64 table up to the largest prime, in four spans per worker over
    min(threads, usable cores) workers, or in one more span on the calling
    thread for one worker.  The tables are read-only (_squares): each span
    allocates only its own buffers, and the tables are dropped when the
    count returns.
    """
    def scan(squares, a, b):
        return chunk(squares, primes[a:b], *(c[..., a:b] for c in columns))

    split, n = int(np.searchsorted(primes, _LAST_UINT32_PRIME, side="right")), len(primes)
    parts = [scan(_squares((int(primes[split - 1]) - 1) // 2), 0, split)] if split else []
    if split < n:
        wide = _squares((int(primes[-1]) - 1) // 2)
        cores = len(os.sched_getaffinity(0))
        workers = cores if threads is None else min(threads, cores)
        if workers <= 1:
            parts.append(scan(wide, split, n))
        else:
            # a prime costs O(p): spans of equal sums of p keep the workers even
            work = np.cumsum(primes[split:])
            cuts = split + np.searchsorted(work, np.linspace(0, work[-1], 4 * workers + 1)[1:-1])
            bounds = [split, *cuts.tolist(), n]
            spans = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts += pool.map(lambda span: scan(wide, *span), spans)
    return np.concatenate(parts, axis=-1)


def density_sweep(alphas, sizes, threads: int | None = None) -> list[list[DensityReport]]:
    """Density reports for every alpha and every prime count, in one pass.

    One alpha is counted from the floor sum; several alphas from the
    residues, which the first max(sizes) primes are reduced to once each
    (see the module docstring).  One squares table per dtype serves the
    spans on its side of 131071; each span computes its cutoffs a block of
    _BLOCK primes at a time, so the sweep holds no cutoff list over all its
    primes, and its sums are one int64 array.  Each size is read off as a
    prefix of those sums.  Returns reports[i][j] for alphas[i], sizes[j].
    The counts are integer-exact and independent of the thread count and
    the block size.

    The first 12251 primes (up to 131071) are counted on the calling thread,
    those above in at most threads workers, one per usable core by default
    (_count_spans).  On 2 cores five alphas over 10^4 and 3*10^4 primes took
    0.63 and 7.5 s so; as one span on one thread 0.66 and 12.6 s, and split
    into 16 spans at threads=4 1.39 and 8.3 s (medians of 3 processes).
    """
    alphas, sizes = list(alphas), list(sizes)
    if not alphas or not sizes:
        raise ValueError("need at least one alpha and one prime count")
    if min(sizes) < 1:
        raise ValueError(f"prime counts must be >= 1, got {sizes}")
    for alpha in alphas:  # alpha_cutoff rejects an alpha outside [0, 1), before any sieve
        alpha_cutoff(alpha, 0)
    primes = first_primes(max(sizes))
    if len(alphas) == 1:
        chunk = partial(_floor_chunk, alphas[0])
        sums = _count_spans(primes, chunk, _floor_offsets(primes), threads=threads)[None]
    else:
        sums = _count_spans(primes, partial(_scan_chunk, alphas), threads=threads)
    mod4 = primes % 4
    return [[_tally(alpha, row[:n], mod4[:n]) for n in sizes] for alpha, row in zip(alphas, sums)]


def density_scan(alpha: Alpha, num_primes: int, threads: int | None = None) -> DensityReport:
    """The report of the first num_primes primes: a one-alpha, one-size density_sweep."""
    return density_sweep([alpha], [num_primes], threads=threads)[0][0]


def dirichlet_checks(max_p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of the class-number identity for the half-length sum at
    every odd prime p <= max_p: the primes, L(1/2, p) and (2 - (2/p)) h(-p),
    as three int64 arrays.

    For p ≡ 1 (mod 4) the sum is 0; for p ≡ 3 (mod 4), p > 3, it equals
    (2 - (2/p)) * h(-p), where (2/p) is +1 for p ≡ ±1 (mod 8) and -1
    otherwise.  The sums come from a residue count, which reads no
    class number, split over threads as in density_sweep: at max_p = 300000
    it took 3.1 s on 2 cores, against 5.0 s as one serial count.  h(-p)
    comes from the table the one-alpha scans read.  At p = 3 the identity
    as written does not hold (the two sides are 1 and 3): a caller
    excludes it.
    """
    if max_p < 3:
        raise ValueError(f"dirichlet_checks needs max_p >= 3, got {max_p}")
    primes = primes_up_to(max_p)[1:]
    sums = _count_spans(primes, partial(_scan_chunk, [Fraction(1, 2)]))[0]
    return primes, sums, np.where(np.isin(primes % 8, (1, 7)), 1, 3) * _class_numbers(primes)
