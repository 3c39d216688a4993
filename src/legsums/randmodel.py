"""Random completely multiplicative ±1 sequences and the associated series.

A sample is one seed's row of the sign block `prime_sign_matrix`: an
independent fair ±1 sign for every prime from a counter-based hash of
(seed, prime), so any X_p is computable on its own and Monte Carlo runs are
reproducible regardless of evaluation order or thread count.  X_n extends
the prime signs completely multiplicatively.  An altered sample (pinned
signs, or the Liouville twist X_n -> lambda(n) X_n, which is the negated
row) is a plain int8 row on the same primes, and so is a prime p, whose row
of Legendre symbols gives Pólya's expansion of L(alpha, p) (fourier_partial).

For the sine / (1 - cosine) coefficient families at the supported rational
alphas, the coefficient sequence decomposes into finitely many dilated
periodic completely multiplicative terms, each of which evaluates as an
Euler product.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .primes import is_prime, primes_up_to


# --------------------------------------------------------------------------
# counter-based Rademacher signs

_U = np.uint64
_C1 = _U(0x9E3779B97F4A7C15)
_C2 = _U(0xBF58476D1CE4E5B9)
_C3 = _U(0x94D049BB133111EB)

#: bytes of one block's largest array in every blocked loop of the model,
#: which divides it by that array's bytes per item: 8 for the sign hash's
#: uint64 cells, a product's float64 copy of int8 rows and the fold's
#: float64 a_n / n, and 16 for the xor convolution's pairs (an int64 key
#: and a float64 value).  A block's largest array is one budget, so its
#: temporaries (the hash's second scratch array, the xor block's roughly
#: 70 bytes a pair, 1.1 MB) stay inside a 2 MiB L2 cache
_BLOCK_BYTES = 1 << 18


def _mix(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser but its last xorshift, in place on a uint64
    array; t is a scratch array of z's shape.  The mixing relies on
    wraparound, which numpy's integer array arithmetic never checks."""
    z += _C1
    z ^= np.right_shift(z, _U(30), out=t)
    z *= _C2
    z ^= np.right_shift(z, _U(27), out=t)
    z *= _C3
    return z


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, in place on a uint64 array."""
    z = _mix(z, np.empty_like(z))
    z ^= z >> _U(31)
    return z


def _seeds(seed0: int, start: int, stop: int) -> np.ndarray:
    """The seeds seed0 + start .. seed0 + stop - 1 as the hash reads them:
    uint64, mod 2^64 (so -1 is 2^64 - 1)."""
    return np.arange(start, stop, dtype=np.uint64) + _U(int(seed0) % 2**64)


def prime_sign_matrix(seeds: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """int8 matrix of X_p signs, rows indexed by seed, columns by prime.

    A cell's sign is bit 63 of splitmix64(splitmix64(seed) ^
    splitmix64(p)).  The finaliser's last step z ^= z >> 31 leaves bit 63
    alone, so the cells skip it."""
    hs = _splitmix64(np.array(seeds, dtype=np.uint64))
    hp = _splitmix64(np.array(primes, dtype=np.uint64))
    signs = np.empty((len(hs), len(hp)), dtype=np.int8)
    rows = max(1, _BLOCK_BYTES // (8 * max(len(hp), 1)))
    z, t = np.empty((2, min(rows, len(hs)), len(hp)), dtype=np.uint64)
    for i in range(0, len(hs), rows):
        n = min(rows, len(hs) - i)
        h = _mix(np.bitwise_xor.outer(hs[i : i + n], hp, out=z[:n]), t[:n])
        signs[i : i + n] = np.right_shift(h, _U(63), out=h)  # the sign bit, 0 or 1
    signs *= np.int8(-2)
    signs += np.int8(1)
    return signs


# --------------------------------------------------------------------------
# coefficient families

@dataclass(frozen=True)
class CoefficientSpec:
    """a_n = sin(2 pi n alpha) for parity 'plus', 1 - cos(2 pi n alpha) for
    'minus'."""

    parity: str
    alpha: Fraction | float

    def __post_init__(self):
        if self.parity not in ("plus", "minus"):
            raise ValueError(f"parity must be 'plus' or 'minus', got {self.parity!r}")

    def coefficients(self, N: int) -> np.ndarray:
        """a_1 .. a_N, float64.  For a Fraction alpha = b/q the angle is
        2 pi r/q from the exact residue r = b n mod q, so a_n is periodic in
        n, and it is exactly 0 where n alpha is in Z/2 (plus) or Z (minus,
        where 1 - cos(0) is 0 already).  a_n depends on n only through r,
        so the first min(q, N) terms are computed and tiled: about 8 bytes
        per n.  A float alpha gives 2 pi alpha n."""
        if not isinstance(self.alpha, Fraction):
            theta = 2 * math.pi * float(self.alpha) * np.arange(1, N + 1)
            return np.sin(theta) if self.parity == "plus" else 1 - np.cos(theta)
        b, q = self.alpha.numerator, self.alpha.denominator
        # Python integers where b n could overflow int64
        r = np.arange(1, min(q, N) + 1, dtype=np.int64 if q < 2**31 else object) * (b % q) % q
        theta = 2 * math.pi * (r / q).astype(np.float64)
        if self.parity == "minus":
            a = 1 - np.cos(theta)
        else:
            a = np.sin(theta)
            a[(2 * r % q == 0).astype(bool)] = 0.0
        if len(a) < N:
            a = np.tile(a, -(-N // q))[:N]
        return a


# --------------------------------------------------------------------------
# rational decompositions

@dataclass(frozen=True)
class CharTable:
    """A q-periodic completely multiplicative sequence given by one period.

    values[r] is the value at n ≡ r (mod q).
    """

    name: str
    period: int
    values: tuple[complex, ...]

    def on(self, n: np.ndarray) -> np.ndarray:
        return np.asarray(self.values)[n % self.period]


#: i^k for k = 0..3, exact; 0 - 1j rather than -1j, whose real part is -0.0
_I_POWERS = (1 + 0j, 1j, -1 + 0j, 0 - 1j)


@functools.lru_cache(maxsize=None)
def _characters(m: int) -> tuple[CharTable, ...]:
    """The Dirichlet characters mod m, principal first, each as the table of
    its minimal period.

    They are the homomorphisms from the units mod m to the powers of i,
    found by trying all 4^phi(m) maps (phi(m) <= 4 here).  That is every
    character when each unit's fourth power is 1, true for every m dividing
    the supported denominators, so the values are exactly 0, ±1 and ±i.  A
    table that repeats with a period d < m is a character mod d, and it is
    that one, under its name; the others are chi_0_m (principal) and
    chi_m_k, the k-th here.
    """
    units = [r for r in range(m) if math.gcd(r, m) == 1]
    out = []
    for k in itertools.product(range(4), repeat=len(units)):
        power = dict(zip(units, k))
        if any(power[a * b % m] != (power[a] + power[b]) % 4 for a in units for b in units):
            continue
        values = tuple(_I_POWERS[power[r]] if r in power else 0j for r in range(m))
        d = min(d for d in range(1, m + 1) if m % d == 0 and values == values[:d] * (m // d))
        if d < m:
            out.append(next(chi for chi in _characters(d) if chi.values == values[:d]))
        else:
            out.append(CharTable(f"chi_{m}_{len(out)}" if out else f"chi_0_{m}", m, values))
    assert len(out) == len(units), f"mod {m} has characters of order above 4"
    return tuple(out)


@dataclass(frozen=True)
class Term:
    """One summand coeff * chi(n / dilation) of a coefficient sequence."""

    coeff: complex
    chi: CharTable
    dilation: int = 1


@dataclass(frozen=True)
class RationalDecomposition:
    terms: tuple[Term, ...]


#: the denominators of the paper's rational alphas
_DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 12)

SUPPORTED_ALPHAS = sorted({Fraction(b, q) for q in _DENOMINATORS for b in range(q // 2 + 1)})


def decompose_rational(alpha: Fraction | float | str, parity: str) -> RationalDecomposition:
    """Expand a_n^{±}(alpha) into dilated periodic multiplicative terms.

    For alpha = b/q and each divisor g of q, with m = q/g, the n with
    gcd(n, q) = g are n = g n' with gcd(n', m) = 1, and there
    a_n = f(b n'/m), f = sin(2 pi .) for plus and 1 - cos(2 pi .) for
    minus.  On the units mod m, n' -> f(b n'/m) expands in the characters
    mod m as sum_chi c_chi chi(n'), with
    c_chi = (1/phi(m)) sum_{a in (Z/mZ)*} conj(chi(a)) f((ab mod m)/m)
    (Davenport, Multiplicative Number Theory, ch. 9).  So the row is the
    terms c_chi chi(n/g) over g and chi, zero coefficients dropped.  The
    terms of one dilation are distinct characters mod m, so no two terms
    share a character and a dilation.

    A float alpha is the binary rational it stores: 0.2 is not 1/5.
    """
    exact = Fraction(alpha)
    if exact not in SUPPORTED_ALPHAS or parity not in ("plus", "minus"):
        # a float is named as it prints, which is as it was typed
        spelled = Fraction(str(alpha)) if isinstance(alpha, float) else exact
        hint = ""
        if spelled != exact and spelled in SUPPORTED_ALPHAS:
            hint = f" (a float, not {spelled}: write {spelled} for the fraction)"
        raise ValueError(
            f"no decomposition for alpha={alpha}{hint}, parity={parity}; supported "
            f"alphas: {', '.join(str(a) for a in SUPPORTED_ALPHAS)}"
        )
    b, q = exact.numerator, exact.denominator
    f = math.sin if parity == "plus" else (lambda t: 1 - math.cos(t))
    terms = []
    for g in (g for g in range(1, q + 1) if q % g == 0):
        m = q // g
        units = [a for a in range(m) if math.gcd(a, m) == 1]
        wave = [f(2 * math.pi * (a * b % m) / m) for a in units]
        for chi in _characters(m):
            c = sum(chi.values[a % chi.period].conjugate() * w for a, w in zip(units, wave))
            if abs(c) > 1e-12:  # else zero but for roundoff (sin(pi) is 1.2e-16)
                terms.append(Term(c / len(units), chi, g))
    return RationalDecomposition(terms=tuple(terms))


# --------------------------------------------------------------------------
# Euler-product evaluation

#: every dilation of a decomposition divides its denominator, so X_d reads
#: the signs of the primes up to this alone
_DILATION_LIMIT = max(_DENOMINATORS)


def euler_values_matrix(
    decomp: RationalDecomposition,
    samples: int,
    seed0: int = 0,
    prime_cutoff: int = 1000,
) -> np.ndarray:
    """The series of decomp through its Euler products truncated at the
    prime cutoff, for seeds seed0 .. seed0+samples-1.  Sign identities that
    hold for the infinite object hold here exactly (up to roundoff) at every
    cutoff.  Every term's character must be one of the characters mod the
    supported denominators, as decompose_rational gives them; ValueError
    names any other."""
    small, signs, products = _euler_memo(int(seed0), int(samples), int(prime_cutoff))
    outside = sorted({t.chi.name for t in decomp.terms if t.chi not in products})
    if outside:
        raise ValueError(
            f"no Euler product for {', '.join(outside)}: only the characters mod "
            f"{', '.join(map(str, _DENOMINATORS))} are supported"
        )
    return _euler_sum(decomp.terms, signs, small, prime_cutoff, products).real


@functools.lru_cache(maxsize=1)
def _euler_memo(
    seed0: int, samples: int, prime_cutoff: int
) -> tuple[np.ndarray, np.ndarray, dict[CharTable, np.ndarray]]:
    """For seeds seed0 .. seed0+samples-1, made once for all the (alpha,
    parity) pairs of a run: the primes up to _DILATION_LIMIT, their int8
    sign columns (which X_d reads), and the Euler product at the prime
    cutoff of each character mod a supported denominator.

    One pass over the seeds, a block of rows at a time (_euler_products),
    fills the products in one fixed order, so a product never depends on
    which pair asked first; no samples × primes sign block outlives its
    rows.  Every caller reads the same arrays, so they are read-only.
    """
    primes = primes_up_to(max(prime_cutoff, _DILATION_LIMIT))
    small = primes[: np.searchsorted(primes, _DILATION_LIMIT, side="right")]
    signs = np.empty((samples, len(small)), dtype=np.int8)

    def rows(start: int, stop: int) -> np.ndarray:
        block = prime_sign_matrix(_seeds(seed0, start, stop), primes)
        signs[start:stop] = block[:, : len(small)]
        return block

    chis = tuple(dict.fromkeys(chi for m in _DENOMINATORS for chi in _characters(m)))
    products = dict(zip(chis, _euler_products(chis, primes, prime_cutoff, samples, rows)))
    for array in (signs, *products.values()):
        array.flags.writeable = False
    return small, signs, products


def _euler_sum(
    terms: tuple[Term, ...],
    signs: np.ndarray,
    primes: np.ndarray,
    prime_cutoff: int,
    products: dict | None = None,
) -> np.ndarray:
    """sum of coeff * X_d / d * prod_{p <= P} (1 - chi(p) X_p / p)^{-1} over
    the terms (complex), per row of int8 sign columns on the given primes,
    X_d read from those columns.  The products are given by character (the
    memo's), or else computed over these rows by _euler_products (a pinned
    or twisted sample, or a row of characters outside the memo, whose
    columns hold every prime up to P).  Terms with
    the same character share its product, so they cancel exactly."""
    if products is None:
        chis = tuple(dict.fromkeys(t.chi for t in terms))
        computed = _euler_products(chis, primes, prime_cutoff, len(signs), lambda a, b: signs[a:b])
        products = dict(zip(chis, computed))
    total = np.zeros(len(signs), dtype=complex)
    for t in terms:
        core = int(squarefree_core(t.dilation)[t.dilation])  # X_d = X_core(d)
        odd_primes = np.flatnonzero(core % primes == 0)
        if np.prod(primes[odd_primes]) != core:
            raise ValueError(f"dilation {t.dilation} has a prime factor outside the sign columns")
        x_d = np.prod(signs[:, odd_primes], axis=1, dtype=float)
        total += t.coeff / t.dilation * x_d * products[t.chi]
    return total


def _euler_products(
    chis: tuple[CharTable, ...], primes: np.ndarray, prime_cutoff: int, samples: int, rows
) -> list[np.ndarray]:
    """prod_{p <= P} (1 - chi(p) X_p / p)^{-1} per sample for each
    character: float64 for a character real at every prime, else complex.
    rows(start, stop) gives the int8 sign rows start .. stop-1 on the given
    primes, asked for _BLOCK_BYTES // (8 × primes) rows at a time (195 at
    P = 1000, 26 at 10^4), so one block's float64 copy of _BLOCK_BYTES is
    made at a time.

    As X_p = ±1, -log(1 - c X_p / p) = e_p + X_p o_p with e_p and o_p its
    even and odd parts in X_p, so each character's log-product is
    sum_p e_p + signs @ o: one real matmul per block for all the characters,
    complex ones with an imaginary column as well, then exp.
    """
    c = np.array([chi.on(primes) for chi in chis], dtype=complex).reshape(len(chis), len(primes))
    c *= (primes <= prime_cutoff) / primes
    up, down = -np.log1p(-c), -np.log1p(c)  # at X_p = +1 and at X_p = -1
    even_sums, odd = ((up + down) / 2).sum(axis=1), (up - down) / 2
    imag = [j for j in range(len(chis)) if c[j].imag.any()]
    columns = np.concatenate([odd.real, odd[imag].imag]).T
    del c, up, down, odd  # characters × primes each, as complex
    logs = np.empty((samples, columns.shape[1]))
    R = max(1, _BLOCK_BYTES // (8 * len(primes)))
    for r in range(0, samples, R):
        stop = min(r + R, samples)
        logs[r:stop] = rows(r, stop) @ columns
    products = []
    for j in range(len(chis)):
        log = even_sums[j].real + logs[:, j]
        if j in imag:
            log = log + 1j * (even_sums[j].imag + logs[:, len(chis) + imag.index(j)])
        products.append(np.exp(log))
    return products


# --------------------------------------------------------------------------
# batched Monte Carlo

@dataclass(frozen=True)
class _KernelLayout:
    """The squarefree d <= N, one row each.  At most one prime factor Q of
    such a d lies above sqrt(N), so d = m Q with m sqrt(N)-smooth (Q = 1 if
    there is none).

    Rows 0 .. smooth - 1 are the smooth d, ordered by omega(d) (the number
    of prime factors) and then by d: row 0 is d = 1, rows 1 .. small the
    primes up to sqrt(N), and each later row d has the rows of spf(d), its
    smallest prime factor, and of d / spf(d), which has one prime factor
    fewer and so sits in the level before.  The rows after are the d = m Q
    with Q > 1, ordered by m and then by Q, so the Q of one m are a prefix
    of the primes above sqrt(N), and the runs shorten as m grows.

    kernels, large and row_of are in _index_dtype(N), int32 below N = 2^31:
    row_of alone is 4 bytes per n <= N.  The row indices gathered on every
    batch (spf_row, rest_row, m_rows) and once per call (groups, by
    _series_weights) are intp, which numpy would otherwise convert on each
    gather; they span the smooth rows and the groups, not every n.
    """

    kernels: np.ndarray  # d of each row
    large: np.ndarray  # Q of each row
    primes: np.ndarray  # the primes up to N
    small: int  # how many of them are at most sqrt(N)
    smooth: int  # rows with Q = 1
    spf_row: np.ndarray  # of each smooth row
    rest_row: np.ndarray
    levels: tuple[tuple[int, int], ...]  # smooth row ranges of omega = 2, 3, ...
    m_rows: np.ndarray  # the row of each m that has Q > 1 rows, in the order of m
    # consecutive m whose runs are at least half as long as the first one's
    # form a group; per group, the (first run × m) rows of the m Q_j, -1
    # past the end of m's run
    groups: tuple[np.ndarray, ...]
    row_of: np.ndarray  # row_of[n] = row of core(n), for 0 <= n <= N


def _index_dtype(N: int) -> type:
    """The narrowest signed dtype that holds every n <= N, as an index or a
    value: int32 while N < 2^31, int64 above."""
    return np.int32 if N < 2**31 else np.int64


def _kernel_layout(N: int) -> _KernelLayout:
    """The layout of the squarefree d <= N, built in the order of its rows.

    A smooth d > 1 is p r with p = spf(d), where r = d / p has one prime
    factor fewer and none below p.  So each level in omega comes from the
    level before: each r times every small prime below spf(r) that keeps
    the product <= N, whose spf and rest rows are known as it is made, the
    level then sorted by d.  The m Q rows follow, m by m in increasing
    order, Q over the primes in (sqrt(N), N / m].  The only tables over
    0 .. N are row_of (first the row of each kernel, then gathered through
    squarefree_core's table), all in _index_dtype(N): at N = 10^6 the call
    peaks at 22.4 MiB under tracemalloc and keeps 15.6 MiB."""
    dtype = _index_dtype(N)
    primes = primes_up_to(N)
    small = primes[: np.searchsorted(primes, math.isqrt(N), side="right")].astype(dtype)
    # per level in omega: its d in increasing order, and the rows of spf(d) and d / spf(d)
    levels = [(np.ones(1, dtype), np.zeros(1, np.intp), np.zeros(1, np.intp))]
    levels.append((small, np.arange(1, len(small) + 1), np.zeros(len(small), np.intp)))
    first = 1  # the row of the first r
    while len(levels[-1][0]):  # until a level comes out empty
        r, spf_row, _ = levels[-1]
        counts = np.minimum(spf_row - 1, np.searchsorted(small, N // r, side="right"))
        owner = np.repeat(np.arange(len(r)), counts)
        p = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]  # index in small
        d = small[p] * r[owner]
        order = np.argsort(d)
        levels.append((d[order], p[order] + 1, owner[order] + first))
        first += len(r)
    bounds = np.cumsum([0] + [len(level[0]) for level in levels]).tolist()  # the last level is empty
    ds, spf_row, rest_row = (np.concatenate(tables) for tables in zip(*levels))
    smooth = len(ds)
    # the Q of each m are a prefix of the large primes, shorter as m grows
    large_primes = primes[len(small) :].astype(dtype)
    m_rows = np.argsort(ds)
    runs = np.searchsorted(large_primes, N // ds[m_rows], side="right")
    m_rows, runs = m_rows[runs > 0], runs[runs > 0]
    q_runs = [large_primes[:run] for run in runs.tolist()]
    kernels = np.concatenate([ds, *(m * q for m, q in zip(ds[m_rows].tolist(), q_runs))])
    large = np.concatenate([np.ones(smooth, dtype), *q_runs])
    row_of = np.zeros(N + 1, dtype=dtype)  # the row of each kernel, then of each core(n)
    row_of[kernels] = np.arange(len(kernels), dtype=dtype)
    row_of = row_of[squarefree_core(N)]
    starts = smooth + np.cumsum(runs) - runs
    groups = []
    while len(starts):
        k = np.count_nonzero(2 * runs >= runs[0])
        j = np.arange(runs[0])[:, None]
        groups.append(np.where(j < runs[:k], starts[:k] + j, -1))
        starts, runs = starts[k:], runs[k:]
    return _KernelLayout(
        kernels=kernels,
        large=large,
        primes=primes,
        small=len(small),
        smooth=smooth,
        spf_row=spf_row,
        rest_row=rest_row,
        levels=tuple(zip(bounds[2:-2], bounds[3:-1])),
        m_rows=m_rows,
        groups=tuple(groups),
        row_of=row_of,
    )


def _fold(coeff_columns: np.ndarray, layout: _KernelLayout) -> np.ndarray:
    """(kernel rows + 1, C): the sum of a_n / n over the n <= N of each
    row's kernel, one column per column of coeff_columns (N, C), and a last
    row of zeros, which row -1 of a group reads.  X_n = X_core(n), so
    sum_n a_n X_n / n = sum_d w_d X_d.  The n go _BLOCK_BYTES // 8 at a
    time (the float64 a_n / n of a slice) in increasing order, so each sum
    adds its terms in the order a bincount over all n would."""
    N, C = coeff_columns.shape
    weights = np.zeros((len(layout.kernels) + 1, C))
    chunk = _BLOCK_BYTES // 8
    for start in range(0, N, chunk):
        stop = min(start + chunk, N)
        rows = layout.row_of[start + 1 : stop + 1]
        n = np.arange(start + 1, stop + 1, dtype=np.float64)
        for c in range(C):
            np.add.at(weights[:, c], rows, coeff_columns[start:stop, c] / n)
    return weights


def _series_weights(
    coeff_columns: np.ndarray, layout: _KernelLayout
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The folded weights as _series_sum reads them: the smooth rows' (smooth,
    C), and per group of m a (run, m × C) block whose column (i, c) holds
    w_{m_i Q_j} at row j, Q_j the j-th prime above sqrt(N), 0 past m_i's
    run.  The smooth rows are a copy, so the whole folded table is freed
    before the batches run."""
    weights = _fold(coeff_columns, layout)
    blocks = [weights[index].reshape(len(index), -1) for index in layout.groups]
    return weights[: layout.smooth].copy(), blocks


#: samples per sign block of sample_series_matrix, and the width of the
#: series sums' product blocks (_BLOCK_BYTES // (8 × 128) = 256 rows): of
#: 32 .. 512, 128 to 256 tie as fastest at N = 10^4 and 128 to 192 at 10^5
#: (one BLAS thread); the int8 smooth block takes about 0.15 N × 128 bytes,
#: and memory does not grow with samples
_SERIES_BATCH = 128


def _series_sum(
    weights: tuple[np.ndarray, list[np.ndarray]], signs: np.ndarray, layout: _KernelLayout
) -> np.ndarray:
    """sum_d w_d X_d per row of an int8 (samples × primes) sign block, for
    each column of the weights from _series_weights: (samples, C).

    The sum is A_1 + sum_m X_m B_m, with A_1 = sum w_d X_d over the smooth
    d and B_m = sum_Q w_{mQ} X_Q over the primes Q > sqrt(N) with m Q <= N.
    X is kernel-major int8 on the smooth rows only, x[r, s] = X_d for the d
    of row r in sample s.  It is built and summed in one pass of row
    blocks: a block's rows of each omega level in turn are x[spf(d)] *
    x[d / spf(d)], which read only rows of earlier levels, so the gathers
    are one block's.  All the B_m of a group of m come from one product of
    the large-prime signs with its block.
    """
    smooth_weights, blocks = weights
    x = np.empty((layout.smooth, len(signs)), dtype=np.int8)
    x[0] = 1
    x[1 : 1 + layout.small] = signs[:, : layout.small].T
    # from the full batch width, so that a shorter last batch sums its seeds
    # in the same blocks
    R = max(1, _BLOCK_BYTES // (8 * _SERIES_BATCH))
    acc = np.zeros((smooth_weights.shape[1], len(signs)))
    for r in range(0, len(x), R):
        for start, stop in layout.levels:
            lo, hi = max(start, r), min(stop, r + R)
            if lo < hi:
                np.multiply(x[layout.spf_row[lo:hi]], x[layout.rest_row[lo:hi]], out=x[lo:hi])
        acc += smooth_weights[r : r + R].T @ x[r : r + R].astype(np.float64)
    large = signs[:, layout.small :]
    b = np.zeros((len(signs), len(layout.m_rows) * len(acc)))  # B_m per column, m-major
    for c in range(0, large.shape[1], R):
        xq = large[:, c : c + R].astype(np.float64)
        first = 0
        for block in blocks:
            if len(block) <= c:
                break  # the runs shorten from group to group
            b[:, first : first + block.shape[1]] += xq[:, : len(block) - c] @ block[c : c + R]
            first += block.shape[1]
    acc += np.einsum("smc,ms->cs", b.reshape(len(signs), -1, len(acc)), x[layout.m_rows])
    return acc.T


def sample_series_matrix(
    coeff_columns: np.ndarray,
    N: int,
    samples: int,
    seed0: int = 0,
) -> np.ndarray:
    """Evaluate sum a_n X_n / n for many independent samples at once.

    coeff_columns has shape (N, C): column j holds the coefficients a_1..a_N
    of the j-th series.  Sample i uses seed seed0 + i.  Returns (samples, C).
    The seeds are hashed and summed _SERIES_BATCH at a time.
    """
    coeff_columns = np.asarray(coeff_columns, dtype=np.float64)
    if coeff_columns.ndim != 2 or coeff_columns.shape[0] != N:
        raise ValueError(f"coeff_columns must have shape ({N}, C), got {coeff_columns.shape}")
    layout = _kernel_layout(N)
    weights = _series_weights(coeff_columns, layout)
    out = np.empty((samples, coeff_columns.shape[1]))
    for start in range(0, samples, _SERIES_BATCH):
        seeds = _seeds(seed0, start, min(start + _SERIES_BATCH, samples))
        signs = prime_sign_matrix(seeds, layout.primes)
        out[start : start + len(seeds)] = _series_sum(weights, signs, layout)
    return out


def fourier_partial(alpha: Fraction | float, p: int, M: int) -> float:
    """Truncated Fourier reconstruction of the Legendre partial sum L(alpha, p).

    Pólya's expansion with its +m/-m terms paired is the model's series at
    X_n = (n/p): (sqrt(p)/pi) sum_{m <= M} (m/p) a_m / m, with the sine
    coefficients (CoefficientSpec 'plus') for p ≡ 1 (mod 4) and the 1 - cos
    ones ('minus') for p ≡ 3 (mod 4).  The prime is one sample row of the
    series engine.  a_m is set to 0 at the multiples of p, the only n whose
    X_n reads X_p, so the row takes X_p = +1.  A float alpha is the dyadic
    rational it stores, so the boundary test is exact.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if p == 2 or not is_prime(p):
        raise ValueError(f"fourier_partial needs an odd prime, got {p}")
    if (Fraction(alpha) * p).denominator == 1:
        raise ValueError(f"alpha*p integral for alpha={alpha}, p={p}")
    coeffs = CoefficientSpec("plus" if p % 4 == 1 else "minus", alpha).coefficients(M)
    coeffs[p - 1 :: p] = 0.0
    layout = _kernel_layout(M)
    # Euler's criterion: q^((p-1)/2) mod p is p - 1 at the nonresidues q, and
    # 0 at q = p, which takes +1
    residue = [pow(q, (p - 1) // 2, p) != p - 1 for q in layout.primes.tolist()]
    signs = 2 * np.array([residue], dtype=np.int8) - 1
    weights = _series_weights(coeffs[:, None], layout)
    return math.sqrt(p) / math.pi * float(_series_sum(weights, signs, layout)[0, 0])


#: roundoff bound for the sign tests: Euler values that are exactly 0 (at
#: 1/12 and 5/12 plus, whenever X_2 = X_3 = -1) come out as a few 1e-16
_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class PositivityEstimate:
    """Strict (> 0) and nonnegative (>= 0) fractions of sampled values, both
    up to _ZERO_TOL, since some alphas put positive mass at exactly zero."""

    n_samples: int
    strict_fraction: float
    nonneg_fraction: float
    ci95_strict: float
    ci95_nonneg: float

    @staticmethod
    def from_values(values: np.ndarray) -> "PositivityEstimate":
        n = len(values)
        strict = float(np.count_nonzero(values > _ZERO_TOL)) / n
        nonneg = float(np.count_nonzero(values >= -_ZERO_TOL)) / n

        def ci(p):
            return 1.96 * math.sqrt(max(p * (1 - p), 0.0) / n)

        return PositivityEstimate(n, strict, nonneg, ci(strict), ci(nonneg))


def estimate_positivity(
    decomp: RationalDecomposition,
    samples: int,
    seed: int = 0,
    prime_cutoff: int = 1000,
) -> PositivityEstimate:
    """Monte Carlo estimate of the positivity probability of the series: the
    Euler evaluator (euler_values_matrix) at the prime cutoff, on seeds
    seed .. seed+samples-1."""
    return PositivityEstimate.from_values(euler_values_matrix(decomp, samples, seed, prime_cutoff))


# --------------------------------------------------------------------------
# special checks

@dataclass(frozen=True)
class XiStatistics:
    variance: float
    phi: float
    chebyshev_bound: float


def xi_statistics(prime_cutoff: int = 1_000_000) -> XiStatistics:
    """Variance of the quintic-phase random angle, the reference angle phi,
    and the resulting Chebyshev bound on losing the cosine inequality.

    The tail over p > cutoff is bounded rigorously via arctan(1/p) <= 1/p
    and sum_{n > P} 1/n^2 <= 1/P.
    """
    primes = primes_up_to(prime_cutoff)
    sel = primes[np.isin(primes % 5, (2, 3))]
    variance = float(np.sum(np.arctan(1.0 / sel) ** 2))
    phi = math.atan((math.sqrt(5) - 1) / 2)
    threshold = math.pi / 2 - phi
    return XiStatistics(
        variance=variance,
        phi=phi,
        chebyshev_bound=(variance + 1.0 / prime_cutoff) / threshold**2,
    )


# --------------------------------------------------------------------------
# moments

def squarefree_core(N: int) -> np.ndarray:
    """core[n] = largest squarefree divisor d of n with n/d a square, in
    _index_dtype(N)."""
    core = np.arange(N + 1, dtype=_index_dtype(N))
    for p in primes_up_to(math.isqrt(N)).tolist():
        q = p * p
        while q <= N:  # n with p^(2j) | n is divided by p^2 once per j
            core[q::q] //= p * p
            q *= p * p
    return core


def _kernel_weights(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """a_m/m folded onto squarefree kernels: X_m depends only on core(m).

    Returns the kernels d with w_d != 0 in increasing order, their w_d, w
    indexed by d up to the largest kernel, and the prime factor above
    sqrt(N) of each of those kernels (1 if it has none).  The kernels keep
    the layout's dtype, int32 below N = 2^31, whose gcds in
    _block_convolution take about 70 ns against 88 for int64.
    """
    layout = _kernel_layout(len(coeffs))
    w = np.bincount(layout.kernels, weights=_fold(coeffs[:, None], layout)[:-1, 0])
    support = np.flatnonzero(w).astype(layout.kernels.dtype)
    return support, w[support], w, layout.large[layout.row_of[support]]


def moment_direct(coeffs: np.ndarray, k: int) -> float:
    """Exact k-th moment (1 <= k <= 6) of sum_{m<=N} a_m X_m / m over the
    random signs: moment_bundle(coeffs, k)[k]."""
    return moment_bundle(coeffs, k)[k]


def moment_bundle(coeffs: np.ndarray, kmax: int = 4) -> dict[int, float]:
    """Exact moments for k = 1..kmax (kmax <= 6) of S = sum_{m<=N} a_m X_m / m.

    Folded onto squarefree kernels, S = sum_d w_d X_d, and a product of
    kernels has expectation 1 iff its xor product u*v/gcd(u,v)^2 is 1.  A
    squarefree d <= N has at most one prime factor Q > sqrt(N), so
    S = A_1 + sum_Q X_Q A_Q with A_1 and each A_Q sums of w X_m over
    sqrt(N)-smooth m (for A_Q, w_{mQ} with mQ <= N).  The X_Q are
    independent of each other and of the smooth signs, so with c_Q(t) the
    coefficient of X_t in A_Q^2 (the xor self-convolution of group Q, c_1
    that of A_1) and C = sum_{Q>1} c_Q:

        E S^3 = sum_{t<=N} w_t (c_1 + 3 C)(t),
        E S^4 = sum_t (c_1^2 + 6 c_1 C + 3 C^2 - 2 sum_{Q>1} c_Q^2)(t).

    Only the pairs inside one group are enumerated, and never all of them
    at once: _xor_convolution reduces them in blocks of about
    _BLOCK_BYTES // 16 pairs whose keys no other block reaches.  At
    N = 10^4, 1/3 minus, the 920 smooth kernels have 423,660 pairs (32
    blocks) and the 1204 groups Q > 1 have 22,202 (2 blocks); the call
    takes about 0.06 s CPU with a 1.4 MiB tracemalloc peak.  At
    N = 3*10^4, 1/4 plus, the 2684 smooth kernels have 3,603,270 pairs (256
    blocks): about 0.45 s and 3.1 MiB.

    k = 5, 6 average over the 2^r sign vectors of the r primes <= sqrt(N)
    (_cube_moments), so their cost doubles with each such prime: about 4 s
    CPU on one BLAS thread and a 44 MiB tracemalloc peak at N = 10^4
    (r = 25).  r is capped at _CUBE_PRIMES: kmax >= 5 raises ValueError for
    N >= 11449 before any work.
    """
    if not 1 <= kmax <= 6:
        raise ValueError(f"kmax must be in 1..6, got {kmax}")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    N = len(coeffs)
    small = primes_up_to(math.isqrt(N))
    if kmax >= 5 and len(small) > _CUBE_PRIMES:
        raise ValueError(
            f"k >= 5 averages over 2^r sign vectors, r the primes <= sqrt(N); N = {N} has "
            f"r = {len(small)}, above the {_CUBE_PRIMES} allowed (N < 11449)")
    j = np.arange(1, math.isqrt(N) + 1)
    out = {1: float(np.sum(coeffs[j * j - 1] / (j * j)))}
    if kmax >= 2:
        support, weights, w_full, large = _kernel_weights(coeffs)
        out[2] = float(np.sum(weights**2))
    if kmax >= 3:
        out[3], out[4] = _xor_convolution(support, weights, large, w_full)
    if kmax >= 5:
        out[5], out[6] = _cube_moments(support, weights, large, small)
    return {k: out[k] for k in range(1, kmax + 1)}


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum a * b by numpy's pairwise sum in long double: no BLAS thread
    split reaches it, and for the moments it matched math.fsum without
    making a Python float per term (where long double is double, it is the
    float64 pairwise sum)."""
    return float(np.sum(a * b, dtype=np.longdouble))


def _xor_convolution(
    support: np.ndarray, weights: np.ndarray, large: np.ndarray, w_full: np.ndarray
) -> tuple[float, float]:
    """E S^3 and E S^4 of moment_bundle from the xor self-convolutions of
    the kernel groups: support and weights as _kernel_weights gives them,
    large the Q of each kernel, w_full the w_t by t.

    The pairs go through in blocks whose keys no other block reaches, so
    each block is summed per key, reduced into the running sums and dropped.
    The groups Q > 1 come first, whole groups per block: their keys lie
    below len(w_full), so a block adds its c_Q to the dense C and the sum
    of its c_Q^2.  The smooth group is then split by a signature: bit b of
    sig(d) is the parity of the number of prime factors of d whose index i
    among the primes has i mod r = b.  sig is additive under the xor
    product, sig(u*v/gcd(u,v)^2) = sig(u) ^ sig(v), so the keys of the
    pairs with sig(u) ^ sig(v) = s all have signature s, and the 2^r
    blocks, one per s, come out of near equal size at N = 10^4 (the largest
    1.3 times the mean), less so as N grows (10 times at N = 10^5, 1/3
    minus).  Another block size moves the results by a few ulp at most (the
    per-key sums' order).
    """
    order = np.argsort(large, kind="stable")  # by Q, then by d
    m, w, large = support[order] // large[order], weights[order], large[order]
    smooth = int(np.searchsorted(large, 2))
    unit = len(w_full)
    per_block = _BLOCK_BYTES // 16  # pairs: an int64 key and a float64 value each
    # the groups Q > 1: row i pairs with the rows i .. end of its group,
    # whose keys are offset by unit per group to keep the groups apart
    starts = smooth + np.flatnonzero(np.diff(large[smooth:], prepend=1))
    sizes = np.diff(np.append(starts, len(m)))
    pairs = sizes * (sizes + 1) // 2
    group = np.repeat(np.arange(len(sizes)), sizes)
    rows, ends = np.arange(smooth, len(m)), np.repeat(starts + sizes, sizes)
    block = ((np.cumsum(pairs) - pairs) // per_block)[group]
    cuts = np.append(np.flatnonzero(np.diff(block, prepend=-1)), len(rows))
    C = np.zeros(unit)
    third, fourth = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        keys, c = _block_convolution(m, w, rows[a:b], rows[a:b], ends[a:b], group[a:b] * unit)
        C += np.bincount(keys % unit, weights=c, minlength=unit)
        fourth.append(-2 * _dot(c, c))
    third.append(3 * _dot(w_full, C))
    fourth.append(3 * _dot(C, C))
    # the smooth group: r is the least for which the blocks average at most
    # per_block pairs, but 2^r <= smooth / 4, so that they average at least
    # 2 * smooth pairs: each block also builds partner, lo and hi over every
    # smooth kernel
    d, w = m[:smooth], w[:smooth]
    pairs = smooth * (smooth + 1) // 2
    r = min((max(pairs - 1, 0) // per_block).bit_length(), max(smooth.bit_length() - 3, 0))
    sig = np.zeros(smooth, dtype=np.int64)
    if r:  # sig is additive on any set of primes; these hold every prime
        # of a smooth kernel when the largest kernel is near N
        for i, p in enumerate(primes_up_to(math.isqrt(unit)).tolist()):
            sig[d % p == 0] ^= 1 << (i % r)
    by_sig = np.argsort(sig, kind="stable")
    d, w, sig = d[by_sig], w[by_sig], sig[by_sig]
    class_start = np.searchsorted(sig, np.arange(1 << r))
    class_end = np.searchsorted(sig, np.arange(1 << r), side="right")
    rows = np.arange(smooth)
    for s in range(1 << r):
        partner = sig ^ s
        lo = rows if s == 0 else class_start[partner]
        hi = np.where(sig <= partner, class_end[partner], lo)  # each pair once
        keys, c = _block_convolution(d, w, rows, lo, hi)
        low = keys < unit
        third.append(_dot(w_full[keys[low]], c[low]))
        fourth += [_dot(c, c), 6 * _dot(c[low], C[keys[low]])]
    return math.fsum(third), math.fsum(fourth)


def _block_convolution(
    d: np.ndarray,
    w: np.ndarray,
    rows: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    offset: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) with i in rows and lo <= j < hi (per row), at the
    key d_i d_j / gcd(d_i, d_j)^2, plus the row's offset if given, with the
    value w_i w_j, doubled for i != j.  Returns the keys and their summed
    values, sorted by key."""
    count = hi - lo
    first = np.repeat(rows, count)
    second = np.arange(len(first)) + np.repeat(lo - (np.cumsum(count) - count), count)
    u, v = d[first], d[second]
    g = np.gcd(u, v)
    keys = (u // g).astype(np.int64, copy=False) * (v // g)  # up to N^2
    del u, v, g
    if offset is not None:
        keys += np.repeat(offset, count)
    vals = w[first] * w[second]
    vals[first != second] *= 2
    del first, second
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    del order
    new = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[new], np.add.reduceat(vals, new)


#: points of the sign cube per chunk of _cube_moments, which holds about
#: twenty float64 arrays of that length, the kept wide groups among them (a
#: 44 MiB tracemalloc peak at N = 10^4; 2^20 points peaked at 168 MB and
#: were no faster)
_CUBE_CHUNK = 1 << 18

#: the most primes <= sqrt(N) whose sign vectors _cube_moments walks: 27
#: is N < 11449 = 107^2, about 4 times the 2^25 vectors of N = 10^4
_CUBE_PRIMES = 27

#: the Sylvester-Hadamard matrix of order 32; its top-left 2^g × 2^g
#: block is the one of order 2^g
_HADAMARD = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * 5)


def _walsh(v: np.ndarray) -> np.ndarray:
    """The Walsh-Hadamard transform of v (length 2^s):
    out[b] = sum_t v[t] (-1)^popcount(t & b).  The index bits go 5 at a
    time, each group one product with the Hadamard matrix of its order
    (3.5 times faster than add/subtract butterflies)."""
    n, low = len(v), 1
    while low < n:
        g = min(32, n // low)
        h = _HADAMARD[:g, :g]
        v = v.reshape(-1, g) @ h if low == 1 else np.matmul(h, v.reshape(-1, g, low))
        low *= g
    return v.reshape(n)


def _cube_moments(
    support: np.ndarray, weights: np.ndarray, large: np.ndarray, small: np.ndarray
) -> tuple[float, float]:
    """E S^5 and E S^6 of moment_bundle, averaged over the 2^r sign vectors
    x of the r primes <= sqrt(N) (small): support, weights and large as
    _kernel_weights gives them.

    Given x, Y = sum_Q X_Q A_Q is a Rademacher sum, so its odd moments
    vanish and, with B_j = sum_Q A_Q^j, E[Y^2|x] = B_2,
    E[Y^4|x] = 3 B_2^2 - 2 B_4 and E[Y^6|x] = 15 B_2^3 - 30 B_2 B_4 + 16 B_6:

        E S^5 = E[A_1^5 + 10 A_1^3 B_2 + 5 A_1 (3 B_2^2 - 2 B_4)],
        E S^6 = E[A_1^6 + 15 A_1^4 B_2 + 15 A_1^2 (3 B_2^2 - 2 B_4)
                  + 15 B_2^3 - 30 B_2 B_4 + 16 B_6].

    X_m is the Walsh character of m's mask (bit i for the i-th small
    prime), so one Walsh transform of a group's weights by mask gives it at
    every x.  A_Q reads only the primes up to N/Q, the low s bits, s the
    bit length of its largest mask.  The cube goes in chunks of 2^c points
    b = h 2^c + low.  The groups with s <= c are transformed once on their
    2^s points, where their A_Q^j are summed per s, and every chunk repeats
    those sums.  A_1 is transformed per chunk, folded onto the chunk's low
    bits by the sign of its high bits against h.  A wider group reads only
    the low s - c bits of h, and h goes in bit-reversed order, so those bits
    change slowest: the group is transformed 2^(s - c) times and its last
    A_Q^2 kept (442 transforms of the 10 groups Q = 101 .. 149 at N = 10^4,
    not 1280).  The chunks' sums go through math.fsum, so their order does
    not move the result.
    """
    order = np.argsort(large, kind="stable")  # by Q, then by d
    m, w, large = support[order] // large[order], weights[order], large[order]
    mask = np.zeros(len(m), dtype=np.int64)
    for i, p in enumerate(small.tolist()):
        mask[m % p == 0] |= 1 << i
    r = len(small)
    c = min(r, _CUBE_CHUNK.bit_length() - 1)

    def at(rows: slice, bits: int, h: int) -> np.ndarray:
        """sum w X_m over rows at the points h 2^bits + low, low < 2^bits"""
        t = (mask[rows] >> bits) & h
        for shift in (16, 8, 4, 2, 1):  # t's parity; masks have at most 27 bits
            t ^= t >> shift
        folded = np.bincount(mask[rows] & ((1 << bits) - 1), weights=w[rows] * (1 - 2 * (t & 1)),
                             minlength=1 << bits)
        return _walsh(folded)

    bounds = np.append(np.flatnonzero(np.diff(large, prepend=0)), len(m)).tolist()
    smooth, wide, narrow = slice(0, 0), [], {}  # narrow: s -> its groups' A_Q^2, ^4, ^6
    for lo, hi in zip(bounds, bounds[1:]):
        s = int(mask[lo:hi].max()).bit_length()
        if large[lo] == 1:
            smooth = slice(lo, hi)
        elif s > c:
            wide.append((slice(lo, hi), (1 << (s - c)) - 1))  # its rows and the bits of h it reads
        else:
            v = at(slice(lo, hi), s, 0) ** 2
            narrow[s] = narrow.get(s, 0) + np.stack([v, v * v, v * v * v])
    # B_2, B_4, B_6 of the groups with s <= c, the same in every chunk
    powers = sum((np.tile(p, 1 << (c - s)) for s, p in narrow.items()), np.zeros((3, 1 << c)))
    del narrow  # up to 6 chunk lengths of stacks, which would sit beside the kept wide groups
    fifth, sixth = [], []
    seen = [(-1, None)] * len(wide)  # per wide group: the bits of h it last read, its A_Q^2 there
    for i in range(1 << (r - c)):
        # bit-reversed, so the low bits of h, which the wide groups read, change slowest
        h = int(f"{i:0{r - c}b}"[::-1], 2)
        a = at(smooth, c, h)
        b2, b4, b6 = powers.copy()
        for j, (rows, bits) in enumerate(wide):
            if seen[j][0] == h & bits:
                v = seen[j][1]
            else:
                seen[j] = -1, None  # the old vector goes before the new one is made
                v = at(rows, c, h & bits) ** 2
                if bits < (1 << (r - c)) - 1:  # a group that reads all of h is not read again
                    seen[j] = h & bits, v
            b2 += v
            v2 = v * v
            b4 += v2
            v2 *= v
            b6 += v2
        a2 = a * a
        y4 = 3 * b2 * b2 - 2 * b4
        fifth.append(np.sum(a * (a2 * (a2 + 10 * b2) + 5 * y4)))
        sixth.append(np.sum(a2 * (a2 * (a2 + 15 * b2) + 15 * y4)
                            + 15 * b2 * (b2 * b2 - 2 * b4) + 16 * b6))
    return math.fsum(fifth) / 2**r, math.fsum(sixth) / 2**r
