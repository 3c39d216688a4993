import itertools
import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from legsums import charsum
from legsums.charsum import (
    alpha_cutoff,
    class_number_h,
    density_scan,
    density_sweep,
    dirichlet_check,
    legendre_sum,
    parse_alpha,
)
from legsums.primes import jacobi, primes_up_to

ODD_PRIMES = [p for p in primes_up_to(300).tolist() if p > 2]
odd_primes_st = st.sampled_from(ODD_PRIMES)


def test_parse_alpha():
    assert parse_alpha("2/5") == Fraction(2, 5)
    assert parse_alpha("0.4") == 0.4
    assert isinstance(parse_alpha("0.4"), float)


def test_alpha_cutoff_exact_rational():
    # 2/5 of 7 is 2.8 -> 2; float 0.4*7 = 2.8000000000000003 agrees here,
    # but exactness matters at true boundaries:
    assert alpha_cutoff(Fraction(2, 5), 5) == 2
    assert alpha_cutoff(Fraction(1, 3), 3) == 1
    assert alpha_cutoff(Fraction(2, 5), 7) == 2


def test_alpha_cutoff_exact_for_floats():
    # nextafter(3/13, 0) times 13 rounds up to 3.0 in floating point, but the
    # float is a dyadic rational just below 3/13, so the exact floor is 2
    alpha = math.nextafter(3 / 13, 0)
    assert math.floor(alpha * 13) == 3
    assert 2 < Fraction(alpha) * 13 < 3
    assert alpha_cutoff(alpha, 13) == 2
    assert alpha_cutoff(alpha, np.array([13, 26])).tolist() == [2, 5]
    assert legendre_sum(alpha, 13) == sum(jacobi(n, 13) for n in (1, 2))


def test_alpha_cutoff_array_matches_scalar():
    ps = primes_up_to(2000)
    for alpha in (Fraction(2, 5), 0.36787944117144233, 0.0):
        assert alpha_cutoff(alpha, ps).tolist() == [alpha_cutoff(alpha, p) for p in ps.tolist()]


def test_alpha_cutoff_rejects_out_of_range():
    with pytest.raises(ValueError):
        alpha_cutoff(Fraction(7, 5), 11)
    with pytest.raises(ValueError):
        alpha_cutoff(-0.1, 11)


@given(p=odd_primes_st)
def test_qr_table_full_sum_zero(p):
    # equally many residues and nonresidues in [1, p-1]
    assert legendre_sum(Fraction(p - 1, p), p) == 0


@given(p=odd_primes_st, m=st.integers(0, 298))
def test_qr_table_matches_jacobi_prefix(p, m):
    # alpha = m/p has the cutoff m exactly, so every prefix is reachable
    m = m % p
    assert legendre_sum(Fraction(m, p), p) == sum(jacobi(n, p) for n in range(1, m + 1))


@given(p=odd_primes_st, num=st.integers(0, 40), den=st.integers(1, 41))
def test_legendre_sum_brute_force(p, num, den):
    alpha = Fraction(num, den)
    if alpha >= 1:
        alpha = Fraction(num % den, den)
    cutoff = (alpha.numerator * p) // alpha.denominator
    expected = sum(jacobi(n, p) for n in range(1, cutoff + 1))
    assert legendre_sum(alpha, p) == expected


def test_legendre_sum_p2_is_zero():
    assert legendre_sum(Fraction(1, 2), 2) == 0
    assert legendre_sum(0.999, 2) == 0


@pytest.mark.parametrize("p", [9, 100, 561])
def test_legendre_sum_rejects_non_prime(p):
    with pytest.raises(ValueError, match="needs a prime"):
        legendre_sum(Fraction(1, 3), p)


def test_density_scan_alpha_zero_all_zero_sums():
    report = density_scan(Fraction(0), 10)
    assert report.nonneg_count == 10
    assert report.strict_pos_count == 0
    assert report.zero_count == 10


def test_density_scan_thread_invariance():
    a = density_scan(Fraction(2, 5), 200, threads=1)
    b = density_scan(Fraction(2, 5), 200, threads=4)
    assert a == b


@pytest.mark.parametrize("threads", [3, 100_000])
def test_sweep_workers_capped_at_usable_cores(monkeypatch, threads):
    # a stand-in executor records its size and maps serially: no thread starts
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, spans):
            self.spans = list(spans)
            return map(fn, self.spans)

    monkeypatch.setattr(charsum, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(charsum.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    reports = density_sweep([Fraction(2, 5), Fraction(1, 3)], [50, 300], threads=threads)
    assert reports == density_sweep([Fraction(2, 5), Fraction(1, 3)], [50, 300], threads=1)
    (pool,) = pools
    assert pool.max_workers == min(threads, 4)
    assert len(pool.spans) == min(4 * threads, 300)


def test_density_scan_mod4_split_consistent():
    r = density_scan(Fraction(3, 8), 500)
    # p = 2 contributes to nonneg_count but to neither residue class
    assert r.nonneg_1mod4 + r.nonneg_3mod4 + 1 == r.nonneg_count


def test_class_number_known_values():
    # standard table of class numbers of Q(sqrt(-p))
    known = {3: 1, 7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 43: 1, 47: 5, 67: 1,
             71: 7, 79: 5, 163: 1, 227: 5, 239: 15}
    for p, h in known.items():
        assert class_number_h(p) == h, p


def test_class_number_rejects_wrong_residue():
    with pytest.raises(ValueError):
        class_number_h(5)


def test_dirichlet_check_p3_excluded():
    chk = dirichlet_check(3)
    assert chk.excluded and chk.ok
    assert chk.lhs == 1 and chk.rhs == 3


def test_dirichlet_check_sample():
    for p in (5, 7, 11, 13, 23, 1999):
        assert dirichlet_check(p).ok


def _mean_symbol(n, x, residue):
    """Mean of (n/p) over the primes p <= x with p ≡ residue (mod 4) and p ∤ n."""
    primes = [p for p in primes_up_to(x).tolist() if p % 4 == residue and n % p]
    return sum(jacobi(n, p) for p in primes) / len(primes)


def test_expectation_scan_square_is_one():
    assert _mean_symbol(9, 500, 1) == 1.0
    assert _mean_symbol(16, 500, 3) == 1.0


def test_expectation_scan_nonsquare_decays():
    coarse = abs(_mean_symbol(3, 200, 1))
    fine = abs(_mean_symbol(3, 20000, 1))
    assert fine < 0.05
    assert fine <= coarse + 0.05


# --------------------------------------------------------------------------
# the residue engine

# odd primes on both sides of 131071, the largest p whose squares table
# (k <= (p-1)/2) fits uint32; each side has one p = 1 and one p = 3 (mod 4)
SWITCH_PRIMES = [131041, 131071, 131101, 131111]


def test_squares_dtype_switch():
    assert charsum._squares((131071 - 1) // 2).dtype == np.uint32
    assert charsum._squares((131101 - 1) // 2).dtype == np.uint64


@pytest.mark.parametrize("p", SWITCH_PRIMES)
def test_engine_matches_jacobi_prefix_at_dtype_switch(p):
    prefix = [0] + list(itertools.accumulate(jacobi(n, p) for n in range(1, p)))
    cuts = [0, 1, 2, (p - 1) // 2, p // 3, p - 2, p - 1]
    sums = charsum._scan_chunk(np.array([p]), np.array([[m] for m in cuts]))
    assert sums[:, 0].tolist() == [prefix[m] for m in cuts]
    # the same prime reduced from a wider (uint64) table gives the same sums
    wide = charsum._scan_chunk(np.array([3, p, 262147]), np.array([[0, m, 0] for m in cuts]))
    assert wide[:, 1].tolist() == sums[:, 0].tolist()
    residues = charsum._quadratic_residues(p)
    assert sorted(residues.tolist()) == sorted({k * k % p for k in range(1, p)})


def test_sweep_equals_per_cell_scans():
    alphas = [Fraction(2, 5), Fraction(1, 12), 0.36787944117144233, Fraction(0), Fraction(1, 2)]
    sizes = [1, 50, 300, 1000]
    table = density_sweep(alphas, sizes)
    for alpha, row in zip(alphas, table):
        for n, report in zip(sizes, row):
            assert report == density_scan(alpha, n), (alpha, n)


def test_density_counters_match_per_prime_sums():
    # every counter against L(alpha, p) from the prefix table, prime by prime
    primes = primes_up_to(3000).tolist()
    for alpha in (Fraction(1, 12), 0.36787944117144233):
        sums = [legendre_sum(alpha, p) for p in primes]
        one = [p % 4 == 1 for p in primes]
        three = [p % 4 == 3 for p in primes]
        expected = [
            len(primes),
            sum(v >= 0 for v in sums),
            sum(v > 0 for v in sums),
            sum(v == 0 for v in sums),
            sum(v >= 0 and c for v, c in zip(sums, one)),
            sum(v >= 0 and c for v, c in zip(sums, three)),
            sum(v > 0 and c for v, c in zip(sums, one)),
            sum(v > 0 and c for v, c in zip(sums, three)),
        ]
        report = density_scan(alpha, len(primes))
        assert report.alpha == alpha
        counters = astuple(report)[1:]
        assert list(counters) == expected
        assert all(type(v) is int for v in counters)


def test_sweep_thread_invariance_across_dtype_switch():
    # 12300 primes run past 131071 (the 12251st prime): with four threads
    # the early chunks reduce uint32 tables and the last a uint64 one, while
    # one thread reduces everything from a single uint64 table
    alphas = [Fraction(2, 5), 0.15915494309189535]
    one = density_sweep(alphas, [12300], threads=1)
    four = density_sweep(alphas, [12300], threads=4)
    assert one == four


def test_density_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        density_sweep([Fraction(1, 2)], [0])
    with pytest.raises(ValueError):
        density_sweep([], [10])
    with pytest.raises(ValueError):
        density_sweep([1.5], [10])
