import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from legsums import charsum
from legsums.charsum import (
    alpha_cutoff,
    density_scan,
    density_sweep,
    dirichlet_checks,
    legendre_sum,
    parse_alpha,
)
from legsums.cli import main
from legsums.primes import first_primes, primes_up_to
from reference import class_number_h, jacobi

SRC = Path(__file__).resolve().parent.parent / "src"

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


class SerialPool:
    """A stand-in executor: records its size and spans and maps serially, so
    no thread starts."""

    pools = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.pools.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, spans):
        self.spans = list(spans)
        return map(fn, self.spans)


@pytest.mark.parametrize("threads", [3, 100_000])
def test_sweep_workers_capped_at_usable_cores(monkeypatch, threads):
    # 12300 primes run past 131071, the 12251st prime: only the 49 above it
    # reach the pool, in four spans per worker
    monkeypatch.setattr(SerialPool, "pools", [])
    monkeypatch.setattr(charsum, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(charsum.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    alphas = [Fraction(2, 5), Fraction(1, 3)]
    reports = density_sweep(alphas, [50, 12300], threads=threads)
    (pool,) = SerialPool.pools
    assert pool.max_workers == min(threads, 4)
    assert len(pool.spans) == 4 * min(threads, 4)
    assert pool.spans[0][0] == 12251 and pool.spans[-1][1] == 12300
    assert all(b == c for (_, b), (c, _) in zip(pool.spans, pool.spans[1:]))
    assert first_primes(12251)[-1] == charsum._LAST_UINT32_PRIME == 131071
    monkeypatch.setattr(charsum.os, "sched_getaffinity", lambda pid: {0})
    assert reports == density_sweep(alphas, [50, 12300], threads=threads)
    assert len(SerialPool.pools) == 1


def test_pool_spans_carry_equal_work(monkeypatch):
    # a prime's count costs O(p): the spans above 131071 are cut at equal
    # sums of p, so that no worker is left with the largest primes alone
    monkeypatch.setattr(SerialPool, "pools", [])
    monkeypatch.setattr(charsum, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(charsum.os, "sched_getaffinity", lambda pid: {0, 1})
    primes = first_primes(100_000)
    index = np.arange(len(primes))
    assert (charsum._scan_spans(primes, lambda p, i: i, index) == index).all()
    (pool,) = SerialPool.pools
    work = [int(primes[a:b].sum()) for a, b in pool.spans]
    assert pool.max_workers == 2 and len(work) == 8
    assert max(work) - min(work) < 2 * int(primes[-1])


@pytest.mark.parametrize("alphas", [[Fraction(2, 5)], [Fraction(2, 5), Fraction(3, 8)]])
def test_scan_below_the_switch_builds_no_pool(monkeypatch, alphas):
    def no_pool(max_workers):
        raise AssertionError("a scan up to 131071 started a pool")

    monkeypatch.setattr(charsum, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(charsum.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    density_sweep(alphas, [100, 12251], threads=4)
    density_sweep(alphas, [12251])


def test_dirichlet_checks_do_not_depend_on_usable_cores(monkeypatch):
    # 140000 lies past 131071: four cores count the primes above it in a pool
    checks = []
    for cores in (1, 4):
        monkeypatch.setattr(charsum.os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
        checks.append(dirichlet_checks(140000))
    assert checks[0] == checks[1]
    assert all(c.ok for c in checks[0])


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
    # the sieved table, read the way the floor sum and dirichlet_checks read it
    primes = sorted(known)
    assert charsum._class_numbers(np.array(primes)).tolist() == [known[p] for p in primes]


def test_dirichlet_check_p3_excluded():
    (chk,) = dirichlet_checks(3)
    assert chk.p == 3
    assert chk.excluded and chk.ok
    assert chk.lhs == 1 and chk.rhs == 3
    assert not any(c.excluded for c in dirichlet_checks(200) if c.p != 3)


def test_dirichlet_check_sample():
    checks = {chk.p: chk for chk in dirichlet_checks(1999)}
    assert list(checks) == primes_up_to(1999).tolist()[1:]
    for p in (5, 7, 11, 13, 23, 1999):
        assert checks[p].ok
        assert checks[p].lhs == legendre_sum(Fraction(1, 2), p)
    assert checks[5].rhs == 0
    assert checks[11].rhs == 3 * 1  # (2/11) = -1, h(-11) = 1
    assert checks[23].rhs == 1 * 3  # (2/23) = 1, h(-23) = 3


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
    alphas = [Fraction(m, p) for m in cuts]  # the cutoff of m/p at p is m
    sums = charsum._scan_chunk(alphas, [charsum._squares((p - 1) // 2)], np.array([p]))
    assert sums[:, 0].tolist() == [prefix[m] for m in cuts]
    # the same prime reduced from a wider (uint64) table gives the same sums
    wide = charsum._scan_chunk(alphas, [charsum._squares(131073)], np.array([3, p, 262147]))
    assert wide[:, 1].tolist() == sums[:, 0].tolist()
    # each cut as a one-cutoff scan, which counts from the floor sum; at
    # p = 131071 and m = 0 its k^2 + p - 1 reaches 2^32 - 1, the uint32 limit
    for primes, i in ((np.array([p]), 0), (np.array([3, p, 262147]), 1)):
        offsets = charsum._floor_offsets(primes)
        tables = [charsum._squares((int(primes[-1]) - 1) // 2)]
        floors = [charsum._floor_chunk(alpha, tables, primes, offsets)[i] for alpha in alphas]
        assert floors == [prefix[m] for m in cuts]
    squares = charsum._squares((p - 1) // 2)
    residues = charsum._reduce_squares(squares, p, np.empty_like(squares))
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
        ]
        report = density_scan(alpha, len(primes))
        assert report.alpha == alpha
        counters = astuple(report)[1:]
        assert list(counters) == expected
        assert all(type(v) is int for v in counters)


def test_sweep_thread_invariance_across_dtype_switch():
    # 12300 primes run past 131071 (the 12251st prime): the primes up to it
    # are reduced from a uint32 table on the calling thread, and those above
    # from uint64 tables: in one span at threads=1, in a pool of spans at
    # threads=4 on more than one core; two alphas count from the residues,
    # one from the floor sum
    for alphas in ([Fraction(2, 5), 0.15915494309189535], [Fraction(2, 5)]):
        one = density_sweep(alphas, [12300], threads=1)
        four = density_sweep(alphas, [12300], threads=4)
        assert one == four, alphas


def test_density_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        density_sweep([Fraction(1, 2)], [0])
    with pytest.raises(ValueError):
        density_sweep([], [10])
    with pytest.raises(ValueError):
        density_sweep([1.5], [10])
    with pytest.raises(ValueError):
        dirichlet_checks(2)


# --------------------------------------------------------------------------
# the floor-sum count of one-alpha scans

def test_sieved_class_numbers_and_floor_offsets():
    primes = primes_up_to(19997)
    assert primes[-1] == 19997
    # the sieve up to exactly the largest prime, so its top edge is reached
    forms = charsum._count_reduced_forms(19997)
    threes = [p for p in primes.tolist() if p % 4 == 3 and p >= 7]
    assert [int(forms[p // 4]) for p in threes] == [class_number_h(p) for p in threes]
    # B_p, which reads the class numbers from the module's table, against
    # the direct sum of floor(k^2/p), p = 3 and 5 included
    odd = primes[1:]
    direct = [int((np.arange(1, (p - 1) // 2 + 1) ** 2 // p).sum()) for p in odd.tolist()]
    assert odd[:2].tolist() == [3, 5]
    assert charsum._floor_offsets(odd).tolist() == direct


def test_class_number_table_is_empty_after_import():
    code = "from legsums import charsum; print(len(charsum._forms))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
    assert out == "0\n"


def test_one_prime_paths_never_build_the_class_number_table(monkeypatch, capsys):
    def refuse(limit):
        raise AssertionError("the class number sieve ran")

    monkeypatch.setattr(charsum, "_forms", np.zeros(0, dtype=np.int32))
    monkeypatch.setattr(charsum, "_count_reduced_forms", refuse)
    assert legendre_sum(Fraction(1, 3), 131071) == sum(jacobi(n, 131071) for n in range(1, 43691))
    assert main(["fourier-check", "--alpha", "2/5", "--p", "1999"]) == 0
    capsys.readouterr()
    # a one-alpha scan does reach the sieve this test refuses
    with pytest.raises(AssertionError, match="sieve ran"):
        density_scan(Fraction(2, 5), 10)


def test_class_number_table_is_sieved_once_per_growth(monkeypatch):
    # the 10^4th prime, 104729, is 1 (mod 4): the table sieved up to it has
    # no entry for it, and needs none
    sieved = []
    sieve = charsum._count_reduced_forms
    monkeypatch.setattr(charsum, "_forms", np.zeros(0, dtype=np.int32))
    monkeypatch.setattr(charsum, "_count_reduced_forms",
                        lambda limit: sieved.append(limit) or sieve(limit))
    # dirichlet_checks sieves up to its largest prime, and reads the same
    # table as the scans do
    assert dirichlet_checks(2000)[-1].p == 1999
    assert sieved == [1999]
    for n in (1000, 10**4, 10**4, 1000, 10**4):
        density_scan(Fraction(2, 5), n)
    assert dirichlet_checks(2000)[-1].ok
    assert sieved == [1999, 7919, 104729]


def test_dirichlet_reads_the_class_number_table(monkeypatch, capsys):
    # one wrong entry of the sieved table, at p = 199 ≡ 3 (mod 4), fails the
    # command at that prime only
    sieve = charsum._count_reduced_forms

    def off_by_one(limit):
        counts = sieve(limit)
        counts[199 // 4] += 1
        return counts

    monkeypatch.setattr(charsum, "_forms", np.zeros(0, dtype=np.int32))
    monkeypatch.setattr(charsum, "_count_reduced_forms", off_by_one)
    assert main(["dirichlet", "--max-p", "200"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["p,lhs,rhs,excluded,ok", "3,1,3,True,True",
                                "199,9,10,False,False", "total,,,,False"]


def test_class_number_table_grows_safely_under_threads(monkeypatch):
    # scans of growing sizes in more threads than cores, each starting from
    # an empty table, with thread switches forced often: every scan must see
    # a table that covers its primes
    sizes = [40 * k for k in range(1, 25)]
    serial = [density_scan(Fraction(2, 5), n) for n in sizes]
    monkeypatch.setattr(charsum, "_forms", np.zeros(0, dtype=np.int32))
    results = [None] * len(sizes)

    def work(offset):
        for i in range(offset, len(sizes), 8):
            results[i] = density_scan(Fraction(2, 5), sizes[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial
    # the table only grows: a smaller sieve finishing late must not replace it
    assert len(charsum._forms) > (first_primes(max(sizes))[-1] - 3) // 4


def test_one_alpha_scan_memory(monkeypatch):
    # the scan's own sieve of the first 10^4 primes (0.2 MB), the squares
    # table and one buffer of (p-1)/2 uint32 each (about 0.2 MB at the
    # 10^4th prime), the freshly sieved class number table (0.1 MB), the
    # int64 offsets and sums (0.08 MB each) and the cutoffs of one block of
    # 2^11 primes; Python lists of the primes or cutoffs of every prime, or
    # of every prime's sums, would not fit
    monkeypatch.setattr(charsum, "_forms", np.zeros(0, dtype=np.int32))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        density_scan(Fraction(2, 5), 10**4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(charsum._forms) > 0
    assert peak < 2 * 2**20


FIVE_ALPHAS = [Fraction(2, 5), Fraction(3, 8), Fraction(1, 12), 0.15915494309189535,
               0.36787944117144233]


def test_five_alpha_sweep_memory():
    # the density table's sweep over 10^3 and 10^4 primes: the sweep's own
    # sieve (0.2 MB), the uint32 squares table and its residue and mask
    # buffers (0.5 MB together at the 10^4th prime), the 5 x 10^4 int64
    # sums and their joined copy (0.4 MB each) and one block's cutoffs; a
    # Python list of every prime's cutoffs or sums (about 4 MB) would not fit
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        density_sweep(FIVE_ALPHAS, [10**3, 10**4])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("alphas", [FIVE_ALPHAS[:1], FIVE_ALPHAS])
def test_sweep_does_not_depend_on_the_block_size(monkeypatch, alphas):
    # 12300 primes cross the default block of 2^11 primes and 131071, the
    # 12251st prime, where the uint32 squares give way to uint64; in blocks
    # of 3 primes every span ends in a short block, and one alpha counts from
    # the floor sum, several from the residues
    sizes = [1, 2, 3, 4, 2048, 2049, 12251, 12252, 12300]
    default = density_sweep(alphas, sizes)
    monkeypatch.setattr(charsum, "_BLOCK", 3)
    assert density_sweep(alphas, sizes) == default
    assert density_sweep(alphas, sizes, threads=1) == default
