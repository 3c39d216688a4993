import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from legsums import primes as primes_mod
from legsums.primes import first_primes, is_prime, primes_up_to, sieve_primes
from reference import jacobi, kronecker_chi

SRC = Path(__file__).resolve().parent.parent / "src"
ODD_PRIMES = [p for p in primes_up_to(500).tolist() if p > 2]


def test_sieve_small():
    primes = sieve_primes(30)
    assert primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not primes.flags.writeable


def test_no_sieve_runs_at_import():
    # a profile hook records every call of the two sieves while the package
    # and its command line are imported; both tables start empty
    code = "\n".join([
        "import sys",
        "calls = []",
        "def hook(frame, event, arg):",
        "    if event == 'call' and frame.f_code.co_name in ('sieve_primes', '_count_reduced_forms'):",
        "        calls.append(frame.f_code.co_name)",
        "sys.setprofile(hook)",
        "import legsums, legsums.cli",
        "sys.setprofile(None)",
        "print(calls, len(legsums.charsum._forms))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
    assert out == "[] 0\n"


def test_no_prime_table_outlives_its_call():
    # in a fresh process, so no earlier test has sieved yet: a table kept
    # after the calls (the 78,498 int64 primes to 10^6 are 613 KiB) would
    # stay traced once their results are dropped
    code = "\n".join([
        "import tracemalloc",
        "from legsums.primes import primes_up_to",
        "from legsums.tails import sigma2_one_third",
        "tracemalloc.start()",
        "base = tracemalloc.get_traced_memory()[0]",
        "primes_up_to(10**6)",
        "sigma2_one_third(10**6)",
        "print(tracemalloc.get_traced_memory()[0] - base)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
    assert int(out) < 64 * 2**10
    for limit in (0, 1):
        empty = primes_up_to(limit)
        assert empty.dtype == np.int64 and len(empty) == 0 and not empty.flags.writeable


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve_primes(1)


@pytest.mark.parametrize("n", [0, -1])
def test_first_primes_rejects_a_count_below_one(n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        first_primes(n)


def test_nth_prime():
    assert first_primes(1)[-1] == 2
    assert first_primes(25)[-1] == 97
    assert first_primes(1000)[-1] == 7919
    assert first_primes(10000)[-1] == 104729


def test_first_primes_matches_primes_up_to():
    assert first_primes(25).tolist() == primes_up_to(97).tolist()


def test_primes_up_to_boundary_inclusive():
    assert primes_up_to(97)[-1] == 97
    assert primes_up_to(96)[-1] == 89


def test_is_prime_agrees_with_sieve():
    N = 2 * 10**5
    mask = set(sieve_primes(N).tolist())
    for n in range(N + 1):
        assert is_prime(n) == (n in mask)


@pytest.mark.parametrize("n", [
    561,  # a Carmichael number
    3215031751,  # a strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # a strong pseudoprime to the bases 2 .. 31
    318665857834031151167461,  # 399165290221 * 798330580441, strong to 2 .. 37: only 41 tells
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_is_exact_below_psi_13_only():
    psi_13 = 3317044064679887385961981  # the first strong pseudoprime to 2 .. 41
    assert is_prime(2**61 - 1)
    assert is_prime(3317044064679887385961813)  # the largest prime below psi_13
    for n in (psi_13, 2**89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


def test_nth_prime_bound_needs_one_sieve():
    # first_primes sieves once, to the bound: the bound is never below p_n
    N = 2 * 10**5
    primes = sieve_primes(primes_mod._nth_prime_bound(N))
    assert len(primes) >= N
    for n in range(1, N + 1):
        assert primes[n - 1] <= primes_mod._nth_prime_bound(n)


def test_jacobi_matches_legendre_by_squares():
    for p in ODD_PRIMES[:30]:
        residues = {(k * k) % p for k in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in residues else -1
            assert jacobi(a, p) == expected


def test_jacobi_rejects_even_or_nonpositive_n():
    with pytest.raises(ValueError):
        jacobi(3, 8)
    with pytest.raises(ValueError):
        jacobi(3, -5)


@given(
    a=st.integers(-10**6, 10**6),
    b=st.integers(-10**6, 10**6),
    n=st.integers(0, 200),
)
def test_jacobi_multiplicative_in_top(a, b, n):
    n = 2 * n + 1
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


@given(
    a=st.integers(-10**6, 10**6),
    m=st.integers(0, 100),
    n=st.integers(0, 100),
)
def test_jacobi_multiplicative_in_bottom(a, m, n):
    m, n = 2 * m + 1, 2 * n + 1
    assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


@given(a=st.integers(-10**4, 10**4), n=st.integers(0, 500), k=st.integers(0, 5))
def test_jacobi_periodic_in_top(a, n, k):
    n = 2 * n + 1
    assert jacobi(a, n) == jacobi(a + k * n, n)


@given(
    a=st.integers(-50, 50).filter(lambda a: a != 0 and a % 4 != 3),
    n=st.integers(0, 300),
)
def test_kronecker_periodic(a, n):
    # for a ≡ 3 (mod 4) the symbol is genuinely non-periodic in n
    period = 4 * abs(a)
    assert kronecker_chi(a, n) == kronecker_chi(a, n + period)


def test_kronecker_square_gives_principal():
    # (9/n) is 1 exactly when gcd(n, 6) shares no factor with 3... i.e. 3∤n
    for n in range(1, 50):
        assert kronecker_chi(9, n) == (0 if n % 3 == 0 else 1)


def test_kronecker_matches_jacobi_on_odd_positive():
    for a in range(-20, 21):
        if a == 0:
            continue
        for n in range(1, 60, 2):
            if a > 0:
                assert kronecker_chi(a, n) == jacobi(a, n)


@given(
    a=st.integers(-100, 100).filter(lambda a: a != 0),
    m=st.integers(-200, 200).filter(lambda m: m != 0),
    n=st.integers(-200, 200).filter(lambda n: n != 0),
)
def test_kronecker_multiplicative_in_bottom(a, m, n):
    assert kronecker_chi(a, m * n) == kronecker_chi(a, m) * kronecker_chi(a, n)
