import functools
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from legsums import primes as primes_mod
from legsums.primes import first_primes, primes_up_to
from legsums import randmodel as rm
from legsums.randmodel import (
    CoefficientSpec,
    PositivityEstimate,
    decompose_rational,
    estimate_positivity,
    moment_direct,
    sample_series_matrix,
    squarefree_core,
    xi_statistics,
)
import reference
from reference import (
    decomposition_coefficients,
    hand_decomposition,
    period_lcm,
    prime_factors,
    prime_sign,
    x_of,
)

SUPPORTED = [(alpha, parity) for alpha in rm.SUPPORTED_ALPHAS for parity in ("plus", "minus")]


def sign_row(seed, primes, pins=(), negate=False):
    """The seed's row of the sign block on the primes, with X_p = s for each
    (p, s) in pins, then negated (the Liouville twist) if asked."""
    row = rm.prime_sign_matrix(np.array([seed]), primes)[0]
    for p, s in pins:
        row[primes == p] = s
    return -row if negate else row


def row_sign(row, primes):
    """sign_of for x_of: the X_p of a sign row on the primes."""
    return dict(zip(primes.tolist(), row.tolist())).__getitem__


def kernel_x(signs, N):
    """The series engine's X_n for 0 <= n <= N (column 0 unused), per row of
    a sign block on the primes up to N: the sums on the unit columns
    diag(1 .. N), where column n sums n X_n / n = X_n exactly."""
    x = series_rows(np.diag(np.arange(1.0, N + 1)), signs, N)
    return np.hstack([np.zeros((len(signs), 1)), x]).astype(np.int8)


def series_rows(coeff_columns, signs, N):
    """The series engine's sum a_n X_n / n per row of a sign block on the
    primes up to N, one column per coefficient column."""
    layout = rm._kernel_layout(N)
    return rm._series_sum(rm._series_weights(coeff_columns, layout), signs, layout)


# --------------------------------------------------------------------------
# sampling

def test_x_trivial_values():
    x = kernel_x(rm.prime_sign_matrix(np.array([0]), primes_up_to(12)), 12)[0]
    assert x[1] == x[4] == x[9] == 1
    assert x[12] == x[3]


@given(a=st.integers(1, 3000), b=st.integers(1, 3000), seed=st.integers(0, 5))
@settings(max_examples=200)
def test_x_multiplicative(a, b, seed):
    sign_of = functools.partial(prime_sign, seed)
    assert x_of(a * b, sign_of) == x_of(a, sign_of) * x_of(b, sign_of)


def test_signs_up_to_matches_x_of():
    primes = primes_up_to(300)
    x = kernel_x(rm.prime_sign_matrix(np.array([42]), primes), 300)[0]
    sign_of = functools.partial(prime_sign, 42)
    assert all(int(x[n]) == x_of(n, sign_of) for n in range(1, 301))


def test_prime_sign_bias_small():
    signs = rm.prime_sign_matrix(np.array([0]), first_primes(10000))
    assert abs(signs.astype(float).mean()) < 3 / math.sqrt(10000)


def test_distinct_seeds_distinct_sequences():
    a, b = rm.prime_sign_matrix(np.array([0, 1]), first_primes(100))
    assert not np.array_equal(a, b)


# --------------------------------------------------------------------------
# decompositions

@pytest.mark.parametrize("alpha,parity", SUPPORTED)
def test_decomposition_fidelity(alpha, parity):
    d = decompose_rational(alpha, parity)
    spec = CoefficientSpec(parity, alpha)
    N = 4 * max(1, period_lcm(d))
    err = np.max(np.abs(decomposition_coefficients(d, N) - spec.coefficients(N)))
    assert err < 1e-12


@pytest.mark.parametrize("alpha,parity", SUPPORTED)
def test_derived_row_gives_the_periodic_coefficients(alpha, parity):
    # the exact periodic a_n: the argument reduced mod q before it is scaled
    d = decompose_rational(alpha, parity)
    N = 4 * period_lcm(d)
    n = np.arange(1, N + 1)
    theta = 2 * np.pi * (alpha.numerator * n % alpha.denominator) / alpha.denominator
    exact = np.sin(theta) if parity == "plus" else 1 - np.cos(theta)
    assert np.max(np.abs(decomposition_coefficients(d, N) - exact)) <= 1e-14


@pytest.mark.parametrize("alpha,parity", SUPPORTED)
def test_coefficients_are_periodic_with_exact_zeros(alpha, parity):
    # one period's values by math.sin / math.cos of 2 pi r/q, r = b n mod q
    N, b, q = 10**5, alpha.numerator, alpha.denominator
    a = CoefficientSpec(parity, alpha).coefficients(N)
    r = np.array([b * n % q for n in range(1, N + 1)])
    wave = [math.sin(2 * math.pi * x / q) if parity == "plus" else 1 - math.cos(2 * math.pi * x / q)
            for x in range(q)]
    assert np.max(np.abs(a - np.array(wave)[r])) <= 1e-15
    zero = 2 * r % q == 0 if parity == "plus" else r == 0  # n alpha in Z/2, resp. Z
    assert np.count_nonzero(a[zero]) == 0 and np.count_nonzero(a[~zero]) == np.count_nonzero(~zero)


@pytest.mark.parametrize("alpha", [
    Fraction(7, 23), Fraction(1, 3000001), Fraction(2**40 + 1, 2**41 + 3), Fraction(0), Fraction(5, 12),
])
@pytest.mark.parametrize("parity", ["plus", "minus"])
def test_coefficients_repeat_one_period(alpha, parity):
    # one period is computed and tiled; q above N, at N and below it
    b, q = alpha.numerator, alpha.denominator
    spec = CoefficientSpec(parity, alpha)
    full = spec.coefficients(100)
    assert full.dtype == np.float64 and full.shape == (100,)
    for N in (0, 1, 2, 5, 12, 22, 23, 24, 99):
        assert spec.coefficients(N).tobytes() == full[:N].tobytes()
    if parity == "plus":  # exactly 0 where n alpha is in Z/2
        wave = [0.0 if 2 * b * n % q == 0 else math.sin(2 * math.pi * (b * n % q) / q) for n in range(1, 101)]
    else:
        wave = [1 - math.cos(2 * math.pi * (b * n % q) / q) for n in range(1, 101)]
    assert np.max(np.abs(full - wave)) <= 1e-15


@pytest.mark.parametrize("alpha,parity", SUPPORTED)
def test_derived_row_matches_the_hand_row(alpha, parity):
    # 1/6 minus and 1/12, 5/12 minus differ in shape from the hand rows
    # (E_6 = (1 - X_2/2) E_3) but not in value.  The hand characters are
    # not the memo's, so the hand row goes through explicit sign rows.
    derived = rm.euler_values_matrix(decompose_rational(alpha, parity), 10_000, prime_cutoff=1000)
    primes = primes_up_to(1000)
    signs = rm.prime_sign_matrix(np.arange(10_000), primes)
    hand = rm._euler_sum(hand_decomposition(alpha, parity).terms, signs, primes, 1000).real
    np.testing.assert_allclose(derived, hand, rtol=0, atol=5e-14)


@pytest.mark.parametrize("alpha,parity", SUPPORTED)
def test_derived_character_values_are_exact(alpha, parity):
    d = decompose_rational(alpha, parity)
    quintic = alpha.denominator == 5 and parity == "plus"
    units = {0, 1, -1, 1j, -1j} if quintic else {0, 1, -1}
    for t in d.terms:
        assert all(v in units for v in t.chi.values), t.chi
        if not quintic:
            assert all(v.imag == 0 for v in t.chi.values), t.chi
    assert len({(t.chi.values, t.dilation) for t in d.terms}) == len(d.terms)


@pytest.mark.parametrize("alpha,parity", SUPPORTED)
def test_tables_completely_multiplicative(alpha, parity):
    for t in decompose_rational(alpha, parity).terms:
        q = t.chi.period
        for a in range(1, q):
            for b in range(1, q):
                if math.gcd(a, q) == 1 and math.gcd(b, q) == 1:
                    lhs = t.chi.values[a * b % q]
                    rhs = complex(t.chi.values[a]) * complex(t.chi.values[b])
                    assert abs(lhs - rhs) < 1e-12


def test_unsupported_alpha_raises():
    with pytest.raises(ValueError, match="no decomposition for alpha="):
        decompose_rational(Fraction(1, 7), "plus")
    with pytest.raises(ValueError, match="no decomposition for alpha="):
        decompose_rational(Fraction(3, 5), "minus")


def test_supported_alphas_are_the_papers():
    # every rational in [0, 1/2] whose denominator is in {1,2,3,4,5,6,8,12}
    papers = sorted({Fraction(b, q) for q in (1, 2, 3, 4, 5, 6, 8, 12)
                     for b in range(q + 1) if Fraction(b, q) <= Fraction(1, 2)})
    assert rm.SUPPORTED_ALPHAS == papers
    assert len(SUPPORTED) == 22


def test_decompose_parses_strings_and_rejects_the_rest():
    assert decompose_rational("3/8", "minus") == decompose_rational(Fraction(3, 8), "minus")
    for alpha in ("7/12", "1/7", 0.2, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="no decomposition for alpha="):
            decompose_rational(alpha, "plus")
    with pytest.raises(ValueError, match="no decomposition for alpha="):
        decompose_rational(Fraction(1, 3), "neither")


def test_kappa_pinned_values():
    assert reference.KAPPA.values[2] == 1j
    assert reference.KAPPA.values[3] == -1j
    assert reference.KAPPA.values[4] == -1


def test_quarter_plus_decomposition_shape():
    d = decompose_rational(Fraction(1, 4), "plus")
    assert len(d.terms) == 1
    assert d.terms[0].chi.period == 4


# --------------------------------------------------------------------------
# evaluation

def test_series_half_plus_vanishes():
    c = CoefficientSpec("plus", Fraction(1, 2)).coefficients(10000)
    val = sample_series_matrix(c[:, None], 10000, 1, seed0=3)[0, 0]
    assert abs(val) < 1e-9


def test_series_half_minus_all_plus_is_odd_harmonic():
    N = 1000
    c = CoefficientSpec("minus", Fraction(1, 2)).coefficients(N)
    all_plus = np.ones((1, len(primes_up_to(N))), dtype=np.int8)
    val = series_rows(c[:, None], all_plus, N)[0, 0]
    expected = 2 * sum(1 / n for n in range(1, N + 1, 2))
    assert abs(val - expected) < 1e-12


def test_euler_matches_series_for_all_supported():
    N, P = 10**6, 10**3
    layout = rm._kernel_layout(N)
    signs = rm.prime_sign_matrix(np.array([11]), layout.primes)
    for i in range(0, len(SUPPORTED), 4):  # 8 MB a coefficient column
        pairs = SUPPORTED[i : i + 4]
        cols = np.column_stack([CoefficientSpec(p, a).coefficients(N) for a, p in pairs])
        values = rm._series_sum(rm._series_weights(cols, layout), signs, layout)[0]
        for (alpha, parity), v in zip(pairs, values.tolist()):
            d = decompose_rational(alpha, parity)
            e = rm.euler_values_matrix(d, 1, seed0=11, prime_cutoff=P)[0]
            assert abs(e - v) <= 1e-2 * (1 + abs(e)), (alpha, parity, e, v)


def test_quarter_minus_zero_when_x2_negative():
    primes = primes_up_to(1000)
    row = sign_row(5, primes, pins=[(2, -1)])
    d = decompose_rational(Fraction(1, 4), "minus")
    assert abs(rm._euler_sum(d.terms, row[None, :], primes, 1000)[0]) < 1e-12


def test_sixth_minus_factored_form():
    # the term sum collapses to (1 + X_2 + X_3 - X_2 X_3)/2 * sum X_n/n;
    # the prefactor is 1 unless X_2 = X_3 = -1, where it is -1 (so the
    # series is NOT nonnegative for every realization -- see Findings in
    # README.md)
    d = decompose_rational(Fraction(1, 6), "minus")
    primes = primes_up_to(1000)
    for x2 in (1, -1):
        for x3 in (1, -1):
            row = sign_row(5, primes, pins=[(2, x2), (3, x3)])
            T = float(np.prod(1.0 / (1.0 - row / primes)))
            factor = (1 + x2 + x3 - x2 * x3) / 2
            val = rm._euler_sum(d.terms, row[None, :], primes, 1000)[0].real
            assert val == pytest.approx(factor * T, rel=1e-10)
            if x2 == x3 == -1:
                assert val < -0.1  # counterexample to the printed sign law


def test_sign_laws_sampled():
    always_nonneg = [
        (Fraction(1, 2), "minus"),
        (Fraction(1, 3), "plus"),
        (Fraction(1, 3), "minus"),
        (Fraction(1, 4), "plus"),
        (Fraction(1, 4), "minus"),
        (Fraction(1, 6), "plus"),
        (Fraction(3, 8), "minus"),
        (Fraction(2, 5), "minus"),
    ]
    for alpha, parity in always_nonneg:
        d = decompose_rational(alpha, parity)
        vals = rm.euler_values_matrix(d, 200, seed0=0, prime_cutoff=500)
        assert vals.min() >= -1e-9, (alpha, parity, vals.min())


def test_eighth_plus_nonneg_given_x2_positive():
    d = decompose_rational(Fraction(1, 8), "plus")
    seeds = np.arange(400)
    x2 = rm.prime_sign_matrix(seeds, np.array([2]))[:, 0]
    vals = rm.euler_values_matrix(d, 400, seed0=0, prime_cutoff=500)
    assert vals[x2 == 1].min() >= -1e-9


def _per_factor_euler(decomp, signs, primes):
    """sum_t coeff X_d / d prod_p 1/(1 - chi(p) X_p / p), factor by factor,
    with X_d by trial division over the sign columns."""
    total = np.zeros(len(signs), dtype=complex)
    for t in decomp.terms:
        chi_p = np.array([complex(t.chi.values[p % t.chi.period]) for p in primes.tolist()])
        prod = np.prod(1.0 / (1.0 - chi_p * signs / primes), axis=1)
        x_d, d = np.ones(len(signs)), t.dilation
        for j, p in enumerate(primes.tolist()):
            while d % p == 0:
                d //= p
                x_d = x_d * signs[:, j]
        assert d == 1
        total += t.coeff / t.dilation * x_d * prod
    return total.real


@pytest.mark.parametrize("alpha,parity", SUPPORTED)
def test_euler_values_matrix_matches_per_factor_products(alpha, parity):
    d = decompose_rational(alpha, parity)
    primes = primes_up_to(500)
    signs = rm.prime_sign_matrix(np.arange(300), primes).astype(np.float64)
    vals = rm.euler_values_matrix(d, 300, seed0=0, prime_cutoff=500)
    np.testing.assert_allclose(vals, _per_factor_euler(d, signs, primes), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "sample",
    [
        (3, [(2, -1), (3, -1)], False),
        (3, [(2, 1), (5, -1)], True),
        (8, [], True),
    ],
)
def test_euler_eval_is_the_one_row_computation(sample):
    # the Euler engine on one altered row (pinned signs, the negated row)
    seed, pins, negate = sample
    primes = primes_up_to(500)
    row = sign_row(seed, primes, pins, negate)[None, :]
    signs = row.astype(np.float64)
    for alpha, parity in SUPPORTED:
        d = decompose_rational(alpha, parity)
        expected = _per_factor_euler(d, signs, primes)[0]
        value = rm._euler_sum(d.terms, row, primes, 500)[0].real
        assert value == pytest.approx(expected, rel=0, abs=1e-12)
    for chi in (reference.CHI4, reference.KAPPA, reference.CHI_0_3):
        chi_p = np.array([complex(chi.values[p % chi.period]) for p in primes.tolist()])
        expected = np.prod(1.0 / (1.0 - chi_p * signs[0] / primes))
        assert abs(rm._euler_sum((rm.Term(1, chi),), row, primes, 500)[0] - expected) <= 1e-12


def test_euler_eval_below_the_dilation_primes():
    # at P = 2 the term of dilation 3 still carries X_3: the value is
    # 2 X_3 / 3 + (1/2 + X_2 / 2) / (1 - X_2 / 2); seeds 0..9 take all four
    # sign pairs of (X_2, X_3)
    d = decompose_rational(Fraction(1, 6), "minus")
    vals = rm.euler_values_matrix(d, 10, seed0=0, prime_cutoff=2)
    x2, x3 = rm.prime_sign_matrix(np.arange(10), np.array([2, 3])).T
    expected = 2 * x3 / 3 + (0.5 + x2 / 2) / (1 - x2 / 2)
    np.testing.assert_allclose(vals, expected, rtol=0, atol=1e-12)
    assert len(set(zip(x2.tolist(), x3.tolist()))) == 4


def test_euler_memo_is_keyed_and_read_only():
    rm._euler_memo.cache_clear()
    d = decompose_rational(Fraction(1, 5), "plus")
    calls = [(0, 50, 100), (0, 50, 100), (7, 50, 100), (0, 60, 100), (0, 50, 200), (0, 50, 100)]
    for seed0, samples, cutoff in calls:
        primes = primes_up_to(cutoff)
        signs = rm.prime_sign_matrix(np.arange(seed0, seed0 + samples), primes)
        vals = rm.euler_values_matrix(d, samples, seed0=seed0, prime_cutoff=cutoff)
        np.testing.assert_allclose(
            vals, _per_factor_euler(d, signs.astype(np.float64), primes), rtol=0, atol=1e-12
        )
    info = rm._euler_memo.cache_info()
    assert (info.hits, info.misses) == (1, 5)
    small, signs, products = rm._euler_memo(0, 50, 100)
    assert small.tolist() == [2, 3, 5, 7, 11]
    arrays = [signs, *products.values()]
    assert len(arrays) == 16  # the sign columns and the 15 supported characters
    for array in [small, *arrays]:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1


def test_each_prime_table_is_sieved_once_per_call(monkeypatch):
    # the small primes are a prefix of the table already sieved: one sieve
    # for the layout's primes and one for squarefree_core's, one for the memo
    calls = []
    sieve = primes_mod.sieve_primes
    monkeypatch.setattr(primes_mod, "sieve_primes", lambda limit: calls.append(limit) or sieve(limit))
    rm._kernel_layout(10**5)
    assert calls == [10**5, 316]
    calls.clear()
    rm._euler_memo.cache_clear()
    rm._euler_memo(0, 8, 1000)
    assert calls == [1000]


def test_euler_values_do_not_depend_on_call_order():
    # the supported characters are filled together, whichever pair asks
    # first; a hand-built character outside them has no product
    def run(pairs, cold=False):
        out = {}
        for pair in pairs:
            if cold:
                rm._euler_memo.cache_clear()
            out[pair] = rm.euler_values_matrix(decompose_rational(*pair), 2000, seed0=5).tobytes()
        return out

    rm._euler_memo.cache_clear()
    forward = run(SUPPORTED)
    assert run(SUPPORTED[::-1]) == forward
    assert run(SUPPORTED, cold=True) == forward
    hand = hand_decomposition(Fraction(1, 12), "plus")  # chi4*chi_0_3 and three more
    with pytest.raises(ValueError, match=r"chi4\*chi_0_3"):
        rm.euler_values_matrix(hand, 2000, seed0=5)


def test_euler_values_matrix_rejects_a_hand_built_character():
    chi7 = rm.CharTable("legendre_mod7", 7, (0, 1, 1, -1, 1, -1, -1))
    d = rm.RationalDecomposition((rm.Term(1, chi7),))
    with pytest.raises(ValueError, match="legendre_mod7"):
        rm.euler_values_matrix(d, 10)


@pytest.mark.parametrize("seed0", [2**63 - 2, -(2**63) - 1, 2**64 - 2, -1])
def test_seeds_wrap_mod_2_64(seed0):
    # seeds past the int64 range are the hash's uint64 seeds mod 2^64, one
    # per sample, as -1 is 2^64 - 1
    wrapped = np.array([(seed0 + i) % 2**64 for i in range(4)], dtype=np.uint64)
    primes = primes_up_to(100)
    expected = rm.prime_sign_matrix(wrapped, primes)
    assert len({row.tobytes() for row in expected}) == 4
    N = 60
    values = sample_series_matrix(np.ones((N, 1)), N, 4, seed0)[:, 0]
    for row, value in zip(expected, values):
        exact = math.fsum(x_of(n, lambda p: int(row[primes == p][0])) / n for n in range(1, N + 1))
        assert value == pytest.approx(exact, rel=0, abs=1e-12)
    d = decompose_rational(Fraction(1, 5), "plus")
    np.testing.assert_allclose(rm.euler_values_matrix(d, 4, seed0, 100),
                               rm._euler_sum(d.terms, expected, primes, 100).real, rtol=0, atol=1e-12)


def test_dilation_outside_the_sign_columns_raises():
    primes = primes_up_to(3)
    signs = rm.prime_sign_matrix(np.arange(4), primes)
    with pytest.raises(ValueError, match="dilation 5"):
        rm._euler_sum((rm.Term(1, reference.CHI_0_2, 5),), signs, primes, 3)


@pytest.mark.parametrize("alpha,strict", [(Fraction(1, 12), 0.7511), (Fraction(5, 12), 0.4232)])
def test_strict_fraction_excludes_the_zero_atom(alpha, strict):
    # at 1/12 and 5/12 plus the Euler value is exactly 0 when X_2 = X_3 = -1;
    # roundoff there (a few 1e-16) must not count as positive
    samples = 10_000
    x = rm.prime_sign_matrix(np.arange(samples), np.array([2, 3]))
    atom = (x[:, 0] == -1) & (x[:, 1] == -1)
    d = decompose_rational(alpha, "plus")
    vals = rm.euler_values_matrix(d, samples, seed0=0, prime_cutoff=1000)
    assert np.abs(vals[atom]).max() < 1e-12
    assert np.abs(vals[~atom]).min() > 1e-6
    est = estimate_positivity(d, samples, seed=0, prime_cutoff=1000)
    strict_count = round(est.strict_fraction * samples)
    assert strict_count == round(est.nonneg_fraction * samples) - atom.sum()
    assert est.strict_fraction == strict
    if alpha == Fraction(1, 12):
        assert strict_count == samples - atom.sum()


# --------------------------------------------------------------------------
# Monte Carlo engine

def test_sample_series_matrix_batch_invariance(monkeypatch):
    c = CoefficientSpec("minus", Fraction(1, 3)).coefficients(500)

    def run(batch):
        monkeypatch.setattr(rm, "_SERIES_BATCH", batch)
        return sample_series_matrix(c[:, None], 500, 50, seed0=0)

    a, b, one, c2 = run(7), run(50), run(1), run(7)
    assert np.array_equal(a, c2)  # bit-identical under fixed batching
    assert np.allclose(a, b, atol=1e-12)  # batching only reorders float ops
    assert np.allclose(a, one, atol=1e-12)


@pytest.mark.parametrize("samples", [1000, 4000])
def test_sample_series_matrix_memory_does_not_grow_with_samples(samples):
    import tracemalloc

    N = 10**5
    cols = np.column_stack([
        CoefficientSpec(parity, Fraction(1, 3)).coefficients(N) for parity in ("plus", "minus")
    ])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample_series_matrix(cols, N, samples, seed0=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _traced_peak(call):
    """The tracemalloc peak of call(), in bytes above what was traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_kernel_layout_memory_follows_the_narrow_tables():
    # int64 tables over 0..N, six alive at once, peaked at about 88 bytes per n
    N = 2 * 10**5
    assert _traced_peak(lambda: rm._kernel_layout(N)) < 40 * N


def test_coefficients_memory_is_the_output_and_one_period():
    # the int64 residues and float64 angles of every n peaked at about 38 bytes per n
    N = 2 * 10**5
    assert _traced_peak(lambda: CoefficientSpec("plus", Fraction(1, 3)).coefficients(N)) < 20 * N


@pytest.mark.parametrize("chunk", [7, 1 << 15, 1 << 16])
def test_fold_adds_in_the_order_of_one_bincount(monkeypatch, chunk):
    # the printed series values depend on the order of each kernel's sum;
    # the fold takes _BLOCK_BYTES // 8 n a slice, 2^15 at the default
    monkeypatch.setattr(rm, "_BLOCK_BYTES", 8 * chunk)
    N = 3000
    layout = rm._kernel_layout(N)
    cols = np.column_stack([CoefficientSpec(p, Fraction(1, 3)).coefficients(N) for p in ("plus", "minus")])
    weights = rm._fold(cols, layout)
    n = np.arange(1, N + 1, dtype=np.float64)
    for c in range(2):
        whole = np.bincount(layout.row_of[1:], weights=cols[:, c] / n, minlength=len(layout.kernels))
        assert weights[:-1, c].tobytes() == whole.tobytes()
    assert not weights[-1].any()  # the row that row -1 of a group reads


@functools.cache
def _factor_table(N):
    return {n: prime_factors(n) for n in range(1, N + 1)}


@pytest.mark.parametrize("N", [*range(1, 301), 1000, 10**4])
def test_kernel_layout_rows_follow_their_factorisations(N):
    layout = rm._kernel_layout(N)
    root = math.isqrt(N)
    factors = {n: f for n, f in _factor_table(10**4).items() if n <= N}
    squarefree = [n for n, f in factors.items() if len(set(f)) == len(f)]
    d, large = layout.kernels.tolist(), layout.large.tolist()
    assert sorted(d) == squarefree
    row = {k: r for r, k in enumerate(d)}
    # the smooth rows, by (omega, d), then the m Q rows, by (m, Q)
    smooth = [k for k in squarefree if all(p <= root for p in factors[k])]
    assert d[: layout.smooth] == sorted(smooth, key=lambda k: (len(factors[k]), k))
    assert layout.small == len(primes_up_to(root))
    omega = [len(factors[k]) for k in smooth]
    bounds = [omega.count(w) for w in range(max(omega) + 1)]
    starts = list(itertools.accumulate(bounds, initial=0))
    assert layout.levels == tuple(zip(starts[2:-1], starts[3:]))
    for r, k in enumerate(d[: layout.smooth]):
        spf = factors[k][0] if k > 1 else 1
        assert (d[layout.spf_row[r]], d[layout.rest_row[r]]) == (spf, k // spf)
    assert large == [factors[k][-1] if k > 1 and factors[k][-1] > root else 1 for k in d]
    mq = [(k // q, q) for k, q in zip(d[layout.smooth :], large[layout.smooth :])]
    assert mq == sorted(mq) and all(q > 1 for _, q in mq)
    ms = sorted({m for m, _ in mq})
    assert [d[r] for r in layout.m_rows] == ms
    # a group is the m after its first whose runs are at least half as long
    runs = [sum(1 for m, _ in mq if m == mi) for mi in ms]
    big = [p for p in primes_up_to(N).tolist() if p > root]
    groups, i = [], 0
    while i < len(ms):
        k = next((j for j in range(i, len(ms)) if 2 * runs[j] < runs[i]), len(ms)) - i
        groups.append([[row[ms[i + c] * big[j]] if j < runs[i + c] else -1 for c in range(k)]
                       for j in range(runs[i])])
        i += k
    assert [g.tolist() for g in layout.groups] == groups
    for n in range(1, N + 1):
        core = math.prod(p for p in set(factors[n]) if factors[n].count(p) % 2)
        assert layout.row_of[n] == row[core]


def test_kernel_layout_dtypes():
    layout = rm._kernel_layout(10**4)
    for table in (layout.kernels, layout.large, layout.row_of, squarefree_core(10**4)):
        assert table.dtype == np.int32
    for index in (layout.spf_row, layout.rest_row, layout.m_rows) + layout.groups:
        assert index.dtype == np.intp  # gathered on every batch


def test_index_dtype_switches_at_2_31():
    assert rm._index_dtype(0) is rm._index_dtype(2**31 - 1) is np.int32
    assert rm._index_dtype(2**31) is rm._index_dtype(10**12) is np.int64


@pytest.mark.parametrize("N", [1, 2, 3, 4, 120, 121, 122, 600])
def test_sample_series_matrix_matches_trial_division(N):
    # the split at sqrt(N): no prime above it (N = 1), no prime below it
    # (N < 4), sqrt(N) prime (4, 121) and N just past a square (122)
    seeds = 5
    specs = [CoefficientSpec("plus", Fraction(1, 5)), CoefficientSpec("minus", Fraction(1, 3))]
    cols = np.column_stack([s.coefficients(N) for s in specs])
    vals = sample_series_matrix(cols, N, seeds, seed0=4)
    for i in range(seeds):
        sign_of = functools.partial(prime_sign, 4 + i)
        x = [x_of(n, sign_of) for n in range(1, N + 1)]
        for j in range(len(specs)):
            exact = math.fsum(cols[n - 1, j] * x[n - 1] / n for n in range(1, N + 1))
            assert vals[i, j] == pytest.approx(exact, rel=1e-12, abs=0)


def test_euler_values_matrix_memory_grows_by_the_int8_block_only():
    import tracemalloc

    d = decompose_rational(Fraction(1, 5), "plus")
    P = 10**4
    primes = primes_up_to(P)

    def traced(samples):
        """the call's peak and what stays after it, above the memory before"""
        rm._euler_memo.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rm.euler_values_matrix(d, samples, seed0=0, prime_cutoff=P)
            kept, peak = tracemalloc.get_traced_memory()
            return peak - base, kept - base
        finally:
            tracemalloc.stop()

    # the int8 sign rows are hashed and their float64 copy made one
    # _BLOCK_BYTES block (26 rows at P = 10^4) at a time; per sample, the
    # memo keeps 15 products and the sign columns of the primes up to 12
    # (141 bytes), and the logs, the values and the term sums take a few
    # hundred bytes while the call runs.  A samples × primes int8 block
    # alone would take len(primes) bytes per sample.
    added = 3000
    (small_peak, _), (large_peak, large_kept) = traced(1000), traced(1000 + added)
    assert large_peak - small_peak < added * (len(primes) + 256)
    assert large_kept < (1000 + added) * 256  # no int8 block stays behind


def test_euler_memo_peak_at_cutoff_10_4_stays_below_2_mib():
    # 1024-row blocks made a 10 MiB float64 copy of the 1229 primes' signs
    # (an 11.0 MiB peak); 26-row blocks peak at about 1.3 MiB
    d = decompose_rational(Fraction(1, 5), "plus")
    rm._euler_memo.cache_clear()
    assert _traced_peak(lambda: rm.euler_values_matrix(d, 1000, 0, 10**4)) < 2 * 2**20


#: block budgets of 4 rows a product block in the series sums (one row in
#: the Euler memo at P = 10^4), 32 (3) and 1024 (106)
PRODUCT_BUDGETS = (1 << 12, 1 << 15, 1 << 20)


@pytest.mark.parametrize("N", [3000, 10**4])
def test_sample_series_matrix_does_not_depend_on_the_product_budget(monkeypatch, N):
    # 300 samples end in a short batch; the blocks only regroup the sums
    cols = np.column_stack([
        CoefficientSpec(parity, Fraction(1, 3)).coefficients(N) for parity in ("plus", "minus")
    ])
    full = sample_series_matrix(cols, N, 300, seed0=11)
    for budget in PRODUCT_BUDGETS:
        monkeypatch.setattr(rm, "_BLOCK_BYTES", budget)
        np.testing.assert_allclose(sample_series_matrix(cols, N, 300, seed0=11), full, rtol=1e-13)


@pytest.mark.parametrize("P", [1000, 10**4])
def test_euler_values_do_not_depend_on_the_product_budget(monkeypatch, P):
    # another block regroups each matmul's log sums, and exp carries that
    # into the products; values move by a few ulp of the largest one
    d = decompose_rational(Fraction(1, 5), "plus")

    def values():
        rm._euler_memo.cache_clear()
        return rm.euler_values_matrix(d, 1000, 0, P)

    full = values()
    try:
        for budget in PRODUCT_BUDGETS:
            monkeypatch.setattr(rm, "_BLOCK_BYTES", budget)
            assert np.abs(values() - full).max() <= 16 * np.spacing(np.abs(full).max())
    finally:
        rm._euler_memo.cache_clear()  # no product of another budget stays cached


def test_series_weights_smooth_rows_own_their_data():
    # a view of the folded table kept all of its (kernel rows + 1) × C alive
    # through every batch, for the smooth rows that the sums read
    N = 3000
    layout = rm._kernel_layout(N)
    cols = CoefficientSpec("minus", Fraction(1, 3)).coefficients(N)[:, None]
    smooth, _ = rm._series_weights(cols, layout)
    assert smooth.base is None
    assert smooth.tobytes() == rm._fold(cols, layout)[: layout.smooth].tobytes()


def test_series_sum_builds_x_in_its_product_blocks():
    # X built on every smooth row first, then summed, also held the two
    # gathers of the widest omega level (13,505 rows): 6.96 MiB here
    N = 2 * 10**5
    layout = rm._kernel_layout(N)
    weights = rm._series_weights(
        CoefficientSpec("minus", Fraction(1, 3)).coefficients(N)[:, None], layout
    )
    signs = rm.prime_sign_matrix(rm._seeds(0, 0, 128), layout.primes)
    x_block = layout.smooth * len(signs)  # the int8 X, 3.66 MiB
    assert _traced_peak(lambda: rm._series_sum(weights, signs, layout)) < x_block + 1.5 * 2**20


def test_sample_series_matrix_memory_does_not_scale_as_samples_times_n():
    import tracemalloc

    N, samples = 2 * 10**5, 200
    c = CoefficientSpec("minus", Fraction(1, 3)).coefficients(N)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample_series_matrix(c[:, None], N, samples, seed0=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a samples × N float64 copy of X alone would take samples * N * 8 bytes
    assert peak < samples * N * 8 / 2


def _splitmix64(z: int) -> int:
    mask = (1 << 64) - 1
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_prime_sign_matrix_matches_pure_python_splitmix64():
    seeds = [0, 1, 2, 17, 999, 2**31 + 5, 2**63 - 1]
    primes = first_primes(300)
    # the hash wraps mod 2^64 in integer array arithmetic, which numpy
    # never checks, so it needs no errstate of its own
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        signs = rm.prime_sign_matrix(np.array(seeds, dtype=np.uint64), primes)
    assert signs.dtype == np.int8
    for i, seed in enumerate(seeds):
        for j, p in enumerate(primes.tolist()):
            h = _splitmix64(_splitmix64(seed) ^ _splitmix64(p))
            assert signs[i, j] == (-1 if h >> 63 else 1), (seed, p)


@pytest.mark.parametrize("rows", [1, 7, None])
def test_prime_sign_matrix_does_not_depend_on_its_row_blocks(monkeypatch, rows):
    # 50 seeds hash one row a block, in 7-row blocks with a short last one,
    # and at the default budget (109 rows on 300 primes) in one block
    seeds, primes = np.arange(50, dtype=np.uint64) + np.uint64(2**63 - 20), first_primes(300)
    if rows is not None:
        monkeypatch.setattr(rm, "_BLOCK_BYTES", 8 * len(primes) * rows)
    expected = [[-1 if _splitmix64(_splitmix64(seed) ^ _splitmix64(p)) >> 63 else 1
                 for p in primes.tolist()] for seed in seeds.tolist()]
    signs = rm.prime_sign_matrix(seeds, primes)
    assert signs.tobytes() == np.array(expected, dtype=np.int8).tobytes()


def test_import_leaves_numpy_error_state_alone():
    import os
    import subprocess
    import sys

    code = (
        "import numpy as np; before = np.geterr(); import legsums; "
        "assert np.geterr() == before, (before, np.geterr())"
    )
    src_dir = os.path.dirname(os.path.dirname(rm.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize(
    "pins,negate",
    [([], False), ([(2, -1), (7, 1)], False), ([(3, 1)], True)],
    ids=["plain", "forced", "twisted"],
)
def test_series_eval_matches_trial_division(pins, negate):
    # the series engine on one seed row, pinned or negated (the twist)
    N = 600
    primes = primes_up_to(N)
    row = sign_row(13, primes, pins, negate)
    x = [x_of(n, row_sign(row, primes)) for n in range(1, N + 1)]
    for spec in (CoefficientSpec("plus", Fraction(1, 5)), CoefficientSpec("minus", Fraction(1, 3))):
        a = spec.coefficients(N)
        exact = math.fsum(a[n - 1] * x[n - 1] / n for n in range(1, N + 1))
        value = series_rows(a[:, None], row[None, :], N)[0, 0]
        assert value == pytest.approx(exact, rel=1e-12, abs=0)


def test_estimate_positivity_third_minus_certain():
    d = decompose_rational(Fraction(1, 3), "minus")
    est = estimate_positivity(d, 300, prime_cutoff=500)
    assert est.strict_fraction == 1.0
    assert est.nonneg_fraction == 1.0
    assert est.ci95_strict == 0.0


def test_estimate_positivity_half_plus_all_zero():
    est = estimate_positivity(decompose_rational(Fraction(1, 2), "plus"), 300, prime_cutoff=500)
    assert est.strict_fraction == 0.0
    assert est.nonneg_fraction == 1.0


def test_estimate_positivity_series_evaluator():
    # the estimate of simulate --evaluator series: the series engine's values
    c = CoefficientSpec("minus", Fraction(1, 3)).coefficients(20000)
    est = PositivityEstimate.from_values(sample_series_matrix(c[:, None], 20000, 200)[:, 0])
    assert est.nonneg_fraction == 1.0


@pytest.mark.parametrize("shape", [(300,), (1, 300), (300, 1, 1)])
def test_sample_series_matrix_rejects_other_shapes(shape):
    c = CoefficientSpec("plus", Fraction(1, 5)).coefficients(300)
    with pytest.raises(ValueError, match="shape"):
        sample_series_matrix(c.reshape(shape), 300, 5)


# --------------------------------------------------------------------------
# twists and special statistics

def test_twist_products():
    # a row and its twist, the negated row
    P = 10**4
    primes = primes_up_to(P)
    row = sign_row(3, primes)
    pair = np.stack([row, -row])
    H = np.prod(rm._euler_sum((rm.Term(1, reference.CHI_0_5),), pair, primes, P))
    assert abs(H.real - 4 * math.pi**2 / 25) < 1e-3
    F = np.prod(rm._euler_sum((rm.Term(1, reference.CHI_0_2),), pair, primes, P))
    assert abs(F.real - math.pi**2 / 8) < 1e-3
    # the twisted product is far from pi^2/9
    assert abs(F.real - math.pi**2 / 9) > 0.1


def test_xi_statistics_values():
    xi = xi_statistics(10**5)
    assert abs(xi.variance - 0.35355) < 2e-4
    assert abs(xi.phi - 0.553574) < 1e-5
    assert xi.chebyshev_bound == pytest.approx(
        (xi.variance + 1 / 10**5) / (math.pi / 2 - xi.phi) ** 2
    )


def conditional_mean_1_8(samples, truncation, seed=0, forced_sign=-1):
    """Monte Carlo mean and standard error of the alpha = 1/8 sine series
    conditioned on X_2 = forced_sign.

    With n = 2^j m, m odd, X_n = forced_sign^j X_m, so the conditioned
    series is the sum over odd m of b_m X_m / m with
    b_m = sum_j a_{2^j m} (forced_sign / 2)^j, which the series engine
    samples on its own seeds.
    """
    coeffs = CoefficientSpec("plus", Fraction(1, 8)).coefficients(truncation)
    odd = np.arange(1, truncation + 1, 2)
    folded = np.zeros(truncation)
    n, weight = odd, 1.0
    while len(n):  # n = 2^j m runs over a prefix of the odd m
        folded[odd[: len(n)] - 1] += weight * coeffs[n - 1]
        n, weight = 2 * n[2 * n <= truncation], weight * forced_sign / 2
    values = sample_series_matrix(folded[:, None], truncation, samples, seed)[:, 0]
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(samples))


def test_conditional_mean_supports_recomputed_constant():
    # finding: given X_2 = -1 the mean is (sqrt(2) - 1)/2 times the sum of
    # 1/n^2 over odd n, which is pi^2/8; the printed (sqrt(2) - 1) pi^2/18
    # takes pi^2/9 for that sum
    mean, se = conditional_mean_1_8(samples=20000, truncation=5000, seed=1)
    recomputed = (math.sqrt(2) - 1) * math.pi**2 / 16
    printed = (math.sqrt(2) - 1) * math.pi**2 / 18
    assert abs(mean - recomputed) < 3 * se + 0.002
    assert abs(mean - printed) > 5 * se


def test_conditioning_matters():
    neg_mean, neg_se = conditional_mean_1_8(samples=5000, truncation=2000, forced_sign=-1)
    pos_mean, pos_se = conditional_mean_1_8(samples=5000, truncation=2000, forced_sign=+1)
    assert pos_mean - neg_mean > 10 * (pos_se + neg_se)


# --------------------------------------------------------------------------
# moments

def test_squarefree_core():
    core = squarefree_core(100)
    assert core[1] == 1 and core[4] == 1 and core[12] == 3
    assert core[72] == 2 and core[100] == 1 and core[60] == 15


def test_block_convolution_keys_do_not_wrap():
    # 46349 * 46351 = 2148322499 is past 2^31 - 1, so int32 keys would wrap
    d = np.array([46349, 46351], dtype=np.int32)
    keys, vals = rm._block_convolution(d, np.array([2.0, 3.0]), np.arange(2), np.arange(2), np.full(2, 2))
    assert keys.tolist() == [1, 2148322499]
    assert vals.tolist() == [4.0 + 9.0, 2 * 6.0]


def test_moment_k1_square_indices_only():
    c = CoefficientSpec("minus", Fraction(1, 3)).coefficients(1000)
    expected = sum(c[j * j - 1] / (j * j) for j in range(1, 32))
    assert moment_direct(c, 1) == pytest.approx(expected, rel=1e-12)


def _brute_second_moment(c: np.ndarray) -> float:
    N = len(c)
    total = 0.0
    for n in range(1, N + 1):
        for m in range(1, N + 1):
            nm = n * m
            r = math.isqrt(nm)
            if r * r == nm:
                total += c[n - 1] * c[m - 1] / nm
    return total


def test_moment_k2_brute_force():
    for parity, alpha in [("minus", Fraction(1, 2)), ("plus", Fraction(1, 3))]:
        c = CoefficientSpec(parity, alpha).coefficients(400)
        assert moment_direct(c, 2) == pytest.approx(_brute_second_moment(c), abs=1e-10)


#: pairs per block of the xor convolution the oracles run at besides the
#: default (_BLOCK_BYTES // 16, 16 bytes a pair): at one pair per block the
#: smooth group splits into as many blocks as it has kernels and every
#: group Q > 1 is a block of its own
XOR_BLOCKS = (1, 64)


def _at_each_xor_block(check):
    """Run check() at the default budget and at 16 bytes per pair of each
    of XOR_BLOCKS."""
    check()
    for block in XOR_BLOCKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rm, "_BLOCK_BYTES", 16 * block)
            check()


def test_moment_k3_k4_brute_force():
    c = CoefficientSpec("minus", Fraction(1, 4)).coefficients(60)
    n = np.arange(1, 61)
    w = c / n
    # brute force with numpy: product over tuples whose index product is square
    prod2 = np.multiply.outer(n, n)
    w2 = np.multiply.outer(w, w)
    prod3 = np.multiply.outer(prod2, n)
    w3 = np.multiply.outer(w2, w)
    r3 = np.sqrt(prod3).round().astype(np.int64)
    sq3 = r3 * r3 == prod3
    prod4 = np.multiply.outer(prod3, n).astype(np.int64)
    w4 = np.multiply.outer(w3, w)
    r = np.sqrt(prod4).round().astype(np.int64)
    sq4 = r * r == prod4

    def check():
        assert moment_direct(c, 3) == pytest.approx(float(w3[sq3].sum()), abs=1e-9)
        assert moment_direct(c, 4) == pytest.approx(float(w4[sq4].sum()), abs=1e-9)

    _at_each_xor_block(check)


def test_moment_k3_key_at_squarefree_truncation():
    # N = 30 is squarefree, so the products of two kernels that land exactly
    # on key N (e.g. 6 * 5) carry weight a_30 / 30 != 0
    N = 30
    c = CoefficientSpec("minus", Fraction(1, 4)).coefficients(N)
    w = c / np.arange(1, N + 1)
    total = 0.0
    for a, b, d in itertools.product(range(1, N + 1), repeat=3):
        r = math.isqrt(a * b * d)
        if r * r == a * b * d:
            total += w[a - 1] * w[b - 1] * w[d - 1]

    def check():
        assert moment_direct(c, 3) == pytest.approx(total, rel=1e-12)
        assert rm.moment_bundle(c)[3] == pytest.approx(total, rel=1e-12)

    _at_each_xor_block(check)


def _all_pairs_xor_convolution(support, weights):
    """The all-pairs gcd-key convolution: every pair u < v of kernels at key
    u*v/gcd(u,v)^2 with weight 2 w_u w_v, plus the key 1 with sum w^2.
    Each row of weights is convolved on its own."""
    i, j = np.triu_indices(len(support), 1)
    u, v = support[i], support[j]
    g = np.gcd(u, v)
    keys = np.concatenate(([1], (u // g) * (v // g)))
    vals = np.column_stack([(weights**2).sum(axis=1), 2 * weights[:, i] * weights[:, j]])
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq, np.array([np.bincount(inverse, weights=row) for row in vals])


@functools.lru_cache(maxsize=None)
def _trial_division_cores(N):
    """core[n] for 0 < n <= N: the product of the primes dividing n to an odd power."""
    cores = [0]
    for n in range(1, N + 1):
        core, m, p = 1, n, 2
        while p * p <= m:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            core *= p if e % 2 else 1
            p += 1
        cores.append(core * m)  # what is left of m is 1 or a prime
    return np.array(cores)


def _assert_moments_match_all_pairs(c):
    """k = 3, 4 of moment_bundle against the all-pairs convolution, with the
    kernel weights folded here onto trial-division cores.  The same sums
    over |a_n| bound every term, so they scale the rounding."""
    N = len(c)
    n = np.arange(1, N + 1)
    w = np.array([
        np.bincount(_trial_division_cores(N), weights=np.r_[0, a / n], minlength=N + 1)
        for a in (c, np.abs(c))
    ])
    support = np.flatnonzero(w[1])
    keys, vals = _all_pairs_xor_convolution(support, w[:, support])
    low = keys <= N
    (k3, scale3), (k4, scale4) = (vals[:, low] * w[:, keys[low]]).sum(axis=1), (vals**2).sum(axis=1)

    def check():
        bundle = rm.moment_bundle(c, 4)
        assert bundle[3] == pytest.approx(k3, rel=1e-12, abs=1e-12 * scale3)
        assert bundle[4] == pytest.approx(k4, rel=1e-12, abs=1e-12 * scale4)

    _at_each_xor_block(check)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 400), seed=st.integers(0, 2**32 - 1), zeros=st.floats(0, 0.9))
@example(N=48, seed=1, zeros=0.0)
@example(N=49, seed=2, zeros=0.0)
@example(N=50, seed=3, zeros=0.5)
@example(N=120, seed=4, zeros=0.0)
@example(N=121, seed=5, zeros=0.0)
@example(N=122, seed=6, zeros=0.3)
@example(N=168, seed=7, zeros=0.0)
@example(N=169, seed=8, zeros=0.0)
@example(N=170, seed=9, zeros=0.6)
@example(N=30, seed=10, zeros=1.0)
def test_moment_bundle_matches_all_pairs_random_weights(N, seed, zeros):
    # around prime squares the split at sqrt(N) moves: 7 and 11 and 13 each
    # go from above sqrt(N) to at or below it
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, N)
    c[rng.random(N) < zeros] = 0
    _assert_moments_match_all_pairs(c)


@pytest.mark.parametrize("alpha,parity", SUPPORTED)
def test_moment_bundle_matches_all_pairs_supported(alpha, parity):
    _assert_moments_match_all_pairs(CoefficientSpec(parity, alpha).coefficients(2000))


@pytest.mark.parametrize("N", [1, 49, 1000])
def test_moment_bundle_orders_agree(N):
    c = CoefficientSpec("plus", Fraction(2, 5)).coefficients(N)
    full = rm.moment_bundle(c, 4)
    for kmax in range(1, 5):
        part = rm.moment_bundle(c, kmax)
        assert part == {k: full[k] for k in range(1, kmax + 1)}


def test_moment_bundle_memory_below_k_squared():
    import tracemalloc

    c = CoefficientSpec("minus", Fraction(1, 3)).coefficients(10**4)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rm.moment_bundle(c)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the all-pairs keys of its 4562 kernels alone would take 83 MB
    assert peak < 64 * 2**20


def _moment_bundle_peak(alpha, parity, N):
    c = CoefficientSpec(parity, alpha).coefficients(N)
    return _traced_peak(lambda: rm.moment_bundle(c))


def test_moment_bundle_memory_at_the_moments_defaults():
    # holding all 423,660 smooth pairs at once peaked at 24 MB
    assert _moment_bundle_peak(Fraction(1, 3), "minus", 10**4) < 12 * 2**20


def test_moment_bundle_memory_does_not_follow_the_smooth_pairs():
    # 3.6M smooth pairs at N = 3*10^4; holding them at once peaked at 143 MiB
    assert _moment_bundle_peak(Fraction(1, 4), "plus", 3 * 10**4) < 64 * 2**20


def _xor_blocks(c, block):
    """moment_bundle(c) at block pairs per xor block (_BLOCK_BYTES =
    16 × block), and for each block of its xor convolution whether it is of
    the smooth group, with its pairs."""
    blocks, convolve = [], rm._block_convolution

    def record(d, w, rows, lo, hi, offset=None):
        blocks.append((offset is None, int(np.sum(hi - lo))))
        return convolve(d, w, rows, lo, hi, offset)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rm, "_BLOCK_BYTES", 16 * block)
        patch.setattr(rm, "_block_convolution", record)
        return rm.moment_bundle(c), blocks


def _smooth_blocks(c, block):
    """The smooth group's pairs and its 2^min(ceil(log2(pairs / block)),
    bit_length(smooth) - 3) blocks, smooth its number of kernels."""
    smooth = int(np.sum(rm._kernel_weights(c)[3] == 1))
    pairs = smooth * (smooth + 1) // 2
    return pairs, 2 ** min(max(math.ceil(math.log2(pairs / block)), 0), smooth.bit_length() - 3)


def test_xor_blocks_fit_the_cache_at_the_moments_defaults():
    c = CoefficientSpec("minus", Fraction(1, 3)).coefficients(10**4)
    per_block = rm._BLOCK_BYTES // 16
    _, blocks = _xor_blocks(c, per_block)
    pairs, classes = _smooth_blocks(c, per_block)
    assert classes == 32
    assert [is_smooth for is_smooth, _ in blocks] == [False] * 2 + [True] * classes
    assert sum(n for is_smooth, n in blocks if is_smooth) == pairs
    assert max(n for _, n in blocks) <= 2 * per_block


@pytest.mark.parametrize("alpha,parity", [(Fraction(1, 3), "minus"), (Fraction(1, 4), "plus")])
def test_moment_bundle_does_not_depend_on_the_block_size(alpha, parity):
    # in every case the cap on the smooth group's blocks binds: 2^7 of them
    # at N = 10^4 and 2^6 (1/3 minus) or 2^5 (1/4 plus) at N = 3000
    cases = [(10**4, block) for block in XOR_BLOCKS + (2**10,)] + [(3000, 64)]
    full = {N: rm.moment_bundle(CoefficientSpec(parity, alpha).coefficients(N)) for N in (10**4, 3000)}
    for N, block in cases:
        c = CoefficientSpec(parity, alpha).coefficients(N)
        part, blocks = _xor_blocks(c, block)
        pairs, classes = _smooth_blocks(c, block)
        assert classes < pairs / block
        assert sum(is_smooth for is_smooth, _ in blocks) == classes
        for k in (3, 4):
            assert part[k] == pytest.approx(full[N][k], rel=1e-13, abs=0)
        assert [part[k] for k in (1, 2)] == [full[N][k] for k in (1, 2)]


def test_moment_k5_exact_small():
    # N = 10 involves only the primes 2, 3, 5, 7: enumerate all sign patterns
    N = 10
    c = CoefficientSpec("minus", Fraction(1, 3)).coefficients(N)
    total = 0.0
    for signs in itertools.product((1, -1), repeat=4):
        xp = dict(zip((2, 3, 5, 7), signs))

        def x(n):
            out = 1
            for p, s in xp.items():
                m, e = n, 0
                while m % p == 0:
                    m //= p
                    e += 1
                if e % 2:
                    out *= s
            return out

        val = sum(c[n - 1] * x(n) / n for n in range(1, N + 1))
        total += val**5
    exact = total / 16
    approx = moment_direct(c, 5)
    assert approx == pytest.approx(exact, abs=1e-9)


def test_moment_order_limits():
    c = CoefficientSpec("minus", Fraction(1, 3)).coefficients(100)
    with pytest.raises(ValueError):
        moment_direct(c, 7)


def _exhaustive_moments(c, kmax=6):
    """E S^k for k = 1..kmax averaged over every sign vector on the primes up
    to N = len(c): bit i of b flips the sign of the i-th prime, and X_n is
    the product of the signs of the primes of core(n), found by trial
    division."""
    N = len(c)
    primes = primes_up_to(N).tolist()
    b = np.arange(1 << len(primes))
    s = np.zeros(len(b))
    for n, core in enumerate(_trial_division_cores(N)[1:].tolist(), start=1):
        odd = np.zeros(len(b), dtype=bool)
        for i, p in enumerate(primes):
            if core % p == 0:
                odd ^= (b >> i) & 1 == 1
        s += c[n - 1] / n * np.where(odd, -1.0, 1.0)
    return [math.fsum(s**k) / len(s) for k in range(1, kmax + 1)]


#: chunk sizes of the k = 5, 6 cube pass the oracles run at besides the
#: default: at 2 points a chunk nearly every group is walked chunk by chunk
CUBE_CHUNKS = (2, 16)


def _at_each_cube_chunk(check):
    """Run check() at the default _CUBE_CHUNK and at each of CUBE_CHUNKS."""
    check()
    for chunk in CUBE_CHUNKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rm, "_CUBE_CHUNK", chunk)
            check()


CUBE_SPECS = [(Fraction(1, 3), "minus"), (Fraction(1, 4), "plus"),
              (Fraction(2, 5), "plus"), (Fraction(1, 12), "minus")]


@pytest.mark.parametrize("N", [1, 2, 3, 10, 40, 60])
@pytest.mark.parametrize("alpha,parity", CUBE_SPECS)
def test_moment_bundle_matches_exhaustive_enumeration(alpha, parity, N):
    c = CoefficientSpec(parity, alpha).coefficients(N)
    expected = _exhaustive_moments(c)

    def check():
        bundle = rm.moment_bundle(c, 6)
        for k in range(1, 7):
            assert bundle[k] == pytest.approx(expected[k - 1], rel=1e-12), k

    _at_each_cube_chunk(check)


@pytest.mark.parametrize("alpha,parity", CUBE_SPECS)
def test_cube_moments_do_not_depend_on_the_chunk_size(monkeypatch, alpha, parity):
    # 7 primes up to sqrt(300): 64 chunks of 2 points, 8 of 16
    c = CoefficientSpec(parity, alpha).coefficients(300)
    full = rm.moment_bundle(c, 6)
    for chunk in CUBE_CHUNKS:
        monkeypatch.setattr(rm, "_CUBE_CHUNK", chunk)
        part = rm.moment_bundle(c, 6)
        for k in (5, 6):
            assert part[k] == pytest.approx(full[k], rel=1e-13, abs=0)
        assert [part[k] for k in range(1, 5)] == [full[k] for k in range(1, 5)]


def _cube_transforms(monkeypatch, c, chunk):
    """moment_bundle(c, 6) at the given _CUBE_CHUNK, the _walsh calls it
    made, the calls one per chunk for A_1 and one per narrow group give, and
    s - c for each wide group, whose width s is more than the chunk's c
    bits.  A group Q > 1 has the width of its largest small prime's index,
    plus one."""
    N = len(c)
    support, _, _, large = rm._kernel_weights(c)
    small = primes_up_to(math.isqrt(N)).tolist()
    bits = min(len(small), chunk.bit_length() - 1)
    widths = []
    for q in np.unique(large[large > 1]).tolist():
        m = support[large == q] // q
        widths.append(max((i + 1 for i, p in enumerate(small) if (m % p == 0).any()), default=0))
    calls = []
    walsh = rm._walsh
    monkeypatch.setattr(rm, "_CUBE_CHUNK", chunk)
    monkeypatch.setattr(rm, "_walsh", lambda v: calls.append(len(v)) or walsh(v))
    bundle = rm.moment_bundle(c, 6)
    wide = [s - bits for s in widths if s > bits]
    return bundle, len(calls), 2 ** (len(small) - bits) + len(widths) - len(wide), wide


@pytest.mark.parametrize("chunk", [1 << 6, 1 << 10])
def test_cube_moments_transform_a_wide_group_once_per_value_it_reads(monkeypatch, chunk):
    # N = 3000 has r = 16 primes below sqrt(N), so 1024 and 64 chunks; a
    # wide group reads the low s - c bits of the chunk's index h, so it
    # takes 2^(s - c) transforms, not one per chunk
    c = CoefficientSpec("minus", Fraction(1, 3)).coefficients(3000)
    _, calls, fixed, wide = _cube_transforms(monkeypatch, c, chunk)
    h_bits = 16 - (chunk.bit_length() - 1)
    assert min(wide) < h_bits  # some wide group reads fewer bits than h has
    assert calls == fixed + sum(2**t for t in wide)


@pytest.mark.parametrize("N", [1, 3, 100, 1000])
def test_moment_bundle_of_zero_coefficients_is_zero(N):
    assert rm.moment_bundle(np.zeros(N), 6) == {k: 0.0 for k in range(1, 7)}


def test_moment_bundle_refuses_k5_above_27_small_primes(monkeypatch):
    c = CoefficientSpec("minus", Fraction(1, 3)).coefficients(107**2)
    assert len(rm.moment_bundle(c, 4)) == 4  # k <= 4 has no such limit

    def refuse(*args):
        raise AssertionError("the refused pass did work")

    monkeypatch.setattr(rm, "_kernel_weights", refuse)
    for k in (5, 6):
        with pytest.raises(ValueError, match="r = 28"):
            rm.moment_bundle(c, k)


def test_moment_bundle_walks_27_small_primes(monkeypatch):
    # N = 107^2 - 1 has the primes up to 103 below sqrt(N), 27 of them
    walked = []
    monkeypatch.setattr(rm, "_cube_moments", lambda *args: walked.append(len(args[-1])) or (1.0, 2.0))
    bundle = rm.moment_bundle(CoefficientSpec("minus", Fraction(1, 3)).coefficients(107**2 - 1), 6)
    assert walked == [27] and (bundle[5], bundle[6]) == (1.0, 2.0)


@pytest.mark.slow
def test_moment_bundle_k5_k6_at_the_moments_defaults(monkeypatch):
    # 2^25 sign vectors of the 25 primes below 100, in 128 chunks; the 10
    # wide groups Q = 101 .. 149 take 442 transforms, not 10 per chunk
    c = CoefficientSpec("minus", Fraction(1, 3)).coefficients(10**4)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bundle, calls, fixed, wide = _cube_transforms(monkeypatch, c, rm._CUBE_CHUNK)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (len(wide), sum(2**t for t in wide), calls) == (10, 442, fixed + 442)
    assert bundle[5] == pytest.approx(421.3481588149543, rel=1e-12)
    assert bundle[6] == pytest.approx(1970.223833359823, rel=1e-12)
    assert peak < 64 * 2**20
