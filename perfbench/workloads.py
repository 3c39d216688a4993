"""The three workloads: their inputs, the timed calls of one round, the checks
on each call's output, and the spans a traced round records.

A round is a fixed list of operations.  Each operation is one call into the
program; it fails if it raises or if any of its checks fails.  Checks compare
with `oracles` (independent of the package) or with properties the method
must have, never with stored program output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import numpy as np

from legsums import charsum, cli, primes, randmodel, tails

import oracles

DENSITY_ALPHAS = [Fraction(2, 5), Fraction(3, 8), Fraction(1, 12), oracles.INV_2PI, oracles.INV_E]
DENSITY_SIZES = [1000, 10000]
RADII = (0.0, 1e-8, 1e-7, 1e-6, 2e-6, 1e-5, 1e-4, 1e-3)
EULER_SAMPLES = 10_000
EULER_CUTOFF = 1000
SERIES_TRUNCATION = 100_000
RECHECKED_SEEDS = 3
MOMENT_TRUNCATION = 10_000
ORACLE_N = 40
ORACLE_SPECS = [(Fraction(1, 3), "minus"), (Fraction(1, 4), "plus"), (Fraction(2, 5), "plus")]

#: (alpha, parity) pairs whose Euler value is nonnegative for every sign draw.
UNCONDITIONAL = [
    (Fraction(1, 2), "minus"), (Fraction(1, 3), "plus"), (Fraction(1, 3), "minus"),
    (Fraction(1, 4), "plus"), (Fraction(1, 4), "minus"), (Fraction(1, 6), "plus"),
    (Fraction(3, 8), "minus"), (Fraction(2, 5), "minus"),
]


def run_cli(argv):
    """legsums <argv> as a user runs it; returns its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"legsums {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class Workload:
    name = ""

    def __init__(self, seed):
        self.seed = seed
        self._reference = None

    def operations(self):
        """[(label, zero-argument call)] for one round, in order."""
        raise NotImplementedError

    def check(self, label, output):
        """Failure messages for one operation's output (empty when it passes)."""
        raise NotImplementedError

    def reference(self):
        """Reference data for the checks, built once per run on first use,
        outside the timed region."""
        if self._reference is None:
            self._reference = self.build_reference()
        return self._reference

    def build_reference(self):
        return {}

    def trace(self, tracer):
        """Install this workload's spans on the tracer.

        The `primes.lookup` spans around the prime-table lookups are not
        reported; they keep sieve growth out of their callers' self time.
        """
        tracer.wrap(primes, "sieve_primes", "primes.sieve", count=_count_sieve)


def _count_sieve(tracer, a, result):
    tracer.maxima["primes.sieve_limit"] = max(tracer.maxima["primes.sieve_limit"], a["limit"])


# --------------------------------------------------------------------------

class DensityTable(Workload):
    """The ten cells scripts/density_table.py prints without --full, on one
    thread, in an order drawn from the seed."""

    name = "density-table"

    def __init__(self, seed):
        super().__init__(seed)
        self.cells = [(a, n) for a in DENSITY_ALPHAS for n in DENSITY_SIZES]
        random.Random(seed).shuffle(self.cells)

    def operations(self):
        return [
            ((alpha, n), lambda alpha=alpha, n=n: charsum.density_scan(alpha, n, threads=1))
            for alpha, n in self.cells
        ]

    def check(self, cell, r):
        expected = oracles.PRINTED_NONNEG[cell]
        fails = []
        if r.prime_count != cell[1]:
            fails.append(f"scanned {r.prime_count} primes, asked for {cell[1]}")
        if r.nonneg_count != expected:
            fails.append(f"nonneg {r.nonneg_count} != printed {expected}")
        if r.nonneg_1mod4 + r.nonneg_3mod4 + 1 != r.nonneg_count:
            fails.append("nonneg_1mod4 + nonneg_3mod4 + 1 != nonneg (p = 2 is scanned)")
        if r.strict_pos_count > r.nonneg_count:
            fails.append("strict > nonneg")
        if r.zero_count != r.nonneg_count - r.strict_pos_count:
            fails.append("zero != nonneg - strict")
        return fails

    def trace(self, tracer):
        super().trace(tracer)
        tracer.wrap(charsum, "first_primes", "primes.lookup")
        tracer.wrap(charsum, "alpha_cutoff", "charsum.cutoff")
        tracer.wrap(charsum, "density_scan", "charsum.scan", count=_count_scan, peak="charsum.peak")
        tracer.count_log_records("legsums.charsum", "charsum.boundary_hits")


def _count_scan(tracer, a, result):
    tracer.counts["charsum.prime_evals"] += a["num_primes"]


# --------------------------------------------------------------------------

class PositivityModel(Workload):
    """legsums simulate (series evaluator, both parities at 1/3), the Euler
    evaluator over every supported pair as scripts/positivity_estimates.py
    runs it, and the certificate chain as scripts/certification_constants.py
    runs it."""

    name = "positivity-model"

    def __init__(self, seed):
        super().__init__(seed)
        self.simulate_argv = ["simulate", "--alpha", "1/3", "--evaluator", "series",
                              "--seed", str(seed), "--format", "json"]
        self.pairs = [(a, par) for a in randmodel.SUPPORTED_ALPHAS for par in ("plus", "minus")]

    def operations(self):
        ops = [("simulate", lambda: json.loads(run_cli(self.simulate_argv)))]
        ops += [(pair, lambda pair=pair: self._euler(*pair)) for pair in self.pairs]
        ops.append(("certificate", certificate_chain))
        return ops

    def _euler(self, alpha, parity):
        """One pair as scripts/positivity_estimates.py estimates it."""
        return randmodel.estimate_positivity(
            randmodel.decompose_rational(alpha, parity), EULER_SAMPLES,
            seed=self.seed, prime_cutoff=EULER_CUTOFF)

    def build_reference(self):
        third = Fraction(1, 3)
        N = SERIES_TRUNCATION
        spf = oracles.smallest_prime_factors(N)
        ps = [p for p in range(2, N + 1) if spf[p] == p]
        seeds = np.arange(self.seed, self.seed + RECHECKED_SEEDS)
        signs = randmodel.prime_sign_matrix(seeds, np.array(ps))
        series = {}
        for parity in ("plus", "minus"):
            program = randmodel.sample_series_matrix(
                randmodel.CoefficientSpec(parity, third).coefficients(N)[:, None],
                N, RECHECKED_SEEDS, self.seed)[:, 0]
            own_coeffs = oracles.coefficients(third, parity, N)
            own = [oracles.series_value(own_coeffs, oracles.multiplicative_extension(
                dict(zip(ps, row.tolist())), N, spf)) for row in signs]
            series[parity] = (program.tolist(), own)
        x23 = randmodel.prime_sign_matrix(
            np.arange(self.seed, self.seed + EULER_SAMPLES), np.array([2, 3]))
        return {
            "series": series,
            "share_x2_x3_negative": float(np.mean((x23[:, 0] == -1) & (x23[:, 1] == -1))),
            "share_x2_positive": float(np.mean(x23[:, 0] == 1)),
            "zeta_ratio": oracles.zeta_ratio_scaled(),
            "c_lower_2e-6": oracles.c_lower_recomputed(2e-6),
        }

    def check(self, label, out):
        if label == "simulate":
            return self._check_simulate(out)
        if label == "certificate":
            return self._check_certificate(out)
        return self._check_euler(label, out)

    def _check_simulate(self, rows):
        fails = []
        by_parity = {row["parity"]: row for row in rows}
        for parity in ("plus", "minus"):
            if by_parity[parity]["nonneg_fraction"] < 0.99:
                fails.append(f"1/3 {parity}: nonneg_fraction {by_parity[parity]['nonneg_fraction']} < 0.99")
        mean = (by_parity["plus"]["nonneg_fraction"] + by_parity["minus"]["nonneg_fraction"]) / 2
        if abs(by_parity["combined"]["nonneg_fraction"] - mean) > 1e-15:
            fails.append("combined row is not the mean of the parity rows")
        for parity, (program, own) in self.reference()["series"].items():
            for i, (a, b) in enumerate(zip(program, own)):
                if rel_diff(a, b) > 1e-9:
                    fails.append(f"1/3 {parity} seed {self.seed + i}: series {a} != recomputed {b}")
        return fails

    def _check_euler(self, pair, est):
        ref = self.reference()
        if pair in UNCONDITIONAL and est.nonneg_fraction != 1.0:
            return [f"{pair}: nonneg_fraction {est.nonneg_fraction} != 1"]
        if pair == (Fraction(1, 6), "minus"):
            expected = 1 - ref["share_x2_x3_negative"]
            if round(est.nonneg_fraction * EULER_SAMPLES) != round(expected * EULER_SAMPLES):
                return [f"{pair}: nonneg_fraction {est.nonneg_fraction} != 1 - P(X2 = X3 = -1) = {expected}"]
        if pair == (Fraction(1, 8), "plus") and est.nonneg_fraction < ref["share_x2_positive"]:
            return [f"{pair}: nonneg_fraction {est.nonneg_fraction} < P(X2 = 1)"]
        if pair == (Fraction(1, 5), "plus") and est.nonneg_fraction < 2 / 3 - 2 * est.ci95_nonneg:
            return [f"{pair}: nonneg_fraction {est.nonneg_fraction} < 2/3 - 2 ci"]
        return []

    def _check_certificate(self, out):
        ref = self.reference()
        fails = []
        if not out["sigma2"] < 0.395:
            fails.append(f"sigma2 {out['sigma2']} >= 0.395")
        if rel_diff(out["zeta_ratio"], ref["zeta_ratio"]) > 1e-9:
            fails.append(f"zeta ratio {out['zeta_ratio']} != mpmath {ref['zeta_ratio']}")
        rec = out["recomputed"][RADII.index(2e-6)]
        if abs(rec.c_lower - ref["c_lower_2e-6"]) > 1e-9:
            fails.append(f"recomputed c_lower {rec.c_lower} != mpmath {ref['c_lower_2e-6']}")
        if rec.certified or not rec.c_lower > 0.5:
            fails.append(f"recomputed c_lower {rec.c_lower}: certified={rec.certified}")
        printed = out["printed"][RADII.index(2e-6)]
        if not printed.c_lower >= 0.534:
            fails.append(f"printed c_lower {printed.c_lower} < 0.534")
        for constants in ("printed", "recomputed"):
            c = [r.c_lower for r in out[constants]]
            if any(b > a + 1e-12 for a, b in zip(c, c[1:])):
                fails.append(f"{constants} c_lower increases with delta: {c}")
        return fails

    def trace(self, tracer):
        super().trace(tracer)
        tracer.wrap(randmodel, "primes_up_to", "primes.lookup")
        tracer.wrap(tails, "primes_up_to", "primes.lookup")
        tracer.wrap(randmodel, "prime_sign_matrix", "randmodel.sign_hash", count=_count_signs)
        tracer.wrap(randmodel, "sample_series_matrix", "randmodel.series",
                    count=_count_series, peak="randmodel.series_peak")
        tracer.wrap(randmodel, "euler_values_matrix", "randmodel.euler",
                    count=_count_euler, peak="randmodel.euler_peak")
        tracer.wrap(tails, "sigma2_one_third", "tails.sigma2")
        tracer.wrap(tails, "zeta_ratio_check", "tails.zeta_ratio")
        tracer.wrap(tails, "certify_neighborhood", "tails.certify")
        tracer.wrap(tails, "optimize_u", "tails.optimize")


def certificate_chain():
    """The calls scripts/certification_constants.py makes."""
    _, _, sigma2 = tails.sigma2_one_third(10**6)
    zr = tails.zeta_ratio_check(10**5)
    tails.distance_bound(2 * math.pi, 1, 1)
    return {
        "sigma2": sigma2,
        "zeta_ratio": zr.scaled,
        "printed": [tails.certify_neighborhood(1 / 3 + d, constants="printed") for d in RADII],
        "recomputed": [tails.certify_neighborhood(1 / 3 + d, constants="recomputed") for d in RADII],
    }


def _count_signs(tracer, a, result):
    tracer.counts["randmodel.sign_cells"] += result.size


def _count_series(tracer, a, result):
    tracer.counts["randmodel.series_terms"] += result.shape[0] * a["N"] * result.shape[1]


def _count_euler(tracer, a, result):
    n_primes = len(primes.primes_up_to(a["prime_cutoff"]))
    tracer.counts["randmodel.euler_factors"] += len(result) * n_primes * len(a["decomp"].terms)


# --------------------------------------------------------------------------

class Moments(Workload):
    """legsums moments --alpha 1/3 --parity minus at its defaults."""

    name = "moments"

    def __init__(self, seed):
        super().__init__(seed)
        self.argv = ["moments", "--alpha", "1/3", "--parity", "minus",
                     "--seed", str(seed), "--format", "json"]

    def operations(self):
        return [("moments", lambda: json.loads(run_cli(self.argv)))]

    def build_reference(self):
        third = Fraction(1, 3)
        exhaustive = {}
        for alpha, parity in ORACLE_SPECS:
            program_coeffs = randmodel.CoefficientSpec(parity, alpha).coefficients(ORACLE_N)
            program = [randmodel.moment_direct(program_coeffs, k) for k in range(1, 5)]
            own = oracles.exhaustive_moments(oracles.coefficients(alpha, parity, ORACLE_N), 4)
            exhaustive[(alpha, parity)] = (program, own)
        return {
            "k2": oracles.second_moment(oracles.coefficients(third, "minus", MOMENT_TRUNCATION)),
            "exhaustive": exhaustive,
        }

    def check(self, label, rows):
        ref = self.reference()
        fails = []
        direct = {row["k"]: row["direct"] for row in rows}
        if sorted(direct) != [2, 3, 4]:
            return [f"rows for k = {sorted(direct)}, expected 2, 3, 4"]
        if rel_diff(direct[2], ref["k2"]) > 1e-12:
            fails.append(f"k=2 direct {direct[2]} != kernel sum {ref['k2']}")
        if direct[3] ** 2 > direct[2] * direct[4]:
            fails.append("k3^2 > k2 * k4")
        if direct[4] < direct[2] ** 2:
            fails.append("k4 < k2^2")
        for row in rows:
            if not abs(row["z"]) <= 5:
                fails.append(f"k={row['k']}: |z| = {abs(row['z'])} > 5")
        for spec, (program, own) in ref["exhaustive"].items():
            for k, (a, b) in enumerate(zip(program, own), start=1):
                if rel_diff(a, b) > 1e-12:
                    fails.append(f"{spec} k={k}: moment_direct {a} != exhaustive {b}")
        return fails

    def trace(self, tracer):
        super().trace(tracer)
        tracer.wrap(randmodel, "primes_up_to", "primes.lookup")
        tracer.wrap(randmodel, "prime_sign_matrix", "randmodel.sign_hash", count=_count_signs)
        tracer.wrap(randmodel, "sample_series_matrix", "randmodel.series",
                    count=_count_series, peak="randmodel.series_peak")
        tracer.wrap(randmodel, "_kernel_weights", "randmodel.kernel_weights", count=_count_kernels)
        tracer.wrap(randmodel, "_xor_convolution", "randmodel.xor", count=_count_xor)
        tracer.wrap(randmodel, "moment_direct", _moment_span, peak="randmodel.moment_peak")


def _moment_span(a):
    return f"randmodel.moment_k{a['k']}"


def _count_kernels(tracer, a, result):
    tracer.maxima["randmodel.kernel_support"] = max(tracer.maxima["randmodel.kernel_support"], len(result[0]))


def _count_xor(tracer, a, result):
    tracer.counts["randmodel.xor_builds"] += 1
    tracer.counts["randmodel.xor_pairs"] += len(a["support"]) ** 2


WORKLOADS = {w.name: w for w in (DensityTable, PositivityModel, Moments)}
