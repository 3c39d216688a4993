"""Command-line entry point.

Every subcommand is deterministic given its flags (seed defaults to 0), and
output bodies are independent of the thread count.  Exit codes: 0 success,
1 a verification-style check failed (or certification-chain's variance
bound did not hold at its --prime-cutoff), 2 usage error: argparse's own
(a size of 2^63 or more included), an input a library check rejects, a size
too large for numpy to index or for memory to hold, or an --out path that
cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import charsum, randmodel, tails
from .charsum import parse_alpha


def _rows_to_text(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _int_at_least(low: int):
    """An argparse type for a size: an integer in [low, 2^63), else a usage
    error (exit 2) that names the flag.  numpy indexes no larger size."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not low <= value < 2**63:
            raise argparse.ArgumentTypeError(f"expected an integer in [{low}, 2^63), got {text!r}")
        return value

    return parse


def _parsed(parse):
    """An argparse type for --alpha: parse(text), with a parse error (such
    as '1/0' or 'abc') made a usage error (exit 2)."""

    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"expected a fraction a/b or a decimal, got {text!r}") from None

    return convert


def _alpha(text: str):
    """An argparse type for --alpha: a fraction or decimal in [0, 1), else a
    usage error (exit 2)."""
    alpha = _parsed(parse_alpha)(text)
    if not 0 <= alpha < 1:
        raise argparse.ArgumentTypeError(f"expected alpha in [0, 1), got {text!r}")
    return alpha


# --------------------------------------------------------------------------
# subcommands: each returns (text, status), status an exit code or, as
# sys.exit takes it, a message for stderr with exit 1; an empty text leaves
# stdout empty

def _cmd_density(args) -> tuple[str, int | str]:
    report = charsum.density_scan(args.alpha, args.primes)
    row = {
        "alpha": str(report.alpha),
        "primes": report.prime_count,
        "nonneg": report.nonneg_count,
        "strictpos": report.strict_pos_count,
        "zero": report.zero_count,
        "nonneg_1mod4": report.nonneg_1mod4,
        "nonneg_3mod4": report.nonneg_3mod4,
        "mode": args.mode,
    }
    text = json.dumps(row) if args.format == "json" else _rows_to_text([row], "csv")
    count = report.nonneg_count if args.mode == "ge" else report.strict_pos_count
    if args.verify is not None and count != args.verify:
        return text, f"verify failed: expected {args.verify}, got {count}"
    return text, 0


def _cmd_dirichlet(args) -> tuple[str, int]:
    checks = charsum.dirichlet_checks(args.max_p)
    failed = sum(not chk.ok for chk in checks)
    shown = checks if args.all else [chk for chk in checks if not chk.ok or chk.excluded]
    rows = [{"p": chk.p, "lhs": chk.lhs, "rhs": chk.rhs,
             "excluded": chk.excluded, "ok": chk.ok} for chk in shown]
    if not args.all:
        rows.append({"p": "total", "lhs": "", "rhs": "",
                     "excluded": "", "ok": failed == 0})
    return _rows_to_text(rows, args.format), 1 if failed else 0


def _cmd_fourier_check(args) -> tuple[str, int]:
    alpha = args.alpha
    exact = charsum.legendre_sum(alpha, args.p)
    approx = [randmodel.fourier_partial(alpha, args.p, M) for M in args.truncation]
    rows = [
        {"alpha": str(alpha), "p": args.p, "M": M, "exact": exact,
         "truncated": t, "abs_error": abs(t - exact)}
        for M, t in zip(args.truncation, approx)
    ]
    return _rows_to_text(rows, args.format), 0


def _cmd_simulate(args) -> tuple[str, int]:
    parities = ["plus", "minus"] if args.parity == "both" else [args.parity]
    alpha = args.alpha
    if args.evaluator == "series":
        # one call hashes the signs and builds X once for every parity
        cols = np.column_stack([
            randmodel.CoefficientSpec(parity, alpha).coefficients(args.truncation)
            for parity in parities
        ])
        values = randmodel.sample_series_matrix(cols, args.truncation, args.samples, args.seed)
    else:
        decomps = [randmodel.decompose_rational(alpha, parity) for parity in parities]
        values = np.column_stack([
            randmodel.euler_values_matrix(decomp, args.samples, args.seed, args.prime_cutoff)
            for decomp in decomps
        ])
    estimates = {
        parity: randmodel.PositivityEstimate.from_values(values[:, j])
        for j, parity in enumerate(parities)
    }
    rows = [
        {"alpha": str(alpha), "parity": parity, "evaluator": args.evaluator,
         "samples": est.n_samples, "strict_fraction": est.strict_fraction,
         "nonneg_fraction": est.nonneg_fraction,
         "ci95_strict": est.ci95_strict, "ci95_nonneg": est.ci95_nonneg}
        for parity, est in estimates.items()
    ]
    if len(parities) == 2:
        combined = sum(e.nonneg_fraction for e in estimates.values()) / 2
        rows.append(
            {"alpha": str(alpha), "parity": "combined", "evaluator": args.evaluator,
             "samples": args.samples, "strict_fraction": "",
             "nonneg_fraction": combined, "ci95_strict": "", "ci95_nonneg": ""}
        )
    return _rows_to_text(rows, args.format), 0


def _cmd_decompose(args) -> tuple[str, int]:
    decomp = randmodel.decompose_rational(args.alpha, args.parity)

    def real(x: float) -> str:
        # repr reads back as the same float; an integral value drops its ".0"
        return repr(x).removesuffix(".0")

    def number(z) -> str:
        z = complex(z)
        if not z.imag:
            return real(z.real)
        imag = real(z.imag)
        return f"{real(z.real)}{'' if imag.startswith('-') else '+'}{imag}j"

    rows = [
        {
            "coeff": number(t.coeff),
            "character": t.chi.name,
            "period": t.chi.period,
            "values": " ".join(map(number, t.chi.values)),
            "dilation": t.dilation,
        }
        for t in decomp.terms
    ]
    if not rows:
        rows = [{"coeff": 0, "character": "(empty)", "period": 1,
                 "values": "", "dilation": 1}]
    return _rows_to_text(rows, args.format), 0


def _cmd_moments(args) -> tuple[str, int]:
    alpha = args.alpha
    coeffs = randmodel.CoefficientSpec(args.parity, alpha).coefficients(args.truncation)
    exact = randmodel.moment_bundle(coeffs, max(args.k))
    mc = randmodel.sample_series_matrix(
        coeffs[:, None], args.truncation, args.samples, args.seed
    )[:, 0]
    rows = []
    powers = np.empty_like(mc)  # one buffer for every k, reused in place
    for k in args.k:
        np.power(mc, k, out=powers)
        mc_mean = float(powers.mean())
        # powers.std(ddof=1) as numpy computes it, without its two temporaries
        powers -= mc_mean
        np.multiply(powers, powers, out=powers)
        mc_se = math.sqrt(float(powers.sum()) / (args.samples - 1)) / math.sqrt(args.samples)
        z = (mc_mean - exact[k]) / mc_se if mc_se else 0.0
        rows.append(
            {"alpha": str(alpha), "parity": args.parity, "k": k,
             "direct": exact[k], "mc": mc_mean, "mc_se": mc_se, "z": z}
        )
    return _rows_to_text(rows, args.format), 0


def _cmd_certify(args) -> tuple[str, int]:
    report = tails.certify_neighborhood(float(args.alpha), constants=args.constants)
    return json.dumps(dataclasses.asdict(report), indent=2), 0


def _cmd_constants(args) -> tuple[str, int]:
    partial, tail, total = tails.sigma2_one_third(10**5)
    zr = tails.zeta_ratio_check()
    xi = randmodel.xi_statistics(10**5)
    d1 = tails.distance_bound(2 * math.pi, 1, 1)
    delta = 2e-6
    cert_p = tails.certify_neighborhood(1 / 3 + delta, constants="printed")
    cert_r = tails.certify_neighborhood(1 / 3 + delta, constants="recomputed")
    rows = [
        {"constant": "sigma2 (sign variance bound)", "recomputed": total, "printed": tails.SIGMA2},
        {"constant": "zeta(4/3)^3/zeta(8/3) * 2^(4/3)", "recomputed": zr.scaled, "printed": 92.0},
        {"constant": "distance prefactor at L=2pi, C=1", "recomputed": d1, "printed": tails.SPECIALIZED_313},
        {"constant": "minus-series prefactor", "recomputed": tails.RECOMPUTED[0], "printed": tails.PRINTED[0]},
        {"constant": "plus-series prefactor", "recomputed": tails.RECOMPUTED[1], "printed": tails.PRINTED[1]},
        {"constant": "D_minus at delta=2e-6", "recomputed": cert_r.d_minus, "printed": 0.015},
        {"constant": "D_plus at delta=2e-6", "recomputed": cert_r.d_plus, "printed": 0.0447},
        {"constant": "u_minus", "recomputed": cert_p.u_minus, "printed": 0.0756},
        {"constant": "u_plus", "recomputed": cert_p.u_plus, "printed": 0.12957},
        {"constant": "neg-probability bound (minus)", "recomputed": cert_p.p_neg_minus, "printed": 0.32},
        {"constant": "neg-probability bound (plus)", "recomputed": cert_p.p_neg_plus, "printed": 0.612},
        {"constant": "c_lower (printed prefactors)", "recomputed": cert_p.c_lower, "printed": 0.534},
        {"constant": "c_lower (recomputed prefactors)", "recomputed": cert_r.c_lower, "printed": 0.534},
        {"constant": "quintic angle variance", "recomputed": xi.variance, "printed": 0.35355},
        {"constant": "quintic reference angle phi", "recomputed": xi.phi, "printed": 0.553},
        {"constant": "quintic Chebyshev quotient", "recomputed": xi.chebyshev_bound, "printed": 1 / 3},
        {"constant": "conditional mean, alpha=1/8, X_2=-1",
         "recomputed": (math.sqrt(2) - 1) * math.pi**2 / 16,
         "printed": (math.sqrt(2) - 1) * math.pi**2 / 18},
        {"constant": "twist product, alpha=1/8 (odd-prime zeta(2))",
         "recomputed": math.pi**2 / 8, "printed": math.pi**2 / 9},
        {"constant": "twist product, alpha=1/5",
         "recomputed": 4 * math.pi**2 / 25, "printed": 4 * math.pi**2 / 25},
    ]
    return _rows_to_text(rows, args.format), 0


def _cmd_density_table(args) -> tuple[str, int]:
    alphas = [("2/5", Fraction(2, 5)), ("3/8", Fraction(3, 8)), ("1/12", Fraction(1, 12)),
              ("1/(2pi)", 0.15915494309189535), ("1/e", 0.36787944117144233)]
    sizes = [1000, 10000] + ([100000] if args.full else [])
    table = charsum.density_sweep([alpha for _, alpha in alphas], sizes)
    lines = [f"{'alpha':>8} {'primes':>7} {'nonneg':>7} {'strict':>7} {'1mod4':>6} {'3mod4':>6}"]
    lines += [f"{label:>8} {n:>7} {r.nonneg_count:>7} {r.strict_pos_count:>7} "
              f"{r.nonneg_1mod4:>6} {r.nonneg_3mod4:>6}"
              for (label, _), row in zip(alphas, table) for n, r in zip(sizes, row)]
    return "\n".join(lines), 0


def _cmd_positivity_table(args) -> tuple[str, int]:
    lines = [f"{'alpha':>6} {'c+ (strict)':>12} {'c+ (>=0)':>10} "
             f"{'c- (strict)':>12} {'c- (>=0)':>10} {'combined':>9}"]
    for alpha in randmodel.SUPPORTED_ALPHAS:
        plus, minus = (
            randmodel.estimate_positivity(randmodel.decompose_rational(alpha, parity), args.samples,
                                          seed=args.seed, prime_cutoff=args.prime_cutoff)
            for parity in ("plus", "minus")
        )
        combined = (plus.nonneg_fraction + minus.nonneg_fraction) / 2
        lines.append(f"{str(alpha):>6} {plus.strict_fraction:>12.4f} "
                     f"{plus.nonneg_fraction:>10.4f} {minus.strict_fraction:>12.4f} "
                     f"{minus.nonneg_fraction:>10.4f} {combined:>9.4f}")
    return "\n".join(lines), 0


def _cmd_certification_chain(args) -> tuple[str, int | str]:
    try:
        partial, tail, total = tails.sigma2_one_third(args.prime_cutoff)
    except ArithmeticError as exc:  # the cutoff is too small to certify the bound
        return "", f"error: {exc}"
    zr = tails.zeta_ratio_check()
    lines = [
        f"sigma^2 partial {partial:.6f} + tail {tail:.2e} = {total:.6f} "
        f"(< {tails.SIGMA2}: {total < tails.SIGMA2})",
        f"zeta(4/3)^3/zeta(8/3) * 2^(4/3) = {zr.scaled:.4f} (< 92: {zr.scaled < 92})",
        f"distance prefactor 92*(2pi)^(2/3) = "
        f"{tails.distance_bound(2 * math.pi, 1, 1):.2f} (printed 313.3)",
        f"series prefactors: printed {tails.PRINTED}, "
        f"recomputed ({tails.RECOMPUTED[0]:.2f}, {tails.RECOMPUTED[1]:.2f})",
        "",
        f"{'delta':>9} {'c_lower(printed)':>17} {'c_lower(recomputed)':>20}",
    ]
    for delta in (0.0, 1e-8, 1e-7, 1e-6, 2e-6, 1e-5, 1e-4, 1e-3):
        cp = tails.certify_neighborhood(1 / 3 + delta, constants="printed")
        cr = tails.certify_neighborhood(1 / 3 + delta, constants="recomputed")
        mark = " <- certified radius" if delta == 2e-6 else ""
        lines.append(f"{delta:>9.1e} {cp.c_lower:>17.4f} {cr.c_lower:>20.4f}{mark}")
    return "\n".join(lines), 0


# --------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legsums",
        description="Legendre partial sums, positivity densities, and the "
        "random multiplicative model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="also write the output to this path")

    p = sub.add_parser("density", help="scan partial-sum signs over the first N primes")
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--primes", type=_int_at_least(1), required=True)
    p.add_argument("--mode", choices=("ge", "gt"), default="ge")
    p.add_argument("--verify", type=int, default=None,
                   help="exit 1 unless the selected count equals this value")
    common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("dirichlet", help="half-length sum vs class-number formula")
    p.add_argument("--max-p", type=_int_at_least(3), default=2000)
    p.add_argument("--all", action="store_true", help="print every prime's row")
    common(p)
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser("fourier-check", help="truncated Fourier reconstruction error")
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--truncation", type=_int_at_least(1), nargs="+", default=[1000, 100000])
    common(p)
    p.set_defaults(func=_cmd_fourier_check)

    p = sub.add_parser("simulate", help="Monte Carlo positivity estimates")
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--parity", choices=("plus", "minus", "both"), default="both")
    p.add_argument("--samples", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truncation", type=_int_at_least(1), default=100000)
    p.add_argument("--prime-cutoff", type=_int_at_least(2), default=1000)
    p.add_argument("--evaluator", choices=("series", "euler"), default="euler")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("decompose", help="periodic-character expansion of a_n")
    # exact: a decimal such as 0.2 is read as the fraction it spells, 1/5
    p.add_argument("--alpha", type=_parsed(Fraction), required=True)
    p.add_argument("--parity", choices=("plus", "minus"), required=True)
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("moments", help="direct vs Monte Carlo moments")
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--parity", choices=("plus", "minus"), required=True)
    p.add_argument("--k", type=int, nargs="+", choices=range(1, 7), default=[2, 3, 4],
                   metavar="{1..6}")
    p.add_argument("--truncation", type=_int_at_least(1), default=10000)
    p.add_argument("--samples", type=_int_at_least(2), default=100000,
                   help="Monte Carlo samples (at least 2, for a standard error)")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("certify", help="positivity certificate near alpha=1/3")
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--constants", choices=("printed", "recomputed"), default="printed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("constants", help="recomputed vs printed constants")
    common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("density-table", help="the density table over 10^3 and 10^4 primes")
    p.add_argument("--full", action="store_true", help="include the 100000-prime row (slow)")
    p.set_defaults(func=_cmd_density_table)

    p = sub.add_parser("positivity-table", help="Monte Carlo c±(alpha) for every supported alpha",
                       description="Monte Carlo positivity probabilities c±(alpha) for the "
                       "supported rational alphas by Euler products, plus the combined "
                       "(c+ + c-)/2 lower bound on the density of nonnegative partial sums.  "
                       "All 22 (alpha, parity) pairs read one memo, the Euler products of the "
                       "15 characters mod the supported denominators.  The first pair fills it "
                       "in one pass that hashes the signs in blocks whose float64 copy is "
                       "256 KiB (195 samples at cutoff 1000, 26 at 10^4) and keeps no "
                       "samples x pi(cutoff) block, so memory grows by about 280 bytes per "
                       "added sample: at cutoff 10^4 the first pair peaks at 1.3 MiB under "
                       "tracemalloc for 1000 or 4000 samples and 4.5 MiB for 16000.")
    p.add_argument("--samples", type=_int_at_least(1), default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime-cutoff", type=_int_at_least(2), default=1000)
    p.set_defaults(func=_cmd_positivity_table)

    p = sub.add_parser("certification-chain", help="the certificate's chain near alpha=1/3")
    p.add_argument("--prime-cutoff", type=_int_at_least(100), default=10**6)
    p.set_defaults(func=_cmd_certification_chain)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code (see the module docstring).

    The output goes to --out first, then to stdout, so a path that cannot be
    written leaves stdout empty; a rejected input gives one stderr line.
    """
    args = build_parser().parse_args(argv)
    try:
        text, status = args.func(args)
        text = text.removesuffix("\n") + "\n" if text else ""
        if getattr(args, "out", None):
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"--out {args.out}: {exc.strerror}") from None
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"legsums: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    if isinstance(status, str):
        print(status, file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
