#!/usr/bin/env python3
"""Walk the full certification chain for alphas near 1/3: every constant
recomputed, then the resulting c_lower as the neighborhood radius grows,
under both printed and recomputed distance prefactors."""

import argparse
import math
import sys

from legsums import tails
from legsums.cli import _int_at_least


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime-cutoff", type=_int_at_least(100), default=10**6)
    args = parser.parse_args()

    try:
        partial, tail, total = tails.sigma2_one_third(args.prime_cutoff)
    except ArithmeticError as exc:  # the cutoff is too small to certify the bound
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"sigma^2 partial {partial:.6f} + tail {tail:.2e} = {total:.6f} "
          f"(< {tails.SIGMA2}: {total < tails.SIGMA2})")
    zr = tails.zeta_ratio_check(10**5)
    print(f"zeta(4/3)^3/zeta(8/3) * 2^(4/3) = {zr.scaled:.4f} (< 92: {zr.below_92})")
    print(f"distance prefactor 92*(2pi)^(2/3) = "
          f"{tails.distance_bound(2 * math.pi, 1, 1):.2f} (printed 313.3)")
    print(f"series prefactors: printed {tails.PRINTED}, "
          f"recomputed ({tails.RECOMPUTED[0]:.2f}, {tails.RECOMPUTED[1]:.2f})")
    print()
    print(f"{'delta':>9} {'c_lower(printed)':>17} {'c_lower(recomputed)':>20}")
    for delta in (0.0, 1e-8, 1e-7, 1e-6, 2e-6, 1e-5, 1e-4, 1e-3):
        cp = tails.certify_neighborhood(1 / 3 + delta, constants="printed")
        cr = tails.certify_neighborhood(1 / 3 + delta, constants="recomputed")
        mark = " <- certified radius" if delta == 2e-6 else ""
        print(f"{delta:>9.1e} {cp.c_lower:>17.4f} {cr.c_lower:>20.4f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
