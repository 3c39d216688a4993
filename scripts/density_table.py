#!/usr/bin/env python3
"""Reproduce the nonnegative-partial-sum density table.

Scans the five reference alphas over the first 10^3 and 10^4 primes
(optionally 10^5 with --full) in one sweep and prints counts with the mod-4
split.
"""

import argparse
from fractions import Fraction

from legsums.charsum import density_sweep

ALPHAS = [
    ("2/5", Fraction(2, 5)),
    ("3/8", Fraction(3, 8)),
    ("1/12", Fraction(1, 12)),
    ("1/(2pi)", 0.15915494309189535),
    ("1/e", 0.36787944117144233),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="include the 100000-prime row (slow)")
    args = parser.parse_args()

    sizes = [1000, 10000] + ([100000] if args.full else [])
    print(f"{'alpha':>8} {'primes':>7} {'nonneg':>7} {'strict':>7} "
          f"{'1mod4':>6} {'3mod4':>6}")
    table = density_sweep([alpha for _, alpha in ALPHAS], sizes)
    for (label, _), row in zip(ALPHAS, table):
        for n, r in zip(sizes, row):
            print(f"{label:>8} {n:>7} {r.nonneg_count:>7} "
                  f"{r.strict_pos_count:>7} {r.nonneg_1mod4:>6} "
                  f"{r.nonneg_3mod4:>6}")


if __name__ == "__main__":
    main()
