#!/usr/bin/env python3
"""Sweep x and record how fast progression residuals shrink.

Writes one CSV row per (q, x): the normalized max residual
max_a |F(x;q,a) - chi(a) F(x;q,1)| * q / x against the best character
model, plus the conductor the scan picked. Feed the CSV to any plotter.

    python3 scripts/residual_trend.py --qs 3,4,5,8 --xmax 1e6 --out trend.csv
"""

import argparse
import sys
import time

from pretentious.arith import PrimeTable
from pretentious.cli import _finite_float, _nonneg_float, _positive_int, _report_errors
from pretentious.funcspec import parse_spec
from pretentious.meanvalues import progression_report


def _moduli(text: str) -> list[int]:
    try:
        return [_positive_int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text}") from None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--f", default="mobius")
    ap.add_argument("--qs", type=_moduli, default="3,4,5,8", help="comma-separated moduli")
    ap.add_argument("--xmax", type=_finite_float, default=1e6)
    ap.add_argument("--Q", type=int, default=10, help="conductor bound for the scan")
    ap.add_argument("--A", type=_nonneg_float, default=2.0, help="twist bound")
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args()
    return _report_errors(lambda: _sweep(args))


def _sweep(args) -> None:
    f = parse_spec(args.f)
    xs = []
    x = 10**4
    while x <= args.xmax:
        xs.append(x)
        x *= 10

    fh = open(args.out, "w") if args.out else sys.stdout
    print("f,q,x,normalized_max_residual,max_residual,conductor,t", file=fh)
    for x in xs:
        table = PrimeTable(x)  # one sieve per scale, shared across q
        for q in args.qs:
            t0 = time.time()
            rep = progression_report(f, x, q, args.Q, args.A, table)
            print(
                f"{args.f},{q},{x},{rep.normalized_max_residual!r},"
                f"{rep.max_residual!r},{rep.exceptional.conductor},{rep.exceptional.t!r}",
                file=fh,
            )
            print(f"  q={q} x={x}: {rep.normalized_max_residual:.6f} "
                  f"({time.time()-t0:.1f}s)", file=sys.stderr)
    if args.out:
        fh.close()


if __name__ == "__main__":
    raise SystemExit(main())
