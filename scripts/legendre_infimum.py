#!/usr/bin/env python3
"""Trace the running infimum of quadratic-symbol means over a progression.

For each odd prime p <= p_limit (p not dividing q) the statistic is
(q/x) sum_{n <= x, n == a (q)} (n|p); rows record every new record low.
Square classes have asymptotic floor delta1 = -0.657; classes without
squares can in principle reach -1, but only for p far beyond any desk
scan, so expect shallow minima here.

    python3 scripts/legendre_infimum.py --q 4 --a 3 --x 1e4 --p-limit 1e4 --out trace.csv
"""

import argparse
import sys

from pretentious.arith import PrimeTable
from pretentious.cli import _finite_float, _positive_int, _report_errors
from pretentious.constants import delta1
from pretentious.sieve_experiments import legendre_progression_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--q", type=_positive_int, default=4)
    ap.add_argument("--a", type=_positive_int, default=3)
    ap.add_argument("--x", type=_finite_float, default=1e4)
    ap.add_argument("--p-limit", dest="p_limit", type=_finite_float, default=1e4)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args()
    return _report_errors(lambda: _scan(args))


def _scan(args) -> None:
    x, p_limit = int(args.x), int(args.p_limit)
    table = PrimeTable(max(x, p_limit))
    rep = legendre_progression_experiment(args.q, args.a, x, p_limit, table)

    fh = open(args.out, "w") if args.out else sys.stdout
    print("p,record_low", file=fh)
    for p, s in rep.running:
        print(f"{p},{s!r}", file=fh)
    if args.out:
        fh.close()

    d1 = delta1().value
    kind = "square class" if rep.square_class else "non-square class"
    print(
        f"q={args.q} a={args.a} ({kind}) x={x} p<={p_limit}: "
        f"infimum {rep.infimum:.4f} at p={rep.argmin_p} "
        f"(asymptotic square-class floor {d1:.4f})",
        file=sys.stderr,
    )


if __name__ == "__main__":
    raise SystemExit(main())
