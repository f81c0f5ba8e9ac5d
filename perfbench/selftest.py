"""Self-test of the benchmark's output checks: a corrupted result must fail.

    python3 perfbench/selftest.py

For every kind of query it builds a small genuine result with the same run
and check code the benchmark uses, confirms the check accepts it, then
corrupts it (a flipped planted character, a perturbed class sum, a shifted
D^2, a broken residual, a wrong recovered character, ...) and confirms the
check reports a failure. Exits 1 if any check misses a corruption. Takes
about a second: the inputs are far smaller than the benchmark's.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from pretentious import arith, characters, funcspec  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(label: str, workload, query, out, ok: bool) -> None:
    failures = workload.check(query, out)
    passed = (not failures) == ok
    RESULTS.append((label, passed))
    verdict = "ok" if passed else "MISSED"
    print(f"{verdict:6} {label}: {failures if failures else 'accepted'}")


def twist_scan(table) -> None:
    w = wl.TwistScan()
    w.table = table
    planted = wl.Query("planted", dict(f="prod(char:7:2,nit:0.5)", psi=(7, 2), t0=0.5,
                                       x=10**4, Q=10, A=1.0))
    f, rep = w.run(planted, wl.Stopwatch())
    expect("planted twist, genuine", w, planted, (f, rep), True)
    flipped = dataclasses.replace(rep, psi=characters.character_by_index(7, 4))
    expect("planted twist, flipped psi", w, planted, (f, flipped), False)
    expect("planted twist, shifted t", w, planted, (f, dataclasses.replace(rep, t=0.51)), False)

    real = wl.Query("real", dict(f="mobius", x=10**4, Q=5, A=1.0))
    f, rep = w.run(real, wl.Stopwatch())
    expect("real f, genuine", w, real, (f, rep), True)
    bumped = dataclasses.replace(rep, squared_distance=rep.squared_distance + 1e-6)
    expect("real f, perturbed D^2", w, real, (f, bumped), False)


def progression(table) -> None:
    w = wl.Progression()
    w.table = table
    sign = wl.Query("sign", dict(f="liouville", x=10**5, q1=30, q2=15, a=4))
    f, pt, lhs, rhs, ev = w.run(sign, wl.Stopwatch())
    expect("class sums, genuine", w, sign, (f, pt, lhs, rhs, ev), True)
    sums = pt.sums.copy()
    sums[7] += 1.0
    broken = dataclasses.replace(pt, sums=sums)
    expect("class sums, one class perturbed", w, sign, (f, broken, lhs, rhs, ev), False)
    expect("decomposition, perturbed", w, sign, (f, pt, lhs, rhs + 1e-3, ev), False)

    primes = table.primes_upto(10**4)
    rng = np.random.default_rng(0)
    values = dict(zip(primes.tolist(), np.exp(1j * rng.uniform(-np.pi, np.pi, len(primes))).tolist()))
    tab = wl.Query("table", dict(rule="cm", x=10**4, q1=12, q2=9, a=2),
                   values=funcspec.make_prime_table_spec(values, "cm"))
    f, pt, lhs, rhs, ev = w.run(tab, wl.Stopwatch())
    expect("table spec, genuine", w, tab, (f, pt, lhs, rhs, ev), True)
    off = dataclasses.replace(ev, log_abs_product=ev.log_abs_product + 3.0)
    expect("table spec, Euler product off", w, tab, (f, pt, lhs, rhs, off), False)


def large_sieve(table) -> None:
    w = wl.LargeSieve()
    w.table = table
    scan = wl.Query("scan", dict(f="mobius", x=10**4, q=1, a=1, eta=0.4))
    rep = w.run(scan, wl.Stopwatch())
    expect("bad moduli, genuine", w, scan, rep, True)
    expect("bad moduli, inflated 1/phi sum", w, scan,
           dataclasses.replace(rep, sum_inverse_phi=rep.sum_inverse_phi + 0.5), False)
    expect("bad moduli, modulus under threshold", w, scan,
           dataclasses.replace(rep, bad=rep.bad + ((97, 1.0),)), False)

    q, j = 15, 3
    G = characters.unit_group(q)
    theta = np.where(G.units == 1, 0.0, 0.05)
    row = characters.character_row(characters.character_by_index(q, j))
    rec = wl.Query("recover", dict(q=q, index=j, theta_max=0.05,
                                   expected_dev=float(np.max(np.abs(np.exp(1j * theta) - 1)))),
                   values=row[np.asarray(G.units)] * np.exp(1j * theta))
    res = w.run(rec, wl.Stopwatch())
    expect("recovery, genuine", w, rec, res, True)
    wrong = dataclasses.replace(res, chi=characters.character_by_index(q, (j + 1) % G.phi))
    expect("recovery, wrong character", w, rec, wrong, False)


def cli_sweep(table) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    w = wl.CliSweep(ROOT, env)
    w.table = table
    argv = ["meanvalues", "report", "--f", "mobius", "--x", "10000", "--Q", "5", "--A", "1",
            "--q", "5"]
    query = wl.Query("report", dict(argv=argv))
    proc = w.run(query, wl.Stopwatch())
    expect("cli report, genuine", w, query, proc, True)
    report = json.loads(proc.stdout)
    report["result"]["rows"][2]["residual"]["re"] += 0.5
    fake = types.SimpleNamespace(returncode=0, stdout=json.dumps(report), stderr="")
    expect("cli report, broken residual", w, query, fake, False)
    report = json.loads(proc.stdout)
    report["result"]["exceptional"]["squared_distance"] += 1e-6
    fake = types.SimpleNamespace(returncode=0, stdout=json.dumps(report), stderr="")
    expect("cli report, perturbed exceptional D^2", w, query, fake, False)
    fake = types.SimpleNamespace(returncode=3, stdout="", stderr="error: precondition")
    expect("cli report, non-zero exit", w, query, fake, False)
    fake = types.SimpleNamespace(returncode=0, stdout="{not json", stderr="")
    expect("cli report, unparsable output", w, query, fake, False)


def main() -> int:
    table = arith.PrimeTable(10**5 + 10)
    for part in (twist_scan, progression, large_sieve, cli_sweep):
        part(table)
    missed = [label for label, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(missed)}/{len(RESULTS)} checks behaved as expected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
