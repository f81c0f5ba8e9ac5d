"""The benchmark's four workloads: seeded inputs, timed library calls, checks.

Each workload is a closed loop with one caller: a *pass* is a fixed list of
query kinds, the seed fills in every parameter, and the next query starts only
after the previous one returns. The kinds in a pass and their sizes are fixed
so that different seeds do the same amount of work; the seed chooses spec
families, moduli, residues, twists and noise, never how many queries run.

Library functions are always called through their module attribute
(``meanvalues.progression_sums``), so the traced run's wrappers see every call,
the top-level ones included. Checks run outside the timed blocks and recompute
what they can without the library (totients, planted parameters).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from pretentious import arith, characters, funcspec, meanvalues, nearchar, pretension
from pretentious import sieve_experiments

EPS = np.finfo(np.float64).eps


@dataclass
class Query:
    kind: str
    params: dict
    values: object = field(default=None, repr=False)  # bulk input, not echoed

    def describe(self) -> str:
        return f"{self.kind} " + " ".join(f"{k}={v}" for k, v in self.params.items())


class Stopwatch:
    """Sums the time spent inside `timed()` blocks; everything else in a query
    (input generation, checks) stays off the clock."""

    def __init__(self):
        self.total = 0.0

    @contextlib.contextmanager
    def timed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.total += time.perf_counter() - t0


def totient(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _cyclic_factors(q: int) -> int:
    """Number of cyclic factors in the library's split of (Z/qZ)*: one per odd
    prime power, none for 2, one for 4, two for 8 | q."""
    out, m, p = 0, q, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out += min(e - 1, 2) if p == 2 else 1
        p += 1
    if m > 1 and m != 2:
        out += 1
    return out


def _units(q: int) -> list[int]:
    return [a for a in range(1, q + 1) if math.gcd(a, q) == 1]


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _exceptional_mismatch(f, psi_q: int, psi_index: int, t: float, d2: float,
                          x: int, table) -> list[str]:
    """Recompute D_r(f, psi n^(it); x)^2 with r = psi.q, as the scan defines it."""
    g = funcspec.Product((funcspec.CharacterSpec(psi_q, psi_index), funcspec.Twist(t)))
    ref = pretension.distance_squared(f, g, x, table, r=psi_q).squared_distance
    if not _close(ref, d2, 1e-9):
        return [f"D^2 {d2!r} differs from distance_squared {ref!r}"]
    return []


# ---------------------------------------------------------------- twist-scan


class TwistScan:
    """find_exceptional on planted twists and on real functions."""

    name = "twist-scan"
    PLANTED = dict(x=10**5, Q=20, A=3.0)
    REAL = dict(x=10**6, Q=10, A=2.0)

    def setup(self) -> None:
        self.table = arith.PrimeTable(self.REAL["x"])
        for chi in pretension.primitive_characters_upto(self.PLANTED["Q"]):
            characters.character_row(chi)
        self.plantable = [(c.q, c.index) for c in pretension.primitive_characters_upto(12)]
        self.real_unused = ["mobius", "liouville"]

    def pass_queries(self, rng) -> list[Query]:
        # three planted scans to one real one: the median query of a pass is
        # then the middle of the planted scans, not the border of two kinds
        out = []
        for _ in range(3):
            q, j = _pick(rng, self.plantable)
            t0 = round(float(rng.uniform(-2.5, 2.5)), 6)
            out.append(Query("planted", dict(f=f"prod(char:{q}:{j},nit:{t0!r})", psi=(q, j),
                                             t0=t0, **self.PLANTED)))
        # no scan repeats within a run: mobius and liouville once each, in
        # seeded order, then threshold at a fresh scale
        f = f"threshold:{int(rng.integers(10**5, 10**6 + 1))}"
        if rng.integers(3) and self.real_unused:
            f = self.real_unused.pop(int(rng.integers(len(self.real_unused))))
        out.append(Query("real", dict(f=f, **self.REAL)))
        return out

    def run(self, query: Query, sw: Stopwatch):
        p = query.params
        f = funcspec.parse_spec(p["f"])
        with sw.timed():
            rep = pretension.find_exceptional(f, p["x"], p["Q"], p["A"], self.table)
        return f, rep

    def check(self, query: Query, out) -> list[str]:
        f, rep = out
        p = query.params
        if query.kind == "planted":
            errs = []
            if (rep.psi.q, rep.psi.index) != p["psi"]:
                errs.append(f"recovered {rep.psi.serial}, planted char:{p['psi'][0]}:{p['psi'][1]}")
            if abs(rep.t - p["t0"]) > 1e-3:
                errs.append(f"|t - t0| = {abs(rep.t - p['t0']):.3g} > 1e-3")
            if not rep.squared_distance <= 1e-4:
                errs.append(f"D^2 = {rep.squared_distance:.3g} > 1e-4")
            return errs
        return _exceptional_mismatch(f, rep.psi.q, rep.psi.index, rep.t,
                                     rep.squared_distance, p["x"], self.table)


# --------------------------------------------------------------- progression


class Progression:
    """Progression sums, their character decomposition and the Euler product."""

    name = "progression"
    X = 10**7
    X_TABLE = 10**6
    # decomposition cost grows like phi(q)^2 times the number of cyclic factors
    # (one character_row per character, one Fraction per factor and unit), so
    # the decomposed modulus is drawn from the 16 q <= 1000 with phi(q) = 240
    # and three cyclic factors, which keeps passes even across seeds
    DECOMPOSE_PHI = 240
    DECOMPOSE_FACTORS = 3

    def setup(self) -> None:
        self.table = arith.PrimeTable(self.X)
        self.table_primes = self.table.primes_upto(self.X_TABLE)
        self.decompose_moduli = [q for q in range(3, 1001) if totient(q) == self.DECOMPOSE_PHI
                                 and _cyclic_factors(q) == self.DECOMPOSE_FACTORS]
        self.last_moduli: list[int] = []

    def pass_queries(self, rng) -> list[Query]:
        # character_row keeps 512 rows, about two moduli: the four moduli of a
        # pass are distinct and differ from the previous pass's, so every
        # decomposition starts cold and costs the same whatever the seed
        fresh = [q for q in self.decompose_moduli if q not in self.last_moduli]
        moduli = [int(q) for q in rng.choice(fresh, size=4, replace=False)]
        self.last_moduli = moduli

        def common(x: int, q2: int) -> dict:
            return dict(x=x, q1=int(rng.integers(3, 1001)), q2=q2, a=_pick(rng, _units(q2)))

        # Mobius fills by its own sieve, Liouville and Threshold share another
        # of a slightly different cost: one query of each kind per pass
        f = _pick(rng, ["liouville", "threshold"])
        if f == "threshold":
            f = f"threshold:{int(rng.integers(10**6, self.X + 1))}"
        mobius = Query("sign", dict(f="mobius", **common(self.X, moduli[0])))
        sign = Query("sign", dict(f=f, **common(self.X, moduli[1])))
        q = int(rng.integers(3, 31))
        j = int(rng.integers(totient(q)))
        t = round(float(rng.uniform(-3.0, 3.0)), 6)
        twist = Query("twist", dict(f=f"prod(char:{q}:{j},nit:{t!r})",
                                    **common(self.X, moduli[2])))
        # the table spec is input: it is built here, off the clock (its first
        # build checks the primality of every key, about 9 s at 1e6)
        thetas = rng.uniform(-np.pi, np.pi, len(self.table_primes))
        rule = _pick(rng, ["cm", "zero"])
        spec = funcspec.make_prime_table_spec(
            dict(zip(self.table_primes.tolist(), np.exp(1j * thetas).tolist())), rule)
        table = Query("table", dict(rule=rule, primes=len(thetas),
                                    **common(self.X_TABLE, moduli[3])), values=spec)
        return [mobius, sign, twist, table]

    def run(self, query: Query, sw: Stopwatch):
        p = query.params
        x, t = p["x"], self.table
        f = query.values if query.kind == "table" else funcspec.parse_spec(p["f"])
        with sw.timed():
            pt = meanvalues.progression_sums(f, x, p["q1"], t)
            lhs, rhs = meanvalues.decompose_via_characters(f, x, p["q2"], p["a"], t)
            ev = meanvalues.euler_product_mean(f, x, t)
        return f, pt, lhs, rhs, ev

    def check(self, query: Query, out) -> list[str]:
        f, pt, lhs, rhs, ev = out
        p = query.params
        x, q2 = p["x"], p["q2"]
        errs = []
        if int(pt.counts.sum()) != x:
            errs.append(f"class counts add to {int(pt.counts.sum())}, not x = {x}")
        if query.kind == "sign":
            direct = int(funcspec.values_upto(f, x, self.table).sum(dtype=np.int64))
            total = float(np.sum(pt.sums))
            if total != direct:
                errs.append(f"class sums add to {total!r}, direct sum is {direct}")
        tol = 64 * EPS * totient(q2) * (x // q2 + 1)
        if abs(lhs - rhs) > tol:
            errs.append(f"decomposition off by {abs(lhs - rhs):.3g} > {tol:.3g}")
        if query.kind == "table":
            d2 = pretension.distance_squared(funcspec.One(), f, x, self.table).squared_distance
            gap = abs(ev.log_abs_product + d2)
            if not gap <= 2.0:
                errs.append(f"|log|P| + D^2(1, g)| = {gap:.4f} > 2")
        return errs


# --------------------------------------------------------------- large-sieve


class LargeSieve:
    """bad_moduli scans of progression classes, plus character recovery."""

    name = "large-sieve"
    X = 10**6
    # the cost of a scan falls like q^-1.5 and doubles for complex f, so each
    # slot has a fixed q and a fixed kind of f; three q = 5 scans sit between
    # three cheaper queries (q = 7, two recoveries) and three dearer ones
    # (q = 1, 2, 3), so the median query of a pass is a q = 5 scan, and the
    # Liouville fill costs twice the Mobius one, so that scan is always Mobius
    SCANS = ((1, "sign"), (2, "legendre"), (3, "complex"), (5, "mobius"), (5, "legendre"),
             (5, "liouville"), (7, "legendre"))
    RECOVERIES = 2
    # the pair defect's time and memory grow like phi(q)^2: 53 moduli in
    # [1000, 5000] have phi(q) = 1440
    RECOVER_PHI = 1440

    def setup(self) -> None:
        self.table = arith.PrimeTable(self.X + max(q for q, _ in self.SCANS))
        # warm the unit groups of every r <= sqrt(x) a scan visits, so a scan
        # costs the same in every pass, the first one included
        for r in range(2, math.isqrt(self.X) + 1):
            characters.unit_group(r)
        self.recover_moduli = [q for q in range(1000, 5001) if totient(q) == self.RECOVER_PHI]
        self.legendre_primes = [int(p) for p in self.table.primes_upto(1000) if p >= 7]

    def pass_queries(self, rng) -> list[Query]:
        out = []
        for q, kind in self.SCANS:
            if kind == "sign":
                f = _pick(rng, ["mobius", "liouville"])
            elif kind in ("mobius", "liouville"):
                f = kind
            elif kind == "complex":
                f = "prod(char:5:2,nit:1.0)"
            else:
                f = f"legendre:{_pick(rng, self.legendre_primes)}"
            eta = round(float(rng.uniform(0.3, 0.5)), 4)
            out.append(Query("scan", dict(f=f, x=self.X, q=q, a=_pick(rng, _units(q)), eta=eta)))
        for _ in range(self.RECOVERIES):
            q = _pick(rng, self.recover_moduli)
            G = characters.unit_group(q)
            j = int(rng.integers(G.phi))
            theta_max = round(float(rng.uniform(0.02, 0.08)), 4)
            theta = rng.uniform(-theta_max, theta_max, G.phi)
            theta[int(np.searchsorted(G.units, 1))] = 0.0  # g(1) = 1 exactly
            row = characters.character_row(characters.character_by_index(q, j))
            values = row[np.asarray(G.units)] * np.exp(1j * theta)
            out.append(Query("recover", dict(q=q, index=j, theta_max=theta_max,
                                             expected_dev=float(np.max(np.abs(np.exp(1j * theta) - 1.0)))),
                             values=values))
        return out

    def run(self, query: Query, sw: Stopwatch):
        p = query.params
        if query.kind == "scan":
            f = funcspec.parse_spec(p["f"])
            with sw.timed():
                return sieve_experiments.bad_moduli(f, p["x"], p["q"], p["a"], p["eta"], self.table)
        with sw.timed():
            g = nearchar.ApproxHomomorphism.from_values(p["q"], query.values)
            return nearchar.nearest_character(g)

    def check(self, query: Query, out) -> list[str]:
        p = query.params
        errs = []
        if query.kind == "scan":
            s = sum(1.0 / totient(r) for r, _ in out.bad)
            if not _close(s, out.sum_inverse_phi, 1e-9):
                errs.append(f"sum 1/phi(r) is {s!r}, report says {out.sum_inverse_phi!r}")
            if not s <= 2.0 / p["eta"] ** 2 + 1e-9:
                errs.append(f"sum 1/phi(r) = {s:.6f} exceeds 2/eta^2")
            threshold = p["eta"] * p["x"] / p["q"]
            R = math.isqrt(p["x"] // p["q"])
            if any(not (2 <= r <= R and m >= threshold) for r, m in out.bad):
                errs.append("a reported bad modulus is out of range or under the threshold")
            return errs
        if (out.chi.q, out.chi.index) != (p["q"], p["index"]):
            errs.append(f"recovered {out.chi.serial}, planted char:{p['q']}:{p['index']}")
        if not _close(out.max_deviation, p["expected_dev"], 1e-9):
            errs.append(f"max deviation {out.max_deviation!r}, planted noise {p['expected_dev']!r}")
        eps = out.epsilon
        if not out.max_deviation <= eps / (1.0 - 2.0 * eps) + 1e-9:
            errs.append(f"max deviation {out.max_deviation:.4g} over eps/(1-2eps)")
        return errs


# ----------------------------------------------------------------- cli-sweep


class CliSweep:
    """The README's CLI commands, one `python -m pretentious` process at a time."""

    name = "cli-sweep"
    X = 10**6
    REPORT_QS = (3, 4, 5, 8)

    def __init__(self, root, env, launcher=None, spans_path=None):
        self.root = root
        self.env = env
        # traced runs replace `-m pretentious` by the wrapper-installing launcher,
        # which writes its spans to `spans_path`; the run sets `tracer` and
        # `warning_records` to collect them
        self.launcher = launcher
        self.spans_path = spans_path
        self.tracer = None
        self.warning_records = None

    def setup(self) -> None:
        self.table = arith.PrimeTable(self.X)

    def pass_queries(self, rng) -> list[Query]:
        F = _pick(rng, ["mobius", "liouville", "threshold"])
        if F == "threshold":
            F = f"threshold:{int(rng.integers(10**5, self.X + 1))}"
        # find and the four reports scan one (F, x, Q, A): four of the five
        # scans repeat the first
        scan = ["--f", F, "--x", str(self.X), "--Q", "10", "--A", "2", "--threads", "2"]
        out = [Query("find", dict(argv=["pretension", "find", *scan]))]
        out += [Query("report", dict(argv=["meanvalues", "report", *scan, "--q", str(q)]))
                for q in self.REPORT_QS]
        # the other commands are the README's as written, so their cost does not
        # depend on the seed
        for argv in (
            ["meanvalues", "halasz", "--f", "prod(mobius,nit:0.5)", "--x", "100000", "--T", "1"],
            ["meanvalues", "euler", "--f", "liouville", "--x", "100000", "--truncation", "1000"],
            ["sieve", "bad-moduli", "--f", "mobius", "--q", "5", "--a", "2", "--x", "1000000",
             "--eta", "0.3"],
            ["sieve", "legendre", "--q", "4", "--a", "3", "--x", "10000", "--p-limit", "10000"],
        ):
            out.append(Query(argv[1], dict(argv=argv)))
        return out

    def run(self, query: Query, sw: Stopwatch):
        argv = query.params["argv"]
        if self.launcher is None:
            cmd = [sys.executable, "-m", "pretentious", *argv]
        else:
            cmd = [sys.executable, str(self.launcher), str(self.spans_path), *argv]
        with sw.timed():
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=150)
        if self.launcher is not None:
            with open(self.spans_path) as fh:
                child = json.load(fh)
            os.remove(self.spans_path)
            self.tracer.adopt(child["spans"])
            self.warning_records.extend(child["warnings"])
        return proc

    def check(self, query: Query, proc) -> list[str]:
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        argv = query.params["argv"]
        res = report["result"]
        opts = dict(zip(argv[2::2], argv[3::2]))
        if query.kind in ("find", "report"):
            f = funcspec.parse_spec(opts["--f"])
            exc = res if query.kind == "find" else res["exceptional"]
            _, r, j = exc["psi"].split(":")
            errs = _exceptional_mismatch(f, int(r), int(j), exc["t"], exc["squared_distance"],
                                         int(opts["--x"]), self.table)
            if query.kind == "report":
                errs += self._check_rows(res)
            return errs
        if query.kind == "bad-moduli":
            s = sum(1.0 / totient(r) for r, _ in res["bad"])
            eta = float(opts["--eta"])
            if not (_close(s, res["sum_inverse_phi"], 1e-9) and s <= 2.0 / eta**2 + 1e-9):
                return [f"sum 1/phi(r) = {s!r} (report {res['sum_inverse_phi']!r}) vs 2/eta^2"]
        if query.kind == "halasz" and not 0.0 <= res["measured"] <= 1.0:
            return [f"|sum f(n)|/x = {res['measured']!r} outside [0, 1]"]
        if query.kind == "legendre" and not -1.0 <= res["infimum"] <= 1.0:
            return [f"infimum {res['infimum']!r} outside [-1, 1]"]
        return []

    def _check_rows(self, res) -> list[str]:
        q = res["q"]
        _, cq, cj = res["chi"].split(":")
        chi = characters.character_by_index(int(cq), int(cj))
        rows = {row["a"]: row for row in res["rows"]}
        if sorted(rows) != _units(q):
            return [f"rows cover classes {sorted(rows)}, not the units mod {q}"]
        base = complex(rows[1 % q]["value"]["re"], rows[1 % q]["value"]["im"])
        errs = []
        for a, row in rows.items():
            value = complex(row["value"]["re"], row["value"]["im"])
            residual = complex(row["residual"]["re"], row["residual"]["im"])
            want = value - chi(a) * base
            if abs(residual - want) > 1e-9 * max(1.0, abs(value), abs(base)):
                errs.append(f"row a={a}: residual {residual} != value - chi(a) F(1) = {want}")
        return errs


WORKLOADS = {w.name: w for w in (TwistScan, Progression, LargeSieve, CliSweep)}
