"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Every criterion asserts its stated tolerances and runtime budget. Two
desk-scale targets are known not to hold at these parameters and are left
failing honestly rather than weakened (see README): the q=4 step of the
trend suite (criterion 9) and the non-square-class Legendre infimum
target (criterion 10).
"""

import math
import random
import time

import numpy as np
import pytest

from pretentious.arith import PrimeTable
from pretentious.characters import character_by_index, character_row, unit_group
from pretentious.constants import delta0, delta1, repulsion_constant, repulsion_minimum
from pretentious.funcspec import (
    CharacterSpec,
    Mobius,
    One,
    Product,
    Twist,
    make_prime_table_spec,
    parse_spec,
    values_upto,
)
from pretentious.meanvalues import (
    decompose_via_characters,
    euler_product_mean,
    progression_report,
    progression_sums,
)
from pretentious.nearchar import (
    ApproxHomomorphism,
    nearest_character,
    parseval_identity,
)
from pretentious.pretension import (
    distance_squared,
    find_exceptional,
    primitive_characters_upto,
)
from pretentious.sieve_experiments import bad_moduli, legendre_progression_experiment

DELTA1 = -0.656999


def _line(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_constants():
    start = time.time()
    d1 = delta1()
    d0 = delta0()
    elapsed = time.time() - start
    ok = abs(d1.value - DELTA1) <= 1e-6 and abs(d0.value - 0.1715) <= 1e-4
    _line(1, ok and elapsed < 1.0,
          f"delta1={d1.value:.9f} delta0={d0.value:.9f} ({elapsed:.2f}s)")
    assert elapsed < 1.0
    assert d1.value == pytest.approx(DELTA1, abs=1e-6)
    assert d0.value == pytest.approx(0.1715, abs=1e-4)


def test_criterion_02_repulsion_constants():
    start = time.time()
    v3 = repulsion_constant(3)
    vmin, argmin = repulsion_minimum(10**6)
    cont = repulsion_constant("continuous")
    elapsed = time.time() - start
    ok = (abs(v3 - 1 / 3) <= 1e-12 and argmin == 3
          and abs(vmin - 1 / 3) <= 1e-12 and cont > vmin
          and abs(cont - (1 - 2 / math.pi)) <= 1e-12)
    _line(2, ok and elapsed < 5.0,
          f"value(3)={v3:.15f} min=({vmin:.15f}, m={argmin}) "
          f"continuous={cont:.15f} ({elapsed:.2f}s)")
    assert elapsed < 5.0
    assert abs(v3 - 1 / 3) <= 1e-12
    assert argmin == 3 and abs(vmin - 1 / 3) <= 1e-12
    assert cont > vmin  # the continuous phase never beats m = 3
    assert abs(cont - (1 - 2 / math.pi)) <= 1e-12


def test_criterion_03_exact_identities():
    start = time.time()
    table = PrimeTable(2 * 10**4)
    # orthogonality, both directions, exhaustive over q <= 60
    worst_orth = 0.0
    for q in range(1, 61):
        G = unit_group(q)
        units = np.asarray(G.units)
        R = np.stack([character_row(character_by_index(q, i))[units]
                      for i in range(G.phi)])
        eye = G.phi * np.eye(G.phi)
        worst_orth = max(worst_orth, float(np.abs(R @ R.conj().T - eye).max()))
        worst_orth = max(worst_orth, float(np.abs(R.conj().T @ R - eye).max()))
    # 200 random decompositions, plus row-sum checks on every run
    rng = random.Random(1003)
    pool = ["mobius", "liouville", "one", "legendre:7", "char:12:1", "char:5:2",
            "nit:0.5", "prod(char:5:2,nit:1.0)"]
    integer_valued = {"mobius", "liouville", "one", "legendre:7"}
    worst_dec = 0.0
    worst_row = 0.0
    for _ in range(200):
        name = rng.choice(pool)
        f = parse_spec(name)
        q = rng.randrange(1, 31)
        units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        a = rng.choice(units)
        x = rng.randrange(q, 10**4 + 1)
        lhs, rhs = decompose_via_characters(f, x, q, a, table)
        worst_dec = max(worst_dec, abs(lhs - rhs))
        pt = progression_sums(f, x, q, table)
        direct = values_upto(f, x, table)[1:].sum()
        if name in integer_valued:
            assert pt.total() == direct  # integer data: bit-exact in float64
        else:
            worst_row = max(worst_row, abs(pt.total() - direct))
    elapsed = time.time() - start
    ok = worst_orth <= 1e-9 and worst_dec <= 1e-9 and worst_row <= 1e-9
    _line(3, ok and elapsed < 60.0,
          f"orthogonality<= {worst_orth:.2e}, decomposition<= {worst_dec:.2e}, "
          f"row-sum<= {worst_row:.2e} over 200 runs ({elapsed:.1f}s)")
    assert elapsed < 60.0
    assert worst_orth <= 1e-9
    assert worst_dec <= 1e-9
    assert worst_row <= 1e-9


def test_criterion_04_pretension_recovery():
    start = time.time()
    x = 10**5
    table = PrimeTable(x)
    misses = []
    worst_t = 0.0
    worst_d2 = 0.0
    for psi in primitive_characters_upto(12):
        for t0 in (0.0, 0.5, 2.0):
            base = CharacterSpec(psi.q, psi.index)
            f = Product((base, Twist(t0))) if t0 else base
            rep = find_exceptional(f, x, 20, 3.0, table)
            dt = abs(rep.t - t0)
            worst_t = max(worst_t, dt)
            worst_d2 = max(worst_d2, rep.squared_distance)
            if rep.psi != psi or dt > 1e-3 or rep.squared_distance > 1e-4:
                misses.append((psi.serial, t0, rep.psi.serial, rep.t,
                               rep.squared_distance))
    elapsed = time.time() - start
    ok = not misses
    _line(4, ok and elapsed < 600.0,
          f"81/81 planted characters, worst |t-t0|={worst_t:.2e}, "
          f"worst D^2={worst_d2:.2e} ({elapsed:.0f}s)" if ok
          else f"misses={misses[:3]} ({elapsed:.0f}s)")
    assert elapsed < 600.0
    assert not misses


def test_criterion_05_triangle_inequality():
    start = time.time()
    table = PrimeTable(2 * 10**4)
    pool = [parse_spec(s) for s in (
        "mobius", "liouville", "one", "nit:0.7", "nit:-1.3", "char:5:1",
        "char:7:2", "char:8:3", "char:12:1", "legendre:3", "legendre:7",
        "prod(char:5:2,nit:1.0)", "prod(mobius,char:3:1)", "threshold:10000",
    )]
    rng = random.Random(1005)
    violations = 0
    worst = -math.inf
    for _ in range(500):
        f, g, h = (rng.choice(pool) for _ in range(3))
        x = rng.randrange(100, 10**4 + 1)
        dfg = math.sqrt(distance_squared(f, g, x, table).squared_distance)
        dgh = math.sqrt(distance_squared(g, h, x, table).squared_distance)
        dfh = math.sqrt(distance_squared(f, h, x, table).squared_distance)
        excess = dfh - (dfg + dgh)
        worst = max(worst, excess)
        if excess > 1e-9:
            violations += 1
    elapsed = time.time() - start
    _line(5, violations == 0,
          f"500 trials, 0 violations, max excess {worst:.2e} ({elapsed:.1f}s)"
          if violations == 0 else f"{violations} violations, worst {worst:.2e}")
    assert violations == 0


def test_criterion_06_recovery_guarantee():
    start = time.time()
    rng = random.Random(1006)
    worst_eps = 0.0
    worst_parseval = 0.0
    for trial in range(100):
        q = rng.randrange(3, 51)
        G = unit_group(q)
        idx = rng.randrange(G.phi)
        chi = character_by_index(q, idx)
        row = character_row(chi)[np.asarray(G.units)]
        # multiplicative phase noise, pinned to 0 at a = 1 so g(1) = 1;
        # |e^{i u} - e^{i v}| <= |u - v| keeps the pair defect under 0.3
        deltas = np.array([rng.uniform(-0.1, 0.1) for _ in range(G.phi)])
        deltas[int(np.searchsorted(G.units, 1 % q))] = 0.0
        g = ApproxHomomorphism.from_values(q, row * np.exp(1j * deltas))
        assert g.epsilon <= 0.3 + 1e-12, (q, idx, g.epsilon)
        worst_eps = max(worst_eps, g.epsilon)
        res = nearest_character(g)
        assert res.chi == chi, (trial, q, idx, res.chi.serial)
        assert res.max_deviation <= g.epsilon / (1 - 2 * g.epsilon) + 1e-9
        lhs, rhs = parseval_identity(g)
        worst_parseval = max(worst_parseval, abs(lhs - rhs))
        assert abs(lhs - rhs) <= 1e-9, (q, idx)
    elapsed = time.time() - start
    _line(6, elapsed < 60.0,
          f"100/100 recovered, max eps={worst_eps:.3f}, "
          f"parseval gap <= {worst_parseval:.2e} ({elapsed:.1f}s)")
    assert elapsed < 60.0


def test_criterion_07_large_sieve(table_medium):
    start = time.time()
    worst_ratio = 0.0
    rows = []
    for spec_name in ("mobius", "liouville"):
        f = parse_spec(spec_name)
        for q in (1, 5):
            for eta in (0.1, 0.2):
                rep = bad_moduli(f, 10**6, q, 1, eta, table_medium)
                bound = 2.0 / eta**2
                assert rep.sum_inverse_phi <= bound + 1e-9
                worst_ratio = max(worst_ratio, rep.sum_inverse_phi / bound)
                rows.append(f"{spec_name}/q{q}/eta{eta}: {rep.sum_inverse_phi:.3f}")
    elapsed = time.time() - start
    _line(7, elapsed < 300.0,
          f"8 scans all under 2/eta^2, worst ratio {worst_ratio:.4f} "
          f"({elapsed:.0f}s)")
    assert elapsed < 300.0
    assert worst_ratio <= 1.0 + 1e-9


def test_criterion_08_product_distance_link():
    start = time.time()
    x = 10**5
    table = PrimeTable(x)
    ps = table.primes_upto(x)
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(200):
        thetas = rng.uniform(-np.pi, np.pi, len(ps))
        g = make_prime_table_spec(
            {int(p): complex(np.exp(1j * th)) for p, th in zip(ps, thetas)},
            rule="cm",
        )
        ev = euler_product_mean(g, x, table)
        d2 = distance_squared(One(), g, x, table).squared_distance
        worst = max(worst, abs(ev.log_abs_product + d2))
    elapsed = time.time() - start
    ok = worst <= 2.0
    _line(8, ok and elapsed < 120.0,
          f"200 random unimodular g: max |log prod + D^2| = {worst:.4f} "
          f"({elapsed:.1f}s)")
    assert elapsed < 120.0
    assert worst <= 2.0


# regression fixtures frozen from the first verified run (2026-08-15)
TREND_X7 = {3: 0.0002532, 4: 0.0001396, 5: 0.0002135, 8: 0.000804}


def test_criterion_09_residual_trend(table_medium, table_large):
    start = time.time()
    xs = (10**4, 10**5, 10**6, 10**7)
    tables = {
        10**4: PrimeTable(10**4),
        10**5: PrimeTable(10**5),
        10**6: table_medium,
        10**7: table_large,
    }
    series = {}
    for q in (3, 4, 5, 8):
        series[q] = [
            progression_report(Mobius(), x, q, 10, 2.0, tables[x])
            .normalized_max_residual
            for x in xs
        ]
    elapsed = time.time() - start
    violations = []
    for q, seq in series.items():
        for i, (prev, nxt) in enumerate(zip(seq, seq[1:])):
            if nxt > 1.1 * prev:
                violations.append((q, xs[i], xs[i + 1], prev, nxt))
    detail = "; ".join(
        f"q={q}: " + " -> ".join(f"{v:.6f}" for v in seq) for q, seq in series.items()
    )
    _line(9, not violations and elapsed < 900.0, f"{detail} ({elapsed:.0f}s)")
    assert elapsed < 900.0
    for q, frozen in TREND_X7.items():
        assert series[q][-1] == pytest.approx(frozen, rel=1e-9), q
    assert not violations, (
        "trend steps above 10% tolerance (q, x_prev, x_next, value_prev, value_next): "
        f"{violations}"
    )


# measured once at these parameters and frozen
LEGENDRE_FIXTURES = {
    (4, 3): (-0.0424, 5081),
    (4, 1): (-0.0224, 3359),
}


def test_criterion_10_legendre_infimum():
    start = time.time()
    table = PrimeTable(2 * 10**4)
    rep3 = legendre_progression_experiment(4, 3, 10**4, 10**4, table)
    rep1 = legendre_progression_experiment(4, 1, 10**4, 10**4, table)
    elapsed = time.time() - start
    floor1 = -0.6569990137169279 - 0.2
    ok3 = rep3.infimum <= -0.5
    ok1 = rep1.infimum >= floor1
    _line(10, ok3 and ok1 and elapsed < 300.0,
          f"a=3 infimum {rep3.infimum:.4f} at p={rep3.argmin_p} "
          f"({'<=' if ok3 else 'NOT <='} -0.5); "
          f"a=1 infimum {rep1.infimum:.4f} at p={rep1.argmin_p} "
          f"({'>=' if ok1 else 'NOT >='} {floor1:.4f}) ({elapsed:.1f}s)")
    assert elapsed < 300.0
    inf3, p3 = LEGENDRE_FIXTURES[(4, 3)]
    inf1, p1 = LEGENDRE_FIXTURES[(4, 1)]
    assert rep3.infimum == pytest.approx(inf3, abs=1e-12) and rep3.argmin_p == p3
    assert rep1.infimum == pytest.approx(inf1, abs=1e-12) and rep1.argmin_p == p1
    assert not rep3.square_class and rep1.square_class
    assert rep1.infimum >= floor1
    assert rep3.infimum <= -0.5, (
        "non-square-class infimum does not reach -0.5 at x = 10^4, p <= 10^4: "
        "the scan would need symbols prescribed at every prime up to ~x^0.9, "
        "i.e. p beyond any desk scale; measured value frozen above"
    )
