"""Distance and twist-minimization tests.

Small-x distances are frozen from hand computation (the p <= 10 terms are
2(1/2+1/3+1/5+1/7) etc.); the minimizer is checked by planting a known
character twist and recovering it.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pretentious
from pretentious import pretension
from pretentious.arith import PrimeTable
from pretentious.characters import (
    MAX_MODULUS,
    DirichletCharacter,
    character_by_index,
    character_row,
    enumerate_characters,
    induce,
    unit_group,
    unit_group_transform,
)
from pretentious.errors import PreconditionError
from pretentious.funcspec import (
    PRIME_CHUNK,
    CharacterSpec,
    Mobius,
    One,
    PrimeTableSpec,
    Product,
    Twist,
    make_prime_table_spec,
    parse_spec,
    prime_values,
    read_prime_values,
)
from pretentious.meanvalues import coprime_mean_bound, halasz_bound
from pretentious.pretension import (
    CELL_WIDTH,
    FIRST_CELL,
    GRID_SPACING_FACTOR,
    KERNEL_TOL,
    MOMENTS,
    REFINE_POINTS,
    T_BLOCK,
    T_REFINE_TOL,
    TIE_TOL,
    SpectrumEntry,
    TwistObjective,
    _CellMoments,
    _coarse_grid,
    _is_even,
    _PrimeData,
    _primitive_characters,
    _scan,
    _spectrum_order,
    _twisted,
    distance_squared,
    find_exceptional,
    min_distance_over_t,
    primitive_characters_upto,
    real_function_check,
    repulsion_spectrum,
    twist_distance_profile,
)

_TABLE = {}


def _table():
    if "t" not in _TABLE:
        _TABLE["t"] = PrimeTable(2 * 10**5)
    return _TABLE["t"]


class _DivisorFreeData:
    """The prime data of one modulus q that the scans built before they all
    ran on the data of every prime, kept as the oracle: the primes up to x
    not dividing q, f at them read over every prime at once (or fv, f at
    table.primes_upto(x), when the caller has it), their classes mod q, and
    base(q), the sum of 1/p over them.  Characters mod q alone run on it."""

    def __init__(self, f, x, q, table, fv=None):
        ps = table.primes_upto(x)
        if fv is None:
            fv = prime_values(f, ps, table)
        keep = q % ps != 0
        ps, self.fv = ps[keep], fv[keep]
        self.cls = (ps % q).astype(np.min_scalar_type(q))
        self.inv_p = 1.0 / ps
        self.logp = np.log(ps, dtype=np.float64)
        self.x, self.q = x, q
        self._base = float(np.sum(self.inv_p))

    def base(self, q):
        assert q == self.q, (q, self.q)
        return self._base


def _data(f, psi, x, table, fv=None):
    """The oracle's prime data of psi's objective for f."""
    return _DivisorFreeData(f, x, psi.q, table, fv)


def _objective(f, psi, x, table, fv=None):
    """psi's objective for f on _data(f, psi, x, table, fv)."""
    return TwistObjective(_data(f, psi, x, table, fv), psi)


def test_distance_hand_value():
    # mu(p) = -1 for all p, so each term is (1-(-1))/p = 2/p over p <= 10
    d = distance_squared(Mobius(), One(), 10, _table())
    assert d.squared_distance == pytest.approx(2 * (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7), abs=1e-14)
    assert d.prime_count == 4


def test_distance_excluded_modulus():
    d = distance_squared(Mobius(), One(), 10, _table(), r=6)
    assert d.squared_distance == pytest.approx(2 * (1 / 5 + 1 / 7), abs=1e-14)
    assert d.prime_count == 2


def test_distance_zero_against_self():
    # specs with |f(p)| = 1 at every prime: self-distance vanishes outright
    for text in ("mobius", "liouville", "nit:0.5"):
        spec = parse_spec(text)
        d = distance_squared(spec, spec, 10**4, _table())
        assert d.squared_distance <= 1e-12
    # characters vanish on p | q; the self-distance then carries exactly
    # those primes' full weight unless the modulus is excluded
    chi = parse_spec("char:7:3")
    full = distance_squared(chi, chi, 10**4, _table())
    assert full.squared_distance == pytest.approx(1 / 7, abs=1e-14)
    away = distance_squared(chi, chi, 10**4, _table(), r=7)
    assert away.squared_distance <= 1e-12


def test_distance_symmetry():
    f, g = Mobius(), parse_spec("char:5:2")
    d1 = distance_squared(f, g, 10**4, _table()).squared_distance
    d2 = distance_squared(g, f, 10**4, _table()).squared_distance
    assert d1 == pytest.approx(d2, abs=1e-12)


def _distance_squared_whole(f, g, x, table, r=1):
    """The whole-array distance that the chunked one replaced, kept as its
    oracle: f(p), g(p) and the terms over every included prime at once.
    Returns (squared distance, prime count); == on them compares bits."""
    ps = table.primes_upto(x)
    ps = ps[r % ps != 0]
    fv = prime_values(f, ps, table)
    gv = prime_values(g, ps, table)
    terms = (1.0 - (fv * np.conj(gv)).real) / ps
    return float(np.sum(terms)), len(ps)


def _distance_pair(d):
    return d.squared_distance, d.prime_count


DISTANCE_PAIRS = [("mobius", "one", 1), ("prod(char:5:2,nit:1.0)", "one", 1),
                  ("liouville", "prod(char:7:3,nit:-0.5)", 7),
                  ("nit:0.3", "prod(char:12:1,nit:0.3)", 12)]


@pytest.mark.parametrize("f_text, g_text, r", DISTANCE_PAIRS)
def test_distance_byte_identical_to_whole_array(f_text, g_text, r, table_large):
    f, g = parse_spec(f_text), parse_spec(g_text)
    for x in (10**5, 10**6, 10**7):
        want = _distance_squared_whole(f, g, x, table_large, r)
        assert _distance_pair(distance_squared(f, g, x, table_large, r)) == want


def test_distance_byte_identical_at_chunk_edges(table_medium):
    # prime counts k chunk - 1, k chunk and k chunk + 1, an excluded prime on
    # either side of the first chunk edge, and a table spec
    x = 2 * 10**5
    ps = table_medium.primes_upto(x)
    assert len(ps) > 2 * PRIME_CHUNK + 1
    cases = [(int(ps[n - 1]), 1) for k in (1, 2) for n in (k * PRIME_CHUNK - 1,
                                                         k * PRIME_CHUNK,
                                                         k * PRIME_CHUNK + 1)]
    cases += [(x, int(ps[i])) for i in (PRIME_CHUNK - 1, PRIME_CHUNK)]
    rng = np.random.default_rng(3)
    values = np.exp(1j * rng.uniform(-3, 3, len(ps)))
    table_spec = make_prime_table_spec(dict(zip(ps.tolist(), values.tolist())))
    for f, g in ((Mobius(), parse_spec("prod(char:5:2,nit:1.0)")), (table_spec, One())):
        for y, r in cases:
            want = _distance_squared_whole(f, g, y, table_medium, r)
            assert _distance_pair(distance_squared(f, g, y, table_medium, r)) == want


def test_distance_missing_table_prime_raises_like_the_whole_array(table_medium):
    # the first missing prime sits in the second chunk
    ps = table_medium.primes_upto(2 * 10**5)
    missing = int(ps[PRIME_CHUNK + 5])
    spec = make_prime_table_spec({int(p): 0.5j for p in ps if p != missing})
    with pytest.raises(PreconditionError) as want:
        _distance_squared_whole(spec, One(), 2 * 10**5, table_medium)
    with pytest.raises(PreconditionError) as got:
        distance_squared(spec, One(), 2 * 10**5, table_medium)
    assert str(got.value) == str(want.value)


def test_distance_peak_is_one_float_per_prime(table_large):
    # the whole-array distance held a copy of the primes, f(p), g(p), their
    # product and the terms over all 664579 primes (42.5 MB traced); the
    # stream keeps one float64 term per prime and a few chunks
    x = 10**7
    f = parse_spec("prod(char:5:2,nit:1.0)")
    distance_squared(One(), f, x, table_large)  # warm the caches
    tracemalloc.start()
    try:
        distance_squared(One(), f, x, table_large)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(table_large.primes_upto(x)) + 12 * 16 * PRIME_CHUNK


def test_twist_objective_matches_distance():
    # objective(t) must equal the distance to psi(n) n^{it} computed directly
    f = parse_spec("prod(mobius,nit:0.25)")
    psi = character_by_index(5, 2)
    obj = _objective(f, psi, 10**4, _table())
    for t in (-1.5, -0.3, 0.0, 0.7, 2.0):
        direct = distance_squared(
            f, Product((CharacterSpec(5, 2), Twist(t))), 10**4, _table(), r=5
        ).squared_distance
        assert obj(t) == pytest.approx(direct, abs=1e-10)


def test_minimize_twist_flat_objective():
    trivial = character_by_index(1, 0)
    t, v = min_distance_over_t(One(), trivial, 1000, 0.0, _table())
    assert t == 0.0
    assert v == pytest.approx(_objective(One(), trivial, 1000, _table())(0.0))


def test_minimize_twist_negative_bound_rejected(monkeypatch):
    # refused before f is read at the primes
    def never(*args):
        raise AssertionError("f was read")

    monkeypatch.setattr("pretentious.pretension.read_prime_values", never)
    with pytest.raises(PreconditionError, match=r"A must be finite and >= 0, got -1.0$"):
        min_distance_over_t(One(), character_by_index(1, 0), 1000, -1.0, _table())


@pytest.mark.parametrize("t0", [-1.75, -0.5, 0.0, 0.5, 2.5])
def test_planted_twist_recovered(t0):
    planted = Product((CharacterSpec(7, 1), Twist(t0)))
    psi = character_by_index(7, 1)
    t, v = min_distance_over_t(planted, psi, 10**5, 3.0, _table())
    assert abs(t - t0) <= 1e-3
    assert v <= 1e-8


def test_grid_spacing_value():
    rep = find_exceptional(Mobius(), 10**4, 5, 1.0, _table())
    assert rep.grid_spacing == pytest.approx(GRID_SPACING_FACTOR / math.log(10**4))
    assert rep.refine_tolerance == T_REFINE_TOL


def test_primitive_scan_pool():
    chars = primitive_characters_upto(12)
    assert all(c.q <= 12 for c in chars)
    # conductor-1 trivial character is part of the pool
    assert any(c.q == 1 for c in chars)
    # counts per conductor: 1,0,1,1,3,0,5,2,4,0,9,1 for r = 1..12
    from collections import Counter

    counts = Counter(c.q for c in chars)
    assert counts[1] == 1 and counts[3] == 1 and counts[4] == 1
    assert counts[5] == 3 and counts[7] == 5 and counts[8] == 2
    assert counts[9] == 4 and counts[11] == 9 and counts[12] == 1
    assert 2 not in counts and 6 not in counts and 10 not in counts


# prod(char:7:2,nit:0.5) at x = 1e5, Q = 20, A = 12: the coarse grid samples
# the deeper well of char:15:7, near t = -5.213, above its well near t = 4.838,
# and refines the shallower one
_MISSED_WELL = dict(f="prod(char:7:2,nit:0.5)", x=10**5, Q=20, A=12, depth=12)


def test_missed_well_lies_below_the_reported_one():
    f = parse_spec(_MISSED_WELL["f"])
    obj = _objective(f, character_by_index(15, 7), _MISSED_WELL["x"], _table())
    assert obj(-5.21293) == pytest.approx(1.4972272, abs=1e-7)
    assert obj(4.8383802) == pytest.approx(1.4977709, abs=1e-7)


@pytest.mark.xfail(strict=True, reason="grid-then-refine is a heuristic: the scan refines "
                                       "the shallower well until t is certified")
def test_scan_reaches_the_deeper_well():
    p = _MISSED_WELL
    rep = find_exceptional(parse_spec(p["f"]), p["x"], p["Q"], p["A"], _table(), p["depth"])
    entry = next(e for e in rep.spectrum if e.character.serial == "char:15:7")
    assert entry.t == pytest.approx(-5.21293, abs=1e-4)
    assert entry.squared_distance <= 1.4972272 + 1e-7


def test_find_exceptional_identity_case():
    planted = Product((CharacterSpec(5, 1), Twist(0.5)))
    rep = find_exceptional(planted, 10**5, 10, 2.0, _table())
    assert rep.psi == character_by_index(5, 1)
    assert rep.conductor == 5
    assert abs(rep.t - 0.5) <= 1e-3
    assert rep.squared_distance <= 1e-8
    # spectrum is sorted by squared distance and respects the conductor bound
    ds = [s.squared_distance for s in rep.spectrum]
    assert ds == sorted(ds)
    assert all(s.conductor <= 10 for s in rep.spectrum)
    assert rep.spectrum[0].squared_distance == rep.squared_distance


# The minimizer that rotated grids replaced, kept as the oracle: a direct
# cosine sum at every point of a grid over [-A, A], then golden-section search
# on the bracket around the best point.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_minimize(fn, lo, hi, tol):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    t = (a + b) / 2.0
    return t, fn(t)


def _oracle_minimize_twist(obj, A, x):
    if A == 0:
        return 0.0, obj(0.0)
    h = GRID_SPACING_FACTOR / math.log(x)
    n = max(3, int(math.ceil(2.0 * A / h)) + 1)
    ts = np.linspace(-A, A, n)
    vals = np.array([obj(float(t)) for t in ts])
    i = int(np.argmin(vals))
    lo, hi = float(ts[max(i - 1, 0)]), float(ts[min(i + 1, n - 1)])
    t, v = _golden_minimize(obj, lo, hi, T_REFINE_TOL)
    if vals[i] < v:
        t, v = float(ts[i]), float(vals[i])
    return t, v


# The grid evaluation that cell moments replaced, kept as the oracle: the
# terms amp_p e^(i(phase_p - t log p)) built once at ts[0] and rotated by
# e^(-ih log p) per step of h, then the minimizer loop that ran on it.
def _rotated_grid(obj, ts):
    n = len(ts)
    w = obj.amp * np.exp(1j * (obj.phase - ts[0] * obj.logp))
    step = np.exp(-1j * ((ts[-1] - ts[0]) / max(n - 1, 1)) * obj.logp)
    out = np.empty(n)
    for k in range(n):
        if k:
            w *= step
        out[k] = obj.base - float(np.sum(w.real))
    return out


def _rotated_minimize_twist(obj, A, x, even):
    if A == 0:
        return 0.0, obj(0.0)
    lo = 0.0 if even else -A
    h = GRID_SPACING_FACTOR / math.log(x)
    ts = np.linspace(lo, A, max(3, int(math.ceil((A - lo) / h)) + 1))
    while True:
        i = int(np.argmin(_rotated_grid(obj, ts)))
        if ts[1] - ts[0] <= T_REFINE_TOL / 2:
            t = float(ts[i])
            return t, obj(t)
        ts = np.linspace(ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)], REFINE_POINTS)


ORACLE_SCANS = [
    "mobius",
    "legendre:5",
    "threshold:50000",
    "prod(char:7:2,nit:0.5)",
    "prod(char:5:2,nit:1.0)",
    "nit:-1.3",
]


def _kernel_values(f, x, chars, A):
    """{psi: (t, kernel value)} of one scan of chars, as find_exceptional
    runs it but refining every character; with A = 0, the kernel read at
    t = 0."""
    ts, vals = _scan(_PrimeData(f, x, _table()), chars, A, len(chars))
    return {psi: (t, float(v)) for psi, t, v in zip(chars, ts, vals)}


@pytest.mark.parametrize("text", ORACLE_SCANS)
def test_find_exceptional_matches_oracle_scan(text):
    f, x, Q, A = parse_spec(text), 10**5, 10, 2.0
    rep = find_exceptional(f, x, Q, A, _table(), depth=10**3)
    kernel = _kernel_values(f, x, primitive_characters_upto(Q), A)
    oracle = {}
    for psi in primitive_characters_upto(Q):
        data = _data(f, psi, x, _table())
        obj = TwistObjective(data, psi)
        oracle[psi] = (*_oracle_minimize_twist(obj, A, x), _is_even_oracle(data, psi))
    assert sorted(e.character.serial for e in rep.spectrum) == sorted(c.serial for c in oracle)
    for e in rep.spectrum:
        t_o, d2_o, even = oracle[e.character]
        dt = abs(abs(e.t) - abs(t_o)) if even else abs(e.t - t_o)
        assert dt <= 1e-6, (e.character.serial, e.t, t_o)
        assert e.squared_distance <= d2_o + 1e-12, (e.character.serial, e.squared_distance, d2_o)
        # the reported D^2 is the scan kernel's value, within 1e-12 of the
        # direct cosine sum at the same t
        assert (e.t, e.squared_distance) == kernel[e.character]
        direct = _objective(f, e.character, x, _table())(e.t)
        assert abs(e.squared_distance - direct) <= 1e-12, (e.character.serial, direct)
    # the order is the oracle's, except that characters whose distances tie
    # up to rounding (a conjugate pair for real f) may come in either order
    d2_o = [oracle[e.character][1] for e in rep.spectrum]
    assert all(a <= b + 1e-12 for a, b in zip(d2_o, d2_o[1:]))
    best = min(oracle.values(), key=lambda o: o[1])[1]
    assert oracle[rep.psi][1] <= best + 1e-12


def _assert_matches_rotated_oracle(t, d2, data, psi, A, x):
    obj = TwistObjective(data, psi)
    even = _is_even_oracle(data, psi)
    t_o, d2_o = _rotated_minimize_twist(obj, A, x, even)
    dt = abs(abs(t) - abs(t_o)) if even else abs(t - t_o)
    assert dt <= 1e-6, (t, t_o)
    assert d2 <= d2_o + 1e-12, (d2, d2_o)
    # D^2 is the value of psi's own scan kernel, within 1e-12 of the direct
    # cosine sum at the same t
    (t_k,), (d2_k,) = _scan(data, [psi], A, 1)
    assert (t, d2) == (t_k, d2_k)
    assert abs(d2 - obj(t)) <= 1e-12, (d2, obj(t))


@pytest.mark.parametrize("text", ORACLE_SCANS)
def test_coprime_mean_bound_matches_oracle(text):
    f, x, T = parse_spec(text), 10**5, 2.0
    for r in (2, 6, 30):
        cb = coprime_mean_bound(f, x, r, T, _table())
        principal = character_by_index(r, 0)
        data = _data(f, principal, x, _table())
        _assert_matches_rotated_oracle(cb.t_star, cb.squared_distance, data, principal, T, x)


@pytest.mark.parametrize("text", ORACLE_SCANS)
def test_coprime_mean_bound_leaves_out_the_primes_dividing_r(text, table_medium):
    # the principal character mod r is 1 at every prime not dividing r, so
    # its D^2 at t* is the distance to n^(it*) over those primes
    f, x, T = parse_spec(text), 10**6, 2.0
    for r in (2, 6, 30):
        cb = coprime_mean_bound(f, x, r, T, table_medium)
        oracle = distance_squared(f, Twist(cb.t_star), x, table_medium, r=r).squared_distance
        assert abs(cb.squared_distance - oracle) <= 1e-12, (r, cb.squared_distance, oracle)


@pytest.mark.parametrize("text", ORACLE_SCANS)
def test_min_distance_over_t_excluding_another_modulus_matches_oracle(text):
    # psi induced to modulus 2 psi.q leaves out 2 as well as the primes
    # dividing psi.q
    f, x, A = parse_spec(text), 10**5, 2.0
    for psi in (character_by_index(5, 2), character_by_index(7, 3), character_by_index(12, 3)):
        chi = induce(psi, 2 * psi.q)
        t, d2 = min_distance_over_t(f, chi, x, A, _table())
        _assert_matches_rotated_oracle(t, d2, _data(f, chi, x, _table()), chi, A, x)


@pytest.mark.parametrize("text", ORACLE_SCANS)
def test_min_distance_over_t_agrees_with_the_scan(text):
    # one character's scan and the scan of its whole modulus give the same
    # (t, D^2) for every primitive psi of conductor <= 12
    f, x, Q, A = parse_spec(text), 10**5, 12, 2.0
    rep = find_exceptional(f, x, Q, A, _table(), depth=10**3)
    assert len(rep.spectrum) == len(primitive_characters_upto(Q))
    for e in rep.spectrum:
        got = min_distance_over_t(f, e.character, x, A, _table())
        assert got == (e.t, e.squared_distance), e.character.serial


def test_find_exceptional_evaluates_f_once_per_scan(monkeypatch):
    # one read of f through the shared reader, whose chunks of at most
    # PRIME_CHUNK primes cover the primes up to x once
    reads, chunks = [], []

    def reading(spec, primes, table):
        reads.append(len(primes))
        return read_prime_values(spec, primes, table)

    def counting(spec, primes, table):
        chunks.append(len(primes))
        return prime_values(spec, primes, table)

    monkeypatch.setattr("pretentious.pretension.read_prime_values", reading)
    monkeypatch.setattr("pretentious.funcspec.prime_values", counting)
    x = 10**5
    find_exceptional(Mobius(), x, 10, 1.0, _table())  # 17 characters
    n = len(_table().primes_upto(x))
    assert reads == [n]
    assert sum(chunks) == n and len(chunks) == -(-n // PRIME_CHUNK) > 1
    assert max(chunks) <= PRIME_CHUNK


def test_even_objective_reports_nonnegative_t():
    # a real f against a real character has an objective even in t; the scan
    # then searches [0, A], which is find_exceptional's tie-break toward t >= 0
    rep = find_exceptional(parse_spec("legendre:5"), 10**5, 10, 2.0, _table(), depth=10**3)
    real = [e for e in rep.spectrum if e.character.is_real()]
    assert real and all(e.t >= 0 for e in real)
    assert halasz_bound(Mobius(), 10**5, 2.0, _table()).t_star >= 0
    # a complex character keeps the full range: negative twists are found
    rep = find_exceptional(parse_spec("prod(char:5:1,nit:-0.5)"), 10**5, 10, 2.0, _table())
    assert rep.psi == character_by_index(5, 1)
    assert abs(rep.t + 0.5) <= 1e-6


# The parity test that _is_even shortcuts: every z_p = f(p) conj(psi(p)) real.
def _is_even_oracle(data, psi):
    return bool(np.all(_twisted(data.fv, data.cls % psi.q, psi).imag == 0))


def _assert_is_even_matches_oracle(f, x, chars):
    """_is_even against the oracle on the scan's data and on each
    character's own conductor data; returns the oracle's answers."""
    fv = prime_values(f, _table().primes_upto(x), _table())
    scan = _PrimeData(f, x, _table())
    out = []
    for psi in chars:
        want = _is_even_oracle(scan, psi)
        assert _is_even(scan, psi) == want, psi.serial
        own = _data(f, psi, x, _table(), fv)
        assert _is_even(own, psi) == _is_even_oracle(own, psi) == want, psi.serial
        out.append(want)
    return out


@pytest.mark.parametrize("text", ORACLE_SCANS)
def test_is_even_matches_the_direct_test(text):
    _assert_is_even_matches_oracle(parse_spec(text), 10**5, primitive_characters_upto(20))


def test_is_even_complex_f_against_its_own_character():
    # z_p = |psi(p)|^2 is real although f is complex: every chunk is read
    psi = character_by_index(5, 1)
    assert _assert_is_even_matches_oracle(parse_spec("char:5:1"), 10**5, [psi]) == [True]


def test_is_even_finds_a_complex_value_in_the_last_chunk():
    # a real table but for one value at the last prime below x, so a real
    # character's search runs to the last chunk of primes
    x = 10**5
    ps = _table().primes_upto(x).tolist()
    f = PrimeTableSpec(tuple(((p, 1), -1.0 if p % 4 == 3 else 1.0) for p in ps[:-1])
                       + (((ps[-1], 1), 1j),))
    chars = primitive_characters_upto(20)
    even = _assert_is_even_matches_oracle(f, x, chars)
    assert not any(even[k] for k, psi in enumerate(chars) if psi.is_real())
    g = PrimeTableSpec(f.entries[:-1] + (((ps[-1], 1), 1.0),))
    again = _assert_is_even_matches_oracle(g, x, chars)
    assert all(again[k] for k, psi in enumerate(chars) if psi.is_real())


def test_trivial_character_twist_only():
    # f = n^{it0} pretends to be the conductor-1 character with twist t0
    planted = Twist(1.0)
    rep = find_exceptional(planted, 10**5, 8, 2.0, _table())
    assert rep.conductor == 1
    assert abs(rep.t - 1.0) <= 1e-3
    assert rep.squared_distance <= 1e-8


def test_repulsion_spectrum_shape():
    rep = find_exceptional(Mobius(), 10**4, 8, 1.0, _table(), depth=6)
    rows = repulsion_spectrum(rep)
    loglog = math.log(math.log(10**4))
    assert len(rows) == len(rep.spectrum)
    for j, (rank, d2, ref) in enumerate(rows, start=1):
        assert rank == j
        assert d2 == rep.spectrum[j - 1].squared_distance
        assert ref == pytest.approx((1 - 1 / math.sqrt(j)) * loglog)
    # the reference curve is what repulsion predicts: zero headroom at j=1
    assert rows[0][2] == 0.0


def test_twist_profile_monotone_reference():
    chi = character_by_index(7, 1)
    xs = [10**3, 10**4, 10**5]
    prof = twist_distance_profile(chi, 0.0, xs, _table())
    assert [row[0] for row in prof] == xs
    refs = [row[2] for row in prof]
    assert refs == sorted(refs)
    meas = [row[1] for row in prof]
    assert meas == sorted(meas)  # more primes, more distance


def test_twist_profile_rejects_principal():
    chi0 = character_by_index(7, 0)
    with pytest.raises(PreconditionError):
        twist_distance_profile(chi0, 0.0, [100], _table())


def test_real_function_check_branches():
    ok = real_function_check(parse_spec("legendre:5"), 10**5, 10, 2.0, _table())
    assert ok.applicable
    assert ok.psi_is_real is True
    assert abs(ok.t) <= ok.t_scale
    assert ok.threshold == pytest.approx(math.log(math.log(10**5)) / 16)

    far = real_function_check(Mobius(), 10**5, 10, 2.0, _table())
    assert not far.applicable
    assert far.psi_is_real is None


def test_real_function_check_requires_real_input():
    with pytest.raises(PreconditionError):
        real_function_check(parse_spec("nit:0.5"), 10**4, 5, 1.0, _table())


SPEC_POOL = [
    "mobius",
    "liouville",
    "one",
    "legendre:3",
    "legendre:7",
    "char:5:1",
    "char:8:3",
    "char:12:2",
    "prod(char:5:2,nit:1.0)",
    "prod(mobius,char:3:1)",
    "nit:0.5",
]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(SPEC_POOL),
    st.sampled_from(SPEC_POOL),
    st.sampled_from(SPEC_POOL),
    st.sampled_from([100, 1000, 10**4]),
)
def test_triangle_inequality(fa, fb, fc, x):
    f, g, h = parse_spec(fa), parse_spec(fb), parse_spec(fc)
    t = _table()
    dfh = math.sqrt(distance_squared(f, h, x, t).squared_distance)
    dfg = math.sqrt(distance_squared(f, g, x, t).squared_distance)
    dgh = math.sqrt(distance_squared(g, h, x, t).squared_distance)
    assert dfh <= dfg + dgh + 1e-9


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(SPEC_POOL),
    st.sampled_from(primitive_characters_upto(12)),
    st.sampled_from([10**3, 10**4, 10**5]),
    st.floats(0.0, 3.0),
    st.floats(-3.0, 3.0),
    st.integers(1, 120),
)
def test_rotated_grid_matches_direct_objective(text, psi, x, A, t0, n):
    data = _PrimeData(parse_spec(text), x, _table())
    obj = TwistObjective(data, psi)
    ts = np.linspace(t0, t0 + A, n)
    direct = np.array([obj(float(t)) for t in ts])
    assert np.max(np.abs(_CellMoments(data, [psi]).grid(ts)[:, 0] - direct)) <= 1e-12


def test_rotated_grid_drift_over_a_long_grid():
    # T = 100 at x = 1e5: 2,933 grid points, so the rounding of each
    # rotation step compounds over 2,932 multiplications
    x, T, psi = 10**5, 100.0, character_by_index(7, 3)
    data = _PrimeData(parse_spec("prod(char:5:2,nit:1.0)"), x, _table())
    obj = TwistObjective(data, psi)
    h = GRID_SPACING_FACTOR / math.log(x)
    ts = np.linspace(-T, T, int(math.ceil(2 * T / h)) + 1)
    assert len(ts) > 2900
    direct = np.array([obj(float(t)) for t in ts])
    assert np.max(np.abs(_CellMoments(data, [psi]).grid(ts)[:, 0] - direct)) <= 1e-12


def _character_grids(f, r, x, ts):
    """Every primitive character mod r on the grid ts, from one kernel."""
    return _CellMoments(_PrimeData(f, x, _table()), _primitive_characters(r)).grid(ts)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(SPEC_POOL),
    st.sampled_from(primitive_characters_upto(12)),
    st.sampled_from([10**3, 10**4, 10**5]),
    st.floats(0.0, 6.0),
    st.integers(1, 120),
)
def test_character_kernel_matches_direct_objective(text, psi, x, A, n):
    f = parse_spec(text)
    ts = np.linspace(-A, A, n)
    col = _primitive_characters(psi.q).index(psi)
    got = _character_grids(f, psi.q, x, ts)[:, col]
    obj = _objective(f, psi, x, _table())
    assert np.max(np.abs(got - [obj(float(t)) for t in ts])) <= 1e-12


def test_character_kernel_far_t_blocks():
    # A = 50 spans blocks centred at t = 0, +-8, ..., +-48
    x, r = 10**5, 11
    ts = np.linspace(-50.0, 50.0, 401)
    for text in ("mobius", "prod(char:5:2,nit:1.0)"):
        f = parse_spec(text)
        vals = _character_grids(f, r, x, ts)
        for col, psi in enumerate(_primitive_characters(r)):
            obj = _objective(f, psi, x, _table())
            assert np.max(np.abs(vals[:, col] - [obj(float(t)) for t in ts])) <= 1e-12


def test_conjugate_pairs_come_in_index_order():
    # for real f a character and its conjugate tie exactly (t -> -t); their
    # distances differ only in rounding, so the tie-break orders them
    rep = find_exceptional(Mobius(), 10**5, 20, 3.0, _table(), depth=100)
    pos = {e.character: i for i, e in enumerate(rep.spectrum)}
    pairs = 0
    for e in rep.spectrum:
        conj = e.character.conjugate()
        if conj != e.character and conj in pos and e.character.index < conj.index:
            pairs += 1
            assert abs(e.squared_distance - rep.spectrum[pos[conj]].squared_distance) <= TIE_TOL
            assert pos[e.character] < pos[conj], (e.character.serial, conj.serial)
    assert pairs >= 20


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_peak_memory_within_the_per_character_scan(table_medium):
    f, x, Q, A = Mobius(), 10**6, 10, 2.0

    def oracle_scan():
        fv = prime_values(f, table_medium.primes_upto(x), table_medium)
        for psi in primitive_characters_upto(Q):
            # each character's prime data stays alive while its objective runs
            data = _data(f, psi, x, table_medium, fv)
            _rotated_minimize_twist(TwistObjective(data, psi), A, x, _is_even_oracle(data, psi))

    find_exceptional(f, 10**4, Q, A, table_medium)  # warm the character caches
    peak = _traced_peak(lambda: find_exceptional(f, x, Q, A, table_medium))
    oracle_peak = _traced_peak(oracle_scan)
    assert peak <= oracle_peak, (peak, oracle_peak)


def test_scan_peak_memory_within_the_per_character_scan_at_q_20(table_medium):
    # one kernel holds the moments of all 80 characters of conductor <= 20
    f, x, Q, A = Mobius(), 10**6, 20, 2.0

    def oracle_scan():
        fv = prime_values(f, table_medium.primes_upto(x), table_medium)
        for psi in primitive_characters_upto(Q):
            # each character's prime data stays alive while its objective runs
            data = _data(f, psi, x, table_medium, fv)
            _rotated_minimize_twist(TwistObjective(data, psi), A, x, _is_even_oracle(data, psi))

    find_exceptional(f, 10**4, Q, A, table_medium)  # warm the character caches
    peak = _traced_peak(lambda: find_exceptional(f, x, Q, A, table_medium))
    oracle_peak = _traced_peak(oracle_scan)
    assert peak <= oracle_peak, (peak, oracle_peak)


# The scan that one kernel for all conductors replaced, kept as the oracle:
# one kernel per conductor r on the primes not dividing r, cells from the
# first of those primes, phases from one complex exp per cell, and each
# character refined on its own column.
class _ConductorCellMoments:
    def __init__(self, data, chars):
        self.data = data
        self.index = [chi.index for chi in chars]
        logp = data.logp
        self.first = math.floor(logp[0] / CELL_WIDTH) if len(logp) else 0
        last = math.floor(logp[-1] / CELL_WIDTH) if len(logp) else -1
        self.centres = (np.arange(self.first, last + 1) + 0.5) * CELL_WIDTH
        self._blocks = {}

    def _class_moments(self, j):
        data, q = self.data, self.data.q
        cell = np.floor(data.logp / CELL_WIDTH).astype(np.intp)
        cell -= self.first
        v = self.centres[cell]
        np.subtract(data.logp, v, out=v)
        w = data.fv * data.inv_p
        if j:
            w = w * np.exp(-2j * T_BLOCK * j * v)
        cell *= q
        cell += data.cls % q
        n = len(self.centres) * q
        W = np.zeros((MOMENTS, n), dtype=np.complex128)
        for m in range(MOMENTS):
            if m:
                w *= v
            W[m].real = np.bincount(cell, w.real, n)
            if np.iscomplexobj(w):
                W[m].imag = np.bincount(cell, w.imag, n)
        return W.reshape(MOMENTS, -1, q).transpose(1, 0, 2)

    def moments(self, j):
        if j not in self._blocks:
            q = self.data.q
            W = self._class_moments(j)[..., unit_group(q).units]
            self._blocks[j] = np.ascontiguousarray(unit_group_transform(W, q)[..., self.index])
        return self._blocks[j]

    def grid(self, ts, col=None):
        ts = np.asarray(ts, dtype=np.float64)
        blocks = np.rint(ts / (2.0 * T_BLOCK)).astype(np.intp)
        out = None
        for j in sorted(set(blocks.tolist())):
            W = self.moments(j)
            if col is not None:
                W = W[..., col:col + 1]
            k = W.shape[-1]
            W = W.reshape(len(self.centres), MOMENTS * k)
            if out is None:
                out = np.empty((len(ts), k))
            rows = np.flatnonzero(blocks == j)
            t = ts[rows]
            steps = np.ones((len(rows), MOMENTS), dtype=np.complex128)
            steps[:, 1:] = (-1j * (t - 2.0 * T_BLOCK * j))[:, None] / np.arange(1, MOMENTS)
            E = np.exp(np.multiply.outer(t, self.centres) * -1j)
            R = (E @ W).reshape(len(rows), MOMENTS, k)
            out[rows] = self.data.base(self.data.q) - np.einsum(
                "nm,nmk->nk", np.cumprod(steps, axis=1), R).real
        return out if col is None else out[:, 0]


def _conductor_scan(data, chars, A):
    kernel = _ConductorCellMoments(data, chars)
    if A > 0:
        odd, even = _coarse_grid(False, A, data.x), _coarse_grid(True, A, data.x)
        vals = kernel.grid(np.concatenate([odd, even]))
        coarse = {False: (odd, vals[:len(odd)]), True: (even, vals[len(odd):])}
    out = []
    for col, psi in enumerate(chars):
        obj = TwistObjective(data, psi)
        t = 0.0
        if A > 0:
            ts, vals = coarse[_is_even_oracle(data, psi)]
            vals = vals[:, col]
            while ts[1] - ts[0] > T_REFINE_TOL / 2:
                i = int(np.argmin(vals))
                ts = np.linspace(ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)],
                                 REFINE_POINTS)
                vals = kernel.grid(ts, col)
            t = float(ts[np.argmin(vals)])
        out.append((t, obj(t)))
    return out


def _conductor_oracle(f, x, Q, A):
    fv = prime_values(f, _table().primes_upto(x), _table())
    out = {}
    for r in range(1, Q + 1):
        chars = _primitive_characters(r)
        if chars:
            out.update(zip(chars, _conductor_scan(_DivisorFreeData(f, x, r, _table(), fv),
                                                  chars, A)))
    return out


@pytest.mark.parametrize("A", [3.0, 12.0])  # 12 spans the t-blocks centred at 0, +-8, +-16
@pytest.mark.parametrize("text", ORACLE_SCANS)
def test_find_exceptional_matches_per_conductor_scan(text, A):
    f, x, Q = parse_spec(text), 10**5, 20
    rep = find_exceptional(f, x, Q, A, _table(), depth=10**3)
    oracle = _conductor_oracle(f, x, Q, A)
    assert sorted(e.character.serial for e in rep.spectrum) == sorted(c.serial for c in oracle)
    for e in rep.spectrum:
        t_o, d2_o = oracle[e.character]
        assert abs(e.t - t_o) <= 1e-6, (e.character.serial, e.t, t_o)
        assert abs(e.squared_distance - d2_o) <= 1e-12, (e.character.serial,
                                                         e.squared_distance, d2_o)


@pytest.mark.parametrize("text", ["mobius", "prod(char:5:2,nit:1.0)"])
def test_all_conductor_kernel_matches_each_conductor_kernel(text):
    # one kernel over every prime, each column excluding its own modulus,
    # gives each conductor's own kernel bit for bit
    f, x, Q = parse_spec(text), 10**5, 20
    fv = prime_values(f, _table().primes_upto(x), _table())
    ts = np.linspace(-20.0, 20.0, 301)
    chars = primitive_characters_upto(Q)
    vals = _CellMoments(_PrimeData(f, x, _table()), chars).grid(ts)
    col = 0
    for r in range(1, Q + 1):
        own = _primitive_characters(r)
        if own:
            kernel = _CellMoments(_DivisorFreeData(f, x, r, _table(), fv), own)
            assert np.array_equal(vals[:, col:col + len(own)], kernel.grid(ts)), r
            col += len(own)
    assert col == len(chars)


def test_per_column_grids_across_t_blocks():
    # each column's own grid spans several t-blocks; every point is taken
    # from the moments of its own block
    f, x = parse_spec("prod(char:5:2,nit:1.0)"), 10**5
    chars = primitive_characters_upto(12)
    kernel = _CellMoments(_PrimeData(f, x, _table()), chars)
    ts = np.sort(np.random.default_rng(7).uniform(-30.0, 30.0, (len(chars), 17)), axis=1)
    vals = kernel.grids([(ts, np.arange(len(chars)))])[0]
    for k, psi in enumerate(chars):
        obj = _objective(f, psi, x, _table())
        assert np.max(np.abs(vals[k] - [obj(float(t)) for t in ts[k]])) <= 1e-12, psi.serial


def test_cell_edges_match_the_whole_array_edges(table_medium):
    # the chunk edges of the class sums, found one window at a time, against
    # those from the cells of every prime at once; pi(x) at and around a
    # multiple of the chunk, where the last window ends
    ps = table_medium.primes_upto(10**6)
    for x in (*(int(ps[2 * PRIME_CHUNK + k]) for k in (-2, -1, 0)), 10**6):
        data = _PrimeData(Mobius(), x, table_medium)
        cell = np.floor(data.logp / CELL_WIDTH).astype(np.intp)
        starts = np.searchsorted(cell, cell[::PRIME_CHUNK])
        kernel = _CellMoments(data, [DirichletCharacter(1, ())])
        assert kernel._edges == [*sorted(set(starts.tolist())), len(cell)], x
        assert kernel._cells == int(cell[-1]) + 1 - FIRST_CELL


def test_phase_table_matches_exp():
    # e^(-itu_aL) e^(-itb delta) against one exp per cell; both round the
    # phase t u_c, so they agree to a few ulp of |t u_c|
    kernel = _CellMoments(_PrimeData(Mobius(), 10**5, _table()), [DirichletCharacter(1, ())])
    for T in (0.01, 1.0, 12.0, 100.0):
        ts = np.linspace(-T, T, 501)
        tu = np.multiply.outer(ts, kernel.centres)
        err = np.abs(kernel._phases(ts) - np.exp(tu * -1j))
        assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(tu))), (T, float(err.max()))


def test_coarse_grids_run_only_for_the_parities_present(monkeypatch, table_medium):
    asked = []

    def recording(even, A, x):
        asked.append(even)
        return _coarse_grid(even, A, x)

    monkeypatch.setattr("pretentious.pretension._coarse_grid", recording)
    trivial = DirichletCharacter(1, ())
    min_distance_over_t(Mobius(), trivial, 10**6, 100.0, table_medium)
    assert asked == [True]
    asked.clear()
    min_distance_over_t(parse_spec("prod(char:5:2,nit:0.7)"), trivial, 10**5, 3.0, _table())
    assert asked == [False]
    asked.clear()
    find_exceptional(parse_spec("prod(char:7:2,nit:0.5)"), 10**5, 20, 3.0, _table())
    assert asked == [False]
    asked.clear()
    find_exceptional(Mobius(), 10**5, 20, 3.0, _table())
    assert asked == [False, True]


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_non_finite_twist_bound_refused(bound):
    f, trivial = Mobius(), DirichletCharacter(1, ())
    with pytest.raises(PreconditionError):
        find_exceptional(f, 1000, 5, bound, _table())
    with pytest.raises(PreconditionError):
        min_distance_over_t(f, trivial, 1000, bound, _table())
    with pytest.raises(PreconditionError):
        halasz_bound(f, 1000, bound, _table())


@pytest.mark.parametrize("x", [-1, 0, 1])
def test_twist_minimizer_refuses_x_below_2(x):
    # as distance_squared does, rather than failing in log x
    f, trivial = Mobius(), DirichletCharacter(1, ())
    for A in (0.0, 1.0):
        with pytest.raises(PreconditionError, match="x >= 2"):
            min_distance_over_t(f, trivial, x, A, _table())
    with pytest.raises(PreconditionError, match="x >= 2"):
        halasz_bound(f, x, 1.0, _table())


def test_conductor_bound_above_max_modulus_refused_before_the_scan(monkeypatch):
    # the characters of conductor <= 10^4 alone are about 3e7; the bound is
    # checked before f is evaluated or any character is built
    def never(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr("pretentious.pretension.read_prime_values", never)
    monkeypatch.setattr("pretentious.pretension.primitive_characters_upto", never)
    with pytest.raises(PreconditionError, match="conductor bound"):
        find_exceptional(Mobius(), 1000, MAX_MODULUS + 1, 1.0, _table())


# The scan's last stage before it reported the kernel's values, kept as the
# oracle: the direct D^2 of every primitive character of conductor <= Q at
# the t the scan chose, one prime data per conductor, and the whole spectrum
# in order.  Returned with the kernel values of the same scan.
def _direct_spectrum(f, x, Q, A):
    fv = prime_values(f, _table().primes_upto(x), _table())
    chars = primitive_characters_upto(Q)
    kernel = _kernel_values(f, x, chars, A)
    entries = []
    for r, group in itertools.groupby(chars, key=lambda psi: psi.q):
        data = _DivisorFreeData(f, x, r, _table(), fv)
        entries += [SpectrumEntry(psi, r, kernel[psi][0],
                                  TwistObjective(data, psi)(kernel[psi][0])) for psi in group]
    return _spectrum_order(entries), kernel


def _assert_matches_direct_spectrum(rep, oracle, kernel, depth):
    # characters, conductors, order and t are the direct spectrum's; each
    # D^2 is the scan kernel's value, within 1e-12 of the direct one
    assert [(e.character, e.conductor, e.t) for e in rep.spectrum] == [
        (e.character, e.conductor, e.t) for e in oracle[:depth]]
    for e, o in zip(rep.spectrum, oracle):
        assert e.squared_distance == kernel[e.character][1], e.character.serial
        assert abs(e.squared_distance - o.squared_distance) <= 1e-12, e.character.serial
    best = oracle[0]
    assert (rep.psi, rep.conductor, rep.t, rep.squared_distance) == (
        best.character, best.conductor, best.t, kernel[best.character][1])


@pytest.mark.parametrize("A", [3.0, 12.0])
@pytest.mark.parametrize("text", ORACLE_SCANS)
def test_find_exceptional_matches_the_direct_spectrum(text, A):
    f, x, Q = parse_spec(text), 10**5, 20
    oracle, kernel = _direct_spectrum(f, x, Q, A)
    for depth in (1, 10, len(oracle)):
        rep = find_exceptional(f, x, Q, A, _table(), depth=depth)
        _assert_matches_direct_spectrum(rep, oracle, kernel, depth)


def test_tie_across_the_depth_boundary_matches_the_direct_spectrum(monkeypatch):
    # the conjugate pair char:9:2, char:9:4 ties at places 10 and 11
    f, x, Q, A, depth = Mobius(), 10**5, 20, 0.0, 10
    oracle, kernel = _direct_spectrum(f, x, Q, A)
    assert [e.character.serial for e in oracle[depth - 1:depth + 1]] == ["char:9:2",
                                                                         "char:9:4"]
    tied = [e for e in oracle[depth:]
            if e.squared_distance - oracle[depth - 1].squared_distance <= TIE_TOL]
    assert tied
    calls = []
    init = TwistObjective.__init__

    def counting(self, data, psi):
        calls.append(psi)
        init(self, data, psi)

    monkeypatch.setattr(TwistObjective, "__init__", counting)
    rep = find_exceptional(f, x, Q, A, _table(), depth=depth)
    _assert_matches_direct_spectrum(rep, oracle, kernel, depth)
    # the kernel's values order the spectrum: no direct D^2 is taken, and
    # with room for every character the spectrum is the whole direct one
    assert not calls, [psi.serial for psi in calls]
    for A in (0.0, 3.0):
        oracle, kernel = _direct_spectrum(f, x, Q, A)
        calls.clear()
        rep = find_exceptional(f, x, Q, A, _table(), depth=len(oracle))
        _assert_matches_direct_spectrum(rep, oracle, kernel, len(oracle))
        assert len(rep.spectrum) == len(oracle)
        assert not calls, [psi.serial for psi in calls]


def test_scans_build_one_prime_data_and_no_direct_objective(monkeypatch):
    # every reported D^2 is the kernel's value: find_exceptional builds the
    # prime data mod 1 once and no direct objective, whatever A and depth,
    # and the one-character scans build no direct objective either
    built = []
    for cls in (_PrimeData, TwistObjective):
        def counting(self, *args, init=cls.__init__, name=cls.__name__):
            built.append(name)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    f, x, Q = Mobius(), 10**5, 20
    n = len(primitive_characters_upto(Q))
    for A in (0.0, 3.0):
        for depth in (10, n, n + 5):
            built.clear()
            rep = find_exceptional(f, x, Q, A, _table(), depth=depth)
            assert built == ["_PrimeData"], (A, depth, built)
            assert len(rep.spectrum) == min(depth, n)
    built.clear()
    for A in (0.0, 2.0):
        min_distance_over_t(f, character_by_index(7, 3), x, A, _table())
    halasz_bound(f, x, 2.0, _table())
    coprime_mean_bound(f, x, 6, 2.0, _table())
    assert "_PrimeData" in built and "TwistObjective" not in built


@pytest.mark.parametrize("text", ["mobius", "liouville", "threshold:300000", "one",
                                  "legendre:7"])
def test_prime_data_holds_the_sign_families_as_int8(text, table_medium):
    # f(p) in the fill's int8, beside 1/p and log p in float64: 17 bytes per
    # prime, and the read holds one chunk of prime_values at a time
    f, x = parse_spec(text), 10**6
    ps = table_medium.primes_upto(x)
    _PrimeData(f, x, table_medium)  # warm the caches
    tracemalloc.start()
    try:
        data = _PrimeData(f, x, table_medium)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.fv.dtype == np.int8
    assert np.array_equal(data.fv, prime_values(f, ps, table_medium))
    assert peak <= 17 * len(ps) + 4 * 8 * PRIME_CHUNK, peak


# the one-character scans of min_distance_over_t and coprime_mean_bound ran
# on their modulus's divisor-free data before every scan shared one mode
_ONE_CHARACTER_SCANS = [
    *(character_by_index(q, 0) for q in (2, 6, 30, 210)),
    *(induce(psi, 30) for psi in enumerate_characters(5)[1:]),
    *(induce(psi, 42) for psi in enumerate_characters(7)[1:]),
    *enumerate_characters(60)[:8],
]


@pytest.mark.parametrize("text", ["mobius", "prod(char:5:2,nit:1.0)"])
def test_one_character_scans_match_the_divisor_free_data(text, table_medium):
    f = parse_spec(text)
    for x in (10**5, 10**6):
        fv = prime_values(f, table_medium.primes_upto(x), table_medium)
        for psi in _ONE_CHARACTER_SCANS:
            oracle = _data(f, psi, x, table_medium, fv)
            for A in (0.0, 2.0, 12.0):
                (t,), (d2,) = _scan(oracle, [psi], A, 1)
                got = min_distance_over_t(f, psi, x, A, table_medium)
                assert got == (t, float(d2)), (x, psi.serial, psi.q, A)
        for r in (2, 6, 30):
            principal = character_by_index(r, 0)
            (t,), (d2,) = _scan(_data(f, principal, x, table_medium, fv), [principal], 2.0, 1)
            cb = coprime_mean_bound(f, x, r, 2.0, table_medium)
            assert (cb.t_star, cb.squared_distance) == (t, float(d2)), (x, r)


@pytest.mark.parametrize("depth", [0, -1])
def test_find_exceptional_refuses_a_depth_below_one(depth):
    with pytest.raises(PreconditionError):
        find_exceptional(Mobius(), 1000, 5, 1.0, _table(), depth=depth)


@pytest.mark.parametrize("text", ORACLE_SCANS)
def test_scan_values_within_the_selection_margin_of_the_direct_sum(text):
    # the selection rests on |kernel value - direct D^2| <= KERNEL_TOL at
    # every character's t; with A = 0, find_exceptional reads the kernel at
    # 0, and with A = 2e-7 the coarse grid is already fine enough to stop
    f, x, Q = parse_spec(text), 10**5, 20
    fv = prime_values(f, _table().primes_upto(x), _table())
    chars = primitive_characters_upto(Q)
    data = _PrimeData(f, x, _table())
    for A in (0.0, 2e-7, 3.0, 12.0):
        ts, vals = _scan(data, chars, A, len(chars))
        if A == 0:
            assert ts == [0.0] * len(chars)
            assert np.array_equal(vals, _CellMoments(data, chars).grid(np.zeros(1))[0])
        for psi, t, v in zip(chars, ts, vals):
            d2 = _objective(f, psi, x, _table(), fv=fv)(t)
            assert abs(v - d2) <= 1e-12, (psi.serial, A, t, v, d2)


def _refined_characters(f, x, Q, A, depth):
    """The characters a find_exceptional scan refines, with its report."""
    kernels, refined = [], []

    class Recording(_CellMoments):
        def __init__(self, data, chars):
            kernels.append(chars)
            super().__init__(data, chars)

    def recording(kernel, cols, lo, hi):
        refined.extend(kernels[0][c] for c in cols)
        return refine(kernel, cols, lo, hi)

    refine = pretension._refine
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pretension, "_CellMoments", Recording)
        mp.setattr(pretension, "_refine", recording)
        rep = find_exceptional(f, x, Q, A, _table(), depth=depth)
    assert len(kernels) == 1 and len(refined) == len(set(refined))
    return set(refined), rep


def test_scan_refines_only_the_characters_the_spectrum_can_hold():
    f, x, Q, A = parse_spec("prod(char:7:2,nit:0.5)"), 10**5, 20, 3.0
    chars = primitive_characters_upto(Q)
    assert len(chars) == 80
    refined, rep = _refined_characters(f, x, Q, A, 10)
    assert len(refined) <= 20, len(refined)
    assert {e.character for e in rep.spectrum} <= refined
    refined, _ = _refined_characters(f, x, Q, A, len(chars))
    assert refined == set(chars)


def _direct_minima(pairs, x, A):
    """For each (fv, psi) in pairs, with fv = f at the primes up to x, the
    direct objective sum over p <= x, p not dividing psi.q, of
    (1 - Re f(p) conj(psi(p)) p^(-it))/p, minimized over a grid of spacing
    <= 1e-3 on [-A, A]."""
    ps = _table().primes_upto(x)
    Z = np.stack([fv * np.conj(character_row(psi))[ps % psi.q] / ps for fv, psi in pairs],
                 axis=1)
    base = np.array([np.sum(1.0 / ps[psi.q % ps != 0]) for _, psi in pairs])
    ts = np.linspace(-A, A, int(math.ceil(2 * A / 1e-3)) + 1)
    low = np.full(len(pairs), np.inf)
    for chunk in np.array_split(ts, len(ts) // 256 + 1):
        E = np.exp(np.multiply.outer(chunk, np.log(ps)) * -1j)
        low = np.minimum(low, np.min(base - (E @ Z).real, axis=0))
    return low


def test_pruned_characters_stay_above_their_lower_bound():
    # a character's objective over |t| <= A is at least its lower bound
    # LB = (coarse minimum) - M2 h^2/8 - 2 KERNEL_TOL, with
    # M2 = sum |f(p)| log^2 p / p and h its parity's grid spacing; the scan
    # refines exactly the characters with LB <= v + TIE_TOL + 4 KERNEL_TOL,
    # v the depth-th smallest coarse minimum
    x, Q, A, depth = 10**5, 20, 3.0, 10
    ps = _table().primes_upto(x)
    chars = primitive_characters_upto(Q)
    cases = []
    for text in ORACLE_SCANS:
        f = parse_spec(text)
        fv = prime_values(f, ps, _table())
        M2 = float(np.sum(np.abs(fv) * np.log(ps) ** 2 / ps))
        kernel = _CellMoments(_PrimeData(f, x, _table()), chars)
        coarse = {}
        for even in (False, True):
            ts = _coarse_grid(even, A, x)
            coarse[even] = ts[1] - ts[0], np.min(kernel.grid(ts), axis=0)
        lows, lbs = [], []
        for k, psi in enumerate(chars):
            h, v = coarse[_is_even_oracle(_data(f, psi, x, _table(), fv), psi)]
            lows.append(float(v[k]))
            lbs.append(lows[-1] - M2 * h * h / 8 - 2 * KERNEL_TOL)
        v = sorted(lows)[depth - 1]
        pruned = [(psi, lb) for psi, lb in zip(chars, lbs) if lb > v + TIE_TOL + 4 * KERNEL_TOL]
        refined, _ = _refined_characters(f, x, Q, A, depth)
        assert pruned and refined == set(chars) - {psi for psi, _ in pruned}, text
        cases += [(text, fv, psi, lb) for psi, lb in pruned]
    low = _direct_minima([(fv, psi) for _, fv, psi, _ in cases], x, A)
    for (text, _, psi, lb), d2 in zip(cases, low):
        assert d2 >= lb, (text, psi.serial, float(d2), lb)


_SCAN_IMPORTS = """
import sys
from pretentious.arith import PrimeTable
from pretentious.funcspec import parse_spec
from pretentious.pretension import find_exceptional
table = PrimeTable(10**5)
for text in ("mobius", "prod(char:5:2,nit:1.0)"):
    find_exceptional(parse_spec(text), 10**5, 20, 3, table)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_scan_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, about 13 ms of every CLI
    # process; a fresh process shows whether the scan pulls it in
    src = str(Path(pretentious.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _SCAN_IMPORTS], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


_SCAN_AT_1E8 = """
from pretentious.arith import PrimeTable
from pretentious.funcspec import CharacterSpec, Mobius, Product, Twist
from pretentious.pretension import distance_squared, find_exceptional
x = 10**8
table = PrimeTable(x)
rep = find_exceptional(Mobius(), x, 10, 2.0, table)
q, t = rep.psi.q, rep.t
g = Product((CharacterSpec(q, rep.psi.index), Twist(t)))
direct = distance_squared(Mobius(), g, x, table, r=q).squared_distance
out = dict(entries=len(rep.spectrum), best=rep.psi.serial, t=t,
           gap=abs(rep.squared_distance - direct))
"""


def test_find_exceptional_at_1e8_in_bounded_memory(fresh_process):
    # its own process, whose peak RSS is the scan's: PrimeTable(1e8) is
    # about 160 MB, and the per-conductor direct D^2 that the kernel's
    # values replaced took the scan to about 456 MB, the scan's arrays over
    # all primes of M2's terms and of the cells to 324 MB
    out = fresh_process(_SCAN_AT_1E8)
    assert out["rss_mb"] <= 300
    assert out["entries"] == 10
    assert (out["best"], out["t"]) == ("char:5:2", 0.0)
    assert out["gap"] <= 1e-12
