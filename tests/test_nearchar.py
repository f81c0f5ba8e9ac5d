"""Character recovery from approximate homomorphisms.

The FFT spectrum is checked against per-character dot products; recovery
guarantees are exercised with planted characters under bounded phase noise.
Progression-sum fixtures were measured once and frozen.
"""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretentious.arith import PrimeTable
from pretentious.characters import (
    character_by_index,
    character_row,
    enumerate_characters,
    unit_group,
    unit_group_transform,
)
from pretentious.errors import PreconditionError
from pretentious.funcspec import Mobius, parse_spec
from pretentious.meanvalues import progression_sums
from pretentious.nearchar import (
    ApproxHomomorphism,
    _max_pair_defect,
    character_from_progression_sums,
    fourier_spectrum,
    fourier_transform,
    nearest_character,
    parseval_identity,
)

_CACHE = {}


def _table():
    if "t" not in _CACHE:
        _CACHE["t"] = PrimeTable(2 * 10**4)
    return _CACHE["t"]


def _char_units(q, index):
    chi = character_by_index(q, index)
    row = character_row(chi)[np.asarray(unit_group(q).units)] if q > 1 else np.ones(1)
    return chi, np.asarray(row, dtype=np.complex128)


def _noisy(q, index, deltas):
    # multiplicative phase noise, zero at a = 1; pair defect <= 3 max|delta|
    chi, row = _char_units(q, index)
    G = unit_group(q)
    one = int(np.searchsorted(G.units, 1 % q))
    d = np.array(deltas, dtype=np.float64)
    d[one] = 0.0
    return chi, row * np.exp(1j * d)


# ------------------------------------------------------------- validation


def test_rejects_wrong_base_value():
    with pytest.raises(PreconditionError):
        ApproxHomomorphism.from_values(5, [1.0001, 1, 1, 1])
    with pytest.raises(PreconditionError):
        ApproxHomomorphism.from_values(5, {1: 0.5, 2: 1, 3: 1, 4: 1})


def test_rejects_wrong_shape_and_missing_keys():
    with pytest.raises(PreconditionError):
        ApproxHomomorphism.from_values(5, [1, 1, 1])
    with pytest.raises(PreconditionError):
        ApproxHomomorphism.from_values(5, {1: 1, 2: 1, 3: 1})  # no value at 4


@pytest.mark.parametrize("unit", [1, 2])
def test_rejects_non_finite_values(unit):
    # NaN at unit 1 slips past a plain |g(1) - 1| > tol check
    values = {1: 1, 2: 1, 3: 1, 4: 1}
    values[unit] = math.nan
    with pytest.raises(PreconditionError, match="finite"):
        ApproxHomomorphism.from_values(5, values)
    with pytest.raises(PreconditionError, match="finite"):
        ApproxHomomorphism.from_values(5, list(values.values()))


def test_dict_and_array_agree():
    _, row = _char_units(8, 3)
    ga = ApproxHomomorphism.from_values(8, row)
    gd = ApproxHomomorphism.from_values(8, {int(u): row[i] for i, u in
                                            enumerate(unit_group(8).units)})
    assert np.allclose(ga.values, gd.values)
    assert ga.epsilon == gd.epsilon


def test_value_at():
    _, row = _char_units(5, 2)
    g = ApproxHomomorphism.from_values(5, row)
    assert g.value_at(7) == pytest.approx(row[1])  # 7 == 2 mod 5
    with pytest.raises(PreconditionError):
        g.value_at(10)


def test_epsilon_zero_for_exact_characters():
    for q in (1, 2, 5, 8, 12, 24):
        for idx in range(unit_group(q).phi):
            _, row = _char_units(q, idx)
            g = ApproxHomomorphism.from_values(q, row)
            assert g.epsilon <= 1e-12, (q, idx)


def _max_pair_defect_whole(q, garr):
    """The pair defect as it was computed with the whole phi^2 product-index
    matrix built first and then read in row chunks; kept as the oracle."""
    G = unit_group(q)
    units = np.asarray(G.units)
    prod_index = G.unit_index[np.outer(units, units) % q]
    worst = 0.0
    chunk = max(1, 2**22 // max(len(units), 1))
    for lo in range(0, len(units), chunk):
        hi = min(lo + chunk, len(units))
        block = np.abs(garr[prod_index[lo:hi]] - np.outer(garr[lo:hi], garr))
        worst = max(worst, float(block.max()))
    return worst


@pytest.mark.parametrize("q", [3003, 4745])  # phi = 1440 and 3456
def test_pair_defect_equals_the_whole_matrix(q):
    G = unit_group(q)
    rng = np.random.default_rng(q)
    for spread in (0.0, 0.05, 1.0):
        _, row = _char_units(q, 1)
        g = row * np.exp(1j * rng.uniform(-spread, spread, G.phi))
        g[int(np.searchsorted(G.units, 1))] = 1.0
        assert _max_pair_defect(q, g) == _max_pair_defect_whole(q, g)


def _max_pair_defect_rows(q, garr):
    """The pair defect before it read the exponent grid: every product a b
    reduced mod q and looked up in unit_index, rows a of about 2^16 pairs at
    a time; kept as the oracle."""
    G = unit_group(q)
    units = np.asarray(G.units)
    worst = 0.0
    chunk = max(1, 2**16 // max(len(units), 1))
    for lo in range(0, len(units), chunk):
        hi = min(lo + chunk, len(units))
        prod_index = G.unit_index[np.outer(units[lo:hi], units) % q]
        block = np.abs(garr[prod_index] - np.outer(garr[lo:hi], garr))
        worst = max(worst, float(block.max()))
    return worst


def _random_unit_values(q, seed, spread):
    """A character mod q times noise of the given spread, in modulus and
    phase: spread 0 is the character itself, and spread >= 1 draws moduli
    over [0, 1 + spread), with exact zeros and some values purely real or
    purely imaginary.  A small spread puts the defect in the last bits of
    the products, where two numpy loops can round one product apart."""
    rng = np.random.default_rng(seed)
    phi = unit_group(q).phi
    _, g = _char_units(q, int(rng.integers(phi)))
    g = g * rng.uniform(1 - spread, 1 + spread, phi) * np.exp(1j * rng.uniform(-spread, spread, phi))
    if spread >= 1:
        g[rng.random(phi) < 0.1] = 0.0
        g[rng.random(phi) < 0.1] = rng.standard_normal()
        g[rng.random(phi) < 0.1] = 1j * rng.standard_normal()
    return g


@settings(max_examples=40, deadline=None)
@given(q=st.integers(min_value=1, max_value=600), seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([0.0, 1e-12, 1e-3, 0.2, 2.0]))
def test_pair_defect_equals_the_row_oracle_on_random_moduli(q, seed, spread):
    g = _random_unit_values(q, seed, spread)
    assert _max_pair_defect(q, g) == _max_pair_defect_rows(q, g)


# groups of 0 (1, 2) to 6 (9240) axes; 16 and 4096 split as {-1} x <5>
@pytest.mark.parametrize("q", [1, 2, 4, 8, 16, 24, 360, 1155, 4080, 4096, 9240])
def test_pair_defect_equals_the_row_oracle(q):
    for seed, spread in enumerate([0.0, 1e-12, 1e-3, 0.2, 2.0]):
        g = _random_unit_values(q, seed, spread)
        assert _max_pair_defect(q, g) == _max_pair_defect_rows(q, g), (q, spread)


def test_from_values_at_phi_9972_stays_a_few_mb(fresh_process):
    # 10^8 unit pairs mod 9973: their product-index matrix alone would be
    # 800 MB; the process itself takes about 31 MB before the call
    out = fresh_process("""
import numpy as np
from pretentious.characters import unit_group
from pretentious.nearchar import ApproxHomomorphism
G = unit_group(9973)
g = np.exp(1e-3j * np.arange(G.phi) ** 0.5)
g[int(np.searchsorted(G.units, 1))] = 1.0
out = {"epsilon": ApproxHomomorphism.from_values(9973, g).epsilon}
""")
    assert 0.0 < out["epsilon"] < 0.5
    assert out["rss_mb"] <= 40


def test_pair_defect_memory_stays_a_few_rows():
    # the whole 1440^2 product-index matrix alone is 16.6 MB, and building it
    # traced 79 MB; row chunks of about 2^16 pairs hold a few MB
    q = 3003
    g = np.ones(unit_group(q).phi, dtype=np.complex128)
    _max_pair_defect(q, g)  # warm the unit-group cache
    tracemalloc.start()
    try:
        _max_pair_defect(q, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 10**6


# ---------------------------------------------------------------- fourier


def test_spectrum_matches_per_character_transform():
    rng = random.Random(11)
    for q in (3, 5, 8, 12, 15, 16, 24):
        G = unit_group(q)
        vals = np.exp(1j * np.array([rng.uniform(-0.08, 0.08) for _ in range(G.phi)]))
        one = int(np.searchsorted(G.units, 1 % q))
        vals[one] = 1.0
        g = ApproxHomomorphism.from_values(q, vals)
        spec = fourier_spectrum(g)
        assert spec.shape == (G.phi,)
        for idx in range(G.phi):
            direct = fourier_transform(g, character_by_index(q, idx))
            assert spec[idx] == pytest.approx(direct, abs=1e-9), (q, idx)


def _unit_values(q: int, seed: int) -> ApproxHomomorphism:
    rng = np.random.default_rng(seed)
    G = unit_group(q)
    vals = rng.standard_normal(G.phi) + 1j * rng.standard_normal(G.phi)
    vals[int(np.searchsorted(G.units, 1 % q))] = 1.0
    return ApproxHomomorphism.from_values(q, vals)


def _assert_transform_matches_per_character(q: int, seed: int) -> None:
    g = _unit_values(q, seed)
    spec = unit_group_transform(g.values, q)
    assert spec.shape == (unit_group(q).phi,)
    for chi in enumerate_characters(q):
        assert spec[chi.index] == pytest.approx(fourier_transform(g, chi), abs=1e-9), (q, chi.index)


@pytest.mark.parametrize("q", [1, 2, 8, 16, 30, 385])
def test_unit_group_transform_matches_per_character(q):
    _assert_transform_matches_per_character(q, seed=q)


@settings(max_examples=8, deadline=None)
@given(q=st.integers(min_value=1, max_value=500), seed=st.integers(0, 10**6))
def test_unit_group_transform_random_moduli(q, seed):
    _assert_transform_matches_per_character(q, seed)


def _grid_positions(G):
    """The grid position of each of G.units, exponents @ radix, with the
    exponent tuples from this oracle's own walk of the generator powers."""
    q = G.q
    dlog = {1 % q: ()}
    for g, d in zip(G.generators, G.orders):
        dlog = {u * pow(g, j, q) % q: t + (j,) for u, t in dlog.items() for j in range(d)}
    k = len(G.orders)
    exponents = np.array([dlog[int(u)] for u in G.units], dtype=np.int64).reshape(G.phi, k)
    radix = np.array([math.prod(G.orders[i + 1:]) for i in range(k)], dtype=np.int64)
    return exponents @ radix


def _unit_group_transform_1d(values, q):
    """The transform before it took leading batch axes, kept as the oracle."""
    G = unit_group(q)
    grid = np.zeros(G.orders, dtype=np.complex128)
    grid.reshape(-1)[_grid_positions(G)] = values
    return np.fft.fftn(grid).reshape(-1)


def _scatter_transform(values, q):
    """The transform before it gathered in grid order: a zero-filled grid,
    the values scattered to their grid positions, one fftn over the grid
    axes; kept as the oracle."""
    G = unit_group(q)
    lead = np.shape(values)[:-1]
    grid = np.zeros(lead + G.orders, dtype=np.result_type(values, np.complex128))
    grid.reshape(lead + (G.phi,))[..., _grid_positions(G)] = values
    axes = tuple(range(len(lead), grid.ndim))
    return np.fft.fftn(grid, s=G.orders, axes=axes).reshape(lead + (G.phi,))


def _value_bytes(a):
    """a.tobytes() without the padding of an x87 long double, which holds
    its value in 10 of its 16 bytes and leaves the rest as memory held."""
    if a.dtype != np.clongdouble or np.finfo(np.longdouble).nmant != 63:
        return a.tobytes()
    size = np.dtype(np.longdouble).itemsize
    return np.frombuffer(a.tobytes(), np.uint8).reshape(-1, size)[:, :10].tobytes()


def _typed_values(rng, shape):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (rng.random(shape) < 0.5, rng.integers(-10**6, 10**6, shape),
            rng.standard_normal(shape), z, z.astype(np.clongdouble) / 3)


# groups of 0 (1, 2), 1 (4, 997), 2 (8, 15), 3 (24, 105) and 4 (120, 3003) axes
@pytest.mark.parametrize("q", [1, 2, 4, 997, 8, 15, 24, 105, 120, 3003])
def test_unit_group_transform_equals_the_scatter_oracle(q):
    rng = np.random.default_rng(q)
    phi = unit_group(q).phi
    for lead in [(), (3,), (9, 5)]:
        for values in _typed_values(rng, lead + (phi,)):
            got = unit_group_transform(values, q)
            want = _scatter_transform(values, q)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (q, lead, values.dtype)
            assert _value_bytes(got) == _value_bytes(want), (q, lead, values.dtype)
            assert not np.shares_memory(got, values)


@pytest.mark.parametrize("q", [1, 2, 5, 8, 16, 30, 385, 997])
def test_unit_group_transform_batched_rows(q):
    # leading axes are transformed row by row; a 1-D call is byte-identical
    # to the oracle for boolean (factors_through), real and complex inputs
    rng = np.random.default_rng(q)
    phi = unit_group(q).phi
    batch = rng.standard_normal((3, 4, phi)) + 1j * rng.standard_normal((3, 4, phi))
    got = unit_group_transform(batch, q)
    assert got.shape == (3, 4, phi)
    for i in range(3):
        for j in range(4):
            row = unit_group_transform(batch[i, j], q)
            assert np.max(np.abs(got[i, j] - row), initial=0.0) <= 1e-13
            assert row.tobytes() == _unit_group_transform_1d(batch[i, j], q).tobytes()
    for values in (rng.random(phi) < 0.5, rng.standard_normal(phi)):
        assert (unit_group_transform(values, q).tobytes()
                == _unit_group_transform_1d(values, q).tobytes())


def test_transform_requires_matching_modulus():
    _, row = _char_units(5, 1)
    g = ApproxHomomorphism.from_values(5, row)
    with pytest.raises(PreconditionError):
        fourier_transform(g, character_by_index(7, 1))


def test_spectrum_of_character_is_delta():
    # ghat(chi) = phi(q) at the planted character, 0 elsewhere
    q = 12
    phi = unit_group(q).phi
    for idx in range(phi):
        _, row = _char_units(q, idx)
        g = ApproxHomomorphism.from_values(q, row)
        spec = fourier_spectrum(g)
        assert spec[idx] == pytest.approx(phi, abs=1e-9)
        others = np.delete(np.abs(spec), idx)
        assert others.max() < 1e-9


def test_parseval():
    rng = random.Random(12)
    for q in (5, 9, 16, 21, 40):
        G = unit_group(q)
        vals = np.exp(1j * np.array([rng.uniform(-0.09, 0.09) for _ in range(G.phi)]))
        vals[int(np.searchsorted(G.units, 1 % q))] = 1.0
        g = ApproxHomomorphism.from_values(q, vals)
        lhs, rhs = parseval_identity(g)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_fourier_inversion():
    q = 15
    G = unit_group(q)
    rng = random.Random(13)
    vals = np.exp(1j * np.array([rng.uniform(-0.05, 0.05) for _ in range(G.phi)]))
    vals[int(np.searchsorted(G.units, 1 % q))] = 1.0
    g = ApproxHomomorphism.from_values(q, vals)
    spec = fourier_spectrum(g)
    rows = np.stack([character_row(character_by_index(q, i))[np.asarray(G.units)]
                     for i in range(G.phi)])
    recon = (spec[:, None] * rows).sum(axis=0) / G.phi
    assert np.allclose(recon, vals, atol=1e-9)


# --------------------------------------------------------------- recovery


def test_recover_exact():
    for q in (3, 8, 20):
        for idx in range(unit_group(q).phi):
            chi, row = _char_units(q, idx)
            res = nearest_character(ApproxHomomorphism.from_values(q, row))
            assert res.chi == chi
            assert res.max_deviation <= 1e-12
            assert res.fourier_mass == pytest.approx(unit_group(q).phi, abs=1e-9)


def test_recover_planted_under_noise():
    rng = random.Random(20240818)
    for _ in range(25):
        q = rng.randrange(3, 51)
        phi = unit_group(q).phi
        idx = rng.randrange(phi)
        deltas = [rng.uniform(-0.1, 0.1) for _ in range(phi)]
        chi, vals = _noisy(q, idx, deltas)
        g = ApproxHomomorphism.from_values(q, vals)
        assert g.epsilon <= 0.3 + 1e-12
        res = nearest_character(g)
        assert res.chi == chi, (q, idx, g.epsilon)
        assert res.max_deviation <= res.uniform_bound + 1e-9
        assert res.fourier_mass >= res.mass_floor - 1e-9
        assert res.uniform_bound == pytest.approx(g.epsilon / (1 - 2 * g.epsilon))


def test_refuses_midpoint_of_two_characters():
    # (chi0 + chi1)/2 mod 5 sits exactly between: defect reaches 1.0
    _, r0 = _char_units(5, 0)
    _, r1 = _char_units(5, 1)
    g = ApproxHomomorphism.from_values(5, (r0 + r1) / 2)
    assert g.epsilon == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PreconditionError):
        nearest_character(g)


def test_refusal_threshold_is_half():
    # scale the phase noise on one unit until the defect crosses 1/2
    _, row = _char_units(5, 1)
    vals = row.copy()
    vals[3] *= cmath.exp(1.2j)  # |e^{i 1.2} - 1| = 2 sin 0.6 > 1/2
    g = ApproxHomomorphism.from_values(5, vals)
    assert g.epsilon >= 0.5
    with pytest.raises(PreconditionError):
        nearest_character(g)


def test_q_one_trivial_recovery():
    g = ApproxHomomorphism.from_values(1, [1.0])
    res = nearest_character(g)
    assert res.chi.q == 1
    assert res.epsilon == 0.0
    assert res.fourier_mass == pytest.approx(1.0)


# -------------------------------------------------- from progression sums


def test_progression_recovery_exact_character():
    pt = progression_sums(parse_spec("char:5:2"), 10**4, 5, _table())
    att = character_from_progression_sums(pt)
    assert att.reason is None
    assert att.epsilon <= 1e-12
    assert att.result.chi == character_by_index(5, 2)
    assert att.result.max_deviation == 0.0


def test_progression_recovery_zero_base():
    # mu(1) + mu(4) + mu(7) = 0: ratios undefined, attempt explains itself
    pt = progression_sums(Mobius(), 7, 3, _table())
    assert pt.sums[1] == 0.0
    att = character_from_progression_sums(pt)
    assert att.result is None and att.epsilon is None
    assert "ratios undefined" in att.reason


def test_progression_recovery_mobius_refuses(table_large):
    # progression ratios of mu are nowhere near a homomorphism at this scale
    pt = progression_sums(Mobius(), 10**7, 4, table_large)
    assert pt.sums.tolist() == [0.0, 459.0, 468.0, 110.0]
    att = character_from_progression_sums(pt)
    assert att.result is None
    assert att.epsilon == pytest.approx(0.9425671987507179, rel=1e-12)
    assert "no character is identifiable" in att.reason


def test_progression_recovery_twisted_character():
    # f = chi * small twist: ratios stay within the recoverable band
    pt = progression_sums(parse_spec("char:8:3"), 10**4, 8, _table())
    att = character_from_progression_sums(pt)
    assert att.result is not None
    assert att.result.chi == character_by_index(8, 3)
