"""Dirichlet character tests.

The dual-group oracle: a list of phi(q) pairwise-distinct functions on units
that are exactly multiplicative and satisfy both exact orthogonality
relations must be THE character group mod q. Everything else (conductor,
induction, primitivity) is checked against independent brute force.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretentious.arith import PrimeTable
from pretentious.characters import (
    MAX_MODULUS,
    DirichletCharacter,
    UnitGroupStructure,
    character_by_index,
    character_column,
    character_row,
    conductor,
    divisors,
    enumerate_characters,
    factors_through,
    induce,
    is_primitive,
    primitive_mask,
    primitive_part,
    unit_group,
)
from pretentious.errors import PreconditionError
from pretentious.funcspec import CharacterSpec, Mobius, One, Twist, prime_values
from pretentious.nearchar import (
    ApproxHomomorphism,
    _max_pair_defect,
    fourier_transform,
    nearest_character,
)
from pretentious.pretension import (
    TwistObjective,
    _PrimeData,
    distance_squared,
)
from pretentious.sieve_experiments import transfer_check

MODULI = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 24, 36, 40, 60]


@pytest.mark.parametrize("q", MODULI)
def test_group_size_and_units(q):
    G = unit_group(q)
    expected_phi = sum(1 for u in range(1, q + 1) if math.gcd(u, q) == 1)
    assert G.phi == expected_phi
    assert len(G.units) == expected_phi
    assert len(enumerate_characters(q)) == expected_phi


@pytest.mark.parametrize("q", MODULI)
def test_exact_multiplicativity(q):
    chars = enumerate_characters(q)
    units = [u for u in range(1, q + 1) if math.gcd(u, q) == 1]
    if q == 1:
        units = [1]
    for chi in chars:
        for a in units:
            for b in units:
                lhs = chi.angle(a * b)
                rhs = (chi.angle(a) + chi.angle(b)) % 1
                assert lhs == rhs  # exact Fraction arithmetic


@pytest.mark.parametrize("q", MODULI)
def test_pairwise_distinct(q):
    chars = enumerate_characters(q)
    units = [u for u in range(1, q + 1) if math.gcd(u, q) == 1] or [1]
    seen = set()
    for chi in chars:
        key = tuple(chi.angle(u) for u in units)
        assert key not in seen
        seen.add(key)


def _dict_walk(G) -> dict:
    """oracle: the unit-group tables from a Python dict walk of the cyclic
    components on G's generators, the construction the grid walk replaced."""
    q = G.q
    dlog = {1 % q: ()}
    for g, d in zip(G.generators, G.orders):
        nxt = {}
        gp = 1
        for j in range(d):
            for u, t in dlog.items():
                nxt[(u * gp) % q] = t + (j,)
            gp = (gp * g) % q
        dlog = nxt
    units = np.array(sorted(dlog), dtype=np.int64)
    unit_index = np.full(max(q, 1), -1, dtype=np.int64)
    unit_index[units] = np.arange(len(units))
    k = len(G.orders)
    exponents = np.array([dlog[int(u)] for u in units], dtype=np.int64).reshape(len(units), k)
    radix = np.array([math.prod(G.orders[i + 1:]) for i in range(k)], dtype=np.int64)
    grid_order = np.empty(len(units), dtype=np.int64)
    grid_order[exponents @ radix] = np.arange(len(units))
    return dict(phi=len(dlog), units=units, unit_index=unit_index, exponents=exponents,
                grid_order=grid_order)


@pytest.mark.parametrize("qs", [range(1, 2001), (4096, 7560, 8192, 9240, 9973, 10000)],
                         ids=["q<=2000", "large"])
def test_grid_walk_matches_dict_walk(qs):
    for q in qs:
        G = UnitGroupStructure(q)  # uncached: 2000 groups stay out of unit_group's cache
        want = _dict_walk(G)
        assert G.phi == want.pop("phi") and type(G.phi) is int, q
        assert {k for k, v in vars(G).items() if isinstance(v, np.ndarray)} == set(want), q
        for name, table in want.items():
            got = getattr(G, name)
            assert got.dtype == table.dtype and got.shape == table.shape, (q, name)
            assert np.array_equal(got, table), (q, name)


def test_unit_group_cache_is_bounded(fresh_process):
    # the tables of every modulus <= 10^4 hold 1.3 GB, and a scan of bad
    # moduli at R = 10^4 builds them all
    out = fresh_process("""
from pretentious.characters import MAX_MODULUS, unit_group
out = {"phi_sum": sum(unit_group(r).phi for r in range(1, MAX_MODULUS + 1))}
""")
    assert out["phi_sum"] == 30397486
    assert out["rss_mb"] <= 500


# Test-only oracles: both orthogonality relations, exactly, from exponent
# tuples.
def orthogonality_row_sum(q: int, a: int, b: int) -> int:
    """sum over chi mod q of chi(a)*conj(chi(b)), exactly.

    Componentwise each factor is a full geometric sum of d-th roots of
    unity, which is d when the exponent difference vanishes and 0 else, so
    the whole sum is an integer computed without floats.
    """
    G = unit_group(q)
    ia = G.unit_index[a % q]
    ib = G.unit_index[b % q]
    if ia < 0 or ib < 0:
        raise PreconditionError("orthogonality_row_sum needs units a, b")
    out = 1
    for x, y, d in zip(G.exponents[ia].tolist(), G.exponents[ib].tolist(), G.orders):
        if (x - y) % d != 0:
            return 0
        out *= d
    return out


def orthogonality_column_sum(chi: DirichletCharacter, rho: DirichletCharacter) -> int:
    """sum over units a mod q of chi(a)*conj(rho(a)), exactly."""
    if chi.q != rho.q:
        raise PreconditionError("column orthogonality needs a common modulus")
    G = unit_group(chi.q)
    out = 1
    for e, f, d in zip(chi.exponents, rho.exponents, G.orders):
        if (e - f) % d != 0:
            return 0
        out *= d
    return out


def test_orthogonality_exact_all_q_up_to_60():
    for q in range(1, 61):
        G = unit_group(q)
        units = [u for u in range(1, q + 1) if math.gcd(u, q) == 1] or [1]
        for a in units:
            for b in units:
                s = orthogonality_row_sum(q, a, b)
                expected = G.phi if (a - b) % q == 0 else 0
                assert s == expected, (q, a, b)
        chars = enumerate_characters(q)
        for c1 in chars:
            for c2 in chars:
                s = orthogonality_column_sum(c1, c2)
                assert s == (G.phi if c1 == c2 else 0)


def test_principal_character_first():
    for q in MODULI:
        chars = enumerate_characters(q)
        assert chars[0].is_principal()
        assert all(not c.is_principal() for c in chars[1:])


def test_canonical_index_round_trip():
    for q in MODULI:
        for i, chi in enumerate(enumerate_characters(q)):
            assert chi.index == i
            assert character_by_index(q, i) == chi
            assert chi.serial == f"char:{q}:{i}"


def test_character_values_unit_circle():
    for q in (5, 8, 12, 24):
        for chi in enumerate_characters(q):
            for n in range(1, q + 1):
                v = chi(n)
                if math.gcd(n, q) == 1:
                    assert abs(abs(v) - 1) < 1e-12
                else:
                    assert v == 0


def test_character_row_layout():
    for q in (3, 8, 15):
        for chi in enumerate_characters(q):
            row = character_row(chi)
            assert row.shape == (q,)
            for n in range(q):
                assert row[n] == pytest.approx(chi(n), abs=1e-12)
            with pytest.raises(ValueError):
                row[0] = 5  # rows are shared; must be frozen


def _character_row_loop(chi):
    # oracle: the per-unit loop that character_row replaced
    q = chi.q
    row = np.zeros(max(q, 1), dtype=np.complex128)
    for u in unit_group(q).units:
        row[int(u)] = chi(int(u))
    if q == 1:
        row[0] = 1.0
    return row


def test_character_row_byte_identical_to_unit_loop():
    for q in range(1, 301):
        for chi in enumerate_characters(q):
            assert character_row(chi).tobytes() == _character_row_loop(chi).tobytes(), chi


# the moduli q <= 1000 with phi(q) = 240 and three cyclic factors, whose
# characters the progression benchmark decomposes
PHI_240_MODULI = [385, 429, 465, 488, 495, 496, 525, 572, 620, 700, 732, 770, 858, 900, 930, 990]


def test_character_column_equals_every_character_at_a():
    assert PHI_240_MODULI == [q for q in range(3, 1001) if unit_group(q).phi == 240
                              and len(unit_group(q).orders) == 3]
    for q in [*range(1, 201), *PHI_240_MODULI]:
        chars = enumerate_characters(q)
        for a in unit_group(q).units.tolist():
            col = character_column(q, a)
            assert col.dtype == np.complex128
            assert col.tolist() == [chi(a) for chi in chars], (q, a)


def test_character_column_is_zero_off_the_units():
    for q in (2, 12, 30, 97):
        for a in (n for n in range(q + 3) if math.gcd(n, q) != 1):
            assert character_column(q, a).tolist() == [0j] * unit_group(q).phi, (q, a)


def test_real_characters_are_exactly_signs():
    for q in (5, 8, 12, 40, 97, 105):
        for chi in (c for c in enumerate_characters(q) if c.is_real()):
            row = character_row(chi)
            assert set(row[np.asarray(unit_group(q).units)].tolist()) <= {1 + 0j, -1 + 0j}
            assert not np.any(row.imag)


def test_angles_are_exact_fractions():
    chi = character_by_index(5, 1)
    assert chi.angle(2) in (Fraction(1, 4), Fraction(3, 4))
    assert chi.angle(4) == Fraction(1, 2)
    assert chi.angle(1) == 0
    assert chi.angle(5) is None


def test_orders_and_reality():
    # mod 5: one principal, one order-2, two order-4
    orders = sorted(c.order() for c in enumerate_characters(5))
    assert orders == [1, 2, 4, 4]
    assert sum(c.is_real() for c in enumerate_characters(5)) == 2
    # mod 8: all four characters are real
    assert all(c.is_real() for c in enumerate_characters(8))


def test_conjugate():
    for q in (5, 7, 9):
        for chi in enumerate_characters(q):
            conj = chi.conjugate()
            for n in range(1, q):
                if math.gcd(n, q) == 1:
                    assert conj(n) == pytest.approx(np.conj(chi(n)), abs=1e-12)


# --------------------------------------------------- conductor machinery


def _conductor_brute(chi: DirichletCharacter) -> int:
    # least d | q such that chi is trivial on units u = 1 (mod d)
    q = chi.q
    for d in divisors(q):
        ok = True
        for u in range(1, q + 1):
            if math.gcd(u, q) == 1 and u % d == 1 % d and chi.angle(u) != 0:
                ok = False
                break
        if ok:
            return d
    return q


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 9, 12, 15, 16, 24, 45, 60])
def test_conductor_matches_brute_force(q):
    for chi in enumerate_characters(q):
        assert conductor(chi) == _conductor_brute(chi)


def test_mask_and_conductor_match_brute_force_all_q_up_to_120():
    for q in range(1, 121):
        mask = primitive_mask(q)
        for chi in enumerate_characters(q):
            d = _conductor_brute(chi)
            assert conductor(chi) == d, (q, chi.index)
            assert mask[chi.index] == (d == q), (q, chi.index)
            for e in divisors(q):
                # chi factors through e exactly when its conductor divides e
                assert factors_through(q, e)[chi.index] == (e % d == 0), (q, chi.index, e)


def test_primitivity_definition():
    for q in MODULI:
        for chi in enumerate_characters(q):
            assert is_primitive(chi) == (conductor(chi) == q)


def test_no_primitive_characters_mod_2_times_odd():
    # moduli = 2 (mod 4) admit none: (Z/2)* is trivial
    for q in (2, 6, 10, 14, 30):
        assert not any(is_primitive(c) for c in enumerate_characters(q))


def test_induce_round_trip():
    for r in range(1, 25):
        for psi in enumerate_characters(r):
            if not is_primitive(psi):
                continue
            for mult in (1, 2, 3, 4, 6):
                q = r * mult
                if q > 100:
                    continue
                chi = induce(psi, q)
                assert chi.q == q
                assert conductor(chi) == r
                assert primitive_part(chi) == psi
                # induced values agree with psi on units of q
                for n in range(1, q + 1):
                    if math.gcd(n, q) == 1:
                        assert chi(n) == pytest.approx(psi(n), abs=1e-12)


def test_primitive_part_induces_back_to_chi():
    # the lift direction of carrying a character, at every conductor
    for q in range(1, 121):
        for chi in enumerate_characters(q):
            assert induce(primitive_part(chi), q) == chi, (q, chi.index)


def test_induce_requires_divisibility():
    psi = character_by_index(5, 1)
    with pytest.raises(PreconditionError):
        induce(psi, 12)  # 5 does not divide 12


def test_modulus_cap():
    with pytest.raises(PreconditionError):
        unit_group(MAX_MODULUS + 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 48), st.integers(0, 10**6), st.integers(1, 200), st.integers(1, 200))
def test_character_homomorphism_random(q, idx, m, n):
    chars = enumerate_characters(q)
    chi = chars[idx % len(chars)]
    vm, vn, vmn = chi(m), chi(n), chi(m * n)
    assert vmn == pytest.approx(vm * vn, abs=1e-9)



@pytest.fixture(scope="module")
def mod1():
    """Everything the modulus-1 cases share; the unit group mod 1 is {0}."""
    return SimpleNamespace(table=PrimeTable(10**4), chi=DirichletCharacter(1, ()),
                           g=ApproxHomomorphism.from_values(1, [1.0]))


def _q1_twist_objective(c):
    got = TwistObjective(_PrimeData(Mobius(), 10**4, c.table), c.chi)(0.7)
    ref = distance_squared(Mobius(), Twist(0.7), 10**4, c.table).squared_distance
    return got == pytest.approx(ref, abs=1e-12)


def _q1_included_primes(c):
    # modulus 1 excludes no prime from the distance
    d = distance_squared(Mobius(), Mobius(), 10**4, c.table, r=1)
    return d.prime_count == len(c.table.primes_upto(10**4))


def _q1_character_spec(c):
    spec = CharacterSpec(1, 0)
    powers = [spec.prime_power_value(p, k) for p, k in ((2, 1), (3, 2), (7, 5))]
    return powers == [1, 1, 1] and np.all(prime_values(spec, c.table.primes_upto(100), c.table) == 1)


def _q1_angle(c):
    return [c.chi.angle(n) for n in range(6)] == [0] * 6


def _q1_orthogonality_row_sum(c):
    return [orthogonality_row_sum(1, a, b) for a, b in ((0, 0), (1, 0), (5, 3))] == [1, 1, 1]


def _q1_value_at(c):
    return [c.g.value_at(a) for a in range(5)] == [1] * 5


def _q1_max_pair_defect(c):
    return _max_pair_defect(1, c.g.values) == 0.0


def _q1_fourier_transform(c):
    return fourier_transform(c.g, c.chi) == 1


def _q1_nearest_character(c):
    res = nearest_character(c.g)
    return res.chi == c.chi and res.max_deviation == 0.0


def _q1_transfer_check(c):
    tc = transfer_check(One(), 10**4, 1, 1, 1, 0.5, c.table)
    return tc.lhs == tc.rhs == 10**4


@pytest.mark.parametrize("check", [
    _q1_twist_objective, _q1_included_primes, _q1_character_spec,
    _q1_angle, _q1_orthogonality_row_sum, _q1_value_at, _q1_max_pair_defect,
    _q1_fourier_transform, _q1_nearest_character, _q1_transfer_check,
], ids=lambda fn: fn.__name__[4:])
def test_modulus_one_needs_no_special_case(mod1, check):
    # the mod-1 group has units == [0], unit_index == [0] and character_row
    # == [1+0j], so every modulus-1 call runs the general code
    assert check(mod1)
