"""Sieve-side experiments: primitive masses, bad moduli, transfer, Legendre scans.

The mass pipeline (reshape-and-sum class sums + unit-group DFT) is checked
against a direct character-enumeration oracle, the class sums against
the bincount code they replaced and the strided slices of progression_sums,
and bad_moduli's folded class sums against the per-r loop they replaced.
Numeric fixtures were measured once on verified code and frozen as
regressions.
"""

import math
import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pretentious.arith import PrimeTable, divisors
from pretentious.meanvalues import SLAB_ROWS, SLAB_WIDTH
from pretentious.characters import (
    enumerate_characters,
    is_primitive,
    primitive_mask,
    unit_group,
    unit_group_transform,
)
from pretentious.errors import PreconditionError
from pretentious.funcspec import Mobius, One, _legendre_row, parse_spec, values_upto
from pretentious import sieve_experiments
from pretentious.sieve_experiments import (
    _class_sums,
    _class_values,
    _mass_from_classes,
    bad_moduli,
    legendre_progression_experiment,
    multiplicativity_defect,
    primitive_mass,
    transfer_check,
)

_CACHE = {}


def _table():
    if "t" not in _CACHE:
        _CACHE["t"] = PrimeTable(2 * 10**4)
    return _CACHE["t"]


def _mass_oracle(cv: np.ndarray, r: int) -> float:
    # direct enumeration, no FFT: sum over primitive psi mod r of |sum f(nq+a) psi(n)|
    total = 0.0
    ns = np.arange(1, len(cv) + 1) % r
    for psi in enumerate_characters(r):
        if not is_primitive(psi):
            continue
        row = np.array([complex(psi(int(v))) for v in range(r)])
        total += abs(np.sum(cv * row[ns]))
    return total


def _class_sums_bincount(v: np.ndarray, r: int, start: int) -> np.ndarray:
    # oracle: the bincount class sums that _class_sums replaced in bad_moduli
    ns = (np.arange(len(v), dtype=np.int64) + start) % r
    if np.iscomplexobj(v):
        return (np.bincount(ns, weights=v.real, minlength=r)
                + 1j * np.bincount(ns, weights=v.imag, minlength=r))
    return np.bincount(ns, weights=v, minlength=r)


def _class_sums_strided(v: np.ndarray, r: int) -> np.ndarray:
    # the per-class slice sums of progression_sums (v[i] is the value at n = i)
    return np.array([v[b::r].sum() for b in range(r)])


# ------------------------------------------------------------ class sums


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=3000),
    r=st.integers(min_value=2, max_value=400),
    start=st.integers(min_value=0, max_value=10**6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_class_sums_bit_identical_to_bincount(n, r, start, seed):
    # n < r leaves no whole row: only the tail is summed.  r = 1 (a plain
    # pairwise np.sum, never scanned by bad_moduli) is left to the next test.
    rng = np.random.default_rng(seed)
    real = rng.standard_normal(n)
    cplx = real + 1j * rng.standard_normal(n)
    for v in (real, cplx):
        got = _class_sums(v, r, start)
        want = _class_sums_bincount(v, r, start)
        assert got.shape == (r,)
        assert got.astype(want.dtype).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5000),
    r=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_class_sums_match_strided_slices(n, r, seed):
    rng = np.random.default_rng(seed)
    signs = rng.integers(-1, 2, n).astype(np.int8)
    got = _class_sums(signs, r, 0)
    assert got.dtype == np.int64
    assert got.tolist() == _class_sums_strided(signs, r).tolist()
    unimodular = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    np.testing.assert_allclose(
        _class_sums(unimodular, r, 0), _class_sums_strided(unimodular, r), rtol=0, atol=1e-9
    )


def _int8_class_sums_oracle(v: np.ndarray, r: int, start: int) -> np.ndarray:
    # exact int64 counts of +1 and -1 per class
    ns = (np.arange(len(v), dtype=np.int64) + start) % r
    return np.bincount(ns[v == 1], minlength=r) - np.bincount(ns[v == -1], minlength=r)


@settings(max_examples=80, deadline=None)
@given(
    r=st.sampled_from([1, 2, 3, 126, 127, 128, 1000]),
    slabs=st.integers(min_value=0, max_value=3),
    shift=st.integers(min_value=-300, max_value=300),
    start=st.integers(min_value=0, max_value=10**6),
    constant=st.sampled_from([None, 1, -1]),
    with_acc=st.booleans(),
    strided=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_int8_class_sums_equal_int64_counts(r, slabs, shift, start, constant, with_acc,
                                            strided, seed):
    # lengths on both sides of whole slabs of SLAB_ROWS rows, of r values
    # and of the widened rows of w values the kernel sums in int8; constant
    # signs fill every slab to its int8 limit
    rng = np.random.default_rng(seed)
    w = r * -(-SLAB_WIDTH // r)
    for n in {max(0, slabs * SLAB_ROWS * r + shift), max(0, slabs * SLAB_ROWS * w + shift)}:
        if constant is None:
            buf = rng.integers(-1, 2, 2 * n).astype(np.int8)
        else:
            buf = np.full(2 * n, constant, dtype=np.int8)
        v = buf[1::2] if strided else buf[:n]
        acc = rng.integers(-10**12, 10**12, r) if with_acc else None
        got = _class_sums(v, r, start, acc)
        want = _int8_class_sums_oracle(v, r, start)
        if with_acc:
            want = acc + want
        assert got.dtype == np.int64
        assert (got == want).all(), (r, n, start)


def test_int8_class_sums_for_small_r_not_slower_than_a_plain_reduce():
    # the reduce of an (N / r, r) view that the int8 sums replaced runs along
    # rows of r values; the widened rows keep small r fast
    v = np.random.default_rng(3).integers(-1, 2, 1 << 20).astype(np.int8)

    def best(fn):
        times = []
        for _ in range(5):
            t = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t)
        return min(times)

    for r in range(2, 9):
        u = v[: len(v) // r * r]
        assert best(lambda: _class_sums(u, r, 0)) <= best(lambda: u.reshape(-1, r).sum(axis=0))


def test_class_sums_do_not_copy_the_input():
    # a padded or reshaped copy of the 16 MB input would dominate the peak;
    # the strided view is how _class_values hands f(nq + a) over
    v = np.exp(1j * np.arange(10**6 + 3, dtype=np.float64))
    for view in (v[1:], v[2::3]):
        tracemalloc.start()
        try:
            c = _class_sums(view, 997, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        np.testing.assert_allclose(c, _class_sums_bincount(view, 997, 1), rtol=0, atol=1e-9)


# -------------------------------------------------------- primitive mass


def test_primitive_mass_widens_int8_beyond_signs():
    # the int8 class sums are exact only for -1, 0 and 1; the public entry
    # sums any other int8 values in int64
    v = np.random.default_rng(8).integers(-1, 2, 50_000).astype(np.int8)
    v[::7] = 5
    v[3::11] = -100
    for r in (2, 3, 12, 30, 97, 256):
        assert primitive_mass(v, r) == primitive_mass(v.astype(np.int64), r)


def test_class_values_are_only_read(table_medium):
    # progression_sums adds its running sums into each fresh block in
    # place; the class values the scan and primitive_mass are handed are not
    # theirs, so they are frozen here and any write would raise
    def frozen_class_values(*args):
        cv = _class_values(*args)
        cv.flags.writeable = False
        return cv

    for text in ("mobius", "prod(char:5:2,nit:1.0)"):
        f = parse_spec(text)
        want = bad_moduli(f, 10**5, 3, 1, 0.5, table_medium)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve_experiments, "_class_values", frozen_class_values)
            assert bad_moduli(f, 10**5, 3, 1, 0.5, table_medium) == want
        cv = frozen_class_values(f, 10**5, 3, 1, table_medium)
        assert primitive_mass(cv, 30) == primitive_mass(cv.copy(), 30)


def test_mass_matches_enumeration_oracle():
    rng = random.Random(5)
    for r in (2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 21):
        cv = np.array([rng.choice([-1.0, 0.0, 1.0]) for _ in range(500)])
        assert primitive_mass(cv, r) == pytest.approx(_mass_oracle(cv, r), abs=1e-8)


def test_mass_complex_values():
    rng = random.Random(6)
    cv = np.exp(1j * np.array([rng.uniform(0, 2 * math.pi) for _ in range(300)]))
    for r in (5, 7, 8, 12):
        assert primitive_mass(cv, r) == pytest.approx(_mass_oracle(cv, r), abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_mass_oracle_property(r, seed):
    rng = random.Random(seed)
    cv = np.array([rng.uniform(-1, 1) for _ in range(120)])
    assert primitive_mass(cv, r) == pytest.approx(_mass_oracle(cv, r), abs=1e-8)


def test_mass_single_character_extraction():
    # cv = psi(n) for primitive psi: the psi term contributes N, every other
    # primitive character contributes 0 by orthogonality over full periods
    r = 7
    psi = [c for c in enumerate_characters(r) if is_primitive(c)][0]
    N = 7 * 40
    cv = np.array([complex(psi(n)) for n in range(1, N + 1)])
    units = unit_group(r).phi
    per_period = N / r * units  # |sum |psi(n)|^2 over one period| summed
    assert primitive_mass(cv, r) == pytest.approx(per_period, abs=1e-6)


# ------------------------------------------------- orthogonality closed form


SQUAREFREE_R = [1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35, 42, 70, 105, 210]


# Test-only oracles: the orthogonality relation over primitive characters of
# every ell | r, by enumeration and in closed form.
def primitive_orthogonality_sum(r: int, b: int, n: int) -> complex:
    """sum over ell | r and primitive psi mod ell of conj(psi(b)) psi(n),
    by direct enumeration (float)."""
    total = 0j
    for ell in divisors(r):
        for psi in enumerate_characters(ell):
            if is_primitive(psi):
                total += np.conj(psi(b)) * psi(n)
    return complex(total)


def primitive_orthogonality_reference(r: int, b: int, n: int) -> int:
    """Closed form for squarefree r, gcd(b, r) = 1: phi(r/d) when
    gcd(n, r) = d and n == b (mod r/d), else 0."""
    if math.gcd(b, r) != 1:
        raise PreconditionError("reference needs gcd(b, r) = 1")
    d = math.gcd(n, r)
    m = r // d
    if (n - b) % m == 0:
        return unit_group(m).phi
    return 0


def test_primitive_orthogonality_squarefree():
    for r in SQUAREFREE_R:
        if r > 42:
            bs = [1, r - 1]
        else:
            bs = [b for b in range(1, r + 1) if math.gcd(b, r) == 1]
        for b in bs:
            for n in range(1, min(r, 20) + 1):
                ref = primitive_orthogonality_reference(r, b, n)
                val = primitive_orthogonality_sum(r, b, n)
                assert val.real == pytest.approx(ref, abs=1e-8), (r, b, n)
                assert abs(val.imag) < 1e-8


def test_primitive_orthogonality_reference_requires_unit():
    with pytest.raises(PreconditionError):
        primitive_orthogonality_reference(6, 2, 1)


def test_primitive_orthogonality_diagonal():
    # n = b picks up phi(r); n = b + multiples shifts through divisors
    assert primitive_orthogonality_reference(30, 7, 7) == unit_group(30).phi
    assert primitive_orthogonality_reference(30, 7, 7 + 30) == unit_group(30).phi
    # gcd(n, 30) = 5, n == b mod 6 requires b == 25 mod 6 == 1
    assert primitive_orthogonality_reference(30, 1, 25) == unit_group(6).phi
    assert primitive_orthogonality_reference(30, 11, 25) == 0


# ------------------------------------------------------------ class values


def _class_values_whole_array(f, x, q, a, table):
    # oracle: the slice of the whole f(0..Nq + a) array that the stream replaced
    a %= q
    N = x // q
    return values_upto(f, N * q + a, table)[a + q :: q][:N]


@pytest.mark.parametrize("text", ["mobius", "liouville", "legendre:7", "nit:0.5",
                                  "prod(char:5:2,nit:1.0)"])
def test_class_values_stream_matches_whole_array(text, block_width):
    # 1000-wide blocks, so x sits on, next to and between block edges
    f = parse_spec(text)
    with block_width(1000):
        for q, a in ((1, 0), (2, 1), (3, 2), (5, 3), (7, 4), (12, 5)):
            for x in (q + a, 999, 1000, 1001, 2 * 1000 + q, 12345, 19_990):
                got = _class_values(f, x, q, a, _table())
                want = _class_values_whole_array(f, x, q, a, _table())
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (q, a, x)
                for r in (2, 3, 12, 30):
                    assert primitive_mass(got, r) == primitive_mass(want, r)


def test_class_values_peak_is_the_result_plus_a_few_blocks(block_width, table_medium):
    # a complex f(0..x) alone is 16 MB here; the stream keeps every fifth
    # value (3.2 MB) and holds a few 1 MB blocks
    x, q, width = 10**6, 5, 1 << 16
    f = parse_spec("prod(char:5:2,nit:1.0)")
    with block_width(width):
        _class_values(f, x, q, 2, table_medium)  # warm the character caches
        tracemalloc.start()
        try:
            cv = _class_values(f, x, q, 2, table_medium)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= cv.nbytes + 4 * 16 * width


def test_sign_class_values_peak_is_the_int8_result_plus_the_fill(block_width, table_medium):
    # f(nq + a) stays int8: x/q bytes, where float64 values took 8 MB here;
    # the multiplicative filler works in int64 indices, under 32 bytes per n
    # of its block, beside the result
    x, width = 10**6, 1 << 16
    with block_width(width):
        _class_values(Mobius(), x, 1, 0, table_medium)  # warm the caches
        tracemalloc.start()
        try:
            cv = _class_values(Mobius(), x, 1, 0, table_medium)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert cv.dtype == np.int8 and cv.nbytes == x
    assert peak <= cv.nbytes + 32 * width


# ------------------------------------------------------------ bad moduli


def test_bad_moduli_mobius_frozen(table_medium):
    rep = bad_moduli(Mobius(), 10**5, 5, 2, 0.1, table_medium)
    assert rep.n_terms == 20000
    assert rep.modulus_bound == 141
    assert rep.large_sieve_bound == pytest.approx(200.0)
    assert rep.bad[0][0] == 29
    assert rep.bad[0][1] == pytest.approx(2548.108855103801, rel=1e-9)
    assert rep.sum_inverse_phi == pytest.approx(0.7281743891515717, rel=1e-9)
    assert len(rep.masses) == rep.modulus_bound - 1
    # every reported modulus genuinely clears the threshold
    thr = 0.1 * 10**5 / 5
    assert all(m >= thr for _, m in rep.bad)
    assert rep.sum_inverse_phi <= rep.large_sieve_bound


def test_bad_moduli_tightening_eta_shrinks_set(table_medium):
    lo = bad_moduli(Mobius(), 10**5, 5, 2, 0.1, table_medium)
    hi = bad_moduli(Mobius(), 10**5, 5, 2, 0.2, table_medium)
    assert hi.sum_inverse_phi == pytest.approx(0.3361870990664556, rel=1e-9)
    bad_lo = {r for r, _ in lo.bad}
    bad_hi = {r for r, _ in hi.bad}
    assert bad_hi <= bad_lo
    assert len(bad_hi) < len(bad_lo)


def test_bad_moduli_q1_and_masses():
    rep = bad_moduli(Mobius(), 10**4, 1, 1, 0.1, _table())
    assert rep.bad[0][0] == 23
    assert rep.bad[0][1] == pytest.approx(1159.6206608806772, rel=1e-9)
    assert rep.sum_inverse_phi == pytest.approx(0.6599930873888026, rel=1e-9)
    assert rep.masses is not None
    rs = [r for r, _ in rep.masses]
    assert rs == list(range(2, rep.modulus_bound + 1))
    lookup = dict(rep.masses)
    thr = 0.1 * 10**4
    for r, m in rep.bad:
        assert lookup[r] == m and m >= thr
    for r, m in rep.masses:
        if m >= thr:
            assert r in {rr for rr, _ in rep.bad}


def test_bad_moduli_character_has_no_mass():
    # f supported on a single residue pattern mod 5 twists away from every
    # primitive psi mod r for r in range: all masses stay far below eta x/q
    rep = bad_moduli(One(), 10**4, 1, 1, 0.9, _table())
    assert rep.bad == ()
    assert rep.sum_inverse_phi == 0.0


def test_bad_moduli_warns_on_small_eta():
    # below 1/sqrt(log x) the scan still runs; it just warns that "good"
    # moduli carry weaker guarantees
    with pytest.warns(RuntimeWarning, match="good-moduli guarantees weaken"):
        rep = bad_moduli(Mobius(), 10**4, 1, 1, 0.1, _table())
    assert rep.sum_inverse_phi <= rep.large_sieve_bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad_moduli(Mobius(), 10**4, 1, 1, 0.9, _table())  # ample eta: silent


def test_refused_class_reported_as_given():
    # a = 5 is the class 0 mod 5; the message names the a that was passed
    with pytest.raises(PreconditionError, match=r"got a=5, q=5$"):
        bad_moduli(Mobius(), 10**4, 5, 5, 0.5, _table())


def test_bad_moduli_preconditions():
    with pytest.raises(PreconditionError):
        bad_moduli(Mobius(), 10**4, 5, 10, 0.1, _table())  # gcd(a, q) > 1
    with pytest.raises(PreconditionError):
        bad_moduli(Mobius(), 10**4, 5, 2, 0.0, _table())  # eta out of range
    with pytest.raises(PreconditionError):
        bad_moduli(Mobius(), 10**4, 5, 2, 1.5, _table())
    with pytest.raises(PreconditionError):
        # needs f up to n q + a past the table limit
        bad_moduli(Mobius(), 4 * 10**4, 2, 1, 0.1, _table())


def _bad_moduli_direct(f, x, q, a, eta, table):
    # oracle: the per-r loop that the fold replaced, one class sum of all
    # x/q values for every r = 2..R
    cv = _class_values(f, x, q, a, table)
    R = math.isqrt(x // q)
    masses = [(r, _mass_from_classes(_class_sums(cv, r, 0), r)) for r in range(2, R + 1)]
    return masses, [(r, m) for r, m in masses if m >= eta * (x / q)]


# (x, q, a) with R = floor(sqrt(x/q)) = 2, 3, 3, 4, 12, 99, 100, 141, 173, 447
FOLD_SCANS = [(8, 1, 0), (15, 1, 0), (20, 2, 1), (16, 1, 0), (150, 1, 0), (9999, 1, 0),
              (10**4, 1, 1), (10**5, 5, 2), (9 * 10**4, 3, 2), (2 * 10**5, 1, 0)]


@pytest.mark.parametrize("text", ["mobius", "liouville", "threshold:100", "legendre:7", "one"])
def test_bad_moduli_fold_bit_identical_for_int8_families(text, table_medium):
    f = parse_spec(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # small eta at small x
        for x, q, a in FOLD_SCANS:
            rep = bad_moduli(f, x, q, a, 0.2, table_medium)
            masses, bad = _bad_moduli_direct(f, x, q, a, 0.2, table_medium)
            assert rep.modulus_bound == math.isqrt(x // q)
            assert list(rep.masses) == masses, (x, q, a)
            assert list(rep.bad) == bad, (x, q, a)


def _mass_rolled(c, r):
    # the mass as the rolled fold read it: c[b] holds the class n == b
    F = unit_group_transform(c[unit_group(r).units], r)
    return float(np.sum(np.abs(F[primitive_mask(r)])))


def _bad_moduli_rolled(f, x, q, a, eta, table, dtype=None):
    # oracle: the fold as it was with one np.roll per modulus m in (R/2, R],
    # on f(nq + a) as the fill gives it or cast to dtype (float64 is the
    # scan before its class values stayed int8)
    cv = _class_values(f, x, q, a, table)
    if dtype is not None:
        cv = cv.astype(dtype)
    R = math.isqrt(x // q)
    mass = {}
    for m in range(max(2, R // 2 + 1), R + 1):
        c_m = _class_sums(cv, m, start=1)
        for r in divisors(m):
            if r > 1 and R // r * r == m:
                mass[r] = _mass_rolled(_class_sums(c_m, r, 0), r)
    masses = sorted(mass.items())
    bad = [(r, m) for r, m in masses if m >= eta * (x / q)]
    return masses, bad, sum(1.0 / unit_group(r).phi for r, _ in bad)


@pytest.mark.parametrize("text", ["mobius", "liouville", "threshold:100", "legendre:7", "one"])
def test_bad_moduli_int8_equals_float64_route(text, table_medium):
    f = parse_spec(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for x in (12345, 10**5):
            for q in (1, 2, 5):
                rep = bad_moduli(f, x, q, 1, 0.1, table_medium)
                masses, bad, s = _bad_moduli_rolled(f, x, q, 1, 0.1, table_medium, np.float64)
                assert list(rep.masses) == masses, (x, q)
                assert list(rep.bad) == bad, (x, q)
                assert rep.sum_inverse_phi == s, (x, q)


@pytest.mark.parametrize("text", ["mobius", "liouville", "threshold:100", "legendre:7", "one",
                                  "prod(char:5:2,nit:1.0)"])
def test_bad_moduli_equals_the_rolled_fold(text, table_medium):
    # the fold reads unit class u at u - 1 instead of rolling each m's sums
    # one place; the unit classes keep their summation order, so complex f
    # is bit-identical too
    f = parse_spec(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for x in (12345, 10**5):
            for q in (1, 2, 3, 5, 7):
                rep = bad_moduli(f, x, q, 1, 0.1, table_medium)
                masses, bad, s = _bad_moduli_rolled(f, x, q, 1, 0.1, table_medium)
                assert list(rep.masses) == masses, (x, q)
                assert list(rep.bad) == bad, (x, q)
                assert rep.sum_inverse_phi == s, (x, q)


@pytest.mark.parametrize("text", ["prod(char:5:2,nit:1.0)", "nit:0.5", "char:7:1"])
def test_bad_moduli_fold_matches_direct_for_complex_f(text, table_medium):
    f = parse_spec(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for x, q, a in FOLD_SCANS:
            for eta in (0.05, 0.5):
                rep = bad_moduli(f, x, q, a, eta, table_medium)
                masses, bad = _bad_moduli_direct(f, x, q, a, eta, table_medium)
                assert [r for r, _ in rep.masses] == [r for r, _ in masses]
                worst = max((abs(m - d) for (_, m), (_, d) in zip(rep.masses, masses)),
                            default=0.0)
                assert worst <= 1e-12 * (x / q), (x, q, a)
                assert [r for r, _ in rep.bad] == [r for r, _ in bad], (x, q, a, eta)


@pytest.mark.parametrize("x", [8, 15, 16, 150, 10**4, 2 * 10**5])
def test_bad_moduli_reads_the_values_once_per_modulus_above_half(x, table_medium,
                                                                 monkeypatch):
    # only the moduli in (R/2, R] sum all x values; every r <= R with a
    # primitive character (r != 2 mod 4) then folds the class sums of one of
    # them, whose length is at most R, once, and a top modulus that no such
    # r folds from is never summed
    seen = []

    def counting(v, r, start, acc=None):
        seen.append(len(v))
        return _class_sums(v, r, start, acc)

    monkeypatch.setattr(sieve_experiments, "_class_sums", counting)
    rep = bad_moduli(Mobius(), x, 1, 0, 0.9, table_medium)
    R = rep.modulus_bound
    folds = [r for r in range(2, R + 1) if r % 4 != 2]
    tops = {R // r * r for r in folds}
    assert seen.count(x) == len(tops)
    assert all(n == x or n <= R for n in seen)
    assert len(seen) == len(tops) + len(folds)
    if x == 2 * 10**5:  # R = 447: 224 moduli in (R/2, R] and 446 folds before the skip
        assert (len(tops), len(folds)) == (205, 334)


def _bad_moduli_per_r(f, x, q, a, eta, table):
    # oracle: every r = 2..R folded from its largest multiple m <= R and
    # transformed, the primitive mask read even where it is empty
    cv = _class_values(f, x, q, a, table)
    R = math.isqrt(x // q)
    masses = []
    for r in range(2, R + 1):
        c = _class_sums(_class_sums(cv, R // r * r, 0), r, 0)
        F = unit_group_transform(c[unit_group(r).units - 1], r)
        masses.append((r, float(np.sum(np.abs(F[primitive_mask(r)])))))
    bad = [(r, m) for r, m in masses if m >= eta * (x / q)]
    return masses, bad, sum(1.0 / unit_group(r).phi for r, _ in bad)


@pytest.mark.parametrize("text", ["mobius", "liouville", "legendre:7", "prod(char:5:2,nit:1.0)"])
def test_bad_moduli_transforms_only_moduli_with_a_primitive_character(text, table_medium,
                                                                      monkeypatch):
    # r == 2 (mod 4) has no primitive character: its mass is 0.0 with no
    # transform, and every other r is transformed once
    transformed = []

    def counting(values, r):
        transformed.append(r)
        return unit_group_transform(values, r)

    monkeypatch.setattr(sieve_experiments, "unit_group_transform", counting)
    f = parse_spec(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for x in (10**4, 2 * 10**5):
            for q in (1, 2, 3, 5):
                transformed.clear()
                rep = bad_moduli(f, x, q, 1, 0.1, table_medium)
                R = rep.modulus_bound
                assert sorted(transformed) == [r for r in range(2, R + 1) if r % 4 != 2]
                assert all(m == 0.0 for r, m in rep.masses if r % 4 == 2)
                masses, bad, s = _bad_moduli_per_r(f, x, q, 1, 0.1, table_medium)
                assert list(rep.masses) == masses, (x, q)
                assert list(rep.bad) == bad, (x, q)
                assert rep.sum_inverse_phi == s, (x, q)


# --------------------------------------------------------------- transfer


def test_transfer_r1_is_identity():
    tc = transfer_check(One(), 10**4, 4, 3, 1, 0.5, _table())
    assert tc.lhs == tc.rhs
    assert tc.difference == 0.0
    assert tc.budget == pytest.approx(2500 * 0.5)


def test_transfer_ones_hand_check():
    # F(10^4;4,3) = 2500; rhs = 3 * 1 * F(3333;4,1) = 3 * 834 = 2502
    tc = transfer_check(One(), 10**4, 4, 3, 3, 0.5, _table())
    assert tc.lhs == 2500
    assert tc.rhs == 2502
    assert tc.difference == 2.0
    assert tc.budget == pytest.approx(2500 * (0.5 * 2 + 1 - 2 / 3))
    assert tc.difference <= tc.budget


def test_transfer_mobius_frozen(table_medium):
    tc = transfer_check(Mobius(), 10**4, 4, 3, 3, 0.5, _table())
    assert tc.lhs == pytest.approx(-8)
    assert tc.rhs == pytest.approx(33)
    assert tc.difference == pytest.approx(41.0)
    tc6 = transfer_check(Mobius(), 10**5, 5, 2, 6, 0.5, table_medium)
    assert tc6.lhs == pytest.approx(-44)
    assert tc6.rhs == pytest.approx(-204)
    assert tc6.difference == pytest.approx(160.0)
    assert tc6.budget == pytest.approx(20000 * (0.5 * 4 + 1 - 1 / 3))
    assert tc6.difference <= tc6.budget


@pytest.mark.parametrize("eta", [0.0, -0.5, 2.0])
def test_transfer_refuses_eta_outside_0_1(eta):
    # as bad_moduli does: eta <= 0 was refused as "r is not good", and eta = 2
    # was accepted
    with pytest.raises(PreconditionError, match=rf"need 0 < eta <= 1, got {eta}$"):
        transfer_check(One(), 10**4, 4, 3, 3, eta, _table())


@pytest.mark.parametrize("q", [0, -4])
def test_class_scans_refuse_a_modulus_below_1_before_the_sieve(monkeypatch, q):
    # q = 0 used to end in a ZeroDivisionError, and the Legendre scan at
    # q = -4 returned an infimum of -0.0 over an empty progression
    def never(*args):
        raise AssertionError("the sieve started")

    monkeypatch.setattr("pretentious.arith.sieve_primes", never)
    t = PrimeTable(1000)
    for call in (lambda: legendre_progression_experiment(q, 1, 100, 50, t),
                 lambda: bad_moduli(Mobius(), 100, q, 1, 0.5, t),
                 lambda: transfer_check(Mobius(), 100, q, 1, 1, 0.5, t)):
        with pytest.raises(PreconditionError, match=f"modulus must be >= 1, got q={q}$"):
            call()


def test_transfer_good_prime_near_hundred(table_medium):
    # a good prime well inside sqrt(x/q): difference sits far under budget
    tc = transfer_check(Mobius(), 10**6, 5, 1, 97, 0.5, table_medium)
    assert tc.lhs == pytest.approx(-146)
    assert tc.rhs == pytest.approx(1746)
    assert tc.difference == pytest.approx(1892.0)
    assert tc.difference <= tc.budget
    assert tc.budget == pytest.approx(200000 * (0.5 * 2 + 1 - 96 / 97))


def test_transfer_preconditions():
    t = _table()
    with pytest.raises(PreconditionError):
        transfer_check(One(), 10**4, 4, 3, 2, 0.5, t)  # gcd(r, q) > 1
    with pytest.raises(PreconditionError):
        transfer_check(One(), 10**4, 4, 3, 9, 0.5, t)  # not squarefree
    with pytest.raises(PreconditionError):
        transfer_check(One(), 10**4, 4, 3, 51, 0.5, t)  # r > sqrt(x/q) = 50
    with pytest.raises(PreconditionError):
        # tiny eta makes every small modulus bad, so r = 3 is not good
        transfer_check(One(), 10**4, 4, 3, 3, 1e-6, t)


# ----------------------------------------------------------------- defect


def test_defect_zero_for_exact_characters():
    rep = multiplicativity_defect(parse_spec("char:5:2"), 10**4, 5, _table())
    assert rep.max_defect <= 1e-8
    assert rep.normalized_max_defect <= 1e-12


def test_defect_refuses_a_modulus_above_max_before_the_fill(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("f was filled")

    monkeypatch.setattr("pretentious.meanvalues._fill_blocks", never)
    with pytest.raises(PreconditionError, match=r"modulus must be in \[1, 10000\], got 20011$"):
        multiplicativity_defect(Mobius(), 10**5, 20011, PrimeTable(10**5))


def test_defect_mobius_frozen(table_medium):
    rep = multiplicativity_defect(Mobius(), 10**5, 5, table_medium)
    assert rep.max_defect == pytest.approx(2048.0)
    assert rep.normalized_max_defect == pytest.approx(0.0023272727272727273, rel=1e-12)
    assert rep.scale == pytest.approx(880000.0)
    lookup = {(a, b): d for a, b, d in rep.pairs}
    assert lookup[(2, 2)] == pytest.approx(2048.0)
    # pairs involving 1 vanish identically: F(b)F(1) - F(1)F(b)
    for b in (1, 2, 3, 4):
        assert lookup[(1, b)] == 0.0
    assert rep.max_defect == max(d for _, _, d in rep.pairs)


def test_defect_ones_counting_error():
    # class counts differ by at most 1, so the normalized defect is ~ q^2/x
    rep = multiplicativity_defect(One(), 10**4, 7, _table())
    assert rep.max_defect == pytest.approx(2857.0)
    assert rep.normalized_max_defect <= 7**2 / 10**4


def test_defect_mobius_trend(table_medium, table_large):
    seq = [
        multiplicativity_defect(Mobius(), 10**5, 3, table_medium).normalized_max_defect,
        multiplicativity_defect(Mobius(), 10**6, 3, table_medium).normalized_max_defect,
        multiplicativity_defect(Mobius(), 10**7, 3, table_large).normalized_max_defect,
    ]
    assert seq[0] > seq[1] > seq[2]
    assert seq[2] == pytest.approx(0.0002310123711340206, rel=1e-12)


def test_defect_pairs_cover_unit_pairs():
    rep = multiplicativity_defect(Mobius(), 10**4, 8, _table())
    units = [1, 3, 5, 7]
    expected = {(a, b) for i, a in enumerate(units) for b in units[i:]}
    assert {(a, b) for a, b, _ in rep.pairs} == expected


# ---------------------------------------------------------- legendre scan


def test_legendre_frozen_square_and_nonsquare():
    rep3 = legendre_progression_experiment(4, 3, 10**4, 10**4, _table())
    assert not rep3.square_class
    assert rep3.infimum == pytest.approx(-0.0424, abs=1e-12)
    assert rep3.argmin_p == 5081
    rep1 = legendre_progression_experiment(4, 1, 10**4, 10**4, _table())
    assert rep1.square_class
    assert rep1.infimum == pytest.approx(-0.0224, abs=1e-12)
    assert rep1.argmin_p == 3359


def test_legendre_running_trace():
    rep = legendre_progression_experiment(4, 3, 10**4, 10**4, _table())
    vals = [s for _, s in rep.running]
    assert all(b < a for a, b in zip(vals, vals[1:]))  # strictly decreasing lows
    assert rep.running[-1] == (rep.argmin_p, rep.infimum)
    ps = [p for p, _ in rep.running]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    # p = 2 and p | q never scanned
    assert 2 not in ps


def test_legendre_scan_skips_divisors_of_q():
    rep = legendre_progression_experiment(3, 2, 10**3, 100, _table())
    assert all(p != 3 for p, _ in rep.running)
    assert rep.argmin_p % 3 != 0 and rep.argmin_p % 2 != 0


def test_legendre_scan_keeps_no_row():
    # it reads each p once, so its rows never enter the store of kept tables
    before = _legendre_row.cache_info().currsize
    legendre_progression_experiment(4, 3, 10**3, 2000, _table())
    assert _legendre_row.cache_info().currsize == before


@pytest.mark.parametrize("q, a, p_limit", [(4, 3, 2), (3, 1, 3), (15, 2, 5)])
def test_legendre_scan_with_no_odd_prime_coprime_to_q_refused(q, a, p_limit):
    # no p to scan leaves no infimum, not an infinite one at p = 0
    with pytest.raises(PreconditionError, match="no odd prime"):
        legendre_progression_experiment(q, a, 100, p_limit, _table())


def test_legendre_trivial_progression_bounds():
    # q = 1: full interval, each complete period sums to zero, so the mean
    # stays within (p/x) of zero and the infimum is a small negative number
    rep = legendre_progression_experiment(1, 1, 10**4, 10**3, _table())
    assert rep.square_class
    assert -0.1 <= rep.infimum <= 0.0
    assert rep.infimum == pytest.approx(-0.0014, abs=1e-12)
    assert rep.argmin_p == 593


def test_legendre_mean_value_oracle():
    # one full check against sympy's symbol, no shared code path
    import sympy

    q, a, x, p = 4, 3, 10**3, 19
    vals = [int(sympy.legendre_symbol(n, p)) if n % p else 0
            for n in range(a, x + 1, q)]
    expected = sum(vals) * q / x
    rep = legendre_progression_experiment(q, a, x, 19, _table())
    scanned = dict(rep.running)
    # 19 is scanned; if it set a record it appears; recompute via a fresh
    # scan with p_limit exactly 19 so the infimum includes it
    direct = legendre_progression_experiment(q, a, x, 19, _table())
    all_vals = []
    for pp in (3, 5, 7, 11, 13, 17, 19):
        row = [int(sympy.legendre_symbol(n, pp)) if n % pp else 0
               for n in range(a, x + 1, q)]
        all_vals.append(sum(row) * q / x)
    assert direct.infimum == pytest.approx(min(all_vals), abs=1e-12)
    assert expected == pytest.approx(all_vals[-1], abs=1e-12)


def _legendre_scan_direct(q, a, x, p_limit, table):
    """The scan's direct loop: every n = a mod q up to x reduced mod each p."""
    start = a % q or q
    ns = np.arange(start, x + 1, q, dtype=np.int64)
    best, best_p, running = math.inf, 0, []
    for p in table.primes_upto(p_limit).tolist():
        if p == 2 or q % p == 0:
            continue
        s = float(np.sum(_legendre_row(p)[ns % p])) * q / x
        if s < best:
            best, best_p = s, p
            running.append((p, s))
    return best, best_p, tuple(running)


@pytest.mark.parametrize("q, a, x, p_limit", [(4, 3, 10**4, 10**4), (4, 1, 10**4, 10**4),
                                              (1, 1, 10**4, 10**3), (7, 3, 50, 2000)])
def test_legendre_scan_equals_the_direct_loop(q, a, x, p_limit):
    # the first two are criterion 10's settings; the last has x < p_limit,
    # so most p exceed the number of terms
    rep = legendre_progression_experiment(q, a, x, p_limit, _table())
    assert (rep.infimum, rep.argmin_p, rep.running) == \
        _legendre_scan_direct(q, a, x, p_limit, _table())


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 60), a=st.integers(1, 200), x=st.integers(1, 4000),
       p_limit=st.integers(3, 600))
def test_legendre_scan_equals_the_direct_loop_on_random_classes(q, a, x, p_limit):
    assume(math.gcd(a, q) == 1)
    assume(any(p % 2 and q % p for p in _table().primes_upto(p_limit).tolist()))
    rep = legendre_progression_experiment(q, a, x, p_limit, _table())
    assert (rep.infimum, rep.argmin_p, rep.running) == \
        _legendre_scan_direct(q, a, x, p_limit, _table())


_LEGENDRE_AT_1E8 = """
from pretentious.arith import PrimeTable
from pretentious.sieve_experiments import legendre_progression_experiment
rep = legendre_progression_experiment(4, 3, 10**8, 10**4, PrimeTable(10**8))
out = dict(infimum=rep.infimum, argmin_p=rep.argmin_p)
"""


def test_legendre_scan_at_1e8_holds_no_array_over_the_terms(fresh_process):
    # its own process, whose peak RSS is this run's.  The sieve to 10^8
    # peaks near 125 MB; the scan once held n = 3 mod 4 up to 10^8 and n mod p,
    # 200 MB each (495 MB at p <= 50), and gathered 2.5e7 symbols per prime
    out = fresh_process(_LEGENDRE_AT_1E8)
    assert out["rss_mb"] <= 250
    assert -1 <= out["infimum"] <= 0
    assert 3 <= out["argmin_p"] <= 10**4


def test_legendre_preconditions():
    with pytest.raises(PreconditionError):
        legendre_progression_experiment(4, 2, 10**3, 100, _table())
    with pytest.raises(PreconditionError, match="table stops at 20000"):
        legendre_progression_experiment(4, 3, 100, 10**5, _table())  # p_limit > table
    with pytest.raises(PreconditionError, match="exceeds the sieve limit"):
        legendre_progression_experiment(4, 3, 10**8 + 1, 100, _table())
    # the scan reads the table only for its primes: x may exceed its limit
    assert legendre_progression_experiment(4, 3, 10**5, 100, _table()).argmin_p <= 100


def _square_class_oracle(q: int, a: int) -> bool:
    # the set of the unit squares mod q, which the scan once built in O(q)
    return a % q in {u * u % q for u in range(1, q + 1) if math.gcd(u, q) == 1}


def test_legendre_square_class_matches_the_unit_squares():
    for q in range(1, 201):
        for a in (u for u in range(1, q + 1) if math.gcd(u, q) == 1):
            rep = legendre_progression_experiment(q, a, 1000, 50, _table())
            assert rep.square_class == _square_class_oracle(q, a), (q, a)


def test_legendre_square_class_holds_nothing_over_the_units():
    # the set of unit squares mod q = 1000003 traced 33.6 MB in 2 s, and
    # --q is unbounded, so q = 10^9 + 7 never finished
    q = 1000003
    legendre_progression_experiment(q, 2, 10**8, 100, _table())  # warm the symbol rows
    tracemalloc.start()
    try:
        rep = legendre_progression_experiment(q, 2, 10**8, 100, _table())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.square_class  # q == 3 (mod 8), so 2 is no square
    assert peak < 5 * 2**20
