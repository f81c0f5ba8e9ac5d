"""Mean values in progressions: exact identities, bounds, Euler products.

Hand sums are frozen from independent recomputation (sympy brute force for
the twisted mobius sum; the published Mertens values for the summatory
checks). Regression values were measured once on verified code and frozen.
"""

import math
import random
import time
import tracemalloc

import numpy as np
import pytest
import sympy

from pretentious.arith import PrimeTable
from pretentious.characters import (
    MAX_MODULUS,
    character_by_index,
    character_row,
    enumerate_characters,
    induce,
)
from pretentious.errors import PreconditionError
from pretentious.funcspec import (
    PRIME_CHUNK,
    CharacterSpec,
    Mobius,
    One,
    Product,
    Twist,
    make_prime_table_spec,
    parse_spec,
    prime_values,
    values_upto,
)
from pretentious.meanvalues import (
    _class_sums,
    _explicit_series,
    coprime_mean_bound,
    decompose_via_characters,
    euler_product_mean,
    halasz_bound,
    progression_report,
    progression_sums,
    twisted_sum,
)

_TABLE = {}


def _table():
    if "t" not in _TABLE:
        _TABLE["t"] = PrimeTable(2 * 10**4)
    return _TABLE["t"]


# ----------------------------------------------------- progression sums


def test_ones_equidistribute():
    pt = progression_sums(One(), 12, 4, _table())
    assert pt.sums.tolist() == [3, 3, 3, 3]
    assert pt.counts.tolist() == [3, 3, 3, 3]


def test_mobius_hand_sum():
    # mu(1)+mu(4)+mu(7)+mu(10)+mu(13)+mu(16)+mu(19) = 1+0-1+1-1+0-1
    pt = progression_sums(Mobius(), 20, 3, _table())
    assert pt.sums[1] == -1


def test_liouville_mean_ten():
    pt = progression_sums(parse_spec("liouville"), 10, 1, _table())
    assert pt.sums[0] == 0  # 1-1-1+1-1+1-1-1+1+1


def test_row_sum_exact():
    rng = random.Random(8)
    for _ in range(20):
        q = rng.randrange(1, 30)
        x = rng.randrange(q, 5000)
        spec = parse_spec(rng.choice(["mobius", "liouville", "one", "legendre:7"]))
        pt = progression_sums(spec, x, q, _table())
        vals = values_upto(spec, x, _table())
        # integer-valued f: float sums of small ints are exact in any order
        assert pt.total() == vals[1:].sum()
        assert int(pt.counts.sum()) == x


def test_f_bounded_by_class_count():
    for q in (3, 7, 12):
        pt = progression_sums(Mobius(), 10**4, q, _table())
        assert np.all(np.abs(pt.sums) <= 10**4 / q + 1)
        assert int(pt.counts.sum()) == 10**4


def test_progression_sums_rejects_large_q():
    with pytest.raises(PreconditionError):
        progression_sums(Mobius(), 10, 11, _table())


# -------------------------------------------------------- twisted sums


def test_twisted_sum_unit_indicator():
    # f = chi as a function: sum of |chi(n)|^2 counts units
    for q in (4, 5, 12):
        chi = character_by_index(q, len(enumerate_characters(q)) - 1)
        f = CharacterSpec(q, chi.index)
        s = twisted_sum(f, chi, 100, _table())
        expected = sum(1 for n in range(1, 101) if math.gcd(n, q) == 1)
        assert s.real == pytest.approx(expected, abs=1e-9)
        assert abs(s.imag) < 1e-9


def test_twisted_sum_full_periods():
    chi = character_by_index(4, 1)
    s = twisted_sum(One(), chi, 100, _table())
    assert abs(s) < 1e-9  # 25 complete periods of a non-principal character


def test_twisted_sum_mobius_principal_mod_2():
    # sum over odd n <= 20 of mu(n); brute-force verified: 1-1-1-1+0-1-1+1-1-1
    chi0 = character_by_index(2, 0)
    s = twisted_sum(Mobius(), chi0, 20, _table())
    brute = sum(int(sympy.mobius(n)) for n in range(1, 21, 2))
    assert brute == -5
    assert s == pytest.approx(-5, abs=1e-12)


# ------------------------------------------------- character decomposition


def test_decompose_hand_cases():
    lhs, rhs = decompose_via_characters(Mobius(), 20, 3, 1, _table())
    assert lhs == pytest.approx(-1, abs=1e-12)
    assert rhs == pytest.approx(-1, abs=1e-9)
    lhs, rhs = decompose_via_characters(One(), 12, 4, 3, _table())
    assert lhs == pytest.approx(3, abs=1e-12)
    assert rhs == pytest.approx(3, abs=1e-9)


def test_decompose_large_prime_modulus_stays_fast():
    # every call transforms the class sums for all 996 characters mod 997
    # and takes each chi(2) exactly, so each call has to be cheap on its own
    for _ in range(2):
        t0 = time.perf_counter()
        lhs, rhs = decompose_via_characters(Mobius(), 10**4, 997, 2, _table())
        assert time.perf_counter() - t0 < 1.0
        assert abs(lhs - rhs) < 1e-9


def test_progression_sums_match_strided_slices():
    # oracle: the per-class strided sums that the shared class-sum kernel replaced
    x = 10**4
    for text in ("mobius", "liouville", "legendre:7", "prod(char:5:2,nit:1.0)", "nit:0.5"):
        f = parse_spec(text)
        vals = values_upto(f, x, _table())
        for q in (1, 2, 3, 7, 30, 97, 1000):
            want = np.array([vals[a::q].sum() for a in range(q)])
            got = progression_sums(f, x, q, _table()).sums
            if np.iscomplexobj(vals):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
            else:
                assert got.dtype == np.float64
                assert got.tolist() == want.tolist()


def _whole_array_sums(vals: np.ndarray, q: int) -> np.ndarray:
    """The sums progression_sums gave before it streamed: one class-sum call
    on all of f(0..x), integer sums as float64."""
    sums = _class_sums(vals, q, 0)
    return sums if np.iscomplexobj(sums) else sums.astype(np.float64)


@pytest.mark.parametrize("text", ["mobius", "legendre:7", "nit:0.5", "prod(char:5:2,nit:1.0)",
                                  "prod(liouville,char:12:1)"])
def test_streamed_sums_bit_identical_to_whole_array(block_width, text):
    # the stream folds blocks of 1000 into the class sums; q = 1500 exceeds
    # that width
    x = 12345
    f = parse_spec(text)
    vals = values_upto(f, x, _table())
    with block_width(1000):
        for q in (1, 2, 3, 7, 997, 1500):
            got = progression_sums(f, x, q, _table()).sums
            want = _whole_array_sums(vals, q)
            assert got.dtype == want.dtype
            if q == 1 and np.iscomplexobj(want):
                # one class: numpy sums a whole array pairwise and the stream
                # block by block, so the last bits may move
                np.testing.assert_allclose(got, want, rtol=1e-13)
            else:
                assert got.tobytes() == want.tobytes()
    # x + 1 fits one default block, so q = 1 is bit-identical too
    assert progression_sums(f, x, 1, _table()).sums.tobytes() == _whole_array_sums(vals, 1).tobytes()


@pytest.mark.parametrize("r", [1, 2, 3, 634])
def test_float_running_sums_go_into_the_block(r):
    # the running sums are added into the block's first r values in place,
    # which rounds as the copy with them ahead of the block as row 0 did; a
    # block shorter than r and r = 1 (numpy sums one class pairwise) keep
    # that copy and leave the block as it was
    rng = np.random.default_rng(r)
    for n in (r - 1, r, max(1000, 5 * r) + 3):
        if n < 1:
            continue
        v = np.exp(1j * rng.uniform(0, 7, n))
        acc = rng.uniform(-50, 50, r) + 1j * rng.uniform(-50, 50, r)
        start = int(rng.integers(0, 10**6))
        want = _class_sums(np.concatenate([np.roll(acc, -start), v]), r, start)
        block = v.copy()
        got = _class_sums(block, r, start, acc)
        assert got.tobytes() == want.tobytes(), (r, n)
        if r >= 2 and n >= r:
            assert block[:r].tobytes() == (v[:r] + np.roll(acc, -start)).tobytes()
            assert block[r:].tobytes() == v[r:].tobytes()
        else:
            assert block.tobytes() == v.tobytes()


def test_streamed_sums_peak_at_a_few_blocks(block_width, table_medium):
    # a complex f(0..x) alone is 16 MB here, and filling it whole traced
    # about 40 MB; the stream holds a few 1 MB blocks (halasz_bound adds its
    # twist objective over the primes)
    x, width = 10**6, 1 << 16
    f = parse_spec("prod(char:5:2,nit:1.0)")
    block_bytes = 16 * width
    with block_width(width):
        for call, bound in ((lambda: progression_sums(f, x, 7, table_medium), 4 * block_bytes),
                            (lambda: halasz_bound(f, x, 1.0, table_medium), 8 * x)):
            call()  # warm the character and prime caches
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound


_AT_1E8 = """
from pretentious.arith import PrimeTable
from pretentious.funcspec import parse_spec
from pretentious.meanvalues import decompose_via_characters, euler_product_mean, progression_sums
x = 10**8
table = PrimeTable(x)
f = parse_spec("prod(char:5:2,nit:1.0)")
pt = progression_sums(f, x, 5, table)
lhs, rhs = decompose_via_characters(f, x, 5, 2, table)
ev = euler_product_mean(f, x, table)
out = dict(counts=int(pt.counts.sum()), gap=abs(lhs - rhs), product=abs(ev.product))
"""


def test_progression_sums_at_1e8_in_bounded_memory(fresh_process):
    # its own process, whose peak RSS is this run's: building
    # PrimeTable(1e8) peaks near 160 MB, and a complex f(0..1e8) alone would
    # be 1.6 GB; the gap bound is acceptance criterion 03's.  The Euler
    # product over the 5.76M primes held about ten arrays over all of them
    # (718 MB) before it streamed them in chunks
    out = fresh_process(_AT_1E8)
    assert out["rss_mb"] <= 400
    assert out["counts"] == 10**8
    assert out["gap"] <= 1e-9
    assert 0 < out["product"] < 1


def test_decompose_rejects_non_unit():
    with pytest.raises(PreconditionError):
        decompose_via_characters(Mobius(), 100, 6, 3, _table())


def test_decompose_refuses_a_modulus_above_max_before_the_fill(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("f was filled")

    monkeypatch.setattr("pretentious.meanvalues._fill_blocks", never)
    with pytest.raises(PreconditionError, match=r"modulus must be in \[1, 10000\], got 20011$"):
        decompose_via_characters(Mobius(), 10**5, 20011, 1, PrimeTable(10**5))


def test_decompose_random_corpus():
    rng = random.Random(20240817)
    pool = ["mobius", "liouville", "one", "legendre:7", "char:12:1", "nit:0.5"]
    worst = 0.0
    for _ in range(200):
        q = rng.randrange(1, 31)
        units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        a = rng.choice(units)
        x = rng.randrange(q, 10**4)
        f = parse_spec(rng.choice(pool))
        lhs, rhs = decompose_via_characters(f, x, q, a, _table())
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


# ------------------------------------------------------------ halasz


def test_halasz_trivial():
    hb = halasz_bound(One(), 10**4, 1.0, _table())
    assert hb.squared_distance <= 1e-12
    assert hb.bound == pytest.approx(2.0, abs=1e-9)
    assert hb.measured == pytest.approx(1.0, abs=1e-4)


def test_halasz_mobius_mean(table_medium):
    hb = halasz_bound(Mobius(), 10**6, 4.0, table_medium)
    # |M(10^6)| = 212, recomputed by the sieve rather than trusted
    assert hb.measured == pytest.approx(212 / 10**6, abs=1e-12)
    assert hb.measured <= 10 * hb.bound


def test_halasz_pure_twist(table_medium):
    hb = halasz_bound(parse_spec("nit:1.0"), 10**6, 1.0, table_medium)
    assert hb.t_star == pytest.approx(1.0, abs=1e-6)
    assert hb.squared_distance <= 1e-9
    assert hb.bound == pytest.approx(2.0, abs=1e-6)
    # |x^{1+i}/(1+i)|/x = 1/sqrt(2) up to partial-summation error
    assert hb.measured == pytest.approx(1 / math.sqrt(2), abs=1e-4)


def test_halasz_requires_t_at_least_one():
    with pytest.raises(PreconditionError):
        halasz_bound(One(), 100, 0.5, _table())


def test_halasz_headroom_random():
    rng = random.Random(99)
    pool = ["mobius", "liouville", "one", "char:5:1", "char:8:3", "nit:0.5", "legendre:3"]
    for _ in range(40):
        f = parse_spec(rng.choice(pool))
        x = rng.randrange(100, 10**4)
        hb = halasz_bound(f, x, 2.0, _table())
        assert hb.measured <= 10 * hb.bound


# ------------------------------------------------------ coprime bound


def test_coprime_trivial():
    cb = coprime_mean_bound(One(), 10**4, 2, 1.0, _table())
    assert cb.measured == pytest.approx(1.0, abs=1e-12)
    assert cb.bound >= 1.0  # the 1/sqrt(T) term alone


def test_coprime_mobius_frozen(table_medium):
    cb = coprime_mean_bound(Mobius(), 10**6, 6, 2.0, table_medium)
    # |sum over (n,6)=1 of mu(n)| = 113 at 10^6; frozen after first run
    assert cb.measured == pytest.approx(0.000339, abs=1e-9)
    assert cb.bound == pytest.approx(1.222706430388644, rel=1e-9)
    assert cb.bound_quarter_log == pytest.approx(1.0342901150680182, rel=1e-9)
    assert cb.measured <= cb.bound


def test_coprime_preconditions():
    with pytest.raises(PreconditionError):
        coprime_mean_bound(One(), 100, 11, 1.0, _table())  # r > sqrt(x)
    with pytest.raises(PreconditionError):
        coprime_mean_bound(One(), 100, 2, 0.5, _table())  # T < 1
    with pytest.raises(PreconditionError):
        coprime_mean_bound(One(), 100, 2, 10.0, _table())  # T > sqrt(log x)


# ------------------------------------------------------- euler product


def test_euler_product_telescopes_for_one():
    ev = euler_product_mean(One(), 10**4, _table())
    assert ev.product.real == pytest.approx(1.0, abs=1e-9)
    assert abs(ev.product.imag) < 1e-12
    assert ev.prediction.real == pytest.approx(10**4, rel=1e-9)


def test_euler_product_liouville_closed_form(table_medium):
    ev = euler_product_mean(parse_spec("liouville"), 10**6, table_medium)
    ps = table_medium.primes_upto(10**6).astype(np.float64)
    ref = float(np.prod((1 - 1 / ps) / (1 + 1 / ps)))
    assert ev.product.real == pytest.approx(ref, rel=1e-12)
    # frozen regression: the prediction exceeds the measured |L(10^6)| = 530
    # by a factor 5.126, not the naive heuristic guess
    assert ev.prediction.real == pytest.approx(2716.54941684536, rel=1e-9)
    assert ev.prediction.real / 530 == pytest.approx(5.1255649374440715, rel=1e-9)


def test_euler_product_mobius_finite_series(table_medium):
    ev = euler_product_mean(Mobius(), 10**6, table_medium)
    ps = table_medium.primes_upto(10**6).astype(np.float64)
    ref = float(np.prod((1 - 1 / ps) * (1 - 1 / ps)))
    assert ev.product.real == pytest.approx(ref, rel=1e-10)


def test_euler_product_twisted():
    # t enters through p^{-it} in the series and through x^{1+it}/(q(1+it))
    ev = euler_product_mean(parse_spec("liouville"), 10**4, _table(), t=0.5)
    s = 1 + 0.5j
    expected_scale = abs((10**4) ** s / s)
    assert abs(ev.prediction) == pytest.approx(expected_scale * abs(ev.product), rel=1e-9)


def test_euler_product_explicit_table_series():
    # explicit tables sum the finite power series k with p^k <= x, no closure
    t = _table()
    x = 100
    parts = []
    for p in (int(v) for v in t.primes_upto(x)):
        k, pk = 1, p
        while pk <= x:
            parts.append(f"{p}:{(-1) ** k}" if k == 1 else f"{p}^{k}:{(-1) ** k}")
            k, pk = k + 1, pk * p
    spec = parse_spec("table:{" + ",".join(parts) + ";rule=explicit}")
    ev = euler_product_mean(spec, x, t)
    ref = 1.0
    for p in (int(v) for v in t.primes_upto(x)):
        series, k, pk = 1.0, 1, p
        while pk <= x:
            series += (-1) ** k / pk
            k, pk = k + 1, pk * p
        ref *= (1 - 1 / p) * series
    assert ev.product.real == pytest.approx(ref, rel=1e-12)
    assert abs(ev.product.imag) < 1e-15


def _explicit_series_loop(f, ps, fp, base, x):
    """The explicit-table power series as euler_product_mean summed it
    before, asking f(p^k) of every prime for every k; kept as the oracle."""
    psc = ps.astype(np.float64)
    series = np.ones(len(ps), dtype=np.complex128)
    k = 1
    zk = fp * base
    active = np.ones(len(ps), dtype=bool)
    pk = psc.copy()
    while True:
        series = series + np.where(active, zk, 0.0)
        pk = pk * psc
        nxt = pk <= x
        if not nxt.any():
            return series
        k += 1
        vals_k = np.array(
            [f.prime_power_value(int(p), k) if a else 0.0 for p, a in zip(ps, nxt)],
            dtype=np.complex128,
        )
        zk = vals_k * base**k
        active = nxt


def test_explicit_series_byte_identical_to_per_prime_loop():
    t = _table()
    x = 2 * 10**4
    rng = np.random.default_rng(11)
    keys = [(p, k) for p in t.primes_upto(x).tolist() for k in range(1, 16) if p**k <= x]
    values = np.exp(1j * rng.uniform(-np.pi, np.pi, len(keys)))
    values[rng.random(len(keys)) < 0.05] = 0
    spec = make_prime_table_spec(dict(zip(keys, values.tolist())), rule="explicit")
    ps = t.primes_upto(x)
    psc = ps.astype(np.float64)
    fp = prime_values(spec, ps, t)
    for psi, tw in ((None, 0.0), (character_by_index(7, 2), 1.5)):
        psi_p = np.ones(len(ps)) if psi is None else character_row(psi)[ps % psi.q]
        base = np.conj(psi_p) / psc * np.exp(-1j * tw * np.log(psc))
        got = _explicit_series(spec, ps, fp, base, x)
        assert got.tobytes() == _explicit_series_loop(spec, ps, fp, base, x).tobytes()


def test_euler_product_truncation_and_tail():
    t = _table()
    full = euler_product_mean(parse_spec("liouville"), 10**4, t)
    assert full.tail_log_bound == 0.0
    cut = euler_product_mean(parse_spec("liouville"), 10**4, t, truncation=50)
    ps = t.primes_upto(10**4).astype(np.float64)
    small = ps[ps <= 50]
    ref = float(np.prod((1 - 1 / small) / (1 + 1 / small)))
    assert cut.product.real == pytest.approx(ref, rel=1e-12)
    # the tail bound is sum of log(p/(p-2)) over the dropped primes; the true
    # dropped log mass is 2/p + 2/(3p^3) + ... per prime, so it lies within
    # ~3e-5 of the first-order sum of 2/p and below the bound
    expected_tail = float(np.sum(np.log(ps[ps > 50] / (ps[ps > 50] - 2))))
    assert cut.tail_log_bound == pytest.approx(expected_tail, rel=1e-12)
    dropped = abs(math.log(abs(full.product)) - math.log(abs(cut.product)))
    assert dropped == pytest.approx(float(np.sum(2.0 / ps[ps > 50])), abs=1e-4)
    assert dropped <= cut.tail_log_bound
    with pytest.raises(PreconditionError):
        euler_product_mean(parse_spec("liouville"), 100, t, truncation=1)


@pytest.mark.parametrize("q", [0, -3])
def test_euler_product_refuses_q_below_1(q):
    # q = 0 divided by zero, and q = -3 returned a prediction
    with pytest.raises(PreconditionError, match=f"need q >= 1, got q={q}$"):
        euler_product_mean(Mobius(), 1000, _table(), q=q)


def _euler_product_mean_whole(f, x, table, t=0.0, q=1, truncation=None):
    """euler_product_mean as it was, with every temporary over all the
    primes at once; kept as the oracle of the chunked stream."""
    P = x if truncation is None else truncation
    ps = table.primes_upto(P)
    ps = ps[q % ps != 0]
    psc = ps.astype(np.float64)
    fp = prime_values(f, ps, table).astype(np.complex128)
    base = np.exp(-1j * t * np.log(psc)) / psc
    if f.completely_multiplicative:
        z = fp * base
        series = 1.0 / (1.0 - z)
    elif f.vanishes_on_higher_powers:
        series = 1.0 + fp * base
    else:
        series = _explicit_series(f, ps, fp, base, x)
    factors = (1.0 - 1.0 / psc) * series
    log_abs = float(np.sum(np.log(np.abs(factors))))
    product = complex(np.prod(factors))
    s = 1.0 + 1j * t
    prediction = x**s / (q * s) * product
    if P < x:
        tail_ps = table.primes_upto(x)
        tail_ps = tail_ps[tail_ps > P]
        tail = float(np.sum(np.log1p(2.0 / (tail_ps - 2))))
    else:
        tail = 0.0
    return product, log_abs, prediction, tail


def _euler_bytes(fields):
    # bytes, so that signed zeros and NaN payloads count
    return [np.array(v).tobytes() for v in fields]


def _euler_fields(ev):
    return ev.product, ev.log_abs_product, ev.prediction, ev.tail_log_bound


def _random_table_spec(x, rule, seed, table):
    rng = np.random.default_rng(seed)
    keys = []
    for p in table.primes_upto(x).tolist():
        pk, k = p, 1
        while pk <= x and (k == 1 or rule == "explicit"):
            keys.append((p, k))
            pk, k = pk * p, k + 1
    values = np.exp(1j * rng.uniform(-np.pi, np.pi, len(keys)))
    values[rng.random(len(keys)) < 0.05] = 0
    return make_prime_table_spec(dict(zip(keys, values.tolist())), rule)


EULER_FAMILIES = ["mobius", "liouville", "threshold:1000", "one", "legendre:7", "char:12:3",
                  "prod(char:5:2,nit:1.0)", "table:cm", "table:zero", "table:explicit"]


def _euler_family(text, x, table):
    if text.startswith("table:"):
        rule = text[len("table:") :]
        return _random_table_spec(x, rule, len(rule), table)
    return parse_spec(text)


@pytest.mark.parametrize("text", EULER_FAMILIES)
def test_euler_product_byte_identical_to_whole_array(text, table_medium):
    # x = 10^5 has 9592 primes, a full chunk and a partial one
    x = 10**5
    f = _euler_family(text, x, table_medium)
    for q in (1, 2, 12, 30):
        for t in (0.0, 0.5):
            for P in (None, 1000):
                got = euler_product_mean(f, x, table_medium, t=t, q=q, truncation=P)
                want = _euler_product_mean_whole(f, x, table_medium, t=t, q=q, truncation=P)
                assert _euler_bytes(_euler_fields(got)) == _euler_bytes(want), (q, t, P)


@pytest.mark.parametrize("text", ["mobius", "prod(char:5:2,nit:1.0)", "table:explicit"])
def test_euler_product_byte_identical_at_chunk_edges(text, table_medium):
    # prime counts k chunk - 1, k chunk and k chunk + 1, and an excluded
    # prime (one dividing q) on either side of the first chunk edge
    x = 2 * 10**5
    ps = table_medium.primes_upto(x)
    assert len(ps) > 2 * PRIME_CHUNK + 1
    f = _euler_family(text, x, table_medium)
    cases = [(1, int(ps[n - 1])) for k in (1, 2) for n in (k * PRIME_CHUNK - 1,
                                                         k * PRIME_CHUNK,
                                                         k * PRIME_CHUNK + 1)]
    cases += [(int(ps[i]), P) for i in (PRIME_CHUNK - 1, PRIME_CHUNK) for P in (None, int(ps[i]))]
    cases += [(6 * int(ps[PRIME_CHUNK]), None)]
    for q, P in cases:
        for t in (0.0, 0.5):
            got = euler_product_mean(f, x, table_medium, t=t, q=q, truncation=P)
            want = _euler_product_mean_whole(f, x, table_medium, t=t, q=q, truncation=P)
            assert _euler_bytes(_euler_fields(got)) == _euler_bytes(want), (q, P, t)


def test_euler_product_with_no_prime_left():
    # P = 2 and q = 2 leave no prime: the empty product, as np.prod gives it
    ev = euler_product_mean(One(), 3, _table(), q=2, truncation=2)
    assert _euler_bytes(_euler_fields(ev)) == _euler_bytes(
        _euler_product_mean_whole(One(), 3, _table(), q=2, truncation=2))
    assert ev.product == 1 and ev.log_abs_product == 0.0


@pytest.mark.parametrize("text", ["mobius", "prod(char:5:2,nit:1.0)"])
def test_euler_product_peak_is_one_float_per_prime(text, table_medium):
    # the whole-array product held about ten arrays over the 78498 primes
    # (7.5-8.8 MB traced); the stream keeps one float64 log per prime and a
    # few chunks of complex factors
    x = 10**6
    f = parse_spec(text)
    for P in (None, 1000):
        euler_product_mean(f, x, table_medium, t=0.5, truncation=P)  # warm the caches
        tracemalloc.start()
        try:
            euler_product_mean(f, x, table_medium, t=0.5, truncation=P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * len(table_medium.primes_upto(x)) + 12 * 16 * PRIME_CHUNK


@pytest.mark.parametrize("text", ["mobius", "liouville", "one", "char:5:2", "legendre:7"])
@pytest.mark.parametrize("P", [100, 1000])
def test_euler_tail_bounds_the_dropped_factors(table_medium, text, P):
    # the first-order sum of 2/p over the dropped primes is exceeded for mobius
    # and liouville (1.80673 dropped against 1.80491 for mobius at P = 100)
    f = parse_spec(text)
    full = euler_product_mean(f, 10**5, table_medium)
    cut = euler_product_mean(f, 10**5, table_medium, truncation=P)
    dropped = abs(full.log_abs_product - cut.log_abs_product)
    assert dropped <= cut.tail_log_bound


# --------------------------------------------------- progression report


def test_report_exact_character(table_medium):
    rep = progression_report(parse_spec("char:5:2"), 10**5, 5, 10, 2.0, table_medium)
    assert rep.r_divides_q
    assert rep.chi == character_by_index(5, 2)
    assert rep.max_residual <= 1e-6
    for row in rep.rows:
        assert abs(row.residual) <= 1e-6


def test_report_twist_uses_trivial_character(table_medium):
    rep = progression_report(parse_spec("nit:0.5"), 10**5, 5, 10, 2.0, table_medium)
    assert rep.exceptional.conductor == 1
    assert rep.r_divides_q  # 1 divides everything
    assert rep.chi.is_principal()
    assert rep.chi.q == 5


def test_report_mobius_structure(table_medium):
    rep = progression_report(Mobius(), 10**6, 4, 10, 2.0, table_medium)
    assert rep.q == 4 and rep.x == 10**6
    assert len(rep.rows) == 2  # units 1, 3
    assert rep.max_residual == max(abs(r.residual) for r in rep.rows)
    assert rep.normalized_max_residual == pytest.approx(rep.max_residual * 4 / 10**6)
    # reference curves, o(1) = 0: (x/q)/sqrt(log A) and x/(q (log x)^{1/3}) + x/log x
    assert rep.error_ref_power_window == pytest.approx(
        (10**6 / 4) / math.sqrt(math.log(2.0))
    )
    lg = math.log(10**6)
    assert rep.error_ref_log_window == pytest.approx(10**6 / (4 * lg ** (1 / 3)) + 10**6 / lg)
    # desk-scale residuals sit far below both reference curves
    assert rep.max_residual < rep.error_ref_power_window
    assert rep.max_residual < rep.error_ref_log_window


def test_report_power_window_requires_a_above_one():
    rep = progression_report(Mobius(), 10**4, 3, 5, 1.0, _table())
    assert rep.error_ref_power_window is None  # log A = 0 at A = 1


def test_report_residual_definition(table_medium):
    rep = progression_report(Mobius(), 10**5, 3, 10, 2.0, table_medium)
    pt = progression_sums(Mobius(), 10**5, 3, table_medium)
    f1 = pt.sums[1]
    for row in rep.rows:
        direct = pt.sums[row.a % 3] - complex(rep.chi(row.a)) * f1
        assert row.residual == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("q, x", [(0, 1000), (1001, 1000), (MAX_MODULUS + 1, 10**5)])
def test_report_modulus_refused_before_the_scan(monkeypatch, q, x):
    def never(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr("pretentious.meanvalues.find_exceptional", never)
    with pytest.raises(PreconditionError, match="q <= min"):
        progression_report(Mobius(), x, q, 10, 2.0, _table())
