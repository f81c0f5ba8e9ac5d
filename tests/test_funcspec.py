"""Function spec parsing, evaluation, and bulk sieving.

Pointwise values are checked against sympy (mobius, factorint-based
liouville, quadratic symbols); bulk arrays against pointwise evaluation;
summatory values against published tables.
"""

import cmath
import contextlib
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pretentious import funcspec
from pretentious.arith import PrimeTable
from pretentious.characters import character_row
from pretentious.errors import PreconditionError, SpecParseError
from pretentious.funcspec import (
    CharacterSpec,
    FunctionSpec,
    Legendre,
    Liouville,
    Mobius,
    One,
    PrimeTableSpec,
    Product,
    Threshold,
    Twist,
    _legendre_row,
    evaluate,
    make_prime_table_spec,
    parse_spec,
    prime_values,
    values_upto,
)

_TABLE = {}


def _table():
    if "t" not in _TABLE:
        _TABLE["t"] = PrimeTable(2 * 10**4)
    return _TABLE["t"]


# ------------------------------------------------------------- parsing


ROUND_TRIP_CASES = [
    "mobius",
    "liouville",
    "one",
    "legendre:7",
    "char:12:3",
    "nit:0.5",
    "nit:-2.25",
    "prod(char:5:2,nit:1.0)",
    "prod(mobius,legendre:3,nit:0.125)",
    "threshold:100000",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_round_trip_fixed(text):
    spec = parse_spec(text)
    assert parse_spec(spec.render()) == spec


def test_parse_table_forms():
    spec = parse_spec("table:{2:-1,3:0.5+0.5i;rule=cm}")
    assert isinstance(spec, PrimeTableSpec)
    assert spec.rule == "cm"
    assert spec.prime_power_value(2, 1) == -1
    assert spec.prime_power_value(3, 1) == 0.5 + 0.5j
    # unicode minus, as used in hand-written fixtures
    spec2 = parse_spec("table:{2:−1,3:0.5+0.5i;rule=cm}")
    assert spec2 == spec
    # long rule names are accepted as aliases
    spec3 = parse_spec("table:{2:-1;rule=completely_multiplicative}")
    assert spec3.rule == "cm"
    spec4 = parse_spec("table:{2:-1;rule=zero_on_higher_powers}")
    assert spec4.rule == "zero"


def test_parse_complex_forms():
    spec = parse_spec("table:{2:1i,3:-i,5:i,7:-0.5-0.5i;rule=explicit}")
    m = dict(spec.entries)
    assert m[(2, 1)] == 1j
    assert m[(3, 1)] == -1j
    assert m[(5, 1)] == 1j
    assert m[(7, 1)] == -0.5 - 0.5j
    # a real and an imaginary part need a sign between them
    for bad in ("0.3.4i", "1.2.3i", "2..7i"):
        with pytest.raises(SpecParseError, match="bad complex literal"):
            parse_spec(f"table:{{2:{bad},3:1}}")


def test_parse_prime_power_keys():
    spec = parse_spec("table:{2:1,2^2:-1,2^3:0;rule=explicit}")
    assert spec.prime_power_value(2, 2) == -1
    assert spec.prime_power_value(2, 3) == 0


@pytest.mark.parametrize(
    "bad",
    [
        "bogus",
        "bogus:3",
        "legendre:4",  # not prime
        "legendre:2",  # needs an odd prime
        "char:0:0",
        "char:5:9",  # index out of range
        "nit:abc",
        "prod()",
        "prod(mobius",  # unbalanced
        "table:{4:1;rule=cm}",  # 4 is not prime
        "table:{2:1;rule=nonsense}",
        "table:{2:2;rule=cm}",  # |value| > 1
        "table:{2:nan,3:1;rule=cm}",
        "nit:nan",
        "nit:inf",
        "",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises((SpecParseError, PreconditionError)):
        parse_spec(bad)


def _complexes():
    return st.tuples(
        st.floats(-0.7, 0.7, allow_nan=False), st.floats(-0.7, 0.7, allow_nan=False)
    ).map(lambda t: complex(*t))


def _leaf_specs():
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23]
    return st.one_of(
        st.just(Mobius()),
        st.just(Liouville()),
        st.just(One()),
        st.sampled_from(odd_primes).map(Legendre),
        st.tuples(st.integers(1, 30), st.integers(0, 7)).map(
            lambda t: CharacterSpec(t[0], t[1] % max(1, _phi(t[0])))
        ),
        st.floats(-3, 3, allow_nan=False).map(Twist),
        st.builds(
            make_prime_table_spec,
            st.dictionaries(st.sampled_from([2, 3, 5, 7]), _complexes(), min_size=1, max_size=3),
            st.sampled_from(["cm", "zero", "explicit"]),
        ),
        st.integers(10, 10**6).map(Threshold),
    )


def _phi(q):
    return int(sympy.totient(q))


def _specs():
    return st.recursive(
        _leaf_specs(),
        lambda children: st.lists(children, min_size=2, max_size=3).map(
            lambda fs: Product(tuple(fs))
        ),
        max_leaves=4,
    )


@settings(max_examples=150, deadline=None)
@given(_specs())
def test_round_trip_random(spec):
    text = spec.render()
    assert parse_spec(text) == spec


# ---------------------------------------------------------- evaluation


def test_mobius_matches_sympy():
    t = _table()
    for n in range(1, 300):
        assert evaluate(Mobius(), n, t) == sympy.mobius(n)


def test_liouville_matches_factor_parity():
    t = _table()
    for n in range(1, 300):
        omega = sum(sympy.factorint(n).values())
        assert evaluate(Liouville(), n, t) == (-1) ** omega


def test_legendre_matches_sympy():
    t = _table()
    for p in (3, 7, 11):
        spec = Legendre(p)
        for n in range(1, 100):
            expected = sympy.legendre_symbol(n % p, p) if n % p else 0
            assert evaluate(spec, n, t) == expected


def test_legendre_row_is_eulers_criterion():
    # (n|p) = n^((p-1)/2) mod p, by square-and-multiply over all n at once
    for p in PrimeTable(10**4).primes_upto(10**4)[1:].tolist():
        n = np.arange(p, dtype=np.int64)
        power, base, e = np.ones(p, dtype=np.int64), n.copy(), (p - 1) // 2
        while e:
            if e & 1:
                power = power * base % p
            base = base * base % p
            e >>= 1
        power[power == p - 1] = -1
        row = _legendre_row(p)
        assert row.dtype == np.int8 and not row.flags.writeable
        assert np.array_equal(row, power), p


def test_character_spec_is_character():
    t = _table()
    spec = parse_spec("char:7:2")
    from pretentious.characters import character_by_index

    chi = character_by_index(7, 2)
    for n in range(1, 60):
        assert evaluate(spec, n, t) == pytest.approx(chi(n))


def test_twist_value():
    t = _table()
    spec = Twist(0.5)
    for n in (1, 2, 10, 99):
        assert evaluate(spec, n, t) == pytest.approx(cmath.exp(0.5j * math.log(n)))


def test_product_evaluation():
    t = _table()
    spec = Product((Mobius(), Legendre(3)))
    for n in range(1, 60):
        assert evaluate(spec, n, t) == evaluate(Mobius(), n, t) * evaluate(Legendre(3), n, t)


def test_threshold_signs():
    t = _table()
    spec = Threshold(10**4)
    cut = spec.cutoff
    assert (10**4) ** (1 / (1 + math.sqrt(math.e))) == pytest.approx(cut)
    for p in (2, 3, 5, 7, 11, 13, 29, 31, 97):
        expected = 1 if p <= cut else -1
        assert evaluate(spec, p, t) == expected
    # completely multiplicative completion
    assert evaluate(spec, 4, t) == 1


def test_legendre_modulus_above_the_sieve_limit_refused_before_trial_division(monkeypatch):
    # trial division to sqrt(p) ran for minutes on a 126-digit p, and every
    # fill or read at the primes would hold a row of p residues
    def never(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(funcspec, "is_prime_small", never)
    monkeypatch.setattr("pretentious.arith.is_prime_small", never)
    for p in (100000007, 10**18 + 3, 10**125 + 3):
        with pytest.raises(PreconditionError) as refused:
            parse_spec(f"legendre:{p}")
        assert str(refused.value) == f"legendre modulus {p} exceeds the sieve limit 100000000"


def test_threshold_scale_whose_cutoff_overflows_is_refused():
    # parsed, and then x0**THRESHOLD_EXPONENT ended the run in an OverflowError
    with pytest.raises(PreconditionError, match="^threshold scale of 1329 bits overflows a float$"):
        parse_spec("threshold:1" + "0" * 400)
    assert Threshold(10**308).cutoff > 1


def test_table_completion_rules():
    t = _table()
    cm = make_prime_table_spec({2: -1.0}, rule="cm")
    assert evaluate(cm, 8, t) == -1
    zero = make_prime_table_spec({2: -1.0}, rule="zero")
    assert evaluate(zero, 8, t) == 0
    explicit = make_prime_table_spec({(2, 1): -1.0, (2, 2): 0.5}, rule="explicit")
    assert evaluate(explicit, 4, t) == 0.5
    with pytest.raises(PreconditionError):
        evaluate(explicit, 8, t)


def test_value_bound_enforced():
    with pytest.raises(PreconditionError):
        make_prime_table_spec({2: 1.5})


def test_table_memo_built_once_and_outside_eq_hash():
    spec = make_prime_table_spec({2: -1, 3: 0.5j, 5: 1})
    twin = make_prime_table_spec({2: -1, 3: 0.5j, 5: 1})
    mixed = make_prime_table_spec({2: -1, (2, 2): 0.5, 3: 1}, rule="explicit")
    for table in (spec, mixed):
        assert table._prime_arrays is table._prime_arrays
    assert spec._prime_arrays[0].tolist() == [2, 3, 5]
    assert mixed._prime_arrays[0].tolist() == [2, 3]
    # spec holds its memo and twin does not
    assert "_prime_arrays" in vars(spec) and "_prime_arrays" not in vars(twin)
    assert spec == twin and hash(spec) == hash(twin)


def test_duplicate_table_keys_refused_as_by_the_parser():
    # 2 and (2, 1) name one key, which a render would write twice
    with pytest.raises(SpecParseError) as parsed:
        parse_spec("table:{2:-1.0,2:0.5;rule=cm}")
    with pytest.raises(SpecParseError) as made:
        make_prime_table_spec({2: -1.0, (2, 1): 0.5})
    with pytest.raises(SpecParseError) as built:
        PrimeTableSpec((((3, 1), 1.0), ((2, 1), -1.0), ((2, 1), 0.5)))
    assert str(made.value) == str(built.value) == str(parsed.value) == "duplicate keys in table spec"


def test_table_keys_and_values_refused_before_the_sieve(monkeypatch):
    def never(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(funcspec, "sieve_primes", never)
    cases = [
        ({2: 1, 100000007: 1}, "table key 100000007^1 exceeds the sieve limit 100000000"),
        ({2: 1, 2**63: 1}, f"table key {2**63}^1 exceeds the sieve limit 100000000"),
        ({2: 1, 2**80: 1}, f"table key {2**80}^1 exceeds the sieve limit 100000000"),
        ({1: 1, 3: 1}, "table key 1^1 is not a prime power"),
        ({(3, 0): 1}, "table key 3^0 is not a prime power"),
        ({2.0: 1}, "table key 2.0^1 is not a prime power"),
        ({(2, 128): 1}, "table key 2^128 has an exponent above 127"),
        ({2: 1, 3: 1.5}, "|f(3^1)| = 1.500000 exceeds 1"),
        ({2: 1, (3, 2): complex("nan")}, "|f(3^2)| = nan exceeds 1"),
    ]
    for values, message in cases:
        with pytest.raises(PreconditionError) as refused:
            make_prime_table_spec(values)
        assert str(refused.value) == message


def _oracle_value(spec, p, k):
    """The dict lookup that table specs ran before they held arrays, kept as
    the oracle: the entries as a dict, then the rule's completion."""
    m = dict(spec.entries)
    if (p, k) in m:
        return m[(p, k)]
    if spec.rule == "cm":
        if (p, 1) not in m:
            raise PreconditionError(f"table spec has no value at prime {p}")
        return m[(p, 1)] ** k
    if spec.rule == "zero":
        if k >= 2:
            return 0
        raise PreconditionError(f"table spec has no value at prime {p}")
    raise PreconditionError(f"explicit table spec has no value at {p}^{k}")


def _same_outcome(call, oracle):
    """call() and oracle() return equal values, signed zeros alike, or raise
    PreconditionError with one message."""
    try:
        want = oracle()
    except PreconditionError as e:
        with pytest.raises(PreconditionError) as got:
            call()
        assert str(got.value) == str(e)
        return
    got = call()
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    else:
        assert repr(got) == repr(want)


_TABLE_PRIMES = [2, 3, 5, 7, 11, 13]


@st.composite
def _table_dicts(draw):
    """A {p: v} / {(p, k): v} dict over a few prime powers, and a rule."""
    keys = draw(st.lists(st.tuples(st.sampled_from(_TABLE_PRIMES), st.integers(1, 3)),
                         unique=True, max_size=12))
    value = st.one_of(_complexes(), st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, -0.5 + 0j]))
    values = {}
    for p, k in keys:
        values[p if k == 1 and draw(st.booleans()) else (p, k)] = draw(value)
    return values, draw(st.sampled_from(funcspec.COMPLETION_RULES))


@settings(max_examples=200, deadline=None)
@given(_table_dicts())
def test_table_spec_matches_the_dict_oracle(case):
    values, rule = case
    pairs = [((key, 1) if isinstance(key, int) else key, complex(v)) for key, v in values.items()]
    spec = make_prime_table_spec(values, rule)
    assert dict(spec.entries) == dict(pairs)
    assert [pk for pk, _ in spec.entries] == sorted(pk for pk, _ in pairs)
    # the same table from the parser and from the constructor, in the
    # dict's order and reversed
    text = ",".join(f"{p}^{k}:{funcspec._render_complex(v)}" for (p, k), v in pairs)
    twins = [parse_spec(f"table:{{{text};rule={rule}}}"), PrimeTableSpec(pairs[::-1], rule),
             parse_spec(spec.render())]
    for twin in twins:
        assert twin == spec and hash(twin) == hash(spec)
        assert twin.render() == spec.render()
    for p in _TABLE_PRIMES:
        for k in range(1, 5):
            _same_outcome(lambda: spec.prime_power_value(p, k), lambda: _oracle_value(spec, p, k))
    covered = sorted(p for (p, k), _ in pairs if k == 1)
    for ps in (np.array(_TABLE_PRIMES), np.array(covered, dtype=np.int64)):
        _same_outcome(
            lambda: prime_values(spec, ps, _table()),
            lambda: np.array([_oracle_value(spec, int(p), 1) for p in ps], dtype=np.complex128))


_TABLE_AT_1E7 = """
import tracemalloc
import numpy as np
from pretentious.arith import sieve_primes
from pretentious.funcspec import make_prime_table_spec
ps = sieve_primes(10**7)
thetas = np.random.default_rng(0).uniform(-np.pi, np.pi, len(ps))
values = dict(zip(ps.tolist(), np.exp(1j * thetas).tolist()))
del ps, thetas
tracemalloc.start()
spec = make_prime_table_spec(values, "cm")
spec._prime_arrays
held, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
out = dict(keys=len(values), held=held, peak=peak)
"""


def test_table_spec_over_the_primes_to_1e7_holds_arrays(fresh_process):
    # its own process, as the 664,579-entry input dict alone is about 100 MB
    # of Python objects: the spec holds 25 bytes per key (about 280 as a
    # tuple of tuples with a dict beside it), and the one sieve of its keys
    # and the sort scratch stay within a few arrays over the keys
    out = fresh_process(_TABLE_AT_1E7)
    assert out["keys"] == 664579
    assert out["held"] <= 32 * out["keys"]
    assert out["peak"] <= 96 * out["keys"]


# ------------------------------------------------------------- sieving


SPECS_FOR_BULK = [
    "mobius",
    "liouville",
    "one",
    "legendre:7",
    "char:12:1",
    "nit:0.5",
    "prod(mobius,char:5:2)",
    "threshold:1000",
]


@pytest.mark.parametrize("text", SPECS_FOR_BULK)
def test_values_upto_matches_pointwise(text):
    t = _table()
    spec = parse_spec(text)
    x = 400
    vals = values_upto(spec, x, t)
    assert vals.shape == (x + 1,)
    assert vals[0] == 0
    for n in range(1, x + 1):
        assert vals[n] == pytest.approx(complex(evaluate(spec, n, t)), abs=1e-12)


@pytest.mark.parametrize("text", SPECS_FOR_BULK)
def test_prime_values_matches_pointwise(text):
    t = _table()
    spec = parse_spec(text)
    ps = t.primes_upto(500)
    vals = prime_values(spec, ps, t)
    for p, v in zip(ps, vals):
        assert v == pytest.approx(complex(evaluate(spec, int(p), t)), abs=1e-12)


def test_bulk_table_spec_needs_full_prime_coverage():
    # a table over {2,3} is undefined at 5; bulk evaluation must refuse
    t = _table()
    partial = make_prime_table_spec({2: -0.5, 3: 0.25}, rule="cm")
    with pytest.raises(PreconditionError):
        values_upto(partial, 100, t)


def test_bulk_table_spec_complete():
    t = _table()
    x = 50
    entries = {int(p): complex(-1.0) ** i for i, p in enumerate(t.primes_upto(x))}
    for rule in ("cm", "zero"):
        spec = make_prime_table_spec(entries, rule=rule)
        vals = values_upto(spec, x, t)
        for n in range(1, x + 1):
            assert vals[n] == pytest.approx(complex(evaluate(spec, n, t)), abs=1e-12)
        pv = prime_values(spec, t.primes_upto(x), t)
        for p, v in zip(t.primes_upto(x), pv):
            assert v == pytest.approx(complex(evaluate(spec, int(p), t)), abs=1e-12)


def test_summatory_mobius(table_large):
    # Mertens values from published tables
    vals = values_upto(Mobius(), 10**6, table_large)
    csum = np.cumsum(vals)
    assert csum[10**4] == -23
    assert csum[10**5] == -48
    assert csum[10**6] == 212


def test_summatory_liouville(table_large):
    vals = values_upto(Liouville(), 10**6, table_large)
    csum = np.cumsum(vals)
    assert csum[10**4] == -94
    assert csum[10**5] == -288
    assert csum[10**6] == -530


def test_mertens_ten_million(table_large):
    vals = values_upto(Mobius(), 10**7, table_large)
    assert int(vals.sum()) == 1037


def test_real_valued_flags():
    assert Mobius().real_valued
    assert not Twist(0.5).real_valued
    assert parse_spec("char:5:2").real_valued  # order-2 character
    assert not parse_spec("char:5:1").real_valued
    assert Product((Mobius(), Twist(0.5))).real_valued is False


def test_completely_multiplicative_flags():
    assert Liouville().completely_multiplicative
    assert not Mobius().completely_multiplicative
    assert Product((Liouville(), One())).completely_multiplicative
    assert not Product((Mobius(), One())).completely_multiplicative


def test_vanishes_on_higher_powers_flags():
    assert Mobius().vanishes_on_higher_powers
    assert not Liouville().vanishes_on_higher_powers
    for rule in ("cm", "zero", "explicit"):
        table = make_prime_table_spec({2: -1.0}, rule=rule)
        assert table.vanishes_on_higher_powers is (rule == "zero")
    assert parse_spec("prod(mobius,liouville)").vanishes_on_higher_powers
    assert not parse_spec("prod(liouville,nit:0.5)").vanishes_on_higher_powers


def test_every_family_defines_its_values_and_text():
    families = [c for c in vars(funcspec).values()
                if isinstance(c, type) and issubclass(c, FunctionSpec) and c is not FunctionSpec]
    assert len(families) >= 9  # the built-in families
    for cls in families:
        assert {"prime_power_value", "at_primes", "render"} <= set(vars(cls)), cls.__name__


# ------------------------------------------------------- family contract
#
# What the library reads off a spec's class, checked against its
# prime_power_value for every family and every product of two.

CONTRACT_X = 10**4
CONTRACT_FAMILIES = ["mobius", "liouville", "one", "legendre:7", "char:28:5", "nit:0.5",
                     "threshold:5000", "table:cm", "table:zero", "table:explicit"]
CONTRACT_CASES = [[text] for text in CONTRACT_FAMILIES] + [
    list(pair) for pair in itertools.combinations(CONTRACT_FAMILIES, 2)]


@pytest.mark.parametrize("texts", CONTRACT_CASES, ids=",".join)
def test_family_contract(texts):
    factors = [_two_range_spec(text, CONTRACT_X) for text in texts]
    spec = factors[0] if len(factors) == 1 else Product(tuple(factors))
    t = _table()
    ps = t.primes_upto(CONTRACT_X)
    fp = spec.at_primes(ps)
    assert fp.dtype == (np.float64 if spec.fill_dtype == np.int8 else np.complex128)
    np.testing.assert_allclose(fp, [spec.prime_power_value(p, 1) for p in ps.tolist()],
                               rtol=0, atol=1e-12)
    vals = values_upto(spec, CONTRACT_X, t)
    assert vals.dtype == spec.fill_dtype
    if spec.fill_dtype == np.int8:
        # the int8 class sums in meanvalues count on it
        assert set(np.unique(vals).tolist()) <= {-1, 0, 1}
    if spec.vanishes_on_higher_powers:
        powers = [(p, k) for p in ps.tolist() for k in range(2, 14) if p**k <= CONTRACT_X]
        assert all(spec.prime_power_value(p, k) == 0 for p, k in powers)
        assert not vals[[p**k for p, k in powers]].any()


# ------------------------------------------------ fill kernel vs oracles
#
# The fill paths that the vectorized filler replaced, kept as oracles: the
# mobius and prime-power sign sieves (exact, int8) and the per-n recursion
# f(n) = f(n / p^k) f(p^k) along smallest prime factors.


def _mobius_upto(x: int, table: PrimeTable) -> np.ndarray:
    vals = np.ones(x + 1, dtype=np.int8)
    vals[0] = 0
    for p in table.primes_upto(x):
        p = int(p)
        vals[p::p] *= -1
    for p in table.primes_upto(math.isqrt(x)):
        p2 = int(p) * int(p)
        vals[p2::p2] = 0
    return vals


def _sign_sieve_upto(x: int, primes) -> np.ndarray:
    # (-1)^(number of prime-power divisors from `primes`), counted with
    # multiplicity: flip multiples of p, p^2, p^3, ...
    vals = np.ones(x + 1, dtype=np.int8)
    vals[0] = 0
    for p in primes:
        pk = int(p)
        while pk <= x:
            vals[pk::pk] *= -1
            pk *= int(p)
    return vals


def _spf_table(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p::p]
            view[view == 0] = p
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf


def _values_upto_loop(spec, x: int) -> np.ndarray:
    spf = _spf_table(x)
    out = np.ones(x + 1, dtype=np.complex128)
    out[0] = 0
    for n in range(2, x + 1):
        p = int(spf[n])
        m = n // p
        k = 1
        while m % p == 0:
            m //= p
            k += 1
        out[n] = out[m] * spec.prime_power_value(p, k)
    return out


def _random_table_spec(x, rule, seed, table):
    rng = np.random.default_rng(seed)
    keys = []
    for p in table.primes_upto(x).tolist():
        pk, k = p, 1
        while pk <= x and (k == 1 or rule == "explicit"):
            keys.append((p, k))
            pk, k = pk * p, k + 1
    # unimodular values, with a share of zeros so vanishing factors occur
    values = np.exp(1j * rng.uniform(-np.pi, np.pi, len(keys)))
    values[rng.random(len(keys)) < 0.05] = 0
    return make_prime_table_spec(dict(zip(keys, values.tolist())), rule)


@st.composite
def _table_specs(draw):
    x = draw(st.integers(min_value=1, max_value=2 * 10**4))
    rule = draw(st.sampled_from(["cm", "zero", "explicit"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return x, _random_table_spec(x, rule, seed, _table())


@settings(max_examples=25, deadline=None)
@given(_table_specs())
def test_fill_matches_per_n_loop(case):
    x, spec = case
    got = values_upto(spec, x, _table())
    assert got.dtype == np.complex128
    np.testing.assert_allclose(got, _values_upto_loop(spec, x), rtol=0, atol=1e-12)


def _multiplicative_fill(spec, x: int, table: PrimeTable, dtype) -> np.ndarray:
    """The whole-array filler that the blockwise one replaced, kept as its
    oracle: pass 1 multiplies f(P) into m*P for the one prime P > sqrt(x)
    of each n, looping over m; pass 2 multiplies every multiple of p <=
    sqrt(x), p descending, by f(p^k) read off an exponent array."""
    vals = np.ones(x + 1, dtype=dtype)
    vals[0] = 0
    root = math.isqrt(x)
    primes = table.primes_upto(x)
    fp = prime_values(spec, primes, table).astype(dtype)
    split = np.searchsorted(primes, root, side="right")
    large, f_large = primes[split:], fp[split:]
    for m in range(1, x // (root + 1) + 1):
        hi = np.searchsorted(large, x // m, side="right")
        vals[m * large[:hi]] *= f_large[:hi]
    for i in range(split - 1, -1, -1):
        p = int(primes[i])
        f_pk = [0, fp[i]]
        exps = np.ones(x // p, dtype=np.int8)  # exps[j] = k with p^k || (j + 1) p
        pk = p
        while pk <= x // p:
            exps[pk - 1 :: pk] += 1
            pk *= p
            f_pk.append(spec.prime_power_value(p, len(f_pk)))
        vals[p::p] *= np.array(f_pk, dtype=dtype)[exps]
    return vals


def _values_upto_whole(spec, x: int, table: PrimeTable) -> np.ndarray:
    """The whole-array values_upto that the blockwise fill replaced: closed
    forms over all of 0..x, products in place, the filler above for the rest."""
    if isinstance(spec, One):
        vals = np.ones(x + 1, dtype=np.int8)
        vals[0] = 0
        return vals
    if isinstance(spec, (Legendre, CharacterSpec)):
        row = _legendre_row(spec.p) if isinstance(spec, Legendre) else character_row(spec.character)
        vals = np.tile(row, x // len(row) + 1)[: x + 1]
        vals[0] = 0
        return vals
    if isinstance(spec, Twist):
        n = np.arange(x + 1, dtype=np.float64)
        n[0] = 1.0
        vals = np.zeros(x + 1, dtype=np.complex128)
        np.multiply(np.log(n, out=n), spec.t, out=vals.imag)
        np.exp(vals, out=vals)
        vals[0] = 0
        return vals
    if isinstance(spec, Product):
        out = _values_upto_whole(spec.factors[0], x, table).astype(np.complex128, copy=False)
        for f in spec.factors[1:]:
            out *= _values_upto_whole(f, x, table)
        return out
    signs = isinstance(spec, (Mobius, Liouville, Threshold))
    return _multiplicative_fill(spec, x, table, np.int8 if signs else np.complex128)


BLOCK_WIDTHS = (7, 64, 1000)
NAMED_FILL_SPECS = ["mobius", "liouville", "threshold:5000", "one", "legendre:7", "char:12:1",
                    "char:28:5", "nit:0.73", "prod(char:5:2,nit:1.0)", "prod(mobius,nit:0.5)",
                    "prod(legendre:3,char:7:2,liouville)"]


@st.composite
def _fill_cases(draw):
    width = draw(st.sampled_from(BLOCK_WIDTHS))
    if draw(st.booleans()):
        x, spec = draw(_table_specs())
        if draw(st.booleans()):
            spec = Product((spec, Twist(draw(st.floats(-3, 3)))))
    else:
        spec = parse_spec(draw(st.sampled_from(NAMED_FILL_SPECS)))
        # besides any x, one whose last block is full and one where it is one long
        k = draw(st.integers(1, 2 * 10**4 // width))
        x = draw(st.sampled_from([draw(st.integers(1, 2 * 10**4)), k * width - 1, k * width]))
    return width, x, spec


@settings(max_examples=150, deadline=None)
@given(_fill_cases())
def test_blockwise_fill_byte_identical_to_whole_array(block_width, case):
    # widths below sqrt(x), prime powers straddling block edges, a last block
    # that is full or one long: every block must hold the whole-array values
    width, x, spec = case
    want = _values_upto_whole(spec, x, _table())
    with block_width(width):
        got = values_upto(spec, x, _table())
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", NAMED_FILL_SPECS + ["table:cm", "table:zero", "table:explicit"])
def test_fill_byte_identical_at_several_widths_at_1e6(text, block_width, table_medium):
    # a default sign block at 10^6 scatters some 700k pass-1 entries, in
    # runs of about _CHUNK entries; narrower blocks move every edge
    x = 10**6
    if text.startswith("table:"):
        rule = text[len("table:") :]
        spec = _random_table_spec(x, rule, len(rule), table_medium)
    else:
        spec = parse_spec(text)
    want = _values_upto_whole(spec, x, table_medium)
    got = values_upto(spec, x, table_medium)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    for width in (1 << 14, 3 * 10**5 + 7):
        with block_width(width):
            assert values_upto(spec, x, table_medium).tobytes() == want.tobytes(), width


@settings(max_examples=40, deadline=None)
@given(_fill_cases(), st.sampled_from([1, 5, 64]))
def test_fill_byte_identical_in_small_scatter_runs(block_width, case, chunk):
    # runs of a few pass-1 entries, single cofactors longer than a run, and
    # f at the primes read a few primes at a time
    width, x, spec = case
    want = _values_upto_whole(spec, x, _table())
    with block_width(width), pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcspec, "_CHUNK", chunk)
        mp.setattr(funcspec, "PRIME_CHUNK", chunk)
        got = values_upto(spec, x, _table())
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------- two-range fill
#
# A complex block is filled as two halves at once, the far one on the worker
# thread; an int8 block is filled whole in the calling thread.


class _RangeLog:
    """The ranges written while `_logged_ranges` is active, as (on the main
    thread?, lo, hi), and how many are being written right now."""

    def __init__(self):
        self.entries = []
        self.active = 0
        self.lock = threading.Lock()

    def on_worker(self):
        return [(lo, hi) for main, lo, hi in self.entries if not main]


class _RangeFailure(RuntimeError):
    pass


@contextlib.contextmanager
def _logged_ranges(raise_at=None, far_delay=0.0):
    """Patch the range fills to log every range they write.  A range at
    lo == raise_at raises on the thread that fills it; ranges on the worker
    sleep far_delay seconds first."""
    log = _RangeLog()
    make = funcspec._range_fill

    def logged_range_fill(spec, x, table):
        fill = make(spec, x, table)

        def logged(lo, hi, out):
            main = threading.current_thread() is threading.main_thread()
            with log.lock:
                log.entries.append((main, lo, hi))
                log.active += 1
            try:
                if not main:
                    time.sleep(far_delay)
                if lo == raise_at:
                    where = "main" if main else "worker"
                    raise _RangeFailure(f"range at {lo} on the {where} thread")
                fill(lo, hi, out)
            finally:
                with log.lock:
                    log.active -= 1

        return logged

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcspec, "_range_fill", logged_range_fill)
        yield log


TWO_RANGE_SPECS = NAMED_FILL_SPECS + ["prod(mobius,liouville)", "prod(nit:0.5,legendre:7)",
                                      "table:cm", "table:zero", "table:explicit",
                                      "prod(table:cm,mobius)"]
# at x = 10^4, widths with a last block one long (1000, 2000), shorter than
# the rest (777, 5001) or full (10001), and odd widths whose complex halves
# differ by one
TWO_RANGE_WIDTHS = (1000, 2000, 777, 5001, 10001)


def _two_range_spec(text, x):
    if text == "prod(table:cm,mobius)":
        return Product((_two_range_spec("table:cm", x), Mobius()))
    if text.startswith("table:"):
        rule = text[len("table:") :]
        return _random_table_spec(x, rule, len(rule), _table())
    return parse_spec(text)


@pytest.mark.parametrize("text", TWO_RANGE_SPECS)
def test_two_range_fill_byte_identical_to_whole_array(text, block_width):
    x = 10**4
    spec = _two_range_spec(text, x)
    want = _values_upto_whole(spec, x, _table())
    int8 = want.dtype == np.int8
    for width in TWO_RANGE_WIDTHS:
        with block_width(width), _logged_ranges() as log:
            got = values_upto(spec, x, _table())
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), width
        if int8:
            # every block whole, in order, on the main thread
            assert log.on_worker() == [], width
            assert log.entries == [(True, lo, min(lo + width, x + 1))
                                   for lo in range(0, x + 1, width)], width
        else:
            # the worker fills the far half of every block longer than one
            far = {(hi - (hi - lo) // 2, hi) for lo in range(0, x + 1, width)
                   for hi in [min(lo + width, x + 1)] if hi - lo > 1}
            assert set(log.on_worker()) == far, width


@pytest.mark.parametrize("text", ["prod(char:5:2,nit:1.0)"])
def test_a_failing_range_reaches_the_caller_with_the_worker_idle(text, block_width):
    x, width = 10**4, 1000
    spec = parse_spec(text)
    want = _values_upto_whole(spec, x, _table())
    # the block at 3000 is written as halves at 3000 and 3500; the worker
    # takes the second
    near, far = 3000, 3500
    with block_width(width):
        with _logged_ranges(raise_at=far) as log:
            with pytest.raises(_RangeFailure, match="on the worker thread"):
                values_upto(spec, x, _table())
        # a failure in the calling thread waits for the worker's range
        with _logged_ranges(raise_at=near, far_delay=0.05) as log:
            with pytest.raises(_RangeFailure, match="on the main thread"):
                values_upto(spec, x, _table())
            assert (far, 4000) in log.on_worker()
            assert log.active == 0
        assert values_upto(spec, x, _table()).tobytes() == want.tobytes()


def test_a_failing_sign_range_raises_in_the_calling_thread(block_width):
    # int8 blocks never reach the worker, so the block at 3000 fails on the
    # main thread and no range is logged on the worker
    x, width = 10**4, 1000
    want = _values_upto_whole(Mobius(), x, _table())
    with block_width(width):
        with _logged_ranges(raise_at=3000) as log:
            with pytest.raises(_RangeFailure, match="on the main thread"):
                values_upto(Mobius(), x, _table())
            assert log.on_worker() == []
            assert log.active == 0
        assert values_upto(Mobius(), x, _table()).tobytes() == want.tobytes()


@pytest.mark.parametrize("text", ["prod(char:5:2,nit:1.0)"])
def test_closing_a_fill_early_leaves_the_worker_idle(text, block_width):
    x, width = 10**4, 1000
    spec = parse_spec(text)
    want = _values_upto_whole(spec, x, _table())
    with block_width(width):
        with _logged_ranges(far_delay=0.05) as log:
            blocks = funcspec._fill_blocks(spec, x, _table())
            lo, block = next(blocks)
            assert lo == 0 and block.tobytes() == want[: len(block)].tobytes()
            assert log.on_worker()
            blocks.close()
            assert log.active == 0
        assert values_upto(spec, x, _table()).tobytes() == want.tobytes()


def test_concurrent_fills_share_the_worker(block_width):
    # more calling threads than cores, the complex fills handing ranges to
    # the one worker, with thread switches forced often
    x = 10**4
    specs = [parse_spec(t) for t in ("mobius", "prod(char:5:2,nit:1.0)", "liouville", "nit:0.73")]
    wants = [_values_upto_whole(s, x, _table()) for s in specs]
    failures = []

    def run(spec, want):
        for _ in range(5):
            if values_upto(spec, x, _table()).tobytes() != want.tobytes():
                failures.append(spec)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with block_width(700):
            threads = [threading.Thread(target=run, args=pair) for pair in zip(specs, wants)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert failures == []


_THREADS_AT_IMPORT = """
import sys, threading
import pretentious, pretentious.cli
from pretentious.arith import PrimeTable
from pretentious.funcspec import Mobius, parse_spec, values_upto
from pretentious.meanvalues import progression_sums
before = (threading.active_count(), "concurrent.futures" in sys.modules)
values_upto(Mobius(), 10**5, PrimeTable(10**5))  # one int8 block: one range
progression_sums(Mobius(), 3 * 2**20, 5, PrimeTable(3 * 2**20))  # int8 blocks, one range each
one_range = (threading.active_count(), "concurrent.futures" in sys.modules)
values_upto(parse_spec("nit:0.5"), 10**3, PrimeTable(10**3))  # two halves
two_ranges = (threading.active_count(), "concurrent.futures" in sys.modules)
print(before, one_range, two_ranges)
"""


def _run_in_a_fresh_process(code: str) -> str:
    src = str(Path(funcspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_no_thread_until_a_fill_has_two_ranges():
    # CLI start-up and sign fills of any length stay threadless
    out = _run_in_a_fresh_process(_THREADS_AT_IMPORT)
    assert out.strip() == "(1, False) (1, False) (2, True)"


_FILL_AFTER_FORK = """
import multiprocessing
from pretentious.arith import PrimeTable
from pretentious.funcspec import parse_spec, values_upto

def fill(_):
    return values_upto(parse_spec("prod(char:5:2,nit:1.0)"), 10**4, PrimeTable(10**4)).tobytes()

if __name__ == "__main__":
    want = fill(0)  # starts the worker in the parent
    with multiprocessing.get_context("fork").Pool(1) as pool:
        print(pool.apply_async(fill, (0,)).get(timeout=30) == want)
"""


def test_a_forked_child_fills_without_the_parents_worker():
    # the child inherits the executor but not its thread; it starts its own
    assert _run_in_a_fresh_process(_FILL_AFTER_FORK).split() == ["True"]


@pytest.mark.parametrize("text, bound", [("mobius", 2.5), ("prod(char:5:2,nit:1.0)", 4)])
def test_multi_block_fill_peak_at_the_default_widths(text, bound, table_large):
    # four blocks at the default widths: a sign fill holds one block and the
    # scratch of one range (measured 2.1 blocks beside the result), a complex
    # fill one block and the scratch of its two halves (3.5 blocks)
    spec = parse_spec(text)
    int8 = isinstance(spec, Mobius)
    width = funcspec.SIGN_FILL_BLOCK_WIDTH if int8 else funcspec.FILL_BLOCK_WIDTH
    values_upto(spec, 4 * width, table_large)  # warm the caches, and start the worker for complex f
    tracemalloc.start()
    try:
        vals = values_upto(spec, 4 * width, table_large)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= vals.nbytes + bound * width * vals.itemsize


def test_sign_fill_peak_is_the_result_plus_a_few_blocks(table_medium):
    # pass 1 held int64 indices for every n of a block, about 16 bytes per n
    # (17.6 MB traced here), and f at the primes as float64
    x = 10**6
    for spec in (Mobius(), Liouville(), Threshold(1000)):
        values_upto(spec, x, table_medium)  # warm the caches
        tracemalloc.start()
        try:
            vals = values_upto(spec, x, table_medium)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.nbytes == x + 1
        assert peak <= vals.nbytes + 3 * funcspec.SIGN_FILL_BLOCK_WIDTH


@pytest.mark.parametrize("chunk", [1 << 12, funcspec._CHUNK])
def test_sign_range_scratch_is_set_by_the_chunk(chunk, table_large):
    # one 2^20 range at x = 4 * 2^20 of a threshold whose f(P) takes both
    # signs above sqrt(x), so that pass 1 gathers: the cofactor m = 1 alone
    # holds about 70k pass-1 entries, and a run that took it whole traced
    # 1.7-1.9 block widths whatever _CHUNK was.  A run now holds at most
    # _CHUNK entries, about 25 bytes each (its idx and n outlive it), beside
    # the per-cofactor arrays, about 50 bytes for each m < hi / sqrt(x)
    spec = Threshold(10**15)
    width = funcspec.SIGN_FILL_BLOCK_WIDTH
    x = 4 * width
    assert math.isqrt(x) < spec.cutoff < x
    want = values_upto(spec, x, table_large)
    out = np.empty(width, np.int8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcspec, "_CHUNK", chunk)
        fill = funcspec._range_fill(spec, x, table_large)
        for lo in range(0, x, width):
            tracemalloc.start()
            try:
                fill(lo, lo + width, out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.tobytes() == want[lo : lo + width].tobytes()
            cofactors = (lo + width - 1) // (math.isqrt(x) + 1)
            assert peak <= 25 * chunk + 64 * cofactors, (lo, peak)


def test_sign_fills_byte_identical_to_sieves():
    x = 10**5
    t = PrimeTable(x)
    ps = t.primes_upto(x)
    threshold = Threshold(10**5)
    cases = [
        (Mobius(), _mobius_upto(x, t)),
        (Liouville(), _sign_sieve_upto(x, ps)),
        (threshold, _sign_sieve_upto(x, ps[ps > threshold.cutoff])),
    ]
    for spec, want in cases:
        got = values_upto(spec, x, t)
        assert got.dtype == np.int8
        assert got.tobytes() == want.tobytes()


# ------------------------------------------------------- gathered sign fills
#
# An int8 fill whose f(P) takes both signs above sqrt(x) scatters f(P) and
# multiplies in one int8 factor array per prime p <= sqrt(x) whose f(p^k)
# are not all 1, as a complex fill does; the other int8 fills run the
# rough-number fill below.


@dataclass(frozen=True)
class _MixedSigns(Threshold):
    """A threshold spec, but mobius-like at 2 and 5 and liouville-like at 3
    and 7, so that the primes p <= 7 take both signs and zeros."""

    completely_multiplicative = False

    def prime_power_value(self, p, k):
        if p in (2, 5):
            return -1 if k == 1 else 0
        if p in (3, 7):
            return -1 if k % 2 else 1
        return super().prime_power_value(p, k)

    def at_primes(self, primes):
        return np.where(primes <= 7, -1.0, super().at_primes(primes))


@st.composite
def _sign_range_cases(draw, width):
    """(spec, x, lo, hi): a sign family at x, and a range of `width` (cut at
    x + 1) holding a multiple of p^2 or p^3 for a small prime p.  Threshold
    cutoffs fall below sqrt(x), where f(P) = -1 at every P > sqrt(x), or
    between 2 sqrt(x) and x / 2, where f(P) takes both signs and pass 1
    gathers; there `_MixedSigns` builds int8 factor arrays for p <= 7."""
    x = draw(st.integers(100, 2 * 10**4))
    root = math.isqrt(x)
    family = draw(st.sampled_from(["mobius", "liouville", "threshold-below", "threshold-above",
                                   "mixed-above"]))
    if family == "mobius":
        spec = Mobius()
    elif family == "liouville":
        spec = Liouville()
    elif family == "threshold-below":
        spec = Threshold(draw(st.integers(2, x)))  # cutoff <= x^0.38 < sqrt(x)
        assert spec.cutoff < root + 1
    else:
        cutoff = draw(st.integers(2 * root + 2, x // 2))
        x0 = math.ceil(cutoff ** (1 / funcspec.THRESHOLD_EXPONENT))
        spec = _MixedSigns(x0) if family == "mixed-above" else Threshold(x0)
        assert root + 1 < spec.cutoff < x
    p = draw(st.sampled_from([q for q in (2, 3, 5, 7, 11) if q * q <= x]))
    pk = p ** draw(st.sampled_from([j for j in (2, 3) if p**j <= x]))
    center = draw(st.integers(1, x // pk)) * pk
    lo = max(center - draw(st.integers(0, width - 1)), 0)
    return spec, x, lo, min(lo + width, x + 1)


@pytest.mark.parametrize("width", BLOCK_WIDTHS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sign_range_fill_byte_identical_to_whole_array(width, data):
    spec, x, lo, hi = data.draw(_sign_range_cases(width))
    want = _multiplicative_fill(spec, x, _table(), np.int8)
    out = np.empty(hi - lo, np.int8)
    funcspec._range_fill(spec, x, _table())(lo, hi, out)
    assert out.tobytes() == want[lo:hi].tobytes()


@dataclass(frozen=True)
class _NotASign(Threshold):
    """A threshold spec, but f(3^2) = 0.5."""

    def prime_power_value(self, p, k):
        return 0.5 if (p, k) == (3, 2) else super().prime_power_value(p, k)


def test_gathered_sign_fill_refuses_a_value_that_is_not_a_sign():
    # a cutoff between sqrt(x) and x: f(P) takes both signs, and pass 1 gathers
    with pytest.raises(AssertionError, match="not a sign"):
        funcspec._range_fill(_NotASign(10**9), 10**4, _table())


def test_rough_steps_add_log_weights_and_flips_and_zero_the_first_zero():
    # f(p^k) for k = 0, 1, ...: a prime below a threshold cutoff never
    # flips, mobius stops at its zero, liouville flips at every power; an
    # add is 2 floor(log2 p^4), plus 1 where f(p^k) != f(p^(k-1))
    small = [(2, [0, 1, 1, 1]), (3, [0, -1, 0]), (5, [0, -1, 1, -1])]
    adds, zeros = funcspec._rough_steps(small)
    assert adds == [(2, 8), (4, 8), (8, 8), (3, 13), (5, 19), (25, 19), (125, 19)]
    assert zeros == [9]
    # the setup refuses a value that is not a sign before the steps are made
    with pytest.raises(AssertionError, match="not a sign"):
        funcspec._range_fill(_NotASign(10**3), 10**3, _table())


@dataclass(frozen=True)
class _Revived(Mobius):
    """Mobius, but f(p^3) = 1: a nonzero power after a zero."""

    def prime_power_value(self, p, k):
        return 1 if k == 3 else super().prime_power_value(p, k)


def test_sign_fill_refuses_a_nonzero_power_after_a_zero():
    with pytest.raises(AssertionError, match="nonzero after a zero"):
        funcspec._range_fill(_Revived(), 100, _table())


# ------------------------------------------------------ rough-number fill
#
# Where f(P) is one sign at every prime P > sqrt(x), the int8 fill runs no
# pass 1: a one-byte log-and-parity sieve of the prime powers p^k <= x,
# p <= sqrt(x), tells the n that carry such a P.


def _rough_families(x):
    """mobius, liouville and a threshold whose cutoff is below sqrt(x)."""
    threshold = Threshold(x)
    assert threshold.cutoff < math.isqrt(x) + 1
    return [Mobius(), Liouville(), threshold]


@st.composite
def _rough_range_cases(draw, width):
    """(spec, x, lo, hi): a rough-fill family at x, and a range of `width`
    (cut at x + 1) across a power of two, where the decode's threshold
    changes, or a multiple of a small prime power."""
    x = draw(st.integers(2, 2 * 10**4))
    spec = draw(st.sampled_from(_rough_families(x)))
    if draw(st.booleans()):
        edge = 1 << draw(st.integers(0, x.bit_length() - 1))
    else:
        pk = draw(st.sampled_from([q for q in (2, 3, 4, 5, 8, 9, 16, 25, 27, 49, 121) if q <= x]))
        edge = draw(st.integers(1, x // pk)) * pk
    lo = max(edge - draw(st.integers(0, width)), 0)
    return spec, x, lo, min(lo + width, x + 1)


@pytest.mark.parametrize("width", BLOCK_WIDTHS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rough_sign_range_fill_byte_identical_to_whole_array(width, data):
    spec, x, lo, hi = data.draw(_rough_range_cases(width))
    want = _multiplicative_fill(spec, x, _table(), np.int8)
    out = np.empty(hi - lo, np.int8)
    funcspec._range_fill(spec, x, _table())(lo, hi, out)
    assert out.tobytes() == want[lo:hi].tobytes()


def test_rough_sign_fill_at_every_tiny_x(block_width):
    # the cofactors of a sub-range read below its least smooth byte at every
    # x, down to x = 2, where 2 and 3 carry the primes above sqrt(x)
    for x in range(1, 300):
        for spec in _rough_families(x) if x > 1 else [Mobius(), Liouville()]:
            want = _multiplicative_fill(spec, x, _table(), np.int8)
            with block_width(7):
                assert values_upto(spec, x, _table()).tobytes() == want.tobytes(), (x, spec)


def test_rough_sign_fill_separates_at_every_x_to_the_sieve_limit():
    # the setup's check at every x <= 10^8 at once: for one r = isqrt(x),
    # the largest cofactor of each [2^i, 2^(i+1)) grows with x, so the
    # largest x with that root bounds every other
    from pretentious.arith import MAX_SIEVE_LIMIT

    assert MAX_SIEVE_LIMIT**9 < 1 << 256
    for r in range(1, math.isqrt(MAX_SIEVE_LIMIT) + 1):
        x = min((r + 1) ** 2 - 1, MAX_SIEVE_LIMIT)
        for i in range(x.bit_length()):
            m = (min(2 << i, x + 1) - 1) // (r + 1)
            assert m**9 < 1 << 6 * i, (r, i, m)


def test_rough_sign_fill_bytes_stay_below_240_at_1e8(table_large):
    # liouville flips at every p^k, so its adds are the largest a sign
    # family makes; each is at most 9 log2 p, so n reads at most 9 log2 n
    x = 10**8
    primes = table_large.primes_upto(math.isqrt(x)).tolist()
    small = []
    for p in primes[::-1]:
        f_pk = [0, -1]
        while p ** len(f_pk) <= x:
            f_pk.append(Liouville().prime_power_value(p, len(f_pk)))
        small.append((p, f_pk))
    adds, zeros = funcspec._rough_steps(small)
    assert zeros == []
    assert len(adds) == sum(len(f_pk) - 1 for _, f_pk in small)
    for d, w in adds:
        p = next(q for q in primes if d % q == 0)
        assert 1 << w <= p**9, (d, w)
    assert x**9 < 1 << 240  # so no byte exceeds 239
    assert sum(w for d, w in adds if (1 << 26) % d == 0) == 9 * 26


def test_rough_sign_fill_runs_only_where_f_is_one_sign_above_sqrt_x(table_small):
    # a threshold whose cutoff lies between sqrt(x) and x still gathers f(P)
    x = 10**4
    calls = []
    rough = funcspec._rough_sign_fill

    def counted(*args):
        calls.append(args[-1])
        return rough(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcspec, "_rough_sign_fill", counted)
        for spec, uses in [(Threshold(10**9), False), (Threshold(10**4), True),
                           (Liouville(), True), (Mobius(), True)]:
            calls.clear()
            got = values_upto(spec, x, table_small)
            assert got.tobytes() == _multiplicative_fill(spec, x, table_small, np.int8).tobytes()
            assert calls == ([-1] if uses else []), spec


@pytest.mark.parametrize("spec", [Mobius(), Liouville(), Threshold(10**6), Threshold(10**15)])
def test_sign_range_fill_allocates_no_factor_array(spec, table_large):
    # with pass 1 in runs of 256 entries, a 2^20 range at x = 4 * 2^20 traced
    # 0.90-0.98 MB while pass 2 built one factor array per prime (half a
    # width for p = 2), and traces 33-107 kB of pass-1 scratch without them
    width = funcspec.SIGN_FILL_BLOCK_WIDTH
    x = 4 * width
    out = np.empty(width, np.int8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcspec, "_CHUNK", 1 << 8)
        fill = funcspec._range_fill(spec, x, table_large)
        for lo in range(0, x, width):
            tracemalloc.start()
            try:
                fill(lo, lo + width, out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= width // 8, (lo, peak)


def test_explicit_table_missing_square_refuses():
    # every entry up to x = 50 but 3^2: the filler must ask for it and fail
    t = _table()
    x = 50
    keys = [(p, k) for p in t.primes_upto(x).tolist() for k in range(1, 6) if p**k <= x]
    keys.remove((3, 2))
    spec = make_prime_table_spec({key: -1.0 for key in keys}, rule="explicit")
    with pytest.raises(PreconditionError, match=r"3\^2"):
        values_upto(spec, x, t)
    assert values_upto(spec, 8, t)[8] == -1  # 3^2 > 8 is never needed


def _prime_values_loop(spec, primes) -> np.ndarray:
    """The per-prime loop that prime_values ran for table specs, kept as the
    oracle of its searchsorted lookup."""
    return np.array([spec.prime_power_value(int(p), 1) for p in primes], dtype=np.complex128)


@settings(max_examples=25, deadline=None)
@given(_table_specs())
def test_table_prime_values_match_per_prime_loop(case):
    x, spec = case
    ps = _table().primes_upto(x)
    got = prime_values(spec, ps, _table())
    assert got.dtype == np.complex128
    assert got.tobytes() == _prime_values_loop(spec, ps).tobytes()


@pytest.mark.parametrize("rule", ["cm", "zero", "explicit"])
def test_table_prime_values_missing_prime_raises_like_the_loop(rule):
    t = _table()
    ps = t.primes_upto(100)
    # one prime missing at the start, the middle or the end; an empty table
    specs = [make_prime_table_spec({int(p): 0.5j for p in ps if p != missing}, rule=rule)
             for missing in (2, 47, 97)] + [make_prime_table_spec({}, rule=rule)]
    for spec in specs:
        with pytest.raises(PreconditionError) as want:
            _prime_values_loop(spec, ps)
        with pytest.raises(PreconditionError) as got:
            prime_values(spec, ps, t)
        assert str(got.value) == str(want.value)
