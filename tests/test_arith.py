"""Prime table and factorization tests.

Prime counts are checked against published pi(x) values; factorizations
against sympy, which uses entirely different algorithms.
"""

import math
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pretentious import arith
from pretentious.arith import (
    MAX_SIEVE_LIMIT,
    PrimeTable,
    is_prime_small,
    sieve_primes,
)
from pretentious.errors import PreconditionError

# pi(10^k) from standard tables
PI_VALUES = {10: 4, 100: 25, 1000: 168, 10**4: 1229, 10**5: 9592, 10**6: 78498}


def test_prime_counts():
    for limit, count in PI_VALUES.items():
        assert len(sieve_primes(limit)) == count


def test_prime_count_ten_million(table_large):
    assert len(table_large.primes) == 664579


def test_small_primes_exact():
    assert sieve_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert sieve_primes(2).tolist() == [2]
    with pytest.raises(PreconditionError):
        sieve_primes(1)


def test_residue_class_split():
    # pi(10^6; 6, 1) = 39231, cross-checked against sympy.primerange
    ps = sieve_primes(10**6)
    assert ps[-1] == 999983
    assert int(np.sum(ps % 6 == 1)) == 39231


def test_primes_upto(table_small):
    assert table_small.primes_upto(100).tolist() == sieve_primes(100).tolist()
    assert len(table_small.primes_upto(0)) == 0


def test_is_prime_matches_sympy():
    for n in range(1, 500):
        assert is_prime_small(n) == sympy.isprime(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=2 * 10**4))
def test_factorize_matches_sympy(n):
    table = _shared_table()
    fi = table.factorize(n)
    assert dict(fi.factors) == sympy.factorint(n)
    assert math.prod(p**k for p, k in fi.factors) == n


_TABLE_CACHE = {}


def _shared_table():
    # hypothesis cannot take pytest fixtures; cache one table at module level
    if "t" not in _TABLE_CACHE:
        _TABLE_CACHE["t"] = PrimeTable(2 * 10**4)
    return _TABLE_CACHE["t"]


def test_factorize_above_spf_limit(table_small):
    # trial-division fallback: n larger than the spf table but <= limit^2 is
    # out of contract; n <= limit factors fine
    fi = table_small.factorize(19997 * 1)
    assert fi.factors == ((19997, 1),)


def test_factored_integer_helpers(table_small):
    fi = table_small.factorize(360)
    assert fi.divisor_count() == 24


def test_factorize_bounds(table_small):
    with pytest.raises(PreconditionError):
        table_small.factorize(0)
    with pytest.raises(PreconditionError):
        table_small.factorize(10**9)


def test_table_limit_guard():
    with pytest.raises(PreconditionError):
        PrimeTable(MAX_SIEVE_LIMIT + 1)
    with pytest.raises(PreconditionError):
        PrimeTable(0)


def test_table_sieves_once_on_first_use(monkeypatch):
    calls = []

    def counted(limit):
        calls.append(limit)
        return sieve_primes(min(limit, 1000))

    monkeypatch.setattr(arith, "sieve_primes", counted)
    table = PrimeTable(10**8)
    assert calls == []
    assert table.factorize(360).divisor_count() == 24
    assert calls == []
    assert table.primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(table.primes_upto(1000)) == 168
    assert calls == [10**8]


def test_sieve_holds_one_copy_of_a_segment_beside_its_flags():
    # 10^7 fits one segment: 10^7 flag bytes, then 5.3 MB of primes.  The
    # sieve drops the flags before it joins the segments and shifts the
    # segment's offsets in place, where it once held the flags, the offsets
    # and the shifted copy at once (20.6 MB traced)
    tracemalloc.start()
    try:
        primes = arith._sieve(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 664579
    assert peak <= 10**7 + 1.5 * primes.nbytes
