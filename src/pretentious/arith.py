"""Primes, smallest-prime-factor tables, and factorization.

Desk scale: limits up to 1e7 are comfortable interactively, 1e8 works if
you give it time.  Above SPF_TABLE_LIMIT the sieve runs in fixed-width
segments so memory stays flat, and factorization of large n falls back to
trial division by the sieved primes.  Small integers (moduli, group orders,
table keys) are factored without a table by `factorize_small`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import PreconditionError

MAX_SIEVE_LIMIT = 10**8

# Full smallest-prime-factor tables stop here (int32, ~40 MB at 1e7).
SPF_TABLE_LIMIT = 10**7

# Width of one segment in the large-limit sieve; 2**26 bytes of flags.
SEGMENT_WIDTH = 1 << 26


@dataclass(frozen=True)
class FactoredInteger:
    """n together with its factorization, largest-exponent-first order not
    guaranteed; factors are (prime, exponent) pairs in increasing prime order."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def divisor_count(self) -> int:
        d = 1
        for _, e in self.factors:
            d *= e + 1
        return d

    def radical(self) -> int:
        r = 1
        for p, _ in self.factors:
            r *= p
        return r


def factorize_small(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n by trial division, increasing primes;
    () for n < 2."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def is_prime_small(n: int) -> bool:
    """Primality of a small n through `factorize_small`.  Memoized, because
    table specs check every key and get rebuilt over the same primes."""
    return factorize_small(n) == ((n, 1),)


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, increasing."""
    out = [1]
    for p, e in factorize_small(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _flag_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _segmented_primes(limit: int) -> np.ndarray:
    root = isqrt(limit)
    base = np.flatnonzero(_flag_sieve(root))
    chunks = [base]
    lo = root + 1
    while lo <= limit:
        hi = min(lo + SEGMENT_WIDTH, limit + 1)
        flags = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                flags[start - lo :: p] = False
        chunks.append(np.flatnonzero(flags) + lo)
        lo = hi
    return np.concatenate(chunks)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, increasing, as an int64 array."""
    if not 2 <= limit <= MAX_SIEVE_LIMIT:
        raise PreconditionError(f"sieve limit must be in [2, {MAX_SIEVE_LIMIT}], got {limit}")
    if limit <= SPF_TABLE_LIMIT:
        return np.flatnonzero(_flag_sieve(limit)).astype(np.int64)
    return _segmented_primes(limit).astype(np.int64)


def _spf_table(limit: int) -> np.ndarray:
    # Mark spf for p <= sqrt(limit) only; every composite has such a factor,
    # so the untouched entries >= 2 are exactly the primes > sqrt(limit).
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p::p]
            view[view == 0] = p
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf


class PrimeTable:
    """Primes up to `limit` plus a smallest-prime-factor table.

    The spf table covers 2..min(limit, SPF_TABLE_LIMIT); factorize() stays
    exact for every n <= limit via trial division beyond the table.
    """

    def __init__(self, limit: int):
        if not 2 <= limit <= MAX_SIEVE_LIMIT:
            raise PreconditionError(
                f"PrimeTable limit must be in [2, {MAX_SIEVE_LIMIT}], got {limit}"
            )
        self.limit = limit
        self.primes = sieve_primes(limit)
        self.spf_limit = min(limit, SPF_TABLE_LIMIT)
        self.spf = _spf_table(self.spf_limit)

    def __repr__(self):
        return f"PrimeTable(limit={self.limit}, primes={len(self.primes)})"

    def primes_upto(self, x: int | float) -> np.ndarray:
        if x > self.limit:
            raise PreconditionError(f"asked for primes to {x} but table stops at {self.limit}")
        return self.primes[: np.searchsorted(self.primes, x, side="right")]

    def is_prime(self, n: int) -> bool:
        if n <= self.spf_limit:
            return n >= 2 and int(self.spf[n]) == n
        if n > self.limit:
            raise PreconditionError(f"{n} exceeds table limit {self.limit}")
        i = np.searchsorted(self.primes, n)
        return i < len(self.primes) and int(self.primes[i]) == n

    def smallest_prime_factor(self, n: int) -> int:
        if n < 2:
            raise PreconditionError("smallest_prime_factor needs n >= 2")
        if n <= self.spf_limit:
            return int(self.spf[n])
        if n > self.limit:
            raise PreconditionError(f"{n} exceeds table limit {self.limit}")
        for p in self.primes:
            p = int(p)
            if p * p > n:
                break
            if n % p == 0:
                return p
        return n

    def factorize(self, n: int) -> FactoredInteger:
        """Exact factorization for 1 <= n <= limit."""
        if not 1 <= n <= self.limit:
            raise PreconditionError(f"factorize needs 1 <= n <= {self.limit}, got {n}")
        m = n
        out = []
        if m > self.spf_limit:
            for p in self.primes:
                p = int(p)
                if p * p > m:
                    break
                if m % p == 0:
                    e = 0
                    while m % p == 0:
                        m //= p
                        e += 1
                    out.append((p, e))
                if m <= self.spf_limit:
                    break
        while m > 1:
            if m <= self.spf_limit:
                p = int(self.spf[m])
            else:
                p = m  # survived trial division past sqrt: prime
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        out.sort()
        return FactoredInteger(n, tuple(out))


def factorize(n: int, table: PrimeTable) -> FactoredInteger:
    return table.factorize(n)
