"""Bounded multiplicative functions as declarative specs.

A spec pins down f on prime powers (|f(p^k)| <= 1, f(1) = 1 implicitly)
and everything else follows by multiplicativity.  Specs are hashable,
serialize to a small textual grammar, and evaluate three ways:

  evaluate(spec, n, table)        one value, exact ints where possible
  values_upto(spec, x, table)     numpy array of f(0..x) with f(0) := 0
  prime_values(spec, primes, ...) f at an array of primes

Each family is one `FunctionSpec` subclass, which holds all the library
asks of it: f at one prime power and at an array of primes, its text, its
fill dtype, its range body and its flags.  No code outside the classes
asks which family a spec is.

The bulk paths matter: distance minimization and progression sums at
x = 1e7 cannot afford per-n factorization loops.  Bulk values come from one
blockwise fill, `_fill_blocks`, which yields f on consecutive blocks of n,
so that progression sums stream to x = 1e8 in bounded memory.  Each family
fills any one range of n with its `range_body`: a closed form for `One`,
`Legendre`, `CharacterSpec` and `Twist`, the product of its factors' fills
for `Product`, and for every other family one vectorized multiplicative
filler, with f at the primes from `read_prime_values`, f(p^k) for k >= 2
from `prime_power_value`, and no per-n Python loop.  That filler scatters
f at the primes above sqrt(x) and multiplies in one factor array, in its
fill dtype, per prime below it; an int8 fill skips the primes where
f(p^k) is always 1.  Where an int8 f is one sign at every prime above
sqrt(x) (mobius, liouville, a threshold whose cutoff is below sqrt(x)),
the filler runs a one-byte log-and-parity sieve of the prime powers below
sqrt(x) instead, which tells the n that carry such a prime, so they need
no scatter and no factor array.  A
complex block is filled as two halves at once, the far one on a single
worker thread that the first such block starts; numpy releases the
interpreter lock inside its loops, so the complex closed forms run on two
cores.  An int8 block is filled whole in the calling thread, since the
sign fill is mostly a Python loop over the small primes, a few numpy
calls each, which holds the lock; a process that fills only signs
starts no thread.
`values_upto` is the one call that holds all of f(0..x); it fills its
array block by block.  Every elementwise sum over the primes walks them
with `over_primes`; the twist scan's sums walk `pretension._PrimeData.edges`.

A table spec, f given at chosen prime powers, holds its keys and values as
three sorted arrays, 25 bytes per key, so a table over the 5.76M primes up
to 1e8 holds 144 MB.  Its keys are checked against one sieve up to the
largest, and its lookups are binary searches.
"""

from __future__ import annotations

import cmath
import math
import numbers
import os
import re
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arith import MAX_SIEVE_LIMIT, PrimeTable, is_prime_small, sieve_primes
from .characters import DirichletCharacter, character_by_index, character_row
from .errors import PreconditionError, SpecParseError

_VALUE_TOL = 1e-12

# threshold specs flip sign at x0**THRESHOLD_EXPONENT
THRESHOLD_EXPONENT = 1.0 / (1.0 + math.sqrt(math.e))


class FunctionSpec:
    """Base class of the families: each subclass is everything the library
    knows of its family.

    A subclass implements prime_power_value (f(p^k) for one prime power),
    at_primes (f at an array of primes) and render (its text in the spec
    grammar), and overrides what differs from the defaults here:
      fill_dtype                 dtype of its fills (int8 for values in
                                 {-1, 0, 1}, complex128 otherwise)
      range_body(x, table)       its range filler, by default the
                                 multiplicative filler
      completely_multiplicative  f(p^k) = f(p)^k
      vanishes_on_higher_powers  f(p^k) = 0 for every k >= 2
      real_valued                every value is real
    """

    completely_multiplicative = False
    vanishes_on_higher_powers = False
    real_valued = True
    fill_dtype = np.complex128

    def prime_power_value(self, p: int, k: int):
        raise NotImplementedError

    def at_primes(self, primes: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def range_body(self, x: int, table: PrimeTable):
        """body(lo, hi, out), which writes f(lo..hi-1) into out, of fill_dtype,
        for any 0 <= lo < hi <= x + 1; `_range_fill` then sets n = 0 to 0."""
        return _multiplicative_fill(self, x, table)

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class Mobius(FunctionSpec):
    completely_multiplicative = False
    vanishes_on_higher_powers = True
    fill_dtype = np.int8

    def prime_power_value(self, p, k):
        return -1 if k == 1 else 0

    def at_primes(self, primes):
        return -np.ones(len(primes), dtype=np.float64)

    def render(self):
        return "mobius"


@dataclass(frozen=True)
class Liouville(FunctionSpec):
    completely_multiplicative = True
    fill_dtype = np.int8

    def prime_power_value(self, p, k):
        return -1 if k % 2 else 1

    def at_primes(self, primes):
        return -np.ones(len(primes), dtype=np.float64)

    def render(self):
        return "liouville"


@dataclass(frozen=True)
class One(FunctionSpec):
    completely_multiplicative = True
    fill_dtype = np.int8

    def prime_power_value(self, p, k):
        return 1

    def at_primes(self, primes):
        return np.ones(len(primes), dtype=np.float64)

    def render(self):
        return "one"

    def range_body(self, x, table):
        return lambda lo, hi, out: out.fill(1)


@dataclass(frozen=True)
class Legendre(FunctionSpec):
    """Quadratic-residue symbol mod an odd prime, completely multiplicative."""

    p: int
    completely_multiplicative = True
    fill_dtype = np.int8

    def __post_init__(self):
        # its fills and reads hold one symbol per residue mod p; a larger p
        # would also be trial-divided for a long time first
        if self.p > MAX_SIEVE_LIMIT:
            raise PreconditionError(
                f"legendre modulus {self.p} exceeds the sieve limit {MAX_SIEVE_LIMIT}")
        if self.p < 3 or self.p % 2 == 0 or not is_prime_small(self.p):
            raise PreconditionError(f"legendre spec needs an odd prime, got {self.p}")

    def symbol(self, n: int) -> int:
        r = pow(n % self.p, (self.p - 1) // 2, self.p)
        return -1 if r == self.p - 1 else int(r)

    def prime_power_value(self, p, k):
        s = self.symbol(p)
        if s == 0:
            return 0
        return s if k % 2 else 1

    def at_primes(self, primes):
        return _legendre_row(self.p)[primes % self.p].astype(np.float64)

    def render(self):
        return f"legendre:{self.p}"

    def range_body(self, x, table):
        return _periodic_fill(_legendre_row(self.p))


@dataclass(frozen=True)
class CharacterSpec(FunctionSpec):
    """A Dirichlet character referenced by canonical index."""

    q: int
    index: int
    completely_multiplicative = True

    def __post_init__(self):
        self.character  # validates q and index

    @property
    def character(self) -> DirichletCharacter:
        return character_by_index(self.q, self.index)

    @property
    def real_valued(self):  # type: ignore[override]
        return self.character.is_real()

    def prime_power_value(self, p, k):
        return self.character(pow(p, k, self.q))

    def at_primes(self, primes):
        return character_row(self.character)[primes % self.q]

    def render(self):
        return f"char:{self.q}:{self.index}"

    def range_body(self, x, table):
        return _periodic_fill(character_row(self.character))


@dataclass(frozen=True)
class Twist(FunctionSpec):
    """n -> n^(it), the Archimedean twist; completely multiplicative."""

    t: float
    completely_multiplicative = True

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise PreconditionError(f"twist exponent must be finite, got {self.t}")

    @property
    def real_valued(self):  # type: ignore[override]
        return self.t == 0.0

    def prime_power_value(self, p, k):
        return cmath.exp(1j * self.t * k * math.log(p))

    def at_primes(self, primes):
        return np.exp(1j * self.t * np.log(primes.astype(np.float64)))

    def render(self):
        return f"nit:{_render_float(self.t)}"

    def range_body(self, x, table):
        def body(lo, hi, out):
            n = np.arange(lo, hi, dtype=np.float64)
            if lo == 0:
                n[0] = 1.0
            out.real = 0.0
            np.multiply(np.log(n, out=n), self.t, out=out.imag)
            np.exp(out, out=out)

        return body


@dataclass(frozen=True)
class Product(FunctionSpec):
    factors: tuple[FunctionSpec, ...]

    def __post_init__(self):
        if len(self.factors) < 1:
            raise SpecParseError("prod() needs at least one factor")

    @property
    def completely_multiplicative(self):  # type: ignore[override]
        return all(f.completely_multiplicative for f in self.factors)

    @property
    def real_valued(self):  # type: ignore[override]
        return all(f.real_valued for f in self.factors)

    @property
    def vanishes_on_higher_powers(self):  # type: ignore[override]
        return any(f.vanishes_on_higher_powers for f in self.factors)

    def prime_power_value(self, p, k):
        out = 1
        for f in self.factors:
            out *= f.prime_power_value(p, k)
        return out

    def at_primes(self, primes):
        out = self.factors[0].at_primes(primes).astype(np.complex128)
        for f in self.factors[1:]:
            out = out * f.at_primes(primes)
        return out

    def render(self):
        return "prod(" + ",".join(f.render() for f in self.factors) + ")"

    def range_body(self, x, table):
        """The first factor's range fill, times each later factor's, in place;
        in complex128, whatever the factors' dtypes."""
        (first_dtype, first), *rest = [(g.fill_dtype, _range_fill(g, x, table))
                                       for g in self.factors]

        def body(lo, hi, out):
            if first_dtype == out.dtype:
                first(lo, hi, out)
            else:
                vals = np.empty(hi - lo, first_dtype)
                first(lo, hi, vals)
                out[:] = vals
            for dtype, g in rest:
                vals = np.empty(hi - lo, dtype)
                g(lo, hi, vals)
                _multiply_in_place(out, vals)

        return body


COMPLETION_RULES = ("cm", "zero", "explicit")


class PrimeTableSpec(FunctionSpec):
    """f given by an explicit table on prime powers.

    PrimeTableSpec(entries, rule) takes entries as ((p, k), value) pairs,
    in any order.  Each key must be a prime power p^k named once, with
    p <= MAX_SIEVE_LIMIT and 1 <= k <= 127, and each |value| <= 1.
    The table is held as three read-only arrays sorted by (p, k): p
    (int64), k (int8) and f(p^k) (complex128), 25 bytes per key.  `entries`
    rebuilds the sorted tuple of ((p, k), value) on each call.  Two specs
    are equal when their rules, keys and values are; the hash comes from
    the rule and the bytes of the keys.  Completion rules:
      cm        f(p^k) = f(p)^k from the k=1 entries
      zero      f(p^k) = 0 for k >= 2 (mobius-like support)
      explicit  every needed (p, k) must be present
    """

    def __init__(self, entries, rule: str = "cm"):
        entries = tuple(entries)
        self.rule = rule
        self._p, self._k, self._v = _table_columns(
            [p for (p, _), _ in entries], [k for (_, k), _ in entries],
            [v for _, v in entries], rule)

    @classmethod
    def _from_columns(cls, ps, ks, vs, rule: str) -> PrimeTableSpec:
        spec = cls.__new__(cls)
        spec.rule = rule
        spec._p, spec._k, spec._v = _table_columns(ps, ks, vs, rule)
        return spec

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], complex], ...]:
        return tuple(zip(zip(self._p.tolist(), self._k.tolist()), self._v.tolist()))

    def __eq__(self, other):
        # values compare as numbers, so that 0.0 and -0.0 stay equal: render
        # drops the sign of a zero imaginary part
        if not isinstance(other, PrimeTableSpec):
            return NotImplemented
        return self.rule == other.rule and all(
            np.array_equal(a, b) for a, b in
            ((self._p, other._p), (self._k, other._k), (self._v, other._v)))

    def __hash__(self):
        return hash((self.rule, self._p.tobytes(), self._k.tobytes()))

    def __repr__(self):
        return f"PrimeTableSpec({len(self._p)} keys, rule={self.rule!r})"

    @property
    def completely_multiplicative(self):  # type: ignore[override]
        return self.rule == "cm"

    @property
    def vanishes_on_higher_powers(self):  # type: ignore[override]
        return self.rule == "zero"

    @property
    def real_valued(self):  # type: ignore[override]
        return not self._v.imag.any()

    @cached_property
    def _prime_arrays(self):
        # the primes with a k = 1 entry and their values; the whole table,
        # uncopied, when every k is 1
        ones = self._k == 1
        if ones.all():
            return self._p, self._v
        return self._p[ones], self._v[ones]

    def _row(self, p: int, k: int) -> int | None:
        # the rows of p are consecutive, in increasing k
        i = int(np.searchsorted(self._p, p))
        while i < len(self._p) and self._p[i] == p:
            if self._k[i] == k:
                return i
            i += 1
        return None

    def prime_power_value(self, p, k):
        i = self._row(p, k)
        if i is not None:
            return complex(self._v[i])
        if self.rule == "cm":
            i = self._row(p, 1)
            if i is None:
                raise PreconditionError(f"table spec has no value at prime {p}")
            return complex(self._v[i]) ** k
        if self.rule == "zero":
            if k >= 2:
                return 0
            raise PreconditionError(f"table spec has no value at prime {p}")
        raise PreconditionError(f"explicit table spec has no value at {p}^{k}")

    def at_primes(self, primes):
        keys, vals = self._prime_arrays
        i = np.searchsorted(keys, primes)
        found = keys[np.minimum(i, len(keys) - 1)] == primes if len(keys) else i < 0
        if not found.all():
            self.prime_power_value(int(primes[np.argmin(found)]), 1)  # raises
        return vals[i]

    def render(self):
        parts = []
        for (p, k), v in self.entries:
            key = str(p) if k == 1 else f"{p}^{k}"
            parts.append(f"{key}:{_render_complex(v)}")
        return "table:{" + ",".join(parts) + f";rule={self.rule}" + "}"


# a table key's exponent is held as int8
_MAX_TABLE_EXPONENT = int(np.iinfo(np.int8).max)


def _check_table_key(p, k) -> None:
    """Refuse the key (p, k) if it cannot be a table key; primality aside."""
    if not (isinstance(p, numbers.Integral) and isinstance(k, numbers.Integral)) or p < 2 or k < 1:
        raise PreconditionError(f"table key {p}^{k} is not a prime power")
    if p > MAX_SIEVE_LIMIT:
        raise PreconditionError(f"table key {p}^{k} exceeds the sieve limit {MAX_SIEVE_LIMIT}")
    if k > _MAX_TABLE_EXPONENT:
        raise PreconditionError(f"table key {p}^{k} has an exponent above {_MAX_TABLE_EXPONENT}")


def _increasing(p: np.ndarray, k: np.ndarray) -> bool:
    """Whether the keys (p[i], k[i]) strictly increase."""
    return bool(((p[1:] > p[:-1]) | ((p[1:] == p[:-1]) & (k[1:] > k[:-1]))).all())


def _table_columns(ps, ks, vs, rule: str):
    """The table with keys (ps[i], ks[i]) and values vs[i] as read-only
    arrays sorted by (p, k): p int64, k int8 and f(p^k) complex128.

    Refuses an unknown rule, duplicate keys (as the parser does), keys that
    are not prime powers, keys above the sieve limit, exponents above 127
    and values with |v| > 1 (NaN too).  Every check but primality runs
    first; the primes of the keys are then checked against one
    `sieve_primes` up to the largest.
    """
    if rule not in COMPLETION_RULES:
        raise SpecParseError(f"unknown completion rule {rule!r}")
    p, k = np.asarray(ps), np.asarray(ks)
    if not p.dtype.kind == k.dtype.kind == "i":
        # floats, or integers beyond int64, among the keys (or no keys)
        for q, e in zip(ps, ks):
            _check_table_key(q, e)
    p, k = p.astype(np.int64, copy=False), k.astype(np.int64, copy=False)
    v = np.asarray(vs, dtype=np.complex128)
    if not _increasing(p, k):
        order = np.lexsort((k, p))
        p, k, v = p[order], k[order], v[order]
        if not _increasing(p, k):
            raise SpecParseError("duplicate keys in table spec")
    bad = (p < 2) | (p > MAX_SIEVE_LIMIT) | (k < 1) | (k > _MAX_TABLE_EXPONENT)
    if bad.any():
        i = int(np.argmax(bad))
        _check_table_key(int(p[i]), int(k[i]))
    k = k.astype(np.int8)
    big = ~(np.abs(v) <= 1 + _VALUE_TOL)  # NaN fails this too
    if big.any():
        i = int(np.argmax(big))
        raise PreconditionError(f"|f({p[i]}^{k[i]})| = {abs(complex(v[i])):.6f} exceeds 1")
    if len(p):
        primes = sieve_primes(int(p[-1]))
        at = np.searchsorted(primes, p)
        np.minimum(at, len(primes) - 1, out=at)
        composite = primes[at] != p
        if composite.any():
            i = int(np.argmax(composite))
            raise PreconditionError(f"table key {p[i]}^{k[i]} is not a prime power")
    for a in (p, k, v):
        a.flags.writeable = False
    return p, k, v


@dataclass(frozen=True)
class Threshold(FunctionSpec):
    """+1 on primes up to x0**(1/(1+sqrt(e))), -1 above; the extremal sign
    pattern for progression means over the class of completely
    multiplicative +-1 functions at scale x0."""

    x0: int
    completely_multiplicative = True
    fill_dtype = np.int8

    def __post_init__(self):
        if self.x0 < 2:
            raise PreconditionError(f"threshold scale must be >= 2, got {self.x0}")
        try:
            float(self.x0)  # as the cutoff x0**THRESHOLD_EXPONENT converts it
        except OverflowError:
            raise PreconditionError(
                f"threshold scale of {self.x0.bit_length()} bits overflows a float") from None

    @property
    def cutoff(self) -> float:
        return self.x0**THRESHOLD_EXPONENT

    def prime_power_value(self, p, k):
        s = 1 if p <= self.cutoff else -1
        return s if k % 2 else 1

    def at_primes(self, primes):
        return np.where(primes <= self.cutoff, 1.0, -1.0)

    def render(self):
        return f"threshold:{self.x0}"


def make_prime_table_spec(values: dict, rule: str = "cm") -> PrimeTableSpec:
    """The table spec of a {p: v} or {(p, k): v} dict.

    The keys and values are read into columns, one pass each, and checked
    as `PrimeTableSpec` checks its entries; a dict that names one key twice,
    as p and as (p, 1), is refused like a duplicate key in the parser."""
    ps = [key[0] if isinstance(key, tuple) else key for key in values]
    ks = [key[1] if isinstance(key, tuple) else 1 for key in values]
    vs = np.fromiter(values.values(), np.complex128, count=len(values))
    return PrimeTableSpec._from_columns(ps, ks, vs, rule)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(spec: FunctionSpec, n: int, table: PrimeTable):
    """f(n) by factoring n; int-valued specs give exact ints."""
    if n < 1:
        raise PreconditionError(f"evaluate needs n >= 1, got {n}")
    out = 1
    for p, k in table.factorize(n).factors:
        out *= spec.prime_power_value(p, k)
        if out == 0:
            return 0
    return out


@lru_cache(maxsize=256)
def _legendre_row(p: int) -> np.ndarray:
    """(n|p) for n = 0..p-1 as int8 (read-only); numpy sums int8 in int64."""
    row = -np.ones(p, dtype=np.int8)
    row[0] = 0
    h = np.arange(1, p // 2 + 1, dtype=np.int64)  # h and p - h square alike
    row[h * h % p] = 1
    row.flags.writeable = False
    return row


# widths of one block of `_fill_blocks`: 4 MB of complex128, and wider
# blocks of int8, whose cheap per-n work would otherwise be outweighed by the
# fixed cost of a step per prime up to sqrt(x) in every block
FILL_BLOCK_WIDTH = 1 << 18
SIGN_FILL_BLOCK_WIDTH = 1 << 20


def _fill_blocks(spec: FunctionSpec, x: int, table: PrimeTable, min_width: int = 1):
    """Yield (lo, f(lo..hi-1)) for consecutive blocks [lo, hi) that cover
    0..x, with f(0) := 0.  Every block is a fresh array the caller may write
    to, and holds exactly the values one fill of all of 0..x would put
    there, bit for bit.

    Blocks are FILL_BLOCK_WIDTH wide, SIGN_FILL_BLOCK_WIDTH for int8 values,
    and never narrower than min_width.  An int8 block is filled whole in the
    calling thread: the sign fill is mostly a Python loop over the small
    primes, which holds the interpreter lock, and ran slower split across
    two threads.  A complex block is filled as two halves at once, the near
    one in the calling thread and the far one on the worker thread.  A block
    is handed out only once it is written, so the worker is idle whenever
    the caller holds a block, and a fill holds one block at a time.
    """
    int8 = spec.fill_dtype == np.int8
    width = max(SIGN_FILL_BLOCK_WIDTH if int8 else FILL_BLOCK_WIDTH, min_width)
    fill = _range_fill(spec, x, table)
    for lo in range(0, x + 1, width):
        hi = min(lo + width, x + 1)
        mid = hi if int8 else hi - (hi - lo) // 2  # the far half is never the longer
        block = np.empty(hi - lo, spec.fill_dtype)
        if mid == hi:
            fill(lo, hi, block)
        else:
            done = _fill_worker().submit(fill, mid, hi, block[mid - lo :])
            try:
                fill(lo, mid, block[: mid - lo])
            finally:
                done.exception()  # waits for the worker, whatever happened here
            done.result()
        yield lo, block
        del block  # let the caller free each block before the next


_worker = None
_worker_lock = threading.Lock()


def _fill_worker():
    """The executor of the one fill worker thread, made on first use."""
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="pretentious-fill")
        return _worker


def _forget_worker():
    # a forked child has no worker thread, only the parent's executor object
    global _worker
    _worker = None


os.register_at_fork(after_in_child=_forget_worker)


def _range_fill(spec: FunctionSpec, x: int, table: PrimeTable):
    """fill(lo, hi, out), which writes f(lo..hi-1) into out, of f's fill
    dtype, for any 0 <= lo < hi <= x + 1, with f(0) := 0: the spec's range
    body, with n = 0 set after it.

    A body reads what every range shares (f at the primes, the periodic
    rows) when it is made, in the calling thread.  It only reads that and
    allocates its own scratch, so two threads may fill two ranges at once,
    as they do the two halves of a complex block (an int8 range is always
    filled in the calling thread), and it never hands work to the worker,
    so the worker cannot wait on itself.
    """
    body = spec.range_body(x, table)

    def fill(lo, hi, out):
        body(lo, hi, out)
        if lo == 0:
            out[0] = 0

    return fill


def _multiply_in_place(a: np.ndarray, b: np.ndarray) -> None:
    """a *= b, rounded as for two or more elements.  numpy multiplies a
    single complex element in place on another path, which can round
    differently, and a range may be one long or hold a single multiple of p."""
    if len(a) > 1:
        a *= b
    else:
        a[:] = a * b


def _periodic_fill(row: np.ndarray):
    """The range body of a family periodic with one period `row`."""
    period = len(row)

    def body(lo, hi, out):
        # one period from lo's residue on, then the filled prefix doubled:
        # a whole number of periods, so every copy keeps the phase
        off, n = lo % period, len(out)
        head = min(period - off, n)
        out[:head] = row[off : off + head]
        out[head : min(period, n)] = row[: min(period, n) - head]
        filled = period
        while filled < n:
            step = min(filled, n - filled)
            out[filled : filled + step] = out[:step]
            filled += step

    return body


# entries of one pass-1 scatter of the multiplicative filler; a scatter holds
# about 24 bytes per entry, and the two halves of a complex block scatter at once
_CHUNK = 1 << 15

# bytes the rough-number sign fill decodes at a time, each with a one-byte flag
_DECODE = 1 << 16

# the rough-number sign fill lays down the adds of the prime powers dividing
# this period as one periodic pattern, and adds the rest one by one
_PRESIEVE = 2**4 * 3**2 * 5 * 7


def _multiplicative_fill(spec: FunctionSpec, x: int, table: PrimeTable):
    """The range body vals[n] = product of f(p^k) over p^k || n.

    Every n <= x has at most one prime factor P > sqrt(x), and P divides n
    exactly once.  Pass 1 multiplies f(P) into every n = m P of the range,
    vectorized over m: the primes P of each cofactor m form one index range,
    and repeat/cumsum lay out the ranges of the cofactors end to end, cut
    into scatters of _CHUNK entries (a long cofactor, such as m = 1, spans
    several).  Pass 2 walks the primes p <= sqrt(x).

    Every fill multiplies, for each p in descending order, the multiples of
    p in the range by a factor array of its own dtype holding f(p^k),
    p^k || n, whose multiples of p^2, p^3, ... are overwritten in turn.
    Each product is thus formed as ((1 * f(P)) * f(p_r^k_r)) * ... *
    f(p_1^k_1), largest prime first, whatever the range.

    An int8 fill must take values in {-1, 0, 1}, which setup asserts of
    every f(p^k).  It skips the primes whose f(p^k) are all 1, as
    multiplying by 1 changes no int8 value (in complex128, 1 + 0j can flip
    the sign of a zero), so a threshold spec builds no factor array for a
    prime below its cutoff.  When f(P) is one sign at every P > sqrt(x)
    (mobius, liouville, a threshold spec whose cutoff is below sqrt(x)),
    `_rough_sign_fill` runs instead, with no pass 1 and no factor arrays.
    The Python work per range is one step per prime p <= sqrt(x), or per
    add of the rough fill.

    The setup runs once, here: f at the primes from `read_prime_values`, so
    the fill holds one value per prime in its own dtype (one byte for the
    sign families) besides its ranges, the split at sqrt(x), and the tables
    f(p^k) of the primes below it.
    """
    dtype = spec.fill_dtype
    int8 = dtype == np.int8
    root = math.isqrt(x)
    primes = table.primes_upto(x)
    fp = read_prime_values(spec, primes, table)
    split = np.searchsorted(primes, root, side="right")
    # 1 * f(P) is the first product every n = m P takes; pass 1 stores it
    large, f_large = primes[split:], fp[split:]
    np.multiply(np.ones(1, dtype=dtype), f_large, out=f_large)
    small = []  # (p, f(p^k) for k = 0, 1, ... while p^k <= x), p descending
    for i in range(split - 1, -1, -1):
        p = int(primes[i])
        f_pk = [0, fp[i]]
        pk = p
        while pk <= x // p:
            pk *= p
            f_pk.append(spec.prime_power_value(p, len(f_pk)))
        assert not int8 or set(f_pk) <= {-1, 0, 1}, f"f({p}^k) = {f_pk} is not a sign"
        small.append((p, f_pk))
    if int8:
        sign = int(f_large[0]) if len(f_large) else 1
        if sign in (-1, 1) and (f_large == sign).all():
            return _rough_sign_fill(x, small, sign)
        small = [(p, f_pk) for p, f_pk in small if set(f_pk[1:]) != {1}]
    small = [(p, np.array(f_pk, dtype=dtype)) for p, f_pk in small]

    def body(lo, hi, vals):
        vals.fill(1)
        m = np.arange(1, (hi - 1) // (root + 1) + 1)
        first = np.searchsorted(large, -(-lo // m))  # P >= lo / m
        stop = np.searchsorted(large, (hi - 1) // m, side="right")
        counts = np.maximum(stop - first, 0)
        ends = np.cumsum(counts)
        starts = ends - counts  # where each cofactor's entries begin
        total = int(ends[-1]) if len(ends) else 0
        for e0 in range(0, total, _CHUNK):
            # entries e0..e1-1, from the cofactors a..b-1 cut to that span
            e1 = min(e0 + _CHUNK, total)
            a = np.searchsorted(ends, e0, side="right")
            b = np.searchsorted(ends, e1 - 1, side="right") + 1
            run = slice(a, b)
            cut = np.minimum(ends[run], e1) - np.maximum(starts[run], e0)
            # in place, so that a run holds three int64 arrays at most
            idx = np.repeat(first[run] - starts[run], cut)
            idx += np.arange(e0, e1)
            n = large[idx]
            n *= np.repeat(m[run], cut)
            n -= lo
            vals[n] = f_large[idx]
        for p, f_pk in small:
            start = max(-(-lo // p), 1) * p  # the first multiple of p in [lo, hi), n > 0
            if start >= hi:
                continue
            # f(p^k) with p^k || start + j p; higher powers overwrite lower ones
            factor = np.full((hi - 1 - start) // p + 1, f_pk[1], dtype=dtype)
            step, k = p, 2
            while step <= (hi - 1) // p:
                factor[-(start // p) % step :: step] = f_pk[k]
                step, k = step * p, k + 1
            _multiply_in_place(vals[start - lo :: p], factor)

    return body


def _rough_sign_fill(x: int, small, sign: int):
    """The range body of an int8 multiplicative fill whose f is `sign` at
    every prime P > sqrt(x), from one byte per n and no pass 1; small holds
    the tables (p, f(p^k) for k = 0, 1, ... while p^k <= x) of the primes
    p <= sqrt(x).

    The range's own bytes, read as uint8, take the adds of `_rough_steps`:
    those of the prime powers dividing _PRESIEVE as one periodic pattern,
    the rest as one strided add each.  Bit 0 is then the parity of the sign
    flips on n's prime powers, and the byte lies between 6 log2 and 9 log2
    of n's sqrt(x)-smooth part.  A smooth n in [2^i, 2^(i+1)) thus reads at
    least 6i, while an n = m P reads at most 9 log2 m, which setup checks is
    below 6i for the largest m of every such sub-range; so a byte below 6i
    marks the n that carry a prime above sqrt(x).  The decode, _DECODE bytes
    at a time, writes the sign the parity gives, times `sign` on the marked
    n.  The zeros go in last, on the signs, so that no add lands on a
    zeroed byte.
    """
    adds, zeros = _rough_steps(small)
    root = math.isqrt(x)
    assert x**9 < 1 << 256, f"a byte of the sign fill at x = {x} may exceed 255"
    for i in range(x.bit_length()):
        m = (min(2 << i, x + 1) - 1) // (root + 1)
        assert m**9 < 1 << 6 * i, f"cofactors up to {m} may read 6*{i} at x = {x}"
    pattern = np.zeros(_PRESIEVE, np.uint8)
    for d, w in adds:
        if _PRESIEVE % d == 0:
            pattern[::d] += w
    lay = _periodic_fill(pattern)
    adds = [(d, w) for d, w in adds if _PRESIEVE % d]

    def body(lo, hi, vals):
        acc = vals.view(np.uint8)
        lay(lo, hi, acc)
        for d, w in adds:
            start = max(-(-lo // d), 1) * d  # the first multiple of d in [lo, hi), n > 0
            if start < hi:
                v = acc[start - lo :: d]
                v += w
        rough = np.empty(min(_DECODE, hi - lo), np.bool_)
        n0 = lo
        while n0 < hi:
            # n0..n1-1 lie in one [2^i, 2^(i+1)) (n = 0 goes with [1, 2)) and
            # in one _DECODE-aligned span
            i = max(n0.bit_length() - 1, 0)
            n1 = min(hi, 2 << i, (n0 // _DECODE + 1) * _DECODE)
            v, s = acc[n0 - lo : n1 - lo], vals[n0 - lo : n1 - lo]
            if sign == -1:
                np.bitwise_xor(v, np.less(v, 6 * i, out=rough[: n1 - n0]), out=v)
            np.bitwise_and(v, 1, out=v)
            np.negative(s, out=s)  # 0 -> 0, 1 -> -1
            np.bitwise_or(s, 1, out=s)  # -> 1, -1
            n0 = n1
        for d in zeros:
            start = max(-(-lo // d), 1) * d
            if start < hi:
                vals[start - lo :: d] = 0

    return body


def _rough_steps(small) -> tuple[list[tuple[int, int]], list[int]]:
    """(adds, zeros) of the rough-number sign fill, from the tables (p,
    f(p^k) for k = 0, 1, ...) of the primes p <= sqrt(x), each f(p^k) a sign.

    adds holds (p^k, 2 floor(log2 p^4) + [f(p^k) != f(p^(k-1))]), with
    f(p^0) = 1, for each p^k in the table below the prime's first zero, and
    zeros that first p^k; no nonzero power may follow it, as the zeros go
    in last, on every multiple.  The parity of the adds on n with p^k || n
    is then that of the flips up to k, which is 1 where f(p^k) = -1.
    2 floor(log2 p^4) lies between 6 log2 p and 8 log2 p, so an add is at
    most 9 log2 p, and the adds on an n that no zero divides sum to between
    6 log2 and 9 log2 of its sqrt(x)-smooth part.
    """
    adds, zeros = [], []
    for p, f_pk in small:
        w, prev, d = 2 * ((p**4).bit_length() - 1), 1, p
        for k in range(1, len(f_pk)):
            if not f_pk[k]:
                assert not any(f_pk[k:]), f"f({p}^k) = {f_pk} is nonzero after a zero"
                zeros.append(d)
                break
            adds.append((d, w + int(f_pk[k] != prev)))
            prev, d = f_pk[k], d * p
    return adds, zeros


def values_upto(spec: FunctionSpec, x: int, table: PrimeTable) -> np.ndarray:
    """f(n) for n = 0..x as an array (f(0) := 0), of dtype `spec.fill_dtype`.

    This is the one call that holds a length-x array: it allocates the
    result once and fills it block by block.
    """
    if x > table.limit:
        raise PreconditionError(f"values_upto({x}) exceeds table limit {table.limit}")
    vals = None
    for lo, block in _fill_blocks(spec, x, table):
        if vals is None:
            vals = np.empty(x + 1, dtype=block.dtype)
        vals[lo : lo + len(block)] = block
    return vals


PRIME_CHUNK = 1 << 13


def over_primes(primes: np.ndarray, term, r: int = 1, dtype=np.float64) -> np.ndarray:
    """term(ps) for the primes of `primes` not dividing r, end to end in one
    array of dtype: term runs in order on each PRIME_CHUNK primes less the
    divisors of r, so one chunk is held besides the result, and one np.sum of
    the result rounds as the pairwise sum of the whole array does."""
    out = np.empty(len(primes), dtype)
    k = 0
    for lo in range(0, len(primes), PRIME_CHUNK):
        ps = primes[lo : lo + PRIME_CHUNK]
        if ps[0] <= r:  # only the primes up to r can divide it
            ps = np.delete(ps, np.flatnonzero(r % ps[: np.searchsorted(ps, r, "right")] == 0))
        out[k : k + len(ps)] = term(ps)
        k += len(ps)
    return out[:k]


def read_prime_values(spec: FunctionSpec, primes: np.ndarray, table: PrimeTable) -> np.ndarray:
    """f(p) for an array of primes, read through `over_primes` into f's fill
    dtype (int8 for the sign families, complex128 otherwise)."""
    return over_primes(primes, lambda ps: prime_values(spec, ps, table), dtype=spec.fill_dtype)


def prime_values(spec: FunctionSpec, primes: np.ndarray, table: PrimeTable) -> np.ndarray:
    """f(p) for an array of primes: `spec.at_primes`, float64 for the sign
    families and the Legendre symbol, complex128 otherwise."""
    return spec.at_primes(primes)


# ---------------------------------------------------------------------------
# textual grammar


def _render_float(t: float) -> str:
    return repr(float(t))


def _render_complex(v: complex) -> str:
    v = complex(v)
    re_, im = v.real, v.imag
    if im == 0:
        return _render_float(re_)
    if re_ == 0:
        return f"{_render_float(im)}i"
    sign = "+" if im > 0 else "-"
    return f"{_render_float(re_)}{sign}{_render_float(abs(im))}i"


def _parse_complex(text: str) -> complex:
    s = text.strip().replace("−", "-")
    if not s:
        raise SpecParseError("empty numeric literal")
    if s.endswith("i"):
        body = s[:-1]
        # split into optional real part and imaginary coefficient
        m = re.match(
            r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?"
            r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?)$",
            body,
        )
        if not m:
            raise SpecParseError(f"bad complex literal {text!r}")
        re_part = m.group("re")
        im_part = m.group("im")
        if re_part is not None and im_part == "":
            # the single number belongs to the imaginary unit: "0.5i"
            im_part, re_part = re_part, None
        if im_part in ("", "+", None):
            im = 1.0
        elif im_part == "-":
            im = -1.0
        else:
            im = float(im_part)
        re_val = float(re_part) if re_part else 0.0
        return complex(re_val, im)
    try:
        return complex(float(s), 0.0)
    except ValueError:
        raise SpecParseError(f"bad numeric literal {text!r}") from None


def _split_top_level(s: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_spec(text: str) -> FunctionSpec:
    """Parse the spec grammar; inverse of render()."""
    s = text.strip().replace("−", "-")
    if not s:
        raise SpecParseError("empty spec string")
    if s == "mobius":
        return Mobius()
    if s == "liouville":
        return Liouville()
    if s == "one":
        return One()
    if s.startswith("legendre:"):
        return Legendre(_parse_int(s[len("legendre:"):]))
    if s.startswith("char:"):
        rest = s[len("char:"):].split(":")
        if len(rest) != 2:
            raise SpecParseError(f"char spec needs q and index: {text!r}")
        return CharacterSpec(_parse_int(rest[0]), _parse_int(rest[1]))
    if s.startswith("nit:"):
        try:
            return Twist(float(s[len("nit:"):]))
        except ValueError:
            raise SpecParseError(f"bad twist parameter in {text!r}") from None
    if s.startswith("threshold:"):
        return Threshold(_parse_int(s[len("threshold:"):]))
    if s.startswith("prod(") and s.endswith(")"):
        inner = s[len("prod(") : -1]
        return Product(tuple(parse_spec(p) for p in _split_top_level(inner, ",")))
    if s.startswith("table:{") and s.endswith("}"):
        return _parse_table(s[len("table:{") : -1])
    raise SpecParseError(f"unrecognized spec {text!r}")


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise SpecParseError(f"bad integer {s!r}") from None


def _parse_table(body: str) -> PrimeTableSpec:
    rule = "cm"
    if ";" in body:
        body, _, tail = body.partition(";")
        tail = tail.strip()
        if not tail.startswith("rule="):
            raise SpecParseError(f"bad table options {tail!r}")
        rule = tail[len("rule="):].strip()
        aliases = {"completely_multiplicative": "cm", "zero_on_higher_powers": "zero"}
        rule = aliases.get(rule, rule)
    ps, ks, vs = [], [], []
    for item in _split_top_level(body, ","):
        item = item.strip()
        if not item:
            continue
        key, sep, val = item.partition(":")
        if not sep:
            raise SpecParseError(f"bad table entry {item!r}")
        p, caret, k = key.strip().partition("^")
        ps.append(_parse_int(p))
        ks.append(_parse_int(k) if caret else 1)
        vs.append(_parse_complex(val))
    return PrimeTableSpec._from_columns(ps, ks, vs, rule)
