"""Bounded multiplicative functions as declarative specs.

A spec pins down f on prime powers (|f(p^k)| <= 1, f(1) = 1 implicitly)
and everything else follows by multiplicativity.  Specs are hashable,
serialize to a small textual grammar, and evaluate three ways:

  evaluate(spec, n, table)        one value, exact ints where possible
  values_upto(spec, x, table)     numpy array of f(0..x) with f(0) := 0
  prime_values(spec, primes, ...) f at an array of primes

The bulk paths matter: distance minimization and progression sums at
x = 1e7 cannot afford per-n factorization loops.  `values_upto` has closed
forms for the periodic and twist families (and their products) and one
vectorized multiplicative filler for everything else: f at the primes from
one `prime_values` call, f(p^k) for k >= 2 from `prime_power_value`, and
no per-n Python loop.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import PrimeTable, is_prime_small
from .characters import DirichletCharacter, character_by_index, character_row
from .errors import PreconditionError, SpecParseError

_VALUE_TOL = 1e-12

# threshold specs flip sign at x0**THRESHOLD_EXPONENT
THRESHOLD_EXPONENT = 1.0 / (1.0 + math.sqrt(math.e))


class FunctionSpec:
    """Base class; subclasses implement prime_power_value and render."""

    completely_multiplicative = False
    real_valued = True

    def prime_power_value(self, p: int, k: int):
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class Mobius(FunctionSpec):
    completely_multiplicative = False

    def prime_power_value(self, p, k):
        return -1 if k == 1 else 0

    def render(self):
        return "mobius"


@dataclass(frozen=True)
class Liouville(FunctionSpec):
    completely_multiplicative = True

    def prime_power_value(self, p, k):
        return -1 if k % 2 else 1

    def render(self):
        return "liouville"


@dataclass(frozen=True)
class One(FunctionSpec):
    completely_multiplicative = True

    def prime_power_value(self, p, k):
        return 1

    def render(self):
        return "one"


@dataclass(frozen=True)
class Legendre(FunctionSpec):
    """Quadratic-residue symbol mod an odd prime, completely multiplicative."""

    p: int
    completely_multiplicative = True

    def __post_init__(self):
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

    def render(self):
        return f"legendre:{self.p}"


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

    def render(self):
        return f"char:{self.q}:{self.index}"


@dataclass(frozen=True)
class Twist(FunctionSpec):
    """n -> n^(it), the Archimedean twist; completely multiplicative."""

    t: float
    completely_multiplicative = True

    @property
    def real_valued(self):  # type: ignore[override]
        return self.t == 0.0

    def prime_power_value(self, p, k):
        return cmath.exp(1j * self.t * k * math.log(p))

    def render(self):
        return f"nit:{_render_float(self.t)}"


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

    def prime_power_value(self, p, k):
        out = 1
        for f in self.factors:
            out *= f.prime_power_value(p, k)
        return out

    def render(self):
        return "prod(" + ",".join(f.render() for f in self.factors) + ")"


COMPLETION_RULES = ("cm", "zero", "explicit")


@dataclass(frozen=True)
class PrimeTableSpec(FunctionSpec):
    """f given by an explicit table on prime powers.

    entries: sorted tuple of ((p, k), value).  Completion rules:
      cm        f(p^k) = f(p)^k from the k=1 entries
      zero      f(p^k) = 0 for k >= 2 (mobius-like support)
      explicit  every needed (p, k) must be present
    """

    entries: tuple[tuple[tuple[int, int], complex], ...]
    rule: str = "cm"

    def __post_init__(self):
        if self.rule not in COMPLETION_RULES:
            raise SpecParseError(f"unknown completion rule {self.rule!r}")
        for (p, k), v in self.entries:
            if p < 2 or not is_prime_small(p) or k < 1:
                raise PreconditionError(f"table key {p}^{k} is not a prime power")
            if abs(v) > 1 + _VALUE_TOL:
                raise PreconditionError(f"|f({p}^{k})| = {abs(v):.6f} exceeds 1")

    @property
    def completely_multiplicative(self):  # type: ignore[override]
        return self.rule == "cm"

    @property
    def real_valued(self):  # type: ignore[override]
        return all(complex(v).imag == 0 for _, v in self.entries)

    @property
    def _map(self):
        # memoized on the instance: keying an lru_cache by the entries tuple
        # would re-hash every entry on each lookup
        m = self.__dict__.get("_map_cache")
        if m is None:
            m = dict(self.entries)
            object.__setattr__(self, "_map_cache", m)
        return m

    @property
    def _prime_arrays(self):
        # sorted primes with a k = 1 entry and their values, memoized like _map
        a = self.__dict__.get("_prime_arrays_cache")
        if a is None:
            ones = sorted((p, v) for (p, k), v in self._map.items() if k == 1)
            a = (np.array([p for p, _ in ones], dtype=np.int64),
                 np.array([v for _, v in ones], dtype=np.complex128))
            object.__setattr__(self, "_prime_arrays_cache", a)
        return a

    def prime_power_value(self, p, k):
        m = self._map
        if (p, k) in m:
            return m[(p, k)]
        if self.rule == "cm":
            if (p, 1) not in m:
                raise PreconditionError(f"table spec has no value at prime {p}")
            return m[(p, 1)] ** k
        if self.rule == "zero":
            if k >= 2:
                return 0
            raise PreconditionError(f"table spec has no value at prime {p}")
        raise PreconditionError(f"explicit table spec has no value at {p}^{k}")

    def render(self):
        parts = []
        for (p, k), v in self.entries:
            key = str(p) if k == 1 else f"{p}^{k}"
            parts.append(f"{key}:{_render_complex(v)}")
        return "table:{" + ",".join(parts) + f";rule={self.rule}" + "}"


@dataclass(frozen=True)
class Threshold(FunctionSpec):
    """+1 on primes up to x0**(1/(1+sqrt(e))), -1 above; the extremal sign
    pattern for progression means over the class of completely
    multiplicative +-1 functions at scale x0."""

    x0: int
    completely_multiplicative = True

    def __post_init__(self):
        if self.x0 < 2:
            raise PreconditionError(f"threshold scale must be >= 2, got {self.x0}")

    @property
    def cutoff(self) -> float:
        return self.x0**THRESHOLD_EXPONENT

    def prime_power_value(self, p, k):
        s = 1 if p <= self.cutoff else -1
        return s if k % 2 else 1

    def render(self):
        return f"threshold:{self.x0}"


def make_prime_table_spec(values: dict, rule: str = "cm") -> PrimeTableSpec:
    """Normalize a {p: v} or {(p, k): v} dict into a PrimeTableSpec."""
    entries = []
    for key, v in values.items():
        pk = key if isinstance(key, tuple) else (key, 1)
        entries.append((pk, complex(v)))
    entries.sort(key=lambda e: (e[0][0], e[0][1]))
    return PrimeTableSpec(tuple(entries), rule)


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
    sq = np.unique(np.arange(1, p, dtype=np.int64) ** 2 % p)
    row[sq] = 1
    row.flags.writeable = False
    return row


def _multiplicative_fill(spec: FunctionSpec, x: int, table: PrimeTable, dtype) -> np.ndarray:
    """vals[n] = product of f(p^k) over p^k || n, for n = 0..x (f(0) := 0).

    Two vectorized passes.  Every n <= x has at most one prime factor
    P > sqrt(x), and P divides n exactly once, so the first pass multiplies
    in f(P) along each cofactor m.  The second walks the primes p <= sqrt(x)
    in descending order and multiplies every multiple of p by f(p^k), k read
    off a small exponent array.  Each product is thus formed as
    ((1 * f(P)) * f(p_r^k_r)) * ... * f(p_1^k_1), largest prime first.
    """
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


def values_upto(spec: FunctionSpec, x: int, table: PrimeTable) -> np.ndarray:
    """f(n) for n = 0..x as an array (f(0) := 0).

    dtype is int8 for the sign-valued builtins, complex128 otherwise.
    """
    if x > table.limit:
        raise PreconditionError(f"values_upto({x}) exceeds table limit {table.limit}")
    if isinstance(spec, One):
        vals = np.ones(x + 1, dtype=np.int8)
        vals[0] = 0
        return vals
    if isinstance(spec, (Legendre, CharacterSpec)):
        is_legendre = isinstance(spec, Legendre)
        row = _legendre_row(spec.p) if is_legendre else character_row(spec.character)
        vals = np.tile(row, x // len(row) + 1)[: x + 1]  # a view: one allocation, no copy
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
        out = values_upto(spec.factors[0], x, table).astype(np.complex128, copy=False)
        for f in spec.factors[1:]:
            out *= values_upto(f, x, table)
        return out
    signs = isinstance(spec, (Mobius, Liouville, Threshold))
    return _multiplicative_fill(spec, x, table, np.int8 if signs else np.complex128)


def prime_values(spec: FunctionSpec, primes: np.ndarray, table: PrimeTable) -> np.ndarray:
    """f(p) for an array of primes."""
    if isinstance(spec, (Mobius, Liouville)):
        return -np.ones(len(primes), dtype=np.float64)
    if isinstance(spec, One):
        return np.ones(len(primes), dtype=np.float64)
    if isinstance(spec, Threshold):
        return np.where(primes <= spec.cutoff, 1.0, -1.0)
    if isinstance(spec, Legendre):
        row = _legendre_row(spec.p)
        return row[primes % spec.p].astype(np.float64)
    if isinstance(spec, CharacterSpec):
        row = character_row(spec.character)
        return row[primes % spec.q]
    if isinstance(spec, Twist):
        return np.exp(1j * spec.t * np.log(primes.astype(np.float64)))
    if isinstance(spec, Product):
        out = prime_values(spec.factors[0], primes, table).astype(np.complex128)
        for f in spec.factors[1:]:
            out = out * prime_values(f, primes, table)
        return out
    if isinstance(spec, PrimeTableSpec):
        keys, vals = spec._prime_arrays
        i = np.searchsorted(keys, primes)
        found = keys[np.minimum(i, len(keys) - 1)] == primes if len(keys) else i < 0
        if not found.all():
            spec.prime_power_value(int(primes[np.argmin(found)]), 1)  # raises
        return vals[i]
    return np.array([spec.prime_power_value(int(p), 1) for p in primes], dtype=np.complex128)


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
            r"(?P<im>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?)$",
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
    entries = []
    for item in _split_top_level(body, ","):
        item = item.strip()
        if not item:
            continue
        key, sep, val = item.partition(":")
        if not sep:
            raise SpecParseError(f"bad table entry {item!r}")
        key = key.strip()
        if "^" in key:
            ps, _, ks = key.partition("^")
            pk = (_parse_int(ps), _parse_int(ks))
        else:
            pk = (_parse_int(key), 1)
        entries.append((pk, _parse_complex(val)))
    entries.sort(key=lambda e: (e[0][0], e[0][1]))
    if len(set(k for k, _ in entries)) != len(entries):
        raise SpecParseError("duplicate keys in table spec")
    return PrimeTableSpec(tuple(entries), rule)
