"""Mean values of multiplicative functions, raw and in progressions.

F(x; q, a) = sum of f(n) over n <= x, n == a (mod q).  The exact finite
identity F(x;q,a) = (1/phi(q)) sum over chi mod q of chi(a) * sum f(n)conj(chi(n))
holds for every x and gets tested to float accumulation error; everything
else here is an upper bound or a main-term prediction to compare against.

Sums over n <= x never hold f(0..x): `progression_sums` takes f from
funcspec one block of n at a time and folds each block into the running
class sums.  `twisted_sum`, `decompose_via_characters`, `coprime_mean_bound`,
`progression_report` and the total in `halasz_bound` all go through it, so
their memory is a few blocks plus O(q), whatever x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import PrimeTable
from .characters import (
    MAX_MODULUS,
    DirichletCharacter,
    character_by_index,
    character_column,
    character_row,
    induce,
    unit_group,
    unit_group_transform,
)
from .errors import PreconditionError
from .funcspec import (
    FunctionSpec,
    _fill_blocks,
    over_primes,
    prime_values,
)
from .pretension import ExceptionalReport, find_exceptional, min_distance_over_t


@dataclass(frozen=True)
class ProgressionTable:
    """Sums and counts per residue class; sums[a] = F(x; q, a)."""

    x: int
    q: int
    sums: np.ndarray
    counts: np.ndarray

    def total(self) -> complex:
        return complex(np.sum(self.sums))


# rows of values in {-1, 0, 1} whose sum an int8 holds exactly
SLAB_ROWS = 127
# int8 rows are at least this wide (a whole number of periods r), so that
# small r still sums along long contiguous rows
SLAB_WIDTH = 256


def _class_sums(v: np.ndarray, r: int, start: int, acc: np.ndarray | None = None) -> np.ndarray:
    """c[b] = sum of v[i] over i with start + i == b (mod r), for b < r,
    continued from the running sums acc[b] of earlier terms if given.

    The whole rows of v form an (N // r, r) view that is summed over axis 0,
    so v is not copied (at x = 1e7 a complex copy is 160 MB); the short tail
    is added after.  For r >= 2 each class is accumulated one term at a time
    in index order, so float sums equal a sequential per-class loop bit for
    bit.  A float acc is added into v's first r values in place, so that
    each class stays one such chain starting acc[b] + v[i]: for r >= 2 a
    stream of blocks, each passed with the sums so far, gives the sums of
    one call on their concatenation bit for bit, provided the first block
    is at least r long.  So v must be the caller's own scratch when a float
    acc is given.  With r = 1, which numpy sums pairwise, or a v shorter
    than r or of another dtype, acc goes ahead of v as row 0 of a copy.

    int8 input must hold only -1, 0 and 1, as the sign families' fills do.
    Its rows, widened to w >= SLAB_WIDTH values (w a multiple of r), are
    summed in int8 over slabs of SLAB_ROWS rows, which cannot overflow; the
    slab sums add up in int64 and the w columns fold down to r classes.
    What is left, less than w values, sums in int64.  Integer sums come
    back int64 and exact, and an integer acc is simply added.
    """
    if acc is not None and np.issubdtype(acc.dtype, np.inexact):
        if r >= 2 and len(v) >= r and v.dtype == acc.dtype:
            v[:r] += np.roll(acc, -start)
        else:
            v = np.concatenate([np.roll(acc, -start), v])
        acc = None
    head = None
    if v.dtype == np.int8:
        w = r * -(-SLAB_WIDTH // r)
        rows = len(v) // w
        slabs = rows // SLAB_ROWS * SLAB_ROWS * w
        head = v[:slabs].reshape(-1, SLAB_ROWS, w).sum(axis=1, dtype=np.int8)
        head = head.sum(axis=0, dtype=np.int64)
        head += v[slabs : rows * w].reshape(-1, w).sum(axis=0, dtype=np.int8)
        v = v[rows * w :]
    full = len(v) // r * r
    c = v[:full].reshape(-1, r).sum(axis=0)
    if head is not None:
        c += head.reshape(-1, r).sum(axis=0)
    c[: len(v) - full] += v[full:]
    if start % r:
        c = np.roll(c, start)
    return c if acc is None else acc + c


def _check_sums(x: int, q: int, table: PrimeTable):
    """progression_sums' preconditions; callers that build unit_group(q)
    before the sums check them first, so their refusals come in one order."""
    if not 1 <= q <= x:
        raise PreconditionError(f"need 1 <= q <= x, got q={q}, x={x}")
    if x > table.limit:
        raise PreconditionError(f"x={x} exceeds table limit {table.limit}")


def progression_sums(f: FunctionSpec, x: int, q: int, table: PrimeTable) -> ProgressionTable:
    """F(x; q, a) for every class a mod q, from f streamed one block of n
    at a time: no length-x array is ever held.  Blocks are at least q wide,
    so for q >= 2 the sums equal those of the whole array bit for bit."""
    _check_sums(x, q, table)
    sums = None
    for lo, block in _fill_blocks(f, x, table, min_width=q):
        # f(0) = 0, so class 0 needs no correction; int8 sums come back int64
        sums = _class_sums(block, q, lo, sums)
        del block  # freed before the next block is built
    if not np.iscomplexobj(sums):
        sums = sums.astype(np.float64)
    counts = (x - np.arange(q)) // q + 1
    counts[0] = x // q
    return ProgressionTable(x=x, q=q, sums=sums, counts=counts)


def _regroup(chi: DirichletCharacter, sums: np.ndarray) -> complex:
    """sum over classes b mod chi.q of conj(chi(b)) sums[b]."""
    return complex(np.dot(np.conj(character_row(chi)), sums.astype(np.complex128)))


def twisted_sum(f: FunctionSpec, chi: DirichletCharacter, x: int, table: PrimeTable) -> complex:
    """sum over n <= x of f(n) conj(chi(n)).

    chi has period q, so the sum collapses onto residue-class partial sums;
    nothing is special-cased beyond that regrouping.
    """
    return _regroup(chi, progression_sums(f, x, chi.q, table).sums)


def decompose_via_characters(
    f: FunctionSpec, x: int, q: int, a: int, table: PrimeTable
) -> tuple[complex, complex]:
    """(F(x;q,a), character-sum reconstruction); equal up to float error."""
    if math.gcd(a, q) != 1:
        raise PreconditionError(f"decomposition needs gcd(a, q) = 1, got a={a}, q={q}")
    _check_sums(x, q, table)
    G = unit_group(q)
    pt = progression_sums(f, x, q, table)
    lhs = complex(pt.sums[a % q])
    # sum over units b of conj(chi(b)) F(x;q,b), for every chi in one
    # transform; in long double, since at x = 1e8 the class sums reach 1e7,
    # where one float64 rounding is already 2e-9
    ghat = unit_group_transform(pt.sums[G.units].astype(np.clongdouble), q)
    chi_a = character_column(q, a)
    return lhs, complex(np.dot(chi_a, ghat) / G.phi)


@dataclass(frozen=True)
class HalaszBound:
    x: int
    t_bound: float
    t_star: float
    squared_distance: float
    bound: float
    measured: float


def halasz_bound(f: FunctionSpec, x: int, T: float, table: PrimeTable) -> HalaszBound:
    """Upper bound (1 + D^2) e^(-D^2) + 1/sqrt(T) for |sum f(n)| / x,
    with D^2 the best unrestricted twist distance over |t| <= T."""
    if T < 1:
        raise PreconditionError(f"need T >= 1, got {T}")
    t_star, d2 = min_distance_over_t(f, character_by_index(1, 0), x, T, table)
    bound = (1.0 + d2) * math.exp(-d2) + 1.0 / math.sqrt(T)
    measured = abs(complex(progression_sums(f, x, 1, table).sums[0])) / x
    return HalaszBound(x=x, t_bound=T, t_star=t_star,
                       squared_distance=d2, bound=bound, measured=measured)


@dataclass(frozen=True)
class CoprimeMeanBound:
    x: int
    r: int
    t_bound: float
    t_star: float
    squared_distance: float
    bound: float
    bound_quarter_log: float
    measured: float


def coprime_mean_bound(
    f: FunctionSpec, x: int, r: int, T: float, table: PrimeTable
) -> CoprimeMeanBound:
    """Coprime-restricted variant: bounds (r/(phi(r) x)) |sum_{(n,r)=1} f(n)|,
    with D^2 the best twist of the principal character mod r.

    bound uses 1/sqrt(T); bound_quarter_log swaps in (log x)^(-1/4), the
    form that appears when the twist comes from a character of modulus r.
    """
    if not 1 <= r <= math.isqrt(x):
        raise PreconditionError(f"need 1 <= r <= sqrt(x), got r={r}, x={x}")
    if not 1 <= T <= math.sqrt(math.log(x)):
        raise PreconditionError(f"need 1 <= T <= sqrt(log x), got T={T}")
    t_star, d2 = min_distance_over_t(f, character_by_index(r, 0), x, T, table)
    bound = (1.0 + d2) * math.exp(-d2) + 1.0 / math.sqrt(T)
    bound_q = (1.0 + d2) * math.exp(-d2) + math.log(x) ** -0.25
    G = unit_group(r)
    restricted = complex(np.sum(progression_sums(f, x, r, table).sums[G.units]))
    measured = abs(restricted) / (G.phi / r * x)
    return CoprimeMeanBound(x=x, r=r, t_bound=T, t_star=t_star, squared_distance=d2,
                            bound=bound, bound_quarter_log=bound_q, measured=measured)


def _explicit_series(f: FunctionSpec, ps: np.ndarray, fp: np.ndarray, base: np.ndarray,
                     x: int) -> np.ndarray:
    """1 + sum over k with p^k <= x of f(p^k) base^k, for each prime p of ps
    (base = p^-(1+it)); f(p^k) is asked for only where p^k <= x."""
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
        vals_k = np.zeros(len(ps), dtype=np.complex128)
        vals_k[nxt] = [f.prime_power_value(int(p), k) for p in ps[nxt]]
        zk = vals_k * base**k
        active = nxt


@dataclass(frozen=True)
class EulerProductValue:
    x: int
    q: int
    t: float
    truncation: int
    product: complex
    log_abs_product: float
    prediction: complex
    tail_log_bound: float


def euler_product_mean(
    f: FunctionSpec,
    x: int,
    table: PrimeTable,
    t: float = 0.0,
    q: int = 1,
    truncation: int | None = None,
) -> EulerProductValue:
    """Main-term prediction x^(1+it)/(q(1+it)) * prod over p <= P, p not
    dividing q, of (1-1/p)(1 + f(p)/p^(1+it) + f(p^2)/p^(2+2it) + ...).

    The prime-power series is summed for p^k <= x and closed with the exact
    geometric tail when the spec is completely multiplicative (or finitely
    supported on powers); only explicit tables are genuinely truncated.
    With P < x, tail_log_bound = sum_{P < p <= x} log(p/(p-2)) bounds the
    log |product| of the dropped factors: each is (1 - 1/p)(1 + w) with
    |w| <= 1/(p-1).

    The primes stream through `over_primes`, so the working memory is one
    float64 per prime plus a few chunks, and every field equals that of the
    whole-array computation bit for bit.
    """
    P = x if truncation is None else truncation
    if not 2 <= P <= x:
        raise PreconditionError(f"need 2 <= truncation <= x, got {P}")
    if q < 1:
        raise PreconditionError(f"need q >= 1, got q={q}")
    primes = table.primes_upto(P)
    product = 1 + 0j

    def log_abs_factors(ps):
        nonlocal product
        psc = ps.astype(np.float64)
        fp = prime_values(f, ps, table).astype(np.complex128)
        # base = p^(-(1+it)); series = 1 + f(p) base + f(p^2) base^2 + ...
        # At t = 0 the exponential is 1 + 0j and numpy's complex division
        # by p + 0j gives exactly 1/p + 0j, so the same bits come without it
        if t == 0:
            base = (1.0 / psc).astype(np.complex128)
        else:
            base = np.exp(-1j * t * np.log(psc)) / psc
        if f.completely_multiplicative:
            series = 1.0 / (1.0 - fp * base)
        elif f.vanishes_on_higher_powers:
            series = 1.0 + fp * base
        else:
            series = _explicit_series(f, ps, fp, base, x)
        factors = (1.0 - 1.0 / psc) * series
        # np.prod multiplies one factor at a time from 1 + 0j, so carrying
        # the product from chunk to chunk, in order, rounds exactly as it does
        product = np.multiply.reduce(factors, initial=product)
        return np.log(np.abs(factors))

    log_abs = float(np.sum(over_primes(primes, log_abs_factors, q)))
    product = complex(product)
    s = 1.0 + 1j * t
    prediction = x**s / (q * s) * product
    tail_ps = table.primes_upto(x)[len(primes) :]  # P < p <= x
    tail = float(np.sum(over_primes(tail_ps, lambda ps: np.log1p(2.0 / (ps - 2)))))
    return EulerProductValue(x=x, q=q, t=t, truncation=P, product=product,
                             log_abs_product=log_abs, prediction=prediction,
                             tail_log_bound=tail)


@dataclass(frozen=True)
class ProgressionRow:
    a: int
    value: complex
    residual: complex
    main_term: complex | None


@dataclass(frozen=True)
class ProgressionReport:
    x: int
    q: int
    conductor_bound: int
    t_bound: float
    exceptional: ExceptionalReport
    r_divides_q: bool
    chi: DirichletCharacter
    rows: tuple[ProgressionRow, ...]
    max_residual: float
    normalized_max_residual: float
    error_ref_power_window: float | None
    error_ref_log_window: float


def progression_report(
    f: FunctionSpec,
    x: int,
    q: int,
    Q: int,
    A: float,
    table: PrimeTable,
) -> ProgressionReport:
    """Structure of F(x;q,a) against the exceptional character.

    chi is the principal character unless the exceptional conductor r
    divides q, in which case chi is psi induced to modulus q.  Residuals
    F(x;q,a) - chi(a) F(x;q,1) should be small when f behaves; two
    reference error scales are reported:

      power window  (x/q)/sqrt(log A)          (conductor bound x^(1/A), needs log x >= A >= 20)
      log window    x/(q (log x)^(1/3)) + x/log x   (conductor bound log x, A = log^2 x)

    Both take the unknowable o(1) to be 0, so they are reference curves,
    not bounds to assert.
    """
    if not 1 <= q <= min(x, MAX_MODULUS):
        raise PreconditionError(f"need 1 <= q <= min(x, {MAX_MODULUS}), got q={q}, x={x}")
    exc = find_exceptional(f, x, Q, A, table)
    r_div = q % exc.conductor == 0
    G = unit_group(q)
    chi = induce(exc.psi, q) if r_div else character_by_index(q, 0)
    pt = progression_sums(f, x, q, table)
    base = complex(pt.sums[1 % q])
    main_scale = _regroup(chi, pt.sums) / G.phi if r_div else None
    rows = []
    maxres = 0.0
    for a in (int(u) for u in G.units):
        v = complex(pt.sums[a])
        res = v - chi(a) * base
        maxres = max(maxres, abs(res))
        main = exc.psi(a) * main_scale if main_scale is not None else None
        rows.append(ProgressionRow(a=a, value=v, residual=res, main_term=main))
    logx = math.log(x)
    err_a = (x / q) / math.sqrt(math.log(A)) if A > 1 else None
    err_b = x / (q * logx ** (1.0 / 3.0)) + x / logx
    return ProgressionReport(
        x=x, q=q, conductor_bound=Q, t_bound=A,
        exceptional=exc, r_divides_q=r_div, chi=chi, rows=tuple(rows),
        max_residual=maxres,
        normalized_max_residual=maxres * q / x,
        error_ref_power_window=err_a,
        error_ref_log_window=err_b,
    )
