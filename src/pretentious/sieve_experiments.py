"""Progression sums through the sieve lens.

The central object: for f on the class a mod q, the primitive-character
mass of a modulus r is

    M(r) = sum over primitive psi mod r of | sum_{n <= x/q} f(nq + a) psi(n) |.

Moduli with M(r) >= eta * x/q are "bad"; the large sieve forces
sum over bad r of 1/phi(r) <= 2/eta^2, which this module asserts as a
theorem check on every scan.  Good squarefree r coprime to q admit the
transfer identity F(x;q,a) ~ r f(r) F(x/r; q, a r^{-1}) up to a budget
(x/q)(eta d(r) + 1 - phi(r)/r).

Per-modulus masses are computed from residue-class partial sums
(`_class_sums`) followed by the unit-group transform in exponent
coordinates, so nothing ever loops over characters times terms.  An
r == 2 (mod 4) has no primitive character: mass 0.0, with no fold and no
transform.  Every other r <= R folds the class sums of its largest
multiple m <= R, in (R/2, R], at O(m) instead of O(x/q), so only those m
sum the values.  The sign families (mobius, liouville, threshold, legendre,
one) keep f(nq + a) as int8, x/q bytes, and their class sums are exact
int64, so the fold is exact too; for complex f it reorders the additions,
so masses agree with a per-r sum to rounding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .arith import MAX_SIEVE_LIMIT, PrimeTable, divisors, factorize_small
from .characters import primitive_mask, unit_group, unit_group_transform
from .errors import PreconditionError, TheoremViolation
from .funcspec import FunctionSpec, _fill_blocks, _legendre_symbols, evaluate
from .meanvalues import _check_sums, _class_sums, progression_sums

LARGE_SIEVE_SLACK = 1e-9


def _check_class(q: int, a: int):
    if q < 1:
        raise PreconditionError(f"modulus must be >= 1, got q={q}")
    if math.gcd(a, q) != 1:
        raise PreconditionError(f"need gcd(a, q) = 1, got a={a}, q={q}")


def _check_eta(eta: float):
    if not 0 < eta <= 1:
        raise PreconditionError(f"need 0 < eta <= 1, got {eta}")


def _class_values(f: FunctionSpec, x: int, q: int, a: int, table: PrimeTable) -> np.ndarray:
    """f(nq + a) for n = 1..floor(x/q); a is normalized into [0, q).

    f streams through one fill block at a time and only every q-th value is
    kept, so f(0..Nq + a) is never held whole.  The values keep the fill's
    dtype: int8 for the sign families, complex128 otherwise."""
    _check_class(q, a)
    a = a % q
    N = x // q
    if N < 1:
        raise PreconditionError(f"x/q < 1 for x={x}, q={q}")
    top = N * q + a
    if top > table.limit:
        raise PreconditionError(
            f"scan needs values up to {top}; table stops at {table.limit}"
        )
    out = None
    for lo, block in _fill_blocks(f, top, table):
        if out is None:
            out = np.empty(N, block.dtype)
        first = max(lo, a + q)
        first += (a - first) % q
        picked = block[first - lo :: q]
        k = (first - a) // q - 1
        out[k : k + len(picked)] = picked
        k += len(picked)
        del block, picked  # freed before the next block is built
    assert k == N
    return out


def _mass_from_classes(c: np.ndarray, r: int) -> float:
    """Total |S_psi| over primitive psi mod r given the class sums
    c = _class_sums(v, r, 0) of terms v[i] of n = i + 1: c[b] holds the
    class n == b + 1 (mod r), so the unit u is read at c[u - 1].  A modulus
    with no primitive character, r == 2 (mod 4), has an empty mask and mass
    0.0; `bad_moduli` skips such r before it folds."""
    F = unit_group_transform(c[unit_group(r).units - 1], r)
    return float(np.sum(np.abs(F[primitive_mask(r)])))


def primitive_mass(class_values: np.ndarray, r: int) -> float:
    """M(r) for the given sequence of f(nq+a), n = 1..N.  int8 values
    outside {-1, 0, 1} are widened first: the int8 class sums hold only
    signs exactly."""
    v = class_values
    if v.dtype == np.int8 and ((v < -1) | (v > 1)).any():
        v = v.astype(np.int64)
    return _mass_from_classes(_class_sums(v, r, 0), r)


@dataclass(frozen=True)
class BadModuliReport:
    x: int
    q: int
    a: int
    eta: float
    n_terms: int
    modulus_bound: int
    bad: tuple[tuple[int, float], ...]  # (r, mass)
    sum_inverse_phi: float
    large_sieve_bound: float
    masses: tuple[tuple[int, float], ...] | None  # (r, mass) for every 1 < r <= R


def bad_moduli(
    f: FunctionSpec,
    x: int,
    q: int,
    a: int,
    eta: float,
    table: PrimeTable,
) -> BadModuliReport:
    """Scan 1 < r <= sqrt(x/q) for moduli with primitive mass >= eta x/q.

    Raises TheoremViolation if the bad set breaks sum 1/phi(r) <= 2/eta^2;
    that inequality is a theorem, so failing it means a bug, not bad data.
    Small eta (<= 1/sqrt(log x)) only weakens what a "good" modulus buys
    downstream, so that range warns instead of refusing.
    """
    _check_eta(eta)
    floor_eta = 1.0 / math.sqrt(math.log(x)) if x > 1 else 1.0
    if eta <= floor_eta:
        warnings.warn(
            f"eta={eta:g} is at or below 1/sqrt(log x) = {floor_eta:.4f}; the "
            f"mass bound still holds but good-moduli guarantees weaken",
            RuntimeWarning,
            stacklevel=2,
        )
    cv = _class_values(f, x, q, a, table)
    N = len(cv)
    R = math.isqrt(x // q)
    threshold = eta * (x / q)
    # each r <= R folds its class sums from those of its largest multiple
    # m = r floor(R/r), which lies in (R/2, R]: only those m read cv.  The
    # masses read only unit classes, and a unit u of r >= 2 is read at
    # b = u - 1 >= 0, whose fold sums c_m[b], c_m[b + r], ... in index order
    folded = {}  # m -> the r whose largest multiple it is
    for r in range(2, R + 1):
        if r % 4 != 2:  # else no primitive character: mass 0.0 with no fold
            folded.setdefault(R // r * r, []).append(r)
    mass = {}
    for m, rs in folded.items():
        c_m = _class_sums(cv, m, 0)
        for r in rs:
            mass[r] = _mass_from_classes(_class_sums(c_m, r, 0), r)
    masses = [(r, mass.get(r, 0.0)) for r in range(2, R + 1)]
    bad = [(r, m) for r, m in masses if m >= threshold]
    s = sum(1.0 / unit_group(r).phi for r, _ in bad)
    bound = 2.0 / eta**2
    if s > bound + LARGE_SIEVE_SLACK:
        raise TheoremViolation(
            f"bad-moduli mass sum {s:.6f} exceeds large-sieve bound {bound:.6f} "
            f"(f={f}, x={x}, q={q}, a={a}, eta={eta})"
        )
    return BadModuliReport(
        x=x, q=q, a=a, eta=eta, n_terms=N, modulus_bound=R,
        bad=tuple(bad), sum_inverse_phi=s, large_sieve_bound=bound,
        masses=tuple(masses),
    )


@dataclass(frozen=True)
class TransferCheck:
    x: int
    q: int
    a: int
    r: int
    eta: float
    lhs: complex
    rhs: complex
    difference: float
    budget: float


def transfer_check(
    f: FunctionSpec,
    x: int,
    q: int,
    a: int,
    r: int,
    eta: float,
    table: PrimeTable,
) -> TransferCheck:
    """Compare F(x;q,a) against r f(r) F(x/r; q, a r^{-1} mod q).

    Preconditions: r squarefree, coprime to q, and "good": no divisor
    ell > 1 of r reaches the eta mass threshold.
    """
    _check_eta(eta)
    _check_class(q, a)
    if math.gcd(r, q) != 1:
        raise PreconditionError(f"need gcd(r, q) = 1, got r={r}, q={q}")
    fr = table.factorize(r)
    if any(e > 1 for _, e in fr.factors):
        raise PreconditionError(f"transfer needs squarefree r, got {r}")
    if r < 1 or r > math.isqrt(x // q):
        raise PreconditionError(f"need 1 <= r <= sqrt(x/q), got r={r}")
    cv = _class_values(f, x, q, a, table)
    threshold = eta * (x / q)
    for ell in divisors(r):
        if ell > 1 and primitive_mass(cv, ell) >= threshold:
            raise PreconditionError(
                f"r={r} is not good at eta={eta}: divisor {ell} is a bad modulus"
            )
    lhs = complex(progression_sums(f, x, q, table).sums[a % q])
    ainv = (a * pow(r, -1, q)) % q
    sub = progression_sums(f, x // r, q, table)
    rhs = r * complex(evaluate(f, r, table)) * complex(sub.sums[ainv])
    phi_r = unit_group(r).phi
    budget = (x / q) * (eta * fr.divisor_count() + (1.0 - phi_r / r))
    return TransferCheck(x=x, q=q, a=a, r=r, eta=eta, lhs=lhs, rhs=rhs,
                         difference=abs(lhs - rhs), budget=budget)


@dataclass(frozen=True)
class DefectReport:
    x: int
    q: int
    max_defect: float
    normalized_max_defect: float
    scale: float
    pairs: tuple[tuple[int, int, float], ...]


def multiplicativity_defect(f: FunctionSpec, x: int, q: int, table: PrimeTable) -> DefectReport:
    """max over unit pairs (a, b) of |F(ab)F(1) - F(a)F(b)|, normalized by
    (x/q) max_c |F(c)|.  Near-multiplicativity of a -> F(x;q,a) is an
    asymptotic statement far beyond desk scale, so treat this as trend data."""
    _check_sums(x, q, table)
    G = unit_group(q)
    pt = progression_sums(f, x, q, table)
    units = [int(u) for u in G.units]
    Fv = {a: complex(pt.sums[a]) for a in units}
    F1 = Fv[1 % q]
    scale = (x / q) * max(abs(v) for v in Fv.values())
    pairs = []
    worst = 0.0
    for i, a in enumerate(units):
        for b in units[i:]:
            d = abs(Fv[(a * b) % q] * F1 - Fv[a] * Fv[b])
            worst = max(worst, d)
            pairs.append((a, b, d))
    return DefectReport(
        x=x, q=q, max_defect=worst,
        normalized_max_defect=worst / scale if scale > 0 else float("inf"),
        scale=scale, pairs=tuple(pairs),
    )


@dataclass(frozen=True)
class LegendreScanReport:
    x: int
    q: int
    a: int
    p_limit: int
    infimum: float
    argmin_p: int
    square_class: bool
    running: tuple[tuple[int, float], ...]


def legendre_progression_experiment(
    q: int, a: int, x: int, p_limit: int, table: PrimeTable
) -> LegendreScanReport:
    """inf over odd primes p <= p_limit, p not dividing q, of
    (q/x) sum_{n <= x, n == a (q)} (n|p).

    Classes containing squares have asymptotic floor delta1 = -0.656...;
    classes with no squares can reach -1.  Finite scale drifts below the
    floor, so callers compare with slack.  With no such p there is no
    infimum, and the scan is refused.  The table is read only for the
    primes up to p_limit, so it needs p_limit <= table.limit; x may be
    any number up to the sieve limit.
    """
    _check_class(q, a)
    if x > MAX_SIEVE_LIMIT:
        raise PreconditionError(f"x={x} exceeds the sieve limit {MAX_SIEVE_LIMIT}")
    start = a % q
    if start == 0:
        start = q
    ps = [p for p in table.primes_upto(p_limit).tolist() if p != 2 and q % p]
    if not ps:
        raise PreconditionError(f"no odd prime p <= {p_limit} is coprime to q={q}")
    # the terms are n = start + jq for j < N. As gcd(p, q) = 1, n mod p runs
    # through every residue once in any p consecutive j, and the symbol sums
    # to 0 over them, so only the first N mod p terms are left
    N = (x - start) // q + 1
    best = math.inf
    best_p = 0
    running = []
    for p in ps:
        row = _legendre_symbols(p)  # each p once: a row not kept
        residues = (start + (q % p) * np.arange(N % p, dtype=np.int64)) % p
        s = float(np.sum(row[residues])) * q / x
        if s < best:
            best = s
            best_p = p
            running.append((p, s))
    # a is a square mod q iff it is one mod each p^e | q: by Euler's criterion
    # at an odd p, and iff a == 1 (mod gcd(q, 8)) at p = 2
    square = (a - 1) % math.gcd(q, 8) == 0 and all(
        pow(a, (p - 1) // 2, p) == 1 for p, _ in factorize_small(q) if p != 2)
    return LegendreScanReport(
        x=x, q=q, a=a, p_limit=p_limit, infimum=best, argmin_p=best_p,
        square_class=square,
        running=tuple(running),
    )
