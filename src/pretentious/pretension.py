"""The distance between bounded multiplicative functions.

D_r(f, g; x)^2 = sum over p <= x, p not dividing r, of (1 - Re f(p)conj(g(p)))/p.

This is a pseudometric on functions with values in the unit disc, and the
whole library leans on one minimization: over primitive characters psi of
conductor r <= Q and |t| <= A, how close is f to psi(n) n^(it)?  The
minimizer is the "exceptional" character that controls progression sums.

Minimization in t runs on a grid of spacing pi/(4 log x) (the objective
cannot oscillate faster than log x), over [0, A] alone when the objective is
even in t, then on 17-point grids across the two cells around the best
point until the spacing is at most 5e-7.  Each grid is evaluated by
rotating the prime terms one step at a time, so no cosine is taken per
point; the reported distance is the direct cosine sum at the chosen t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import PrimeTable
from .characters import (
    DirichletCharacter,
    character_row,
    enumerate_characters,
    primitive_mask,
)
from .errors import PreconditionError
from .funcspec import FunctionSpec, prime_values

T_REFINE_TOL = 1e-6
GRID_SPACING_FACTOR = math.pi / 4.0
REFINE_POINTS = 17


@dataclass(frozen=True)
class DistanceResult:
    squared_distance: float
    x: int
    excluded_modulus: int
    prime_count: int
    terms: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SpectrumEntry:
    character: DirichletCharacter
    conductor: int
    t: float
    squared_distance: float


@dataclass(frozen=True)
class ExceptionalReport:
    x: int
    conductor_bound: int
    t_bound: float
    psi: DirichletCharacter
    conductor: int
    t: float
    squared_distance: float
    spectrum: tuple[SpectrumEntry, ...]
    grid_spacing: float
    refine_tolerance: float


def _included_primes(x: int, r: int, table: PrimeTable) -> np.ndarray:
    ps = table.primes_upto(x)
    return ps[r % ps != 0]


def distance_squared(
    f: FunctionSpec,
    g: FunctionSpec,
    x: int,
    table: PrimeTable,
    r: int = 1,
    keep_terms: bool = False,
) -> DistanceResult:
    """D_r(f, g; x)^2, summed over ascending primes with pairwise reduction."""
    if x < 2:
        raise PreconditionError(f"distance needs x >= 2, got {x}")
    if r < 1:
        raise PreconditionError(f"excluded modulus must be >= 1, got {r}")
    ps = _included_primes(x, r, table)
    fv = prime_values(f, ps, table)
    gv = prime_values(g, ps, table)
    terms = (1.0 - (fv * np.conj(gv)).real) / ps
    total = float(np.sum(terms))
    return DistanceResult(
        squared_distance=total,
        x=x,
        excluded_modulus=r,
        prime_count=len(ps),
        terms=terms if keep_terms else None,
    )


class TwistObjective:
    """t -> D_r(f, psi(n) n^(it); x)^2 from precomputed prime data.

    Writing z_p = f(p) conj(psi(p)), the objective is
    sum 1/p - sum |z_p|/p * cos(arg z_p - t log p); it is even in t when
    every z_p is real.  `fv` is f at table.primes_upto(x), when the caller
    already has it.
    """

    def __init__(self, f, psi: DirichletCharacter, x: int, table: PrimeTable,
                 r: int | None = None, fv: np.ndarray | None = None):
        if r is None:
            r = psi.q
        ps = table.primes_upto(x)
        if fv is None:
            fv = prime_values(f, ps, table)
        keep = r % ps != 0
        ps = ps[keep]
        z = fv[keep] * np.conj(character_row(psi)[ps % psi.q])
        inv_p = 1.0 / ps
        self.base = float(np.sum(inv_p))
        self.amp = np.abs(z) * inv_p
        self.phase = np.angle(z)
        self.logp = np.log(ps.astype(np.float64))
        self.even = bool(np.all(z.imag == 0))
        self.x = x
        self.r = r
        self.prime_count = len(ps)

    def __call__(self, t: float) -> float:
        return self.base - float(np.sum(self.amp * np.cos(self.phase - t * self.logp)))

    def grid(self, ts: np.ndarray) -> np.ndarray:
        """The objective at evenly spaced ts: the terms
        amp_p e^(i(phase_p - t log p)) are built once at ts[0] and rotated
        by e^(-i h log p) per step of h."""
        n = len(ts)
        w = self.amp * np.exp(1j * (self.phase - ts[0] * self.logp))
        step = np.exp(-1j * ((ts[-1] - ts[0]) / max(n - 1, 1)) * self.logp)
        out = np.empty(n)
        for k in range(n):
            if k:
                w *= step
            out[k] = self.base - float(np.sum(w.real))
        return out


def minimize_twist(obj: TwistObjective, A: float, x: int) -> tuple[float, float]:
    """Grid scan of [-A, A] ([0, A] for an even objective), then finer grids
    over the two cells around the best point down to spacing T_REFINE_TOL/2.

    Returns the best point of the last grid and obj there."""
    if A < 0:
        raise PreconditionError(f"twist bound A must be >= 0, got {A}")
    if A == 0:
        return 0.0, obj(0.0)
    lo = 0.0 if obj.even else -A
    h = GRID_SPACING_FACTOR / math.log(x)
    ts = np.linspace(lo, A, max(3, int(math.ceil((A - lo) / h)) + 1))
    while True:
        i = int(np.argmin(obj.grid(ts)))
        if ts[1] - ts[0] <= T_REFINE_TOL / 2:
            t = float(ts[i])
            return t, obj(t)
        ts = np.linspace(ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)], REFINE_POINTS)


def min_distance_over_t(
    f: FunctionSpec,
    psi: DirichletCharacter,
    x: int,
    A: float,
    table: PrimeTable,
    r: int | None = None,
    fv: np.ndarray | None = None,
) -> tuple[float, float]:
    """(t*, D^2 at t*) minimizing D_r(f, psi(n)n^(it); x)^2 over |t| <= A."""
    obj = TwistObjective(f, psi, x, table, r=r, fv=fv)
    return minimize_twist(obj, A, x)


def primitive_characters_upto(Q: int) -> list[DirichletCharacter]:
    """All primitive characters of conductor <= Q (conductor 1 included)."""
    out = []
    for r in range(1, Q + 1):
        out += [chi for chi, keep in zip(enumerate_characters(r), primitive_mask(r)) if keep]
    return out


def find_exceptional(
    f: FunctionSpec,
    x: int,
    Q: int,
    A: float,
    table: PrimeTable,
    depth: int = 10,
) -> ExceptionalReport:
    """Scan primitive characters of conductor <= Q for the best twist.

    Ties in D^2 break toward smaller conductor, then smaller canonical
    index, then smaller |t|, then t >= 0.
    """
    if x < 3 or x > table.limit:
        raise PreconditionError(f"need 3 <= x <= table limit {table.limit}, got {x}")
    if Q < 1:
        raise PreconditionError(f"conductor bound must be >= 1, got {Q}")
    fv = prime_values(f, table.primes_upto(x), table)
    entries = []
    for psi in primitive_characters_upto(Q):
        t, v = min_distance_over_t(f, psi, x, A, table, fv=fv)
        entries.append(SpectrumEntry(psi, psi.q, t, v))
    entries.sort(
        key=lambda e: (
            e.squared_distance,
            e.conductor,
            e.character.index,
            abs(e.t),
            0 if e.t >= 0 else 1,
        )
    )
    best = entries[0]
    return ExceptionalReport(
        x=x,
        conductor_bound=Q,
        t_bound=A,
        psi=best.character,
        conductor=best.conductor,
        t=best.t,
        squared_distance=best.squared_distance,
        spectrum=tuple(entries[:depth]),
        grid_spacing=GRID_SPACING_FACTOR / math.log(x),
        refine_tolerance=T_REFINE_TOL,
    )


def repulsion_spectrum(report: ExceptionalReport) -> list[tuple[int, float, float]]:
    """(j, D_j^2, (1 - 1/sqrt(j)) loglog x) for the j-th best character.

    The reference is the asymptotic floor under which the j-th distance
    cannot fall; at desk scale the additive O(sqrt(loglog x)) slack matters,
    so this is trend data, not an assertion.
    """
    llx = math.log(math.log(report.x))
    return [
        (j, e.squared_distance, (1.0 - 1.0 / math.sqrt(j)) * llx)
        for j, e in enumerate(report.spectrum, start=1)
    ]


def twist_distance_profile(
    chi: DirichletCharacter,
    t: float,
    xs: list[int],
    table: PrimeTable,
) -> list[tuple[int, float, float]]:
    """D_q(1, chi(n)n^(it); x)^2 against the reference growth curve
    (1/2) log( log x / log(q(1+|t|)) ), with the unknown absolute constant
    set to 1.  Trend data only."""
    q = chi.q
    if q < 3 or chi.is_principal():
        raise PreconditionError("profile needs a non-principal character, q >= 3")
    out = []
    for x in sorted(xs):
        ps = _included_primes(x, q, table)
        row = character_row(chi)
        gv = row[ps % q] * np.exp(1j * t * np.log(ps.astype(np.float64)))
        d2 = float(np.sum((1.0 - gv.real) / ps))
        ref = 0.5 * math.log(math.log(x) / math.log(q * (1.0 + abs(t))))
        out.append((x, d2, ref))
    return out


@dataclass(frozen=True)
class RealCheckResult:
    applicable: bool
    threshold: float
    squared_distance: float
    psi_is_real: bool | None
    t: float | None
    t_scale: float


def real_function_check(
    f: FunctionSpec,
    x: int,
    Q: int,
    A: float,
    table: PrimeTable,
) -> RealCheckResult:
    """For real-valued f: when some twist gets within (1/16) loglog x, the
    minimizer's character must be real and t must sit at scale 1/sqrt(log x)."""
    if not f.real_valued:
        raise PreconditionError("real_function_check needs a real-valued spec")
    report = find_exceptional(f, x, Q, A, table)
    threshold = math.log(math.log(x)) / 16.0
    applicable = report.squared_distance <= threshold
    return RealCheckResult(
        applicable=applicable,
        threshold=threshold,
        squared_distance=report.squared_distance,
        psi_is_real=report.psi.is_real() if applicable else None,
        t=report.t if applicable else None,
        t_scale=1.0 / math.sqrt(math.log(x)),
    )
