"""The distance between bounded multiplicative functions.

D_r(f, g; x)^2 = sum over p <= x, p not dividing r, of (1 - Re f(p)conj(g(p)))/p.

This is a pseudometric on functions with values in the unit disc, and the
whole library leans on one minimization: over primitive characters psi of
conductor r <= Q and |t| <= A, how close is f to psi(n) n^(it)?  The
minimizer is the "exceptional" character that controls progression sums.

Every minimization in t in the library (the scan, `min_distance_over_t`,
`minimize_twist`, and through them the Halasz bounds) runs one loop,
`_scan`: a grid of spacing pi/(4 log x) (the objective cannot oscillate
faster than log x), over [0, A] alone when the objective is even in t, then
17-point grids across the two cells around the best point until the spacing
is at most 5e-7.  The reported distance is the direct cosine sum at the
chosen t; the grids run on cell moments.

Cell moments.  With w_p = f(p) conj(psi(p)) / p, the grids need
S(t) = sum_p w_p e^(-it log p).  log p is binned into cells of width
delta = CELL_WIDTH with centres u_c, and t into blocks of half-width
B = T_BLOCK with centres t_j = 2jB.  Writing v = log p - u_c and s = t - t_j,

    S(t) = sum_c e^(-itu_c) sum_{m < M} (-is)^m / m! W_j[c, m],
    W_j[c, m] = sum over p in cell c of w_p e^(-it_j v) v^m,

up to the Taylor remainder of e^(-isv), which is at most |sv|^M / M!.  As
|s| <= B, |v| <= delta/2 and |w_p| <= 1/p, every grid value is within
TRUNCATION_BOUND * sum_{p <= x} 1/p of S(t), where TRUNCATION_BOUND =
(B delta / 2)^M / M! = 2.8e-15 for delta = 0.05, M = MOMENTS = 9 and B = 4;
for x <= 1e8, sum 1/p < 3.2, so the bound is below 1e-14.  One pass over the
primes builds a block's moments, and each grid point then costs a sum over
about log(x)/delta cells instead of pi(x) primes.  psi(p) depends only on
p mod q, so `_CellMoments` keeps moments per residue class mod q and the
unit-group transform turns them into every character mod q at once.
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
    unit_group,
    unit_group_transform,
)
from .errors import PreconditionError
from .funcspec import CharacterSpec, FunctionSpec, One, Product, Twist, prime_values

T_REFINE_TOL = 1e-6
GRID_SPACING_FACTOR = math.pi / 4.0
REFINE_POINTS = 17
CELL_WIDTH = 0.05
MOMENTS = 9
T_BLOCK = 4.0
TRUNCATION_BOUND = (T_BLOCK * CELL_WIDTH / 2) ** MOMENTS / math.factorial(MOMENTS)
TIE_TOL = 1e-12
_GRID_CHUNK = 64
_BLOCKS_KEPT = 4


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


class _PrimeData:
    """The primes p <= x not dividing r, with what every twist objective
    that excludes r shares: f(p), 1/p and its sum, log p, and p mod q."""

    def __init__(self, fv: np.ndarray, x: int, r: int, q: int, table: PrimeTable):
        ps = table.primes_upto(x)
        keep = r % ps != 0
        ps = ps[keep]
        self.fv = fv[keep]
        self.cls = (ps % q).astype(np.min_scalar_type(q))
        self.inv_p = 1.0 / ps
        self.base = float(np.sum(self.inv_p))
        self.logp = np.log(ps, dtype=np.float64)
        self.x = x
        self.r = r
        self.q = q


class _CellMoments:
    """base - Re sum_p f(p) conj(chi(p)) / p e^(-it log p) on grids of t, one
    column per character chi in `chars` (characters mod data.q), from Taylor
    moments over cells of log p (see the module docstring).

    Moments are kept per class p mod q, and the unit-group transform turns
    them into the columns.  The moments of a t-block are built on first use;
    the last _BLOCKS_KEPT blocks are kept.
    """

    def __init__(self, data: _PrimeData, chars: list[DirichletCharacter]):
        self.data = data
        self.index = [chi.index for chi in chars]
        logp = data.logp
        self.first = math.floor(logp[0] / CELL_WIDTH) if len(logp) else 0
        last = math.floor(logp[-1] / CELL_WIDTH) if len(logp) else -1
        self.centres = (np.arange(self.first, last + 1) + 0.5) * CELL_WIDTH
        self._blocks: dict[int, np.ndarray] = {}

    def _class_moments(self, j: int) -> np.ndarray:
        """W[c, m, b] = sum over p in cell c with p = b (mod q) of
        f(p)/p e^(-i t_j v_p) v_p^m, where v_p = log p - u_c and t_j = 2j T_BLOCK.
        The powers stream through one running array."""
        data, q = self.data, self.data.q
        cell = np.floor(data.logp / CELL_WIDTH).astype(np.intp)
        cell -= self.first
        v = self.centres[cell]
        np.subtract(data.logp, v, out=v)
        w = data.fv * data.inv_p
        if j:
            w = w * np.exp(-2j * T_BLOCK * j * v)
        cell *= q
        cell += data.cls
        n = len(self.centres) * q
        W = np.zeros((MOMENTS, n), dtype=np.complex128)
        for m in range(MOMENTS):
            if m:
                w *= v
            W[m].real = np.bincount(cell, w.real, n)
            if np.iscomplexobj(w):
                W[m].imag = np.bincount(cell, w.imag, n)
        return W.reshape(MOMENTS, -1, q).transpose(1, 0, 2)

    def moments(self, j: int) -> np.ndarray:
        """The moments of t-block j, shape (cells, MOMENTS, columns)."""
        W = self._blocks.get(j)
        if W is None:
            if len(self._blocks) == _BLOCKS_KEPT:
                del self._blocks[next(iter(self._blocks))]
            q = self.data.q
            W = self._class_moments(j)[..., unit_group(q).units]
            W = unit_group_transform(W, q)[..., self.index]
            W = self._blocks[j] = np.ascontiguousarray(W)
        return W

    def grid(self, ts: np.ndarray, col: int | None = None) -> np.ndarray:
        """Values at ts, shape (len(ts), columns), or (len(ts),) for one
        `col`.  A point t in block j = round(t / 2 T_BLOCK) is
        base - Re sum_c e^(-itu_c) sum_m (-is)^m / m! W_j[c, m], s = t - t_j."""
        ts = np.asarray(ts, dtype=np.float64)
        blocks = np.rint(ts / (2.0 * T_BLOCK)).astype(np.intp)
        out = None
        for j in sorted(set(blocks.tolist())):
            W = self.moments(j)
            if col is not None:
                W = W[..., col:col + 1]
            k = W.shape[-1]
            W = W.reshape(len(self.centres), MOMENTS * k)
            if out is None:
                out = np.empty((len(ts), k))
            rows = np.flatnonzero(blocks == j)
            for lo in range(0, len(rows), _GRID_CHUNK):
                idx = rows[lo:lo + _GRID_CHUNK]
                t = ts[idx]
                steps = np.ones((len(idx), MOMENTS), dtype=np.complex128)
                steps[:, 1:] = (-1j * (t - 2.0 * T_BLOCK * j))[:, None] / np.arange(1, MOMENTS)
                taylor = np.cumprod(steps, axis=1)
                E = np.multiply.outer(t, self.centres) * -1j
                np.exp(E, out=E)
                R = (E @ W).reshape(len(idx), MOMENTS, k)
                out[idx] = self.data.base - np.einsum("nm,nmk->nk", taylor, R).real
        return out if col is None else out[:, 0]


class TwistObjective:
    """t -> D_r(f, psi(n) n^(it); x)^2 from precomputed prime data.

    Writing z_p = f(p) conj(psi(p)), the objective is
    sum 1/p - sum |z_p|/p * cos(arg z_p - t log p); it is even in t when
    every z_p is real.  `fv` is f at table.primes_upto(x), when the caller
    already has it.  Calls evaluate that cosine sum directly; `grid` runs on
    cell moments.
    """

    def __init__(self, f, psi: DirichletCharacter, x: int, table: PrimeTable,
                 r: int | None = None, fv: np.ndarray | None = None):
        if r is None:
            r = psi.q
        if fv is None:
            fv = prime_values(f, table.primes_upto(x), table)
        self._bind(_PrimeData(fv, x, r, psi.q, table), psi)

    @classmethod
    def _on(cls, data: _PrimeData, psi: DirichletCharacter) -> "TwistObjective":
        """psi's objective over prime data shared with other characters."""
        obj = cls.__new__(cls)
        obj._bind(data, psi)
        return obj

    def _bind(self, data: _PrimeData, psi: DirichletCharacter):
        z = np.conj(character_row(psi))[data.cls]
        np.multiply(data.fv, z, out=z)
        self.base = data.base
        self.amp = np.abs(z)
        self.amp *= data.inv_p
        self.phase = np.angle(z)
        self.logp = data.logp
        self.even = bool(np.all(z.imag == 0))
        self.x = data.x
        self.r = data.r
        self.prime_count = len(data.logp)
        self._data = data
        self._psi = psi

    def __call__(self, t: float) -> float:
        return self.base - float(np.sum(self.amp * np.cos(self.phase - t * self.logp)))

    def grid(self, ts: np.ndarray) -> np.ndarray:
        """The objective at each of ts from cell moments, within
        TRUNCATION_BOUND * sum 1/p (plus rounding) of the direct sum."""
        return _CellMoments(self._data, [self._psi]).grid(ts, 0)


def _coarse_grid(even: bool, A: float, x: int) -> np.ndarray:
    lo = 0.0 if even else -A
    h = GRID_SPACING_FACTOR / math.log(x)
    return np.linspace(lo, A, max(3, int(math.ceil((A - lo) / h)) + 1))


def _scan(data: _PrimeData, chars: list[DirichletCharacter],
          A: float) -> list[tuple[float, float]]:
    """(t, D^2) minimizing each character's objective over |t| <= A, in the
    order of `chars` (characters mod data.q): a grid scan of [-A, A] ([0, A]
    for an even objective), then finer grids over the two cells around the
    best point down to spacing T_REFINE_TOL/2.  D^2 is the direct cosine sum
    at the best point of the last grid.  Every grid runs on one set of class
    moments that the unit-group transform turns into all of chars at once."""
    if A < 0:
        raise PreconditionError(f"twist bound A must be >= 0, got {A}")
    kernel = _CellMoments(data, chars)
    # both coarse grids, for every character, in one pass over the t-blocks
    # and before any objective exists: each block's moments are then built
    # once, while the fewest prime-length arrays live
    if A > 0:
        odd, even = _coarse_grid(False, A, data.x), _coarse_grid(True, A, data.x)
        vals = kernel.grid(np.concatenate([odd, even]))
        coarse = {False: (odd, vals[:len(odd)]), True: (even, vals[len(odd):])}
    out = []
    for col, psi in enumerate(chars):
        obj = TwistObjective._on(data, psi)
        t = 0.0
        if A > 0:
            ts, vals = coarse[obj.even]
            vals = vals[:, col]
            while ts[1] - ts[0] > T_REFINE_TOL / 2:
                i = int(np.argmin(vals))
                ts = np.linspace(ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)],
                                 REFINE_POINTS)
                vals = kernel.grid(ts, col)
            t = float(ts[np.argmin(vals)])
        out.append((t, obj(t)))
        del obj  # before the next character's arrays are built
    return out


def minimize_twist(obj: TwistObjective, A: float, x: int) -> tuple[float, float]:
    """`_scan` of obj's character over |t| <= A; x is obj's x."""
    return _scan(obj._data, [obj._psi], A)[0]


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
    if fv is None:
        fv = prime_values(f, table.primes_upto(x), table)
    data = _PrimeData(fv, x, psi.q if r is None else r, psi.q, table)
    return _scan(data, [psi], A)[0]


def _primitive_characters(r: int) -> list[DirichletCharacter]:
    return [chi for chi, keep in zip(enumerate_characters(r), primitive_mask(r)) if keep]


def primitive_characters_upto(Q: int) -> list[DirichletCharacter]:
    """All primitive characters of conductor <= Q (conductor 1 included)."""
    return [chi for r in range(1, Q + 1) for chi in _primitive_characters(r)]


def _spectrum_order(entries: list[SpectrumEntry]) -> list[SpectrumEntry]:
    """Ascending D^2; each run of entries within TIE_TOL of the run's first
    is a tie, ordered by conductor, canonical index, |t|, then t >= 0."""
    entries = sorted(entries, key=lambda e: e.squared_distance)
    out = []
    i = 0
    while i < len(entries):
        j = i + 1
        while (j < len(entries) and
               entries[j].squared_distance - entries[i].squared_distance <= TIE_TOL):
            j += 1
        out += sorted(entries[i:j], key=lambda e: (e.conductor, e.character.index,
                                                    abs(e.t), e.t < 0))
        i = j
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

    Distances within TIE_TOL of each other tie; ties break toward smaller
    conductor, then smaller canonical index, then smaller |t|, then t >= 0.
    """
    if x < 3 or x > table.limit:
        raise PreconditionError(f"need 3 <= x <= table limit {table.limit}, got {x}")
    if Q < 1:
        raise PreconditionError(f"conductor bound must be >= 1, got {Q}")
    if A < 0:
        raise PreconditionError(f"twist bound A must be >= 0, got {A}")
    fv = prime_values(f, table.primes_upto(x), table)
    entries = []
    for r in range(1, Q + 1):
        chars = _primitive_characters(r)
        if chars:
            scan = _scan(_PrimeData(fv, x, r, r, table), chars, A)
            entries += [SpectrumEntry(psi, r, t, d2) for psi, (t, d2) in zip(chars, scan)]
    entries = _spectrum_order(entries)
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
    g = Product((CharacterSpec(q, chi.index), Twist(t)))
    return [(x, distance_squared(One(), g, x, table, r=q).squared_distance,
             0.5 * math.log(math.log(x) / math.log(q * (1.0 + abs(t)))))
            for x in sorted(xs)]


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
