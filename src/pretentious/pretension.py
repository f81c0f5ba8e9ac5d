"""The distance between bounded multiplicative functions.

D_r(f, g; x)^2 = sum over p <= x, p not dividing r, of (1 - Re f(p)conj(g(p)))/p.

This is a pseudometric on functions with values in the unit disc, and the
whole library leans on one minimization: over primitive characters psi of
conductor r <= Q and |t| <= A, how close is f to psi(n) n^(it)?  The
minimizer is the "exceptional" character that controls progression sums.

Every minimization in t in the library (the scan, `min_distance_over_t`,
and through it the Halasz bounds) runs one loop, `_scan`, on one kernel
for all its characters: a grid of spacing pi/(4 log x) (the objective
cannot oscillate faster than log x), over [0, A] alone for the characters
whose objective is even in t and over [-A, A] for the rest, then rounds of
17-point grids across the two cells around each best point until its
spacing is at most 5e-7; a round evaluates the grids of all characters
still refining in one batched call per t-block (see below).  The grids run
on cell moments, and the reported distance is their value at the chosen t
(with A = 0, at t = 0): within the truncation bound below, plus rounding,
of the direct cosine sum (`TwistObjective`).  So an exact twist can read a
few ulps below 0; it is reported as it is.

Only the characters that can be among the `depth` nearest are refined:
M2 = sum |f(p)| log^2 p / p bounds |D''|, so on a coarse grid of spacing h
the kernel over |t| <= A is at least the Piyavskii-Shubert bound
LB = (coarse minimum) - M2 h^2/8 - 2 KERNEL_TOL (one eps from kernel to D at
the grid points, one back), and a character whose LB exceeds the depth-th
smallest coarse minimum by more than TIE_TOL + 4 KERNEL_TOL keeps its
coarse t and value, unrefined (see `find_exceptional`).

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
p mod q, so `_CellMoments` sums per residue class mod q and the unit-group
transform turns the sums into every character mod q at once.  Every scan
runs on one kind of prime data, every prime up to x, and builds one kernel
for all its characters, whatever their moduli: every cell starts at log 2,
so all columns share the cell centres, and the primes dividing a modulus r
fall into the classes mod r that the transform drops.  The phases
e^(-itu_c) come from a two-level table, e^(-itu_aL) e^(-it(c - aL) delta)
with L = PHASE_SPLIT: one complex exp per L cells plus L per point instead
of one per cell, and no recurrence, so nothing drifts along a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import PrimeTable
from .characters import (
    MAX_MODULUS,
    DirichletCharacter,
    character_row,
    enumerate_characters,
    primitive_mask,
    unit_group,
    unit_group_transform,
)
from .errors import PreconditionError
from .funcspec import (PRIME_CHUNK, CharacterSpec, FunctionSpec, One, Product, Twist,
                       over_primes, prime_values, read_prime_values)

T_REFINE_TOL = 1e-6
GRID_SPACING_FACTOR = math.pi / 4.0
REFINE_POINTS = 17
CELL_WIDTH = 0.05
FIRST_CELL = math.floor(math.log(2.0) / CELL_WIDTH)
PHASE_SPLIT = 16
MOMENTS = 9
T_BLOCK = 4.0
TRUNCATION_BOUND = (T_BLOCK * CELL_WIDTH / 2) ** MOMENTS / math.factorial(MOMENTS)
TIE_TOL = 1e-12
KERNEL_TOL = 1e-10
_GRID_CHUNK = 64
_BLOCKS_KEPT = 4
_EVEN_PROBE = 64


@dataclass(frozen=True)
class DistanceResult:
    squared_distance: float
    x: int
    excluded_modulus: int
    prime_count: int


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


def distance_squared(
    f: FunctionSpec,
    g: FunctionSpec,
    x: int,
    table: PrimeTable,
    r: int = 1,
) -> DistanceResult:
    """D_r(f, g; x)^2, summed over ascending primes with pairwise reduction.

    The terms (1 - Re f(p) conj(g(p))) / p stream through `over_primes`
    into one float64 array that is summed once."""
    if x < 2:
        raise PreconditionError(f"distance needs x >= 2, got {x}")
    if r < 1:
        raise PreconditionError(f"excluded modulus must be >= 1, got {r}")

    def term(ps):
        fv, gv = prime_values(f, ps, table), prime_values(g, ps, table)
        return (1.0 - (fv * np.conj(gv)).real) / ps

    terms = over_primes(table.primes_upto(x), term, r)
    return DistanceResult(squared_distance=float(np.sum(terms)), x=x, excluded_modulus=r,
                          prime_count=len(terms))


class _PrimeData:
    """The primes p <= x, as the classes that characters of every modulus
    reduce, with what all their twist objectives share: f(p) in f's fill
    dtype (int8 for the sign families), 1/p, log p, and the edges of the
    chunks that every sum of the scan walks: whole cells of log p, from the
    first prime in the cell of each PRIME_CHUNK-th prime on."""

    def __init__(self, f: FunctionSpec, x: int, table: PrimeTable):
        ps = table.primes_upto(x)
        self.fv = read_prime_values(f, ps, table)
        self.cls = ps
        self.inv_p = 1.0 / ps
        self.logp = np.log(ps, dtype=np.float64)
        self.x = x
        self.edges = [0]
        for lo in range(0, len(ps) - PRIME_CHUNK, PRIME_CHUNK):
            cell = np.floor(self.logp[lo : lo + PRIME_CHUNK + 1] / CELL_WIDTH)
            if cell[0] < cell[-1]:
                self.edges.append(lo + int(np.searchsorted(cell, cell[-1])))
        self.edges.append(len(ps))

    def base(self, q: int) -> float:
        """sum of 1/p over the primes p <= x not dividing q, which
        `over_primes` drops as every sum over the primes does."""
        return float(np.sum(over_primes(self.cls, lambda ps: 1.0 / ps, q)))


def _twisted(fv: np.ndarray, cls: np.ndarray, psi: DirichletCharacter) -> np.ndarray:
    """z_p = f(p) conj(psi(p)) at primes whose classes mod psi.q are cls."""
    z = np.conj(character_row(psi))[cls]
    np.multiply(fv, z, out=z)
    return z


def _is_even(data: _PrimeData, psi: DirichletCharacter) -> bool:
    """Whether psi's objective on data is even in t: every z_p is real.  A
    prime dividing psi.q has z_p = 0, so data may hold it.  A real f against
    a real character needs no look at the primes; otherwise they go through
    in the chunks of data.edges, the first _EVEN_PROBE primes on their own
    (a few settle most characters), until the first complex z_p."""
    if np.isrealobj(data.fv) and not character_row(psi).imag.any():
        return True
    edges = sorted({_EVEN_PROBE, *data.edges})
    return not any(_twisted(data.fv[lo:hi], data.cls[lo:hi] % psi.q, psi).imag.any()
                   for lo, hi in zip(edges, edges[1:]))


class _CellMoments:
    """base - Re sum_p f(p) conj(chi(p)) / p e^(-it log p) on grids of t, one
    column per character chi in `chars`, from Taylor moments over cells of
    log p (see the module docstring).

    Each character chi excludes the primes dividing chi.q, as its objective
    does: data holds every prime, and those primes fall into the classes
    mod chi.q that the unit-group transform drops.

    The moments of a t-block are built on first use from class sums over
    the chunks of data.edges, one modulus at a time into one array for all
    the columns; the last _BLOCKS_KEPT blocks are kept.
    """

    def __init__(self, data: _PrimeData, chars: list[DirichletCharacter]):
        self.data = data
        by_modulus: dict[int, list[int]] = {}
        for col, chi in enumerate(chars):
            by_modulus.setdefault(chi.q, []).append(col)
        self._groups = []
        self.base = np.empty((len(chars), 1))
        for q, cols in by_modulus.items():
            # the bin of each class within a cell: its place among the
            # units, or one spare bin for the classes of primes dividing q
            G = unit_group(q)
            bins = np.where(G.unit_index < 0, G.phi, G.unit_index)
            self._groups.append((q, cols, [chars[col].index for col in cols], bins))
            self.base[cols] = data.base(q)
        n = len(data.logp)
        self._cells = math.floor(data.logp[-1] / CELL_WIDTH) + 1 - FIRST_CELL if n else 0
        padded = -(-self._cells // PHASE_SPLIT) * PHASE_SPLIT
        self.centres = (np.arange(FIRST_CELL, FIRST_CELL + padded) + 0.5) * CELL_WIDTH
        self._offsets = np.arange(PHASE_SPLIT) * CELL_WIDTH
        self._blocks: dict[int, np.ndarray] = {}

    def _class_sums(self, j: int, q: int, bins: np.ndarray) -> np.ndarray:
        """C[m, c, b] = sum over p in cell c with p = b (mod q) of
        f(p)/p e^(-i t_j v_p) v_p^m for the units b, where v_p = log p - u_c
        and t_j = 2j T_BLOCK, over the chunks of data.edges.  Each cell lies
        in one chunk, so its sums do not depend on the chunking, but for the
        last bits of complex f where a chunk reaches 16384 primes: numpy then
        forms w e^(-i t_j v) in place, operands swapped.  The powers of v
        stream through one running array."""
        data = self.data
        width = unit_group(q).phi + 1
        C = np.zeros((MOMENTS, self._cells * width), dtype=np.complex128)
        for lo, hi in zip(data.edges, data.edges[1:]):
            logp = data.logp[lo:hi]
            key = np.floor(logp / CELL_WIDTH).astype(np.intp)
            key -= FIRST_CELL
            v = self.centres[key]
            np.subtract(logp, v, out=v)
            key *= width
            key += bins[data.cls[lo:hi] % q]
            w = data.fv[lo:hi] * data.inv_p[lo:hi]
            if j:
                w = w * np.exp(-2j * T_BLOCK * j * v)
            for m in range(MOMENTS):
                if m:
                    w *= v
                C[m].real += np.bincount(key, w.real, C.shape[1])
                if np.iscomplexobj(w):
                    C[m].imag += np.bincount(key, w.imag, C.shape[1])
        return C.reshape(MOMENTS, self._cells, width)[..., :-1]

    def _build(self, j: int) -> np.ndarray:
        """The moments of t-block j: the unit-group transform of each
        modulus's class sums, written column by column into one array."""
        W = np.zeros((len(self.base), len(self.centres), MOMENTS), dtype=np.complex128)
        for q, cols, index, bins in self._groups:
            T = unit_group_transform(self._class_sums(j, q, bins), q)
            for col, i in zip(cols, index):
                W[col, :self._cells] = T[..., i].T
        return W

    def moments(self, j: int) -> np.ndarray:
        """The moments of t-block j, shape (columns, cells, MOMENTS); the
        cells past the last prime's pad the phase table and hold zeros."""
        W = self._blocks.get(j)
        if W is None:
            if len(self._blocks) == _BLOCKS_KEPT:
                del self._blocks[next(iter(self._blocks))]
            W = self._blocks[j] = self._build(j)
        return W

    def _phases(self, t: np.ndarray) -> np.ndarray:
        """e^(-itu_c) for every cell c = aL + b, shape t.shape + (cells,), as
        e^(-itu_aL) e^(-itb delta) with L = PHASE_SPLIT: one complex exp per
        L cells plus L per point, and no recurrence to drift."""
        head = np.exp(np.multiply.outer(t, self.centres[::PHASE_SPLIT]) * -1j)
        tail = np.exp(np.multiply.outer(t, self._offsets) * -1j)
        E = head[..., :, None] * tail[..., None, :]
        return E.reshape(t.shape + (len(self.centres),))

    def _values(self, j: int, t: np.ndarray, W: np.ndarray, base: np.ndarray) -> np.ndarray:
        """base - Re sum_c e^(-itu_c) sum_m (-is)^m / m! W[k, c, m], s = t - t_j,
        at points t of block j, shape (k, n): t of shape (n,) is every
        column's grid, t of shape (k, n) holds one grid per column."""
        steps = np.empty(t.shape + (MOMENTS,), dtype=np.complex128)
        steps[..., 0] = 1.0
        steps[..., 1:] = (-1j * (t - 2.0 * T_BLOCK * j))[..., None] / np.arange(1, MOMENTS)
        R = self._phases(t) @ W
        R *= np.cumprod(steps, axis=-1)
        return base - R.sum(axis=-1).real

    def grids(self, requests: list[tuple[np.ndarray, slice | np.ndarray]]) -> list[np.ndarray]:
        """For each (ts, cols) in requests, the values of the columns cols: ts
        of shape (n,) is one grid for all of them, with cols a slice, and
        gives shape (columns, n); ts of shape (columns, n) holds one grid per
        column and gives ts.shape.  A point t is in block
        j = round(t / 2 T_BLOCK); one pass over the blocks serves every
        request, so each block's moments are built once.  Points go through
        in chunks whose phase tables have about _GRID_CHUNK rows."""
        todo = []
        for ts, cols in requests:
            ts = np.asarray(ts, dtype=np.float64)
            base = self.base[cols]
            todo.append((ts, np.rint(ts / (2.0 * T_BLOCK)).astype(np.intp), cols, base,
                         np.empty((len(base), ts.shape[-1]))))
        for j in sorted(set(np.concatenate([b.ravel() for _, b, *_ in todo]).tolist())):
            W = self.moments(j)
            for ts, blocks, cols, base, out in todo:
                hit = blocks == j
                if ts.ndim == 1:
                    idx = np.flatnonzero(hit)
                    for lo in range(0, len(idx), _GRID_CHUNK):
                        pts = idx[lo:lo + _GRID_CHUNK]
                        out[:, pts] = self._values(j, ts[pts], W[cols], base)
                    continue
                rows = np.flatnonzero(hit.any(axis=1))
                step = -(-_GRID_CHUNK // ts.shape[1])
                for lo in range(0, len(rows), step):
                    k = rows[lo:lo + step]
                    vals = self._values(j, ts[k], W[cols[k]], base[k])
                    out[k] = np.where(hit[k], vals, out[k])
        return [out for *_, out in todo]

    def grid(self, ts: np.ndarray) -> np.ndarray:
        """Every column at ts, shape (len(ts), columns)."""
        return self.grids([(ts, slice(None))])[0].T


class TwistObjective:
    """t -> D_q(f, psi(n) n^(it); x)^2 on the prime data, q = psi.q.

    Writing z_p = f(p) conj(psi(p)), the objective is
    sum 1/p - sum |z_p|/p * cos(arg z_p - t log p); it is even in t when
    every z_p is real.  Calls evaluate that cosine sum directly: the
    reference the kernel's error bound is stated against.  No scan calls
    it; the benchmark's tracer and the tests look it up by name.
    """

    def __init__(self, data: _PrimeData, psi: DirichletCharacter):
        z = _twisted(data.fv, data.cls % psi.q, psi)
        self.base = data.base(psi.q)
        self.amp = np.abs(z)
        self.amp *= data.inv_p
        self.phase = np.angle(z)
        self.logp = data.logp
        self.prime_count = len(data.logp)

    def __call__(self, t: float) -> float:
        return self.base - float(np.sum(self.amp * np.cos(self.phase - t * self.logp)))


def _coarse_grid(even: bool, A: float, x: int) -> np.ndarray:
    lo = 0.0 if even else -A
    h = GRID_SPACING_FACTOR / math.log(x)
    return np.linspace(lo, A, max(3, int(math.ceil((A - lo) / h)) + 1))


def _check_twist_bound(A: float):
    if not 0 <= A < math.inf:
        raise PreconditionError(f"twist bound A must be finite and >= 0, got {A}")


def _scan(data: _PrimeData, chars: list[DirichletCharacter], A: float,
          depth: int) -> tuple[list[float], np.ndarray]:
    """The t minimizing each character's objective over |t| <= A, in the
    order of `chars` (characters as _CellMoments takes them on data), with
    the kernel's value at each t: a grid scan of [-A, A], or of [0, A] for
    an even objective, then finer grids over the two cells around the best
    point down to spacing T_REFINE_TOL/2; t is the best point of the last
    grid, and its value is that grid's.  All of it runs on one kernel: each
    coarse grid once, on the columns of its parity, and each refine round
    once per t-block for every character still refining there.  With A = 0
    every t is 0, and the values are the kernel read there.  A
    character whose LB (see the module docstring) exceeds v + TIE_TOL +
    4 KERNEL_TOL, v the depth-th smallest coarse minimum, is not refined."""
    if A == 0:
        return [0.0] * len(chars), _CellMoments(data, chars).grid(np.zeros(1))[0]
    t = np.zeros(len(chars))
    value = np.empty(len(chars))
    # odd objectives first, so that each parity is a slice of the columns
    even = np.array([_is_even(data, chi) for chi in chars])
    order = np.argsort(even, kind="stable")
    kernel = _CellMoments(data, [chars[k] for k in order])
    n_odd = len(chars) - int(np.count_nonzero(even))
    grids = [(_coarse_grid(par, A, data.x), cols) for par, cols in
             ((False, slice(0, n_odd)), (True, slice(n_odd, len(chars))))
             if cols.stop > cols.start]
    # M2's terms go chunk by chunk into one array that is summed once
    terms = np.empty(len(data.logp))
    for lo, hi in zip(data.edges, data.edges[1:]):
        terms[lo:hi] = np.abs(data.fv[lo:hi]) * data.inv_p[lo:hi] * data.logp[lo:hi] ** 2
    M2 = float(np.sum(terms))
    cols, lo, hi, lb = [], [], [], []
    for (ts, c), vals in zip(grids, kernel.grids(grids)):
        i = np.argmin(vals, axis=1)
        c = np.arange(c.start, c.stop)
        h = ts[1] - ts[0]
        t[order[c]] = ts[i]
        value[order[c]] = vals[np.arange(len(c)), i]
        if h > T_REFINE_TOL / 2:
            cols.append(c)
            lo.append(ts[np.maximum(i - 1, 0)])
            hi.append(ts[np.minimum(i + 1, len(ts) - 1)])
            lb.append(value[order[c]] - M2 * h * h / 8 - 2 * KERNEL_TOL)
    if cols:
        cols, lo, hi, lb = (np.concatenate(a) for a in (cols, lo, hi, lb))
        v = np.sort(value)[min(depth, len(chars)) - 1]
        keep = lb <= v + TIE_TOL + 4 * KERNEL_TOL
        cols, lo, hi = cols[keep], lo[keep], hi[keep]
        # refine one t-block at a time, so that each block's moments are
        # built at most once more; from the highest block down, as the
        # coarse pass ended there and its moments are still kept
        home = np.rint((lo + hi) / (4.0 * T_BLOCK))
        for j in sorted(set(home.tolist()), reverse=True):
            mine = home == j
            k = order[cols[mine]]
            t[k], value[k] = _refine(kernel, cols[mine], lo[mine], hi[mine])
    return t.tolist(), value


def _refine(kernel: _CellMoments, cols: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The best point of each column in cols within its bracket [lo, hi],
    and its value: a grid of REFINE_POINTS points across every bracket still
    refining, in one call, then the two cells around each best point, until
    a column's spacing is at most T_REFINE_TOL/2."""
    t = np.empty(len(cols))
    value = np.empty(len(cols))
    left = np.arange(len(cols))
    while len(left):
        ts = np.linspace(lo, hi, REFINE_POINTS, axis=1)
        vals = kernel.grids([(ts, cols[left])])[0]
        i = np.argmin(vals, axis=1)
        rows = np.arange(len(left))
        done = ts[:, 1] - ts[:, 0] <= T_REFINE_TOL / 2
        t[left[done]] = ts[rows, i][done]
        value[left[done]] = vals[rows, i][done]
        go = ~done
        lo = ts[rows, np.maximum(i - 1, 0)][go]
        hi = ts[rows, np.minimum(i + 1, REFINE_POINTS - 1)][go]
        left = left[go]
    return t, value


def min_distance_over_t(
    f: FunctionSpec,
    psi: DirichletCharacter,
    x: int,
    A: float,
    table: PrimeTable,
) -> tuple[float, float]:
    """(t*, D^2 at t*) minimizing D_q(f, psi(n)n^(it); x)^2 over |t| <= A,
    q = psi.q; D^2 is the scan kernel's value, as in `find_exceptional`."""
    if x < 2:
        raise PreconditionError(f"distance needs x >= 2, got {x}")
    _check_twist_bound(A)
    (t,), (d2,) = _scan(_PrimeData(f, x, table), [psi], A, 1)
    return t, float(d2)


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
    """Scan primitive characters of conductor <= Q for the best twist, and
    report the `depth` nearest.

    Distances within TIE_TOL of each other tie; ties break toward smaller
    conductor, then smaller canonical index, then smaller |t|, then t >= 0.

    The reported D^2 is the scan kernel's value at each character's t (with
    A = 0, the kernel read at t = 0).  It is within TRUNCATION_BOUND *
    sum 1/p plus rounding of the direct cosine sum, which is below 1e-14 for
    x <= 1e8 (see the module docstring), so an exact twist can read a few
    ulps below 0.  Let m be the depth-th smallest value.  An entry in the
    first depth places is in a tie run that starts at or before place depth,
    so its value is at most m + TIE_TOL, and only the characters up to there
    are ordered.

    The scan leaves unrefined each character whose lower bound LB over
    |t| <= A exceeds v' + TIE_TOL + 4 KERNEL_TOL, v' the depth-th smallest
    coarse minimum.  The refine's first grid holds the coarse point up to an
    ulp of t, so m of a scan that refines every character is at most
    v' + 1e-14, and such a character's kernel is at least LB > m + TIE_TOL
    at every t: its value, refined or coarse, is outside the characters
    ordered.  So m and the report are those of the scan that refines every
    character.
    """
    if x < 3 or x > table.limit:
        raise PreconditionError(f"need 3 <= x <= table limit {table.limit}, got {x}")
    if not 1 <= Q <= MAX_MODULUS:
        raise PreconditionError(f"conductor bound must be in [1, {MAX_MODULUS}], got {Q}")
    if depth < 1:
        raise PreconditionError(f"spectrum depth must be >= 1, got {depth}")
    _check_twist_bound(A)
    chars = primitive_characters_upto(Q)
    ts, k = _scan(_PrimeData(f, x, table), chars, A, depth)
    m = np.sort(k)[min(depth, len(chars)) - 1]
    entries = _spectrum_order([SpectrumEntry(chars[i], chars[i].q, ts[i], float(k[i]))
                               for i in np.flatnonzero(k <= m + TIE_TOL)])
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
    report = find_exceptional(f, x, Q, A, table, depth=1)
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
