"""Recovering a character from an approximate homomorphism on (Z/qZ)*.

If g(1) = 1 and every pair defect |g(ab) - g(a)g(b)| stays below
epsilon < 1/2, then the character chi maximizing |ghat(chi)| satisfies
|ghat(chi)| >= (1 - 2 epsilon) phi(q) and is uniformly within
epsilon/(1 - 2 epsilon) of g.  At epsilon >= 1/2 the method promises
nothing and the API refuses rather than guessing.

The Fourier transform over all phi(q) characters is the unit-group
transform of `characters` (one multidimensional FFT in exponent
coordinates); the brute-force per-character dot product,
`fourier_transform`, stays beside it as the tests' oracle.  The pair
defect reads the same exponent grid: the position of ab is the sum of the
positions of a and b, so g(ab) for every pair is a strided view of g and
no product is reduced mod q.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .characters import (
    DirichletCharacter,
    character_by_index,
    character_row,
    unit_group,
    unit_group_transform,
)
from .errors import PreconditionError, TheoremViolation
from .meanvalues import ProgressionTable

_TIE_TOL = 1e-12
_FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class ApproxHomomorphism:
    """Values on the units mod q (aligned with unit_group(q).units)."""

    q: int
    values: np.ndarray
    epsilon: float

    @classmethod
    def from_values(cls, q: int, values) -> "ApproxHomomorphism":
        G = unit_group(q)
        if isinstance(values, dict):
            try:
                garr = np.array(
                    [complex(values[int(u)]) for u in G.units], dtype=np.complex128
                )
            except KeyError as e:
                raise PreconditionError(f"missing value at unit {e.args[0]} mod {q}") from None
        else:
            garr = np.asarray(values, dtype=np.complex128)
            if garr.shape != (G.phi,):
                raise PreconditionError(
                    f"expected {G.phi} unit values for q={q}, got shape {garr.shape}"
                )
        if not np.isfinite(garr).all():
            raise PreconditionError(f"unit values mod {q} must be finite")
        one = int(np.searchsorted(G.units, 1 % q))
        if abs(garr[one] - 1.0) > 1e-12:
            raise PreconditionError(
                f"g(1) = {complex(garr[one]):.6f}, must be exactly 1 (no renormalizing)"
            )
        eps = _max_pair_defect(q, garr)
        return cls(q=q, values=garr, epsilon=eps)

    def value_at(self, a: int) -> complex:
        G = unit_group(self.q)
        i = int(G.unit_index[a % self.q])
        if i < 0:
            raise PreconditionError(f"{a} is not a unit mod {self.q}")
        return complex(self.values[i])


def _max_pair_defect(q: int, garr: np.ndarray) -> float:
    """max |g(ab) - g(a) g(b)| over unit pairs, read on the exponent grid.

    The grid position of ab is the sum of the positions of a and b, mod the
    orders, so g(ab) over all pairs is a read-only strided view of g tiled
    twice along each axis: V[a, b] = W[a + b].  Rows a are taken in blocks
    of about 2^16 pairs, the largest order first so that a block is a slice
    of one axis under a fixed prefix: memory stays a few MB, whatever phi(q).
    Every ordered pair is read, and its product comes from np.outer as in
    a pass over unit pairs: with fused multiply-adds, g(a) g(b) and
    g(b) g(a) can differ in the last bit, and so can one product formed
    by two numpy loops.
    """
    G = unit_group(q)
    orders = G.orders or (1,)
    axes = sorted(range(len(orders)), key=lambda i: -orders[i])
    d = tuple(orders[i] for i in axes)
    g = np.ascontiguousarray(garr[G.grid_order].reshape(orders).transpose(axes))
    w = np.pad(g, [(0, n - 1) for n in d], mode="wrap")
    ab = np.lib.stride_tricks.as_strided(w, shape=d + d, strides=w.strides * 2, writeable=False)
    # the row axes after `fixed` are whole in each block, and `step` rows of
    # axis `fixed` make a block
    block_rows = max(1, 2**16 // G.phi)
    fixed = 0
    while fixed < len(d) - 1 and prod(d[fixed + 1:]) > block_rows:
        fixed += 1
    step = max(1, block_rows // prod(d[fixed + 1:]))
    worst = 0.0
    for prefix in np.ndindex(d[:fixed]):
        for lo in range(0, d[fixed], step):
            rows = prefix + (slice(lo, lo + step),)
            pairs = ab[rows]
            block = np.outer(g[rows], g).reshape(pairs.shape)
            np.subtract(pairs, block, out=block)
            worst = max(worst, float(np.abs(block).max()))
    return worst


def fourier_transform(g: ApproxHomomorphism, chi: DirichletCharacter) -> complex:
    """ghat(chi) = sum over units a of g(a) conj(chi(a))."""
    if chi.q != g.q:
        raise PreconditionError("transform needs matching moduli")
    G = unit_group(g.q)
    row = character_row(chi)[G.units]
    return complex(np.dot(g.values, np.conj(row)))


def fourier_spectrum(g: ApproxHomomorphism) -> np.ndarray:
    """ghat over all characters, indexed by canonical character index."""
    return unit_group_transform(g.values, g.q)


@dataclass(frozen=True)
class RecoveryResult:
    chi: DirichletCharacter
    epsilon: float
    fourier_mass: float
    mass_floor: float
    uniform_bound: float
    max_deviation: float


def nearest_character(g: ApproxHomomorphism) -> RecoveryResult:
    """The character with maximal |ghat|; refuses when epsilon >= 1/2.

    Raises TheoremViolation if the recovered character misses the proved
    mass floor (1-2 eps) phi(q), the uniform bound eps/(1-2 eps), or the
    energy floor sum |g|^2 >= (1 - eps) phi(q): those are theorems about
    any valid input, so a failure is an implementation bug.
    """
    eps = g.epsilon
    if eps >= 0.5:
        raise PreconditionError(
            f"pair defect epsilon = {eps:.4f} >= 1/2: no character is identifiable "
            f"(inputs this rough can sit between two characters)"
        )
    G = unit_group(g.q)
    phi = G.phi
    energy = float(np.sum(np.abs(g.values) ** 2))
    if energy < (1.0 - eps) * phi - _FLOAT_SLACK:
        raise TheoremViolation(
            f"unit energy {energy:.6f} under floor {(1 - eps) * phi:.6f} at eps={eps:.4f}"
        )
    spec = fourier_spectrum(g)
    mags = np.abs(spec)
    top = float(mags.max())
    ties = np.flatnonzero(mags >= top - _TIE_TOL)
    chi = character_by_index(g.q, int(ties[0]))
    floor = (1.0 - 2.0 * eps) * phi
    if top < floor - _FLOAT_SLACK:
        raise TheoremViolation(
            f"max Fourier mass {top:.6f} under floor {floor:.6f} at eps={eps:.4f}"
        )
    bound = eps / (1.0 - 2.0 * eps)
    row = character_row(chi)[G.units]
    dev = float(np.max(np.abs(row - g.values)))
    if dev > bound + _FLOAT_SLACK:
        raise TheoremViolation(
            f"uniform deviation {dev:.6f} over bound {bound:.6f} at eps={eps:.4f}"
        )
    return RecoveryResult(chi=chi, epsilon=eps, fourier_mass=top, mass_floor=floor,
                          uniform_bound=bound, max_deviation=dev)


def parseval_identity(g: ApproxHomomorphism) -> tuple[float, float]:
    """(sum_chi |ghat|^2, phi(q) * sum_a |g(a)|^2); equal up to float error."""
    spec = fourier_spectrum(g)
    lhs = float(np.sum(np.abs(spec) ** 2))
    rhs = unit_group(g.q).phi * float(np.sum(np.abs(g.values) ** 2))
    return lhs, rhs


@dataclass(frozen=True)
class RecoveryAttempt:
    q: int
    x: int
    epsilon: float | None
    result: RecoveryResult | None
    reason: str | None


def character_from_progression_sums(pt: ProgressionTable) -> RecoveryAttempt:
    """Feed g(a) = F(x;q,a) / F(x;q,1) into the recovery pipeline.

    Never raises on rough data: returns the attempt with a reason when the
    base value vanishes or the defect is past 1/2.
    """
    q = pt.q
    G = unit_group(q)
    base = complex(pt.sums[1 % q])
    if base == 0:
        return RecoveryAttempt(q=q, x=pt.x, epsilon=None, result=None,
                               reason="F(x;q,1) = 0: ratios undefined")
    garr = np.asarray(pt.sums, dtype=np.complex128)[np.asarray(G.units)] / base
    g = ApproxHomomorphism.from_values(q, garr)
    try:
        res = nearest_character(g)
    except PreconditionError as e:
        return RecoveryAttempt(q=q, x=pt.x, epsilon=g.epsilon, result=None, reason=str(e))
    return RecoveryAttempt(q=q, x=pt.x, epsilon=g.epsilon, result=res, reason=None)
