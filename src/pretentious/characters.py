"""Dirichlet characters with exact root-of-unity values.

The unit group mod q is decomposed into cyclic components (one per odd
prime power, the 2-part split as {-1} x <5> for 8 | q).  One numpy walk of
the exponent grid, the products of generator powers in C order, gives every
table of the group: the units, their exponent tuples and the grid order,
which unit sits at each grid position.  The exponent grid is the one layout
the group is read in: the unit-group transform gathers its values into the
grid in grid order, and the pair defect of `nearchar` reads g(ab) off the
grid, where the position of ab is the sum of the positions of a and b.
A character is an exponent tuple against the component generators, and
its value at n is the exact rational angle sum_i e_i * b_i / d_i (mod 1),
where b is the exponent tuple of the unit n, its discrete log.  Keeping angles as Fractions makes orthogonality and
multiplicativity checks exact; floats appear when a value is rendered to
complex and in the unit-group transform, where the primitivity test
compares sums that are exactly 0 or |K| against |K|/2.

Canonical order: characters are enumerated lexicographically by exponent
tuple, so the principal character is always index 0, and `char:q:index`
round-trips through mixed-radix encoding without enumerating.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
import itertools

import numpy as np

from .arith import divisors, factorize_small  # divisors is re-exported
from .errors import PreconditionError

MAX_MODULUS = 10**4


def _primitive_root_odd(p: int, e: int) -> int:
    """Primitive root mod p**e for odd p."""
    phi = p - 1
    fac = [f for f, _ in factorize_small(phi)]
    g = 2
    while True:
        if all(pow(g, phi // f, p) != 1 for f in fac):
            break
        g += 1
    if e == 1:
        return g
    # g stays primitive mod p**e iff g^(p-1) != 1 mod p^2
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _crt_lift(residue: int, pe: int, q: int) -> int:
    """x == residue mod pe, x == 1 mod q/pe."""
    rest = q // pe
    if rest == 1:
        return residue % q
    inv = pow(pe, -1, rest)
    # x = residue + pe * k with k == (1 - residue) * pe^{-1} mod rest
    k = ((1 - residue) * inv) % rest
    return (residue + pe * k) % q


class UnitGroupStructure:
    """Cyclic decomposition of (Z/qZ)* and its exponent grid.

    The grid starts as [1 % q]; each generator g of order d replaces it by
    its outer product with g^0, ..., g^(d-1) (mod q), ravelled.  Position i
    of the final grid then holds the unit whose exponent tuple is the i-th
    in C order, and sorting the grid gives every table: `units`,
    `exponents`, `unit_index` and `grid_order`, whose entry i is the index
    into `units` of the unit at grid position i.  The discrete log of a unit
    a is its exponent tuple exponents[unit_index[a]].
    """

    def __init__(self, q: int):
        if not 1 <= q <= MAX_MODULUS:
            raise PreconditionError(f"modulus must be in [1, {MAX_MODULUS}], got {q}")
        self.q = q
        gens: list[int] = []
        orders: list[int] = []
        for p, e in factorize_small(q):
            pe = p**e
            if p == 2:
                if e == 2:
                    gens.append(_crt_lift(3, 4, q))
                    orders.append(2)
                elif e >= 3:
                    gens.append(_crt_lift(pe - 1, pe, q))
                    orders.append(2)
                    gens.append(_crt_lift(5, pe, q))
                    orders.append(2 ** (e - 2))
                # e == 1: trivial 2-part
            else:
                g = _primitive_root_odd(p, e)
                gens.append(_crt_lift(g, pe, q))
                orders.append(pe // p * (p - 1))
        self.generators = tuple(gens)
        self.orders = tuple(orders)
        self.phi = prod(orders)

        grid = np.array([1 % q], dtype=np.int64)
        for g, d in zip(gens, orders):
            powers = np.array([1 % q], dtype=np.int64)  # g^0, g^1, ... by doubling
            while len(powers) < d:
                powers = np.concatenate([powers, powers * pow(g, len(powers), q) % q])
            grid = np.multiply.outer(grid, powers[:d]).ravel() % q
        # ravel[i] = C-order position of units[i]'s exponent tuple, which is
        # also the canonical index of the character with that tuple
        ravel = np.argsort(grid)
        self.units = grid[ravel]
        assert np.all(self.units[1:] > self.units[:-1]), f"unit group mod {q}: repeated units"
        # unit_index[a] = position of a in self.units, -1 for non-units
        idx = np.full(max(q, 1), -1, dtype=np.int64)
        idx[self.units] = np.arange(len(self.units))
        self.unit_index = idx
        # exponent matrix aligned with self.units, shape (phi, k)
        self.exponents = np.indices(orders).reshape(len(orders), self.phi).T[ravel]
        # the inverse permutation: grid_order[i] = index in self.units of the
        # unit at grid position i
        self.grid_order = np.empty_like(ravel)
        self.grid_order[ravel] = np.arange(self.phi)

    def __repr__(self):
        return f"UnitGroupStructure(q={self.q}, orders={self.orders})"


# bounded: the tables of every q <= MAX_MODULUS hold 1.3 GB, and a scan of
# bad moduli to R = 10^4 visits them all; 1024 holds the groups of every
# r <= 1000, which the scans at x = 10^6 and q >= 1 revisit
@lru_cache(maxsize=1024)
def unit_group(q: int) -> UnitGroupStructure:
    return UnitGroupStructure(q)


def unit_group_transform(values, q: int) -> np.ndarray:
    """ghat(chi) = sum over units a of v(a) conj(chi(a)) for every chi mod q,
    indexed by canonical character index; the last axis of `values` is
    aligned with unit_group(q).units, and leading axes are transformed
    independently.  It runs in complex128, or in clongdouble for long
    double values.

    One gather puts the values in grid order, values[..., grid_order], and
    one FFT over the exponent grid follows: ghat(chi_e) = sum_beta V[beta]
    e^(-2 pi i <e, beta/d>) is exactly numpy's fftn at index e.  It is run
    as fftn runs it, one 1-D FFT per grid axis from the last to the first.
    """
    G = unit_group(q)
    values = np.asarray(values)
    lead = values.shape[:-1]
    grid = values[..., G.grid_order].astype(np.result_type(values, np.complex128), copy=False)
    del values  # a temporary argument is freed before the FFT
    grid = grid.reshape(lead + G.orders)
    for axis in range(grid.ndim - 1, len(lead) - 1, -1):
        grid = np.fft.fft(grid, axis=axis)
    return grid.reshape(lead + (G.phi,))


@lru_cache(maxsize=4096)
def factors_through(q: int, d: int) -> np.ndarray:
    """Boolean array over canonical character indices mod q: does chi
    factor through d | q, i.e. kill every unit u == 1 (mod d)?

    Those units form a subgroup K, and the transform of its indicator is
    sum over K of conj(chi(u)): |K| when chi kills K, else 0.
    """
    in_kernel = (unit_group(q).units - 1) % d == 0
    mask = unit_group_transform(in_kernel, q).real > in_kernel.sum() / 2
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=4096)
def primitive_mask(q: int) -> np.ndarray:
    """Boolean array over canonical character indices mod q: is chi
    primitive, i.e. factoring through q/p for no prime p | q?"""
    mask = np.ones(unit_group(q).phi, dtype=bool)
    for p, _ in factorize_small(q):
        mask &= ~factors_through(q, q // p)
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod q given by exponents against unit_group(q).generators."""

    q: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        G = unit_group(self.q)
        if len(self.exponents) != len(G.orders) or any(
            not 0 <= e < d for e, d in zip(self.exponents, G.orders)
        ):
            raise PreconditionError(
                f"exponents {self.exponents} invalid for unit group orders {G.orders}"
            )

    @property
    def index(self) -> int:
        """Position in the canonical (lexicographic) enumeration."""
        i = 0
        for e, d in zip(self.exponents, unit_group(self.q).orders):
            i = i * d + e
        return i

    @property
    def serial(self) -> str:
        return f"char:{self.q}:{self.index}"

    def angle(self, n: int) -> Fraction | None:
        """Exact angle a/b with chi(n) = e^(2*pi*i*a/b); None when chi(n)=0."""
        if n < 0:
            raise PreconditionError("character argument must be >= 0")
        G = unit_group(self.q)
        i = G.unit_index[n % self.q]
        if i < 0:
            return None
        total = Fraction(0)
        for e, b, d in zip(self.exponents, G.exponents[i].tolist(), G.orders):
            total += Fraction(e * b, d)
        return total % 1

    def __call__(self, n: int) -> complex:
        a = self.angle(n)
        if a is None:
            return 0j
        return _root_of_unity(a)

    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def order(self) -> int:
        return lcm(*(d // gcd(d, e) for e, d in zip(self.exponents, unit_group(self.q).orders)))

    def is_real(self) -> bool:
        return self.order() <= 2

    def conjugate(self) -> "DirichletCharacter":
        G = unit_group(self.q)
        return DirichletCharacter(
            self.q, tuple((-e) % d for e, d in zip(self.exponents, G.orders))
        )


@lru_cache(maxsize=4096)
def _root_of_unity(a: Fraction) -> complex:
    if a.denominator == 2:
        return -1 + 0j  # exp(pi i) rounds to -1 + 1.2e-16i
    return cmath.exp(2j * cmath.pi * (a.numerator / a.denominator))


@lru_cache(maxsize=128)
def _roots(L: int) -> np.ndarray:
    """e(j/L) for j = 0..L-1 as complex128 (read-only)."""
    out = np.array([_root_of_unity(Fraction(j, L)) for j in range(L)], dtype=np.complex128)
    out.flags.writeable = False
    return out


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first, lexicographic exponents."""
    G = unit_group(q)
    return [
        DirichletCharacter(q, t)
        for t in itertools.product(*(range(d) for d in G.orders))
    ]


def character_by_index(q: int, index: int) -> DirichletCharacter:
    G = unit_group(q)
    if not 0 <= index < G.phi:
        raise PreconditionError(f"character index must be in [0, {G.phi}), got {index}")
    exps = []
    for d in reversed(G.orders):
        exps.append(index % d)
        index //= d
    return DirichletCharacter(q, tuple(reversed(exps)))


@lru_cache(maxsize=512)
def character_row(chi: DirichletCharacter) -> np.ndarray:
    """chi at residues 0..q-1 as complex128 (read-only).

    With L the lcm of the component orders, chi(u) = e(j/L) where j is the
    exponent tuple of u dotted with e_i L / d_i, so one matrix product and
    one lookup in the L-th roots give every unit's value."""
    G = unit_group(chi.q)
    L = lcm(*G.orders)
    scaled = np.array([e * (L // d) for e, d in zip(chi.exponents, G.orders)], dtype=np.int64)
    row = np.zeros(max(chi.q, 1), dtype=np.complex128)
    row[G.units] = _roots(L)[(G.exponents @ scaled) % L]
    row.flags.writeable = False
    return row


def character_column(q: int, a: int) -> np.ndarray:
    """chi(a) for every chi mod q, by canonical index, as complex128.

    As in `character_row`, chi_e(a) = e(j/L) where j is the exponent tuple
    e dotted with the discrete log of a scaled by L / d_i, so one product of
    the exponent grid of all characters with that vector and one lookup in
    the L-th roots give every value; 0 for every chi when a is not a unit."""
    G = unit_group(q)
    i = G.unit_index[a % q]
    if i < 0:
        return np.zeros(G.phi, dtype=np.complex128)
    L = lcm(*G.orders)
    scaled = np.array([b * (L // d) for b, d in zip(G.exponents[i].tolist(), G.orders)],
                      dtype=np.int64)
    grid = np.indices(G.orders).reshape(len(G.orders), G.phi).T  # row e: the tuple of index e
    return _roots(L)[(grid @ scaled) % L]


def conductor(chi: DirichletCharacter) -> int:
    """Smallest d | q through which chi factors.

    The moduli chi factors through are closed under gcd, so walking down
    from q one prime at a time, while chi still factors through d/p, ends
    at the conductor.
    """
    q, i = chi.q, chi.index
    d = q
    while True:
        for p, _ in factorize_small(d):
            if factors_through(q, d // p)[i]:
                d //= p
                break
        else:
            return d


def is_primitive(chi: DirichletCharacter) -> bool:
    return bool(primitive_mask(chi.q)[chi.index])


def _carried(chi: DirichletCharacter, m: int) -> DirichletCharacter:
    """The character mod m agreeing with chi at each generator g of
    (Z/mZ)*, read at the first lift g + k m coprime to chi.q: chi induced
    to m when chi.q | m, and chi read mod m when m | chi.q and chi factors
    through m."""
    G = unit_group(m)
    exps = []
    for g, d in zip(G.generators, G.orders):
        while gcd(g, chi.q) != 1:
            g += m
        e = chi.angle(g) * d
        assert e.denominator == 1, f"chi mod {chi.q} does not carry to {m}"
        exps.append(int(e) % d)
    return DirichletCharacter(m, tuple(exps))


def induce(psi: DirichletCharacter, q: int) -> DirichletCharacter:
    """The character mod q agreeing with psi (mod r) on units; needs r | q."""
    if q % psi.q != 0:
        raise PreconditionError(f"cannot induce mod {q}: {psi.q} does not divide {q}")
    return _carried(psi, q)


def primitive_part(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character inducing chi."""
    return _carried(chi, conductor(chi))
