"""Desk-scale experiments with multiplicative functions in progressions.

The pipeline: declare a bounded multiplicative function (funcspec), find
the character twist it pretends to be (pretension), predict and measure
its progression sums (meanvalues), probe the sieve-theoretic structure
(sieve_experiments), and recover characters from the measurements
(nearchar).  constants holds the named constants of the theory.
"""

__version__ = "0.1.0"

from .arith import FactoredInteger, PrimeTable, sieve_primes
from .characters import (
    DirichletCharacter,
    UnitGroupStructure,
    character_by_index,
    conductor,
    enumerate_characters,
    induce,
    is_primitive,
    primitive_part,
    unit_group,
)
from .constants import delta0, delta1, repulsion_constant
from .errors import PreconditionError, SpecParseError, TheoremViolation
from .funcspec import (
    CharacterSpec,
    FunctionSpec,
    Legendre,
    Liouville,
    Mobius,
    One,
    PrimeTableSpec,
    Product,
    Threshold,
    Twist,
    evaluate,
    make_prime_table_spec,
    parse_spec,
    prime_values,
    values_upto,
)
from .meanvalues import (
    EulerProductValue,
    HalaszBound,
    ProgressionTable,
    coprime_mean_bound,
    decompose_via_characters,
    euler_product_mean,
    halasz_bound,
    progression_report,
    progression_sums,
    twisted_sum,
)
from .nearchar import (
    ApproxHomomorphism,
    RecoveryResult,
    character_from_progression_sums,
    fourier_transform,
    nearest_character,
)
from .pretension import (
    DistanceResult,
    ExceptionalReport,
    distance_squared,
    find_exceptional,
    min_distance_over_t,
    real_function_check,
    repulsion_spectrum,
    twist_distance_profile,
)
from .sieve_experiments import (
    BadModuliReport,
    DefectReport,
    bad_moduli,
    legendre_progression_experiment,
    multiplicativity_defect,
    primitive_mass,
    transfer_check,
)
