"""lemfact: unramified solutions of central embedding problems over
abelian base fields, by discriminant factorizations and power-residue
characters, with an independent class-group oracle."""

from .abelian import AbGroup, AbHom, cyclic
from .arith import (
    PrimePower,
    factorize,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    power_residue_char,
    prime_discriminants,
    prime_star,
)
from .cocycle import (
    CentralExtension,
    aut_stabilizer_order,
    class_orbit_size,
    cohomologous,
    enumerate_central_extensions,
    is_admissible_pair,
    is_coboundary,
    preset,
    quaternion_pair_class_count,
    quaternion_pair_hits,
    split_extension,
)
from .criteria import c4_criterion, h8_criterion, heisenberg_criterion
from .oracle import (
    QuadForm,
    class_group_structure,
    class_number,
    compose,
    four_rank,
    rank_sweep,
    redei_matrix,
    redei_rank,
    reduce_form,
    reduced_forms,
    two_rank,
)
from .solver import (
    BaseFieldData,
    RamAssignment,
    Report,
    classify,
    count_extensions,
)

__version__ = "0.1.0"
