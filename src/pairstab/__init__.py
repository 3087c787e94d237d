"""Exact numerical semistability for pairs of weighted vectors, binary form
criteria, torus orbit boundary data, and torsion of finite complexes.

The subpackages split along the objects they act on:

- lattice: integer weights, cocharacters, exact rational polytopes.
- rep: diagonalizable modules, group actions, weight polytopes.
- pairs: the two-vector stability game, verdicts, characteristics.
- binaryforms: resultants, discriminants, order profiles, vertex models.
- energy: floating-point log-norm energy and distance identities.
- toric: extension criterion and boundary accessibility for character sets.
- koszul: exact complexes over Q and their torsion.
- cli: JSON/CSV command-line front end (entry point ``pairstab``).
"""

from .lattice import (
    Cocharacter,
    ContainmentResult,
    HeightZeroError,
    LatticePolytope,
    MinNormPoint,
    SeparatingFunctional,
    Weight,
    WitnessError,
    contains,
    hull,
    member,
    min_norm_point,
    pairing,
    support_min,
)
from .rep import (
    ContractionKernel,
    Module,
    Sym,
    Tensor,
    Trivial,
    WeightedVector,
    Wedge,
    attainable_polytopes,
    dominance_leq,
    matrix_action,
    parse_shape,
    shape_name,
    sl3_contraction_kernel,
    vector,
    weight_polytope,
    weyl_orbit_polytope,
)
from .pairs import (
    Characteristic,
    NotRefuted,
    Pair,
    ProvenSemistable,
    TorusCharacter,
    Unstable,
    Verdict,
    characteristic,
    futaki_character_torus,
    futaki_gen,
    nss_check,
    nss_fixed_torus,
    weight_1ps,
)
from .binaryforms import (
    INFINITY,
    BinaryForm,
    OrdProfile,
    OrderViolation,
    chow_polytope_vertices,
    disc_newton_polytope_matches,
    disc_polytope_vertices,
    discriminant,
    form,
    hyperdisc_degree,
    normalize_pair_degrees,
    ord_profile,
    rational_roots,
    resultant,
    scaled_containment_check,
    sl2_order_violation,
    sl2_pair_nss,
    squarefree_decomposition,
    symbolic_discriminant,
)
from .energy import (
    EnergyProfile,
    HermitianStructure,
    asymptotic_slope,
    default_grid,
    distance_identity_residual,
    energy,
    energy_along_1ps,
    fs_distance,
    sample_energy_infimum,
)
from .toric import (
    ExtensionResult,
    FaceCertificate,
    ToricData,
    accessible_faces,
    boundary_witness,
    extension_criterion,
    star_condition,
)
from .koszul import (
    FiniteComplex,
    NotExactError,
    koszul_complex,
    koszul_resultant,
    torsion,
    weighted_euler_degree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
