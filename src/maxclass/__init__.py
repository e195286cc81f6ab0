"""Exact arithmetic for the frame of the coclass graph of p-groups of maximal class.

The layers build on each other: cyclotomic (truncated arithmetic in the
maximal order), homs (the equivariant homomorphisms and their coordinates),
liering (the Lie rings and their central series), lazard (truncated BCH group
structure), frame (the semidirect products and the tree), isom (certified
isomorphism moves), verify (the property suites).
"""

from .cyclotomic import (
    BudgetExceeded,
    ContextMismatch,
    CycElt,
    InsufficientValuation,
    MaxclassError,
    NonUnit,
    PrecisionExhausted,
    PrimeContext,
    Valuation,
    enumerate_units,
)
from .homs import (
    CycFrac,
    DenominatorCap,
    GammaCoeffs,
    NotInHhat,
    VandermondeData,
    epsilon,
    gamma_eval,
    images_to_coeffs,
    in_Hhat,
    min_probe_valuation,
    o_a,
    shift_check,
    theta_a_eval,
    vandermonde,
)
from .liering import (
    LcsProfile,
    LieElt,
    LieRingSpec,
    NotNilpotent,
    check_class_bounds,
    jacobi_exponent,
    jacobiator,
    layer_step,
    lcs_profile,
    lower_central_series,
)
from .lazard import (
    BchTable,
    bch_multiply,
    build_bch_table,
    generate_bch_table,
    group_commutator,
    group_commutator_closed3,
    group_lcs,
    theta_power_map,
)
from .frame import (
    FrameNode,
    FrameTree,
    GroupElt,
    SGroup,
    classify,
    enumerate_frame,
    is_maximal_class_chain,
    quotient_edge,
    s_group_lcs,
    verify_maximal_class,
)
from .isom import (
    IsoMove,
    apply_move,
    find_certified_move,
    move_congruent,
    orbit_canonical,
    orbit_report,
    rho,
    verify_witness,
    witness_map,
)

__version__ = "0.1.0"
