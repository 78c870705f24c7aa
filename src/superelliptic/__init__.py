"""Exact arithmetic for superelliptic curves y^n = f(x): invariants of
binary forms, weighted moduli points and heights, minimal models,
divisor class group arithmetic, automorphism and Weierstrass-point
tables, and theta characteristic combinatorics."""

from .algebra import (
    GF,
    QQ,
    BinaryForm,
    GFElement,
    Mat2,
    Poly,
    discriminant,
    resultant,
    transvectant,
)
from .curves import SuperellipticCurve
from .errors import (
    CharacteristicError,
    DomainError,
    NotInAtlasError,
    ParseError,
    SingularCurveError,
    UnsupportedCaseError,
)
from .invariants import (
    DihedralInvariants,
    OctavicInvariants,
    SexticInvariants,
    clebsch_sextic,
    dihedral_invariants,
    igusa_sextic,
    multiplicity_profile,
    octavic_equivalent,
    octavic_invariants,
    sextic_equivalent,
)
from .weighted import (
    WeightedHeight,
    WeightedPoint,
    enumerate_bounded_height,
    moduli_point,
    normalize,
    normalized_height,
    star_act,
    weighted_height,
    wgcd,
    wpoint_equal,
)
from .minimal import (
    EllipticModel,
    LaskaReport,
    c4c6,
    is_minimal_tuple,
    laska_reduce,
    superelliptic_minimal,
)
from .jacobian import (
    HyperCurve,
    JacobiTriple,
    MumfordDivisor,
    MumfordError,
    cantor_add,
    divisor_from_points,
    enumerate_divisors,
    identity,
    interpolation_add_g2,
    jacobi_polynomials,
    jacobian_order_g2,
    mumford_validate,
    negate,
    scalar_mul,
    weil_data_g2,
)
from .atlas import (
    AutRecord,
    GapBasis,
    aut_lookup,
    branch_weight,
    family_equation,
    genus,
    quotient_equations,
    split_jacobian,
    weierstrass_gap_basis,
)
from .theta import (
    HalfIntChar,
    branch_characteristic,
    gopel_count,
    parity,
    parity_census,
    syzygetic,
    triple_syzygetic,
    vanishing_even_thetanulls,
)

__version__ = "0.1.0"
