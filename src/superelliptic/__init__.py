"""Exact arithmetic for superelliptic curves y^n = f(x): invariants of
binary forms, weighted moduli points and heights, minimal models,
divisor class group arithmetic, automorphism and Weierstrass-point
tables, and theta characteristic combinatorics.

Importing the package loads none of its modules.  Each public name below,
and each submodule, resolves on first use (PEP 562): `superelliptic.Poly`
imports `algebra`, `superelliptic.jacobian` imports `jacobian`, and
`from superelliptic import *` imports them all."""

import importlib

# module -> the public names the package takes from it
_EXPORTS = {
    "algebra": """GF QQ BinaryForm GFElement Mat2 Poly discriminant resultant
        transvectant""",
    "curves": "SuperellipticCurve",
    "errors": """CharacteristicError DomainError NotInAtlasError ParseError
        SingularCurveError UnsupportedCaseError""",
    "invariants": """DihedralInvariants OctavicInvariants SexticInvariants
        clebsch_sextic dihedral_invariants igusa_sextic multiplicity_profile
        octavic_equivalent octavic_invariants sextic_equivalent""",
    "weighted": """WeightedHeight WeightedPoint enumerate_bounded_height
        moduli_point normalize normalized_height star_act weighted_height wgcd
        wpoint_equal""",
    "minimal": """EllipticModel LaskaReport c4c6 is_minimal_tuple laska_reduce
        superelliptic_minimal""",
    "jacobian": """HyperCurve JacobiTriple MumfordDivisor MumfordError
        cantor_add divisor_from_points enumerate_divisors identity
        interpolation_add_g2 jacobi_polynomials jacobian_order_g2
        mumford_validate negate scalar_mul weil_data_g2""",
    "atlas": """AutRecord GapBasis aut_lookup branch_weight family_equation
        genus quotient_equations split_jacobian weierstrass_gap_basis""",
    "theta": """HalfIntChar branch_characteristic gopel_count parity
        parity_census syzygetic triple_syzygetic vanishing_even_thetanulls""",
    "cli": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = [*_HOME, *_EXPORTS, "__version__"]


def __getattr__(name):
    """Import the submodule `name`, or the one that defines the public
    name `name`, and bind the public name here for later lookups."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
