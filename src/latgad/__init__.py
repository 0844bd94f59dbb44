"""latgad: vertex-isolating gadget construction and SAT/parity-to-CVP
instance compilation, with brute-force validation oracles."""

from .errors import (
    DegenerateConstructionError,
    InvalidInputError,
    LatgadError,
    NumericDegeneracyError,
    ResourceLimitError,
    UnsupportedParametersError,
    VerificationError,
)
from .formulas import Clause, CspFormula, XorConstraint, parse_dimacs, parse_xor
from .gadgets import (
    IsolatingGadget,
    OnOffGadget,
    VerificationReport,
    even_p_obstruction,
    find_isolating_parallelepiped,
    find_shift,
    parity_gadget,
    to_isolating_lattice,
    to_on_off,
    verify_parallelepiped,
)
from .numeric import Tolerance, pnorm
from .oracle import (
    CvpSolution,
    cvp_enumerate,
    max_sat_brute,
    validate_reduction,
    verify_lattice_condition,
)
from .reductions import (
    CvpInstance,
    CvppArtifacts,
    csp_to_cvp_gap,
    cvpp_preprocess,
    cvpp_query,
    parity_gap_params,
    sat_gap_params,
    sat_to_cvp,
)

__version__ = "0.1.0"

__all__ = [
    "Clause",
    "CspFormula",
    "CvpInstance",
    "CvpSolution",
    "CvppArtifacts",
    "DegenerateConstructionError",
    "InvalidInputError",
    "IsolatingGadget",
    "LatgadError",
    "NumericDegeneracyError",
    "OnOffGadget",
    "ResourceLimitError",
    "Tolerance",
    "UnsupportedParametersError",
    "VerificationError",
    "VerificationReport",
    "XorConstraint",
    "csp_to_cvp_gap",
    "cvp_enumerate",
    "cvpp_preprocess",
    "cvpp_query",
    "even_p_obstruction",
    "find_isolating_parallelepiped",
    "find_shift",
    "max_sat_brute",
    "parity_gadget",
    "parity_gap_params",
    "parse_dimacs",
    "parse_xor",
    "pnorm",
    "sat_gap_params",
    "sat_to_cvp",
    "to_isolating_lattice",
    "to_on_off",
    "validate_reduction",
    "verify_lattice_condition",
    "verify_parallelepiped",
]
