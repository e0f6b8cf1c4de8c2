"""Multivariable Alexander polynomials of plane curve singularities,
computed three independent ways with exact rational arithmetic:

* the Eisenbud-Neumann product over an embedded resolution graph,
* the Poincare polynomial of the multi-index filtration of values,
* Euler characteristics of projectivized extended-semigroup fibers,

together with a verification harness checking that they coincide exactly.
"""

from .curve import BranchParam, Curve, validate_curve
from .exactmath import (
    NotDivisibleError,
    mp_mul,
    ord_lead,
)
from .filtration import Analysis, BoundaryNonzeroError, JetMatrix
from .resolution import (
    BudgetExceededError,
    ResGraph,
    chi_open,
    classify_graph,
    en_alexander,
    noether_intersections,
    resolve,
)
from .semigroup import SemigroupReport, verify_semigroup_properties

__all__ = [
    "Analysis",
    "BranchParam",
    "BoundaryNonzeroError",
    "BudgetExceededError",
    "Curve",
    "JetMatrix",
    "NotDivisibleError",
    "ResGraph",
    "SemigroupReport",
    "chi_open",
    "classify_graph",
    "en_alexander",
    "mp_mul",
    "noether_intersections",
    "ord_lead",
    "resolve",
    "validate_curve",
    "verify_semigroup_properties",
]

__version__ = "0.1.0"
