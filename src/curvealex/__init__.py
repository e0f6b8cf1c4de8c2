"""Multivariable Alexander polynomials of plane curve singularities,
computed three independent ways with exact rational arithmetic:

* the Eisenbud-Neumann product over an embedded resolution graph,
* the Poincare polynomial of the multi-index filtration of values,
* Euler characteristics of projectivized extended-semigroup fibers,

together with a verification harness checking that they coincide exactly.
"""

from .curve import BranchParam, Curve, validate_curve
from .exactmath import NotDivisibleError, ord_lead
from .filtration import (
    Analysis,
    BoundaryNonzeroError,
    JetMatrix,
    TableTooLargeError,
)
from .resolution import (
    BudgetExceededError,
    ResGraph,
    chi_open,
    en_alexander,
    resolve,
)

__all__ = [
    "Analysis",
    "BranchParam",
    "BoundaryNonzeroError",
    "BudgetExceededError",
    "Curve",
    "JetMatrix",
    "NotDivisibleError",
    "ResGraph",
    "TableTooLargeError",
    "chi_open",
    "en_alexander",
    "ord_lead",
    "resolve",
    "validate_curve",
]

__version__ = "0.1.0"
