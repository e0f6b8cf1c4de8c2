"""Multivariable Alexander polynomials of plane curve singularities,
computed three independent ways with exact rational arithmetic:

* the Eisenbud-Neumann product over an embedded resolution graph,
* the Poincare polynomial of the multi-index filtration of values,
* Euler characteristics of projectivized extended-semigroup fibers,

together with a verification harness checking that they coincide exactly.
"""

from .curve import BranchParam, Curve, germ_valuation, monomial_jet, validate_curve
from .exactmath import (
    NotDivisibleError,
    expand_truncated,
    mp_exact_div,
    mp_mul,
    ord_lead,
)
from .filtration import (
    Analysis,
    BoundaryNonzeroError,
    JetMatrix,
    b_dim,
    c_dim,
    fiber_dim,
    fiber_euler,
    fiber_series,
    poincare_poly,
    pprime_poly,
)
from .resolution import (
    BudgetExceededError,
    ResGraph,
    chi_open,
    classify_graph,
    en_alexander,
    noether_intersections,
    resolve,
)
from .semigroup import (
    SemigroupReport,
    apery_set,
    conductor,
    members_box,
    minimal_generators_r1,
    verify_semigroup_properties,
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
    "SemigroupReport",
    "apery_set",
    "b_dim",
    "c_dim",
    "chi_open",
    "classify_graph",
    "conductor",
    "en_alexander",
    "expand_truncated",
    "fiber_dim",
    "fiber_euler",
    "fiber_series",
    "germ_valuation",
    "members_box",
    "minimal_generators_r1",
    "monomial_jet",
    "mp_exact_div",
    "mp_mul",
    "noether_intersections",
    "ord_lead",
    "poincare_poly",
    "pprime_poly",
    "resolve",
    "validate_curve",
    "verify_semigroup_properties",
]

__version__ = "0.1.0"
