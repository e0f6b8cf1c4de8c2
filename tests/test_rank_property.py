"""Property tests of the jet rows against the per-monomial jets, of the
prefix-rank table against per-point elimination, of the difference sweeps
against the per-point alternating sums, of the membership pass against
per-point membership, and of the conductor rule of one-branch analyses
against a wide window."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from curvealex import (  # noqa: E402
    Analysis,
    BudgetExceededError,
    Curve,
    JetMatrix,
)
from curvealex.exactmath import iter_box, vec_add  # noqa: E402
from curvealex.filtration import (  # noqa: E402
    fiber_eulers,
    members,
    pprime_coefficients,
)
from curvealex.semigroup import (  # noqa: E402
    minimal_generators,
    verify_semigroup_properties,
)

from corpus import (  # noqa: E402
    c_dim,
    fiber_euler,
    is_member,
    monomial_jet,
    reference_monomials,
    reference_ranks,
)

COEFFS = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                   st.integers(1, 4))
POLYS = st.dictionaries(st.integers(1, 6), COEFFS, max_size=3)


def _primitive_support(branch):
    x, y = branch
    return gcd(*x, *y) == 1


BRANCHES = st.tuples(POLYS, POLYS).filter(_primitive_support)


def _not_an_axis_cover(branch):
    # (0, y(t)) with ord y > 1 covers the y axis ord y times, and the same
    # for the x axis; the support gcd does not see it, validate_curve does
    x, y = branch
    return bool(x and y) or min(x.keys() | y.keys()) == 1


@st.composite
def jet_matrices(draw):
    branches = draw(st.lists(BRANCHES.filter(_not_an_axis_cover),
                             min_size=1, max_size=3))
    window = draw(st.tuples(*(st.integers(1, 5) for _ in branches)))
    return JetMatrix(Curve(branches), window)


@settings(max_examples=100, deadline=None)
@given(jet_matrices())
def test_jet_rows_match_the_monomial_jets(M):
    assert M.monomials == reference_monomials(M)
    assert M.rows == [monomial_jet(M.curve, a, b, M.window)
                      for a, b in M.monomials]


@settings(max_examples=100, deadline=None)
@given(jet_matrices())
def test_rank_table_matches_per_point_elimination(M):
    assert M.ranks == reference_ranks(M)


@settings(max_examples=100, deadline=None)
@given(jet_matrices())
def test_difference_sweeps_match_the_per_point_sums(M):
    box = list(iter_box((0,) * M.r, tuple(w - 1 for w in M.window)))
    assert fiber_eulers(M) == {v: fiber_euler(M, v) for v in box}
    assert pprime_coefficients(M) == {
        v: sum((-1) ** (sum(u) - sum(v) + M.r) * c_dim(M, u)
               for u in iter_box(vec_add(v, (-1,) * M.r), v))
        for v in box}


@settings(max_examples=100, deadline=None)
@given(jet_matrices())
def test_members_match_the_per_point_membership(M):
    box = iter_box((0,) * M.r, tuple(w - 1 for w in M.window))
    assert members(M) == {v for v in box if is_member(M, v)}


@settings(max_examples=100, deadline=None)
@given(BRANCHES.filter(_not_an_axis_cover))
def test_conductor_rule_matches_a_wide_window(branch):
    c = Curve([branch])
    try:
        a = Analysis(c)
    except BudgetExceededError:
        # a rarer map of degree > 1 onto its image, such as
        # (t^2 + t^3, (t^2 + t^3)^2): not a branch parametrization
        assume(False)
    top = 2 * a.conductor[0] + 2
    wide = JetMatrix(c, (top + 2,))
    assert [a.is_member((v,)) for v in range(top + 1)] == \
        [is_member(wide, (v,)) for v in range(top + 1)]
    assert minimal_generators(a) == verify_semigroup_properties(c).generators
