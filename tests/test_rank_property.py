"""Property test of the prefix-rank table against per-point elimination."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from curvealex import Curve, JetMatrix  # noqa: E402

from corpus import reference_ranks  # noqa: E402

COEFFS = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                   st.integers(1, 4))
POLYS = st.dictionaries(st.integers(1, 6), COEFFS, max_size=3)


def _primitive_support(branch):
    x, y = branch
    return gcd(*x, *y) == 1


BRANCHES = st.tuples(POLYS, POLYS).filter(_primitive_support)


@st.composite
def jet_matrices(draw):
    branches = draw(st.lists(BRANCHES, min_size=1, max_size=3))
    window = draw(st.tuples(*(st.integers(1, 5) for _ in branches)))
    return JetMatrix(Curve(branches), window)


@settings(max_examples=100, deadline=None)
@given(jet_matrices())
def test_rank_table_matches_per_point_elimination(M):
    assert M.ranks == reference_ranks(M)
