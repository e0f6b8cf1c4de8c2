"""Property tests of the jet rows against the per-monomial jets, of the
prefix-rank table against per-point elimination (with up to three levels
of the sweep above its slab) and of its slab of the last two axes against
elimination on planted blocks, of the difference sweeps against the
per-point alternating sums, of the membership pass against per-point
membership and, for r >= 2, against the value-semigroup properties read
from resolution graphs, of the conductor rule of one-branch analyses
against a wide window and their Poincare series against the
Eisenbud-Neumann product, of the one-pass conductor and delta against the
Noether table, of the analysis's honest table, extended by the rule,
against an honest sweep and its read of P' against the reference read of
that extension, of every verify check, the symmetry of Delta and
the Torres formula on random curves, of the chained blow-up engine against
the step-by-step one, and of every invariant against a rescaling of the
coordinates."""

from fractions import Fraction
from math import gcd, prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from curvealex import (  # noqa: E402
    Analysis,
    BudgetExceededError,
    Curve,
    JetMatrix,
    en_alexander,
)
from curvealex.cli import run_verify  # noqa: E402
from curvealex.exactmath import iter_box, vec_add  # noqa: E402
from curvealex.filtration import (  # noqa: E402
    _add_column,
    _reduced,
    _slab,
    members,
    minimal_generators,
    pprime_coefficients,
)
from curvealex.resolution import _run_blowups  # noqa: E402

from corpus import (  # noqa: E402
    _rank,
    c_dim,
    check_alexander_symmetry,
    check_torres_formula,
    delgado_invariants,
    engine_outcome,
    escape_breaks,
    fiber_euler,
    fiber_eulers,
    filled,
    honest,
    is_member,
    make_rational_three_branches,
    noether_intersections,
    reference_blowups,
    reference_monomials,
    reference_pprime,
    reference_ranks,
    reference_rows,
    rule_extended,
    sub_box,
    value_semigroup_breaks,
    verify_semigroup_properties,
)

COEFFS = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                   st.integers(1, 4))
POLYS = st.dictionaries(st.integers(1, 6), COEFFS, max_size=3)


def _primitive_support(branch):
    x, y = branch
    return gcd(*x, *y) == 1


BRANCHES = st.tuples(POLYS, POLYS).filter(_primitive_support)
VERIFY_CHECKS = ("poincare-equals-alexander", "fiber-euler-equals-alexander",
                 "fiber-product-identity", "exact-divisibility",
                 "resolution-invariance", "window-stability")


def _not_an_axis_cover(branch):
    # (0, y(t)) with ord y > 1 covers the y axis ord y times, and the same
    # for the x axis; the support gcd does not see it, validate_curve does
    x, y = branch
    return bool(x and y) or min(x.keys() | y.keys()) == 1


@st.composite
def jet_matrices(draw):
    branches = draw(st.lists(BRANCHES.filter(_not_an_axis_cover),
                             min_size=1, max_size=5))
    # four and five branches put two and three levels of the sweep above its
    # slab of the last two axes, which the slab's columns are carried down
    # reduced, on small windows
    top = {4: 3, 5: 2}.get(len(branches), 5)
    window = draw(st.tuples(*(st.integers(1, top) for _ in branches)))
    return JetMatrix(Curve(branches), window)


@settings(max_examples=100, deadline=None)
@given(jet_matrices())
def test_jet_rows_match_the_monomial_jets(M):
    assert M.monomials == reference_monomials(M)
    assert M.rows == reference_rows(M)
    assert all(type(x) is int for row in M.rows for x in row)


@settings(max_examples=100, deadline=None)
@given(jet_matrices(), st.data())
def test_rank_table_matches_per_point_elimination(M, data):
    reference = reference_ranks(M)
    ranks, rank = M.sweep(M.window)
    assert ranks == reference
    assert rank == ranks[-1]
    # a smaller box reads the same ranks and completes the same rank
    box = tuple(data.draw(st.integers(0, w)) for w in M.window)
    assert M.sweep(box) == (sub_box(reference, M.window, box), rank)


SMALL = st.integers(-2, 2)


@st.composite
def slab_blocks(draw):
    """Integer columns B, F, G and H of one length n.  Each column of F and
    G is drawn fresh, zero, a repeat of an earlier one or planted in the
    span before it: a column of F in B + F_(j-1), a column g_l of G in
    B + F_j + G_(l-1) for a random prefix F_j, with a nonzero coefficient on
    f_j; H is what is added to the basis the slab leaves."""
    n = draw(st.integers(1, 6))
    vec = st.lists(SMALL, min_size=n, max_size=n)
    B = draw(st.lists(vec, max_size=3))

    def column(parts, last):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "planted"]))
        if kind == "fresh":
            return draw(vec)
        if kind == "repeat" and parts[len(B):]:
            return list(draw(st.sampled_from(parts[len(B):])))
        coeffs = draw(st.lists(SMALL, min_size=len(parts),
                               max_size=len(parts)))
        if last is not None:
            coeffs[last] = draw(SMALL.filter(bool))
        if kind == "zero" or not parts:
            return [0] * n
        return [sum(a * x for a, x in zip(coeffs, row))
                for row in zip(*parts)]

    F = []
    for _ in range(draw(st.integers(0, 4))):
        F.append(column(B + F, None))
    G = []
    for _ in range(draw(st.integers(0, 4))):
        j = draw(st.integers(0, len(F)))
        G.append(column(B + F[:j] + G, len(B) + j - 1 if j else None))
    return B, F, G, draw(st.lists(vec, max_size=2))


# lambda = 0 (a zero column and a repeat), lambda = j (g = 2 f_1 and
# f_2 + f_3) and lambda = J + 1 (a column outside B + F)
@example(([[1, 0, 0, 0]],
          [[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
          [[0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0], [0, 1, 1, 0],
           [0, 0, 0, 1], [0, 0, 0, 2]],
          [[1, 1, 1, 1]]))
@settings(max_examples=300, deadline=None)
@given(slab_blocks())
def test_slab_ranks_match_elimination_on_planted_blocks(blocks):
    # every (j, k) entry of the slab is rank(B + F_j + G_k), and the basis
    # it leaves is an echelon basis of B + F_J + G_K
    B, F, G, H = blocks
    basis = []
    for col in B:
        _add_column(basis, col)
    # the sweep hands the slab its columns reduced against the basis
    reduced = [[_reduced(list(col), basis) for col in x] for x in (F, G)]
    ranks = []
    _slab(ranks, basis, *reduced)
    assert ranks == [_rank(B + F[:j] + G[:k])
                     for j in range(len(F) + 1) for k in range(len(G) + 1)]
    assert len(basis) == _rank(B + F + G)
    for col in H:
        _add_column(basis, col)
    assert len(basis) == _rank(B + F + G + H)


@settings(max_examples=100, deadline=None)
@given(jet_matrices())
def test_difference_sweeps_match_the_per_point_sums(M):
    r = len(M.window)
    box = list(iter_box((0,) * r, tuple(w - 1 for w in M.window)))
    assert list(zip(box, fiber_eulers(*honest(M)), strict=True)) == \
        [(v, fiber_euler(M, v)) for v in box]
    assert list(zip(box, reference_pprime(*honest(M)), strict=True)) == [
        (v, sum((-1) ** (sum(u) - sum(v) + r) * c_dim(M, u)
                for u in iter_box(vec_add(v, (-1,) * r), v)))
        for v in box]


@settings(max_examples=100, deadline=None)
@given(jet_matrices())
def test_members_match_the_per_point_membership(M):
    # below the top face, whose steps members counts as rising, every point
    # reads its own rises
    top = tuple(w - 1 for w in M.window)
    box = list(iter_box((0,) * len(M.window), top))
    assert list(zip(box, sub_box(members(*honest(M)), M.window, top),
                    strict=True)) == [(v, is_member(M, v)) for v in box]


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
    assert [is_member(a, (v,)) for v in range(top + 1)] == \
        [is_member(wide, (v,)) for v in range(top + 1)]
    assert minimal_generators(a) == verify_semigroup_properties(c).generators
    assert en_alexander(a.graph) == a.poincare


@settings(max_examples=100, deadline=None)
@given(st.lists(BRANCHES.filter(_not_an_axis_cover), min_size=1, max_size=3))
def test_conductor_and_delta_match_the_noether_table(branches):
    c = Curve(branches)
    try:
        a = Analysis(c)
    except BudgetExceededError:
        # coincident branches, or a map of degree > 1 onto its image
        assume(False)
    assert (a.conductor, a.delta) == delgado_invariants(c)


@settings(max_examples=50, deadline=None)
@given(st.lists(BRANCHES.filter(_not_an_axis_cover), min_size=1, max_size=3))
def test_filled_table_matches_the_honest_sweep(branches):
    c = Curve(branches)
    try:
        a = Analysis(c)
    except BudgetExceededError:
        # coincident branches, or a map of degree > 1 onto its image
        assume(False)
    assume(prod(x + 3 for x in a.conductor) <= 4000)
    ranks, rank = a.jet.sweep(a.jet.window)
    assert filled(a).ranks == ranks
    assert a.jet.sweep(a.conductor)[1] == rank == ranks[-1]


@settings(max_examples=50, deadline=None)
@given(st.lists(BRANCHES.filter(_not_an_axis_cover), min_size=1, max_size=3))
def test_pprime_read_matches_the_rule_extended_reference(branches):
    # P', the upper chain (each sweep's last slice filled by the conductor
    # rule) less the lower chain of the honest table on [0, c], equals the
    # reference read of the table the rule extends to [0, c + 1]
    c = Curve(branches)
    try:
        a = Analysis(c)
    except BudgetExceededError:
        # coincident branches, or a map of degree > 1 onto its image
        assume(False)
    assume(prod(x + 3 for x in a.conductor) <= 4000)
    top = vec_add(a.conductor, (1,) * c.r)
    assert pprime_coefficients(a.upper, a.ranks,
                               a.conductor) == reference_pprime(
        rule_extended(a.ranks, a.conductor, top), top)


@settings(max_examples=100, deadline=None)
@given(st.lists(BRANCHES.filter(_not_an_axis_cover), min_size=1, max_size=3))
def test_random_curves_pass_every_verify_check(branches):
    # the three pipelines agree, and the one honest rank h(c + 1) keeps the
    # conductor rule
    c = Curve(branches)
    try:
        conductor = Analysis(c).conductor
    except BudgetExceededError:
        # coincident branches, or a map of degree > 1 onto its image
        assume(False)
    assume(prod(x + 3 for x in conductor) <= 4000)
    assert [(name, ok) for name, ok, _ in run_verify(c)] == [
        (name, True) for name in VERIFY_CHECKS]


@settings(max_examples=50, deadline=None)
@given(st.lists(BRANCHES.filter(_not_an_axis_cover), min_size=2, max_size=3))
def test_random_membership_has_the_value_semigroup_properties(branches):
    # an oracle for r >= 2 that reads resolution graphs, not the jet matrix
    c = Curve(branches)
    try:
        a = Analysis(c)
    except BudgetExceededError:
        # coincident branches, or a map of degree > 1 onto its image
        assume(False)
    assume(prod(x + 3 for x in a.conductor) <= 4000)
    assert value_semigroup_breaks(a) == []
    assert escape_breaks(a) == []


@settings(max_examples=100, deadline=None)
@given(st.lists(BRANCHES.filter(_not_an_axis_cover), min_size=1, max_size=3))
def test_random_curves_keep_the_symmetry_and_torres(branches):
    # Delta is symmetric about the conductor, and for r >= 2 setting one
    # variable to 1 gives the Torres factor times Delta of the other branches
    c = Curve(branches)
    try:
        conductor = Analysis(c).conductor
    except BudgetExceededError:
        # coincident branches, or a map of degree > 1 onto its image
        assume(False)
    assume(prod(x + 3 for x in conductor) <= 4000)
    check_alexander_symmetry(c)
    if c.r >= 2:
        check_torres_formula(c)


@settings(max_examples=100, deadline=None)
@given(st.lists(BRANCHES, min_size=1, max_size=3), st.integers(1, 66))
def test_chained_engine_matches_the_step_loop_on_random_curves(branches,
                                                               budget):
    c = Curve(branches)
    assert (engine_outcome(_run_blowups, c, budget)
            == engine_outcome(reference_blowups, c, budget))


SCALES = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                   st.integers(1, 6))


def _scaled(c, lam, mu):
    """The curve in the coordinates (lam x, mu y)."""
    return Curve([({e: lam * v for e, v in b.x.items()},
                   {e: mu * v for e, v in b.y.items()}) for b in c.branches])


def _invariants(c):
    a = Analysis(c)
    return (en_alexander(a.graph), noether_intersections(c), a.conductor,
            a.ranks, a.poincare, a.fiber_series)


def _check_scaling(c, lam, mu):
    d = _scaled(c, lam, mu)
    assert _invariants(d) == _invariants(c)
    if lam > 0 and mu > 0:
        # directions keep their signs, so siblings keep their order
        assert _run_blowups(d, 64) == _run_blowups(c, 64)


@settings(max_examples=50, deadline=None)
@given(st.lists(BRANCHES.filter(_not_an_axis_cover), min_size=1, max_size=3),
       SCALES, SCALES)
def test_invariants_do_not_see_a_rescaling(branches, lam, mu):
    c = Curve(branches)
    try:
        conductor = Analysis(c).conductor
    except BudgetExceededError:
        # coincident branches, or a map of degree > 1 onto its image
        with pytest.raises(BudgetExceededError):
            _run_blowups(_scaled(c, lam, mu), 64)
        return
    # the analysis sweeps its rank table on [0, conductor], and the whole
    # window reaches conductor + 2; a few thousand points there keep the
    # property fast
    assume(prod(x + 3 for x in conductor) <= 4000)
    _check_scaling(c, lam, mu)


@pytest.mark.parametrize("lam, mu", [(12, 30), (Fraction(-2, 7),
                                                Fraction(5, 3))])
def test_rescaled_rational_curve_keeps_its_invariants(lam, mu):
    # (12, 30) clears every denominator of the p/q curve
    _check_scaling(make_rational_three_branches(), lam, mu)
