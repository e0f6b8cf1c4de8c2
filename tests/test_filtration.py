from fractions import Fraction
from itertools import combinations

import pytest

from curvealex.exactmath import iter_box, mp_mul, vec_add, vec_leq
from curvealex.filtration import (
    Analysis,
    BoundaryNonzeroError,
    JetMatrix,
    fiber_eulers,
    members,
)
from curvealex.resolution import en_alexander, resolve

from corpus import (
    CORPUS_ALL,
    CORPUS_MULTI,
    b_dim,
    c_dim,
    fiber_euler,
    is_member,
    make_axes_and_cusp,
    make_cusp,
    make_four_lines,
    make_node,
    make_quartic_branch,
    make_rational_three_branches,
    make_tacnode,
    make_three_lines,
    monomial_jet,
    reference_monomials,
    reference_ranks,
    semigroup_closure,
    unit_vec,
)


def test_jet_matrix_node_monomials():
    M = JetMatrix(make_node(), (2, 2))
    assert M.monomials == [(0, 0), (0, 1), (1, 0)]


def test_jet_matrix_cusp_monomials():
    M = JetMatrix(make_cusp(), (5,))
    assert M.monomials == [(0, 0), (0, 1), (1, 0), (2, 0)]


def test_jet_matrix_window_of_ones_sees_only_constants():
    M = JetMatrix(make_three_lines(), (1, 1, 1))
    assert M.monomials == [(0, 0)]
    assert M.rows == [[1, 1, 1]]


JET_CURVES = dict(CORPUS_ALL, **{
    "four-lines": make_four_lines,
    "p/q-three-branches": make_rational_three_branches,
    "axes-and-cusp": make_axes_and_cusp,
})


@pytest.mark.parametrize("name", sorted(JET_CURVES))
def test_jet_rows_are_the_monomial_jets(name):
    c = JET_CURVES[name]()
    for M in (Analysis(c).jet, JetMatrix(c, (1,) * c.r),
              JetMatrix(c, (3, 7, 5, 4)[:c.r])):
        assert M.monomials == reference_monomials(M)
        assert M.rows == [monomial_jet(c, a, b, M.window)
                          for a, b in M.monomials]
        # exact Fraction values, padded with int zeros
        assert all(type(x) is (Fraction if x else int)
                   for row in M.rows for x in row)


@pytest.mark.parametrize("name", sorted(JET_CURVES))
def test_members_are_the_per_point_members(name):
    c = JET_CURVES[name]()
    for M in (Analysis(c).jet, JetMatrix(c, (1,) * c.r),
              JetMatrix(c, (3, 7, 5, 4)[:c.r])):
        box = iter_box((0,) * c.r, tuple(w - 1 for w in M.window))
        assert members(M) == {v for v in box if is_member(M, v)}


def test_b_dim_node_full_box():
    M = JetMatrix(make_node(), (2, 2))
    assert b_dim(M, (0, 0)) == 3


def test_b_dim_node_at_window_is_zero():
    M = JetMatrix(make_node(), (2, 2))
    assert b_dim(M, (2, 2)) == 0


def test_b_dim_cusp():
    M = JetMatrix(make_cusp(), (5,))
    assert b_dim(M, (2,)) == 3


def test_c_dim_cusp_is_membership_indicator():
    # oracle: the numerical semigroup <2, 3>
    members = semigroup_closure([2, 3], 8)
    M = JetMatrix(make_cusp(), (10,))
    for v in range(9):
        assert c_dim(M, (v,)) == (1 if v in members else 0)


def test_c_dim_node_values():
    M = JetMatrix(make_node(), (3, 3))
    assert c_dim(M, (0, 0)) == 1
    assert c_dim(M, (1, 1)) == 2


RANK_CURVES = dict(CORPUS_ALL, quartic=make_quartic_branch,
                   rational=make_rational_three_branches)


@pytest.mark.parametrize("name", sorted(RANK_CURVES))
def test_rank_table_matches_per_point_elimination(name):
    M = Analysis(RANK_CURVES[name]()).jet
    assert M.ranks == reference_ranks(M)


SWEEP_CURVES = dict(CORPUS_ALL, rational=make_rational_three_branches,
                    four_lines=make_four_lines)


@pytest.mark.parametrize("name", sorted(SWEEP_CURVES))
def test_fiber_euler_sweeps_match_the_per_point_sums(name):
    M = Analysis(SWEEP_CURVES[name]()).jet
    box = iter_box((0,) * M.r, tuple(w - 1 for w in M.window))
    assert fiber_eulers(M) == {v: fiber_euler(M, v) for v in box}


@pytest.mark.parametrize("name", sorted(SWEEP_CURVES))
def test_pprime_sweeps_match_the_per_point_sums(name):
    a = Analysis(SWEEP_CURVES[name]())
    M, r = a.jet, a.curve.r
    expected = {}
    for v in iter_box((0,) * r, vec_add(a.conductor, (1,) * r)):
        below = tuple(x - 1 for x in v)
        coeff = sum(
            (-1) ** len(I) * c_dim(M, vec_add(below, unit_vec(r, I)))
            for k in range(r + 1) for I in combinations(range(1, r + 1), k))
        if coeff:
            expected[v] = coeff
    assert expected
    assert a.pprime == expected


def fiber_dim(M, v, I):
    # dimension of the J(v)-jets, modulo J(v + 1), whose leading
    # coefficients indexed by I (branch ids 1..r) vanish
    return (b_dim(M, vec_add(v, unit_vec(M.r, I)))
            - b_dim(M, vec_add(v, (1,) * M.r)))


def test_fiber_dim_empty_subset_is_c_dim():
    M = JetMatrix(make_node(), (3, 3))
    for v in iter_box((0, 0), (2, 2)):
        assert fiber_dim(M, v, []) == c_dim(M, v)


def test_fiber_dim_node_singletons_and_pair():
    M = JetMatrix(make_node(), (3, 3))
    assert fiber_dim(M, (1, 1), [1]) == 1
    assert fiber_dim(M, (1, 1), [1, 2]) == 0


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_fiber_euler_is_the_inclusion_exclusion_of_fiber_dims(name):
    # the paper's formula: sum over I of (-1)^|I| times the fiber dimension
    a = Analysis(CORPUS_MULTI[name]())
    M, r = a.jet, a.curve.r
    for v in iter_box((0,) * r, vec_add(a.conductor, (1,) * r)):
        expected = sum(
            (-1) ** len(I) * fiber_dim(M, v, I)
            for k in range(r + 1) for I in combinations(range(1, r + 1), k))
        assert fiber_euler(M, v) == expected


def test_fiber_euler_node():
    M = JetMatrix(make_node(), (3, 3))
    assert fiber_euler(M, (0, 0)) == 1
    assert fiber_euler(M, (1, 1)) == 0


def test_fiber_euler_three_lines_triple_point():
    M = JetMatrix(make_three_lines(), (4, 4, 4))
    assert fiber_euler(M, (1, 1, 1)) == -1


def test_fiber_series_node():
    assert Analysis(make_node()).fiber_series == {(0, 0): 1}


def test_fiber_series_tacnode():
    assert Analysis(make_tacnode()).fiber_series == {(0, 0): 1, (1, 1): 1}


def test_fiber_series_cusp_is_truncated_membership_series():
    members = semigroup_closure([2, 3], 12)
    assert Analysis(make_cusp(), bound=12).fiber_series == \
        {(v,): 1 for v in members}


def test_pprime_node():
    assert Analysis(make_node()).pprime == {(1, 1): 1, (0, 0): -1}


def test_pprime_tacnode():
    assert Analysis(make_tacnode()).pprime == {(2, 2): 1, (0, 0): -1}


def test_pprime_cusp_telescopes_the_gap_indicator():
    # oracle: coefficient at v of (t - 1) * sum_{s in <2,3>} t^s is
    # [v-1 member] - [v member]
    members = semigroup_closure([2, 3], 10)
    expected = {}
    for v in range(4):
        coeff = (1 if v - 1 in members else 0) - (1 if v in members else 0)
        if coeff:
            expected[(v,)] = coeff
    assert Analysis(make_cusp()).pprime == expected
    assert expected == {(0,): -1, (1,): 1, (2,): -1}


def test_poincare_node():
    assert Analysis(make_node()).poincare == {(0, 0): 1}


def test_poincare_tacnode():
    assert Analysis(make_tacnode()).poincare == {(0, 0): 1, (1, 1): 1}


def test_poincare_three_lines():
    assert Analysis(make_three_lines()).poincare == \
        {(0, 0, 0): 1, (1, 1, 1): -1}


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_b_antitone(name):
    c = CORPUS_MULTI[name]()
    a = Analysis(c)
    M, top = a.jet, tuple(d + 1 for d in a.conductor)
    values = {v: b_dim(M, v) for v in iter_box((0,) * c.r, top)}
    for v, bv in values.items():
        for i in range(c.r):
            u = v[:i] + (v[i] + 1,) + v[i + 1:]
            if u in values:
                assert values[u] <= bv


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_window_stability(name):
    c = CORPUS_MULTI[name]()
    delta = Analysis(c).conductor
    small = JetMatrix(c, tuple(d + 2 for d in delta))
    large = JetMatrix(c, tuple(d + 4 for d in delta))
    for v in iter_box((0,) * c.r, delta):
        assert c_dim(small, v) == c_dim(large, v)


@pytest.mark.parametrize("name", sorted(CORPUS_ALL))
def test_fiber_product_identity_on_the_box(name):
    c = CORPUS_ALL[name]()
    r = c.r
    delta = Analysis(c).conductor
    bound = 2 * delta[0] + 2 if r == 1 else None
    fibers = Analysis(c, bound=bound).fiber_series
    divisor = {(1,) * r: 1, (0,) * r: -1}
    product = mp_mul(fibers, divisor)
    box_top = tuple(d + 1 for d in delta)
    if r == 1:
        product = {e: v for e, v in product.items() if vec_leq(e, box_top)}
    assert product == Analysis(c).pprime


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_poincare_equals_alexander(name):
    c = CORPUS_MULTI[name]()
    assert Analysis(c).poincare == en_alexander(resolve(c))


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_fiber_series_equals_alexander(name):
    c = CORPUS_MULTI[name]()
    assert Analysis(c).fiber_series == en_alexander(resolve(c))


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_fiber_euler_vanishes_at_and_past_the_conductor(name):
    c = CORPUS_MULTI[name]()
    delta = Analysis(c).conductor
    M = JetMatrix(c, tuple(d + 4 for d in delta))
    top = tuple(d + 2 for d in delta)
    for v in iter_box(delta, top):
        assert fiber_euler(M, v) == 0


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_wrong_conductor_trips_the_boundary_guard(name):
    a = Analysis(CORPUS_MULTI[name]())
    # Delta has multidegree conductor - 1, so the shell just past the box
    # sees its top term only once the conductor is two too small
    a.conductor = tuple(x - 2 for x in a.conductor)
    with pytest.raises(BoundaryNonzeroError) as info:
        a.fiber_series
    message = str(info.value)
    assert repr(a.conductor) in message
    assert repr(vec_add(a.conductor, (1,) * a.curve.r)) in message


def _wide_reference(a):
    # the windows analyses used before the conductor rule: 2c + 4 read on
    # [0, 2c + 2] for one branch, c + 4 read on [0, c + 2] otherwise
    c, r = a.conductor, a.curve.r
    top = (2 * c[0] + 2,) if r == 1 else vec_add(c, (2,) * r)
    return JetMatrix(a.curve, vec_add(top, (2,) * r)), top


@pytest.mark.parametrize("name", sorted(RANK_CURVES))
def test_conductor_rule_matches_a_wide_window(name):
    a = Analysis(RANK_CURVES[name]())
    wide, top = _wide_reference(a)
    assert a.jet.window == vec_add(a.conductor, (2,) * a.curve.r)
    for v in iter_box((0,) * a.curve.r, top):
        assert a.is_member(v) == is_member(wide, v), v


@pytest.mark.parametrize("name", sorted(RANK_CURVES))
def test_conductor_one_too_small_trips_the_rule_guard(name):
    a = Analysis(RANK_CURVES[name]())
    a.conductor = tuple(x - 1 for x in a.conductor)
    with pytest.raises(BoundaryNonzeroError) as info:
        a.is_member((0,) * a.curve.r)
    message = str(info.value)
    assert repr(a.conductor) in message
    assert repr(vec_add(a.conductor, (1,) * a.curve.r)) in message


@pytest.mark.parametrize("make,wrong,points", [
    # node values: (0, 0) and every v >= (1, 1); (1, 0) is no value, and
    # on the shell (0, 1), (1, 1) and (2, 1) differ from their clamps
    (make_node, (1, 0), [(1, 0), (0, 1), (1, 1), (2, 1)]),
    # <4, 6, 13>: 2 and 3 are both gaps, so only the value test at c sees it
    (make_quartic_branch, (2,), [(2,)]),
])
def test_rule_guard_names_every_disagreeing_point(make, wrong, points):
    a = Analysis(make())
    a.conductor = wrong
    with pytest.raises(BoundaryNonzeroError) as info:
        a.is_member(wrong)
    assert str(info.value).endswith(": %r" % (points,))
