import copy
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from curvealex import Curve, filtration
from curvealex.cli import printed_series
from curvealex.exactmath import iter_box, up_mul, vec_add
from curvealex.filtration import (
    Analysis,
    BoundaryNonzeroError,
    JetMatrix,
    TableTooLargeError,
    listed,
    members,
    pprime_coefficients,
    visible_rows,
)
from curvealex.resolution import en_alexander, resolve

from corpus import (
    CORPUS_ALL,
    CORPUS_MULTI,
    b_dim,
    c_dim,
    check_alexander_symmetry,
    check_torres_formula,
    face,
    fiber_euler,
    fiber_eulers,
    filled,
    honest,
    is_member,
    make_axes_and_cusp,
    make_cusp,
    make_four_lines,
    make_node,
    make_quartic_branch,
    make_rational_three_branches,
    make_tacnode,
    make_three_lines,
    make_transverse_lines,
    make_wide_three_branches,
    mp_mul,
    reference_monomials,
    reference_pprime,
    reference_columns,
    reference_rank,
    reference_ranks,
    reference_table,
    rule_extended,
    semigroup_closure,
    shell_face,
    sub_box,
    unit_vec,
    vec_clamp,
    vec_leq,
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
    # the one row [1, 1, 1], read by its columns
    assert M.columns == [{0: 1}] * 3 == reference_columns(M)


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
        assert M.columns == reference_columns(M)
        assert all(type(x) is int for col in M.columns for x in col.values())


@pytest.mark.parametrize("name", sorted(JET_CURVES))
def test_members_are_the_per_point_members(name):
    # members reads the rises on a whole box [0, w] and counts each step off
    # its top face as rising, so below that face every point reads its own
    # rises; the analysis's table on [0, c] rises there by the rule
    c = JET_CURVES[name]()
    a = Analysis(c)
    for T in (filled(a), honest(JetMatrix(c, (1,) * c.r)),
              honest(JetMatrix(c, (3, 7, 5, 4)[:c.r]))):
        top = tuple(w - 1 for w in T.window)
        box = list(iter_box((0,) * c.r, top))
        assert list(zip(box, sub_box(members(*T), T.window, top),
                        strict=True)) == [(v, is_member(T, v)) for v in box]
    box = list(iter_box((0,) * c.r, a.conductor))
    assert list(zip(box, a.membership, strict=True)) == \
        [(v, is_member(filled(a), v)) for v in box]


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
    a = Analysis(RANK_CURVES[name]())
    assert filled(a).ranks == reference_ranks(a.jet)


SLAB_CURVES = dict(CORPUS_ALL, **{
    "quartic": make_quartic_branch,
    "4-lines": lambda: make_transverse_lines(4),
    "5-lines": lambda: make_transverse_lines(5),
    "6-lines": lambda: make_transverse_lines(6),
    "wide-three-branches": make_wide_three_branches,
})


@pytest.mark.parametrize("name", sorted(SLAB_CURVES))
def test_sweep_matches_the_one_column_per_point_reference(name):
    # the slab reads the last two axes from J + K eliminations per node; the
    # reference adds one column per point.  Every box's table is the
    # reference's on the whole window cut to the box, and every box
    # completes the window's rank: [0, c], [0, c + 1], the window, and c
    # with 0 on the last axis (K = 0), on the one before it (J = 0) or both
    a = Analysis(SLAB_CURVES[name]())
    M, c, r = a.jet, a.conductor, a.curve.r
    ranks, rank = reference_table(M, M.window)
    boxes = {c, vec_add(c, (1,) * r), M.window, c[:-1] + (0,)}
    if r > 1:
        boxes |= {c[:-2] + (0, c[-1]), c[:-2] + (0, 0)}
    for box in sorted(boxes):
        table, total = M.sweep(box)
        assert (list(table), total) == (sub_box(ranks, M.window, box),
                                        rank), box



def test_sweep_refuses_more_branches_than_the_packed_reads_hold():
    # |P'| <= 2^r must fit beside the bias 2^15 in a 16-bit slot; the
    # refusal comes before the sweep, even for the one point of [0, 0]
    M = JetMatrix(make_transverse_lines(15), (1,) * 15)
    with pytest.raises(TableTooLargeError) as info:
        M.sweep((0,) * 15)
    assert str(info.value) == ("a rank table of r = 15 branches: the packed "
                               "reads hold |P'| <= 2^r only for r <= 14")
    assert len(JetMatrix(make_transverse_lines(14), (1,) * 14).sweep(
        (0,) * 14)[0]) == 1


def test_sweep_refuses_a_rank_that_may_reach_the_bias():
    # h(v) <= rows and h(v) <= sum(v): a 16-bit slot holds the biased
    # differences only while one of the bounds stays below 2^15
    M = JetMatrix(Curve([({1: 1}, {})]), (2 ** 15 + 1,))
    with pytest.raises(TableTooLargeError) as info:
        M.sweep((2 ** 15,))
    assert str(info.value) == (
        "ranks up to min(rows, sum(box)) = min(32769, 32768) on the box "
        "[0, (32768,)] reach 2^15 = 32768, past a 16-bit slot of the packed "
        "reads")


@pytest.mark.parametrize("name", sorted(RANK_CURVES))
def test_visible_rows_count_the_jet_rows(name):
    # the rows follow from the branch orders alone, before any is built
    c = RANK_CURVES[name]()
    conductor = Analysis(c).conductor
    for window in ((1,) * c.r, (2,) * c.r, vec_add(conductor, (2,) * c.r),
                   tuple(x + 1 + 3 * i for i, x in enumerate(conductor)),
                   tuple(x // 2 + 1 for x in conductor)):
        assert visible_rows(c, window) == \
            len(JetMatrix(c, window).monomials), window


def test_sweep_refuses_a_box_of_more_than_2_31_points(monkeypatch):
    # the pencil y = a x^6, a = -4 ... 3: conductor (42,)^8, 43^8 points
    monkeypatch.setattr(filtration, "_sweep", None)
    M = JetMatrix(Curve([({1: 1}, {6: a} if a else {})
                         for a in range(-4, 4)]), (44,) * 8)
    with pytest.raises(TableTooLargeError) as info:
        M.sweep((42,) * 8)
    assert str(info.value) == (
        "the rank table of r = 8 branches on the box [0, (42, 42, 42, 42, "
        "42, 42, 42, 42)] has 11688200277601 points, more than 2^31 = "
        "2147483648")


# the curves the symmetry and metamorphic oracles run on
ORACLE_CURVES = dict(RANK_CURVES, **{
    "axes-and-cusp": make_axes_and_cusp,
    "five-lines": lambda: Curve([({1: 1}, {1: a}) for a in range(4)]
                                + [({}, {1: 1})]),
})


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_gorenstein_symmetry_of_the_honest_table(name):
    # O_C is Gorenstein: h(v) - h(c - v) = |v| - delta on [0, c], read on
    # an honest sweep against c and delta from the blow-ups
    a = Analysis(ORACLE_CURVES[name]())
    c = a.conductor
    h = dict(zip(iter_box((0,) * len(c), c), a.jet.sweep(c)[0]))
    for v, x in h.items():
        mirror = tuple(ci - vi for ci, vi in zip(c, v))
        assert x - h[mirror] == sum(v) - a.delta, v


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_alexander_polynomial_is_symmetric(name):
    check_alexander_symmetry(ORACLE_CURVES[name]())


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_alexander_polynomial_follows_the_branches_and_the_axes(name):
    curve = ORACLE_CURVES[name]()
    delta = en_alexander(resolve(curve))
    r = curve.r
    # branch k of the permuted curve is branch order[k] of the curve, so
    # its variable t_k is the curve's t_order[k]
    for order in (tuple(reversed(range(r))), tuple(range(1, r)) + (0,)):
        permuted = Curve([curve.branches[i] for i in order])
        assert en_alexander(resolve(permuted)) == {
            tuple(v[i] for i in order): k for v, k in delta.items()}
    swapped = Curve([(b.y, b.x) for b in curve.branches])
    assert en_alexander(resolve(swapped)) == delta
    # the change of coordinates (x, y + x^2) and the reparametrization
    # t -> t + t^2 of every branch keep the germ, and so every pipeline's
    # Delta
    sheared = Curve([(b.x, _add(b.y, up_mul(b.x, b.x)))
                     for b in curve.branches])
    shifted = Curve([(_substitute(b.x, {1: 1, 2: 1}),
                      _substitute(b.y, {1: 1, 2: 1}))
                     for b in curve.branches])
    for moved in (sheared, shifted):
        a = Analysis(moved)
        assert en_alexander(a.graph) == a.poincare == a.fiber_series == delta


def _add(p, q) -> dict:
    """The sum of two polynomials given as exponent -> coefficient."""
    out = dict(p)
    for e, x in q.items():
        out[e] = out.get(e, 0) + x
    return {e: x for e, x in out.items() if x}


def _substitute(p, s) -> dict:
    """p(s(t)) for polynomials given as exponent -> coefficient."""
    out, power = {}, {0: 1}
    for k in range(max(p, default=0) + 1):
        out = _add(out, {e: p.get(k, 0) * x for e, x in power.items()})
        power = up_mul(power, s)
    return out


@pytest.mark.parametrize("name", sorted(
    name for name, make in ORACLE_CURVES.items() if make().r > 1))
def test_torres_formula(name):
    check_torres_formula(ORACLE_CURVES[name]())


SWEEP_CURVES = dict(CORPUS_ALL, rational=make_rational_three_branches,
                    four_lines=make_four_lines)


@pytest.mark.parametrize("name", sorted(SWEEP_CURVES))
def test_fiber_euler_sweeps_match_the_per_point_sums(name):
    T = filled(Analysis(SWEEP_CURVES[name]()))
    box = list(iter_box((0,) * len(T.window),
                        tuple(w - 1 for w in T.window)))
    assert list(zip(box, fiber_eulers(*T), strict=True)) == \
        [(v, fiber_euler(T, v)) for v in box]


@pytest.mark.parametrize("name", sorted(SWEEP_CURVES))
def test_pprime_sweeps_match_the_per_point_sums(name):
    a = Analysis(SWEEP_CURVES[name]())
    M, r = filled(a), a.curve.r
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
    return (b_dim(M, vec_add(v, unit_vec(len(M.window), I)))
            - b_dim(M, vec_add(v, (1,) * len(M.window))))


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
    M, r = filled(a), a.curve.r
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
    fibers = Analysis(make_cusp()).fiber_series
    assert fibers == {(0,): 1, (1,): -1, (2,): 1}
    assert printed_series(fibers, 12) == {(v,): 1 for v in members}


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
    M, top = filled(a), tuple(d + 1 for d in a.conductor)
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
    a = Analysis(c)
    # P' = (t_1...t_r - 1) Delta, and P' = -Delta for one branch
    divisor = {(1,) * r: 1, (0,) * r: -1} if r > 1 else {(0,): -1}
    assert mp_mul(a.fiber_series, divisor) == a.pprime


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


def _lowered_message(a, k):
    """The certificate's message once a's conductor is k too small in every
    branch: h(c) exceeds sum(c) - delta, h read by fresh elimination."""
    c = tuple(x - k for x in a.conductor)
    if min(c) < 0:
        return "the conductor c = %r has a negative entry" % (c,)
    h = reference_rank(JetMatrix(a.curve, vec_add(c, (2,) * a.curve.r)), c)
    return ("h(c) = %d at the conductor c = %r, not sum(c) - delta = %d"
            % (h, c, sum(c) - a.delta))


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_wrong_conductor_trips_the_boundary_guard(name):
    a = Analysis(CORPUS_MULTI[name]())
    message = _lowered_message(a, 2)
    a.conductor = tuple(x - 2 for x in a.conductor)
    with pytest.raises(BoundaryNonzeroError) as info:
        a.fiber_series
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
@pytest.mark.parametrize("series", ["fiber_series", "pprime", "poincare"])
def test_conductor_one_too_small_trips_every_series(name, series):
    # Delta has multidegree c - 1, so no series read past a conductor one
    # too small in every branch can see it; the certificate does
    a = Analysis(CORPUS_MULTI[name]())
    a.conductor = tuple(x - 1 for x in a.conductor)
    with pytest.raises(BoundaryNonzeroError):
        getattr(a, series)


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
        assert is_member(a, v) == is_member(wide, v), v


FAR_CURVES = {name: make for name, make in ORACLE_CURVES.items()
              if make().r in (2, 3)}


@pytest.mark.parametrize("name", sorted(FAR_CURVES))
def test_is_member_far_past_the_window_reads_min_v_c(name):
    # some coordinates below c_i and others far above it: the analysis
    # reads its flat table at min(v, c), a per-point read of a wide window
    a = Analysis(FAR_CURVES[name]())
    c, r = a.conductor, a.curve.r
    wide = JetMatrix(a.curve, vec_add(c, (4,) * r))
    for v in iter_box((0,) * r, vec_add(c, (1,) * r)):
        for k in range(1, r + 1):
            for far in combinations(range(r), k):
                u = tuple(x + 10 ** 6 * (i + 1) if i in far else x
                          for i, x in enumerate(v))
                assert is_member(a, u) == is_member(wide, vec_clamp(u, c)), u


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_members_to_reads_every_point_at_min_v_c(name):
    # the members up to top: ``members_in`` lists the points of [0, top]
    # that the table reads as values at min(v, c)
    a = Analysis(ORACLE_CURVES[name]())
    c, r = a.conductor, a.curve.r
    for top in (vec_add(c, (2,) * r), tuple(x // 2 for x in c),
                tuple(x + 3 if i % 2 else x // 2 for i, x in enumerate(c))):
        assert a.members_in(top) == [v for v in iter_box((0,) * r, top)
                                     if is_member(a, v)]


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_reads_of_the_sub_box_match_the_whole_window(name):
    # the analysis's table is the [0, c] sub-box of the whole window c + 2;
    # chi, P' and membership read from it equal the reads of the whole
    # window on [0, c]; on the rest of [0, c + 1] P' vanishes, and so does
    # chi for r > 1, while the one-branch chi is the membership indicator,
    # 1 past c
    a = Analysis(ORACLE_CURVES[name]())
    (ranks, window), r = filled(a), a.curve.r
    c, inner = a.conductor, vec_add(a.conductor, (1,) * r)
    assert list(a.ranks) == sub_box(ranks, window, c)
    assert a.membership == sub_box(members(ranks, window), window, c)
    chi, pprime = fiber_eulers(ranks, window), reference_pprime(ranks, window)
    assert a.chi == sub_box(chi, inner, c)
    assert a.pprime == {v: x for v, x in zip(
        iter_box((0,) * r, c), sub_box(pprime, inner, c)) if x}
    for whole, past in ((chi, int(r == 1)), (pprime, 0)):
        assert [x for v, x in zip(iter_box((0,) * r, inner), whole,
                                  strict=True) if not vec_leq(v, c)] == \
            [past] * (len(whole) - len(a.ranks))


@pytest.mark.parametrize("k", [4, 5, 6])
def test_pprime_read_matches_the_rule_extended_reference(k):
    # P' reads the lower chain of the honest table on [0, c] less chi,
    # whose sweeps fill their last slices by the conductor rule; the
    # reference sweeps the table the rule extends to [0, c + 1]
    a = Analysis(make_transverse_lines(k))
    c = a.conductor
    top = vec_add(c, (1,) * k)
    assert listed(pprime_coefficients(a.chi_table, a.ranks, c), c) == \
        reference_pprime(rule_extended(a.ranks, c, top), top)


SPY_CURVES = dict(CORPUS_MULTI, **{"four-lines": make_four_lines,
                                   "axes-and-cusp": make_axes_and_cusp})


@pytest.mark.parametrize("name", sorted(SPY_CURVES))
def test_reads_take_no_table_past_the_conductor(name, monkeypatch):
    # for r > 1 chi, P' and membership read the honest table on [0, c],
    # packed, and take what they need past c from the conductor rule inside
    # their steps: every step's table, and every packed read unpacked,
    # spans exactly the prod(c_i + 1) slots of [0, c] (chi's and P''s
    # slots are biased, and membership's top slot, on every top face, rises,
    # so the top one is nonzero)
    a = Analysis(SPY_CURVES[name]())
    size, spans = prod(x + 1 for x in a.conductor), []
    step, signed = filtration._step, filtration._signed

    def span(values):
        spans.append(-(-values.bit_length() // 16))
        return values

    a.ranks
    monkeypatch.setattr(filtration, "_step", lambda *args: span(step(*args)))
    monkeypatch.setattr(filtration, "_signed",
                        lambda values, n: signed(span(values), n))
    a.chi, a.pprime, a.membership
    # r steps each for chi, P''s lower chain and membership; chi and P'
    # unpacked once each
    assert spans == [size] * (3 * a.curve.r + 2)


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_shell_faces_match_the_full_re_sweep(name):
    # the r faces are disjoint and cover [0, c + 1] outside [0, c]; their
    # ranks, each face swept with its own branch's prefix added first,
    # equal an honest sweep of the whole box [0, c + 1] at those points,
    # and so does the analysis's table extended by the conductor rule
    a = Analysis(ORACLE_CURVES[name]())
    c, r = a.conductor, a.curve.r
    top = vec_add(c, (1,) * r)
    full = a.jet.sweep(top)[0]
    h = dict(zip(iter_box((0,) * r, top), full, strict=True))
    fill = dict(zip(iter_box((0,) * r, top),
                    rule_extended(a.ranks, c, top), strict=True))
    faces = [shell_face(c, i) for i in range(r)]
    points = [v for low, high in faces for v in iter_box(low, high)]
    assert len(points) == prod(x + 2 for x in c) - prod(x + 1 for x in c)
    assert set(points) == {v for v in h if not vec_leq(v, c)}
    for i, (low, high) in enumerate(faces):
        ranks = face(a.jet, c, i)
        assert ranks == [h[v] for v in iter_box(low, high)]
        assert ranks == [fill[v] for v in iter_box(low, high)]


STEP_CURVES = dict(ORACLE_CURVES, **{"four-lines": make_four_lines})


@pytest.mark.parametrize("name", sorted(STEP_CURVES))
def test_every_step_rises_iff_a_member_above_keeps_its_coordinate(name):
    # h(v + e_i) - h(v) = 1 iff some value s >= v has s_i = v_i, membership
    # read at min(s, c): so s_j runs over [v_j, max(v_j, c_j)], and the
    # test is whether some value u of [0, c] with u >= min(v, c) has
    # u_i = v_i; read on the honest sweep of the whole window, per point
    a = Analysis(STEP_CURVES[name]())
    T, c, r = honest(a.jet), a.conductor, a.curve.r
    h = dict(zip(iter_box((0,) * r, T.window), T.ranks, strict=True))
    box = list(iter_box((0,) * r, c))
    member = {u: is_member(T, u) for u in box}
    units = [unit_vec(r, [i + 1]) for i in range(r)]
    # above[i][u]: some value u' >= u of [0, c] has u'_i = u_i; every
    # u + e_j comes later in lexicographic order, so one backward pass
    above = []
    for i in range(r):
        seen = {}
        for u in reversed(box):
            seen[u] = member[u] or any(
                seen[vec_add(u, e)] for j, e in enumerate(units)
                if j != i and u[j] < c[j])
        above.append(seen)
    steps, broken = 0, []
    for v in iter_box((0,) * r, vec_add(c, (1,) * r)):
        low = vec_clamp(v, c)
        for i, e in enumerate(units):
            if v[i] <= c[i]:
                steps += 1
                if h[vec_add(v, e)] - h[v] != above[i][low]:
                    broken.append((v, i))
    assert steps == sum(prod(x + 2 for x in c) // (x + 2) * (x + 1)
                        for x in c)
    assert broken == []


@pytest.mark.parametrize("name", sorted(RANK_CURVES))
def test_conductor_one_too_small_trips_the_rule_guard(name):
    a = Analysis(RANK_CURVES[name]())
    message = _lowered_message(a, 1)
    a.conductor = tuple(x - 1 for x in a.conductor)
    with pytest.raises(BoundaryNonzeroError) as info:
        is_member(a, (0,) * a.curve.r)
    assert str(info.value) == message


@pytest.mark.parametrize("make,wrong,delta,message", [
    # node: delta 1, h(1, 0) = 1 since (1, 0) is no value
    (make_node, (1, 0), None,
     "h(c) = 1 at the conductor c = (1, 0), not sum(c) - delta = 0"),
    # <4, 6, 13>: delta 8, and only 0 lies below 2
    (make_quartic_branch, (2,), None,
     "h(c) = 1 at the conductor c = (2,), not sum(c) - delta = -6"),
    # node: (2, 1) passes the first check, but its first step rises
    (make_node, (2, 1), None,
     "h(c) = 2 at the conductor c = (2, 1) rises from (i, h(c - e_i)) = "
     "[(1, 1)]"),
    # the tacnode read as a node: only the window's rank tells them apart
    (make_tacnode, (1, 1), 1,
     "the window (3, 3) has rank 4, not h(c) + 4 = 5 at the conductor "
     "c = (1, 1)"),
], ids=["low-node", "low-quartic", "high-node", "tacnode-as-node"])
def test_certificate_names_the_numbers_that_decided_it(make, wrong, delta,
                                                       message):
    a = Analysis(make())
    a.conductor = wrong
    if delta is not None:
        a.delta = delta
    with pytest.raises(BoundaryNonzeroError) as info:
        is_member(a, wrong)
    assert str(info.value) == message


BATTERY_CURVES = dict(RANK_CURVES, **{
    "torus-pair": lambda: Curve([({3: 1}, {5: 1}), ({2: 1}, {3: 1})]),
    "a6": lambda: Curve([({2: 1}, {7: 1})]),
    "cusp-pair-contact-7": lambda: Curve([({2: 1}, {3: 1}),
                                          ({2: 1}, {3: 1, 4: 1})]),
    "pencil-3-contact-2": lambda: Curve([({1: 1}, {2: a})
                                         for a in (-1, 2, 3)]),
})


def _shifts(c, ks):
    """c + k e_i for each branch i, and c + k (1, ..., 1), for each k in ks
    that leaves every entry nonnegative."""
    r = len(c)
    units = [unit_vec(r, [i]) for i in range(1, r + 1)] + [(1,) * r]
    return [v for k in ks for e in units
            if min(v := tuple(x + k * y for x, y in zip(c, e))) >= 0]


def _certificate_message(a):
    """The message the certificate must give for a's conductor and delta,
    read from an honest sweep of the whole window c + 2; None if every
    check holds."""
    c, r = a.conductor, a.curve.r
    M = JetMatrix(a.curve, vec_add(c, (2,) * r))
    window_rank = honest(M).ranks[-1]

    def h(v):
        return window_rank - b_dim(M, v)

    if h(c) != sum(c) - a.delta:
        return ("h(c) = %d at the conductor c = %r, not sum(c) - delta = %s"
                % (h(c), c, sum(c) - a.delta))
    below = [(i, h(tuple(x - y for x, y in zip(c, unit_vec(r, [i])))))
             for i in range(1, r + 1) if c[i - 1]]
    rose = [(i, x) for i, x in below if x != h(c)]
    if rose:
        return ("h(c) = %d at the conductor c = %r rises from "
                "(i, h(c - e_i)) = %r" % (h(c), c, rose))
    if window_rank != h(c) + 2 * r:
        return ("the window %r has rank %d, not h(c) + %d = %d at the "
                "conductor c = %r" % (M.window, window_rank, 2 * r,
                                      h(c) + 2 * r, c))
    return None


@pytest.mark.parametrize("name", sorted(BATTERY_CURVES))
def test_certificate_rejects_every_wrong_conductor(name):
    # wrong conductors keep the true delta; consistent corruptions move
    # delta with them, to sum(c) / 2, as the true pair satisfies
    true = Analysis(BATTERY_CURVES[name]())
    cases = [(c, true.delta) for c in _shifts(true.conductor,
                                             [-5, -4, -3, -2, -1, 1, 2])]
    cases += [(c, Fraction(sum(c), 2)) for c in sorted(
        {(0,) * true.curve.r, *_shifts(true.conductor, [-3, -2, -1, 1, 2, 3])})
        if c != true.conductor]
    assert cases
    for conductor, delta in cases:
        a = copy.copy(true)
        a.conductor, a.delta = conductor, delta
        message = _certificate_message(a)
        assert message is not None, (conductor, delta)
        with pytest.raises(BoundaryNonzeroError) as info:
            a.fiber_series
        assert str(info.value) == message
