from fractions import Fraction

import pytest

from curvealex import Curve
from curvealex.exactmath import vec_add
from curvealex.filtration import Analysis, JetMatrix, minimal_generators
from curvealex.resolution import en_alexander, resolve

from corpus import (
    CORPUS_MULTI,
    apery_set,
    escape_breaks,
    filled,
    germ_valuation,
    is_member,
    make_cusp,
    make_four_lines,
    make_node,
    make_quartic_branch,
    make_smooth_branch,
    make_tacnode,
    make_wide_three_branches,
    members_box,
    semigroup_closure,
    value_semigroup_breaks,
    vec_leq,
    verify_semigroup_properties,
)


def test_contains_cusp():
    M = filled(Analysis(make_cusp()))
    assert not is_member(M, (1,))
    assert is_member(M, (2,))


def test_contains_node_rejects_mixed_vector():
    # v2(g) = 0 forces a unit, contradicting v1 >= 1
    M = filled(Analysis(make_node()))
    assert not is_member(M, (1, 0))


def test_contains_zero_always():
    for make in (make_node, make_cusp, make_tacnode):
        M = filled(Analysis(make()))
        assert is_member(M, (0,) * len(M.window))


def test_conductor_cusp():
    assert Analysis(make_cusp()).conductor == (2,)


def test_conductor_node():
    assert Analysis(make_node()).conductor == (1, 1)


def test_conductor_tacnode():
    assert Analysis(make_tacnode()).conductor == (2, 2)


def _lines(k):
    return Curve([({1: 1}, {1: i}) for i in range(k - 1)] + [({}, {1: 1})])


def _pencil(n, k):
    return Curve([({1: 1}, {k: i}) for i in range(n)])


def _a(k):
    return Curve([({2: 1}, {2 * k + 1: 1})])


@pytest.mark.parametrize("curve,expected", [
    # k transverse lines: each meets the other k - 1 once
    (_lines(2), (1, 1)),
    (_lines(4), (3, 3, 3, 3)),
    # n smooth branches with pairwise contact k: (n - 1) k each
    (_pencil(3, 2), (4, 4, 4)),
    (_pencil(4, 3), (9, 9, 9, 9)),
    # <3, 5> has conductor 8, <2, 3> has 2, and they meet with number 9
    (Curve([({3: 1}, {5: 1}), ({2: 1}, {3: 1})]), (17, 11)),
    # A_k = <2, 2k + 1> has conductor 2k
    (_a(1), (2,)),
    (_a(20), (40,)),
    # <4, 6, 13>, Zariski: (2 - 1) 6 + (2 - 1) 13 - 4 + 1 = 16
    (make_quartic_branch(), (16,)),
])
def test_conductor_closed_forms(curve, expected):
    assert Analysis(curve).conductor == expected


def test_minimal_generators_cusp():
    assert minimal_generators(Analysis(make_cusp())) == [2, 3]


def test_minimal_generators_quartic_branch():
    c = make_quartic_branch()
    # oracle: valuations of x, y and y^2 - x^3 computed by direct
    # substitution, and the closure of those three values reproduces the
    # rank-based member table
    b = c.branches[0]
    assert germ_valuation({(1, 0): 1}, b)[0] == 4
    assert germ_valuation({(0, 1): 1}, b)[0] == 6
    assert germ_valuation({(0, 2): 1, (3, 0): -1}, b)[0] == 13
    bound = 34
    M = JetMatrix(c, (bound + 2,))
    members = {v[0] for v in members_box(M, (bound,)).members}
    assert members == semigroup_closure([4, 6, 13], bound)
    assert minimal_generators(Analysis(c)) == [4, 6, 13]


def test_minimal_generators_smooth_branch():
    assert minimal_generators(Analysis(make_smooth_branch())) == [1]


@pytest.mark.parametrize("curve", [
    make_cusp(), make_quartic_branch(), make_smooth_branch(), _a(20),
    Curve([({3: 1}, {5: 1})]),
    Curve([({8: 1}, {12: 1, 14: 1, 15: 1})]),
    Curve([({2: Fraction(3, 4)}, {2: Fraction(1, 2), 3: Fraction(1, 5)})]),
], ids=["cusp", "quartic", "smooth", "a20", "3-5", "8-12-14-15", "p/q"])
def test_minimal_generators_are_the_generators_of_the_graph(curve):
    # the graph reads beta_0 off the root tail and the others off the
    # dead ends below star points; the jet table is not consulted
    assert minimal_generators(Analysis(curve)) == \
        verify_semigroup_properties(curve).generators


def _box_2_3(top=8):
    M = filled(Analysis(make_cusp()))
    if M.window[0] < top + 2:
        M = JetMatrix(make_cusp(), (top + 2,))
    return members_box(M, (top,))


def test_apery_set_examples():
    box = _box_2_3()
    assert apery_set(box, 2) == {0, 3}
    assert apery_set(box, 3) == {0, 2, 4}


def test_apery_set_cardinality_equals_smallest_generator():
    c = make_quartic_branch()
    M = JetMatrix(c, (40,))
    box = members_box(M, (36,))
    assert len(apery_set(box, 4)) == 4


def test_apery_set_rejects_non_member():
    with pytest.raises(ValueError):
        apery_set(_box_2_3(), 1)


def test_verify_properties_cusp():
    rep = verify_semigroup_properties(make_cusp())
    assert rep.all_passed()
    assert rep.generators == [2, 3]
    assert rep.tail_quotients == [1]
    assert rep.conductor == 2


def test_verify_properties_quartic_branch():
    rep = verify_semigroup_properties(make_quartic_branch())
    assert rep.all_passed()
    assert rep.generators == [4, 6, 13]
    assert rep.conductor == 16


def test_verify_properties_smooth_branch_vacuous():
    rep = verify_semigroup_properties(make_smooth_branch())
    assert rep.all_passed()
    assert rep.generators == [1]
    assert rep.tail_quotients == []


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_members_closed_under_addition(name):
    c = CORPUS_MULTI[name]()
    a = Analysis(c)
    top = tuple(d + 1 for d in a.conductor)
    box = members_box(filled(a), top)
    for u in box.members:
        for v in box.members:
            s = vec_add(u, v)
            if vec_leq(s, top):
                assert s in box.members, (u, v)


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_alexander_support_lies_in_the_semigroup(name):
    c = CORPUS_MULTI[name]()
    a = Analysis(c)
    poly = en_alexander(resolve(c))
    for v in poly:
        assert vec_leq(v, vec_add(a.conductor, (1,) * c.r))
        assert is_member(filled(a), v), v


def test_largest_gap_is_conductor_minus_one():
    for make in (make_cusp, make_quartic_branch):
        c = make()
        delta = Analysis(c).conductor[0]
        M = JetMatrix(c, (delta + 4,))
        gaps = [v for v in range(delta + 2) if not is_member(M, (v,))]
        if delta:
            assert max(gaps) == delta - 1
        else:
            assert not gaps


VALUE_CURVES = dict(CORPUS_MULTI, **{
    "four-lines": make_four_lines,
    "wide-three-branches": make_wide_three_branches,
})


@pytest.mark.parametrize("name", sorted(VALUE_CURVES))
def test_membership_has_the_value_semigroup_properties(name):
    # for r >= 2 these read resolution graphs, not the jet matrix: the
    # curvettes of every divisor, closure under min, and each projection
    # against its branch's own graph
    assert value_semigroup_breaks(Analysis(VALUE_CURVES[name]())) == []


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI) + ["four-lines"])
def test_two_values_with_one_common_coordinate_escape_above_it(name):
    assert escape_breaks(Analysis(VALUE_CURVES[name]())) == []
