import pytest

from curvealex import Curve
from curvealex.curve import germ_valuation
from curvealex.exactmath import vec_add, vec_leq
from curvealex.filtration import Analysis, JetMatrix, is_member
from curvealex.resolution import en_alexander, resolve
from curvealex.semigroup import (
    apery_set,
    conductor,
    members_box,
    minimal_generators_r1,
    verify_semigroup_properties,
)

from corpus import (
    CORPUS_MULTI,
    make_cusp,
    make_node,
    make_quartic_branch,
    make_smooth_branch,
    make_tacnode,
    semigroup_closure,
)


def test_contains_cusp():
    M = Analysis(make_cusp()).jet
    assert not is_member(M, (1,))
    assert is_member(M, (2,))


def test_contains_node_rejects_mixed_vector():
    # v2(g) = 0 forces a unit, contradicting v1 >= 1
    M = Analysis(make_node()).jet
    assert not is_member(M, (1, 0))


def test_contains_zero_always():
    for make in (make_node, make_cusp, make_tacnode):
        M = Analysis(make()).jet
        assert is_member(M, (0,) * M.r)


def test_conductor_cusp():
    assert conductor(make_cusp()) == (2,)


def test_conductor_node():
    assert conductor(make_node()) == (1, 1)


def test_conductor_tacnode():
    assert conductor(make_tacnode()) == (2, 2)


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
    assert conductor(curve) == expected


def test_minimal_generators_cusp():
    assert minimal_generators_r1(make_cusp()) == [2, 3]


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
    assert minimal_generators_r1(c) == [4, 6, 13]


def test_minimal_generators_smooth_branch():
    assert minimal_generators_r1(make_smooth_branch()) == [1]


def _box_2_3(top=8):
    M = Analysis(make_cusp()).jet
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
    box = members_box(a.jet, top)
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
        assert is_member(a.jet, v), v


def test_largest_gap_is_conductor_minus_one():
    for make in (make_cusp, make_quartic_branch):
        c = make()
        delta = conductor(c)[0]
        M = JetMatrix(c, (delta + 4,))
        gaps = [v for v in range(delta + 2) if not is_member(M, (v,))]
        if delta:
            assert max(gaps) == delta - 1
        else:
            assert not gaps
