import pytest

from curvealex.exactmath import iter_box, mp_mul, vec_add, vec_leq
from curvealex.filtration import (
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
from curvealex.resolution import en_alexander, resolve
from curvealex.semigroup import conductor

from corpus import (
    CORPUS_ALL,
    CORPUS_MULTI,
    make_cusp,
    make_node,
    make_tacnode,
    make_three_lines,
    semigroup_closure,
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


def test_fiber_dim_empty_subset_is_c_dim():
    M = JetMatrix(make_node(), (3, 3))
    for v in iter_box((0, 0), (2, 2)):
        assert fiber_dim(M, v, []) == c_dim(M, v)


def test_fiber_dim_node_singletons_and_pair():
    M = JetMatrix(make_node(), (3, 3))
    assert fiber_dim(M, (1, 1), [1]) == 1
    assert fiber_dim(M, (1, 1), [1, 2]) == 0


def test_fiber_euler_node():
    M = JetMatrix(make_node(), (3, 3))
    assert fiber_euler(M, (0, 0)) == 1
    assert fiber_euler(M, (1, 1)) == 0


def test_fiber_euler_three_lines_triple_point():
    M = JetMatrix(make_three_lines(), (4, 4, 4))
    assert fiber_euler(M, (1, 1, 1)) == -1


def test_fiber_series_node():
    assert fiber_series(make_node()) == {(0, 0): 1}


def test_fiber_series_tacnode():
    assert fiber_series(make_tacnode()) == {(0, 0): 1, (1, 1): 1}


def test_fiber_series_cusp_is_truncated_membership_series():
    members = semigroup_closure([2, 3], 12)
    assert fiber_series(make_cusp(), bound=12) == {(v,): 1 for v in members}


def test_pprime_node():
    assert pprime_poly(make_node()) == {(1, 1): 1, (0, 0): -1}


def test_pprime_tacnode():
    assert pprime_poly(make_tacnode()) == {(2, 2): 1, (0, 0): -1}


def test_pprime_cusp_telescopes_the_gap_indicator():
    # oracle: coefficient at v of (t - 1) * sum_{s in <2,3>} t^s is
    # [v-1 member] - [v member]
    members = semigroup_closure([2, 3], 10)
    expected = {}
    for v in range(4):
        coeff = (1 if v - 1 in members else 0) - (1 if v in members else 0)
        if coeff:
            expected[(v,)] = coeff
    assert pprime_poly(make_cusp()) == expected
    assert expected == {(0,): -1, (1,): 1, (2,): -1}


def test_poincare_node():
    assert poincare_poly(make_node()) == {(0, 0): 1}


def test_poincare_tacnode():
    assert poincare_poly(make_tacnode()) == {(0, 0): 1, (1, 1): 1}


def test_poincare_three_lines():
    assert poincare_poly(make_three_lines()) == {(0, 0, 0): 1, (1, 1, 1): -1}


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
    delta = conductor(c)
    small = JetMatrix(c, tuple(d + 2 for d in delta))
    large = JetMatrix(c, tuple(d + 4 for d in delta))
    for v in iter_box((0,) * c.r, delta):
        assert c_dim(small, v) == c_dim(large, v)


@pytest.mark.parametrize("name", sorted(CORPUS_ALL))
def test_fiber_product_identity_on_the_box(name):
    c = CORPUS_ALL[name]()
    r = c.r
    delta = conductor(c)
    bound = 2 * delta[0] + 2 if r == 1 else None
    fibers = fiber_series(c, bound=bound) if r == 1 else fiber_series(c)
    divisor = {(1,) * r: 1, (0,) * r: -1}
    product = mp_mul(fibers, divisor)
    box_top = tuple(d + 1 for d in delta)
    if r == 1:
        product = {e: v for e, v in product.items() if vec_leq(e, box_top)}
    assert product == pprime_poly(c)


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_poincare_equals_alexander(name):
    c = CORPUS_MULTI[name]()
    assert poincare_poly(c) == en_alexander(resolve(c))


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_fiber_series_equals_alexander(name):
    c = CORPUS_MULTI[name]()
    assert fiber_series(c) == en_alexander(resolve(c))


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_fiber_euler_vanishes_at_and_past_the_conductor(name):
    c = CORPUS_MULTI[name]()
    delta = conductor(c)
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
