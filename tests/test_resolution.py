import pytest

from curvealex import Curve
from curvealex.resolution import (
    BudgetExceededError,
    GraphError,
    ResGraph,
    chi_open,
    classify_graph,
    en_alexander,
    graph_conductor_r1,
    noether_intersections,
    resolve,
)
from curvealex.filtration import Analysis
from curvealex.semigroup import minimal_generators

from corpus import (
    CORPUS_ALL,
    CORPUS_MULTI,
    germ_valuation,
    make_cusp,
    make_cusp_tangent_line,
    make_node,
    make_quartic_branch,
    make_tacnode,
    make_tangent_cusps_duplicate,
)


def test_resolve_node_single_vertex():
    g = resolve(make_node())
    assert g.vertices == {1: (1, 1)}
    assert g.edges == set()
    assert sorted(b for _, b in g.arrows) == [1, 2]
    assert all(v == 1 for v, _ in g.arrows)


def test_resolve_cusp_three_vertices():
    g = resolve(make_cusp())
    assert g.vertices == {1: (2,), 2: (3,), 3: (6,)}
    assert g.edges == {(1, 3), (2, 3)}
    assert g.arrows == [(3, 1)]


def test_resolve_tacnode():
    g = resolve(make_tacnode())
    assert g.vertices == {1: (1, 1), 2: (2, 2)}
    assert g.edges == {(1, 2)}
    assert g.arrows == [(2, 1), (2, 2)]


def test_chi_open_node_vertex_is_zero():
    g = resolve(make_node())
    assert chi_open(g, 1) == 0


def test_chi_open_cusp_central_vertex():
    g = resolve(make_cusp())
    assert chi_open(g, 3) == -1


def test_chi_open_isolated_vertex():
    g = ResGraph(r=1, vertices={1: (1,)}, edges=set(), arrows=[], root=1)
    assert chi_open(g, 1) == 2


def test_chi_open_unknown_id():
    g = resolve(make_node())
    with pytest.raises(GraphError):
        chi_open(g, 99)


def test_classify_cusp_dead_ends():
    g = resolve(make_cusp())
    vc = classify_graph(g)
    assert vc.dead_ends == frozenset({1, 2})
    assert vc.separation_points == {}


def test_classify_tacnode_separation_point():
    g = resolve(make_tacnode())
    vc = classify_graph(g)
    assert vc.separation_points == {(1, 2): 2}
    assert 2 in vc.star_points  # st_1 always counts as a star vertex


def test_classify_node_separation_is_root():
    g = resolve(make_node())
    vc = classify_graph(g)
    assert vc.separation_points == {(1, 2): 1}


def test_en_alexander_node_is_one():
    assert en_alexander(resolve(make_node())) == {(0, 0): 1}


def test_en_alexander_tacnode():
    assert en_alexander(resolve(make_tacnode())) == {(0, 0): 1, (1, 1): 1}


def test_en_alexander_cusp_series_bound_6():
    got = en_alexander(resolve(make_cusp()), bound=6)
    assert got == {(v,): 1 for v in (0, 2, 3, 4, 5, 6)}


def test_noether_node():
    assert noether_intersections(make_node()) == [[None, 1], [1, None]]


def test_noether_tacnode():
    assert noether_intersections(make_tacnode()) == [[None, 2], [2, None]]


def test_noether_cusp_with_tangent_line_matches_valuation():
    c = make_cusp_tangent_line()
    # oracle: the line is {y = 0}, so (C1.C2) is the valuation of y on the
    # cusp branch
    v, _ = germ_valuation({(0, 1): 1}, c.branches[0])
    table = noether_intersections(c)
    assert table[0][1] == table[1][0] == v == 3


def test_duplicate_branches_exceed_budget():
    with pytest.raises(BudgetExceededError):
        resolve(make_tangent_cusps_duplicate())


def test_literally_equal_branches_exceed_budget():
    with pytest.raises(BudgetExceededError):
        resolve(Curve([({1: 1}, {2: 1}), ({1: 1}, {2: 1})]))


@pytest.mark.parametrize("name", sorted(CORPUS_ALL))
def test_euler_bookkeeping_identity(name):
    g = resolve(CORPUS_ALL[name]())
    n_edges = len(g.edges)
    n_arrows = len(g.arrows)
    lhs = sum(chi_open(g, v) for v in g.vertices) + n_arrows + n_edges
    rhs = 2 * len(g.vertices) - n_edges
    assert lhs == rhs


@pytest.mark.parametrize("name", sorted(CORPUS_MULTI))
def test_en_alexander_constant_term_is_one(name):
    poly = en_alexander(resolve(CORPUS_MULTI[name]()))
    r = CORPUS_MULTI[name]().r
    assert poly[(0,) * r] == 1


@pytest.mark.parametrize("name", sorted(CORPUS_ALL))
def test_resolution_invariance_under_extra_blowups(name):
    c = CORPUS_ALL[name]()
    bound = 20 if c.r == 1 else None
    base = en_alexander(resolve(c), bound=bound)
    for extra in (1, 2, 3):
        g = resolve(c, extra=extra)
        assert len(g.vertices) == len(resolve(c).vertices) + extra
        assert en_alexander(g, bound=bound) == base


@pytest.mark.parametrize("make", [make_cusp, make_quartic_branch])
def test_dead_end_multiplicities_are_the_minimal_generators(make):
    c = make()
    g = resolve(c)
    vc = classify_graph(g)
    dead_multiplicities = sorted(g.vertices[d][0] for d in vc.dead_ends)
    assert dead_multiplicities == minimal_generators(Analysis(c))


@pytest.mark.parametrize("name", sorted(CORPUS_ALL))
def test_star_multiplicity_is_a_multiple_of_its_dead_end(name):
    g = resolve(CORPUS_ALL[name]())
    vc = classify_graph(g)
    for d in vc.dead_ends:
        st = vc.nearest_star_below(d)
        if st is None:
            continue
        m_star, m_dead = g.vertices[st], g.vertices[d]
        quotients = {a // b for a, b in zip(m_star, m_dead)}
        assert all(a % b == 0 for a, b in zip(m_star, m_dead))
        assert len(quotients) == 1
        assert quotients.pop() >= 2


def test_all_multiplicities_positive_everywhere():
    for name, make in CORPUS_ALL.items():
        g = resolve(make())
        assert all(x >= 1 for m in g.vertices.values() for x in m), name


def test_graph_conductor_r1_matches_semigroup():
    assert graph_conductor_r1(resolve(make_cusp())) == 2
    assert graph_conductor_r1(resolve(make_quartic_branch())) == 16
