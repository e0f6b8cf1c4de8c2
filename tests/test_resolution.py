import pytest

from curvealex import Curve
from curvealex.cli import printed_series
from curvealex.resolution import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GraphError,
    ResGraph,
    _run_blowups,
    chi_open,
    en_alexander,
    free_blowups,
    resolve,
)
from curvealex.filtration import Analysis, minimal_generators

from corpus import (
    CORPUS_ALL,
    CORPUS_MULTI,
    classify_graph,
    delgado_invariants,
    engine_outcome,
    germ_valuation,
    make_axes_and_cusp,
    make_cusp,
    make_cusp_tangent_line,
    make_four_lines,
    make_node,
    make_quartic_branch,
    make_rational_three_branches,
    make_smooth_branch,
    make_tacnode,
    make_tangent_cusps_duplicate,
    make_transverse_lines,
    make_wide_three_branches,
    noether_intersections,
    reference_blowups,
    reference_en_alexander,
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
    delta = en_alexander(resolve(make_cusp()))
    assert delta == {(0,): 1, (1,): -1, (2,): 1}
    assert printed_series(delta, 6) == {(v,): 1 for v in (0, 2, 3, 4, 5, 6)}


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


NOETHER_CURVES = dict(CORPUS_ALL, **{
    "four-lines": make_four_lines,
    "quartic": make_quartic_branch,
    "smooth": make_smooth_branch,
    "axes-and-cusp": make_axes_and_cusp,
    "rational": make_rational_three_branches,
})


@pytest.mark.parametrize("name", sorted(NOETHER_CURVES))
def test_conductor_and_delta_match_the_noether_table(name):
    # the one pass over the infinitely near points, c_i = sum m_i (m - 1)
    # and delta = sum m (m - 1) / 2, against the Noether table
    c = NOETHER_CURVES[name]()
    a = Analysis(c)
    assert (a.conductor, a.delta) == delgado_invariants(c)


def _a_k(k):
    return Curve([({2: 1}, {2 * k + 1: 1})])


def _pencil(n, k):
    # the n curves y = a x^k, a = 0..n-1: y = 0 and n - 1 more with
    # contact k with it and each other
    return Curve([({1: 1}, {k: a}) for a in range(n)])


ENGINE_FAMILIES = {
    "A_k": {"A%d" % k: _a_k(k) for k in range(1, 64)},
    "pencils": {"pencil-%d-contact-%d" % (n, k): _pencil(n, k)
                for n in range(2, 9) for k in range(1, 9)},
    "corpus": {name: make() for name, make in NOETHER_CURVES.items()},
    # the root splits, and a chain starts while a point that needs a
    # blow-up waits: ids stay breadth-first only if that chain is taken
    # step by step
    "splits": {**{"A%d-and-mirror" % k: Curve([({2: 1}, {2 * k + 1: 1}),
                                               ({2 * k + 1: 1}, {2: 1})])
                  for k in range(1, 9)},
               **{"pencil-3-contact-%d-and-cusp" % k: Curve(
                   _pencil(3, k).branches + [({3: 1}, {2: 1})])
                  for k in range(1, 9)}},
    "faults": {"fault-A63": _a_k(63),
               "fault-contact-70": Curve([({1: 1}, {}), ({1: 1}, {70: 1})]),
               "tangent-cusps-duplicate": make_tangent_cusps_duplicate(),
               "equal-branches": Curve([({1: 1}, {2: 1}),
                                        ({1: 1}, {2: 1})])},
}


def _engine_budgets(c):
    # every budget from 1 to one past the number of vertices the step loop
    # makes without a budget (to the default for coincident branches), so
    # budgets just below, at and above the end of every chain
    try:
        n = len(reference_blowups(c, 200)[0].vertices)
    except BudgetExceededError:
        n = DEFAULT_BUDGET
    return [*range(1, n + 2), DEFAULT_BUDGET]


@pytest.mark.parametrize("family", sorted(ENGINE_FAMILIES))
def test_chained_engine_matches_the_step_loop(family):
    for name, c in ENGINE_FAMILIES[family].items():
        for budget in _engine_budgets(c):
            assert (engine_outcome(_run_blowups, c, budget)
                    == engine_outcome(reference_blowups, c, budget)), (
                        name, budget)


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
    base = en_alexander(resolve(c))
    for extra in (1, 2, 3):
        g = free_blowups(resolve(c), extra)
        assert len(g.vertices) == len(resolve(c).vertices) + extra
        assert en_alexander(g) == base


# every corpus curve that resolves: the duplicate tangent cusps do not
EN_CURVES = dict(CORPUS_ALL, **{
    "axes-and-cusp": make_axes_and_cusp, "four-lines": make_four_lines,
    "six-lines": lambda: make_transverse_lines(6),
    "quartic": make_quartic_branch,
    "rational-three-branches": make_rational_three_branches,
    "smooth": make_smooth_branch,
    "wide-three-branches": make_wide_three_branches})


@pytest.mark.parametrize("name", sorted(EN_CURVES))
def test_netted_product_matches_the_list_order_reference(name):
    # each free blow-up adds one binomial to the numerator and one to the
    # denominator, or moves a dead end's binomial to the new vertex
    g = resolve(EN_CURVES[name]())
    for extra in range(7):
        h = free_blowups(g, extra)
        assert en_alexander(h) == reference_en_alexander(h)


def make_a62():
    """A_62 = (t^2, t^125), a chain of 62 blow-ups: generators 2 and 125."""
    return Curve([({2: 1}, {125: 1})])


def make_three_pairs():
    """(t^8, t^12 + t^14 + t^15): generators 8, 12, 26 and 53."""
    return Curve([({8: 1}, {12: 1, 14: 1, 15: 1})])


@pytest.mark.parametrize("make", [make_cusp, make_quartic_branch, make_a62,
                                  make_three_pairs])
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


@pytest.mark.parametrize("make,top", [(make_cusp, 6),
                                      (make_quartic_branch, 34),
                                      (make_smooth_branch, 2)])
def test_one_branch_series_stops_at_twice_the_conductor_plus_two(make, top):
    c = make()
    assert 2 * Analysis(c).conductor[0] + 2 == top
    delta = en_alexander(resolve(c))
    # Delta has the conductor as its degree
    assert max(delta) == ((top - 2) // 2,)
    series = printed_series(delta)
    assert max(series) == (top,)
    assert series == printed_series(delta, top)
