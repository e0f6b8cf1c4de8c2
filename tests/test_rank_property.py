"""Property tests of the jet columns against the per-monomial jets, of
the prefix-rank table against per-point elimination (with up to three
levels of the sweep above its slab) and of its slab of the last two axes
against elimination on planted blocks, of the echelon basis that adding
sparse columns one by one keeps on large cancelling entries, of the
difference sweeps against the per-point alternating sums, of the packed
reads of chi, P' and membership against the list reads on random monotone
tables, of the membership pass against per-point membership and, for r >= 2, against
the value-semigroup properties read from resolution graphs, of the
conductor rule of one-branch analyses
against a wide window and their Poincare series against the
Eisenbud-Neumann product, of the one-pass conductor and delta against the
Noether table, of the analysis's honest table, extended by the rule,
against an honest sweep and its read of P' against the reference read of
that extension, of every verify check, the symmetry of Delta and
the Torres formula on random curves, of the chained blow-up engine against
the step-by-step one and of its one-normalisation division against the
s-fold products and a second normalisation for the direction constant,
and of every invariant against a rescaling of the coordinates."""

from array import array
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
from curvealex.exactmath import iter_box, up_mul, vec_add  # noqa: E402
from curvealex.filtration import (  # noqa: E402
    _add_column,
    _primitive,
    _reduced,
    _slab,
    chi_chain,
    listed,
    members,
    minimal_generators,
    pprime_coefficients,
)
from curvealex.resolution import RatFunc, _power, _run_blowups  # noqa: E402

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
    list_chi,
    list_members,
    list_pprime,
    make_rational_three_branches,
    noether_intersections,
    reference_blowups,
    reference_columns,
    reference_div,
    reference_monomials,
    reference_pprime,
    reference_ranks,
    reference_sub_const,
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
    assert M.columns == reference_columns(M)
    assert all(type(x) is int for col in M.columns for x in col.values())


@settings(max_examples=100, deadline=None)
@given(jet_matrices(), st.data())
def test_rank_table_matches_per_point_elimination(M, data):
    reference = reference_ranks(M)
    ranks, rank = M.sweep(M.window)
    assert list(ranks) == reference
    assert rank == ranks[-1]
    # a smaller box reads the same ranks and completes the same rank
    box = tuple(data.draw(st.integers(0, w)) for w in M.window)
    table, total = M.sweep(box)
    assert (list(table), total) == (sub_box(reference, M.window, box), rank)


SMALL = st.integers(-2, 2)


def _sparse(vec) -> dict:
    """The nonzero entries of an integer list, keyed by their index."""
    return {k: x for k, x in enumerate(vec) if x}


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
    n = max(map(len, B + F + G + H), default=0)
    basis = []
    for col in B:
        _add_column(basis, _sparse(col))
    # the sweep hands the slab its columns reduced against the basis
    reduced = [[_reduced(_sparse(col), basis) for col in x] for x in (F, G)]
    ranks = array("H")
    _slab(ranks, basis, *reduced, n)
    assert list(ranks) == [_rank(B + F[:j] + G[:k])
                     for j in range(len(F) + 1) for k in range(len(G) + 1)]
    assert len(basis) == _rank(B + F + G)
    for col in H:
        _add_column(basis, _sparse(col))
    assert len(basis) == _rank(B + F + G + H)


BIG = st.integers(-10 ** 6, 10 ** 6)


@st.composite
def cancelling_columns(draw):
    """Integer columns of one length n, entries of a fresh one up to 10^6
    in size.  Each is drawn fresh (at most three nonzero entries, as in a
    jet matrix, where a column is mostly zeros), as a large multiple
    of a fresh or an earlier one, planted in the span of the earlier ones
    with large coefficients, or planted and then moved by one at one entry,
    so most reduction steps cancel large entries and leave a large
    content."""
    n = draw(st.integers(1, 8))

    def fresh():
        support = draw(st.sets(st.integers(0, n - 1), max_size=3))
        return [draw(BIG.filter(bool)) if k in support else 0
                for k in range(n)]

    columns = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["fresh", "multiple", "planted", "near"]))
        if kind == "fresh" or not columns:
            col = fresh()
        elif kind == "multiple":
            base = draw(st.sampled_from(columns + [fresh()]))
            k = draw(BIG.filter(bool))
            col = [k * x for x in base]
        else:
            coeffs = [draw(BIG) for _ in columns]
            col = [sum(a * x for a, x in zip(coeffs, row))
                   for row in zip(*columns)]
            if kind == "near":
                col[draw(st.integers(0, n - 1))] += 1
        columns.append(col)
    return columns


# two columns of determinant -1 with entries near 10^6, a combination of
# them that cancels to zero, and a multiple of the first by 10^6
@example([[10 ** 6, 10 ** 6 - 1, 0], [10 ** 6 - 1, 10 ** 6 - 2, 0],
          [3 * 10 ** 6 - 2, 3 * 10 ** 6 - 5, 0],
          [10 ** 12, 10 ** 12 - 10 ** 6, 0]])
# a step that clears the pivot 0 and brings in row 2 below the row 5 the
# column held: the new pivot is the least key, not the first one stored
@example([[1, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 1]])
@settings(max_examples=300, deadline=None)
@given(cancelling_columns())
def test_add_column_keeps_a_primitive_echelon_basis(columns):
    # adding the columns one by one gives the rank of every prefix, and
    # every basis vector stores no zero, is primitive, leads at its pivot
    # (its least key) and vanishes at every earlier pivot; the columns come
    # primitive, as a jet matrix hands them over
    basis = []
    for k, col in enumerate(columns, 1):
        column = _primitive(_sparse(col))
        before = dict(column)
        _add_column(basis, column)
        assert column == before  # the column itself is not reduced
        assert len(basis) == _rank(columns[:k])
        for i, (p, vec) in enumerate(basis):
            assert vec and 0 not in vec.values()
            assert gcd(*vec.values()) == 1
            assert p == min(vec)
            assert not any(q in vec for q, _ in basis[:i])


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
@given(jet_matrices())
def test_chi_read_matches_the_rule_free_sweeps_on_any_window(M):
    # chi_chain on the box W - 1 of any window, below its top faces (the
    # faces its sweeps fill by the conductor rule, which fibers --window
    # cuts), equals the difference sweeps of the same table with no rule;
    # that pins the sign of the first axis's sweep
    box = tuple(w - 1 for w in M.window)
    ranks = M.sweep(box)[0]
    assert sub_box(listed(chi_chain(ranks, box), box), box,
                   tuple(w - 2 for w in M.window)) == fiber_eulers(ranks, box)


@st.composite
def monotone_tables(draw):
    """A table on a random box [0, top], r <= 5, each of whose steps along
    an axis rises by 0 or 1, as a rank table's do: the max over a few
    groups of the min over each group's ramps, a ramp being
    base + sum_i min(max(v_i - low_i, 0), length_i) (min and max keep such
    steps); half of them shifted so that their largest entry is 2^15 - 1,
    the largest rank the packed reads take."""
    r = draw(st.integers(1, 5))
    top = tuple(draw(st.integers(0, {1: 9, 2: 6, 3: 4}.get(r, 2)))
                for _ in range(r))
    ramp = st.tuples(st.integers(0, 3), st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        min_size=r, max_size=r))
    groups = draw(st.lists(st.lists(ramp, min_size=1, max_size=3),
                           min_size=1, max_size=3))
    table = [max(min(base + sum(min(max(x - low, 0), length)
                                for x, (low, length) in zip(v, axes))
                     for base, axes in group) for group in groups)
             for v in iter_box((0,) * r, top)]
    if draw(st.booleans()):
        table = [x + 2 ** 15 - 1 - max(table) for x in table]
    return table, top


def _weight_table(r, halves, high):
    """On {0, 1}^r, floor((|v| + halves) / 2), plus ``high``: the steps rise
    at every other weight, which makes the alternating sums of the reads
    as large as 2^(r - 2)."""
    return [(sum(v) + halves) // 2 + high
            for v in iter_box((0,) * r, (1,) * r)], (1,) * r


@settings(max_examples=200, deadline=None)
@given(monotone_tables())
@example(_weight_table(14, 0, 0))
@example(_weight_table(14, 1, 2 ** 15 - 8))
@example(([2 ** 15 - 7 + max(x, y) for x, y in iter_box((0, 0), (6, 6))],
          (6, 6)))
def test_packed_reads_match_the_list_reads(drawn):
    # chi, P' and membership, packed for r > 1 in 16-bit slots biased by
    # 2^15, equal the list reads they replace, entry by entry, up to ranks
    # of 2^15 - 1 and on r = 14 axes, where |P'| reaches 2^12
    table, top = drawn
    chi = list_chi(table, top)
    assert listed(chi_chain(table, top), top) == chi
    assert listed(pprime_coefficients(chi_chain(table, top), table, top),
                  top) == list_pprime(chi, table, top)
    assert members(table, top) == list_members(table, top)


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
    assert filled(a).ranks == list(ranks)
    assert a.jet.sweep(a.conductor)[1] == rank == ranks[-1]


@settings(max_examples=50, deadline=None)
@given(st.lists(BRANCHES.filter(_not_an_axis_cover), min_size=1, max_size=3))
def test_pprime_read_matches_the_rule_extended_reference(branches):
    # P', the lower chain of the honest table on [0, c] less chi (each
    # sweep's last slice filled by the conductor rule), equals the
    # reference read of the table the rule extends to [0, c + 1]
    c = Curve(branches)
    try:
        a = Analysis(c)
    except BudgetExceededError:
        # coincident branches, or a map of degree > 1 onto its image
        assume(False)
    assume(prod(x + 3 for x in a.conductor) <= 4000)
    top = vec_add(a.conductor, (1,) * c.r)
    assert listed(pprime_coefficients(a.chi_table, a.ranks, a.conductor),
                  a.conductor) == reference_pprime(
        rule_extended(a.ranks, a.conductor, top), top)


@settings(max_examples=50, deadline=None)
@given(st.lists(BRANCHES.filter(_not_an_axis_cover), min_size=1, max_size=3),
       st.data())
def test_members_in_lists_every_value_read_at_min_v_c(branches, data):
    # a top cut below c on some axes and past c + 2 on others: the values
    # the analysis lists are the points its table reads at min(v, c)
    c = Curve(branches)
    try:
        a = Analysis(c)
    except BudgetExceededError:
        # coincident branches, or a map of degree > 1 onto its image
        assume(False)
    assume(prod(x + 6 for x in a.conductor) <= 20000)
    top = data.draw(st.tuples(*(st.integers(-1, x + 5)
                                for x in a.conductor)))
    assert a.members_in(top) == [v for v in iter_box((0,) * c.r, top)
                                 if is_member(a, v)]


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
@given(st.lists(BRANCHES.filter(_not_an_axis_cover), min_size=1, max_size=3),
       st.integers(1, 66))
def test_chained_engine_matches_the_step_loop_on_random_curves(branches,
                                                               budget):
    c = Curve(branches)
    assert (engine_outcome(_run_blowups, c, budget)
            == engine_outcome(reference_blowups, c, budget))


NONZERO = st.integers(-9, 9).filter(bool)
INT_POLYS = st.dictionaries(st.integers(0, 3), NONZERO, max_size=3)


def _shifted(p, k):
    return {e + k: x for e, x in p.items()}


# integer polynomials with a nonzero constant term
UNITS = st.builds(lambda d0, rest: {0: d0, **_shifted(rest, 1)},
                  NONZERO, INT_POLYS)


@st.composite
def quotients(draw):
    """f, g of order >= 1 and s from 1 to 70 with f/g^s a germ (or, in one
    draw of eight, with a pole at tau = 0), and a constant c: 0, an int or
    p/q."""
    g = RatFunc(_shifted(draw(INT_POLYS.filter(bool)), 1), draw(UNITS))
    s = draw(st.integers(1, 70))
    pole = draw(st.sampled_from([0] * 7 + [1]))
    f = RatFunc(_shifted(draw(INT_POLYS), s * g.ord - pole), draw(UNITS))
    c = draw(st.one_of(st.just(0), NONZERO,
                       st.builds(Fraction, NONZERO, st.integers(2, 9))))
    return f, g, s, c


def _outcome(quotient):
    try:
        q = quotient()
    except Exception as exc:  # any failure must be the reference's too
        return type(exc), str(exc)
    return q.num, q.den


@settings(max_examples=150, deadline=None)
@given(quotients())
def test_one_normalisation_division_matches_the_s_fold_reference(args):
    f, g, s, c = args
    assert (_outcome(lambda: f.div(g, s, c))
            == _outcome(lambda: reference_sub_const(reference_div(f, g, s),
                                                    c)))


@settings(max_examples=150, deadline=None)
@given(INT_POLYS.filter(bool), st.integers(1, 70))
def test_power_is_the_s_fold_product(p, s):
    product = p
    for _ in range(s - 1):
        product = up_mul(product, p)
    assert _power(p, s) == product


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
