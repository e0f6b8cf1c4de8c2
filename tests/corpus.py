"""Shared test curves, the per-point references the tests check the
library's whole-table reads against, the graph file's JSON object and
the per-point one-branch series behind the CLI's writers, the generic
polynomial product and long division behind its one-pass binomial ones
and the list-order Eisenbud-Neumann product behind its netted one,
the free blow-ups that must leave that product unchanged, the
step-by-step blow-up engine on s-fold products behind its chained one on
powers, the one-column-per-point rank sweep on dense integer lists
behind the slab sweep on sparse columns, the list reads of chi, P' and
membership behind the packed ones, the structure checks of the
resolution graph and of a branch's semigroup, the value-semigroup
properties that membership must keep for r >= 2, and the Torres and
symmetry oracles on Delta.

Every curve with r > 1 used by the identity checks, plus the one-branch
curves used by the semigroup checks.  ``TANGENT_CUSPS_DUPLICATE`` is kept
separately: (tau^2, -tau^3) parametrizes the same cuspidal cubic as
(tau^2, tau^3) (substitute tau -> -tau), so that pair is a non-reduced input
which the resolver must reject.  ``TANGENT_CUSPS`` is the honest pair of
distinct tangent cusps y^2 = x^3 and y^2 = -x^3.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, islice, takewhile
from math import gcd, lcm, prod
from operator import and_, lt, sub
from typing import NamedTuple

from curvealex import Curve, ResGraph
from curvealex.cli import _read_json, graph_from_json
from curvealex.curve import validate_curve
from curvealex.exactmath import (
    INF,
    ExpVec,
    MultiPoly,
    NotDivisibleError,
    _check_rank,
    iter_box,
    ord_lead,
    up_mul,
    vec_add,
)
from curvealex.filtration import Analysis
from curvealex.resolution import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GraphError,
    RatFunc,
    _direction,
    _run_blowups,
    chi_open,
    en_alexander,
    resolve,
)


def make_node():
    return Curve([({1: 1}, {}), ({}, {1: 1})])


def make_cusp():
    return Curve([({2: 1}, {3: 1})])


def make_tacnode():
    return Curve([({1: 1}, {}), ({1: 1}, {2: 1})])


def make_three_lines():
    return Curve([({1: 1}, {}), ({}, {1: 1}), ({1: 1}, {1: 1})])


def make_four_lines():
    return Curve([({1: 1}, {}), ({}, {1: 1}), ({1: 1}, {1: 1}),
                  ({1: 1}, {1: -1})])


def make_cusp_tangent_line():
    return Curve([({2: 1}, {3: 1}), ({1: 1}, {})])


def make_cusp_transverse_line():
    return Curve([({2: 1}, {3: 1}), ({}, {1: 1})])


def make_tangent_cusps():
    return Curve([({2: 1}, {3: 1}), ({2: -1}, {3: 1})])


def make_tangent_cusps_duplicate():
    return Curve([({2: 1}, {3: 1}), ({2: 1}, {3: -1})])


def make_quartic_branch():
    return Curve([({4: 1}, {6: 1, 7: 1})])


def make_smooth_branch():
    return Curve([({1: 1}, {})])


def make_axes_and_cusp():
    return Curve([({1: 1}, {}), ({}, {1: 1}), ({2: 1}, {3: 1})])


def make_rational_three_branches():
    """A cusp, the line tangent to it and a transverse line, with p/q
    coefficients in every branch; the tangent directions (3/4, 1/2) and
    (1/2, 1/3) agree only once the denominators are taken into account."""
    q = Fraction
    return Curve([({2: q(3, 4)}, {2: q(1, 2), 3: q(1, 5)}),
                  ({1: q(1, 2)}, {1: q(1, 3)}),
                  ({1: q(1, 3)}, {1: q(-2, 5)})])


def make_transverse_lines(k):
    """k >= 2 pairwise transverse lines: y = a x for a = 0 ... k - 2, and
    x = 0."""
    return Curve([({1: 1}, {1: a} if a else {}) for a in range(k - 1)]
                 + [({}, {1: 1})])


def make_wide_three_branches():
    """Three branches of degree <= 6 with conductor (50, 20, 40): 66 jet
    rows, but 43,911 points in the analysis's table on [0, c]."""
    q = Fraction
    return Curve([({5: 1}, {5: -1, 6: q(-3, 4)}),
                  ({2: q(2, 3), 4: 1, 5: -1}, {3: q(2, 3), 4: 1, 6: q(-2, 3)}),
                  ({4: q(-3, 4), 5: q(-3, 2), 6: q(-1, 3)},
                   {4: 1, 5: 1, 6: 1})])


# name -> factory, every multi-branch curve the exact identities run on
CORPUS_MULTI = {
    "node": make_node,
    "tacnode": make_tacnode,
    "three-lines": make_three_lines,
    "cusp-tangent-line": make_cusp_tangent_line,
    "cusp-transverse-line": make_cusp_transverse_line,
    "tangent-cusps": make_tangent_cusps,
}

CORPUS_ALL = dict(CORPUS_MULTI, cusp=make_cusp)


def semigroup_closure(gens, bound):
    """All sums of the generators up to bound (the enumeration oracle)."""
    reached = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for g in gens:
            u = v + g
            if u <= bound and u not in reached:
                reached.add(u)
                frontier.append(u)
    return reached


def parse_graph_file(path) -> ResGraph:
    return graph_from_json(_read_json(path))


def graph_to_json(g: ResGraph) -> dict:
    """The JSON object of a graph file, as ``cli.graph_from_json`` reads
    it; ``json.dumps(indent=2, sort_keys=True)`` of it is the reference for
    ``cli.graph_text``."""
    return {
        "r": g.r,
        "vertices": [{"id": vid, "m": list(g.vertices[vid])}
                     for vid in sorted(g.vertices)],
        "edges": [list(e) for e in sorted(g.edges)],
        "arrows": [{"vertex": v, "branch": b} for v, b in g.arrows],
        "root": g.root,
    }


def reference_printed_series(delta: MultiPoly, bound=None) -> MultiPoly:
    """``cli.printed_series`` point by point: for r = 1 the prefix sums of
    Delta on [0, bound] (default 2 deg Delta + 2), each coefficient looked
    up by its exponent tuple."""
    if len(next(iter(delta))) > 1:
        return delta
    top = 2 * max(delta)[0] + 2 if bound is None else bound
    sums = accumulate(delta.get((v,), 0) for v in range(top + 1))
    return {(v,): x for v, x in enumerate(sums) if x}


def curve_to_json(c, name=None) -> dict:
    """The curve-file JSON of a curve, as ``cli.curve_from_json`` reads
    it."""
    data = {"branches": [
        {"x": [[e, str(v)] for e, v in sorted(b.x.items())],
         "y": [[e, str(v)] for e, v in sorted(b.y.items())]}
        for b in c.branches]}
    if name:
        data["name"] = name
    return data


def germ_valuation(g, branch):
    """Order and leading coefficient of g(x(tau), y(tau)).

    ``g`` maps exponent pairs (a, b) to rational coefficients.  The
    substitution is exact (both inputs are polynomials); a germ vanishing
    identically on the branch yields ``(INF, None)``.
    """
    amax = max((a for a, _ in g), default=0)
    bmax = max((b for _, b in g), default=0)
    xpow = _power_table(branch.x, amax)
    ypow = _power_table(branch.y, bmax)
    total = {}
    for (a, b), coef in g.items():
        coef = Fraction(coef)
        if not coef:
            continue
        term = up_scale(up_mul(xpow[a], ypow[b]), coef)
        for e, v in term.items():
            s = total.get(e, 0) + v
            if s:
                total[e] = s
            else:
                total.pop(e, None)
    return ord_lead(total)


def up_scale(p, c):
    """c * p for a rational c."""
    c = Fraction(c)
    if not c:
        return {}
    return {e: c * v for e, v in p.items()}


def _power_table(p, kmax):
    table = [{0: Fraction(1)}]
    for _ in range(kmax):
        table.append(up_mul(table[-1], p))
    return table


def _scaled_order(k, o):
    """k * o with the convention 0 * INF == 0 (absent factor contributes 0)."""
    if k == 0:
        return 0
    return k * o


def monomial_order(c, a, b):
    """Valuation vector of the monomial x^a y^b: component i is
    a*ord(x_i) + b*ord(y_i), with an absent coordinate (order INF)
    contributing nothing when its power is zero."""
    out = []
    for br in c.branches:
        oa = _scaled_order(a, ord_lead(br.x)[0])
        ob = _scaled_order(b, ord_lead(br.y)[0])
        out.append(oa + ob if oa != INF and ob != INF else INF)
    return tuple(out)


def monomial_jet(c, a, b, w):
    """Jet coordinates of x^a y^b over the window w (scaled by
    ``reference_rows`` into the rows whose columns ``reference_columns``
    reads).

    For each branch i (in order) and each 0 <= k < w_i, the coefficient of
    tau^k in x_i(tau)^a * y_i(tau)^b, read from the untruncated product.
    Coordinates are branch-major.
    """
    out = []
    for br, wi in zip(c.branches, w):
        p = up_mul(_power(br, "x", a), _power(br, "y", b))
        out.extend(p.get(k, 0) for k in range(wi))
    return out


@lru_cache(maxsize=1024)
def _power(branch, coord, k) -> dict:
    """The untruncated k-th power of the branch's coordinate ``coord``
    ("x" or "y"), one product on the (cached) power before it."""
    if not k:
        return {0: Fraction(1)}
    return up_mul(_power(branch, coord, k - 1), getattr(branch, coord))


def reference_rows(M):
    """Dx^a Dy^b times the jet of x^a y^b over the window, for every (a, b)
    in ``M.monomials``, where Dx and Dy are the least common denominators
    of the x and of the y coefficients over all branches of the curve."""
    dx = lcm(*(v.denominator for b in M.curve.branches for v in b.x.values()))
    dy = lcm(*(v.denominator for b in M.curve.branches for v in b.y.values()))
    rows = []
    for a, b in M.monomials:
        scale = dx ** a * dy ** b
        rows.append([scale * x for x in monomial_jet(M.curve, a, b, M.window)])
    return rows


def reference_columns(M, box):
    """The columns (i, k), k < box_i, of ``reference_rows(M)``, in
    branch-major order, divided by their content, as dicts {row: value} of
    their nonzero entries (the oracle for the columns that ``M.sweep(box)``
    builds, ``filtration._columns``).  A column with a non-integral entry
    is left as it is, so it matches no integer column."""
    columns, out = list(zip(*reference_rows(M))), []
    for start, n in zip(accumulate(M.window, initial=0), box):
        for col in columns[start:start + n]:
            col = [Fraction(x) for x in col]
            g = 1
            if all(x.denominator == 1 for x in col):
                g = gcd(*(x.numerator for x in col)) or 1
            out.append({k: x / g for k, x in enumerate(col) if x})
    return out


def dense(M) -> list:
    """The columns of ``reference_rows(M)``, one entry per monomial, as
    integer lists: the matrix whose ranks every table of M reads, whether
    M keeps it as columns (r > 1) or as rows (one branch)."""
    columns = [[Fraction(x) for x in col] for col in zip(*reference_rows(M))]
    assert all(x.denominator == 1 for col in columns for x in col)
    return [[x.numerator for x in col] for col in columns]


def reference_monomials(M):
    """The (a, b) with a*ord(x_i) + b*ord(y_i) below w_i on some branch i,
    in lexicographic order (the oracle for ``M.monomials``)."""
    top = max(M.window)  # every order is at least 1
    return [(a, b) for a in range(top) for b in range(top)
            if any(o < w for o, w in
                   zip(monomial_order(M.curve, a, b), M.window))]


def reference_visible_rows(curve, window) -> int:
    """The rows of the jet matrix at the window, one pass per exponent a of
    x: for each a, max_i ceil((w_i - a ord x_i) / ord y_i) visible b, an
    order past w_i counting as w_i (the oracle for ``visible_rows``)."""
    orders = [(min(ord_lead(br.x)[0], w), min(ord_lead(br.y)[0], w), w)
              for br, w in zip(curve.branches, window)]
    return sum(takewhile(lambda n: n > 0, (
        max(-((a * x - w) // y) for x, y, w in orders) for a in count())))


def reference_rank(M, v) -> int:
    """The rank of the columns of M below v, by Gaussian elimination over
    the rationals on their dense lists (taken as rows; the rank is the
    same)."""
    return _rank_below(dense(M), M.window, v)


def reference_ranks(M):
    """``reference_rank`` at every v of the window box, in lexicographic
    order (the oracle for the tables of ``M.sweep`` and ``Analysis``)."""
    columns = dense(M)
    return [_rank_below(columns, M.window, v)
            for v in iter_box((0,) * len(M.window), M.window)]


def _rank_below(columns, window, v) -> int:
    """The rank of the dense columns below v, each branch ``window`` long
    in branch-major order."""
    offsets = accumulate(window, initial=0)
    return _rank([columns[o + k] for o, vi in zip(offsets, v)
                  for k in range(vi)])


def _rank(mat) -> int:
    rows = [list(r) for r in mat if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for idx in range(rank, len(rows)):
            if rows[idx][col]:
                pivot = idx
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        pval = prow[col]
        for idx in range(rank + 1, len(rows)):
            f = rows[idx][col]
            if f:
                ratio = Fraction(f) / pval
                rows[idx] = [a - ratio * b if b else a
                             for a, b in zip(rows[idx], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def unit_vec(r, members):
    """Indicator vector of a subset of branch indices 1..r."""
    chosen = set(members)
    return tuple(1 if i + 1 in chosen else 0 for i in range(r))


class Table(NamedTuple):
    """A prefix-rank table on the whole box [0, window], in lexicographic
    order, and its window: what ``fiber_eulers(*table)`` and the other
    whole-table reads take.  The per-point references below read a table,
    or a jet matrix through ``honest``."""

    ranks: list
    window: tuple


def _along(values, shape, i, f) -> list:
    """The table rebuilt along axis i: f(block, step) maps each block of
    values that share their coordinates before i (``shape[i]`` slices of
    ``step`` values, one per coordinate i) to its new block."""
    step = prod(shape[i + 1:])
    block = shape[i] * step
    if block == len(values):
        return f(values, step)  # one block: no copies
    out = []
    for k in range(0, len(values), block):
        out += f(values[k:k + block], step)
    return out


@lru_cache(maxsize=8)
def honest(M) -> Table:
    """The table of the jet matrix M, swept on its whole window."""
    return Table(M.sweep(M.window)[0], M.window)


def rule_extended(ranks, c, top) -> list:
    """The rank table h(min(v, c)) + sum_i max(v_i - c_i, 0) on [0, top],
    from a table h on [0, c]: the conductor rule, which every honest rank
    of a certified analysis keeps up to its window c + 2.  Along each axis
    the slices up to min(top_i, c_i) are kept and the slice at c_i repeats
    past it, rising by one per step."""
    shape, ranks = [x + 1 for x in c], list(ranks)
    for i in reversed(range(len(c))):
        keep = min(top[i], c[i]) + 1
        steps = range(1, top[i] - c[i] + 1)
        ranks = _along(ranks, shape, i, lambda b, s: b[:keep * s] + [
            x + d for d in steps for x in b[-s:]])
        shape[i] = top[i] + 1
    return ranks


def filled(a) -> Table:
    """The table of an analysis on its whole window c + 2: ``a.ranks``,
    the honest sweep on [0, c], extended by the conductor rule."""
    return Table(rule_extended(a.ranks, a.conductor, a.jet.window),
                 a.jet.window)


def _differences(values, shape) -> list:
    """g(v) = sum over the subsets I of the branches of (-1)^|I| f(v + 1_I),
    for a table f of ``shape``; g comes back on the box one point shorter
    on every axis.  r sweeps, the i-th taking f(v) - f(v + e_i)."""
    for i, n in enumerate(shape):
        values = _along(values, shape, i,
                        lambda b, s: list(map(sub, b, islice(b, s, None))))
        shape = shape[:i] + (n - 1,) + shape[i + 1:]
    return values


def fiber_eulers(ranks, window) -> list:
    """The Euler characteristic of the projectivized fiber over every point
    v of [0, window - 1], from a rank table on the whole box [0, window],
    whatever its window and with no rule: minus the difference sweeps of
    the table (b = window rank - ranks, and the window rank cancels)."""
    return [-x for x in _differences(ranks, tuple(w + 1 for w in window))]


def reference_pprime(ranks, window) -> list:
    """The alternating sum of c(v - 1 + 1_I) over the subsets I of the
    branches at every point v of [0, window - 1], from a rank table on the
    whole box [0, window], whatever its window: difference sweeps over the
    table c(u) = ranks[u + 1] - ranks[max(u, 0)] on [-1, window - 1]
    (c(u) = dim J(u)/J(u + 1), where a condition u_i < 0 is vacuous)."""
    shape = tuple(w + 1 for w in window)
    # in lexicographic order of u, u + 1 runs over [0, window], and
    # max(u, 0) over the axes 0, 0, 1, ..., w - 1: each axis repeats its
    # first slice and drops its last
    lower = ranks
    for i in range(len(window)):
        lower = _along(lower, shape, i, lambda b, s: b[:s] + b[:-s])
    return _differences([x - y for x, y in zip(ranks, lower)], shape)


def list_chi(ranks, top) -> list:
    """chi on [0, top] from a rank table on [0, top], as a list, by r
    difference sweeps of the list, each filling its last slice by the
    conductor rule (1 on the first axis, 0 on every later one): the list
    read behind ``filtration.chi_chain``."""
    shape = tuple(x + 1 for x in top)
    chi = _along(list(ranks), shape, 0, lambda b, s: [
        *map(sub, islice(b, s, None), b), *[1] * s])
    for i in range(1, len(top)):
        chi = _along(chi, shape, i, lambda b, s: [
            *map(sub, b, islice(b, s, None)), *[0] * s])
    return chi


def list_pprime(chi, ranks, c) -> list:
    """P' on [0, c] from chi (a list) and a rank table on [0, c], as a
    list: r sweeps of the lower chain, each starting with a zero slice,
    less chi; the list read behind ``filtration.pprime_coefficients``."""
    shape = tuple(x + 1 for x in c)
    lower = _along(list(ranks), shape, 0, lambda b, s: [
        *[0] * s, *map(sub, islice(b, s, None), b)])
    for i in range(1, len(c)):
        lower = _along(lower, shape, i, lambda b, s: [
            *[0] * s, *map(sub, b, islice(b, s, None))])
    return list(map(sub, lower, chi))


def list_members(ranks, top) -> list:
    """Membership on [0, top] from a rank table on [0, top], as a list of
    bools: the AND of the r rise tables, each counting a step off the top
    face as rising; the list read behind ``filtration.members``."""
    shape = tuple(w + 1 for w in top)

    def rises(b, s):
        return [*map(lt, b, islice(b, s, None)), *[True] * s]

    ranks = list(ranks)
    member = _along(ranks, shape, 0, rises)
    for i in range(1, len(top)):
        member = list(map(and_, member, _along(ranks, shape, i, rises)))
    return member


def sub_box(values, window, top) -> list:
    """The values on [0, top] of a table given on the box [0, window], in
    one pass: one slice along the last axis per point of the other axes,
    with no table in between."""
    stride, starts = prod(w + 1 for w in window), [0]
    for w, t in zip(window[:-1], top[:-1]):
        stride //= w + 1
        starts = [k + x * stride for k in starts for x in range(t + 1)]
    n, out = top[-1] + 1, []
    for k in starts:
        out += values[k:k + n]
    return out


def vec_leq(u: ExpVec, v: ExpVec) -> bool:
    """Componentwise partial order: u <= v iff u_i <= v_i for all i."""
    return all(a <= b for a, b in zip(u, v))


def vec_clamp(v: ExpVec, hi: ExpVec) -> ExpVec:
    """Clamp each component into [0, hi_i]."""
    return tuple(min(max(a, 0), h) for a, h in zip(v, hi))


def b_dim(M, v) -> int:
    """dim J(v)/J(w) in a table (or a jet matrix's honest one): the rank at
    the window minus the rank of the columns below v, read from the flat
    table at index sum_i v_i prod_{j > i} (w_j + 1).  Components of v are
    clamped into [0, w_i] (conditions with v_i <= 0 are vacuous; nothing
    exists above the window)."""
    T = M if isinstance(M, Table) else honest(M)
    index = 0
    for x, w in zip(vec_clamp(tuple(v), T.window), T.window):
        index = index * (w + 1) + x
    return T.ranks[-1] - T.ranks[index]


def c_dim(M, v) -> int:
    """dim J(v)/J(v+1)."""
    v = tuple(v)
    return b_dim(M, v) - b_dim(M, vec_add(v, (1,) * len(M.window)))


def fiber_euler(M, v) -> int:
    """Euler characteristic of the projectivized fiber over v, point by
    point (the oracle for ``fiber_eulers``): inclusion-exclusion over the
    2^r coordinate subspaces gives sum_I (-1)^|I| (b(v + 1_I) - b(v + 1)),
    where the b(v + 1) terms cancel."""
    v = tuple(v)
    return sum((-1) ** (sum(u) - sum(v)) * b_dim(M, u)
               for u in iter_box(v, vec_add(v, (1,) * len(v))))


def is_member(M, v) -> bool:
    """Whether some germ takes the exact valuation vector v with every
    leading coefficient nonzero, point by point (the oracle for
    ``members``): each singleton constraint must drop the dimension (over
    an infinite field a space is never a finite union of proper
    subspaces).  Given an ``Analysis``, its membership table read at
    min(v, c), for any v >= 0."""
    if isinstance(M, Analysis):
        k = 0
        for x, ci in zip(v, M.conductor):
            k = k * (ci + 1) + min(max(x, 0), ci)
        return M.membership[k]
    v = tuple(v)
    b0 = b_dim(M, v)
    if b0 == 0:
        return False
    return all(b_dim(M, vec_add(v, unit_vec(len(M.window), [i]))) < b0
               for i in range(1, len(M.window) + 1))


@dataclass(frozen=True)
class SemigroupBox:
    """All semigroup members inside the box [0, bound]."""

    bound: ExpVec
    members: frozenset


def members_box(M, bound) -> SemigroupBox:
    bound = tuple(bound)
    found = frozenset(v for v in iter_box((0,) * len(M.window), bound)
                      if is_member(M, v))
    return SemigroupBox(bound, found)


def apery_set(box: SemigroupBox, m: int) -> set:
    """Members s <= bound with s - m outside the semigroup (r = 1 only)."""
    if any(len(v) != 1 for v in box.members):
        raise ValueError("Apery sets are taken on the one-branch ray")
    members = {v[0] for v in box.members}
    if m not in members:
        raise ValueError("%d is not a member" % m)
    return {s for s in members if s - m not in members}


def mp_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The product of two polynomials, term by term (the reference for
    ``mp_mul_one_minus``)."""
    _check_rank(a, b)
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def mp_one_minus(m: ExpVec) -> MultiPoly:
    """The binomial 1 - t^m."""
    return {(0,) * len(m): 1, tuple(m): -1}


def mp_exact_div(num, den):
    """Exact quotient num / den, dividing leading terms in lexicographic
    order (the long-division reference for ``mp_div_one_minus``).  Raises
    NotDivisibleError as soon as the division cannot continue
    (non-dominated leading exponent, fractional coefficient, or a leftover
    remainder would arise).
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    _check_rank(num, den)
    lead_e = max(den)
    lead_c = den[lead_e]
    rem = dict(num)
    quo = {}
    while rem:
        e = max(rem)
        c = rem[e]
        diff = tuple(x - y for x, y in zip(e, lead_e))
        if any(d < 0 for d in diff) or c % lead_c:
            raise NotDivisibleError(
                "remainder with leading term %r while dividing" % (e,))
        k = c // lead_c
        quo[diff] = k
        for de, dc in den.items():
            key = tuple(x + y for x, y in zip(diff, de))
            s = rem.get(key, 0) - k * dc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return quo


def reference_en_alexander(g: ResGraph) -> MultiPoly:
    """The Eisenbud-Neumann product as a list of binomials (the reference
    for ``en_alexander``'s netted exponents): each vertex's binomial
    repeated |chi| times, the numerators multiplied in vertex order, then
    (1 - t) for r = 1, then the denominators divided off largest first,
    each by the generic ``mp_mul`` and ``mp_exact_div``."""
    num, den = [], []
    for sid in g.vertices:
        chi = chi_open(g, sid)
        (num if chi < 0 else den).extend([g.vertices[sid]] * abs(chi))
    if g.r == 1:
        num.append((1,))
    poly = {(0,) * g.r: 1}
    for m in num:
        poly = mp_mul(poly, mp_one_minus(m))
    for m in sorted(den, reverse=True):
        poly = mp_exact_div(poly, mp_one_minus(m))
    return poly


def free_blowups(g: ResGraph, extra: int) -> ResGraph:
    """A copy of the graph after ``extra`` more blow-ups at free smooth
    points of the total transform (points of one exceptional component
    only): each adds a dead-end vertex carrying the multiplicity of its
    target, the vertices taken in turn by id, and must not change the
    Eisenbud-Neumann product."""
    vertices, edges = dict(g.vertices), set(g.edges)
    targets, nid = sorted(vertices), max(vertices)
    for k in range(extra):
        target = targets[k % len(targets)]
        nid += 1
        vertices[nid] = vertices[target]
        edges.add((target, nid))
    return ResGraph(r=g.r, vertices=vertices, edges=edges,
                    arrows=list(g.arrows), root=g.root)


def _add_columns(basis, columns, window, low, top) -> int:
    """Add every branch i's dense columns of orders low_i to top_i - 1 to
    the basis (``window`` columns per branch); its rank."""
    for start, lo, hi in zip(accumulate(window, initial=0), low, top):
        for col in columns[start + lo:start + hi]:
            _add_column(basis, col)
    return len(basis)


def _add_column(basis, column) -> None:
    """Reduce a copy of a dense integer column against the basis
    (``_reduced``), and keep a nonzero remainder with its pivot, its first
    nonzero entry."""
    col = _reduced(list(column), basis)
    if any(col):
        basis.append((next(j for j, x in enumerate(col) if x), col))


def _reduced(col, basis) -> list:
    """A dense integer column reduced in place against the basis, dividing
    out the content after each step: the list-based kernel that
    ``filtration._reduced`` runs on sparse columns.  Each basis vector
    vanishes at the pivots before it, so one pass clears every pivot."""
    for p, vec in basis:
        if not col[p]:
            continue
        g = gcd(col[p], vec[p])
        s, t = vec[p] // g, col[p] // g
        for j, x in enumerate(vec):
            col[j] = s * col[j] - t * x
        g = gcd(*col)
        if g > 1:
            for j, x in enumerate(col):
                col[j] = x // g
    return col


def reference_sweep(ranks, basis, columns, window, box, i=0) -> None:
    """The one-column-per-point sweep that ``filtration._sweep``'s slab
    replaces on the last two axes, on dense columns with the list-based
    kernel above: append the rank below every point of the
    box [0, box] whose first i coordinates the basis already holds, in
    lexicographic order: add the next branch's columns (branch-major, first
    in ``columns``, each branch ``window`` long) to the echelon basis one at
    a time, and recurse.  The basis is left at the box's top corner."""
    if i == len(window) - 1:
        ranks.append(len(basis))
        for col in columns[:box[i]]:
            _add_column(basis, col)
            ranks.append(len(basis))
        return
    rest = columns[window[i]:]
    for k in range(box[i] + 1):
        if k:
            del basis[depth:]
            _add_column(basis, columns[k - 1])
        depth = len(basis)
        reference_sweep(ranks, basis, rest, window, box, i + 1)


def reference_table(M, box) -> tuple:
    """What ``M.sweep(box)`` returns, by ``reference_sweep`` on the dense
    columns: the table on [0, box] and the rank of the whole window, the
    basis left at the box's top corner completed by every branch's rest."""
    ranks, basis, columns = [], [], dense(M)
    reference_sweep(ranks, basis, columns, M.window, box)
    return ranks, _add_columns(basis, columns, M.window, box, M.window)


def face(M, c, i) -> list:
    """The honest re-sweep reference of window-stability: the ranks of the
    jet matrix M on face i of the shell of [0, c + 1] outside [0, c]
    (``shell_face``; c + 1 inside the window), in lexicographic order:
    branch i's first c_i + 1 columns are added once, then the other
    branches are swept in branch-major order.  (Swept with branch i in
    its own place, a last face would rebuild that prefix on every row.)
    It runs on the dense columns with the list-based kernel."""
    start, columns = sum(M.window[:i]), dense(M)
    basis = []
    for col in columns[start:start + c[i] + 1]:
        _add_column(basis, col)
    window = M.window[:i] + M.window[i + 1:]
    if not window:
        return [len(basis)]
    top = shell_face(c, i)[1]
    ranks = []
    reference_sweep(ranks, basis, columns[:start] +
                    columns[start + M.window[i]:], window,
                    top[:i] + top[i + 1:])
    return ranks


def shell_face(c, i) -> tuple:
    """The corners (low, top) of face i of the shell of [0, c + 1] outside
    [0, c]: v_i = c_i + 1, v_j <= c_j for j < i and v_j <= c_j + 1 for
    j > i.  The r faces are disjoint and cover the shell; a shell point lies
    on the face of its first coordinate past c."""
    low = (0,) * i + (c[i] + 1,) + (0,) * (len(c) - i - 1)
    return low, tuple(c[:i]) + tuple(x + 1 for x in c[i:])


# ---------------------------------------------------------------------------
# the structure of the resolution graph and of a branch's semigroup
# ---------------------------------------------------------------------------

@dataclass
class VertexClass:
    """Dead ends, star points and separation points of a dual graph, plus
    the BFS tree from the root."""

    dead_ends: frozenset
    star_points: frozenset
    separation_points: dict  # (i, j) with i < j -> vertex id
    parent: dict  # id -> id or None (BFS tree from the root)
    depth: dict  # id -> distance from root

    def nearest_star_below(self, sid: int):
        """The nearest strictly smaller star point, or None (root tails)."""
        cur = self.parent[sid]
        while cur is not None:
            if cur in self.star_points:
                return cur
            cur = self.parent[cur]
        return None


def classify_graph(g: ResGraph) -> VertexClass:
    parent = {g.root: None}
    depth = {g.root: 0}
    queue = deque([g.root])
    while queue:
        v = queue.popleft()
        for u in g.adjacency[v]:
            if u not in parent:
                parent[u] = v
                depth[u] = depth[v] + 1
                queue.append(u)
    if len(parent) != len(g.vertices):
        raise GraphError("graph is not connected")

    dead = frozenset(v for v, d in g.degrees.items() if d == 1)
    stars = {v for v, d in g.degrees.items() if d >= 3}

    carrier = {branch: vid for vid, branch in g.arrows}
    seps = {}
    for i in sorted(carrier):
        for j in sorted(carrier):
            if i < j:
                seps[(i, j)] = _lca(parent, depth, carrier[i], carrier[j])
    if seps:
        first = min(seps.values(), key=lambda v: depth[v])
        stars.add(first)  # st_1 counts as a star point even when of low degree
    return VertexClass(dead, frozenset(stars), seps, parent, depth)


def _lca(parent, depth, a, b):
    while depth[a] > depth[b]:
        a = parent[a]
    while depth[b] > depth[a]:
        b = parent[b]
    while a != b:
        a, b = parent[a], parent[b]
    return a


def noether_sums(centers, r: int):
    """Noether sums over a blow-up center log: per branch the sum of
    m(m-1) over its infinitely near points (twice its delta invariant), and
    per pair of branches the sum of products of local multiplicities over
    their common points (the intersection number; None on the diagonal)."""
    own = [0] * r
    table = [[None if i == j else 0 for j in range(r)] for i in range(r)]
    for mult in centers:
        for i in mult:
            own[i - 1] += mult[i] * (mult[i] - 1)
            for j in mult:
                if i != j:
                    table[i - 1][j - 1] += mult[i] * mult[j]
    return own, table


def noether_intersections(c: Curve, budget: int = DEFAULT_BUDGET):
    """Pairwise intersection numbers (C_i . C_j): the Noether sum of
    products of local multiplicities over the common infinitely near
    points.  Diagonal entries are None."""
    return noether_sums(_run_blowups(c, budget)[1], c.r)[1]


def delgado_invariants(c: Curve, budget: int = DEFAULT_BUDGET):
    """The conductor and delta from the Noether table, the reference for
    the one pass of ``Analysis``: c_i = 2 delta_i + sum_{j != i}
    (C_i . C_j) and delta = sum_i delta_i + sum_{i<j} (C_i . C_j)
    (Delgado de la Mata, Manuscripta Math. 59, 1987)."""
    own, table = noether_sums(_run_blowups(c, budget)[1], c.r)
    conductor = tuple(o + sum(x for j, x in enumerate(row) if j != i)
                      for i, (o, row) in enumerate(zip(own, table)))
    delta = sum(own) // 2 + sum(row[j] for i, row in enumerate(table)
                                for j in range(i))
    return conductor, delta


def reference_div(f: RatFunc, g: RatFunc, s: int = 1) -> RatFunc:
    """f/g^s by s products with g's denominator and with its numerator over
    tau^k, then one content normalisation: the reference for
    ``RatFunc.div``, which takes each of the two powers once."""
    k = g.ord
    if k == INF:
        raise ZeroDivisionError("division by an identically zero coordinate")
    if f.ord < s * k:
        raise ValueError("quotient would have a pole at tau = 0")
    num, den, gnum = f.num, f.den, g.num
    if k:
        num = {e - s * k: x for e, x in num.items()}
        gnum = {e - k: x for e, x in gnum.items()}
    for _ in range(s):
        num, den = up_mul(num, g.den), up_mul(den, gnum)
    return RatFunc(num, den)


def reference_sub_const(f: RatFunc, c) -> RatFunc:
    """f - c for a rational c = p/q: (q num - p den) / (q den), normalised
    again; ``RatFunc.div(g, s, c)`` subtracts c before its one
    normalisation."""
    if not c:
        return f
    p, q = c.numerator, c.denominator
    num = {e: q * x for e, x in f.num.items()}
    for e, x in f.den.items():
        x = num.get(e, 0) - p * x
        if x:
            num[e] = x
        else:
            num.pop(e)
    return RatFunc(num, {e: q * x for e, x in f.den.items()})


class _Point:
    """An infinitely near point: resident strict transforms plus the
    exceptional divisors through it (at most 2, distinct axes)."""

    __slots__ = ("residents", "divisors", "depth")

    def __init__(self, residents, divisors, depth):
        self.residents = residents  # list of (branch id, RatFunc x, RatFunc y)
        self.divisors = divisors  # list of (vertex id, "x" | "y")
        self.depth = depth
        for _, fx, fy in residents:
            assert min(fx.ord, fy.ord) >= 1, "resident misses the point"


def _settled(pt: _Point) -> bool:
    # Normal crossing reached at this point: a single smooth resident meeting
    # a single divisor transversally.
    if len(pt.residents) != 1 or len(pt.divisors) != 1:
        return False
    _, fx, fy = pt.residents[0]
    _, axis = pt.divisors[0]
    along = fx.ord if axis == "x" else fy.ord
    return along == 1


def reference_blowups(c: Curve, budget: int = DEFAULT_BUDGET):
    """The step-by-step blow-up engine, one center per iteration, on the
    reference arithmetic (``reference_div``, then ``reference_sub_const``
    in the x-chart): the reference ``_run_blowups``, which takes each
    Euclid chain in one step, must match whole, exceptions included."""
    validate_curve(c)
    r = c.r
    vertices = {}
    edges = set()
    arrows = {}
    centers = []
    start = [(i, RatFunc.of(b.x), RatFunc.of(b.y))
             for i, b in enumerate(c.branches, start=1)]
    pending = deque([_Point(start, [], 0)])
    nid = 0
    while pending:
        pt = pending.popleft()
        if _settled(pt):
            bid = pt.residents[0][0]
            if bid in arrows:
                raise GraphError("branch %d settled twice" % bid)
            arrows[bid] = pt.divisors[0][0]
            continue
        if pt.depth >= budget:
            raise BudgetExceededError(
                "no separation after %d blow-ups; branches %r look coincident"
                % (budget, sorted(b for b, _, _ in pt.residents)))
        nid += 1
        mult = {bid: min(fx.ord, fy.ord)
                for bid, fx, fy in pt.residents}
        m_new = tuple(
            mult.get(i, 0) + sum(vertices[vid][i - 1] for vid, _ in pt.divisors)
            for i in range(1, r + 1))
        vertices[nid] = m_new
        centers.append(mult)
        if len(pt.divisors) == 2:
            # the two divisors met at this center and are now separated
            pair = tuple(sorted(v for v, _ in pt.divisors))
            edges.discard(pair)
        for vid, _ in pt.divisors:
            edges.add(tuple(sorted((vid, nid))))

        old_axis = {ax: vid for vid, ax in pt.divisors}
        groups = {}
        for bid, fx, fy in pt.residents:
            groups.setdefault(_direction(fx, fy), []).append((bid, fx, fy))
        for d in sorted(groups):
            members = groups[d]
            if d == INF:
                res = [(bid, reference_div(fx, fy), fy)
                       for bid, fx, fy in members]
                divs = [(nid, "y")]
                if "x" in old_axis:
                    divs.append((old_axis["x"], "x"))
            else:
                res = [(bid, fx,
                        reference_sub_const(reference_div(fy, fx), d))
                       for bid, fx, fy in members]
                divs = [(nid, "x")]
                if d == 0 and "y" in old_axis:
                    divs.append((old_axis["y"], "y"))
            pending.append(_Point(res, divs, pt.depth + 1))

    if sorted(arrows) != list(range(1, r + 1)):
        raise GraphError("arrow bookkeeping failed: %r" % (arrows,))

    graph = ResGraph(
        r=r,
        vertices=vertices,
        edges=edges,
        arrows=sorted(((v, b) for b, v in arrows.items()),
                      key=lambda t: (t[1], t[0])),
        root=1,
    )
    return graph, centers


def engine_outcome(run, c: Curve, budget: int = DEFAULT_BUDGET):
    """A whole blow-up engine result (``run`` is ``_run_blowups`` or
    ``reference_blowups``): the vertices in insertion order, the edges,
    arrows and root and the center log, or the class and message of what
    it raised."""
    try:
        g, centers = run(c, budget)
    except Exception as exc:  # any failure must be the reference's too
        return type(exc), str(exc)
    return list(g.vertices.items()), g.edges, g.arrows, g.root, centers


@dataclass
class SemigroupReport:
    """Outcome of the structural checks on an irreducible branch."""

    generators: list
    tail_quotients: list  # n_j for the non-root dead ends, ascending
    conductor: int
    checks: dict  # name -> bool

    def all_passed(self) -> bool:
        return all(self.checks.values())


def verify_semigroup_properties(c: Curve) -> SemigroupReport:
    """Run the four structural checks of an irreducible branch semigroup:

    1. conductor - 1 == sum of n_j * generator_j minus the multiplicity;
    2. every member up to twice the conductor plus two has a unique
       representation k_0 g_0 + sum k_j g_j with 0 <= k_j <= n_j for j >= 1;
    3. (n_j + 1) g_j < g_(j+1);
    4. (n_j + 1) g_j lies in the semigroup generated by g_0 .. g_(j-1).

    The n_j are read from the resolution graph through the divisibility of
    the star-point multiplicity by its dead end, not re-derived from the
    parametrization.
    """
    if c.r != 1:
        raise ValueError("structural checks are defined for one branch")
    a = Analysis(c)
    graph = a.graph
    root_like, tails = _dead_end_tails(graph)
    if len(root_like) != 1:
        raise AssertionError("expected exactly one tail-free dead end, got %r"
                             % (root_like,))
    beta0 = graph.vertices[root_like[0]][0]
    gens = [beta0] + [m for m, _ in tails]
    ns = [n for _, n in tails]

    delta = a.conductor[0]
    top = 2 * delta + 2

    checks = {}
    checks["conductor-formula"] = (
        delta - 1 == sum(n * g for n, g in zip(ns, gens[1:])) - beta0)
    checks["unique-representation"] = all(
        _representations(v, gens, ns) == is_member(a, (v,))
        for v in range(top + 1))
    checks["generator-growth"] = all(
        (ns[j] + 1) * gens[j + 1] < gens[j + 2]
        for j in range(len(ns) - 1))
    checks["multiple-in-previous"] = all(
        (ns[j] + 1) * gens[j + 1] in semigroup_closure(
            gens[:j + 1], (ns[j] + 1) * gens[j + 1])
        for j in range(len(ns)))
    return SemigroupReport(gens, ns, delta, checks)


def _dead_end_tails(g: ResGraph):
    """The dead ends of a one-branch graph with no star point below them,
    and (m, n) for each other dead end, ascending: its multiplicity and
    n = m(star)/m - 1 for the nearest star point below it."""
    vc = classify_graph(g)
    roots, tails = [], []
    for d in sorted(vc.dead_ends):
        st = vc.nearest_star_below(d)
        if st is None:
            roots.append(d)
            continue
        (m_star,), (m,) = g.vertices[st], g.vertices[d]
        if m_star % m:
            raise GraphError(
                "star multiplicity %r is not a multiple of dead end %r"
                % (g.vertices[st], g.vertices[d]))
        tails.append((m, m_star // m - 1))
    return roots, sorted(tails)


def _representations(v: int, gens, ns) -> int:
    # count k_0 g_0 + sum k_j g_j == v with 0 <= k_j <= n_j for j >= 1
    partial = [0]
    for g, n in zip(gens[1:], ns):
        partial = [p + k * g for p in partial for k in range(n + 1)]
    beta0 = gens[0]
    return sum(1 for p in partial
               if p <= v and (v - p) % beta0 == 0)


def value_semigroup_breaks(a) -> list:
    """The properties of the value semigroup S of a curve with r >= 2 that
    its analysis's membership breaks (none: []), each read from resolution
    graphs alone (A. Garcia, J. reine angew. Math. 336, 1982; Delgado de la
    Mata, Manuscripta Math. 59, 1987), with S read at min(v, c):

    * "curvettes": every vertex's multiplicity vector, the values of a
      curvette of its divisor, is in S;
    * "min-closed": S is closed under componentwise min (checked on
      [0, c], which holds the min of any two of its points);
    * "projection i": the projection of S onto axis i is branch i's own
      semigroup, generated by the multiplicities of the dead ends of that
      branch's graph; on [0, c_i] it is the i-th coordinates of S on
      [0, c], and past c_i both hold every value (the branch's conductor is
      at most c_i)."""
    c, r = a.conductor, a.curve.r
    values = [v for v, m in zip(iter_box((0,) * r, c), a.membership) if m]
    member = set(values)
    broken = []
    if not all(vec_clamp(mult, c) in member
               for mult in a.graph.vertices.values()):
        broken.append("curvettes")
    if not all(tuple(map(min, u, v)) in member
               for k, u in enumerate(values) for v in values[k + 1:]):
        broken.append("min-closed")
    for i, branch in enumerate(a.curve.branches):
        g = resolve(Curve([(branch.x, branch.y)]))
        gens = [g.vertices[d][0] for d in classify_graph(g).dead_ends]
        if {v[i] for v in values} != semigroup_closure(gens, c[i]):
            broken.append("projection %d" % (i + 1))
    return broken


def escape_breaks(a) -> list:
    """The pairs u, v of S on [0, c] with u_i = v_i and u != v for which no
    w in S has w_i > u_i and w_j >= min(u_j, v_j), with equality where
    u_j != v_j (the third property of Garcia and Delgado), as (i, u, v).
    w is read at min(w, c): where u_j != v_j, min(u_j, v_j) < c_j, and for
    u_i = c_i any w of [0, c] with w_i = c_i stands for the value that is
    c_i + 1 there, so the search runs on [0, c] with w_i >= min(u_i + 1,
    c_i).  Cubic in the values on [0, c]: for small tables only."""
    c, r = a.conductor, a.curve.r
    values = [v for v, m in zip(iter_box((0,) * r, c), a.membership) if m]
    broken = []
    for k, u in enumerate(values):
        for v in values[k + 1:]:
            low = tuple(map(min, u, v))
            for i in range(r):
                if u[i] == v[i] and not any(
                        w[i] >= min(u[i] + 1, c[i]) and all(
                            w[j] == low[j] if u[j] != v[j] else
                            w[j] >= low[j] for j in range(r) if j != i)
                        for w in values):
                    broken.append((i, u, v))
    return broken


# ---------------------------------------------------------------------------
# oracles on Delta that share no code with the three pipelines
# ---------------------------------------------------------------------------

def check_torres_formula(curve) -> None:
    """Delta_C with t_k = 1 is (1 - prod_i t_i^(C_i . C_k)) Delta of C
    without C_k for r >= 3, and (1 + t + ... + t^(l - 1)) Delta_(C_1)(t)
    with l = (C_1 . C_2) for r = 2 (Torres); every branch in turn is C_k.
    Needs r >= 2."""
    delta, r = en_alexander(resolve(curve)), curve.r
    table = noether_intersections(curve)
    for k in range(r):
        restricted = {}
        for v, x in delta.items():
            u = v[:k] + v[k + 1:]
            restricted[u] = restricted.get(u, 0) + x
        rest = Curve(curve.branches[:k] + curve.branches[k + 1:])
        ls = tuple(row[k] for i, row in enumerate(table) if i != k)
        if r == 2:
            factor = {(e,): 1 for e in range(ls[0])}
        else:
            factor = {(0,) * (r - 1): 1, ls: -1}
        assert {u: x for u, x in restricted.items() if x} == \
            mp_mul(factor, en_alexander(resolve(rest))), k


def check_alexander_symmetry(curve) -> None:
    """Delta is symmetric about the conductor: t^c Delta(1/t) = Delta(t)
    for one branch, whose semigroup is symmetric, and t^(c - 1) Delta(1/t)
    = (-1)^r Delta(t) for r > 1."""
    a = Analysis(curve)
    c, r = a.conductor, a.curve.r
    delta = en_alexander(a.graph)
    if r == 1:
        # the semigroup is symmetric: v is a value iff c - 1 - v is not
        for v in range(c[0]):
            assert is_member(a, (v,)) != is_member(a, (c[0] - 1 - v,)), v
        # and so t^c Delta(1/t) = Delta(t)
        assert {(c[0] - v,): k for (v,), k in delta.items()} == delta
        return
    # t^(c - 1) Delta(1/t) = (-1)^r Delta(t)
    assert {tuple(x - 1 - y for x, y in zip(c, v)): (-1) ** r * k
            for v, k in delta.items()} == delta
