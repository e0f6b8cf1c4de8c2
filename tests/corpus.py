"""Shared test curves, and the per-point references the tests check the
library's whole-table reads against.

Every curve with r > 1 used by the identity checks, plus the one-branch
curves used by the semigroup checks.  ``TANGENT_CUSPS_DUPLICATE`` is kept
separately: (tau^2, -tau^3) parametrizes the same cuspidal cubic as
(tau^2, tau^3) (substitute tau -> -tau), so that pair is a non-reduced input
which the resolver must reject.  ``TANGENT_CUSPS`` is the honest pair of
distinct tangent cusps y^2 = x^3 and y^2 = -x^3.
"""

from dataclasses import dataclass
from fractions import Fraction

from curvealex import Curve
from curvealex.exactmath import (
    INF,
    ExpVec,
    iter_box,
    ord_lead,
    up_mul,
    up_scale,
    vec_add,
    vec_clamp,
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
        oa = _scaled_order(a, br.ord_x)
        ob = _scaled_order(b, br.ord_y)
        out.append(oa + ob if oa != INF and ob != INF else INF)
    return tuple(out)


def monomial_jet(c, a, b, w):
    """Jet coordinates of x^a y^b over the window w (the oracle for
    ``JetMatrix.rows``).

    For each branch i (in order) and each 0 <= k < w_i, the coefficient of
    tau^k in x_i(tau)^a * y_i(tau)^b, read from the untruncated product.
    Coordinates are branch-major.
    """
    out = []
    for br, wi in zip(c.branches, w):
        p = {0: Fraction(1)}
        for factor in [br.x] * a + [br.y] * b:
            p = up_mul(p, factor)
        out.extend(p.get(k, 0) for k in range(wi))
    return out


def reference_monomials(M):
    """The (a, b) with a*ord(x_i) + b*ord(y_i) below w_i on some branch i,
    in lexicographic order (the oracle for ``M.monomials``)."""
    top = max(M.window)  # every order is at least 1
    return [(a, b) for a in range(top) for b in range(top)
            if any(o < w for o, w in
                   zip(monomial_order(M.curve, a, b), M.window))]


def reference_ranks(M):
    """The rank of the columns of M below v for every v in the window box,
    each by Gaussian elimination over the rationals on a fresh submatrix
    (the oracle for ``M.ranks``)."""
    offsets = [sum(M.window[:i]) for i in range(M.r)]
    return {v: _rank([[row[o + k] for o, vi in zip(offsets, v)
                       for k in range(vi)] for row in M.rows])
            for v in iter_box((0,) * M.r, M.window)}


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
                ratio = f / pval
                rows[idx] = [a - ratio * b for a, b in zip(rows[idx], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def unit_vec(r, members):
    """Indicator vector of a subset of branch indices 1..r."""
    chosen = set(members)
    return tuple(1 if i + 1 in chosen else 0 for i in range(r))


def b_dim(M, v) -> int:
    """dim J(v)/J(w): window rank minus the rank of the columns below v.
    Components of v are clamped into [0, w_i] (conditions with v_i <= 0 are
    vacuous; nothing exists above the window)."""
    v = tuple(v)
    inside = v if v in M.ranks else vec_clamp(v, M.window)
    return M.ranks[M.window] - M.ranks[inside]


def c_dim(M, v) -> int:
    """dim J(v)/J(v+1)."""
    v = tuple(v)
    return b_dim(M, v) - b_dim(M, vec_add(v, (1,) * M.r))


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
    subspaces)."""
    v = tuple(v)
    b0 = b_dim(M, v)
    if b0 == 0:
        return False
    return all(b_dim(M, vec_add(v, unit_vec(M.r, [i]))) < b0
               for i in range(1, M.r + 1))


@dataclass(frozen=True)
class SemigroupBox:
    """All semigroup members inside the box [0, bound]."""

    bound: ExpVec
    members: frozenset


def members_box(M, bound) -> SemigroupBox:
    bound = tuple(bound)
    found = frozenset(v for v in iter_box((0,) * M.r, bound)
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
