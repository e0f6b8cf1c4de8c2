"""Shared test curves.

Every curve with r > 1 used by the identity checks, plus the one-branch
curves used by the semigroup checks.  ``TANGENT_CUSPS_DUPLICATE`` is kept
separately: (tau^2, -tau^3) parametrizes the same cuspidal cubic as
(tau^2, tau^3) (substitute tau -> -tau), so that pair is a non-reduced input
which the resolver must reject.  ``TANGENT_CUSPS`` is the honest pair of
distinct tangent cusps y^2 = x^3 and y^2 = -x^3.
"""

from fractions import Fraction

from curvealex import Curve
from curvealex.curve import monomial_order
from curvealex.exactmath import iter_box, up_mul


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
