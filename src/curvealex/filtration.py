"""The multi-index filtration on functions of the curve: jet matrices,
codimension counts, fiber Euler characteristics, and the series built from
them.

Everything reduces to exact ranks of one matrix per window: the rows are the
jet coordinates of all monomials visible inside the window, the columns are
(branch, order) pairs in branch-major order.  Since the columns "below v"
form a per-branch prefix, dim J(v)/J(w) is the difference of two submatrix
ranks, and all other dimensions are differences of those.
"""

from __future__ import annotations

from functools import cached_property

from .curve import Curve, monomial_jet, validate_curve
from .exactmath import (
    ExpVec,
    MultiPoly,
    iter_box,
    mp_exact_div,
    scaled_order,
    unit_vec,
    vec_add,
    vec_clamp,
    vec_leq,
)
from .resolution import DEFAULT_BUDGET, _noether_sums, _run_blowups


class BoundaryNonzeroError(RuntimeError):
    """A fiber Euler characteristic failed to vanish just past the
    conductor box (a wrong conductor or a bug in the rank table)."""

    code = "BoundaryNonzero"


class JetMatrix:
    """Jet coordinates over a window of every monomial that is visible in it.

    A monomial x^a y^b is visible when its valuation on some branch i is
    below w_i; all other monomials have identically zero jets.  Ranks of
    column prefixes are memoized (the b table every formula shares).
    """

    def __init__(self, curve: Curve, window):
        validate_curve(curve)
        window = tuple(int(x) for x in window)
        if len(window) != curve.r or any(w < 1 for w in window):
            raise ValueError("window must have a positive entry per branch")
        self.curve = curve
        self.window = window
        self.offsets = []
        total = 0
        for w in window:
            self.offsets.append(total)
            total += w
        self.ncols = total
        self.monomials = sorted(self._visible_monomials())
        self.rows = [monomial_jet(curve, a, b, window)
                     for a, b in self.monomials]
        self._prefix_rank_memo = {}

    @property
    def r(self) -> int:
        return self.curve.r

    def _visible_monomials(self):
        found = set()
        for i, br in enumerate(self.curve.branches):
            ax, ay, wi = br.ord_x, br.ord_y, self.window[i]
            a = 0
            while scaled_order(a, ax) < wi:
                b = 0
                while scaled_order(a, ax) + scaled_order(b, ay) < wi:
                    found.add((a, b))
                    b += 1
                a += 1
        return found

    def _prefix_rank(self, v: ExpVec) -> int:
        got = self._prefix_rank_memo.get(v)
        if got is not None:
            return got
        cols = []
        for i, vi in enumerate(v):
            cols.extend(range(self.offsets[i], self.offsets[i] + vi))
        sub = [[row[c] for c in cols] for row in self.rows]
        rank = _rank(sub)
        self._prefix_rank_memo[v] = rank
        return rank


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


def b_dim(M: JetMatrix, v) -> int:
    """dim J(v)/J(w): window rank minus the rank of the columns below v.
    Components of v are clamped into [0, w_i] (conditions with v_i <= 0 are
    vacuous; nothing exists above the window)."""
    full = M._prefix_rank(M.window)
    return full - M._prefix_rank(vec_clamp(tuple(v), M.window))


def c_dim(M: JetMatrix, v) -> int:
    """dim J(v)/J(v+1)."""
    v = tuple(v)
    return b_dim(M, v) - b_dim(M, vec_add(v, (1,) * M.r))


def fiber_dim(M: JetMatrix, v, I) -> int:
    """dim of the image of J(v)-jets inside the coordinate subspace where
    the leading coefficients indexed by I (branch ids 1..r) vanish."""
    v = tuple(v)
    return (b_dim(M, vec_add(v, unit_vec(M.r, I)))
            - b_dim(M, vec_add(v, (1,) * M.r)))


def fiber_euler(M: JetMatrix, v) -> int:
    """Euler characteristic of the projectivized fiber over v, by
    inclusion-exclusion over the 2^r coordinate subspaces."""
    v = tuple(v)
    r = M.r
    total = 0
    for mask in range(1 << r):
        I = [i + 1 for i in range(r) if mask >> i & 1]
        sign = -1 if len(I) % 2 else 1
        total += sign * fiber_dim(M, v, I)
    return total


def is_member(M: JetMatrix, v) -> bool:
    """Whether some germ takes the exact valuation vector v with every
    leading coefficient nonzero: each singleton constraint must drop the
    dimension (over an infinite field a space is never a finite union of
    proper subspaces)."""
    v = tuple(v)
    b0 = b_dim(M, v)
    if b0 == 0:
        return False
    return all(b_dim(M, vec_add(v, unit_vec(M.r, [i]))) < b0
               for i in range(1, M.r + 1))


# ---------------------------------------------------------------------------
# one analysis per curve, and the three series read from it
# ---------------------------------------------------------------------------

class Analysis:
    """Everything the series pipelines read about one curve, computed once.

    One run of the blow-up engine gives the resolution graph and the
    conductor of the semigroup of values by Delgado's formula
    c_i = 2 delta_i + sum_{j != i} (C_i . C_j) (Delgado de la Mata,
    Manuscripta Math. 59, 1987).  One jet matrix, built on first use, covers
    every point the series evaluate: the window is the conductor + 2 for
    r > 1, and max(bound, 2c + 2) + 2 for one branch, whose series are
    truncated at ``bound`` (default 2c + 2; r > 1 ignores it).
    """

    def __init__(self, curve: Curve, bound: int | None = None,
                 budget: int = DEFAULT_BUDGET):
        self.curve = curve
        self.graph, centers = _run_blowups(curve, budget)
        own, table = _noether_sums(centers, curve.r)
        self.conductor = tuple(o + sum(x for x in row if x)
                               for o, row in zip(own, table))
        if curve.r > 1:
            bound = None
        elif bound is None:
            bound = 2 * self.conductor[0] + 2
        self.bound = bound

    @cached_property
    def jet(self) -> JetMatrix:
        if self.curve.r == 1:
            window = (max(self.bound, 2 * self.conductor[0] + 2) + 2,)
        else:
            window = tuple(x + 2 for x in self.conductor)
        return JetMatrix(self.curve, window)

    @cached_property
    def fiber_series(self) -> MultiPoly:
        """Sum of fiber Euler characteristics: chi of the projectivized
        extended semigroup, graded by valuation.

        For r > 1 this is a polynomial supported in [0, conductor]; the
        shell just outside that box must vanish (BoundaryNonzeroError
        otherwise).  For r = 1 it is an honest infinite series, truncated
        at ``bound``.
        """
        M, r = self.jet, self.curve.r
        if r == 1:
            return {(v,): chi for v in range(self.bound + 1)
                    if (chi := fiber_euler(M, (v,)))}
        out, bad = {}, []
        for v in iter_box((0,) * r, vec_add(self.conductor, (1,) * r)):
            chi = fiber_euler(M, v)
            if not chi:
                continue
            if vec_leq(v, self.conductor):
                out[v] = chi
            else:
                bad.append(v)
        if bad:
            raise BoundaryNonzeroError(
                "nonzero fiber Euler characteristic outside the conductor "
                "box [0, %r]: %r" % (self.conductor, bad))
        return out

    @cached_property
    def pprime(self) -> MultiPoly:
        """The polynomial L_C * prod (t_i - 1): its coefficient at v is the
        alternating sum of c(v - 1 + 1_I) over subsets I of the branches."""
        M, r = self.jet, self.curve.r
        out = {}
        for v in iter_box((0,) * r, vec_add(self.conductor, (1,) * r)):
            coeff = 0
            for mask in range(1 << r):
                I = [i + 1 for i in range(r) if mask >> i & 1]
                sign = -1 if len(I) % 2 else 1
                arg = vec_add(tuple(a - 1 for a in v), unit_vec(r, I))
                coeff += sign * c_dim(M, arg)
            if coeff:
                out[v] = coeff
        return out

    @cached_property
    def poincare(self) -> MultiPoly:
        """The Poincare polynomial of the multi-index filtration.

        For r > 1: the exact quotient of pprime by t_1*...*t_r - 1 (the
        divisibility is a theorem; a remainder means a bug).  For r = 1 the
        quotient degenerates to the ordinary Poincare series of the
        filtration, the membership indicator series, truncated at ``bound``.
        """
        r = self.curve.r
        if r == 1:
            return {(v,): 1 for v in range(self.bound + 1)
                    if is_member(self.jet, (v,))}
        return mp_exact_div(self.pprime, {(1,) * r: 1, (0,) * r: -1})


def fiber_series(curve: Curve, bound: int | None = None) -> MultiPoly:
    """The fiber series of one curve (see Analysis.fiber_series)."""
    return Analysis(curve, bound).fiber_series


def pprime_poly(curve: Curve) -> MultiPoly:
    """L_C * prod (t_i - 1) of one curve (see Analysis.pprime)."""
    return Analysis(curve).pprime


def poincare_poly(curve: Curve, bound: int | None = None) -> MultiPoly:
    """The Poincare polynomial of one curve (see Analysis.poincare)."""
    return Analysis(curve, bound).poincare
