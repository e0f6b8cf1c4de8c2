"""The multi-index filtration on functions of the curve: jet matrices,
their prefix-rank tables, and the membership, fiber Euler characteristics
and series read from them.

Everything reduces to exact ranks of one matrix per window: the rows are the
jet coordinates of all monomials visible inside the window, each built from
the previous row by one truncated product per branch, and the columns are
(branch, order) pairs in branch-major order.  Since the columns "below v"
form a per-branch prefix, dim J(v)/J(w) is a difference in one prefix-rank
table, and all other dimensions are alternating sums of those.  Every read
takes a whole table: the series by r difference sweeps (``_differences``),
membership by one pass comparing each point with its r successors
(``members``).

One window per curve suffices: the conductor c.  The conductor ideal
t^c * O-bar lies in the local ring, so v is a value iff min(v, c) is, and
everything past the window is read at min(v, c) (``Analysis.is_member``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod

from .curve import Curve, validate_curve
from .exactmath import (
    ExpVec,
    MultiPoly,
    iter_box,
    mp_exact_div,
    up_mul_trunc,
    vec_add,
    vec_clamp,
    vec_leq,
)
from .resolution import DEFAULT_BUDGET, _noether_sums, _run_blowups


class BoundaryNonzeroError(RuntimeError):
    """Just past the conductor box the table contradicts the conductor: a
    fiber Euler characteristic fails to vanish, or membership differs from
    membership at min(v, c) (a wrong conductor or a bug in the rank
    table)."""

    code = "BoundaryNonzero"


class JetMatrix:
    """Jet coordinates over a window of every monomial that is visible in it.

    A monomial x^a y^b is visible when its valuation on some branch i is
    below w_i; all other monomials have identically zero jets.  ``rows``
    follow ``monomials`` in lexicographic order of (a, b), and each is built
    from the one before it, times y_i on each branch i (times x_i from
    (a - 1, 0) when b = 0), truncated at w_i.  ``ranks``
    maps every v in the box [0, window] to the rank of the columns below v:
    the table every formula shares, built once with the matrix.  An
    ``Analysis`` builds one at the conductor + 2; other windows come only
    from an explicit ``--window`` and verify's window-stability check.
    That check passes a smaller ``box`` (inside the window): ``ranks`` then
    covers only [0, box], the points whose c values that check compares.
    """

    def __init__(self, curve: Curve, window, box=None):
        validate_curve(curve)
        window = tuple(int(x) for x in window)
        if len(window) != curve.r or any(w < 1 for w in window):
            raise ValueError("window must have a positive entry per branch")
        self.curve = curve
        self.window = window
        self.monomials, self.rows = [], []
        # x^a y^b is visible iff its jet is nonzero on some branch (leading
        # coefficients never cancel); the visible b form a prefix for each
        # a, and so do the visible a
        xa, a = [{0: Fraction(1)}] * curve.r, 0
        while any(xa):
            jet, b = xa, 0
            while any(jet):
                self.monomials.append((a, b))
                self.rows.append([p.get(k, 0) for p, w in zip(jet, window)
                                  for k in range(w)])
                jet = [up_mul_trunc(p, br.y, w) for p, br, w
                       in zip(jet, curve.branches, window)]
                b += 1
            xa = [up_mul_trunc(p, br.x, w) for p, br, w
                  in zip(xa, curve.branches, window)]
            a += 1
        self.ranks = {}
        _sweep(self.ranks, [], [_primitive(col) for col in zip(*self.rows)],
               window, window if box is None else box)

    @property
    def r(self) -> int:
        return self.curve.r


def _primitive(vec) -> list:
    """The integer multiple with content 1 of a rational vector (zero stays
    zero)."""
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _sweep(ranks, basis, columns, window, box, v=()) -> None:
    """Record the rank below every point of the box [0, box] that extends v:
    add the next branch's columns (branch-major, first in ``columns``, each
    branch ``window`` long) to the echelon basis one at a time, recurse, and
    drop them again."""
    if len(v) == len(window):
        ranks[v] = len(basis)
        return
    i, depth = len(v), len(basis)
    for k in range(box[i] + 1):
        if k:
            _add_column(basis, columns[k - 1])
        _sweep(ranks, basis, columns[window[i]:], window, box, v + (k,))
    del basis[depth:]


def _add_column(basis, column) -> None:
    """Reduce a copy of an integer column against the basis, dividing out the
    content after each step, and keep a nonzero remainder.  Each basis vector
    vanishes at the pivots before it, so one pass clears every pivot."""
    col = list(column)
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
    if any(col):
        basis.append((next(j for j, x in enumerate(col) if x), col))


def _differences(values, shape) -> list:
    """g(v) = sum over the subsets I of the branches of (-1)^|I| f(v + 1_I),
    for a table f given by its ``values`` on a box of ``shape`` points per
    axis in lexicographic order; g comes back the same way, on the box one
    point shorter on every axis.  r sweeps, the i-th taking f(v) - f(v + e_i)
    (v + e_i lies ``step`` places after v)."""
    for i, n in enumerate(shape):
        step = prod(shape[i + 1:])
        block = n * step
        values = [x - y for k in range(0, len(values), block)
                  for x, y in zip(values[k:k + block - step],
                                  values[k + step:k + block])]
        shape = shape[:i] + (n - 1,) + shape[i + 1:]
    return values


def fiber_eulers(M: JetMatrix) -> dict:
    """The Euler characteristic of the projectivized fiber over every point v
    of [0, window - 1]: inclusion-exclusion over the 2^r coordinate
    subspaces gives the alternating sum of b(v + 1_I) = dim J(v + 1_I)/J(w)
    over the subsets I of the branches, read by difference sweeps over the
    rank table (b = window rank - ranks, and the window rank cancels)."""
    zero = (0,) * M.r
    ranks = [M.ranks[v] for v in iter_box(zero, M.window)]
    chi = _differences(ranks, tuple(w + 1 for w in M.window))
    return {v: -x for v, x in
            zip(iter_box(zero, tuple(w - 1 for w in M.window)), chi)}


def pprime_coefficients(M: JetMatrix) -> dict:
    """The alternating sum of c(v - 1 + 1_I) over the subsets I of the
    branches at every point v of [0, window - 1], by difference sweeps over
    the table c(u) = ranks[u + 1] - ranks[max(u, 0)] on [-1, window - 1]
    (c(u) = dim J(u)/J(u + 1), where a condition u_i < 0 is vacuous)."""
    zero = (0,) * M.r
    # in lexicographic order of u, u + 1 runs over [0, window] and
    # max(u, 0) over the product of the clamped axes 0, 0, 1, ..., w - 1
    c = [M.ranks[up] - M.ranks[lo] for up, lo in
         zip(iter_box(zero, M.window),
             product(*([0, *range(w)] for w in M.window)))]
    coeffs = _differences(c, tuple(w + 1 for w in M.window))
    return dict(zip(iter_box(zero, tuple(w - 1 for w in M.window)), coeffs))


def members(M: JetMatrix) -> set:
    """The values in [0, window - 1], in one pass over the rank table: some
    germ takes the exact valuation vector v with every leading coefficient
    nonzero iff each singleton constraint drops the dimension, that is
    ranks[v + e_i] > ranks[v] for every branch i (over an infinite field a
    space is never a finite union of proper subspaces).  One such rise also
    makes J(v) nonzero."""
    ranks, zero = M.ranks, (0,) * M.r
    return {v for v in iter_box(zero, tuple(w - 1 for w in M.window))
            if all(ranks[v[:i] + (x + 1,) + v[i + 1:]] > ranks[v]
                   for i, x in enumerate(v))}


# ---------------------------------------------------------------------------
# one analysis per curve, and the three series read from it
# ---------------------------------------------------------------------------

class Analysis:
    """Everything the series pipelines read about one curve, computed once.

    One run of the blow-up engine gives the resolution graph and the
    conductor of the semigroup of values by Delgado's formula
    c_i = 2 delta_i + sum_{j != i} (C_i . C_j) (Delgado de la Mata,
    Manuscripta Math. 59, 1987).  One jet matrix, built on first use at the
    window conductor + 2, covers every point the series evaluate; reads past
    it go through ``is_member``, which looks up ``members`` of the matrix
    by the conductor rule.  One-branch series are truncated at ``bound``
    (default 2c + 2; r > 1 ignores it), which does not size the matrix.
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
        return JetMatrix(self.curve, tuple(x + 2 for x in self.conductor))

    @cached_property
    def _members(self) -> set:
        return members(self.jet)

    @cached_property
    def _checked_conductor(self) -> ExpVec:
        """The conductor c, once the table agrees with the rule that v is a
        value iff min(v, c) is: c is a value, and so is a point of the shell
        [0, c + 1] outside [0, c] iff its clamp into [0, c] is."""
        c, r, values = self.conductor, self.curve.r, self._members
        top = vec_add(c, (1,) * r)
        bad = [] if c in values else [c]
        bad += [v for v in iter_box((0,) * r, top) if not vec_leq(v, c)
                and (v in values) != (vec_clamp(v, c) in values)]
        if bad:
            raise BoundaryNonzeroError(
                "membership does not follow the conductor %r on the shell "
                "[0, %r] outside [0, %r]: %r" % (c, top, c, bad))
        return c

    def is_member(self, v) -> bool:
        """Whether v >= 0 is a value, read at min(v, c); the first call
        checks the conductor rule on the shell just past the box."""
        return vec_clamp(v, self._checked_conductor) in self._members

    @cached_property
    def fiber_series(self) -> MultiPoly:
        """Sum of fiber Euler characteristics: chi of the projectivized
        extended semigroup, graded by valuation.

        For r > 1 this is a polynomial supported in [0, conductor]; the
        shell just outside that box must vanish (BoundaryNonzeroError
        otherwise).  For r = 1 it is an honest infinite series, truncated
        at ``bound``.
        """
        chi = fiber_eulers(self.jet)
        if self.curve.r == 1:
            # chi(v) = chi(min(v, c)) by the conductor rule
            c = self._checked_conductor[0]
            return {(v,): x for v in range(self.bound + 1)
                    if (x := chi[(min(v, c),)])}
        # chi covers [0, window - 1] = [0, conductor + 1]
        out, bad = {}, []
        for v, x in chi.items():
            if not x:
                continue
            if vec_leq(v, self.conductor):
                out[v] = x
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
        alternating sum of c(v - 1 + 1_I) over subsets I of the branches,
        read on [0, conductor + 1] by ``pprime_coefficients``.  It is built
        from c, not from the fiber series, so that verify's fiber-product
        identity compares two computations."""
        return {v: x for v, x in pprime_coefficients(self.jet).items() if x}

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
                    if self.is_member((v,))}
        return mp_exact_div(self.pprime, {(1,) * r: 1, (0,) * r: -1})
