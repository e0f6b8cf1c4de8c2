"""The multi-index filtration on functions of the curve: jet matrices,
their prefix-rank tables, and the membership, fiber Euler characteristics
and series read from them, and the minimal generators of a branch's
semigroup of values.

Everything reduces to exact ranks of one matrix per curve: the rows are the
jet coordinates of all monomials visible inside the window, each built from
the previous row by one truncated product per branch, and the columns are
(branch, order) pairs in branch-major order.  Since the columns "below v"
form a per-branch prefix, h(v) = dim O/J(v) is the rank below v, and all
other dimensions are alternating sums of that one prefix-rank table, kept
as a flat list in lexicographic order.  The sweep adds one branch's columns
at a time, down to the last two axes, and carries the columns still to come
down the walk already reduced against its basis, so each basis vector it
adds costs one step per carried column that is nonzero at its pivot.  On
the last two axes the (J + 1) x (K + 1) ranks over each basis B are fixed
by the relative position of two flags, the prefixes F_j and G_k of the last
two branches.  One reduction per column of F and of G finds, for each g_l,
the least j with g_l in B + F_j + G_(l-1), and each rank of that slab
counts them (``_slab``), so every entry stays an exact rank, neither filled
by a rule nor taken modulo a prime.  The reads take such a table on a whole
box [0, w] axis by axis (``_along``): the upper chain, the alternating
sum of h(v + 1_I) over the subsets I of the branches, on [0, w] by r
difference sweeps (``upper_chain``), which is minus the fiber Euler
characteristics; the coefficients of P' on [0, c] as that chain less the
lower chain, r more sweeps of the table (``pprime_coefficients``);
membership on [0, w] as a table of bools by comparing each point with its
r successors (``members``); and a branch's minimal generators by one walk
over that table (``minimal_generators``).  Only the nonzero entries of a
series become polynomial terms (``_nonzero``).

One window per curve suffices: the conductor c + 2.  The conductor ideal
t^c * O-bar lies in the local ring, so past c the table is linear,
h(v) = h(min(v, c)) + sum_i max(v_i - c_i, 0), and v is a value iff
min(v, c) is.  An ``Analysis`` therefore sweeps its matrix only on [0, c]
and certifies c from that table and the rank of the whole window; that
honest table is ``ranks``, and nothing fills it past c.  The
certificate's rank h(c + 2) = h(c) + 2r makes the 2r columns (i, c_i),
(i, c_i + 1) independent modulo the span below c, so below any u <= c:
every honest rank on [0, c + 2] keeps the rule.  An honest check
therefore takes one more rank, h(c + 1) = h(c) + r.  Each read takes what
it needs past c from the rule inside the read: membership counts every
step off the top face as rising, and the upper chain, which chi negates
and P' reads, fills the last slice of each of its sweeps by the rule, so
chi vanishes on the faces v_i = c_i for r > 1 (Delta has multidegree
c - 1) and is 1 at c for one branch.  Past c the rule rises by one per
step on each axis, so membership and the one-branch chi repeat their
values at min(v, c), and the reads of two or more differences (P', and
chi for r > 1) vanish.  So every series is the
Alexander polynomial Delta on [0, c], for one branch the differences of
chi or of membership along the axis; the CLI prints Delta / (1 - t).
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, compress, count, islice
from math import gcd, prod
from operator import and_, lt, ne, neg, sub

from .curve import Curve, validate_curve
from .exactmath import (
    MultiPoly,
    iter_box,
    mp_div_one_minus,
    up_integral,
    up_mul_trunc,
)
from .resolution import DEFAULT_BUDGET, _run_blowups


class BoundaryNonzeroError(RuntimeError):
    """The rank table contradicts the conductor it was swept for: h(c) is
    not sum(c) - delta, a step into c rises, or the rank of the whole window
    is not the one the conductor rule predicts (a wrong conductor or a bug
    in the rank table).  The message carries the numbers that decided it."""

    code = "BoundaryNonzero"


class JetMatrix:
    """Jet coordinates over a window of every monomial that is visible in it.

    A monomial x^a y^b is visible when its valuation on some branch i is
    below w_i; all other monomials have identically zero jets.  ``rows``
    follow ``monomials`` in lexicographic order of (a, b).  Row x^a y^b is
    Dx^a Dy^b times the jet of x^a y^b, where Dx (Dy) is the least common
    denominator of the x (y) coefficients over all branches, so every entry
    is an int; scaling a row changes the rank of no set of columns.  Each
    row is built from the one before it, times Dy y_i on each branch i
    (times Dx x_i from (a - 1, 0) when b = 0), truncated at w_i.
    ``columns`` are the columns divided by their content, in branch-major
    order, and ``sweep`` reads every rank from them.
    """

    def __init__(self, curve: Curve, window):
        validate_curve(curve)
        window = tuple(int(x) for x in window)
        if len(window) != curve.r or any(w < 1 for w in window):
            raise ValueError("window must have a positive entry per branch")
        self.curve = curve
        self.window = window
        self.monomials, self.rows = [], []
        # the coordinate change (x, y) -> (Dx x, Dy y) makes every branch
        # integral and scales row x^a y^b by Dx^a Dy^b, which changes no rank
        xs = up_integral([br.x for br in curve.branches])[1]
        ys = up_integral([br.y for br in curve.branches])[1]
        # each jet's terms lie below its window, so a row is a zero row with
        # them written at their branch's offset (the last offset is its length)
        starts = list(accumulate(window, initial=0))
        # x^a y^b is visible iff its jet is nonzero on some branch (leading
        # coefficients never cancel); the visible b form a prefix for each
        # a, and so do the visible a
        xa, a = [{0: 1}] * curve.r, 0
        while any(xa):
            jet, b = xa, 0
            while any(jet):
                self.monomials.append((a, b))
                row = [0] * starts[-1]
                for p, start in zip(jet, starts):
                    for k, x in p.items():
                        row[start + k] = x
                self.rows.append(row)
                jet = [up_mul_trunc(p, y, w) for p, y, w
                       in zip(jet, ys, window)]
                b += 1
            xa = [up_mul_trunc(p, x, w) for p, x, w in zip(xa, xs, window)]
            a += 1
        self.columns = [_primitive(col) for col in zip(*self.rows)]

    def sweep(self, box) -> tuple:
        """The ranks of the columns below every v of [0, box] inside the
        window, in lexicographic order of v, and h(window): one pass, every
        entry an exact rank (the last two axes from J + K eliminations per
        point of the others, ``_slab``), the basis left at the box's top
        corner completed by every branch's rest."""
        ranks, basis = [], []
        starts = accumulate(self.window, initial=0)
        _sweep(ranks, basis, [col for start, n in zip(starts, box)
                              for col in self.columns[start:start + n]], box)
        return ranks, _add_columns(basis, self.columns, self.window, box,
                                   self.window)

    def rank_below(self, v) -> int:
        """The rank of the columns below v, from an empty basis."""
        return _add_columns([], self.columns, self.window, (0,) * len(v), v)


def _primitive(vec) -> list:
    """An integer vector divided by its content (zero stays zero)."""
    g = gcd(*vec)
    return [x // g for x in vec] if g > 1 else list(vec)


def _sweep(ranks, basis, carried, box, i=0) -> None:
    """Append the rank below every point of the box [0, box] whose first i
    coordinates the basis already holds, in lexicographic order.
    ``carried`` holds the first box_j columns of each branch j >= i, in
    branch-major order, each reduced against the basis: add branch i's to
    the basis one at a time, reduce the rest against each vector added, and
    recurse, down to the last two axes, which ``_slab`` reads whole (for one
    branch, one column at a time).  Each frame rebinds its own list and
    copies only the columns a reduction changes, so cutting the basis back
    leaves the list of every frame reduced against the basis it holds.
    The basis is left at the box's top corner."""
    n = box[i]
    if i == len(box) - 1:
        ranks.append(len(basis))
        for col in carried:
            _add_column(basis, col)
            ranks.append(len(basis))
        return
    if i == len(box) - 2:
        _slab(ranks, basis, carried[:n], carried[n:])
        return
    for k in range(n + 1):
        if k:
            del basis[depth:]
            col, carried = carried[0], carried[1:]
            if any(col):
                p = next(j for j, x in enumerate(col) if x)
                basis.append((p, col))
                added = basis[-1:]
                carried = [_reduced(list(x), added) if x[p] else x
                           for x in carried]
        depth = len(basis)
        _sweep(ranks, basis, carried[n - k:], box, i + 1)


def _slab(ranks, basis, f, g) -> None:
    """Append rank(B + F_j + G_k) for j <= J = len(f) and k <= K = len(g),
    in lexicographic order, where B is the basis and F_j, G_k span the
    first j columns of f and the first k of g, from J + K eliminations;
    the basis is left holding B + F_J + G_K.  Every f and g arrives reduced
    against B, so the slab reduces them only against the vectors it adds.

    Every entry is an honest rank: rank(B + F_j + G_k) - rank(B + F_j)
    counts the l <= k with g_l outside B + F_j + G_(l-1), and as these
    spans grow with j, that holds iff j < lambda_l, the least j with g_l
    inside (J + 1 if none).  Each g_l is reduced once against F's echelon
    vectors, each carrying a unit coordinate in the slot J - j of the j at
    which it entered.  The residual and those coordinates form one vector,
    linear in g_l, whose first nonzero entry is its level: J + 1 in the
    residual, j in slot J - j.  Reduced in turn against the vectors kept
    from g_1 ... g_(l-1), so that it leads at none of their leads, it
    leads at the least level that g_l plus any of their combinations
    reaches: lambda_l, or 0 if it vanishes.  (This is the persistence
    pairing of the two flags F_j and G_k over B.)"""
    echelon, J = [], len(f)
    starts = [len(basis)]  # rank(B + F_j), where row j of the slab starts
    for col in f:
        _add_column(echelon, col)
        starts.append(starts[0] + len(echelon))
    lifted = [(p, vec + [0] * (J - j) + [1] + [0] * (j - 1)) for j, (p, vec)
              in zip(compress(count(1), map(ne, starts, starts[1:])),
                     echelon)]
    n, kept, levels = len(g[0]) if g else 0, [], []
    for col in g:
        col = _reduced(list(col) + [0] * J, lifted)
        had = len(kept)
        _add_column(kept, col)
        # the lead of what is kept: in the residual, in slot J - j, or past
        # the last slot (level 0) when nothing is
        p = kept[-1][0] if len(kept) > had else n + J
        levels.append(J + 1 if p < n else J + n - p)
    for j, h in enumerate(starts):
        ranks += accumulate((x > j for x in levels), initial=h)
    # F's echelon vectors and the kept residuals vanish at B's pivots, so
    # they extend its echelon basis to B + F_J + G_K
    basis += echelon + [(p, vec[:n]) for p, vec in kept if p < n]


def _add_columns(basis, columns, window, low, top) -> int:
    """Add every branch i's columns of orders low_i to top_i - 1 to the
    basis (``window`` columns per branch); its rank."""
    for start, lo, hi in zip(accumulate(window, initial=0), low, top):
        for col in columns[start + lo:start + hi]:
            _add_column(basis, col)
    return len(basis)


def _add_column(basis, column) -> None:
    """Reduce a copy of an integer column against the basis (``_reduced``),
    and keep a nonzero remainder."""
    col = _reduced(list(column), basis)
    if any(col):
        basis.append((next(j for j, x in enumerate(col) if x), col))


def _reduced(col, basis) -> list:
    """An integer column reduced in place against the basis, dividing out
    the content after each step.  Each basis vector vanishes at the pivots
    before it, so one pass clears every pivot."""
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


# ---------------------------------------------------------------------------
# whole-table reads: a table is a flat list of values on a box, in
# lexicographic order, with ``shape`` points per axis
# ---------------------------------------------------------------------------

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


def _extend(values, c, top) -> list:
    """The table f(min(v, c)) on [0, top], from a table f on [0, c]: along
    each axis, the slices up to min(top_i, c_i) are kept and the slice at
    c_i repeats past it."""
    shape = [x + 1 for x in c]
    for i in reversed(range(len(c))):
        keep, past = min(top[i], c[i]) + 1, max(top[i] - c[i], 0)
        values = _along(values, shape, i,
                        lambda b, s: b[:keep * s] + b[-s:] * past)
        shape[i] = top[i] + 1
    return values


def _nonzero(values, top) -> MultiPoly:
    """The nonzero entries of a table on [0, top], keyed by their points."""
    return dict(zip(compress(iter_box((0,) * len(top), top), values),
                    filter(None, values)))


def upper_chain(ranks, top) -> list:
    """The alternating sum of h(v + 1_I) over the subsets I of the branches
    at every point v of [0, top], from a rank table h on [0, top]: r
    sweeps, the i-th taking f(v) - f(v + e_i) and filling its last slice,
    the face v_i = top_i, by the conductor rule: -1 on the first axis
    swept, 0 on every later one, where that rise has cancelled.  On the
    conductor's box it is minus chi on the whole of [0, c]; on any box,
    the points below every top face read the table alone."""
    shape = tuple(x + 1 for x in top)
    for i in range(len(top)):
        fill = [-1 if i == 0 else 0]
        ranks = _along(ranks, shape, i, lambda b, s: list(
            map(sub, b, islice(b, s, None))) + fill * s)
    return ranks


def pprime_coefficients(upper, ranks, c) -> list:
    """The alternating sum of d(v - 1 + 1_I) over the subsets I of the
    branches at every point v of [0, c], c the conductor, from the upper
    chain and the honest rank table h on [0, c].  As d(u) = dim
    J(u)/J(u + 1) is h(u + 1) - h(max(u, 0)) (a condition u_i < 0 is
    vacuous), that is the upper chain, the sum of h(v + 1_I), less the
    lower chain, the sum of h(max(v - 1 + 1_I, 0)): r sweeps of the
    table, each taking h(max(v - e_i, 0)) - h(v), a zero slice at
    v_i = 0."""
    shape = tuple(x + 1 for x in c)
    lower = ranks
    for i in range(len(c)):
        lower = _along(lower, shape, i, lambda b, s: [0] * s + list(
            map(sub, b, islice(b, s, None))))
    return list(map(sub, upper, lower))


def members(ranks, top) -> list:
    """Whether each point of [0, top] is a value, as a table of bools read
    axis by axis from the rank table on the same box, where top is at least
    the conductor: some germ takes the exact valuation vector v with every
    leading coefficient nonzero iff each singleton constraint drops the
    dimension, that is ranks[v + e_i] > ranks[v] for every branch i (over an
    infinite field a space is never a finite union of proper subspaces).
    One such rise also makes J(v) nonzero.  A step off the top face
    v_i = top_i rises by the conductor rule, so it counts as rising."""
    shape = tuple(w + 1 for w in top)
    member = [True] * len(ranks)
    for i in range(len(top)):
        rises = _along(ranks, shape, i, lambda b, s: list(map(
            lt, b, islice(b, s, None))) + [True] * s)
        member = list(map(and_, member, rises))
    return member


def minimal_generators(a: Analysis) -> list:
    """Minimal generators of a one-branch analysis: the nonzero members
    below 2c + 3 that are not a sum of two nonzero members (every generator
    is below the conductor plus the multiplicity).  A member v is such a
    sum iff v - g is a member for some generator g < v, so one ascending
    walk over the members finds them all."""
    if a.curve.r != 1:
        raise ValueError("minimal generators are defined for one branch")
    top = 2 * a.conductor[0] + 2
    member = a.members_to((top,))
    gens = []
    for v in compress(range(1, top + 1), member[1:]):
        if not any(member[v - g] for g in gens):
            gens.append(v)
    return gens


def _certified(M: JetMatrix, c, delta) -> list:
    """The table of M swept on [0, c], once that table and the rank of the
    whole window prove c the conductor (else BoundaryNonzeroError).
    h(v) >= sum(v) - delta, with equality iff t^v O-bar lies in O, i.e. iff
    v >= the conductor.  So h(c) = sum(c) - delta proves c >= the
    conductor; h(c - e_i) = h(c) for every i with c_i > 0 proves it
    minimal; and h(window) = h(c) + sum(window - c) catches a c and a delta
    that are wrong together.  At the window c + 2 that rank makes the 2r
    columns (i, c_i), (i, c_i + 1) independent modulo the span below any
    u <= c: every honest rank there keeps the conductor rule."""
    ranks, rank = M.sweep(c)
    h, floor = ranks[-1], sum(c) - delta
    if h != floor:
        raise BoundaryNonzeroError(
            "h(c) = %d at the conductor c = %r, not sum(c) - delta = %s"
            % (h, c, floor))
    # c - e_i lies prod(c[i + 1:] + 1) places before c
    below = [(i + 1, ranks[-1 - prod(x + 1 for x in c[i + 1:])])
             for i, ci in enumerate(c) if ci]
    rose = [(i, x) for i, x in below if x != h]
    if rose:
        raise BoundaryNonzeroError(
            "h(c) = %d at the conductor c = %r rises from (i, h(c - e_i)) "
            "= %r" % (h, c, rose))
    expected = h + sum(w - x for w, x in zip(M.window, c))
    if rank != expected:
        raise BoundaryNonzeroError(
            "the window %r has rank %d, not h(c) + %d = %d at the conductor "
            "c = %r" % (M.window, rank, expected - h, expected, c))
    return ranks


# ---------------------------------------------------------------------------
# one analysis per curve, and the three series read from it
# ---------------------------------------------------------------------------

class Analysis:
    """Everything the series pipelines read about one curve, computed once.

    One run of the blow-up engine gives the resolution graph, and one pass
    over its centers, the infinitely near points p of multiplicities m_i(p)
    and m(p) = sum_i m_i(p), gives the conductor of the semigroup of values
    c_i = sum_p m_i(p) (m(p) - 1) and delta = sum_p m(p) (m(p) - 1) / 2:
    Delgado's c_i = 2 delta_i + sum_{j != i} (C_i . C_j) and delta =
    sum_i delta_i + sum_{i<j} (C_i . C_j) (Delgado de la Mata, Manuscripta
    Math. 59, 1987), summed point by point.  One jet matrix ``jet``, built
    on first use at the window c + 2, is swept only on [0, c]; the
    conductor is certified from that table and the window's rank
    (``_certified``), which keeps every honest rank of [0, c + 2] on the
    conductor rule, and ``ranks`` is that honest table on [0, c].  Every
    read is a flat table on [0, c], in lexicographic order, swept on
    [0, c] itself, and takes what it needs past c from the rule inside its
    sweeps: ``upper``, once per curve, which ``chi`` negates and
    ``pprime`` reads less its lower chain, and ``membership``.  Past c the
    rule rises by one per step on each axis, so P' and the chi of r > 1
    vanish there, while membership and the one-branch chi repeat their
    values at min(v, c): ``members_to`` reads membership there.  Every
    series is the Alexander polynomial Delta.
    """

    def __init__(self, curve: Curve, budget: int = DEFAULT_BUDGET):
        self.curve = curve
        self.graph, centers = _run_blowups(curve, budget)
        c, self.delta = [0] * curve.r, 0
        for mult in centers:
            m = sum(mult.values())
            self.delta += m * (m - 1) // 2
            for i, mi in mult.items():
                c[i - 1] += mi * (m - 1)
        self.conductor = tuple(c)

    @cached_property
    def jet(self) -> JetMatrix:
        """The jet matrix at the window c + 2."""
        c = self.conductor
        if min(c) < 0:
            raise BoundaryNonzeroError(
                "the conductor c = %r has a negative entry" % (c,))
        return JetMatrix(self.curve, tuple(x + 2 for x in c))

    @cached_property
    def ranks(self) -> list:
        """The honest table on [0, c], swept and certified."""
        return _certified(self.jet, self.conductor, self.delta)

    @cached_property
    def upper(self) -> list:
        """The upper chain on [0, c], its faces v_i = c_i filled by the
        conductor rule (``upper_chain``)."""
        return upper_chain(self.ranks, self.conductor)

    @cached_property
    def chi(self) -> list:
        """The fiber Euler characteristics on [0, c], minus the upper chain
        for every r: by the rule they vanish on every face v_i = c_i for
        r > 1 (Delta has multidegree c - 1), and chi(c) = 1 for one
        branch, where h(c + 1) = h(c) + 1."""
        return list(map(neg, self.upper))

    @cached_property
    def membership(self) -> list:
        """Whether each point of [0, c] is a value."""
        return members(self.ranks, self.conductor)

    def members_to(self, top) -> list:
        """Whether each point of [0, top] is a value, read at min(v, c)."""
        return _extend(self.membership, self.conductor, top)

    def _series(self, values) -> MultiPoly:
        """The nonzero terms of a flat table on [0, c]; for r = 1, of its
        product with (1 - t): f(v) - f(v - 1), with f(-1) = 0."""
        if self.curve.r == 1:
            values = list(map(sub, values, [0] + values[:-1]))
        return _nonzero(values, self.conductor)

    @cached_property
    def fiber_series(self) -> MultiPoly:
        """Sum of fiber Euler characteristics: chi of the projectivized
        extended semigroup, graded by valuation, a polynomial on
        [0, conductor].  For r > 1 chi vanishes past c, where the rank
        table is linear.  For r = 1 chi repeats chi(c) past c, and the
        polynomial is its series times (1 - t)."""
        return self._series(self.chi)

    @cached_property
    def pprime(self) -> MultiPoly:
        """The polynomial L_C * prod (t_i - 1): its coefficient at v is the
        alternating sum of c(v - 1 + 1_I) over subsets I of the branches,
        read on [0, conductor] by ``pprime_coefficients``: the upper chain
        less the lower chain, swept from ``ranks`` (P' vanishes past c).
        The lower chain is the one term that chi does not share, minus chi
        shifted by (1, ..., 1), so verify's fiber-product identity checks
        it against chi; P' reads ``upper``, not chi."""
        c = self.conductor
        return _nonzero(pprime_coefficients(self.upper, self.ranks, c), c)

    @cached_property
    def poincare(self) -> MultiPoly:
        """The Poincare polynomial of the multi-index filtration.

        For r > 1: the exact quotient of pprime by t_1*...*t_r - 1, taken
        as -pprime / (1 - t^(1,...,1)) in one pass along the diagonal lines
        (the divisibility is a theorem; a remainder means a bug and raises
        NotDivisibleError).  For r = 1 the Poincare series of the
        filtration is the membership indicator series, and the polynomial
        is its product with (1 - t).
        """
        r = self.curve.r
        if r == 1:
            return self._series(self.membership)
        return mp_div_one_minus({e: -x for e, x in self.pprime.items()},
                                (1,) * r)
