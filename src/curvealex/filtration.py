"""The multi-index filtration on functions of the curve: jet matrices,
their prefix-rank tables, and the membership, fiber Euler characteristics
and series read from them, and the minimal generators of a branch's
semigroup of values.

Everything reduces to exact ranks of one matrix per curve: the rows are
the jet coordinates of all monomials visible inside the window, each built
from the previous row by one truncated product per branch, and the columns
are (branch, order) pairs in branch-major order.  Every vector is kept
sparse, a dict of its nonzero integer entries, and every elimination runs
on that form, over the union of two supports (``_reduced``): on these
matrices a vector is mostly zeros.  Since the columns "below v" form a
per-branch prefix, h(v) = dim O/J(v) is the rank below v, and all other
dimensions are alternating sums of that one prefix-rank table, kept flat
in lexicographic order.  The matrix keeps its rows, {column: value}, and
each single rank, of the whole window or below one v, is one row echelon
of the rows cut there (``_echelon``), which pivots each row on its least
column.  It reduces only the staircase of rows not yet proved dependent:
once x^a y^b reduces to zero, every x^a' y^b' with a' >= a and b' >= b is
a combination of the rows before it, as the jet map to the product of the
C[t]/t^(v_i) is a ring homomorphism, whose kernel is an ideal.  For one
branch the columns below v are a prefix, so one echelon gives the whole
table: h(v), the number of semigroup values below v, is the number of
pivots below v.  For r > 1 the sweep transposes the rows into the columns
below its box, {row: value}, and adds one branch's columns at a time, down
to the last two axes, and carries the columns still to come down the walk
already reduced against those added, so each nonzero one it adds costs one
step per carried column that is nonzero at its pivot; of those added it
keeps only their number, the rank.  On the last two axes the
(J + 1) x (K + 1) ranks over each span B are fixed by the relative
position of two flags, the prefixes F_j and G_k of the last two branches.
One reduction per column of F and of G finds, for each g_l, the least j
with g_l in B + F_j + G_(l-1), and each rank of that slab counts them
(``_slab``), so every entry stays an exact rank, neither filled by a rule
nor taken modulo a prime.  The sweep writes its table into an array of
16-bit entries.  Every read, for every r, takes that table whole, packed
into one int whose slot k, bits 16k to 16k + 15, holds entry k
(``_pack``).  Each read step pairs every slot with its neighbour along one
axis, above or below, by one shift of the int by the axis's stride, and
masks off the face that neighbour leaves (``_neighbour``, the one place
that shifts a table or builds a mask); a fixed number of whole-int
operations then take the difference, a bias added, and the bias alone on
that face (``_step``).  Every slot of the result lies in [0, 2^16), so no
borrow crosses a slot (Lamport's multiple byte processing with full-word
instructions, CACM 18(8), 1975).  chi and P' are r-fold differences of h,
one chain of r steps each (``_chain``), biased by BIAS = 2^15: the fiber
Euler characteristics, minus the alternating sum of h(v + 1_I) over the
subsets I of the branches, on a whole box [0, w], the chain upwards from v
(``chi_chain``); the coefficients of P' on [0, c], the chain downwards
from v, at v - 1 + 1_I, less chi (``pprime_coefficients``).  Membership on
[0, w] is the AND of the r rises to the neighbour above, 0 or 1 in every
slot and 1 on the top face (``members``), and one walk over it finds a
branch's minimal generators (``minimal_generators``).  Only the slots that
differ from the bias become polynomial terms (``_terms``), and a read
becomes a list only for the callers that need every entry (``listed``).
``check_table`` refuses, before the sweep, a table the packed reads cannot
hold, more than MAX_BRANCHES = 14 axes (|P'| <= 2^r must fit beside the
bias) or a rank that may reach 2^15, one of more than MAX_POINTS = 2^31
points, and one whose jet matrix has more than MAX_ROWS = 2^20 rows.

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
step off the top face as rising, and chi, which P' reads, fills the
last slice of each of its steps by the rule, so it vanishes on the faces
v_i = c_i for r > 1 (Delta has multidegree c - 1) and is 1 at c for one
branch.  Past c the rule rises by one per step on each axis, so
membership and the one-branch chi repeat their values at min(v, c)
(``members_in`` lists the values on any box by it), and the reads of two
or more differences (P', and chi for r > 1) vanish.  So
every series is the Alexander polynomial Delta on [0, c], for one branch
the differences of chi or of membership along the axis; the CLI prints
Delta / (1 - t).
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, compress, count, product
from math import gcd, inf, prod
from operator import ne, sub

from .curve import Curve
from .exactmath import (
    MultiPoly,
    iter_box,
    mp_div_one_minus,
    ord_lead,
    up_integral,
    up_mul_trunc,
)
from .resolution import DEFAULT_BUDGET, _run_blowups

# the packed reads keep each value, biased by BIAS, in a 16-bit slot: every
# rank lies below BIAS, and |P'| <= 2^r, so r <= MAX_BRANCHES; a table of
# MAX_POINTS points takes 4 GiB packed; a jet row costs at least its
# monomial and a one-term jet, about 350 bytes, so MAX_ROWS rows take about
# 0.4 GB before any sweep
BIAS = 1 << 15
MAX_BRANCHES = 14
MAX_POINTS = 1 << 31
MAX_ROWS = 1 << 20


class BoundaryNonzeroError(RuntimeError):
    """The rank table contradicts the conductor it was swept for: h(c) is
    not sum(c) - delta, a step into c rises, or the rank of the whole window
    is not the one the conductor rule predicts (a wrong conductor or a bug
    in the rank table).  The message carries the numbers that decided it."""

    code = "BoundaryNonzero"


class TableTooLargeError(RuntimeError):
    """A rank table that the packed reads cannot hold or that would not fit
    in memory, refused before the sweep; the message carries the numbers
    that decided it."""

    code = "TableTooLarge"


class JetMatrix:
    """Jet coordinates over a window of every monomial that is visible in it.

    A monomial x^a y^b is visible when its valuation on some branch i is
    below w_i; all other monomials have identically zero jets.  Row k is
    the k-th of ``monomials``, in lexicographic order of (a, b).  Row
    x^a y^b is Dx^a Dy^b times the jet of x^a y^b, where Dx (Dy) is the
    least common denominator of the x (y) coefficients over all branches,
    so every entry is an int; scaling a row changes the rank of no set of
    columns.  Each jet is built from the one before it, times Dy y_i on
    each branch i (times Dx x_i from (a - 1, 0) when b = 0), truncated at
    w_i.  ``rows`` keeps those jets, one dict per row holding no zero,
    term k of branch i at the column starts_i + k, where starts_i is the
    sum of the windows before branch i (for one branch the jets as they
    stand, {order: value}), and is the matrix's one copy: every single
    rank is one echelon of them, and for r > 1 ``sweep`` transposes them
    into the columns below its box for that sweep alone (``_columns``).
    """

    def __init__(self, curve: Curve, window):
        window = tuple(int(x) for x in window)
        if len(window) != curve.r or any(w < 1 for w in window):
            raise ValueError("window must have a positive entry per branch")
        self.curve = curve
        self.window = window
        self.monomials = []
        # the coordinate change (x, y) -> (Dx x, Dy y) makes every branch
        # integral and scales row x^a y^b by Dx^a Dy^b, which changes no rank
        xs = up_integral([br.x for br in curve.branches])[1]
        ys = up_integral([br.y for br in curve.branches])[1]
        # x^a y^b is visible iff its jet is nonzero on some branch (leading
        # coefficients never cancel); the visible b form a prefix for each
        # a, and so do the visible a
        jets = []
        xa, a = [{0: 1}] * curve.r, 0
        while any(xa):
            jet, b = xa, 0
            while any(jet):
                self.monomials.append((a, b))
                jets.append(jet)
                jet = [up_mul_trunc(p, y, w) for p, y, w
                       in zip(jet, ys, window)]
                b += 1
            xa = [up_mul_trunc(p, x, w) for p, x, w in zip(xa, xs, window)]
            a += 1
        # each jet's terms lie below its window: term k of branch i goes to
        # column starts[i] + k, and one branch's jets stand as they are
        starts = list(accumulate(window, initial=0))
        self.rows = [p for p, in jets] if curve.r == 1 else [
            {start + k: x for p, start in zip(jet, starts)
             for k, x in p.items()} for jet in jets]

    def sweep(self, box) -> tuple:
        """The ranks of the columns below every v of [0, box] inside the
        window, in lexicographic order of v, as an array of 16-bit
        entries, and h(window), every entry an exact rank.  h(window) is
        the number of pivots of one echelon of the rows (``_echelon``).
        For one branch the table comes from that echelon too: cutting the
        rows at v commutes with row operations, and cut there its rows of
        pivot below v stay independent while the others vanish, so h(v) is
        the number of pivots below v.  For r > 1 it comes from one pass
        over the columns below the box, built from the rows for this sweep
        alone (``_columns``), the last two axes from J + K eliminations per
        point of the others (``_slab``).  A table the packed reads cannot
        hold is refused first (``check_table``)."""
        rows = len(self.monomials)
        check_table(rows, box)
        pivots = _echelon(self.rows, self.monomials)
        if self.curve.r == 1:
            below = map(pivots.__contains__, range(box[0]))
            return array("H", accumulate(below, initial=0)), len(pivots)
        ranks = array("H")
        _sweep(ranks, 0, _columns(self.rows, self.window, box), box, rows)
        return ranks, len(pivots)

    def rank_below(self, v) -> int:
        """The rank of the columns below v, v inside the window: the pivots
        of one echelon of the rows cut at v (``_echelon``)."""
        below = {start + k for start, x
                 in zip(accumulate(self.window, initial=0), v)
                 for k in range(x)}
        return len(_echelon([{k: x for k, x in row.items() if k in below}
                             for row in self.rows], self.monomials))


def visible_rows(curve: Curve, window) -> int:
    """The rows of the ``JetMatrix`` at the window, from the branch orders
    alone: x^a y^b is visible iff a ord x_i + b ord y_i < w_i on some
    branch i, so for each a the visible b are the n(a) = max_i ceil((w_i -
    a ord x_i) / ord y_i) > 0 below the ceiling of the upper envelope of r
    decreasing lines.  An order past w_i counts as w_i (a coordinate that
    is 0 has order infinity).  Each line of the envelope is on top over one
    run of a, to its first crossing with a less steep one, and the sum of
    n(a) over that run is one floor sum (``_floor_sum``): O(r^2 + r log w)
    steps, however many a there are."""
    lines = [(min(ord_lead(br.x)[0], w), min(ord_lead(br.y)[0], w), w)
             for br, w in zip(curve.branches, window)]
    rows, a = 0, 0
    while True:
        # a line on top at a
        x, y, w = max(lines, key=lambda line: Fraction(line[2] - a * line[0],
                                                      line[1]))
        if a * x >= w:
            return rows  # every line is <= 0 from a on
        # on top, and positive, up to the first crossing with a less steep
        # line j: (w - a x) / y >= (w_j - a x_j) / y_j iff a d <= w y_j -
        # w_j y, where d = x y_j - x_j y > 0; that holds at a, so end >= a
        end = min([(w - 1) // x] + [(w * yj - wj * y) // d for xj, yj, wj
                                    in lines if (d := x * yj - xj * y) > 0])
        # sum of ceil((w - u x) / y) over u = a ... end, summed from end
        rows += _floor_sum(end - a + 1, y, x, w - end * x + y - 1)
        a = end + 1


def _floor_sum(n, m, a, b) -> int:
    """The sum of floor((a k + b) / m) over k = 0 ... n - 1, for n >= 0,
    m >= 1 and a, b >= 0, by the Euclid-like reduction that swaps the roles
    of a and m (as in the AtCoder Library's floor_sum)."""
    total = 0
    while n:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            break
        (n, b), m, a = divmod(top, m), a, m
    return total


def check_table(rows, box) -> None:
    """Refuse (TableTooLargeError) a rank table on [0, box], of a jet matrix
    of that many rows (``visible_rows`` counts them before it is built),
    that the packed reads cannot hold (more than MAX_BRANCHES axes, or a
    rank that may reach BIAS: h(v) <= rows and h(v) <= sum(v)), of more
    than MAX_POINTS points or of more than MAX_ROWS rows."""
    r, points = len(box), prod(x + 1 for x in box)
    if r > MAX_BRANCHES:
        raise TableTooLargeError(
            "a rank table of r = %d branches: the packed reads hold "
            "|P'| <= 2^r only for r <= %d" % (r, MAX_BRANCHES))
    if points > MAX_POINTS:
        raise TableTooLargeError(
            "the rank table of r = %d branches on the box [0, %r] has "
            "%d points, more than 2^31 = %d"
            % (r, tuple(box), points, MAX_POINTS))
    if min(rows, sum(box)) >= BIAS:
        raise TableTooLargeError(
            "ranks up to min(rows, sum(box)) = min(%d, %d) on the box "
            "[0, %r] reach 2^15 = %d, past a 16-bit slot of the packed "
            "reads" % (rows, sum(box), tuple(box), BIAS))
    if rows > MAX_ROWS:
        raise TableTooLargeError(
            "the jet matrix of the rank table on the box [0, %r] has %d "
            "rows, more than 2^20 = %d" % (tuple(box), rows, MAX_ROWS))


def _echelon(rows, monomials) -> dict:
    """Jet rows, x^a y^b in lexicographic order of (a, b), each cut to the
    columns below some v, in a row echelon that pivots each row on its
    least column: {pivot: row}.  Each row is reduced against the row whose
    pivot is its least column (``_reduced``) until that column is no
    pivot, where it becomes one, or nothing is left.  A row that reduces to
    zero is a relation x^a y^b = a combination of lex-earlier monomials
    mod t^(v_i) on every branch i, an invisible one being 0 there; the jet
    map is a ring homomorphism, so times x^i y^j it makes x^(a+i) y^(b+j) a
    combination of monomials lex-earlier than it.  So every row (a', b')
    with a' >= a and b' >= b lies in the span of the rows before it and adds
    no pivot: only the staircase below the least b of such a row is
    reduced."""
    basis, dead = {}, inf
    for (_, b), row in zip(monomials, rows):
        if b >= dead:
            continue
        vec = dict(row)
        while vec:
            p = min(vec)
            if p not in basis:
                basis[p] = vec
                break
            _reduced(vec, ((p, basis[p]),))
        else:  # reduced to zero
            dead = b
    return basis


def _columns(rows, window, box) -> list:
    """The columns (i, k), k < box_i, of jet rows at the window, in
    branch-major order: one dict {row: value} per column, holding no zero,
    divided by the gcd of its values.  The columns past the box are
    transposed here but never made primitive, and are freed on return."""
    starts = list(accumulate(window, initial=0))
    columns = [{} for _ in range(starts[-1])]
    for row, vec in enumerate(rows):
        for k, x in vec.items():
            columns[k][row] = x
    return [_primitive(col) for start, n in zip(starts, box)
            for col in columns[start:start + n]]


def _primitive(vec) -> dict:
    """A sparse integer vector divided by the gcd of its values."""
    g = gcd(*vec.values())
    return {k: x // g for k, x in vec.items()} if g > 1 else vec


def _sweep(ranks, h, carried, box, rows, i=0) -> None:
    """Append the rank below every point of the box [0, box] whose first i
    coordinates are fixed, in lexicographic order, where the columns below
    those coordinates have rank h.  ``carried`` holds the first box_j
    columns of each branch j >= i, in branch-major order, each reduced
    against an echelon basis of those columns: take branch i's one at a
    time, each nonzero one a basis vector that raises h by one and against
    which the rest are reduced, and recurse, down to the last two axes,
    which ``_slab`` reads whole (r > 1; one branch's table is
    ``_echelon``'s); ``rows``, the number of jet rows, places the slab's
    slot keys.  Each frame rebinds its own list and copies only the columns
    a reduction changes, so the list each frame passes down stays reduced
    against every basis vector above it; only their number is kept."""
    n = box[i]
    if i == len(box) - 2:
        _slab(ranks, h, carried[:n], carried[n:], rows)
        return
    for k in range(n + 1):
        if k:
            col, carried = carried[0], carried[1:]
            if col:
                h += 1
                p = min(col)
                added = ((p, col),)
                carried = [_reduced(dict(x), added) if p in x else x
                           for x in carried]
        _sweep(ranks, h, carried[n - k:], box, rows, i + 1)


def _slab(ranks, h, f, g, n) -> None:
    """Append rank(B + F_j + G_k) for j <= J = len(f) and k <= K = len(g),
    in lexicographic order, where B is a span of rank h and F_j, G_k span
    the first j columns of f and the first k of g, vectors with keys below
    n, from J + K eliminations.  Every f and g arrives reduced against an
    echelon basis of B, so the slab reduces them only against the vectors
    it adds.

    Every entry is an honest rank: rank(B + F_j + G_k) - rank(B + F_j)
    counts the l <= k with g_l outside B + F_j + G_(l-1), and as these
    spans grow with j, that holds iff j < lambda_l, the least j with g_l
    inside (J + 1 if none).  Each g_l is reduced once against F's echelon
    vectors, each carrying a unit coordinate at the slot key n + J - j of
    the j at which it entered.  The residual and those coordinates form one
    vector, linear in g_l, whose least key is its level: J + 1 in the
    residual, j at slot n + J - j.  Reduced in turn against the vectors
    kept from g_1 ... g_(l-1), so that it leads at none of their leads, it
    leads at the least level that g_l plus any of their combinations
    reaches: lambda_l, or 0 if it vanishes.  (This is the persistence
    pairing of the two flags F_j and G_k over B.)"""
    echelon, J = [], len(f)
    starts = [h]  # rank(B + F_j), where row j of the slab starts
    for col in f:
        _add_column(echelon, col)
        starts.append(starts[0] + len(echelon))
    lifted = [(p, {**vec, n + J - j: 1}) for j, (p, vec)
              in zip(compress(count(1), map(ne, starts, starts[1:])),
                     echelon)]
    kept, levels = [], []
    for col in g:
        col = _reduced(_reduced(dict(col), lifted), kept)
        # its lead: in the residual, at slot n + J - j, or past the last
        # slot (level 0) when nothing is left
        p = min(col) if col else n + J
        if col:
            kept.append((p, col))
        levels.append(J + 1 if p < n else J + n - p)
    rows = []
    for j, start in enumerate(starts):
        rows += accumulate((x > j for x in levels), initial=start)
    ranks.fromlist(rows)  # one resize of the array per slab


def _add_column(basis, column) -> None:
    """Reduce a copy of a sparse integer column against the basis
    (``_reduced``), and keep a nonzero remainder with its pivot."""
    col = _reduced(dict(column), basis)
    if col:
        basis.append((min(col), col))


def _reduced(col, basis) -> dict:
    """A sparse integer column, a dict {row: value} that holds no zero,
    reduced in place against the basis: each step takes s * col - t * vec
    over the union of their keys, drops the zeros and divides by the
    content of the values.  Each basis vector (pivot p, its least key)
    vanishes at the pivots before it, so one pass clears every pivot."""
    for p, vec in basis:
        x = col.get(p)
        if x is None:
            continue
        v = vec[p]
        g = gcd(x, v)
        s, t = v // g, x // g
        if s != 1:
            for k in col:
                col[k] *= s
        for k, y in vec.items():
            y = col.get(k, 0) - t * y
            if y:
                col[k] = y
            else:
                del col[k]
        g = gcd(*col.values())
        if g > 1:
            for k in col:
                col[k] //= g
    return col


# ---------------------------------------------------------------------------
# whole-table reads: a table holds one value per point of a box, in
# lexicographic order, with ``shape`` points per axis.  For r > 1 a read is
# packed: the value at slot k lies, biased by BIAS, in bits 16k to 16k + 15
# of one int, and every read step is a fixed number of whole-int operations
# ---------------------------------------------------------------------------

def _pack(ranks) -> int:
    """A rank table, each entry below BIAS, in 16-bit slots of one int."""
    table = array("H", ranks)  # a copy, byteswapped on a big-endian host
    if sys.byteorder == "big":
        table.byteswap()
    return int.from_bytes(table, "little")


def _neighbour(f, top, i, up) -> tuple:
    """A packed table f on [0, top] shifted by axis i's stride, each slot
    then holding f at its neighbour v + e_i (``up``) or v - e_i, and the
    keep mask of the face that neighbour leaves, v_i = top_i or v_i = 0:
    0xffff in every slot off that face and 0 on it, one block repeated."""
    s = prod(x + 1 for x in top[i + 1:])
    block, face = b"\xff\xff" * (s * top[i]), bytes(2 * s)
    block = block + face if up else face + block
    keep = int.from_bytes(block * prod(x + 1 for x in top[:i]), "little")
    return (f >> 16 * s if up else f << 16 * s), keep


def _step(a, b, keep, bias) -> int:
    """bias + a - b in every slot that keep holds, bias alone in the
    others.  a and b hold one table, one of them shifted, both biased or
    neither, and every slot of the result lies in [0, 2^16): no borrow
    crosses a slot, and the carries in between cancel."""
    return (a & keep) + bias - (b & keep)


def _repeated(x, n) -> int:
    """The int whose n slots each hold x."""
    return int.from_bytes(x.to_bytes(2, "little") * n, "little")


@lru_cache(maxsize=1)
def _bias(n) -> int:
    """BIAS in each of n slots, built once per table size and shared by
    every read of the table (only the last size's is kept)."""
    return _repeated(BIAS, n)


def _slots(values, n, code="H") -> array:
    """The n 16-bit slots of a packed int, as an array of that type code."""
    slots = array(code, values.to_bytes(2 * n, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _signed(values, n) -> array:
    """The n slots of a packed read less the bias, as signed values: XOR
    with the bias turns x + BIAS into x in two's complement."""
    return _slots(values ^ _bias(n), n, "h")


def listed(values, top) -> list:
    """Every entry of a read on [0, top], as a list."""
    return _signed(values, prod(x + 1 for x in top)).tolist()


def _terms(values, top) -> MultiPoly:
    """The nonzero entries of a read on [0, top], keyed by their points:
    only the slots that differ from the bias are unpacked, each point by
    divmod from its slot."""
    shape = tuple(x + 1 for x in reversed(top))
    slots, terms = _signed(values, prod(shape)), {}
    for k in compress(range(len(slots)), slots):
        point, rest = [], k
        for n in shape:
            rest, x = divmod(rest, n)
            point.append(x)
        terms[tuple(reversed(point))] = slots[k]
    return terms


def _chain(ranks, top, up, bias) -> int:
    """r difference steps of a rank table h on [0, top], packed and biased
    by ``bias``, BIAS in every slot: step i pairs every slot with its
    neighbour v + e_i (``up``) or v - e_i, the bias alone on the face that
    neighbour leaves (``_neighbour``).  The first step takes each pair's
    rise, h at its higher point less h at its lower one, and every later
    one minus the rise: each sign is its operands' order.  Upwards, a 1 is
    ORed into the bias of the first step's face v_0 = top_0, the table's
    last prod(top_j + 1, j > 0) slots: the conductor rule's rise there."""
    f = _pack(ranks)
    for i in range(len(top)):
        g, keep = _neighbour(f, top, i, up)
        # g holds the higher point of each pair iff up
        f = _step(g, f, keep, bias) if up == (not i) else \
            _step(f, g, keep, bias)
        del g  # freed before the next shift makes its copy
        if up and not i:
            face = len(ranks) // (top[0] + 1)
            f |= _repeated(1, face) << 16 * (len(ranks) - face)
    return f


def chi_chain(ranks, top) -> int:
    """chi(v), minus the sum of (-1)^|I| h(v + 1_I) over the subsets I of
    the branches, at every point v of [0, top], from a rank table h on
    [0, top], packed: the chain upwards (``_chain``), r steps, the first
    taking f(v + e_0) - f(v) and every later one f(v) - f(v + e_i), each
    filling its last slice, the face v_i = top_i, by the conductor rule: 1
    on the first axis, 0 on every later one, where that rise has cancelled
    (the next step cancels the first face's constant 1).  So chi(c) = 1 for
    one branch, and chi vanishes on the faces for r > 1.  On the
    conductor's box it is chi on the whole of [0, c]; on any box, the
    points below every top face read the table alone."""
    return _chain(ranks, top, True, _bias(len(ranks)))


def pprime_coefficients(chi, ranks, c) -> int:
    """The alternating sum of d(v - 1 + 1_I) over the subsets I of the
    branches at every point v of [0, c], c the conductor, from chi (as
    ``chi_chain`` reads it) and the honest rank table h on [0, c].  As
    d(u) = dim J(u)/J(u + 1) is h(u + 1) - h(max(u, 0)) (a condition
    u_i < 0 is vacuous), that is the sum of h(v + 1_I), -chi, less the
    lower chain, the sum of h(max(v - 1 + 1_I, 0)).  Its r steps of the
    table each start with a zero slice at v_i = 0; the first takes
    h(v) - h(max(v - e_0, 0)), the later ones h(max(v - e_i, 0)) - h(v), so
    they give minus that chain, and P' is what they give less chi: the
    chain downwards (``_chain``), packed."""
    bias = _bias(len(ranks))
    return _chain(ranks, c, False, bias) + bias - chi


def members(ranks, top) -> list:
    """Whether each point of [0, top] is a value, as a table of bools read
    from the rank table on the same box, where top is at least the
    conductor: some germ takes the exact valuation vector v with every
    leading coefficient nonzero iff each singleton constraint drops the
    dimension, that is ranks[v + e_i] > ranks[v] for every branch i (over an
    infinite field a space is never a finite union of proper subspaces).
    One such rise also makes J(v) nonzero.  A step off the top face
    v_i = top_i rises by the conductor rule, so it counts as rising.
    Membership, true at first, is ANDed with each rise, 0 or 1 in every
    slot, one packed step to the neighbour above (``_neighbour``) off its
    face."""
    table = _pack(ranks)
    member = _repeated(1, len(ranks))
    for i in range(len(top)):
        above, keep = _neighbour(table, top, i, True)
        # the bias is member itself on the face, so the AND keeps it there
        member &= _step(above, table, keep, member - (member & keep))
        del above, keep  # freed before the next shift and mask
    return list(map(bool, _slots(member, len(ranks))))


def minimal_generators(a: Analysis) -> list:
    """Minimal generators of a one-branch analysis: the nonzero members
    up to c + m, m the least nonzero member, that are not a sum of two
    nonzero members.  Every generator is at most c + m: a member v > c + m
    is m plus the nonzero member v - m > c, and c + m is m + c when c > 0
    (the smooth branch, c = 0, has the one generator 1 = c + m).  A member
    v is such a sum iff v - g is a member for some generator g < v, so one
    ascending walk over the members finds them all."""
    if a.curve.r != 1:
        raise ValueError("minimal generators are defined for one branch")
    c = a.conductor[0]
    # v is a value iff min(v, c) is: True on (c, 2c + 1], past c + m
    member = a.membership + [True] * (c + 1)
    top = c + member.index(True, 1)
    gens = []
    for v in compress(range(1, top + 1), member[1:]):
        if not any(member[v - g] for g in gens):
            gens.append(v)
    return gens


def _times_one_minus(values) -> MultiPoly:
    """The nonzero terms of (1 - t) times a one-branch read on [0, c], as a
    list: f(v) - f(v - 1), with f(-1) = 0."""
    return {(v,): x for v, x in enumerate(map(sub, values, [0, *values]))
            if x}


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
    on first use at the window c + 2, is swept only on [0, c]: ``ranks``,
    certified (``_certified``).  Every read is a table on [0, c] that takes
    what it needs past c from the conductor rule inside its steps:
    ``chi_table`` (packed), which ``pprime`` reads, and the lists ``chi``
    and ``membership``.  Past c, P' and the chi of r > 1
    vanish, and membership and the one-branch chi repeat their values at
    min(v, c), by which ``members_in`` lists the values on any box.  Every
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
    def ranks(self) -> array:
        """The honest table on [0, c], swept and certified."""
        return _certified(self.jet, self.conductor, self.delta)

    @cached_property
    def chi_table(self) -> int:
        """The fiber Euler characteristics on [0, c], packed, read once per
        curve (``chi_chain``), their faces v_i = c_i filled by the
        conductor rule: they vanish there for r > 1 (Delta has multidegree
        c - 1), and chi(c) = 1 for one branch, where h(c + 1) = h(c) + 1."""
        return chi_chain(self.ranks, self.conductor)

    @cached_property
    def chi(self) -> list:
        """The fiber Euler characteristics on [0, c], as a list."""
        return listed(self.chi_table, self.conductor)

    @cached_property
    def membership(self) -> list:
        """Whether each point of [0, c] is a value, as a list."""
        return members(self.ranks, self.conductor)

    def members_in(self, top) -> list:
        """The points of [0, top] that are values, in lexicographic order.
        v is a value iff min(v, c) is, so along each axis i a top_i below
        c_i cuts the members past it, and each member u on the face
        u_i = c_i repeats from c_i + 1 to top_i, one product per member."""
        c = self.conductor
        points = list(compress(iter_box((0,) * len(c), c), self.membership))
        for i, (ci, ti) in enumerate(zip(c, top)):
            points = [u for u in points if u[i] <= ti]
            for u in [u for u in points if u[i] == ci]:
                points += product(*zip(u[:i]), range(ci + 1, ti + 1),
                                  *zip(u[i + 1:]))
        return sorted(points)

    @cached_property
    def fiber_series(self) -> MultiPoly:
        """Sum of fiber Euler characteristics: chi of the projectivized
        extended semigroup, graded by valuation, a polynomial on
        [0, conductor].  For r > 1 chi vanishes past c, where the rank
        table is linear.  For r = 1 chi repeats chi(c) past c, and the
        polynomial is its series times (1 - t), from the list ``chi``."""
        if self.curve.r == 1:
            return _times_one_minus(self.chi)
        return _terms(self.chi_table, self.conductor)

    @cached_property
    def pprime(self) -> MultiPoly:
        """The polynomial L_C * prod (t_i - 1): its coefficient at v is the
        alternating sum of c(v - 1 + 1_I) over subsets I of the branches,
        read on [0, conductor] by ``pprime_coefficients``: the lower chain,
        swept from ``ranks``, less chi (P' vanishes past c).  The lower
        chain is the one term that chi does not give, chi shifted by
        (1, ..., 1), so verify's fiber-product identity checks it against
        chi; a wrong chi moves P' too."""
        c = self.conductor
        return _terms(pprime_coefficients(self.chi_table, self.ranks, c), c)

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
            return _times_one_minus(self.membership)
        return mp_div_one_minus({e: -x for e, x in self.pprime.items()},
                                (1,) * r)
