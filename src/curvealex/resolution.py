"""Minimal embedded resolution of a parametrized plane curve germ by
iterated blow-ups, plus the dual-graph queries built on it.

Local model
-----------
Every infinitely near point carries its own affine chart.  Each resident
branch is parametrized there by a pair of rational functions p(tau)/q(tau)
with q(0) != 0 (the class :class:`RatFunc`); this family is closed under the
two blow-up substitutions, so the whole recursion runs with no series
truncation at all.

At any point the incident exceptional divisors (at most two, always meeting
transversally) have local equation u = 0 or v = 0, and this stays true after
every blow-up:

* x-chart, (x, y) = (u, u*v): the new divisor is {u = 0}; an old divisor
  {y = 0} reappears as {v = 0} at the direction-0 point; an old {x = 0}
  moves to the y-chart.
* y-chart, (x, y) = (u*v, v): the new divisor is {v = 0}; an old {x = 0}
  reappears as {u = 0} at the origin.

A resident lands on the new divisor at direction y/x evaluated at tau = 0
(INF when x vanishes to higher order); residents regroup by that exact
rational value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .curve import Curve, validate_curve
from .exactmath import (
    INF,
    ExpVec,
    MultiPoly,
    UniPoly,
    expand_truncated,
    mp_const,
    mp_exact_div,
    mp_mul,
    mp_one_minus,
    ord_lead,
    up_mul,
    up_shift_down,
    up_sub,
    up_scale,
)

DEFAULT_BUDGET = 64


class BudgetExceededError(RuntimeError):
    """Two residents failed to separate: coincident branches (non-reduced
    input) or an absurdly deep singularity."""

    code = "BudgetExceeded"


class GraphError(ValueError):
    code = "GraphError"


class RatFunc:
    """A germ of one local coordinate along a branch: num/den with den(0) != 0,
    read as a power series in tau."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly | None = None):
        self.num = dict(num)
        self.den = dict(den) if den is not None else {0: Fraction(1)}
        if self.den.get(0, 0) == 0:
            raise ValueError("denominator must be a unit at tau = 0")

    def order(self):
        return ord_lead(self.num)[0]

    def lead(self) -> Fraction:
        o, c = ord_lead(self.num)
        if c is None:
            raise ZeroDivisionError("leading coefficient of the zero series")
        return c / self.den[0]

    def div(self, other: "RatFunc") -> "RatFunc":
        """Quotient self/other; requires order(self) >= order(other)."""
        k = other.order()
        if k == INF:
            raise ZeroDivisionError("division by an identically zero coordinate")
        if self.order() < k:
            raise ValueError("quotient would have a pole at tau = 0")
        num = up_shift_down(self.num, k) if k else dict(self.num)
        onum = up_shift_down(other.num, k) if k else dict(other.num)
        return RatFunc(up_mul(num, other.den), up_mul(self.den, onum))

    def sub_const(self, c: Fraction) -> "RatFunc":
        if not c:
            return self
        return RatFunc(up_sub(self.num, up_scale(self.den, c)), self.den)


@dataclass
class ResGraph:
    """Dual graph of an embedded resolution: one vertex per exceptional
    component with its multiplicity vector, one arrow per strict transform."""

    r: int
    vertices: dict  # id -> ExpVec, in creation order
    edges: set  # of sorted id pairs
    arrows: list  # of (vertex id, branch id 1..r)
    root: int

    def degree(self, sid: int) -> int:
        if sid not in self.vertices:
            raise GraphError("unknown vertex id %r" % (sid,))
        d = sum(1 for e in self.edges if sid in e)
        d += sum(1 for v, _ in self.arrows if v == sid)
        return d

    def neighbors(self, sid: int):
        out = []
        for a, b in self.edges:
            if a == sid:
                out.append(b)
            elif b == sid:
                out.append(a)
        return sorted(out)


def chi_open(g: ResGraph, sid: int) -> int:
    """Euler characteristic of the smooth part of one exceptional component:
    a projective line minus its intersection points with the rest of the
    total transform."""
    return 2 - g.degree(sid)


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
        for u in g.neighbors(v):
            if u not in parent:
                parent[u] = v
                depth[u] = depth[v] + 1
                queue.append(u)
    if len(parent) != len(g.vertices):
        raise GraphError("graph is not connected")

    dead = frozenset(v for v in g.vertices if g.degree(v) == 1)
    stars = {v for v in g.vertices if g.degree(v) >= 3}

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


# ---------------------------------------------------------------------------
# the blow-up engine
# ---------------------------------------------------------------------------

class _Point:
    """An infinitely near point: resident strict transforms plus the
    exceptional divisors through it (at most 2, distinct axes)."""

    __slots__ = ("residents", "divisors", "depth")

    def __init__(self, residents, divisors, depth):
        self.residents = residents  # list of (branch id, RatFunc x, RatFunc y)
        self.divisors = divisors  # list of (vertex id, "x" | "y")
        self.depth = depth
        for _, fx, fy in residents:
            assert min(fx.order(), fy.order()) >= 1, "resident misses the point"


def _settled(pt: _Point) -> bool:
    # Normal crossing reached at this point: a single smooth resident meeting
    # a single divisor transversally.
    if len(pt.residents) != 1 or len(pt.divisors) != 1:
        return False
    _, fx, fy = pt.residents[0]
    _, axis = pt.divisors[0]
    along = fx.order() if axis == "x" else fy.order()
    return along == 1


def _direction(fx: RatFunc, fy: RatFunc):
    ox, oy = fx.order(), fy.order()
    if oy > ox:
        return Fraction(0)
    if oy == ox:
        return fy.lead() / fx.lead()
    return INF


def _run_blowups(c: Curve, budget: int, extra: int = 0):
    """Blow up until every strict transform is settled; returns the dual
    graph together with the per-center multiplicity log (branch id -> local
    multiplicity of its strict transform at that center)."""
    validate_curve(c)
    r = c.r
    vertices = {}
    edges = set()
    arrows = {}
    centers = []
    start = [(i, RatFunc(b.x), RatFunc(b.y))
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
        mult = {bid: min(fx.order(), fy.order())
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
                res = [(bid, fx.div(fy), fy) for bid, fx, fy in members]
                divs = [(nid, "y")]
                if "x" in old_axis:
                    divs.append((old_axis["x"], "x"))
            else:
                res = [(bid, fx, fy.div(fx).sub_const(d))
                       for bid, fx, fy in members]
                divs = [(nid, "x")]
                if d == 0 and "y" in old_axis:
                    divs.append((old_axis["y"], "y"))
            pending.append(_Point(res, divs, pt.depth + 1))

    if sorted(arrows) != list(range(1, r + 1)):
        raise GraphError("arrow bookkeeping failed: %r" % (arrows,))

    # Optional extra blow-ups at free smooth points of the total transform
    # (points of one exceptional component only): each adds a dead-end vertex
    # carrying the multiplicity of its target and must not change the
    # Eisenbud-Neumann product.
    targets = sorted(vertices)
    for k in range(extra):
        target = targets[k % len(targets)]
        nid += 1
        vertices[nid] = vertices[target]
        edges.add(tuple(sorted((target, nid))))
        centers.append({})

    graph = ResGraph(
        r=r,
        vertices=vertices,
        edges=edges,
        arrows=sorted(((v, b) for b, v in arrows.items()),
                      key=lambda t: (t[1], t[0])),
        root=1,
    )
    return graph, centers


def resolve(c: Curve, budget: int = DEFAULT_BUDGET, extra: int = 0) -> ResGraph:
    """Minimal embedded resolution of the curve; ``extra`` forces additional
    blow-ups at free smooth points after normal crossings are reached."""
    return _run_blowups(c, budget, extra)[0]


def _noether_sums(centers, r: int):
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
    return _noether_sums(_run_blowups(c, budget)[1], c.r)[1]


# ---------------------------------------------------------------------------
# the Eisenbud-Neumann product
# ---------------------------------------------------------------------------

def graph_conductor_r1(g: ResGraph) -> int:
    """Conductor of an irreducible branch read off its dual graph:
    1 + sum of n_d * m^d over dead-end tails minus the root multiplicity."""
    if g.r != 1:
        raise GraphError("tail formula applies to one-branch graphs only")
    vc = classify_graph(g)
    total = 0
    for d in sorted(vc.dead_ends):
        st = vc.nearest_star_below(d)
        if st is None:
            continue
        n = _tail_quotient(g.vertices[st], g.vertices[d]) - 1
        total += n * g.vertices[d][0]
    root_m = g.vertices[g.root][0]
    return max(total - root_m + 1, 0)


def _tail_quotient(m_star: ExpVec, m_dead: ExpVec) -> int:
    quot = None
    for a, b in zip(m_star, m_dead):
        if a % b:
            raise GraphError(
                "star multiplicity %r is not a multiple of dead end %r"
                % (m_star, m_dead))
        q = a // b
        if quot is not None and q != quot:
            raise GraphError(
                "inconsistent tail quotient between %r and %r"
                % (m_star, m_dead))
        quot = q
    return quot


def en_alexander(g: ResGraph, bound: int | None = None) -> MultiPoly:
    """Alexander polynomial from the resolution graph:
    the product over vertices of (1 - t^m)^(-chi of the smooth part).

    For r > 1 the negative exponents are cleared by exact division and the
    result is a polynomial with constant term 1.  For r = 1 the product is
    the monodromy zeta function, an infinite series, returned truncated at
    ``bound`` (default: twice the conductor plus two).
    """
    num = []  # factors with positive exponent after negation
    den = []
    for sid in sorted(g.vertices):
        chi = chi_open(g, sid)
        if chi < 0:
            num.append((g.vertices[sid], -chi))
        elif chi > 0:
            den.append((g.vertices[sid], chi))
    if g.r == 1:
        if bound is None:
            bound = 2 * graph_conductor_r1(g) + 2
        return expand_truncated(1, num, den, bound)
    poly = mp_const(g.r, 1)
    for m, mult in num:
        for _ in range(mult):
            poly = mp_mul(poly, mp_one_minus(m))
    for m, mult in den:
        for _ in range(mult):
            poly = mp_exact_div(poly, mp_one_minus(m))
    return poly
