"""Minimal embedded resolution of a parametrized plane curve germ by
iterated blow-ups, and the Eisenbud-Neumann product over its dual graph.

Local model
-----------
Every infinitely near point carries its own affine chart.  Each resident
branch is parametrized there by a pair of rational functions p(tau)/q(tau)
with integer coefficients and q(0) != 0 (the class :class:`RatFunc`); this
family is closed under the two blow-up substitutions, so the whole recursion
runs on integers with no series truncation at all; a coordinate with int
coefficients is taken as it stands.

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
rational value, the only Fraction the engine makes.

Euclid chains
-------------
When every resident leaves a point by the same chart (all ord x < ord y,
or all ord x > ord y), the next blow-ups are steps of Euclid's algorithm on
the two orders: their multiplicities and edges are fixed before any
coefficient is read (Zariski's multiplicity sequence, Enriques' proximity
relations).  The engine takes such a run of s blow-ups in one step and
records its s centers as s single blow-ups would, each after the first
by one addition to the vector before.  Each resident's other coordinate
is divided once by the axis coordinate to the power s: one power of its
numerator and one of its denominator, or, both one term (x = a tau^n),
an exponent shift and two scalings; in the x-chart it loses its
direction constant before its one content normalisation.
Chains start only at a point that is the only one pending: vertex ids are
handed out breadth-first, and the graph files ``resolve --out`` writes
name vertices by id.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import add

from .curve import Curve
from .exactmath import (
    INF,
    MultiPoly,
    UniPoly,
    mp_div_one_minus,
    mp_mul_one_minus,
    up_integral,
    up_mul,
)

DEFAULT_BUDGET = 64


class BudgetExceededError(RuntimeError):
    """Two residents failed to separate: coincident branches (non-reduced
    input) or an absurdly deep singularity."""

    code = "BudgetExceeded"


class GraphError(ValueError):
    code = "GraphError"


class RatFunc:
    """A germ of one local coordinate along a branch: num/den, read as a
    power series in tau.  Both are integer polynomials, divided by their
    joint content, with den(0) > 0; ``ord`` is the order of num."""

    __slots__ = ("num", "den", "ord")

    def __init__(self, num: UniPoly, den: UniPoly):
        if den.get(0, 0) == 0:
            raise ValueError("denominator must be a unit at tau = 0")
        g = gcd(*num.values(), *den.values())
        if den[0] < 0:
            g = -g
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den = {e: c // g for e, c in den.items()}
        self.num, self.den = num, den
        self.ord = min(num) if num else INF

    @classmethod
    def of(cls, p: UniPoly) -> "RatFunc":
        """A branch coordinate p with rational coefficients: p over 1 when
        every coefficient is an int, else (d p) / d for the least common
        denominator d."""
        if all(type(x) is int for x in p.values()):
            return cls(p, {0: 1})
        d, (num,) = up_integral([p])
        return cls(num, {0: d})

    def div(self, other: "RatFunc", s: int = 1, c=0) -> "RatFunc":
        """self/other^s - c for a rational c = p/q, with one content
        normalisation; requires ord(self) >= s ord(other).  For self =
        tau^(s k) n/d and other = tau^k a/b that is (q n b^s - p d a^s) /
        (q d a^s), with a^s and b^s one power each (``_power``), or two
        scalings when a and b are one term each."""
        k = other.ord
        if k == INF:
            raise ZeroDivisionError("division by an identically zero coordinate")
        sk = s * k
        if self.ord < sk:
            raise ValueError("quotient would have a pole at tau = 0")
        onum, oden = other.num, other.den
        if len(onum) == 1 and len(oden) == 1:
            # fresh dicts: the subtraction of c below writes into num
            a, b = onum[k] ** s, oden[0] ** s
            num = {e - sk: x * b for e, x in self.num.items()}
            den = {e: x * a for e, x in self.den.items()}
        else:
            num = self.num
            if k:
                num = {e - sk: x for e, x in num.items()}
                onum = {e - k: x for e, x in onum.items()}
            num = up_mul(num, _power(oden, s))
            den = up_mul(self.den, _power(onum, s))
        if c:
            p, q = c.numerator, c.denominator
            if q != 1:
                num = {e: q * x for e, x in num.items()}
            for e, x in den.items():
                x = num.get(e, 0) - p * x
                if x:
                    num[e] = x
                else:
                    del num[e]
            if q != 1:
                den = {e: q * x for e, x in den.items()}
        return RatFunc(num, den)


def _power(p: UniPoly, s: int) -> UniPoly:
    """p^s for s >= 1: a one-term p directly, any other by squaring."""
    if len(p) == 1:
        ((e, x),) = p.items()
        return {e * s: x ** s}
    out = None
    while True:
        if s & 1:
            out = p if out is None else up_mul(out, p)
        s >>= 1
        if not s:
            return out
        p = up_mul(p, p)


@dataclass
class ResGraph:
    """Dual graph of an embedded resolution: one vertex per exceptional
    component with its multiplicity vector, one arrow per strict transform."""

    r: int
    vertices: dict  # id -> ExpVec, in creation order
    edges: set  # of sorted id pairs
    arrows: list  # of (vertex id, branch id 1..r)
    root: int

    @cached_property
    def adjacency(self) -> dict:
        """Vertex id -> the list of its neighbours, from one pass over the
        edges."""
        adj = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    @cached_property
    def degrees(self) -> dict:
        """Vertex id -> the number of edges and arrows at it."""
        deg = {v: len(n) for v, n in self.adjacency.items()}
        for v, _ in self.arrows:
            deg[v] += 1
        return deg

    def degree(self, sid: int) -> int:
        if sid not in self.vertices:
            raise GraphError("unknown vertex id %r" % (sid,))
        return self.degrees[sid]


def chi_open(g: ResGraph, sid: int) -> int:
    """Euler characteristic of the smooth part of one exceptional component:
    a projective line minus its intersection points with the rest of the
    total transform."""
    return 2 - g.degree(sid)


# ---------------------------------------------------------------------------
# the blow-up engine
# ---------------------------------------------------------------------------

def _direction(fx: RatFunc, fy: RatFunc):
    """y/x at tau = 0: 0, INF, or the exact ratio of the leading terms."""
    ox, oy = fx.ord, fy.ord
    if oy > ox:
        return 0
    if oy == ox:
        if ox == INF:
            raise ZeroDivisionError("leading coefficient of the zero series")
        return Fraction(fy.num[oy] * fx.den[0], fx.num[ox] * fy.den[0])
    return INF


def _chain(residents, divisors):
    """The number s of blow-ups in a row, from a point on, at which every
    resident leaves by one chart, and that chart's direction: 0 when every
    ord x < ord y, INF when every ord x > ord y; (1, None) when the
    residents split.

    With oa < ob a resident's two orders and ob = q oa + rho, each blow-up
    divides the other coordinate by the axis one and keeps oa, so the
    resident stays on the chart for q blow-ups if rho > 0, q - 1 if not
    (an identically zero coordinate never leaves it).  Centers after the
    first are unsettled, unless a lone resident has oa = 1 and no divisor
    on the axis the chart keeps: it settles after one blow-up."""
    ords = [(fx.ord, fy.ord) for _, fx, fy in residents]
    if all(a < b for a, b in ords):
        chart, kept = 0, "y"
    elif all(a > b for a, b in ords):
        chart, kept = INF, "x"
        ords = [(b, a) for a, b in ords]
    else:
        return 1, None
    if len(ords) == 1 and ords[0][0] == 1 and all(
            ax != kept for _, ax in divisors):
        return 1, chart
    s = INF
    for a, b in ords:
        if b != INF:
            q, rho = divmod(b, a)
            s = min(s, q if rho else q - 1)
    return s, chart


def _divisors_after(nid: int, d, old_axis: dict) -> list:
    """The divisors through the point at direction d on the new divisor
    nid, given the center's divisors by axis."""
    if d is INF:
        divs = [(nid, "y")]
        if "x" in old_axis:
            divs.append((old_axis["x"], "x"))
    else:
        divs = [(nid, "x")]
        if not d and "y" in old_axis:
            divs.append((old_axis["y"], "y"))
    return divs


def _run_blowups(c: Curve, budget: int):
    """Blow up until every strict transform is settled; returns the dual
    graph together with the per-center multiplicity log (branch id -> local
    multiplicity of its strict transform at that center).

    A point is a tuple (residents, divisors, depth): the residents are
    (branch id, RatFunc x, RatFunc y), the divisors through it (at most 2,
    distinct axes) (vertex id, "x" | "y").  A point that is the only one
    pending takes its whole Euclid chain (``_chain``) in one step: the s
    centers are recorded one by one, with the same ids, edges and
    multiplicities as s single blow-ups, and each resident's other
    coordinate is divided once by its axis coordinate to the power s.
    Each center after the first meets the one before and the divisor the
    chart keeps, a sum fixed for the chain.  The step loop would check the
    budget at the depths depth, ..., depth + s - 1, so the chain raises iff
    depth + s > budget.  Ids are handed out breadth-first, so a chain
    beside a waiting point would take ids that belong to that point's
    blow-up; with r = 1, and at the root, the popped point is always the
    only one."""
    r = c.r
    vertices = {}
    edges = set()
    arrows = {}
    centers = []
    start = [(i, RatFunc.of(b.x), RatFunc.of(b.y))
             for i, b in enumerate(c.branches, start=1)]
    pending = deque([(start, [], 0)])
    nid = 0
    while pending:
        residents, divisors, depth = pending.popleft()
        for _, fx, fy in residents:
            assert min(fx.ord, fy.ord) >= 1, "resident misses the point"
        if len(residents) == 1 and len(divisors) == 1:
            # normal crossing: a single smooth resident meeting a single
            # divisor transversally
            bid, fx, fy = residents[0]
            ((vid, axis),) = divisors
            if (fx.ord if axis == "x" else fy.ord) == 1:
                if bid in arrows:
                    raise GraphError("branch %d settled twice" % bid)
                arrows[bid] = vid
                continue
        s, chart = (1, None) if pending else _chain(residents, divisors)
        if depth + s > budget:
            raise BudgetExceededError(
                "no separation after %d blow-ups; branches %r look coincident"
                % (budget, sorted(b for b, _, _ in residents)))
        mult = {bid: min(fx.ord, fy.ord) for bid, fx, fy in residents}
        own = tuple(mult.get(i, 0) for i in range(1, r + 1))
        old_axis = {ax: vid for vid, ax in divisors}
        nid += 1
        vec = own
        for vid, _ in divisors:
            vec = tuple(map(add, vec, vertices[vid]))
            edges.add((vid, nid))  # nid is the largest id so far
        vertices[nid] = vec
        centers.append(mult)
        if len(divisors) == 2:
            # the two divisors met at this center and are now separated
            edges.discard(tuple(sorted(v for v, _ in divisors)))
        if s > 1:
            kept = old_axis.get("x" if chart is INF else "y")
            step = own if kept is None else tuple(
                map(add, own, vertices[kept]))
            first = nid
            for _ in range(s - 1):
                nid += 1
                vec = tuple(map(add, vec, step))
                vertices[nid] = vec
                centers.append(mult)
                edges.add((nid - 1, nid))
            if kept is not None:
                # the kept divisor meets only the chain's last center
                edges.discard((kept, first))
                edges.add((kept, nid))

        depth += s
        if len(residents) == 1:
            _, fx, fy = residents[0]
            groups = [(_direction(fx, fy), residents)]
        else:
            by_direction = {}
            for res in residents:
                by_direction.setdefault(
                    _direction(res[1], res[2]), []).append(res)
            groups = sorted(by_direction.items())
        for d, members in groups:
            if d is INF:
                res = [(bid, fx.div(fy, s), fy) for bid, fx, fy in members]
            else:
                res = [(bid, fx, fy.div(fx, s, d))
                       for bid, fx, fy in members]
            pending.append((res, _divisors_after(nid, d, old_axis), depth))

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


def resolve(c: Curve, budget: int = DEFAULT_BUDGET) -> ResGraph:
    """Minimal embedded resolution of the curve."""
    return _run_blowups(c, budget)[0]


# ---------------------------------------------------------------------------
# the Eisenbud-Neumann product
# ---------------------------------------------------------------------------

def en_alexander(g: ResGraph) -> MultiPoly:
    """Alexander polynomial from the resolution graph: the product over
    vertices of (1 - t^m)^(-chi of the smooth part), times (1 - t) for
    r = 1.

    The exponents are netted first, one per multiplicity vector m: each
    vertex adds its -chi to the exponent of its m (a vertex of chi = 0
    adds nothing), and for r = 1 the factor (1 - t) adds 1 to (1,).  Equal
    binomials of opposite sign, such as the two of a free blow-up, cancel
    there before any arithmetic.  The product is Delta, a polynomial with
    constant term 1: each positive power (1 - t^m)^e is multiplied in with
    one call, by the binomial theorem (``mp_mul_one_minus``), then each
    negative one divided off exactly, largest m first, one binomial at a
    time, each in one pass along the lines of direction m
    (``mp_div_one_minus``).  If N/D is a polynomial, every partial
    quotient is one, so the order changes nothing.  A graph that is no
    curve's resolution graph can leave a remainder: NotDivisibleError names
    the lexicographically largest base point of a line whose sum is
    nonzero, in the first division that fails, and its divisor 1 - t^m.
    For r = 1 the extra factor (1 - t) makes the product Delta too, of
    degree the conductor: the monodromy zeta function is Delta / (1 - t).
    """
    exps = {(1,): 1} if g.r == 1 else {}
    for sid, m in g.vertices.items():
        chi = chi_open(g, sid)
        if chi:
            exps[m] = exps.get(m, 0) - chi
    poly = {(0,) * g.r: 1}
    den = []
    for m, e in exps.items():
        if e > 0:
            poly = mp_mul_one_minus(poly, m, e)
        elif e:
            den.append(m)
    for m in sorted(den, reverse=True):
        for _ in range(-exps[m]):
            poly = mp_div_one_minus(poly, m)
    return poly
