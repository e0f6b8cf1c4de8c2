"""Independent oracles for the benchmark's CLI outputs.

Nothing here imports curvealex. Every expected answer comes from a closed
formula or from the equations the generator builds each branch with:

* one branch: the semigroup of values from the Puiseux characteristic by
  Zariski's formula; the Alexander and Poincare series equal its indicator;
* a pencil of n smooth branches with contact k (k = 1: n transverse lines):
  Delta = (1 - T^k)^(n-1) / (1 - T) with T = t_1...t_n;
* any curve with r >= 2 branches: constant term 1, and Delta(1,...,1) is
  (C_1.C_2) when r = 2 and 0 when r >= 3, where (C_i.C_j) is the order of
  an equation of branch j along branch i.

Polynomials in one variable are dicts exponent -> int; bivariate
equations are dicts (a, b) -> int for the monomial x^a y^b.
"""

from __future__ import annotations

import json
from math import comb, gcd


class OracleMismatch(Exception):
    """An output disagrees with its oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleMismatch(what)


# ---------------------------------------------------------------------------
# integer polynomials in one variable
# ---------------------------------------------------------------------------

def poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def substitute(eq: dict, x: dict, y: dict) -> dict:
    """eq(x(t), y(t)) for integer polynomials x(t), y(t)."""
    amax = max(a for a, _ in eq)
    bmax = max(b for _, b in eq)
    xp, yp = [{0: 1}], [{0: 1}]
    for _ in range(amax):
        xp.append(poly_mul(xp[-1], x))
    for _ in range(bmax):
        yp.append(poly_mul(yp[-1], y))
    total = {}
    for (a, b), c in eq.items():
        for e, v in poly_mul(xp[a], yp[b]).items():
            total[e] = total.get(e, 0) + c * v
    return {e: c for e, c in total.items() if c}


# ---------------------------------------------------------------------------
# branches and the equations they are built from
# ---------------------------------------------------------------------------

class Branch:
    """x(t), y(t) with integer coefficients and, for a branch of a curve
    with several branches, one equation f(x, y) = 0 of it known by
    construction."""

    __slots__ = ("x", "y", "eq")

    def __init__(self, x: dict, y: dict, eq: dict | None = None):
        self.x = {e: c for e, c in x.items() if c}
        self.y = {e: c for e, c in y.items() if c}
        self.eq = None
        if eq is not None:
            self.eq = {m: c for m, c in eq.items() if c}
            expect(not substitute(self.eq, self.x, self.y),
                   "generator: equation does not vanish on its branch")

    def flipped(self, sx: int, sy: int, st: int) -> "Branch":
        """The image under (x, y) -> (sx*x, sy*y), reparametrized by
        t -> st*t. Signs change; no coefficient grows."""
        x = {e: sx * c * st ** e for e, c in self.x.items()}
        y = {e: sy * c * st ** e for e, c in self.y.items()}
        if self.eq is None:
            return Branch(x, y)
        eq = {(a, b): c * sx ** a * sy ** b for (a, b), c in self.eq.items()}
        return Branch(x, y, eq)

    def to_json(self) -> dict:
        return {"x": [[e, str(c)] for e, c in sorted(self.x.items())],
                "y": [[e, str(c)] for e, c in sorted(self.y.items())]}


def line(p: int, q: int) -> Branch:
    """The line through the origin in direction (p, q)."""
    return Branch({1: p}, {1: q}, {(1, 0): q, (0, 1): -p})


def smooth(a: int, k: int) -> Branch:
    """y = a x^k."""
    return Branch({1: 1}, {k: a}, {(0, 1): 1, (k, 0): -a})


def monomial(n: int, m: int) -> Branch:
    """(t^n, t^m) with gcd(n, m) = 1: y^n = x^m."""
    return Branch({n: 1}, {m: 1}, {(0, n): 1, (m, 0): -1})


def double_point(y: dict) -> Branch:
    """(t^2, y(t)). Splitting y(t) = E(t^2) + t O(t^2) gives the equation
    (y - E(x))^2 - x O(x)^2."""
    even = {e // 2: c for e, c in y.items() if e % 2 == 0}
    odd = {e // 2: c for e, c in y.items() if e % 2 == 1}
    eq = {}

    def add(m, c):
        eq[m] = eq.get(m, 0) + c

    shift = {(0, 1): 1}
    for e, c in even.items():
        shift[(e, 0)] = shift.get((e, 0), 0) - c
    for (a1, b1), c1 in shift.items():
        for (a2, b2), c2 in shift.items():
            add((a1 + a2, b1 + b2), c1 * c2)
    for e, c in poly_mul(odd, odd).items():
        add((e + 1, 0), -c)
    return Branch({2: 1}, y, eq)


def intersection(bi: Branch, bj: Branch) -> int:
    """(C_i . C_j): the order of branch j's equation along branch i."""
    value = substitute(bj.eq, bi.x, bi.y)
    expect(bool(value), "generator: branches share a component")
    return min(value)


# ---------------------------------------------------------------------------
# one branch: Zariski's semigroup
# ---------------------------------------------------------------------------

def characteristic(x: dict, y: dict):
    """Puiseux characteristic (n; beta_1, ..., beta_g) of a branch with
    x = c t^n and ord y > n."""
    expect(len(x) == 1, "generator: x must be a monomial")
    n = next(iter(x))
    expect(min(y) > n, "generator: ord y must exceed ord x")
    betas, e = [], n
    for j in sorted(y):
        if j % e:
            betas.append(j)
            e = gcd(e, j)
    expect(e == 1, "generator: parametrization is not primitive")
    return n, betas


def zariski(n: int, betas):
    """Minimal generators and conductor of the semigroup of a branch with
    characteristic (n; beta_1, ..., beta_g). With e_0 = n,
    e_i = gcd(e_(i-1), beta_i) and n_i = e_(i-1)/e_i: bbar_0 = n,
    bbar_1 = beta_1, bbar_(i+1) = n_i bbar_i + beta_(i+1) - beta_i, and the
    conductor is sum (n_i - 1) bbar_i - n + 1."""
    es = [n]
    for b in betas:
        es.append(gcd(es[-1], b))
    ns = [es[i - 1] // es[i] for i in range(1, len(es))]
    gens = [n, betas[0]]
    for i in range(1, len(betas)):
        gens.append(ns[i - 1] * gens[-1] + betas[i] - betas[i - 1])
    cond = sum((ni - 1) * g for ni, g in zip(ns, gens[1:])) - n + 1
    return gens, cond


def semigroup_members(gens, bound: int) -> list:
    reach = [False] * (bound + 1)
    reach[0] = True
    for v in range(1, bound + 1):
        reach[v] = any(v >= g and reach[v - g] for g in gens)
    return [v for v in range(bound + 1) if reach[v]]


class OneBranch:
    """Expected outputs for an irreducible curve."""

    def __init__(self, b: Branch):
        self.generators, self.conductor = zariski(*characteristic(b.x, b.y))
        self.bound = 2 * self.conductor + 2
        self.members = semigroup_members(self.generators, self.bound)
        gaps = set(range(self.bound + 1)).difference(self.members)
        expect(max(gaps, default=-1) == self.conductor - 1,
               "oracle: Zariski conductor is not the conductor")
        self.series_text = "".join("1\t%d\n" % v for v in self.members)
        self.semigroup_text = (
            "conductor\t%d\n" % self.conductor
            + "".join("generator\t%d\n" % g for g in self.generators)
            + "".join("member\t%d\n" % v for v in self.members))

    def check_series(self, out: str) -> None:
        expect(out == self.series_text,
               "series is not the indicator of the semigroup generated by %r"
               " up to %d" % (self.generators, self.bound))

    def check_semigroup(self, out: str) -> None:
        expect(out == self.semigroup_text,
               "semigroup report differs from Zariski's semigroup %r"
               % (self.generators,))


# ---------------------------------------------------------------------------
# several branches
# ---------------------------------------------------------------------------

def parse_poly_text(out: str, r: int) -> dict:
    poly = {}
    for line_ in out.splitlines():
        coef, _, exps = line_.partition("\t")
        e = tuple(int(v) for v in exps.split(","))
        expect(len(e) == r, "term %r has %d exponents, want %d"
               % (line_, len(e), r))
        expect(e not in poly, "term %r printed twice" % (e,))
        poly[e] = int(coef)
        expect(poly[e] != 0, "zero coefficient printed")
    return poly


def pencil_delta(n: int, k: int) -> dict:
    """Coefficients in T of (1 - T^k)^(n-1)/(1 - T)
    = (1 + T + ... + T^(k-1)) (1 - T^k)^(n-2)."""
    power = {k * i: (-1) ** i * comb(n - 2, i) for i in range(n - 1)}
    return poly_mul({i: 1 for i in range(k)}, power)


class MultiBranch:
    """Expected outputs for a curve of r >= 2 branches; ``pencil`` is
    (n, k) when the curve is a pencil of n smooth branches with contact k."""

    def __init__(self, branches, pencil=None):
        self.r = len(branches)
        pairs = [(i, j) for i in range(self.r) for j in range(i + 1, self.r)]
        self.intersections = {}
        for i, j in pairs:
            a = intersection(branches[i], branches[j])
            expect(a == intersection(branches[j], branches[i]),
                   "generator: intersection numbers are not symmetric")
            self.intersections[(i, j)] = a
        self.value_at_one = self.intersections[(0, 1)] if self.r == 2 else 0
        self.exact_text = None
        if pencil is not None:
            n, k = pencil
            expect(n == self.r, "generator: pencil size")
            expect(all(v == k for v in self.intersections.values()),
                   "generator: pencil contact")
            delta = pencil_delta(n, k)
            self.exact_text = "".join(
                "%d\t%s\n" % (delta[d], ",".join([str(d)] * n))
                for d in sorted(delta))

    def check_alexander(self, out: str) -> None:
        poly = parse_poly_text(out, self.r)
        expect(poly.get((0,) * self.r) == 1, "constant term is not 1")
        expect(sum(poly.values()) == self.value_at_one,
               "Delta(1,...,1) = %d, want %d"
               % (sum(poly.values()), self.value_at_one))
        if self.exact_text is not None:
            expect(out == self.exact_text,
                   "pencil polynomial differs from (1-T^k)^(n-1)/(1-T)")


def check_verify(out: str) -> None:
    lines_ = out.splitlines()
    expect(len(lines_) == 6 and all(s.startswith("PASS ") for s in lines_)
           and len(set(lines_)) == 6, "verify did not print six PASS lines")


def check_graph_file(text: str, r: int) -> None:
    """Structure of a resolution graph file: one multiplicity vector of
    length r per vertex and exactly one arrow per branch."""
    data = json.loads(text)
    expect(data["r"] == r, "graph file has r = %r, want %d" % (data["r"], r))
    ids = {v["id"] for v in data["vertices"]}
    expect(all(len(v["m"]) == r and min(v["m"]) >= 1
               for v in data["vertices"]), "bad multiplicity vector")
    expect(sorted(a["branch"] for a in data["arrows"])
           == list(range(1, r + 1)), "need one arrow per branch")
    expect(all(a["vertex"] in ids for a in data["arrows"]),
           "arrow on an unknown vertex")
    expect(len(data["edges"]) == len(ids) - 1, "graph is not a tree")
