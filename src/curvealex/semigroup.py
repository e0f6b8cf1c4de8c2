"""The semigroup of values of an irreducible branch: its minimal generators
and the structural checks on its resolution graph."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .curve import Curve
from .filtration import Analysis
from .resolution import GraphError, ResGraph, classify_graph


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


def _closure(gens, bound) -> set:
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
    members = a.members_to((top,))

    checks = {}
    checks["conductor-formula"] = (
        delta - 1 == sum(n * g for n, g in zip(ns, gens[1:])) - beta0)
    checks["unique-representation"] = all(
        _representations(v, gens, ns) == members[v]
        for v in range(top + 1))
    checks["generator-growth"] = all(
        (ns[j] + 1) * gens[j + 1] < gens[j + 2]
        for j in range(len(ns) - 1))
    checks["multiple-in-previous"] = all(
        (ns[j] + 1) * gens[j + 1] in _closure(gens[:j + 1],
                                              (ns[j] + 1) * gens[j + 1])
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
