"""The semigroup of values of an irreducible branch: its minimal generators
and the structural checks on its resolution graph."""

from __future__ import annotations

from dataclasses import dataclass

from .curve import Curve
from .filtration import Analysis
from .resolution import _dead_end_tails


def minimal_generators(a: Analysis) -> list:
    """Minimal generators of a one-branch analysis: the nonzero members
    below 2c + 3 that are not a sum of two nonzero members (every generator
    is below the conductor plus the multiplicity)."""
    if a.curve.r != 1:
        raise ValueError("minimal generators are defined for one branch")
    members = [v for v in range(1, 2 * a.conductor[0] + 3)
               if a.is_member((v,))]
    sums = {u + v for u in members for v in members}
    return [v for v in members if v not in sums]


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
    top = a.bound
    members = {v for v in range(top + 1) if a.is_member((v,))}

    checks = {}
    checks["conductor-formula"] = (
        delta - 1 == sum(n * g for n, g in zip(ns, gens[1:])) - beta0)
    checks["unique-representation"] = all(
        _representations(v, gens, ns) == (1 if v in members else 0)
        for v in range(top + 1))
    checks["generator-growth"] = all(
        (ns[j] + 1) * gens[j + 1] < gens[j + 2]
        for j in range(len(ns) - 1))
    checks["multiple-in-previous"] = all(
        (ns[j] + 1) * gens[j + 1] in _closure(gens[:j + 1],
                                              (ns[j] + 1) * gens[j + 1])
        for j in range(len(ns)))
    return SemigroupReport(gens, ns, delta, checks)


def _representations(v: int, gens, ns) -> int:
    # count k_0 g_0 + sum k_j g_j == v with 0 <= k_j <= n_j for j >= 1
    partial = [0]
    for g, n in zip(gens[1:], ns):
        partial = [p + k * g for p in partial for k in range(n + 1)]
    beta0 = gens[0]
    return sum(1 for p in partial
               if p <= v and (v - p) % beta0 == 0)
