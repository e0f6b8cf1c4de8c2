"""The semigroup of values: membership, conductor, minimal generators and
the structural checks available for irreducible branches."""

from __future__ import annotations

from dataclasses import dataclass

from .curve import Curve
from .exactmath import ExpVec, iter_box
from .filtration import Analysis, JetMatrix, is_member
from .resolution import classify_graph, _tail_quotient


@dataclass(frozen=True)
class SemigroupBox:
    """All semigroup members inside the box [0, bound]."""

    bound: ExpVec
    members: frozenset


def members_box(M: JetMatrix, bound) -> SemigroupBox:
    bound = tuple(bound)
    found = frozenset(v for v in iter_box((0,) * M.r, bound)
                      if is_member(M, v))
    return SemigroupBox(bound, found)


def conductor(c: Curve) -> ExpVec:
    """Conductor of the semigroup of values, by Delgado's formula from the
    blow-up log alone (no jet matrix is built)."""
    return Analysis(c).conductor


def minimal_generators_r1(c: Curve) -> list:
    """Minimal generators of the value semigroup of an irreducible branch."""
    return minimal_generators(Analysis(c))


def minimal_generators(a: Analysis) -> list:
    """Minimal generators of a one-branch analysis, by greedy extraction
    from its membership table."""
    if a.curve.r != 1:
        raise ValueError("minimal generators are defined for one branch")
    # every minimal generator is below the conductor plus the smallest one
    bound = 2 * a.conductor[0] + 2
    members = [v for v in range(bound + 1) if is_member(a.jet, (v,))]
    member_set = set(members)
    gens = []
    generated = {0}
    while True:
        missing = [v for v in members if v not in generated]
        if not missing:
            break
        g = missing[0]
        gens.append(g)
        generated = _closure(gens, bound)
        if generated - member_set:
            raise AssertionError(
                "generated semigroup escaped the member table")
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


def apery_set(box: SemigroupBox, m: int) -> set:
    """Members s <= bound with s - m outside the semigroup (r = 1 only)."""
    if any(len(v) != 1 for v in box.members):
        raise ValueError("Apery sets are taken on the one-branch ray")
    members = {v[0] for v in box.members}
    if m not in members:
        raise ValueError("%d is not a member" % m)
    return {s for s in members if s - m not in members}


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
    vc = classify_graph(graph)
    tails = []
    root_like = []
    for d in sorted(vc.dead_ends):
        st = vc.nearest_star_below(d)
        if st is None:
            root_like.append(d)
        else:
            n = _tail_quotient(graph.vertices[st], graph.vertices[d]) - 1
            tails.append((graph.vertices[d][0], n))
    tails.sort()
    if len(root_like) != 1:
        raise AssertionError("expected exactly one tail-free dead end, got %r"
                             % (root_like,))
    beta0 = graph.vertices[root_like[0]][0]
    gens = [beta0] + [m for m, _ in tails]
    ns = [n for _, n in tails]

    delta = a.conductor[0]
    top = a.bound
    members = {v for v in range(top + 1) if is_member(a.jet, (v,))}

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
