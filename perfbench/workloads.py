"""Seeded inputs and operations of the three benchmark workloads.

The seed never changes how much work an input costs. Where a workload
names fixed curves, the seed applies a symmetry to each of them: the
coordinate signs (x, y) -> (+-x, +-y) and the reparametrization t -> -t.
These change signs of coefficients and nothing else, so every seed runs the
same eliminations on rationals of the same size. Where a workload samples a
family (graph-batch), it draws one member from each of a fixed set of
strata, so the sizes are spread the same way on every seed.

Every curve is reduced by construction: the oracles compute each pairwise
intersection number from an equation of the branch and refuse an infinite
one.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from oracles import (
    Branch,
    MultiBranch,
    OneBranch,
    OracleMismatch,
    check_graph_file,
    check_verify,
    double_point,
    expect,
    line,
    monomial,
    smooth,
)


@dataclass
class Curve:
    """One curve file of a workload and the oracle for its outputs."""

    name: str
    branches: list
    oracle: object  # OneBranch or MultiBranch

    def to_json(self) -> str:
        return json.dumps({"name": self.name,
                           "branches": [b.to_json() for b in self.branches]})


@dataclass
class Op:
    """One CLI call: ``check(stdout, memo)`` raises OracleMismatch on a
    wrong answer; ``memo`` is shared by the operations of one round."""

    label: str
    argv: list
    check: Callable


@dataclass
class Workload:
    name: str
    curves: list
    make_ops: Callable  # (curve, path stem) -> the curve's operations
    tail_pct: int  # the percentile op_tail_ms reports
    min_rounds: int  # rounds that leave ten samples beyond tail_pct

    def write_inputs(self, workdir: str) -> None:
        for c in self.curves:
            with open(os.path.join(workdir, c.name + ".json"), "w") as fh:
                fh.write(c.to_json())

    def curve_ops(self, c: Curve, workdir: str) -> list:
        return self.make_ops(c, os.path.join(workdir, c.name))

    def ops(self, workdir: str) -> list:
        return [op for c in self.curves for op in self.curve_ops(c, workdir)]


def _variant(rng: random.Random, branches) -> list:
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    return [b.flipped(sx, sy, rng.choice((1, -1))) for b in branches]


def _multi(name, branches, pencil=None) -> Curve:
    return Curve(name, branches, MultiBranch(branches, pencil))


def _one(name, branch) -> Curve:
    return Curve(name, [branch], OneBranch(branch))


def _puiseux(n: int, ys) -> Branch:
    return Branch({n: 1}, ys)


# ---------------------------------------------------------------------------
# verify-multi: the six cross-pipeline checks on curves with r = 2..4
# ---------------------------------------------------------------------------

def _verify_multi(rng: random.Random) -> Workload:
    base = [
        ("node", [line(1, 0), line(0, 1)], (2, 1)),
        ("tacnode", [smooth(0, 2), smooth(1, 2)], (2, 2)),
        ("three-lines", [line(1, 0), line(0, 1), line(1, 1)], (3, 1)),
        ("four-lines", [line(1, 0), line(0, 1), line(1, 1), line(1, -1)],
         (4, 1)),
        ("cusp-tangent-line", [monomial(2, 3), line(1, 0)], None),
        ("cusp-transverse-line", [monomial(2, 3), line(0, 1)], None),
        ("cusp-two-lines", [monomial(2, 3), line(1, 0), line(0, 1)], None),
        ("tangent-cusps", [monomial(2, 3), monomial(2, 3).flipped(-1, 1, 1)],
         None),
        ("cusp-pair-contact-7", [monomial(2, 3), double_point({3: 1, 4: 1})],
         None),
        ("torus-pair", [monomial(3, 5), monomial(2, 3)], None),
        ("pencil-3-contact-2", [smooth(-1, 2), smooth(0, 2), smooth(1, 2)],
         (3, 2)),
    ]
    curves = [_multi(name, _variant(rng, bs), pencil)
              for name, bs, pencil in base]
    return Workload("verify-multi", curves, _verify_ops, tail_pct=75,
                    min_rounds=4)


def _verify_ops(c: Curve, stem: str) -> list:
    return [Op("verify:" + c.name, ["verify", stem + ".json"],
               lambda out, memo: check_verify(out))]


# ---------------------------------------------------------------------------
# graph-batch: resolve --out, alexander on that graph, alexander on the curve
# ---------------------------------------------------------------------------

PUISEUX_TEMPLATES = [
    (3, (4,)), (5, (7,)), (4, (6, 7)), (4, (6, 9)), (4, (6, 13)),
    (4, (10, 11)), (6, (8, 9)), (6, (9, 10)), (6, (9, 11)), (6, (10, 15)),
    (9, (12, 14)), (8, (12, 14, 15)),
]

# Reduced inputs the resolver rejects with BudgetExceeded: they need more
# than the default 64 blow-up generations. Not seeded, so that they fail
# identically in every run.
BUDGET_FAULTS = [
    ("fault-A63", [monomial(2, 127)], None),
    ("fault-contact-70", [smooth(0, 70), smooth(1, 70)], (2, 70)),
]


def _strata(lo: int, hi: int, count: int):
    values = list(range(lo, hi + 1))
    return [values[i * len(values) // count:(i + 1) * len(values) // count]
            for i in range(count)]


def _graph_batch(rng: random.Random) -> Workload:
    curves = []
    for ks in _strata(1, 62, 16):
        k = rng.choice(ks)
        curves.append(_one("A%d" % k, monomial(2, 2 * k + 1)))
    for n, betas in PUISEUX_TEMPLATES:
        b = _puiseux(n, {e: rng.choice((1, -1)) for e in betas})
        curves.append(_one("puiseux-%d-%s" % (n, "-".join(map(str, betas))),
                           b))
    for n in range(2, 9):
        for ks in ((1, 2), (3, 4), (5, 6)):
            k = rng.choice(ks)
            coeffs = rng.sample(range(-9, 10), n)
            curves.append(_multi("pencil-%d-contact-%d" % (n, k),
                                 [smooth(a, k) for a in coeffs], (n, k)))
    curves.append(_multi("torus-pair",
                         _variant(rng, [monomial(3, 5), monomial(2, 3)])))
    for name, bs, pencil in BUDGET_FAULTS:
        curves.append(_one(name, bs[0]) if len(bs) == 1
                      else _multi(name, bs, pencil))
    return Workload("graph-batch", curves, _graph_ops, tail_pct=99,
                    min_rounds=8)


def _graph_ops(c: Curve, stem: str) -> list:
    r = len(c.branches)
    curve_file, graph_file = stem + ".json", stem + ".graph.json"

    def check_resolve(out, memo):
        expect(out == "", "resolve --out printed to stdout")
        with open(graph_file) as fh:
            check_graph_file(fh.read(), r)

    def check_graph_alexander(out, memo):
        _check_alexander(c, out)
        memo[c.name] = out

    def check_curve_alexander(out, memo):
        _check_alexander(c, out)
        if c.name in memo:
            expect(out == memo[c.name],
                   "alexander differs between graph and curve file")

    return [
        Op("resolve:" + c.name, ["resolve", curve_file, "--out", graph_file],
           check_resolve),
        Op("alexander-graph:" + c.name, ["alexander", graph_file],
           check_graph_alexander),
        Op("alexander-curve:" + c.name, ["alexander", curve_file],
           check_curve_alexander),
    ]


def _check_alexander(c: Curve, out: str) -> None:
    if isinstance(c.oracle, OneBranch):
        c.oracle.check_series(out)
    else:
        c.oracle.check_alexander(out)


# ---------------------------------------------------------------------------
# one-branch-series: semigroup, poincare and alexander --via fibers
# ---------------------------------------------------------------------------

def _one_branch_series(rng: random.Random) -> Workload:
    base = [
        ("cusp-3-5", monomial(3, 5)),
        ("branch-4-9", monomial(4, 9)),
        ("branch-5-7", monomial(5, 7)),
        ("branch-4-6-7", _puiseux(4, {6: 1, 7: 1})),
        ("A20", monomial(2, 41)),
        ("A30", monomial(2, 61)),
        ("A40", monomial(2, 81)),
        ("branch-6-9-10", _puiseux(6, {9: 1, 10: 1})),
    ]
    curves = [_one(name, _variant(rng, [b])[0]) for name, b in base]
    return Workload("one-branch-series", curves, _series_ops, tail_pct=75,
                    min_rounds=2)


def _series_ops(c: Curve, stem: str) -> list:
    path = stem + ".json"
    return [
        Op("semigroup:" + c.name, ["semigroup", path],
           lambda out, memo: c.oracle.check_semigroup(out)),
        Op("poincare:" + c.name, ["poincare", path],
           lambda out, memo: c.oracle.check_series(out)),
        Op("fibers:" + c.name, ["alexander", path, "--via", "fibers"],
           lambda out, memo: c.oracle.check_series(out)),
    ]


WORKLOADS = {
    "verify-multi": _verify_multi,
    "graph-batch": _graph_batch,
    "one-branch-series": _one_branch_series,
}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(seed))


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except OracleMismatch:
        return True
    return False


def self_test(workload: Workload, stem: str) -> None:
    """Every oracle the workload uses accepts a right answer and rejects a
    deliberately corrupted one; raises SystemExit otherwise."""
    cases = []  # (check, right answer, corrupted answers)
    for c in workload.curves:
        o = c.oracle
        if isinstance(o, OneBranch):
            s = o.series_text
            cases.append((o.check_series, s, [
                s.replace("1\t", "2\t", 1),
                s[:s.rindex("1\t")],
                s + "1\t%d\n" % (o.bound + 1)]))
            g = o.semigroup_text
            cases.append((o.check_semigroup, g, [
                g.replace("conductor\t", "conductor\t1", 1),
                g.replace("generator\t%d\n" % o.generators[-1], "", 1),
                g.replace("member\t0\n", "", 1)]))
            continue
        zero, one = ",".join("0" * o.r), ",".join("1" * o.r)
        right = o.exact_text or "1\t%s\n%d\t%s\n" % (zero, o.value_at_one - 1,
                                                   one)
        corrupted = [right.replace("1\t" + zero, "2\t" + zero, 1),
                     right + "1\t%s\n" % ",".join("9" * o.r)]
        if o.exact_text:
            # moves the last term off the diagonal: only the exact text
            # check can see it
            corrupted.append(right[:-1] + "0\n")
        cases.append((o.check_alexander, right, corrupted))
    passes = "".join("PASS check-%d\n" % i for i in range(6))
    cases.append((check_verify, passes, [
        passes.replace("PASS", "FAIL", 1), passes[:passes.rindex("PASS")]]))
    graph = {"r": 1, "vertices": [{"id": 1, "m": [2]}], "edges": [],
             "arrows": [{"vertex": 1, "branch": 1}], "root": 1}
    cases.append((lambda text: check_graph_file(text, 1), json.dumps(graph), [
        json.dumps(dict(graph, arrows=[])),
        json.dumps(dict(graph, edges=[[1, 1]]))]))
    for check, right, corrupted in cases:
        if _rejects(check, right) or not all(_rejects(check, bad)
                                             for bad in corrupted):
            raise SystemExit("oracle self-test failed: %r" % (right[:60],))
    if workload.name == "graph-batch":
        # alexander on the graph file and on the curve file must agree byte
        # for byte, even where both answers pass the weaker r >= 2 checks
        c = next(c for c in workload.curves if c.name == "torus-pair")
        _, on_graph, on_curve = _graph_ops(c, stem)
        memo = {}
        on_graph.check("1\t0,0\n8\t1,1\n", memo)
        if not _rejects(on_curve.check, "1\t0,0\n8\t2,2\n", memo):
            raise SystemExit("oracle self-test failed: graph/curve bytes")
