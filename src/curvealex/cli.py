"""Command line interface: file formats, dispatch, and the cross-pipeline
verification harness.

Exit codes: 0 success (verify: all checks pass), 1 computation error or a
failed verify check, 2 parse error, 3 curve validation error, 64 unknown
subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import curve as curve_mod
from . import semigroup
from .curve import BranchParam, Curve, validate_curve
from .exactmath import NotDivisibleError, iter_box, mp_mul, vec_add
from .filtration import (
    Analysis,
    BoundaryNonzeroError,
    JetMatrix,
    fiber_eulers,
    members,
)
from .resolution import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    GraphError,
    ResGraph,
    en_alexander,
    resolve,
)

COMMANDS = ("resolve", "alexander", "poincare", "fibers", "semigroup", "verify")


class ParseError(ValueError):
    code = "ParseError"


class NotATreeError(ParseError):
    code = "NotATree"


class ArrowCountMismatchError(ParseError):
    code = "ArrowCountMismatch"


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _coeff_from_json(c) -> Fraction:
    if isinstance(c, bool) or isinstance(c, float):
        raise ParseError("coefficients must be integers or 'p/q' strings: %r" % (c,))
    try:
        return Fraction(c)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError("bad coefficient %r: %s" % (c, exc)) from exc


def _poly_from_json(terms) -> dict:
    if not isinstance(terms, list):
        raise ParseError("polynomial must be a list of [exponent, coefficient]")
    out = {}
    for item in terms:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError("bad polynomial term %r" % (item,))
        e, c = item
        if not isinstance(e, int) or e < 0:
            raise ParseError("bad exponent %r" % (e,))
        coeff = _coeff_from_json(c)
        out[e] = out.get(e, 0) + coeff
    return out


def curve_from_json(data) -> Curve:
    if not isinstance(data, dict) or "branches" not in data:
        raise ParseError("curve file needs a 'branches' list")
    branches = data["branches"]
    if not isinstance(branches, list) or not branches:
        raise ParseError("'branches' must be a nonempty list")
    out = []
    for b in branches:
        if not isinstance(b, dict) or "x" not in b or "y" not in b:
            raise ParseError("each branch needs 'x' and 'y' term lists")
        out.append(BranchParam(_poly_from_json(b["x"]), _poly_from_json(b["y"])))
    c = Curve(out)
    validate_curve(c)
    return c


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("malformed JSON in %s: %s" % (path, exc)) from exc


def parse_curve_file(path) -> Curve:
    return curve_from_json(_read_json(path))


def graph_from_json(data) -> ResGraph:
    try:
        r = int(data["r"])
        ids = [int(v["id"]) for v in data["vertices"]]
        vertices = {vid: tuple(int(x) for x in v["m"])
                    for vid, v in zip(ids, data["vertices"])}
        edges = {tuple(sorted((int(a), int(b)))) for a, b in data["edges"]}
        arrows = [(int(a["vertex"]), int(a["branch"])) for a in data["arrows"]]
        root = int(data["root"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed graph file: %s" % exc) from exc
    if len(vertices) != len(ids):
        dup = next(vid for vid in ids if ids.count(vid) > 1)
        raise ParseError("duplicate vertex id %d" % dup)
    if r < 1 or not vertices or root not in vertices:
        raise ParseError("graph needs r >= 1, vertices, and a valid root")
    for vid, m in vertices.items():
        if len(m) != r or any(x < 1 for x in m):
            raise ParseError("vertex %d multiplicity %r invalid" % (vid, m))
    for a, b in edges:
        if a not in vertices or b not in vertices or a == b:
            raise ParseError("edge (%d, %d) references unknown vertices" % (a, b))
    graph = ResGraph(r=r, vertices=vertices, edges=edges,
                     arrows=sorted(arrows, key=lambda t: (t[1], t[0])),
                     root=root)
    # tree test: connected with |E| == |V| - 1
    if len(edges) != len(vertices) - 1:
        raise NotATreeError("edge count %d does not fit %d vertices"
                            % (len(edges), len(vertices)))
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for u in graph.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(vertices):
        raise NotATreeError("graph is not connected")
    if sorted(b for _, b in graph.arrows) != list(range(1, r + 1)):
        raise ArrowCountMismatchError(
            "need exactly one arrow per branch 1..%d" % r)
    for vid, _ in graph.arrows:
        if vid not in vertices:
            raise ParseError("arrow on unknown vertex %d" % vid)
    return graph


def graph_to_json(g: ResGraph) -> dict:
    return {
        "r": g.r,
        "vertices": [{"id": vid, "m": list(g.vertices[vid])}
                     for vid in sorted(g.vertices)],
        "edges": [list(e) for e in sorted(g.edges)],
        "arrows": [{"vertex": v, "branch": b} for v, b in g.arrows],
        "root": g.root,
    }


def parse_graph_file(path) -> ResGraph:
    return graph_from_json(_read_json(path))


def _load_input(path):
    """A curve or a graph file, told apart by their top-level keys."""
    data = _read_json(path)
    if isinstance(data, dict) and "branches" in data:
        return curve_from_json(data), None
    if isinstance(data, dict) and "vertices" in data:
        return None, graph_from_json(data)
    raise ParseError("%s is neither a curve nor a graph file" % path)


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def format_poly(p: dict) -> str:
    """One term per line: coefficient, tab, comma-joined exponents, sorted
    lexicographically; byte-for-byte deterministic."""
    lines = ["%d\t%s" % (p[e], ",".join(str(x) for x in e))
             for e in sorted(p)]
    return "\n".join(lines)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def run_verify(c: Curve, bound=None, budget=DEFAULT_BUDGET):
    """The six cross-pipeline checks; returns [(name, passed, detail)]."""
    r = c.r
    a = Analysis(c, bound, budget)
    alex = en_alexander(a.graph, bound=a.bound)
    results = []

    ok = a.poincare == alex
    results.append(("poincare-equals-alexander", ok,
                    "" if ok else "poincare != alexander"))

    fibers = a.fiber_series
    ok = fibers == alex
    results.append(("fiber-euler-equals-alexander", ok,
                    "" if ok else "fiber series != alexander"))

    divisor = {(1,) * r: 1, (0,) * r: -1}
    product, pprime = mp_mul(fibers, divisor), a.pprime
    if r == 1:
        # the fibers stop at the bound, pprime at the conductor + 1
        top = min(a.bound, a.conductor[0] + 1)
        product, pprime = ({e: x for e, x in p.items() if e[0] <= top}
                           for p in (product, pprime))
    ok = product == pprime
    results.append(("fiber-product-identity", ok,
                    "" if ok else "fiber series * (t..-1) != pprime"))

    # for r > 1, check 1 already divided pprime by the divisor (a.poincare),
    # and a remainder raises NotDivisibleError there; for r = 1 the
    # divisibility convention does not apply
    results.append(("exact-divisibility", True, ""))

    alex_extra = en_alexander(resolve(c, budget, extra=3), bound=a.bound)
    ok = alex_extra == alex
    results.append(("resolution-invariance", ok,
                    "" if ok else "extra blow-ups changed the product"))

    # c(v) = dim J(v)/J(v + 1) = ranks[v + 1] - ranks[v] on [0, c], so the
    # wider table needs only the box [0, c + 1]; v + 1
    # runs over [1, c + 1] in the same order as v over [0, c]
    top = vec_add(a.conductor, (1,) * r)

    def c_values(M):
        return [M.ranks[u] - M.ranks[v] for u, v in
                zip(iter_box((1,) * r, top), iter_box((0,) * r, a.conductor))]

    wide = JetMatrix(c, tuple(w + 2 for w in a.jet.window), box=top)
    ok = c_values(a.jet) == c_values(wide)
    results.append(("window-stability", ok,
                    "" if ok else "c values moved under a wider window"))
    return results


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_resolve(args) -> int:
    c = parse_curve_file(args.input)
    g = resolve(c, args.budget)
    _emit(json.dumps(graph_to_json(g), indent=2, sort_keys=True), args.out)
    return 0


def _cmd_alexander(args) -> int:
    c, g = _load_input(args.input)
    if args.via == "graph":
        if g is None:
            g = resolve(c, args.budget)
        _emit(format_poly(en_alexander(g, bound=args.bound)), args.out)
        return 0
    if c is None:
        raise ParseError("--via %s needs a curve file, not a graph" % args.via)
    a = Analysis(c, args.bound, args.budget)
    poly = a.poincare if args.via == "poincare" else a.fiber_series
    _emit(format_poly(poly), args.out)
    return 0


def _cmd_poincare(args) -> int:
    c = parse_curve_file(args.input)
    a = Analysis(c, args.bound, args.budget)
    _emit(format_poly(a.poincare), args.out)
    return 0


def _window_jet(c: Curve, window) -> JetMatrix:
    """The jet matrix of an explicit --window, which needs one positive
    entry per branch."""
    if len(window) != c.r or min(window) < 1:
        raise ParseError("--window %s needs %d positive entries, one per "
                         "branch of this r = %d curve"
                         % (",".join(str(w) for w in window), c.r, c.r))
    return JetMatrix(c, window)


def _cmd_fibers(args) -> int:
    c = parse_curve_file(args.input)
    if args.window:
        M = _window_jet(c, args.window)
        top = tuple(w - 2 for w in M.window)
    else:
        a = Analysis(c, budget=args.budget)
        M, top = a.jet, a.conductor
    chi = fiber_eulers(M)
    lines = ["%d\t%s" % (chi[v], ",".join(str(x) for x in v))
             for v in iter_box((0,) * c.r, top)]
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_semigroup(args) -> int:
    c = parse_curve_file(args.input)
    M = _window_jet(c, args.window) if args.window else None
    a = Analysis(c, args.bound, args.budget)
    lines = ["conductor\t%s" % ",".join(str(x) for x in a.conductor)]
    if c.r == 1:
        for g in semigroup.minimal_generators(a):
            lines.append("generator\t%d" % g)
        top = (a.bound,)
    else:
        top = vec_add(a.conductor, (2,) * c.r)
    if M is None:
        member = a.is_member
    else:
        member = members(M).__contains__
        top = tuple(min(t, w - 2) for t, w in zip(top, M.window))
    lines.extend("member\t%s" % ",".join(str(x) for x in v)
                 for v in iter_box((0,) * c.r, top) if member(v))
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    c = parse_curve_file(args.input)
    results = run_verify(c, bound=args.bound, budget=args.budget)
    all_ok = True
    for name, ok, detail in results:
        line = "%s %s" % ("PASS" if ok else "FAIL", name)
        if detail and not ok:
            line += ": " + detail
        print(line)
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _parse_window(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError("bad --window %r" % text) from exc


@cache
def _build_parser(cmd: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, built once: each parser holds reference
    cycles, so a fresh one per call would be garbage for the cyclic
    collector."""
    p = argparse.ArgumentParser(prog="curvealex %s" % cmd)
    p.add_argument("input", help="input JSON file")
    if cmd != "verify":
        p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="maximum blow-up generations")
    if cmd not in ("resolve", "fibers"):
        p.add_argument("--bound", type=int, default=None,
                       help="series truncation degree for one-branch curves "
                            "(default: twice the conductor plus two)")
    if cmd == "alexander":
        p.add_argument("--via", choices=("graph", "poincare", "fibers"),
                       default="graph", help="which pipeline computes it")
    if cmd in ("fibers", "semigroup"):
        p.add_argument("--window", type=_parse_window, default=None,
                       help="explicit jet window 'a,b,...'")
    return p


_HANDLERS = {
    "resolve": _cmd_resolve,
    "alexander": _cmd_alexander,
    "poincare": _cmd_poincare,
    "fibers": _cmd_fibers,
    "semigroup": _cmd_semigroup,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in COMMANDS:
        print("usage: curvealex {%s} INPUT [flags]" % "|".join(COMMANDS),
              file=sys.stderr)
        return 64
    cmd, rest = argv[0], argv[1:]
    parser = _build_parser(cmd)
    args = parser.parse_args(rest)
    try:
        for flag, least in (("bound", 0), ("budget", 1)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise ParseError("--%s must be at least %d, not %d"
                                 % (flag, least, value))
        return _HANDLERS[cmd](args)
    except ParseError as exc:
        print("%s: %s" % (exc.code, exc), file=sys.stderr)
        return 2
    except curve_mod.ValidationError as exc:
        print("%s: %s" % (exc.code, exc), file=sys.stderr)
        return 3
    except (NotDivisibleError, BudgetExceededError, BoundaryNonzeroError,
            GraphError) as exc:
        print("%s: %s" % (exc.code, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
