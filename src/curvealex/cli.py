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
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from operator import lt

from . import curve as curve_mod
from .curve import BranchParam, Curve
from .exactmath import (
    MultiPoly,
    NotDivisibleError,
    iter_box,
    mp_mul_one_minus,
    vec_add,
)
from .filtration import (
    Analysis,
    BoundaryNonzeroError,
    JetMatrix,
    TableTooLargeError,
    check_table,
    chi_chain,
    listed,
    minimal_generators,
    visible_rows,
)
from .resolution import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    GraphError,
    ResGraph,
    en_alexander,
    free_blowups,
    resolve,
)

class ParseError(ValueError):
    code = "ParseError"


class NotATreeError(ParseError):
    code = "NotATree"


class ArrowCountMismatchError(ParseError):
    code = "ArrowCountMismatch"


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _coeff_from_json(c):
    """A JSON integer or an integer string as an int, a 'p/q' string as a
    Fraction."""
    if isinstance(c, bool) or isinstance(c, float):
        raise ParseError("coefficients must be integers or 'p/q' strings: %r" % (c,))
    if type(c) is int:
        return c
    # int() reads the integer strings Fraction() reads, to the same value,
    # and rejects the others, except '1_0', which Fraction() rejects before
    # Python 3.11
    if type(c) is str and "_" not in c:
        try:
            return int(c)
        except ValueError:
            pass
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
        if type(e) is not int or e < 0:
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
    return Curve(out)


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, a UnicodeDecodeError, or a plain ValueError
        # for an integer longer than the interpreter's int digit limit
        raise ParseError("malformed JSON in %s: %s" % (path, exc)) from exc


def parse_curve_file(path) -> Curve:
    return curve_from_json(_read_json(path))


def _int(x) -> int:
    """A JSON integer; a bool, a float or a string is none."""
    if type(x) is not int:
        raise ParseError("%r is not an integer" % (x,))
    return x


def graph_from_json(data) -> ResGraph:
    try:
        r = _int(data["r"])
        ids = [_int(v["id"]) for v in data["vertices"]]
        vertices = {vid: tuple(_int(x) for x in v["m"])
                    for vid, v in zip(ids, data["vertices"])}
        edges = {tuple(sorted((_int(a), _int(b)))) for a, b in data["edges"]}
        arrows = [(_int(a["vertex"]), _int(a["branch"]))
                  for a in data["arrows"]]
        root = _int(data["root"])
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
        for u in graph.adjacency[v]:
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


def json_text(x, indent="") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)`` for ints, lists and
    str-keyed dicts, byte for byte.  The encoder behind ``indent`` is pure
    Python and leaves reference cycles for the cyclic collector; this
    leaves none."""
    if type(x) is int:
        return repr(x)
    inner = indent + "  "
    if isinstance(x, dict):
        items = [encode_basestring_ascii(k) + ": "
                 + (repr(v) if type(v) is int else json_text(v, inner))
                 for k, v in sorted(x.items())]
        brackets = "{}"
    elif isinstance(x, list):
        items = [repr(y) if type(y) is int else json_text(y, inner)
                 for y in x]
        brackets = "[]"
    else:
        raise TypeError("%r is not an int, a list or a dict" % (x,))
    if not items:
        return brackets
    body = (",\n" + inner).join(items)
    return "%s\n%s%s\n%s%s" % (brackets[0], inner, body, indent, brackets[1])


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

def _point(v) -> str:
    """A lattice point as the CLI prints it: comma-joined coordinates."""
    return ",".join(map(str, v))


def format_poly(p: dict) -> str:
    """One term per line: coefficient, tab, comma-joined exponents, sorted
    lexicographically; byte-for-byte deterministic."""
    lines = ["%d\t%s" % (p[e], _point(e)) for e in sorted(p)]
    return "\n".join(lines)


def printed_series(delta: MultiPoly, bound=None) -> MultiPoly:
    """What the CLI prints of the Alexander polynomial Delta (constant term
    1) that every pipeline returns: Delta for r > 1; for r = 1 the monodromy
    zeta function Delta / (1 - t), the prefix sums of Delta on [0, bound]
    (default 2 deg Delta + 2, twice the conductor plus two)."""
    if len(next(iter(delta))) > 1:
        return delta
    top = 2 * max(delta)[0] + 2 if bound is None else bound
    sums = accumulate(delta.get((v,), 0) for v in range(top + 1))
    return {(v,): x for v, x in enumerate(sums) if x}


def _emit(text: str, out_path) -> None:
    """Write text and a final newline; empty text (an empty box) writes
    nothing."""
    text = text + "\n" if text else ""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError("cannot write %s: %s" % (out_path, exc)) from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def run_verify(c: Curve, budget=DEFAULT_BUDGET):
    """The six cross-pipeline checks on the exact Alexander polynomials, as
    six rows (name, passed, reason) in a fixed order.  The reason is what
    ``verify`` prints after the name of a failing row, and is nonempty
    whenever the row fails."""
    r = c.r
    a = Analysis(c, budget)
    alex = en_alexander(a.graph)
    # for r > 1, a.poincare divides pprime by t_1...t_r - 1: a remainder
    # fails check 1 and check 4; for r = 1 nothing is divided
    try:
        poincare, remainder = a.poincare, ""
    except NotDivisibleError as exc:
        poincare, remainder = None, str(exc)
    fibers = a.fiber_series
    # P' = -(1 - t_1...t_r) Delta for r > 1, and P' = -Delta for r = 1
    product = mp_mul_one_minus(fibers, (1,) * r) if r > 1 else fibers
    # the certificate proved h(c) = sum(c) - delta and puts every honest
    # rank of [0, c + 2] on the conductor rule, which the reads take past c:
    # one more honest rank, h(c + 1), is checked against it
    top = vec_add(a.conductor, (1,) * r)
    h, rule = a.jet.rank_below(top), sum(a.conductor) - a.delta + r
    return [
        ("poincare-equals-alexander", poincare == alex,
         "poincare != alexander"),
        ("fiber-euler-equals-alexander", fibers == alex,
         "fiber series != alexander"),
        ("fiber-product-identity",
         {e: -x for e, x in product.items()} == a.pprime,
         "fiber series * (t..-1) != pprime"),
        ("exact-divisibility", not remainder, remainder),
        ("resolution-invariance",
         en_alexander(free_blowups(a.graph, 3)) == alex,
         "extra blow-ups changed the product"),
        ("window-stability", h == rule,
         "h(%s) = %d on the honest re-sweep, %d by the conductor rule"
         % (_point(top), h, rule)),
    ]


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_resolve(args) -> int:
    c = parse_curve_file(args.input)
    g = resolve(c, args.budget)
    _emit(json_text(graph_to_json(g)), args.out)
    return 0


def _cmd_alexander(args) -> int:
    c, g = _load_input(args.input)
    if args.via == "graph":
        delta = en_alexander(resolve(c, args.budget) if g is None else g)
    elif c is None:
        raise ParseError("--via %s needs a curve file, not a graph" % args.via)
    else:
        a = Analysis(c, args.budget)
        delta = a.poincare if args.via == "poincare" else a.fiber_series
    _emit(format_poly(printed_series(delta, args.bound)), args.out)
    return 0


def _cmd_poincare(args) -> int:
    a = Analysis(parse_curve_file(args.input), args.budget)
    _emit(format_poly(printed_series(a.poincare, args.bound)), args.out)
    return 0


def _checked_window(c: Curve, window) -> tuple:
    """An explicit --window, which needs one positive entry per branch."""
    if len(window) != c.r or min(window) < 1:
        raise ParseError("--window %s needs %d positive entries, one per "
                         "branch of this r = %d curve"
                         % (_point(window), c.r, c.r))
    return window


def _cmd_fibers(args) -> int:
    c = parse_curve_file(args.input)
    if args.window:
        # chi on [0, window - 2] reads the honest ranks on [0, window - 1],
        # refused before any row is built; the lines leave out the faces
        # v_i = window_i - 1, which its chain fills by the rule
        window = _checked_window(c, args.window)
        box = tuple(w - 1 for w in window)
        check_table(visible_rows(c, window), box)
        chi = listed(chi_chain(JetMatrix(c, window).sweep(box)[0], box), box)
        points = [(v, x) for v, x in zip(iter_box((0,) * c.r, box), chi)
                  if all(map(lt, v, box))]
    else:
        a = Analysis(c, budget=args.budget)
        points = zip(iter_box((0,) * c.r, a.conductor), a.chi)
    lines = ["%d\t%s" % (x, _point(v)) for v, x in points]
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_semigroup(args) -> int:
    c = parse_curve_file(args.input)
    window = _checked_window(c, args.window) if args.window else None
    a = Analysis(c, args.budget)
    lines = ["conductor\t%s" % _point(a.conductor)]
    if c.r == 1:
        for g in minimal_generators(a):
            lines.append("generator\t%d" % g)
        # the listing stops where printed_series stops by default
        top = (2 * a.conductor[0] + 2 if args.bound is None else args.bound,)
    else:
        top = vec_add(a.conductor, (2,) * c.r)
    if window:
        # the window only shortens the output: members on [0, window - 2]
        top = tuple(min(t, w - 2) for t, w in zip(top, window))
    lines.extend("member\t%s" % _point(v) for v in a.members_in(top))
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    c = parse_curve_file(args.input)
    # --bound is accepted and range-checked, but every check is exact
    results = run_verify(c, budget=args.budget)
    _emit("\n".join("PASS " + name if ok else "FAIL %s: %s" % (name, reason)
                     for name, ok, reason in results), None)
    return 0 if all(ok for _, ok, _ in results) else 1


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
        p.add_argument("--bound", type=int, default=None, help=(
            "accepted and range-checked, but narrows no check: every check "
            "compares exact polynomials" if cmd == "verify" else
            "series truncation degree for one-branch curves (default: twice "
            "the conductor plus two)"))
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
COMMANDS = tuple(_HANDLERS)


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
            TableTooLargeError, GraphError) as exc:
        print("%s: %s" % (exc.code, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
