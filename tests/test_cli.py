import gc
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from curvealex import Curve, cli, filtration, resolution
from curvealex import curve as curve_mod
from curvealex.cli import (
    ArrowCountMismatchError,
    NotATreeError,
    ParseError,
    _coeff_from_json,
    curve_from_json,
    format_poly,
    graph_from_json,
    graph_text,
    parse_curve_file,
    printed_series,
)
from curvealex.exactmath import iter_box, vec_add
from curvealex.filtration import Analysis, JetMatrix
from curvealex.resolution import resolve

from corpus import (
    CORPUS_ALL,
    curve_to_json,
    graph_to_json,
    make_cusp,
    make_cusp_tangent_line,
    make_quartic_branch,
    make_smooth_branch,
    make_tacnode,
    make_three_lines,
    make_wide_three_branches,
    parse_graph_file,
    reference_printed_series,
)

CUSP_JSON = {"branches": [{"x": [[2, "1"]], "y": [[3, "1"]]}]}
NODE_JSON = {"branches": [{"x": [[1, "1"]], "y": []},
                          {"x": [], "y": [[1, "1"]]}]}
NONPRIMITIVE_JSON = {"branches": [{"x": [[2, "1"]], "y": [[4, "1"]]}]}


def _a_k(k):
    return {"branches": [{"x": [[2, "1"]], "y": [[2 * k + 1, "1"]]}]}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def calls(monkeypatch):
    """Counts runs of the blow-up engine, jet-matrix builds and single
    honest ranks (``rank_below``), and records the window of each build and
    the box of each sweep."""
    counts = {"engine": 0, "jet": 0, "windows": [], "boxes": [], "honest": 0}
    engine = resolution._run_blowups
    init, sweep = JetMatrix.__init__, JetMatrix.sweep
    rank_below = JetMatrix.rank_below

    def counted_engine(*args, **kwargs):
        counts["engine"] += 1
        return engine(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["jet"] += 1
        init(self, *args, **kwargs)
        counts["windows"].append(self.window)

    def counted_sweep(self, box):
        counts["boxes"].append(tuple(box))
        return sweep(self, box)

    def counted_rank_below(self, v):
        counts["honest"] += 1
        return rank_below(self, v)

    for name, mod in list(sys.modules.items()):
        if name.startswith("curvealex") and \
                getattr(mod, "_run_blowups", None) is engine:
            monkeypatch.setattr(mod, "_run_blowups", counted_engine)
    monkeypatch.setattr(JetMatrix, "__init__", counted_init)
    monkeypatch.setattr(JetMatrix, "sweep", counted_sweep)
    monkeypatch.setattr(JetMatrix, "rank_below", counted_rank_below)
    return counts


def test_parse_cusp_file(tmp_path):
    c = parse_curve_file(_write(tmp_path, "cusp.json", CUSP_JSON))
    assert c.r == 1
    assert c.branches[0].x == {2: 1}
    assert c.branches[0].y == {3: 1}


def test_parse_node_file(tmp_path):
    c = parse_curve_file(_write(tmp_path, "node.json", NODE_JSON))
    assert c.r == 2
    assert c.branches[0].y == {}


def test_parse_rejects_nonprimitive_with_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", NONPRIMITIVE_JSON)
    assert cli.main(["resolve", path]) == 3
    assert "NonPrimitive" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["resolve", str(path)]) == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"\xff\xfe{", b"[" * 200000,
    b'{"branches": [{"x": [[1, ' + b"1" * 5000 + b']], "y": []}]}',
], ids=["not-utf-8", "nested-200000-deep", "integer-of-5000-digits"])
def test_unreadable_json_exits_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert cli.main(["resolve", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "ParseError: malformed JSON in %s: " % path)


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert cli.main(["resolve", _write(tmp_path, "cusp.json", CUSP_JSON),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "ParseError: cannot write %s: " % out)


def test_rational_string_coefficients(tmp_path):
    data = {"branches": [{"x": [[2, "1/2"]], "y": [[3, 2]]}]}
    c = parse_curve_file(_write(tmp_path, "half.json", data))
    assert c.branches[0].x == {2: Fraction(1, 2)}


COEFF_STRINGS = [
    "1", "-3", " +7\n", "-0", "\u0663", "\uff11\uff12", "1_0", "1/2",
    " 6/4 ", "1.5", "2e3", "", " ", "+", "1__0", "_1", "1_", "1 0",
    "\u00b2", "\u22121", "0x10", "1/0", "1" * 5000]


@pytest.mark.parametrize("text", COEFF_STRINGS, ids=lambda t: repr(t)[:12])
def test_coefficient_strings_read_as_fraction_reads_them(text):
    # the value Fraction(text) has, or its error in the ParseError
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ParseError) as info:
            _coeff_from_json(text)
        assert str(info.value) == "bad coefficient %r: %s" % (text, exc)
    else:
        assert _coeff_from_json(text) == want


def test_integer_coefficient_strings_are_ints():
    assert [_coeff_from_json(t) for t in ("1", "-3", " +7\n", "\u0663")] \
        == [1, -3, 7, 3]
    assert all(type(_coeff_from_json(t)) is int for t in ("1", "-3"))


def test_graph_file_roundtrip(tmp_path):
    g = resolve(make_tacnode())
    path = _write(tmp_path, "tac.json", graph_to_json(g))
    g2 = parse_graph_file(path)
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges
    assert g2.arrows == g.arrows
    assert g2.root == g.root
    assert graph_to_json(g2) == graph_to_json(g)


def test_bool_exponent_is_a_parse_error(tmp_path, capsys):
    data = {"branches": [{"x": [[True, 1]], "y": [[3, 1]]}]}
    assert cli.main(["semigroup", _write(tmp_path, "bool.json", data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ParseError: bad exponent True\n"


# where each integer field of a graph file sits, read from the JSON object
GRAPH_INT_FIELDS = {
    "r": lambda g: (g, "r"),
    "id": lambda g: (g["vertices"][0], "id"),
    "m": lambda g: (g["vertices"][0]["m"], 0),
    "edges": lambda g: (g["edges"][0], 0),
    "arrows-vertex": lambda g: (g["arrows"][0], "vertex"),
    "arrows-branch": lambda g: (g["arrows"][0], "branch"),
    "root": lambda g: (g, "root"),
}


@pytest.mark.parametrize("field", sorted(GRAPH_INT_FIELDS))
@pytest.mark.parametrize("kind", ["float", "string", "bool"])
def test_graph_integers_must_be_json_integers(tmp_path, capsys, field, kind):
    # int() would read 3.9 as 3, "3" as 3 and true as 1
    data = graph_to_json(resolve(make_cusp()))
    owner, key = GRAPH_INT_FIELDS[field](data)
    value = owner[key]
    owner[key] = {"float": value + 0.9, "string": str(value),
                  "bool": True}[kind]
    path = _write(tmp_path, "cusp-graph.json", data)
    assert cli.main(["alexander", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ParseError: malformed graph file: %r is not an " \
        "integer\n" % (owner[key],)
    owner[key] = value
    assert cli.main(["alexander", _write(tmp_path, "ok.json", data)]) == 0


def test_curve_file_roundtrip():
    c = make_tacnode()
    data = curve_to_json(c, name="tacnode")
    c2 = curve_from_json(data)
    assert curve_to_json(c2, name="tacnode") == data


def test_graph_with_cycle_is_rejected():
    data = {
        "r": 1,
        "vertices": [{"id": 1, "m": [2]}, {"id": 2, "m": [3]},
                     {"id": 3, "m": [6]}],
        "edges": [[1, 2], [2, 3], [1, 3]],
        "arrows": [{"vertex": 3, "branch": 1}],
        "root": 1,
    }
    with pytest.raises(NotATreeError):
        graph_from_json(data)


def test_graph_with_duplicate_vertex_id_exits_2(tmp_path, capsys):
    data = {
        "r": 1,
        "vertices": [{"id": 1, "m": [2]}, {"id": 2, "m": [3]},
                     {"id": 2, "m": [6]}],
        "edges": [[1, 2]],
        "arrows": [{"vertex": 2, "branch": 1}],
        "root": 1,
    }
    path = _write(tmp_path, "dup-graph.json", data)
    assert cli.main(["alexander", path]) == 2
    assert capsys.readouterr().err == "ParseError: duplicate vertex id 2\n"


@pytest.mark.parametrize("ids,edges,line", [
    ([1, 2], [[1, 2], [2, 1]], "edge (1, 2) is listed twice"),
    ([1, 2, 3], [[1, 3], [3, 1]], "edge (1, 3) is listed twice"),
    ([1], [[1, 1]], "edge (1, 1) is a loop")],
    ids=["reversed-pair", "reversed-pair-fits-the-count", "loop"])
def test_graph_with_a_loop_or_a_repeated_edge_exits_2(tmp_path, capsys, ids,
                                                      edges, line):
    # the edges are counted as listed, so none of them passes as a tree or
    # takes another edge's error
    data = {"r": 1, "vertices": [{"id": v, "m": [v]} for v in ids],
            "edges": edges, "arrows": [{"vertex": 1, "branch": 1}],
            "root": 1}
    path = _write(tmp_path, "repeated-edge-graph.json", data)
    assert cli.main(["alexander", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "NotATree: %s\n" % line


def test_graph_with_missing_arrow_is_rejected():
    data = {
        "r": 2,
        "vertices": [{"id": 1, "m": [1, 1]}],
        "edges": [],
        "arrows": [{"vertex": 1, "branch": 1}],
        "root": 1,
    }
    with pytest.raises(ArrowCountMismatchError):
        graph_from_json(data)


def test_alexander_node_output(tmp_path, capsys):
    path = _write(tmp_path, "node.json", NODE_JSON)
    assert cli.main(["alexander", path]) == 0
    assert capsys.readouterr().out == "1\t0,0\n"


def test_alexander_pipelines_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, "node.json", NODE_JSON)
    outputs = []
    for via in ("graph", "poincare", "fibers"):
        assert cli.main(["alexander", "--via", via, path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_alexander_accepts_graph_file(tmp_path, capsys):
    g = resolve(make_tacnode())
    path = _write(tmp_path, "tac-graph.json", graph_to_json(g))
    assert cli.main(["alexander", path]) == 0
    assert capsys.readouterr().out == "1\t0,0\n1\t1,1\n"


def test_one_branch_graph_that_resolves_no_curve_exits_1(tmp_path, capsys):
    # (1 - t) / (1 - t^2) = 1 / (1 + t) is no Alexander polynomial
    data = {"r": 1, "vertices": [{"id": 1, "m": [2]}, {"id": 2, "m": [3]}],
            "edges": [[1, 2]], "arrows": [{"vertex": 2, "branch": 1}],
            "root": 1}
    path = _write(tmp_path, "fabricated-graph.json", data)
    assert cli.main(["alexander", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("NotDivisible: ")


def test_two_branch_graph_that_resolves_no_curve_exits_1(tmp_path, capsys):
    # (1 - t^(5,2))^2 / ((1 - t^(5,4)) (1 - t^(2,4))), dividing by the
    # larger binomial first: along direction (5, 4) the lines through
    # (0, 0), (5, 2) and (10, 4) have the base points (0, 0), (5, 2) and
    # (5, 0) and sum to 1, -2 and 1, so the division stops at (5, 2)
    data = {"r": 2, "vertices": [{"id": 1, "m": [2, 4]},
                                 {"id": 2, "m": [5, 2]},
                                 {"id": 3, "m": [5, 4]}],
            "edges": [[1, 2], [2, 3]],
            "arrows": [{"vertex": 2, "branch": 1}, {"vertex": 2, "branch": 2}],
            "root": 1}
    path = _write(tmp_path, "fabricated-graph.json", data)
    assert cli.main(["alexander", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("NotDivisible: remainder with leading term "
                            "(5, 2) while dividing by 1 - t^(5, 4)\n")


def test_via_poincare_rejects_graph_input(tmp_path, capsys):
    g = resolve(make_tacnode())
    path = _write(tmp_path, "tac-graph.json", graph_to_json(g))
    assert cli.main(["alexander", "--via", "poincare", path]) == 2


def test_verify_tacnode_all_pass(tmp_path, capsys, calls):
    c = make_tacnode()
    path = _write(tmp_path, "tacnode.json", curve_to_json(c))
    assert cli.main(["verify", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS ") for line in lines)
    # one analysis, whose graph takes the extra blow-ups, and one jet matrix
    assert calls["engine"] == 1
    assert calls["jet"] == 1
    # the conductor is (2, 2): the analysis sweeps [0, c] of its window
    # c + 2, and window-stability takes one honest rank, h(c + 1)
    assert calls["windows"] == [(4, 4)]
    assert calls["boxes"] == [(2, 2)]
    assert calls["honest"] == 1


def test_verify_five_transverse_lines_all_pass(tmp_path, capsys, calls):
    lines = {"branches": [{"x": [[1, "1"]], "y": [[1, str(a)]] if a else []}
                          for a in range(4)] + [{"x": [], "y": [[1, "1"]]}]}
    path = _write(tmp_path, "five-lines.json", lines)
    assert cli.main(["verify", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6
    assert all(line.startswith("PASS ") for line in out)
    # the conductor is (4, 4, 4, 4, 4): the analysis sweeps [0, c] and
    # window-stability takes the one honest rank h(c + 1), both on the one
    # window c + 2
    assert calls["windows"] == [(6,) * 5]
    assert calls["boxes"] == [(4,) * 5]
    assert calls["honest"] == 1


def test_verify_and_every_pipeline_on_the_wide_three_branches(tmp_path,
                                                             capsys, calls):
    # conductor (50, 20, 40): 66 jet rows and 43,911 points on [0, c],
    # whose last two axes the sweep reads slab by slab
    path = _write(tmp_path, "wide.json",
                  curve_to_json(make_wide_three_branches()))
    assert cli.main(["verify", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6
    assert all(line.startswith("PASS ") for line in out)
    assert calls["boxes"] == [(50, 20, 40)]
    outputs = []
    for via in ("graph", "poincare", "fibers"):
        assert cli.main(["alexander", "--via", via, path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[0] == outputs[1] == outputs[2]


def test_verify_fails_when_the_wider_window_moves_c(tmp_path, capsys,
                                                    monkeypatch):
    # (3, 3) is the tacnode's c + 1, where the one honest rank is taken:
    # c(v) = h(v + 1) - h(v), so this moves c at (2, 2) only, read at (3, 3)
    rank_below = JetMatrix.rank_below
    monkeypatch.setattr(JetMatrix, "rank_below",
                        lambda self, v: rank_below(self, v) + 1)
    path = _write(tmp_path, "tacnode.json", curve_to_json(make_tacnode()))
    assert cli.main(["verify", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == ["PASS " + name for name in (
        "poincare-equals-alexander", "fiber-euler-equals-alexander",
        "fiber-product-identity", "exact-divisibility",
        "resolution-invariance")]
    assert lines[5:] == ["FAIL window-stability: h(3,3) = 5 on the honest "
                         "re-sweep, 4 by the conductor rule"]


VERIFY_PASSED = ["PASS " + name for name in (
    "poincare-equals-alexander", "fiber-euler-equals-alexander",
    "fiber-product-identity", "exact-divisibility", "resolution-invariance",
    "window-stability")]


@pytest.mark.parametrize("make,line", [
    (make_cusp, "h(3) = 3 on the honest re-sweep, 2 by the conductor rule"),
    (make_three_lines,
     "h(3,3,3) = 7 on the honest re-sweep, 6 by the conductor rule")],
    ids=["r1", "r3"])
def test_verify_reads_the_honest_rank_at_c_plus_one(tmp_path, capsys,
                                                    monkeypatch, make, line):
    # an honest rank one too high at c + 1 alone, where no read looks: only
    # window-stability sees it, and it names c + 1
    rank_below = JetMatrix.rank_below
    curve = make()
    top = tuple(x + 1 for x in Analysis(curve).conductor)
    monkeypatch.setattr(JetMatrix, "rank_below", lambda self, v:
                        rank_below(self, v) + (tuple(v) == top))
    path = _write(tmp_path, "curve.json", curve_to_json(curve))
    assert cli.main(["verify", path]) == 1
    assert capsys.readouterr().out.splitlines() == \
        VERIFY_PASSED[:5] + ["FAIL window-stability: " + line]


@pytest.mark.parametrize("make,other", [
    (make_cusp, make_quartic_branch), (make_tacnode, make_cusp_tangent_line)],
    ids=["r1", "r2"])
def test_verify_fails_when_extra_blow_ups_change_the_product(
        tmp_path, capsys, monkeypatch, make, other):
    # the graph with extra blow-ups swapped for another curve's resolution
    # graph with as many branches: its product differs and divides exactly,
    # so only resolution-invariance fails
    monkeypatch.setattr(cli, "free_blowups",
                        lambda graph, n: resolve(other()))
    path = _write(tmp_path, "curve.json", curve_to_json(make()))
    assert cli.main(["verify", path]) == 1
    expected = list(VERIFY_PASSED)
    expected[4] = ("FAIL resolution-invariance: extra blow-ups changed the "
                   "product")
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("make,line", [
    (make_cusp, "(7,) while dividing by 1 - t^(12,)"),
    (make_tacnode, "(1, 1) while dividing by 1 - t^(4, 4)")],
    ids=["r1", "r2"])
def test_verify_fails_when_extra_blow_ups_leave_a_remainder(
        tmp_path, capsys, monkeypatch, make, line):
    # each extra vertex with twice its target's multiplicity: the product
    # is no polynomial, and resolution-invariance fails with the message of
    # the division that stops, while the other checks pass
    def doubled(graph, n):
        g = resolution.free_blowups(graph, n)
        for vid in range(max(graph.vertices) + 1, max(g.vertices) + 1):
            target = next(a for a, b in g.edges if b == vid)
            g.vertices[vid] = tuple(2 * x for x in g.vertices[target])
        return g

    monkeypatch.setattr(cli, "free_blowups", doubled)
    path = _write(tmp_path, "curve.json", curve_to_json(make()))
    assert cli.main(["verify", path]) == 1
    expected = list(VERIFY_PASSED)
    expected[4] = ("FAIL resolution-invariance: extra blow-ups changed the "
                   "product: remainder with leading term " + line)
    assert capsys.readouterr().out.splitlines() == expected


def _bumped(values, top, points):
    """A read on [0, top] (a list for one branch, packed in 16-bit slots
    for r > 1), one more at each of the points."""
    box = iter_box((0,) * len(top), tuple(top))
    if len(top) > 1:
        return values + sum(1 << 16 * k for k, v in enumerate(box)
                            if v in points)
    return [x + (v in points) for v, x in zip(box, values, strict=True)]


def _corrupted_shell(monkeypatch, points):
    """Make P''s coefficient one more at each of the points, on the faces
    v_i = c_i of [0, c] where the chi it reads fills its sweeps' last
    slices by the conductor rule; the corruption wraps P''s read, which
    chi does not read, so P' alone moves."""
    read = filtration.pprime_coefficients
    monkeypatch.setattr(filtration, "pprime_coefficients",
                        lambda chi, ranks, c:
                        _bumped(read(chi, ranks, c), c, points))


@pytest.mark.parametrize("make,i,lead", [
    (make_cusp, 0, None), (make_tacnode, 0, "(1, 0)"),
    (make_tacnode, 1, "(0, 1)"), (make_three_lines, 0, "(1, 0, 0)"),
    (make_three_lines, 1, "(0, 1, 0)"), (make_three_lines, 2, "(0, 0, 1)")],
    ids=["r1-face0", "r2-face0", "r2-face1", "r3-face0", "r3-face1",
         "r3-face2"])
def test_verify_names_the_corrupted_point_of_each_face(tmp_path, capsys,
                                                       monkeypatch, make, i,
                                                       lead):
    # one more at the middle point of P''s face v_i = c_i: P' moves, so
    # the fiber-product identity fails, and for r > 1 the division by
    # t_1...t_r - 1 leaves a remainder, which the FAIL lines name; chi,
    # membership and window-stability do not read P' and pass
    curve = make()
    c = Analysis(curve).conductor
    low = tuple(x if j == i else 0 for j, x in enumerate(c))
    points = list(iter_box(low, c))
    _corrupted_shell(monkeypatch, {points[len(points) // 2]})
    path = _write(tmp_path, "curve.json", curve_to_json(curve))
    assert cli.main(["verify", path]) == 1
    expected = list(VERIFY_PASSED)
    expected[2] = ("FAIL fiber-product-identity: fiber series * (t..-1) != "
                   "pprime")
    if lead is not None:
        expected[0] = "FAIL poincare-equals-alexander: poincare != alexander"
        expected[3] = ("FAIL exact-divisibility: remainder with leading term "
                       "%s while dividing by 1 - t^%r"
                       % (lead, (1,) * curve.r))
    assert capsys.readouterr().out.splitlines() == expected


def test_verify_fails_when_chi_leaves_a_zero_face(tmp_path, capsys,
                                                  monkeypatch):
    # for r > 1 the conductor rule makes chi zero on the faces v_i = c_i,
    # where Delta has no term; one more at (c_0, 1, 0, ...) adds a term to
    # the fiber series, and P' reads chi, so it moves too: checks 2 and 3
    # fail, the division of -P' leaves a remainder, which checks 1 and 4
    # name, and the two checks that read neither pass
    chi = Analysis.chi_table.func
    expected = list(VERIFY_PASSED)
    expected[0] = "FAIL poincare-equals-alexander: poincare != alexander"
    expected[1] = "FAIL fiber-euler-equals-alexander: fiber series != alexander"
    expected[2] = ("FAIL fiber-product-identity: fiber series * (t..-1) != "
                   "pprime")
    for curve, lead in ((make_tacnode(), "(1, 0)"),
                        (make_three_lines(), "(2, 1, 0)")):
        expected[3] = ("FAIL exact-divisibility: remainder with leading term "
                       "%s while dividing by 1 - t^%r"
                       % (lead, (1,) * curve.r))
        v = (Analysis(curve).conductor[0], 1) + (0,) * (curve.r - 2)
        monkeypatch.setattr(Analysis, "chi_table", property(
            lambda self, v=v: _bumped(chi(self), self.conductor, {v})))
        path = _write(tmp_path, "curve.json", curve_to_json(curve))
        assert cli.main(["verify", path]) == 1
        assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("k,bound", [(1, b) for b in range(5)] + [(40, 3)])
def test_verify_one_branch_passes_below_the_conductor(tmp_path, capsys, k,
                                                      bound):
    path = _write(tmp_path, "a%d.json" % k, _a_k(k))
    assert cli.main(["verify", path, "--bound", str(bound)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS ") for line in lines)


@pytest.mark.parametrize("bound", [[], ["--bound", "0"], ["--bound", "3"]],
                         ids=["default", "bound-0", "bound-3"])
def test_verify_compares_the_exact_polynomials_whatever_the_bound(
        tmp_path, monkeypatch, capsys, bound):
    # chi corrupted at v = c - 1 = 15 on the quartic: a bound below 15
    # must not hide it, because verify compares the exact Delta
    chi = Analysis.chi_table.func

    def corrupted(a):
        values = chi(a)
        values[a.conductor[0] - 1] += 5
        return values

    monkeypatch.setattr(Analysis, "chi_table", property(corrupted))
    path = _write(tmp_path, "quartic.json",
                  curve_to_json(make_quartic_branch()))
    assert cli.main(["verify", path] + bound) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS poincare-equals-alexander",
        "FAIL fiber-euler-equals-alexander: fiber series != alexander",
        "FAIL fiber-product-identity: fiber series * (t..-1) != pprime",
        "PASS exact-divisibility",
        "PASS resolution-invariance",
        "PASS window-stability"]


@pytest.mark.parametrize("argv,message", [
    (["poincare", "--bound", "-1"], "--bound must be at least 0, not -1"),
    (["alexander", "--bound", "-1"], "--bound must be at least 0, not -1"),
    (["poincare", "--budget", "0"], "--budget must be at least 1, not 0"),
    (["resolve", "--budget", "-2"], "--budget must be at least 1, not -2"),
], ids=["poincare-bound", "alexander-bound", "poincare-budget",
        "resolve-budget"])
def test_out_of_range_flag_is_a_parse_error(tmp_path, capsys, argv, message):
    path = _write(tmp_path, "cusp.json", CUSP_JSON)
    assert cli.main(argv[:1] + [path] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ParseError: %s\n" % message


@pytest.mark.parametrize("cmd,text", [
    (cmd, "series truncation degree for one-branch curves (default: twice "
          "the conductor plus two)")
    for cmd in ("alexander", "poincare", "semigroup")] + [
    ("verify", "accepted and range-checked, but narrows no check: every "
               "check compares exact polynomials")],
    ids=["alexander", "poincare", "semigroup", "verify"])
def test_bound_help_says_what_the_flag_does(cmd, text):
    bound, = [action for action in cli._build_parser(cmd)._actions
              if action.dest == "bound"]
    assert bound.help == text


@pytest.mark.parametrize("argv", [["resolve", "--bound", "3"],
                                  ["fibers", "--bound", "3"],
                                  ["verify", "--out", "unused.txt"]],
                         ids=["resolve-bound", "fibers-bound", "verify-out"])
def test_flag_the_command_ignores_is_rejected(tmp_path, capsys, argv):
    path = _write(tmp_path, "cusp.json", CUSP_JSON)
    with pytest.raises(SystemExit) as info:
        cli.main(argv[:1] + [path] + argv[1:])
    assert info.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv,engine,jet", [
    (["semigroup"], 1, 1),
    (["poincare"], 1, 1),
    (["alexander", "--via", "fibers"], 1, 1),
    (["alexander"], 1, 0),
    (["resolve"], 1, 0),
    (["semigroup", "--window", "6"], 1, 1),
])
def test_one_branch_command_analyses_once(tmp_path, capsys, calls, argv,
                                          engine, jet):
    path = _write(tmp_path, "cusp.json", CUSP_JSON)
    assert cli.main(argv[:1] + [path] + argv[1:]) == 0
    # the cusp's conductor is 2: one window of conductor + 2, swept on
    # [0, 2]
    assert calls == {"engine": engine, "jet": jet, "windows": [(4,)] * jet,
                     "boxes": [(2,)] * jet, "honest": 0}


def test_bound_truncates_without_sizing_the_window(tmp_path, capsys, calls):
    path = _write(tmp_path, "cusp.json", CUSP_JSON)
    assert cli.main(["poincare", path, "--bound", "1000"]) == 0
    assert capsys.readouterr().out == "".join(
        "1\t%d\n" % v for v in [0] + list(range(2, 1001)))
    assert calls["windows"] == [(4,)]


def test_multi_branch_semigroup_builds_one_window(tmp_path, capsys, calls):
    path = _write(tmp_path, "node.json", NODE_JSON)
    assert cli.main(["semigroup", path]) == 0
    members = ["0,0"] + ["%d,%d" % v for v in iter_box((1, 1), (3, 3))]
    assert capsys.readouterr().out == "conductor\t1,1\n" + "".join(
        "member\t%s\n" % v for v in members)
    assert calls["windows"] == [(3, 3)]


# A_k = (t^2, t^(2k+1)) resolves in k + 2 blow-ups, the first k of them
# one Euclid chain from the root: a budget below k ends inside the chain
BUDGET_REACHES = [("poincare", 63, 200), ("poincare", 63, 65),
                  ("poincare", 62, 64), ("resolve", 62, 64),
                  ("resolve", 63, 65)]
BUDGET_FAILS = [("poincare", 40, 10), ("resolve", 62, 63),
                ("resolve", 62, 61), ("alexander", 62, 30),
                ("resolve", 63, 64), ("semigroup", 63, 63)]


def _budget_id(case):
    return "%s-A%d-%d" % case


@pytest.mark.parametrize("cmd,k,budget", BUDGET_REACHES,
                         ids=map(_budget_id, BUDGET_REACHES))
def test_budget_reaches_the_series_commands(tmp_path, capsys, cmd, k, budget):
    path = _write(tmp_path, "a%d.json" % k, _a_k(k))
    argv = [cmd, path, "--budget", str(budget)]
    if cmd == "poincare":
        argv += ["--bound", "10"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if cmd == "poincare":
        assert out == "".join("1\t%d\n" % v for v in range(0, 11, 2))
    else:
        assert len(json.loads(out)["vertices"]) == k + 2


@pytest.mark.parametrize("cmd,k,budget", BUDGET_FAILS,
                         ids=map(_budget_id, BUDGET_FAILS))
def test_small_budget_fails_the_series_commands(tmp_path, capsys, cmd, k,
                                                budget):
    path = _write(tmp_path, "a%d.json" % k, _a_k(k))
    assert cli.main([cmd, path, "--budget", str(budget)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "BudgetExceeded: no separation after %d " \
        "blow-ups; branches [1] look coincident\n" % budget


@pytest.mark.parametrize("cmd,window", [("fibers", "3"),
                                        ("semigroup", "3,0")])
def test_bad_window_is_a_parse_error(tmp_path, capsys, cmd, window):
    path = _write(tmp_path, "node.json", NODE_JSON)
    assert cli.main([cmd, path, "--window", window]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ParseError: --window %s " % window)
    assert "r = 2" in err


@pytest.mark.parametrize("cmd,window", [("fibers", "3,"),
                                        ("semigroup", "x")])
def test_malformed_window_is_a_parse_error(tmp_path, capsys, cmd, window):
    # the window is parsed with the curve in hand, so argparse neither
    # catches the error nor prints its usage
    path = _write(tmp_path, "cusp.json", CUSP_JSON)
    assert cli.main([cmd, path, "--window", window]) == 2
    assert capsys.readouterr() == ("", "ParseError: bad --window %r\n"
                                   % window)


WINDOW_CURVES = {"cusp": CUSP_JSON, "node": NODE_JSON,
                 "tacnode": curve_to_json(make_tacnode()),
                 "cusp-tangent-line": curve_to_json(make_cusp_tangent_line())}


def _windows(conductor):
    """Ones, c + 2, c + 5, a staggered window c_i + 1 + 2i, one that cuts
    inside [0, c] on every axis, ceil(c_i / 2) + 1, and a mixed one, that
    cut on the even axes and c_i + 5 on the odd ones."""
    return [tuple(1 for _ in conductor),
            tuple(x + 2 for x in conductor),
            tuple(x + 5 for x in conductor),
            tuple(x + 1 + 2 * i for i, x in enumerate(conductor)),
            tuple((x + 1) // 2 + 1 for x in conductor),
            tuple(x + 5 if i % 2 else (x + 1) // 2 + 1
                  for i, x in enumerate(conductor))]


def _run(argv, capsys):
    assert cli.main(argv) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name", sorted(WINDOW_CURVES))
def test_semigroup_window_cuts_the_plain_members(tmp_path, capsys, name):
    path = _write(tmp_path, name + ".json", WINDOW_CURVES[name])
    plain = _run(["semigroup", path], capsys)
    conductor = Analysis(parse_curve_file(path)).conductor
    for window in _windows(conductor):
        text = ",".join(str(w) for w in window)
        expected = [line for line in plain if not line.startswith("member")
                    or all(int(x) <= w - 2 for x, w in
                           zip(line.split("\t")[1].split(","), window))]
        assert _run(["semigroup", path, "--window", text], capsys) == \
            expected, text


@pytest.mark.parametrize("name", sorted(WINDOW_CURVES))
def test_fibers_window_agrees_with_the_plain_fibers(tmp_path, capsys, name):
    path = _write(tmp_path, name + ".json", WINDOW_CURVES[name])
    plain = _run(["fibers", path], capsys)
    conductor = Analysis(parse_curve_file(path)).conductor
    chi = {v: x for x, v in (line.split("\t") for line in plain)}
    for window in _windows(conductor):
        text = ",".join(str(w) for w in window)
        lines = _run(["fibers", path, "--window", text], capsys)
        if window == tuple(x + 2 for x in conductor):
            assert lines == plain
        points = [tuple(int(x) for x in line.split("\t")[1].split(","))
                  for line in lines]
        assert points == list(iter_box((0,) * len(window),
                                       tuple(w - 2 for w in window)))
        for x, v in (line.split("\t") for line in lines):
            assert chi.get(v, x) == x, (text, v)


WIDE_WINDOW_CURVES = {
    "quartic": {"branches": [{"x": [[4, "1"]], "y": [[6, "1"], [7, "1"]]}]},
    "eight": {"branches": [{"x": [[8, "1"]],
                            "y": [[12, "1"], [14, "1"], [15, "1"]]}]},
    "six": {"branches": [{"x": [[6, "1"]],
                          "y": [[9, "1"], [10, "1/3"], [11, "-2"]]}]},
}


@pytest.mark.parametrize("name", sorted(WIDE_WINDOW_CURVES))
def test_fibers_on_a_wide_window_is_chi_then_one_past_the_conductor(
        tmp_path, capsys, name):
    # the window 300 is one honest echelon of the jet rows, most of them
    # skipped by the staircase; it prints fibers' lines on [0, c], then
    # chi = 1 up to 298, where h rises by one per step (the conductor rule)
    path = _write(tmp_path, name + ".json", WIDE_WINDOW_CURVES[name])
    plain = _run(["fibers", path], capsys)
    c, = Analysis(parse_curve_file(path)).conductor
    assert len(plain) == c + 1
    assert _run(["fibers", path, "--window", "300"], capsys) == \
        plain + ["1\t%d" % v for v in range(c + 1, 299)]


@pytest.mark.parametrize("name, window", [("cusp", "1"), ("node", "1,1")])
def test_fibers_window_of_ones_prints_nothing(tmp_path, capsys, name,
                                              window):
    # a window of ones leaves the box [0, -1] empty
    path = _write(tmp_path, name + ".json", WINDOW_CURVES[name])
    assert cli.main(["fibers", path, "--window", window]) == 0
    assert capsys.readouterr().out == ""
    out = tmp_path / "fibers.txt"
    assert cli.main(["fibers", path, "--window", window,
                     "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_fibers_window_sweeps_its_own_table_without_blow_ups(tmp_path,
                                                            capsys):
    # A_63 = (t^2, t^127) needs more blow-ups than the default budget, so
    # plain fibers fails; the window reads its own honest table and needs
    # none: chi is the membership indicator of <2, 127> on [0, 8]
    path = _write(tmp_path, "a63.json", _a_k(63))
    assert cli.main(["fibers", path, "--window", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["%d\t%d" % (1 - v % 2, v)
                                         for v in range(9)]
    assert captured.err == ""
    assert cli.main(["fibers", path]) == 1
    assert capsys.readouterr().err.startswith("BudgetExceeded: ")


JSON_TEXT_INPUTS = {
    **CORPUS_ALL,
    "smooth": make_smooth_branch,  # one vertex: the edges are []
    "A62": lambda: Curve([({2: 1}, {125: 1})]),
    # y = a x^6 for a = -4 ... 3
    "pencil-8-contact-6": lambda: Curve(
        [({1: 1}, {6: a} if a else {}) for a in range(-4, 4)]),
}


@pytest.mark.parametrize("name", JSON_TEXT_INPUTS)
def test_json_text_is_the_indented_json_encoding(name):
    # graph_text writes the graph file by its fixed schema, the bytes of
    # the generic encoder on the graph's JSON object
    g = resolve(JSON_TEXT_INPUTS[name]())
    assert graph_text(g) == json.dumps(graph_to_json(g), indent=2,
                                       sort_keys=True)


def test_resolve_emits_parseable_graph(tmp_path, capsys):
    path = _write(tmp_path, "cusp.json", CUSP_JSON)
    out = tmp_path / "cusp-graph.json"
    assert cli.main(["resolve", path, "--out", str(out)]) == 0
    g = parse_graph_file(str(out))
    assert g.vertices == {1: (2,), 2: (3,), 3: (6,)}


def test_semigroup_command_output(tmp_path, capsys):
    path = _write(tmp_path, "cusp.json", CUSP_JSON)
    assert cli.main(["semigroup", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "conductor\t2"
    assert "generator\t2" in lines and "generator\t3" in lines
    assert "member\t4" in lines and "member\t1" not in lines


PENCIL_JSON = {"branches": [{"x": [[1, "1"]], "y": [[6, str(a)]] if a else []}
                            for a in range(-4, 4)]}


def test_a_table_past_2_31_points_is_refused_before_the_sweep(
        tmp_path, capsys, monkeypatch):
    # the pencil y = a x^6, a = -4 ... 3, has conductor (42,)^8: [0, c]
    # holds 43^8 points, so the series pipelines exit 1 at once, with no
    # sweep begun, while the graph pipeline prints Delta, six equal
    # binomial coefficients of (1 - T)^6 at each multiple of (1, ..., 1)
    monkeypatch.setattr(filtration, "_sweep", None)
    path = _write(tmp_path, "pencil.json", PENCIL_JSON)
    assert cli.main(["alexander", "--via", "poincare", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "TableTooLarge: the rank table of r = 8 branches on the box [0, (42, "
        "42, 42, 42, 42, 42, 42, 42)] has 11688200277601 points, more than "
        "2^31 = 2147483648\n")
    assert cli.main(["alexander", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "%d\t%s" % ((-1) ** (d // 6) * comb(6, d // 6), ",".join([str(d)] * 8))
        for d in range(42)]


def test_fibers_window_refuses_fifteen_branches(tmp_path, capsys):
    lines = [{"x": [[1, "1"]], "y": [[1, str(a)]] if a else []}
             for a in range(14)] + [{"x": [], "y": [[1, "1"]]}]
    path = _write(tmp_path, "lines.json", {"branches": lines})
    assert cli.main(["fibers", "--window", ",".join("1" * 15), path]) == 1
    assert capsys.readouterr().err == (
        "TableTooLarge: a rank table of r = 15 branches: the packed reads "
        "hold |P'| <= 2^r only for r <= 14\n")


def test_fibers_window_refuses_a_table_before_building_its_rows(
        tmp_path, capsys):
    # the cusp at the windows 33000 (90,761,000 visible monomials) and
    # 10^8: Sigma box >= 2^15, refused from the branch orders alone, the
    # rows counted in closed form; at 20000 and 32768, Sigma box < 2^15,
    # but more than 2^20 rows
    path = _write(tmp_path, "cusp.json", CUSP_JSON)
    for window, rows in ((33000, 90761000), (10 ** 8, 833333366666667),
                         (20000, 33340000), (32768, 89489408)):
        start = time.perf_counter()
        assert cli.main(["fibers", "--window", str(window), path]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if window - 1 >= 2 ** 15:
            assert captured.err == (
                "TableTooLarge: ranks up to min(rows, sum(box)) = min(%d, %d) "
                "on the box [0, (%d,)] reach 2^15 = 32768, past a 16-bit slot "
                "of the packed reads\n" % (rows, window - 1, window - 1))
        else:
            assert captured.err == (
                "TableTooLarge: the jet matrix of the rank table on the box "
                "[0, (%d,)] has %d rows, more than 2^20 = 1048576\n"
                % (window - 1, rows))


def test_fibers_command_output(tmp_path, capsys):
    path = _write(tmp_path, "node.json", NODE_JSON)
    assert cli.main(["fibers", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["1\t0,0", "0\t0,1", "0\t1,0", "0\t1,1"]


def test_unknown_subcommand_exits_64(capsys):
    assert cli.main(["frobnicate"]) == 64
    assert cli.main([]) == 64


def _run_module(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "curvealex.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_module_entry_point_without_arguments_prints_usage():
    proc = _run_module()
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert proc.stderr == ("usage: curvealex {%s} INPUT [flags]\n"
                           % "|".join(cli.COMMANDS))


def test_module_entry_point_verifies_a_cusp(tmp_path):
    proc = _run_module("verify", _write(tmp_path, "cusp.json", CUSP_JSON))
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS ") for line in lines)


@pytest.mark.parametrize("argv", [["verify"], ["semigroup"], ["poincare"],
                                  ["fibers"], ["alexander"],
                                  ["alexander", "--via", "fibers"],
                                  ["resolve"],
                                  ["resolve", "--out", os.devnull]],
                         ids=" ".join)
def test_a_repeated_command_leaves_no_cyclic_garbage(tmp_path, capsys,
                                                      argv):
    argv = [argv[0], _write(tmp_path, "cusp.json", CUSP_JSON), *argv[1:]]
    assert cli.main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


AXIS_COVER = {"x": [], "y": [[2, "1"], [3, "1"]]}
X_AXIS = {"x": [[1, "1"]], "y": []}
# every command form that reads a curve file, a window of one entry each
CURVE_COMMANDS = [["semigroup"], ["resolve"], ["alexander"],
                  ["alexander", "--via", "poincare"],
                  ["alexander", "--via", "fibers"], ["poincare"], ["fibers"],
                  ["fibers", "--window", "3"], ["semigroup", "--window", "3"],
                  ["verify"]]


@pytest.mark.parametrize("argv", CURVE_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("branches,line", [
    ([AXIS_COVER], "NonPrimitive: branch 1 is a 2-fold cover of the y axis"),
    ([X_AXIS, AXIS_COVER],
     "NonPrimitive: branch 2 is a 2-fold cover of the y axis"),
    ([X_AXIS, {"x": [], "y": []}], "ZeroBranch: branch 2 is identically zero"),
    ([{"x": [[0, "1"], [1, "1"]], "y": [[1, "1"]]}],
     "OrderZero: branch 1 does not pass through the origin"),
    (NONPRIMITIVE_JSON["branches"],
     "NonPrimitive: branch 1 factors through tau^2")],
    ids=["alone", "beside-the-x-axis", "zero-branch", "off-the-origin",
         "through-tau-squared"])
def test_axis_cover_is_non_primitive(tmp_path, capsys, argv, branches, line):
    # each rejection is the curve's own, raised while the file is read and
    # before any window is checked
    path = _write(tmp_path, "cover.json", {"branches": branches})
    assert cli.main([argv[0], path, *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


@pytest.mark.parametrize("argv", [
    [*argv[:-1], "4,4"] if "--window" in argv else argv
    for argv in CURVE_COMMANDS], ids=" ".join)
def test_each_command_checks_its_curve_once(tmp_path, capsys, monkeypatch,
                                            argv):
    # a spy in every module that binds validate_curve: the one check is the
    # one Curve makes when the file is read, and no later stage repeats it
    path = _write(tmp_path, "tacnode.json", curve_to_json(make_tacnode()))
    check, checked = curve_mod.validate_curve, []

    def counted(c):
        checked.append(c)
        check(c)

    for name, mod in list(sys.modules.items()):
        if name.startswith("curvealex") and \
                getattr(mod, "validate_curve", None) is check:
            monkeypatch.setattr(mod, "validate_curve", counted)
    assert cli.main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(checked) == 1


@pytest.mark.parametrize("argv,builds", [
    (["verify"], 1),  # chi, P' and the terms of both
    (["alexander", "--via", "poincare"], 1),  # chi, P' and P''s terms
    (["alexander", "--via", "fibers"], 1),  # chi and its terms
    (["fibers"], 1),  # chi and its list
    (["fibers", "--window", "4,4"], 1),
    (["semigroup"], 0)],  # membership is unbiased
    ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_the_reads_of_one_table_build_one_packed_bias(tmp_path, capsys,
                                                      argv, builds):
    # every packed read of one table shares its bias int: a build is a
    # miss of its memo
    filtration._bias.cache_clear()
    path = _write(tmp_path, "tacnode.json", curve_to_json(make_tacnode()))
    assert cli.main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert filtration._bias.cache_info().misses == builds


@pytest.mark.parametrize("cmd", ["semigroup", "resolve"])
def test_smooth_branch_on_an_axis_is_accepted(tmp_path, capsys, cmd):
    data = {"branches": [{"x": [], "y": [[1, "1"], [3, "1"]]}]}
    path = _write(tmp_path, "axis.json", data)
    assert cli.main([cmd, path]) == 0
    assert capsys.readouterr().err == ""


def test_duplicate_branch_curve_exits_1(tmp_path, capsys):
    dup = {"branches": [{"x": [[2, "1"]], "y": [[3, "1"]]},
                        {"x": [[2, "1"]], "y": [[3, "-1"]]}]}
    path = _write(tmp_path, "dup.json", dup)
    assert cli.main(["resolve", path]) == 1
    assert "BudgetExceeded" in capsys.readouterr().err


def test_verify_exits_1_when_pprime_leaves_a_remainder(tmp_path, capsys,
                                                       monkeypatch):
    # check 1 divides pprime by t_1 t_2 - 1; the remainder fails it and
    # the exact-divisibility check, and every check still prints its line
    monkeypatch.setattr(Analysis, "pprime",
                        property(lambda self: {(1, 0): 1, (0, 0): -1}))
    path = _write(tmp_path, "node.json", NODE_JSON)
    assert cli.main(["verify", path]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "FAIL poincare-equals-alexander: poincare != alexander",
        "PASS fiber-euler-equals-alexander",
        "FAIL fiber-product-identity: fiber series * (t..-1) != pprime",
        "FAIL exact-divisibility: remainder with leading term (1, 0) while "
        "dividing by 1 - t^(1, 1)",
        "PASS resolution-invariance",
        "PASS window-stability"]
    assert captured.err == ""


def test_verify_names_a_misfilled_shell_point_that_spoils_the_division(
        tmp_path, capsys, monkeypatch):
    # (2, 0) is the tacnode's (c_0, 0), on the face where the chi that P'
    # reads fills its first sweep by the conductor rule: P' no longer
    # divides, and the remainder is named; chi does not read P', so the
    # fiber series passes
    _corrupted_shell(monkeypatch, {(2, 0)})
    path = _write(tmp_path, "tacnode.json", curve_to_json(make_tacnode()))
    assert cli.main(["verify", path]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "FAIL poincare-equals-alexander: poincare != alexander",
        "PASS fiber-euler-equals-alexander",
        "FAIL fiber-product-identity: fiber series * (t..-1) != pprime",
        "FAIL exact-divisibility: remainder with leading term (2, 0) while "
        "dividing by 1 - t^(1, 1)",
        "PASS resolution-invariance",
        "PASS window-stability"]
    assert captured.err == ""


def test_format_poly_is_sorted_and_tab_separated():
    p = {(1, 1): 1, (0, 0): -1, (2, 0): 3}
    assert format_poly(p) == "-1\t0,0\n1\t1,1\n3\t2,0"
    # exponents sort as integers, not as text
    assert format_poly({(12,): -2, (0,): 1, (3,): 40}) == \
        "1\t0\n40\t3\n-2\t12"
    assert format_poly({(0, 10, 2): -7, (0, 2, 10): 1, (1, 0, 0): -10}) == \
        "1\t0,2,10\n-7\t0,10,2\n-10\t1,0,0"
    assert format_poly({}) == ""


def test_printed_series_is_the_per_point_prefix_sum():
    # random one-branch Deltas (constant term 1, degree d, some gaps and
    # negative coefficients), cut at 0, below d, at d, by default and far
    # past the default
    rng = random.Random(37)
    for _ in range(200):
        d = rng.randrange(0, 60)
        delta = {(0,): 1}
        delta.update({(v,): rng.choice([-3, -1, 1, 2])
                      for v in range(1, d + 1)
                      if v == d or rng.random() < 0.5})
        for bound in (0, rng.randrange(d) if d else 0, d, None, 10 * d + 50):
            got = printed_series(delta, bound)
            want = reference_printed_series(delta, bound)
            assert (got, list(got)) == (want, list(want)), (delta, bound)
