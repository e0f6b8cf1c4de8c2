import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvealex import cli, resolution
from curvealex.cli import (
    ArrowCountMismatchError,
    NotATreeError,
    curve_from_json,
    format_poly,
    graph_from_json,
    graph_to_json,
    parse_curve_file,
    parse_graph_file,
)
from curvealex.exactmath import iter_box
from curvealex.filtration import Analysis, JetMatrix
from curvealex.resolution import resolve

from corpus import curve_to_json, make_tacnode

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
    """Counts runs of the blow-up engine and jet-matrix builds, and records
    the window and the prefix-rank table size of each build."""
    counts = {"engine": 0, "jet": 0, "windows": [], "sizes": []}
    engine = resolution._run_blowups
    init = JetMatrix.__init__

    def counted_engine(*args, **kwargs):
        counts["engine"] += 1
        return engine(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["jet"] += 1
        init(self, *args, **kwargs)
        counts["windows"].append(self.window)
        counts["sizes"].append(len(self.ranks))

    for name, mod in list(sys.modules.items()):
        if name.startswith("curvealex") and \
                getattr(mod, "_run_blowups", None) is engine:
            monkeypatch.setattr(mod, "_run_blowups", counted_engine)
    monkeypatch.setattr(JetMatrix, "__init__", counted_init)
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


def test_rational_string_coefficients(tmp_path):
    data = {"branches": [{"x": [[2, "1/2"]], "y": [[3, 2]]}]}
    c = parse_curve_file(_write(tmp_path, "half.json", data))
    from fractions import Fraction

    assert c.branches[0].x == {2: Fraction(1, 2)}


def test_graph_file_roundtrip(tmp_path):
    g = resolve(make_tacnode())
    path = _write(tmp_path, "tac.json", graph_to_json(g))
    g2 = parse_graph_file(path)
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges
    assert g2.arrows == g.arrows
    assert g2.root == g.root
    assert graph_to_json(g2) == graph_to_json(g)


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
    # one analysis, plus the forced extra blow-ups and the wider window
    assert calls["engine"] <= 2
    assert calls["jet"] == 2
    # the conductor is (2, 2): the analysis table covers [0, c + 2], the
    # wider window's only [0, c + 1], the points its check reads
    assert calls["windows"] == [(4, 4), (6, 6)]
    assert calls["sizes"] == [5 * 5, 4 * 4]


def test_verify_fails_when_the_wider_window_moves_c(tmp_path, capsys,
                                                    monkeypatch):
    class Moved(JetMatrix):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # c(v) = ranks[v + 1] - ranks[v]: this moves c at (2, 2) only
            self.ranks[(3, 3)] += 1

    monkeypatch.setattr(cli, "JetMatrix", Moved)
    path = _write(tmp_path, "tacnode.json", curve_to_json(make_tacnode()))
    assert cli.main(["verify", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == ["PASS " + name for name in (
        "poincare-equals-alexander", "fiber-euler-equals-alexander",
        "fiber-product-identity", "exact-divisibility",
        "resolution-invariance")]
    assert lines[5:] == [
        "FAIL window-stability: c values moved under a wider window"]


@pytest.mark.parametrize("k,bound", [(1, b) for b in range(5)] + [(40, 3)])
def test_verify_one_branch_passes_below_the_conductor(tmp_path, capsys, k,
                                                      bound):
    path = _write(tmp_path, "a%d.json" % k, _a_k(k))
    assert cli.main(["verify", path, "--bound", str(bound)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS ") for line in lines)


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
])
def test_one_branch_command_analyses_once(tmp_path, capsys, calls, argv,
                                          engine, jet):
    path = _write(tmp_path, "cusp.json", CUSP_JSON)
    assert cli.main(argv[:1] + [path] + argv[1:]) == 0
    # the cusp's conductor is 2: one window of conductor + 2
    assert calls == {"engine": engine, "jet": jet, "windows": [(4,)] * jet,
                     "sizes": [5] * jet}


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


def test_budget_reaches_the_series_commands(tmp_path, capsys):
    path = _write(tmp_path, "a63.json", _a_k(63))
    argv = ["poincare", path, "--budget", "200", "--bound", "10"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "".join(
        "1\t%d\n" % v for v in range(0, 11, 2))


def test_small_budget_fails_the_series_commands(tmp_path, capsys):
    path = _write(tmp_path, "a40.json", _a_k(40))
    assert cli.main(["poincare", path, "--budget", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("BudgetExceeded: ") and " 10 " in err


@pytest.mark.parametrize("cmd,window", [("fibers", "3"),
                                        ("semigroup", "3,0")])
def test_bad_window_is_a_parse_error(tmp_path, capsys, cmd, window):
    path = _write(tmp_path, "node.json", NODE_JSON)
    assert cli.main([cmd, path, "--window", window]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ParseError: --window %s " % window)
    assert "r = 2" in err


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


# resolve is left out: the json encoder's indented output leaves cycles
@pytest.mark.parametrize("argv", [["verify"], ["semigroup"], ["poincare"],
                                  ["fibers"], ["alexander"],
                                  ["alexander", "--via", "fibers"]],
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


@pytest.mark.parametrize("cmd", ["semigroup", "resolve"])
@pytest.mark.parametrize("branches,idx", [([AXIS_COVER], 1),
                                          ([X_AXIS, AXIS_COVER], 2)],
                         ids=["alone", "beside-the-x-axis"])
def test_axis_cover_is_non_primitive(tmp_path, capsys, cmd, branches, idx):
    path = _write(tmp_path, "cover.json", {"branches": branches})
    assert cli.main([cmd, path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("NonPrimitive: branch %d is a 2-fold cover of "
                            "the y axis\n" % idx)


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
    # check 1 divides pprime by t_1 t_2 - 1 and raises before any line is
    # printed, so the exact-divisibility check itself never sees a remainder
    monkeypatch.setattr(Analysis, "pprime",
                        property(lambda self: {(1, 0): 1, (0, 0): -1}))
    path = _write(tmp_path, "node.json", NODE_JSON)
    assert cli.main(["verify", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("NotDivisible: remainder with leading term "
                            "(1, 0) while dividing\n")


def test_format_poly_is_sorted_and_tab_separated():
    p = {(1, 1): 1, (0, 0): -1, (2, 0): 3}
    assert format_poly(p) == "-1\t0,0\n1\t1,1\n3\t2,0"
