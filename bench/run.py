"""Scaling harness for curvealex: how ``verify`` and the stages of one
analysis grow with the number of branches.

    python3 bench/run.py LABEL [--src DIR]

For each curve (k transverse lines, k = 2..7, and a three-branch curve of
conductor (50, 20, 40)) it starts one fresh process per command:

* ``verify``: ``python -m curvealex.cli verify FILE``; the wall seconds,
  the child's maximum RSS (``os.wait4``) and the number of ``PASS`` lines;
* ``stages``: one ``Analysis`` of the curve, timed in the child: the
  blow-up constructor, ``a.jet`` (the jet matrix), ``a.ranks`` (the sweep
  and certificate), then ``a.chi``, ``a.pprime`` and ``a.membership``;
  the sha256 of each of these three reads (P' as its sorted terms), so
  two trees can be shown to read the same series; and the child's
  maximum RSS.

Each command runs three times; the file keeps every run and the median of
each number.  It writes ``BENCH_<LABEL>.json`` in the current directory.
``--src`` names the ``src`` directory whose ``curvealex`` the children
import (default: this checkout's), so one harness measures two trees on
one machine.  Standard library only; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3

# the child of the ``stages`` command: argv[1] is the curve file
STAGES = """
import hashlib, json, sys, time
from curvealex.cli import parse_curve_file
from curvealex.filtration import Analysis
curve = parse_curve_file(sys.argv[1])
out, t = {}, time.perf_counter()
a = Analysis(curve)
out["construct_s"], t = time.perf_counter() - t, time.perf_counter()
for name in ("jet", "ranks", "chi", "pprime", "membership"):
    getattr(a, name)
    out[name + "_s"], t = time.perf_counter() - t, time.perf_counter()
out["conductor"] = list(a.conductor)
for name, value in (("chi", a.chi), ("pprime", sorted(a.pprime.items())),
                    ("membership", a.membership)):
    out[name + "_sha256"] = hashlib.sha256(
        json.dumps(value).encode()).hexdigest()
print(json.dumps(out))
"""


def transverse_lines(k: int) -> dict:
    """k lines through the origin: y = 0, y = a x for a = 1..k - 2, x = 0."""
    lines = [{"x": [[1, "1"]], "y": []}]
    lines += [{"x": [[1, "1"]], "y": [[1, str(a)]]} for a in range(1, k - 1)]
    return {"branches": lines + [{"x": [], "y": [[1, "1"]]}]}


WIDE = {"branches": [
    {"x": [[5, "1"]], "y": [[5, "-1"], [6, "-3/4"]]},
    {"x": [[2, "2/3"], [4, "1"], [5, "-1"]],
     "y": [[3, "2/3"], [4, "1"], [6, "-2/3"]]},
    {"x": [[4, "-3/4"], [5, "-3/2"], [6, "-1/3"]],
     "y": [[4, "1"], [5, "1"], [6, "1"]]}]}

CURVES = [("lines-%d" % k, transverse_lines(k)) for k in range(2, 8)]
CURVES.append(("wide-50-20-40", WIDE))


def run_child(argv, src) -> tuple:
    """Run argv in a fresh process importing curvealex from src; its
    stdout, wall seconds and maximum RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, seconds, usage.ru_maxrss / 1024


def measure(path, src) -> dict:
    """Every run of both commands on one curve file, and the median of each
    of their timings and RSS readings."""
    verify, stages = {"runs": []}, {"runs": []}
    for _ in range(REPEATS):
        out, seconds, rss = run_child(
            [sys.executable, "-m", "curvealex.cli", "verify", str(path)], src)
        verify["runs"].append({
            "seconds": seconds, "max_rss_mb": rss,
            "passed": out.decode().count("PASS ")})
        out, seconds, rss = run_child(
            [sys.executable, "-c", STAGES, str(path)], src)
        stages["runs"].append(dict(json.loads(out), wall_s=seconds,
                                   max_rss_mb=rss))
    for block in (verify, stages):
        for key, value in block["runs"][0].items():
            if isinstance(value, float):
                block[key] = statistics.median(
                    run[key] for run in block["runs"])
    return {"verify": verify, "stages": stages}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if not (args.src / "curvealex").is_dir():
        parser.error("no curvealex package in %s" % args.src)
    result = {"label": args.label, "python": platform.python_version(),
              "machine": platform.machine(), "cpus": os.cpu_count(),
              "repeats": REPEATS, "curves": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in CURVES:
            path = Path(tmp) / (name + ".json")
            path.write_text(json.dumps(data))
            result["curves"][name] = entry = measure(path, args.src)
            print("%-14s verify %7.3f s %6.1f MB  ranks %7.3f s" % (
                name, entry["verify"]["seconds"],
                entry["verify"]["max_rss_mb"],
                entry["stages"]["ranks_s"]), file=sys.stderr)
    target = Path("BENCH_%s.json" % args.label)
    target.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
