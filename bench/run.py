"""Scaling harness for curvealex: how ``verify``, ``semigroup``,
``resolve`` and the stages of one analysis grow with the number of
branches.

    python3 bench/run.py LABEL [--src DIR]
                         [--curves standard|frontier|one-branch]

For each curve of the set (``standard``, the default: k transverse lines,
k = 2..7, and a three-branch curve of conductor (50, 20, 40);
``frontier``: 8 transverse lines, 8^8 points on [0, c], a deep
three-branch curve of conductor (78, 78, 116), 730,197 points, and a deep
four-branch curve of conductor (73, 108, 37, 18), 5,823,652 points and a
140 x 244 jet matrix; ``one-branch``: A_62 = (t^2, t^125), conductor 124,
the quartic (t^4, t^6 + t^7), conductor 16, (t^8, t^12 + t^14 + t^15),
conductor 84, and (t^12, t^18 + t^21 + t^23), conductor 206, whose
tables are one echelon of the jet rows) it starts one fresh process per
command:

* ``verify``: ``python -m curvealex.cli verify FILE``; the wall seconds,
  the child's maximum RSS (``os.wait4``) and the number of ``PASS`` lines;
  the child runs with ``MALLOC_MMAP_THRESHOLD_=131072``, as the ``stages``
  child does, so its maximum RSS follows the work and not the order in
  which the reads free their ints (``verify`` RSS in files written without
  that setting is not comparable);
* ``stages``: one ``Analysis`` of the curve, timed in the child: the
  blow-up constructor, ``a.jet`` (the jet matrix), ``a.ranks`` (the sweep
  and certificate), then ``a.chi``, ``a.pprime`` and ``a.membership``,
  with the child's maximum RSS read right after each of them
  (``<stage>_maxrss_mb``, so a memory reading names the stage that
  reached it; the child runs with ``MALLOC_MMAP_THRESHOLD_=131072``, so
  that reading follows the reads and not glibc's dynamic threshold); the
  sha256 of each of these three reads (P' as its sorted
  terms), so two trees can be shown to read the same series; and the
  child's maximum RSS at exit;
* ``semigroup`` and ``resolve``: ``python -m curvealex.cli semigroup
  FILE`` and ``... resolve FILE``, with the same fixed threshold; the wall
  seconds, the child's maximum RSS and the sha256 of its stdout, so two
  trees can be shown to print the same members and the same graph file.

Each command runs three times; the file keeps every run and the median of
each number.  It writes ``BENCH_<LABEL>.json`` in the current directory.
``--src`` names the ``src`` directory whose ``curvealex`` the children
import (default: this checkout's), so one harness measures two trees on
one machine.  Standard library only; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
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
# glibc's mmap threshold for both children, fixed: left dynamic, it rises
# with the first large blocks freed, and the maximum RSS after a read then
# depends on the allocations before it (even on the curve file's path)
MMAP_THRESHOLD = "131072"

# the child of the ``stages`` command: argv[1] is the curve file
STAGES = """
import hashlib, json, resource, sys, time
from curvealex.cli import parse_curve_file
from curvealex.filtration import Analysis
def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
curve = parse_curve_file(sys.argv[1])
out, t = {}, time.perf_counter()
a = Analysis(curve)
out["construct_s"] = time.perf_counter() - t
out["construct_maxrss_mb"], t = maxrss_mb(), time.perf_counter()
for name in ("jet", "ranks", "chi", "pprime", "membership"):
    getattr(a, name)
    out[name + "_s"] = time.perf_counter() - t
    out[name + "_maxrss_mb"], t = maxrss_mb(), time.perf_counter()
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

DEEP = {"branches": [
    {"x": [[4, "1"]], "y": [[6, "1"], [7, "1"]]},
    {"x": [[4, "1"]], "y": [[6, "2"], [9, "1"]]},
    {"x": [[6, "1"]], "y": [[9, "-1"], [10, "1"]]}]}

DEEP4 = {"branches": [
    {"x": [[4, "1"]], "y": [[6, "1"], [7, "1"]]},
    {"x": [[6, "1"]], "y": [[9, "-1"], [10, "1"]]},
    {"x": [[2, "1"]], "y": [[3, "1"]]},
    {"x": [[1, "1"]], "y": []}]}


def one_branch(x: int, ys) -> dict:
    """The branch (t^x, sum of t^e for e in ys)."""
    return {"branches": [{"x": [[x, "1"]], "y": [[e, "1"] for e in ys]}]}


CURVE_SETS = {
    "standard": [("lines-%d" % k, transverse_lines(k)) for k in range(2, 8)]
    + [("wide-50-20-40", WIDE)],
    "frontier": [("lines-8", transverse_lines(8)), ("deep-78-78-116", DEEP),
                 ("deep-73-108-37-18", DEEP4)],
    "one-branch": [("a62", one_branch(2, [125])),
                   ("quartic", one_branch(4, [6, 7])),
                   ("eight-12-14-15", one_branch(8, [12, 14, 15])),
                   ("twelve-18-21-23", one_branch(12, [18, 21, 23]))],
}


def run_child(argv, src, **env) -> tuple:
    """Run argv in a fresh process importing curvealex from src, with env
    added to its environment; its stdout, wall seconds and maximum RSS in
    MB."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), **env)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, seconds, usage.ru_maxrss / 1024


def measure(path, src) -> dict:
    """Every run of the four commands on one curve file, and the median of
    each of their timings and RSS readings."""
    verify, stages, semigroup, resolve = ({"runs": []} for _ in range(4))
    for _ in range(REPEATS):
        out, seconds, rss = run_child(
            [sys.executable, "-m", "curvealex.cli", "verify", str(path)], src,
            MALLOC_MMAP_THRESHOLD_=MMAP_THRESHOLD)
        verify["runs"].append({
            "seconds": seconds, "max_rss_mb": rss,
            "passed": out.decode().count("PASS ")})
        out, seconds, rss = run_child(
            [sys.executable, "-c", STAGES, str(path)], src,
            MALLOC_MMAP_THRESHOLD_=MMAP_THRESHOLD)
        stages["runs"].append(dict(json.loads(out), wall_s=seconds,
                                   max_rss_mb=rss))
        for cmd, block in (("semigroup", semigroup), ("resolve", resolve)):
            out, seconds, rss = run_child(
                [sys.executable, "-m", "curvealex.cli", cmd, str(path)], src,
                MALLOC_MMAP_THRESHOLD_=MMAP_THRESHOLD)
            block["runs"].append({
                "seconds": seconds, "max_rss_mb": rss,
                "sha256": hashlib.sha256(out).hexdigest()})
    for block in (verify, stages, semigroup, resolve):
        for key, value in block["runs"][0].items():
            if isinstance(value, float):
                block[key] = statistics.median(
                    run[key] for run in block["runs"])
    return {"verify": verify, "stages": stages, "semigroup": semigroup,
            "resolve": resolve}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--curves", choices=sorted(CURVE_SETS),
                        default="standard")
    args = parser.parse_args(argv)
    if not (args.src / "curvealex").is_dir():
        parser.error("no curvealex package in %s" % args.src)
    result = {"label": args.label, "python": platform.python_version(),
              "machine": platform.machine(), "cpus": os.cpu_count(),
              "repeats": REPEATS, "curve_set": args.curves, "curves": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in CURVE_SETS[args.curves]:
            path = Path(tmp) / (name + ".json")
            path.write_text(json.dumps(data))
            result["curves"][name] = entry = measure(path, args.src)
            print("%-14s verify %7.3f s %6.1f MB  ranks %7.3f s  "
                  "semigroup %7.3f s %6.1f MB  resolve %7.3f s" % (
                      name, entry["verify"]["seconds"],
                      entry["verify"]["max_rss_mb"],
                      entry["stages"]["ranks_s"],
                      entry["semigroup"]["seconds"],
                      entry["semigroup"]["max_rss_mb"],
                      entry["resolve"]["seconds"]), file=sys.stderr)
    target = Path("BENCH_%s.json" % args.label)
    target.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
