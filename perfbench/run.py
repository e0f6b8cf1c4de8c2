"""Benchmark of the curvealex command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program under test is imported
from ``src/`` of that checkout and driven in-process through
``curvealex.cli.main(argv)`` on curve files generated from the seed; every
output is checked against the independent oracles in ``oracles.py``.

Operation times are reported in reference units (see ``refclock.py``):
wall time divided by that of a fixed rational-arithmetic kernel timed
alongside. Wall-clock figures go to stderr.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from array import array
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 15

sys.path.insert(0, HERE)

from layers import Timers, profile_layers  # noqa: E402
from oracles import OracleMismatch, expect  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import WORKLOADS, make_workload, self_test  # noqa: E402


def _curvealex_modules() -> dict:
    return {name: m for name, m in sys.modules.items()
            if name == "curvealex" or name.startswith("curvealex.")}


def load_program():
    """Import curvealex afresh from the checkout (a repeated set-up really
    re-imports it) and return its ``cli`` module."""
    for name in _curvealex_modules():
        del sys.modules[name]
    pkg = importlib.import_module("curvealex")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit("curvealex was imported from %s, not from %s"
                         % (pkg.__file__, SRC))
    return importlib.import_module("curvealex.cli")


@dataclass
class Stats:
    clock: RefClock = None  # converts the timings; None for an unused run
    attempted: int = 0
    failed: int = 0
    # perf_counter at the start and end of each operation, and whether it
    # succeeded; compact, since peak_rss_mb also sees the benchmark's memory
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    succeeded: bytearray = field(default_factory=bytearray)
    wrong: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # label -> first stderr line

    def _measured(self, succeeded_only: bool) -> list:
        return [self.clock.measure(start, end) for start, end, ok
                in zip(self.starts, self.ends, self.succeeded)
                if ok or not succeeded_only]

    @property
    def busy(self) -> float:
        """Seconds inside the CLI, failed calls included."""
        return sum(s for s, _ in self._measured(False))

    @property
    def busy_ref(self) -> float:
        """Reference units inside the CLI, failed calls included."""
        return sum(u for _, u in self._measured(False))

    @property
    def samples(self) -> list:
        """Seconds per successful operation."""
        return [s for s, _ in self._measured(True)]

    @property
    def costs(self) -> list:
        """Reference units per successful operation."""
        return [u for _, u in self._measured(True)]


def call(main, argv, profiler=None):
    """One in-process CLI call: (exit code or None on a crash, stdout,
    stderr, perf_counter start, end)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            traceback.print_exc()
        end = time.perf_counter()
        if profiler is not None:
            profiler.disable()
    return rc, out.getvalue(), err.getvalue(), start, end


def run_round(main, ops, stats: Stats, profiler=None, between=None):
    memo = {}
    for op in ops:
        if between is not None:
            between()
        rc, out, err, start, end = call(main, op.argv, profiler)
        stats.attempted += 1
        ok = False
        if rc != 0 and not out:
            stats.failed += 1
            stats.failures[op.label] = (err.strip().splitlines() or ["?"])[-1]
        else:
            try:
                expect(rc == 0, "exit code %r" % rc)
                op.check(out, memo)
                ok = True
            except (OracleMismatch, OSError, ValueError, KeyError,
                    TypeError) as exc:  # a malformed output file included
                stats.wrong.append("%s: %s" % (op.label, exc))
        stats.starts.append(start)
        stats.ends.append(end)
        stats.succeeded.append(ok)


def run_for(main, ops, seconds: float, min_rounds: int, profiler=None,
            between=None):
    """Whole rounds until ``seconds`` have passed and at least
    ``min_rounds`` are done; ``between()`` runs before each operation."""
    stats = Stats(RefClock())
    rounds = 0
    with stats.clock:
        start = time.perf_counter()
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            run_round(main, ops, stats, profiler, between)
            rounds += 1
    return stats, rounds


def set_up(workload, workdir):
    """Import curvealex afresh, write the input files and warm up on the
    first curve's operations: (perf_counter start, end, cli module,
    operations, Stats of the warm-up)."""
    start = time.perf_counter()
    cli = load_program()
    workload.write_inputs(workdir)
    ops = workload.ops(workdir)
    warm = Stats()
    run_round(cli.main, workload.curve_ops(workload.curves[0], workdir), warm)
    return start, time.perf_counter(), cli, ops, warm


def repeat_set_up(workload, workdir) -> tuple:
    """``set_up`` once more, leaving the modules the measured operations
    run on in place: (start, end, Stats of the warm-up)."""
    ours = _curvealex_modules()
    start, end, _, _, warm = set_up(workload, workdir)
    for name in _curvealex_modules():
        del sys.modules[name]
    sys.modules.update(ours)
    gc.collect()  # frees the modules just imported before the next import
    return start, end, warm


def quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted
    mean of all order statistics with Beta((n+1)p, (n+1)(1-p)) weights. It
    moves smoothly when operations of neighbouring cost trade places,
    where a single order statistic jumps from one operation to the next."""
    xs = sorted(samples)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = weights = 0.0
    for i, x in enumerate(xs):
        # the Beta density over [i/n, (i+1)/n], by the midpoint rule on 8 parts
        w = sum(math.exp(log_norm + (a - 1) * math.log(u)
                         + (b - 1) * math.log1p(-u))
                for u in ((i + (j + 0.5) / 8) / n for j in range(8)))
        total += w * x
        weights += w
    return total / weights


def end_to_end(workload, workdir, cli, ops, seconds, setup_s):
    """``setup_s`` is the time of the first set-up. The others are spread
    over the run, one every ``seconds / SETUP_REPEATS`` between two
    operations, so that their median sees the machine's speed over the
    whole run rather than during its first second."""
    inside = []  # (start, end, warm-up Stats) of the set-ups in the run
    start = time.perf_counter()

    def set_up_when_due():
        due = start + (1 + len(inside)) * seconds / SETUP_REPEATS
        if 1 + len(inside) < SETUP_REPEATS and time.perf_counter() >= due:
            inside.append(repeat_set_up(workload, workdir))

    stats, rounds = run_for(cli.main, ops, seconds, workload.min_rounds,
                            between=set_up_when_due)
    # the probes that landed in a set-up are left out of its time
    times = [setup_s] + [stats.clock.measure(t0, t1)[0]
                         for t0, t1, _ in inside]
    warms = [warm for _, _, warm in inside]
    while len(times) < SETUP_REPEATS:  # the last operations ran long
        t0, t1, warm = repeat_set_up(workload, workdir)
        times.append(t1 - t0)
        warms.append(warm)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    costs, n = stats.costs, len(stats.costs)
    if n < 2:
        raise SystemExit("%d of %d operations succeeded: nothing to time"
                         % (n, stats.attempted))
    tail = workload.tail_pct / 100
    metrics = {
        "setup_s": (statistics.median(times), "s"),
        "ops_per_kref": (1000 * n / stats.busy_ref, "1/kref"),
        "op_p50_ref": (quantile(costs, 0.5), "ref"),
        "op_tail_ref": (quantile(costs, tail), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = stats.samples
    print("%s: %d rounds, %d successful ops, op_tail_ref is p%d, %.1f s in "
          "the CLI; wall time: %.3f ops/s, p50 %.2f ms, p%d %.2f ms; one "
          "reference unit took %.3f ms (median of %d probes)"
          % (workload.name, rounds, n, workload.tail_pct, stats.busy,
             n / stats.busy, quantile(wall, 0.5) * 1e3, workload.tail_pct,
             quantile(wall, tail) * 1e3,
             statistics.median(stats.clock.units) * 1e3,
             len(stats.clock.units)),
          file=sys.stderr)
    for warm in warms:
        stats.wrong.extend(warm.wrong)
    return [stats], metrics


def per_layer(workload, cli, ops, seconds):
    """Three passes of whole rounds: untraced (the reference for the
    overhead), wrapped public functions, then cProfile."""
    ref, _ = run_for(cli.main, ops, seconds / 3, 1)
    with Timers() as timers:
        timed, _ = run_for(cli.main, ops, seconds / 3, 1)
    profiler = cProfile.Profile()
    profiled, _ = run_for(cli.main, ops, seconds / 3, 1, profiler)
    values = timers.metrics(timed.attempted)
    values.update(profile_layers(profiler, profiled.attempted))
    per_op = ref.busy_ref / ref.attempted
    values["trace.slowdown"] = profiled.busy_ref / profiled.attempted / per_op
    print("%s: cProfile pass %.2fx the untraced cost per op, wrapper pass "
          "%.2fx" % (workload.name, values["trace.slowdown"],
                     timed.busy_ref / timed.attempted / per_op),
          file=sys.stderr)
    metrics = {name: (v, _unit(name)) for name, v in values.items()}
    return [ref, timed, profiled], metrics


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "trace.slowdown" else "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "curvealex", "__init__.py")):
        print("no curvealex sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = make_workload(args.workload, args.seed)
    self_test(workload, os.path.join(WORK, "self-test"))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        start, end, cli, ops, warm = set_up(workload, workdir)
        gc.collect()
        if args.trace:
            runs, metrics = per_layer(workload, cli, ops, args.seconds)
        else:
            runs, metrics = end_to_end(workload, workdir, cli, ops,
                                       args.seconds, end - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    wrong = warm.wrong + [w for s in runs for w in s.wrong]
    for w in wrong[:20]:
        print("WRONG %s" % w, file=sys.stderr)
    failures = {}
    for s in runs:
        failures.update(s.failures)
    for label, msg in sorted(failures.items()):
        print("FAILED %s: %s" % (label, msg), file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": sum(s.attempted for s in runs),
        "failed": sum(s.failed for s in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
