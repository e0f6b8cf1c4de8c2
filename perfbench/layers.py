"""Per-layer measurements for the traced run, taken from outside the
program.

Two sources, used in separate passes so that neither distorts the other:

* ``Timers`` wraps public functions of curvealex (names exported in
  ``curvealex.__all__`` plus the CLI's parsers and formatters) and records
  the inclusive wall time of the outermost call of each;
* ``profile_layers`` aggregates a cProfile run by source file: self time
  per layer (a builtin's time goes to the layer that called it) and call
  counts of a few named functions.

A function that a later version of curvealex deletes or renames is simply
absent, and its metrics read 0.
"""

from __future__ import annotations

import functools
import os
import pstats
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "curve", "resolution", "exactmath", "filtration",
          "semigroup")

# metric -> (module, function names); times are summed over the names
TIMED = {
    "resolution.resolve_ms": ("curvealex", ("resolve",)),
    "resolution.en_product_ms": ("curvealex", ("en_alexander",)),
    "filtration.poincare_ms": ("curvealex", ("poincare_poly",)),
    "filtration.fibers_ms": ("curvealex", ("fiber_series",)),
    "filtration.pprime_ms": ("curvealex", ("pprime_poly",)),
    "semigroup.conductor_ms": ("curvealex", ("conductor",)),
    "semigroup.generators_ms": ("curvealex", ("minimal_generators_r1",)),
    "cli.parse_ms": ("curvealex.cli", ("parse_curve_file", "parse_graph_file",
                                       "_load_input")),
    "cli.format_ms": ("curvealex.cli", ("format_poly", "graph_to_json")),
}

# function name -> (counter, what one call adds to it)
RESULT_COUNTS = {
    "resolve": ("resolution.blowups", lambda graph: len(graph.vertices)),
}

# metric -> (layer, function name) counted in the profile
COUNTED = {
    "resolution.engine_runs": ("resolution", "_run_blowups"),
    "filtration.conductor_searches": ("filtration", "_conductor_search"),
    "curve.jet_calls": ("curve", "monomial_jet"),
}


class Timers:
    """Installs timing wrappers on entry; restores the originals on exit."""

    def __init__(self):
        self.values = defaultdict(float)
        self._restore = []

    def __enter__(self):
        for metric, (module, names) in TIMED.items():
            for name in names:
                fn = getattr(sys.modules[module], name, None)
                if callable(fn):
                    self._replace(fn, self._wrap(fn, metric,
                                                 RESULT_COUNTS.get(name)))
        jet = getattr(sys.modules["curvealex"], "JetMatrix", None)
        if jet is not None:
            init = jet.__init__
            jet.__init__ = self._wrap(init, "filtration.jet_build_ms",
                                      ("filtration.jet_builds", lambda _: 1))
            self._restore.append((jet, "__init__", init))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _replace(self, fn, wrapper) -> None:
        """Point every reference a curvealex module holds to fn at wrapper."""
        for modname, mod in list(sys.modules.items()):
            if modname == "curvealex" or modname.startswith("curvealex."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))

    def _wrap(self, fn, metric, count=None):
        """``count`` is (counter, function of the result) or None."""
        active = [False]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.values[metric] += (time.perf_counter() - start) * 1e3
                active[0] = False
            if count is not None:
                self.values[count[0]] += count[1](result)
            return result

        return timed

    def metrics(self, ops: int) -> dict:
        names = list(TIMED) + ["filtration.jet_build_ms",
                               "filtration.jet_builds", "resolution.blowups"]
        return {name: self.values[name] / ops for name in names}


def _layer(filename: str):
    """The curvealex module or the stdlib ``fractions`` a file belongs to."""
    parent = os.path.basename(os.path.dirname(filename))
    stem = os.path.splitext(os.path.basename(filename))[0]
    if parent == "curvealex" and stem in LAYERS:
        return stem
    if filename == getattr(sys.modules.get("fractions"), "__file__", None):
        return "fractions"
    return None


def profile_layers(profiler, ops: int) -> dict:
    """Per-operation self seconds of each layer, calls from other code into
    ``fractions`` and the counts in COUNTED, from one cProfile run."""
    self_s = defaultdict(float)
    named = defaultdict(int)
    fraction_calls = 0
    for (filename, _, name), (prim, _, tottime, _, callers) in \
            pstats.Stats(profiler).stats.items():
        if filename == "~":  # a builtin: charge it to the caller's layer
            for (cfile, _, _), (_, _, ctime, _) in callers.items():
                if _layer(cfile):
                    self_s[_layer(cfile)] += ctime
            continue
        layer = _layer(filename)
        if layer is None:
            continue
        self_s[layer] += tottime
        named[(layer, name)] += prim
        if layer == "fractions":
            fraction_calls += sum(n for (cfile, _, _), (_, n, _, _)
                                  in callers.items()
                                  if _layer(cfile) != "fractions")
    out = {"%s.self_s" % layer: self_s[layer] / ops
           for layer in LAYERS + ("fractions",)}
    out["fractions.ops"] = fraction_calls / ops
    for metric, key in COUNTED.items():
        out[metric] = named[key] / ops
    return out
