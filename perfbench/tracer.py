"""Per-layer tracing of primecusps from outside the package.

The tracer rebinds the public entry points of each module to wrappers that
time and count the calls, then derives the per-layer metrics from what it
recorded.  Nothing in the package is edited: a name is rebound in every
loaded ``primecusps`` namespace that holds the original object (``cusps``
and ``transference`` import ``exp_sum_at`` by name, ``cli`` imports
``build_context``, the package ``__init__`` re-exports everything), and
methods are rebound on their class.  Every wrapper returns exactly what it
wraps; the untraced run never constructs a Tracer, so it patches nothing.

Outer calls become spans (name, start, end, parent).  Hot inner calls
(``exp_sum_at``, ``ramanujan_sum``, ``g_sifted``, ...) are aggregated as a
call count and total time instead of one span each.  Self time is a call's
duration minus the time spent in traced calls made beneath it.  Spans and
counters stay in memory and are written once, by the caller, at the end.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span?) -- span=False aggregates the call instead
FUNCTIONS = (
    ("arith", "build_context", True),
    ("gfunctions", "g_sifted", False),
    ("gfunctions", "g_bracket", False),
    ("gfunctions", "explicit_estimate_report", True),
    ("sieve", "build_weights", True),
    ("sieve", "beta_fourier_many", True),
    ("sieve", "beta_direct", False),
    ("expsums", "spectrum", True),
    ("expsums", "exp_sum_at", False),
    ("cusps", "find_cusps", True),
    ("cusps", "structure_check", True),
    ("transference", "build_cover", True),
    ("transference", "build_bohr", True),
    ("transference", "decompose", True),
    ("transference", "transform_checks", True),
    ("transference", "cusp_suppression_report", True),
    ("transference", "sharp_sup_report", True),
    ("cli", "main", True),
)

# (module, class, method, metric name, timed?) -- all aggregated; factorize
# is too hot to time and is only counted
METHODS = (
    ("arith", "PrimeContext", "ramanujan_sum", "arith.ramanujan_sum", True),
    ("arith", "PrimeContext", "factorize", "arith.factorize", False),
    ("transference", "Decomposition", "transform_sharp", "transference.transform_eval", True),
    ("transference", "Decomposition", "transform_star", "transference.transform_eval", True),
)

EVALS = "expsums.exp_sum_at"

# metric name -> unit, in report order; "<name>.s" is busy time,
# "<name>.self_s" busy time minus traced child calls
LAYER_UNITS = {
    "arith.build_context.s": "s",
    "arith.ramanujan_sum.calls": "count",
    "arith.ramanujan_sum.s": "s",
    "arith.factorize.calls": "count",
    "gfunctions.g_sifted.calls": "count",
    "gfunctions.g_sifted.s": "s",
    "gfunctions.g_sifted.den_bits_max": "bits",
    "gfunctions.g_bracket.s": "s",
    "gfunctions.explicit_estimate_report.s": "s",
    "sieve.build_weights.s": "s",
    "sieve.build_weights.keys": "count",
    "sieve.beta_fourier_many.s": "s",
    "sieve.beta_direct.s": "s",
    "expsums.spectrum.s": "s",
    "expsums.spectrum.grid_points": "count",
    "expsums.spectrum.bytes": "bytes",
    "expsums.exp_sum_at.calls": "count",
    "expsums.exp_sum_at.s": "s",
    "expsums.exp_sum_at.terms": "count",
    "cusps.find_cusps.s": "s",
    "cusps.find_cusps.self_s": "s",
    "cusps.find_cusps.direct_evals": "count",
    "cusps.structure_check.s": "s",
    "cusps.arcs": "count",
    "cusps.wellspaced": "count",
    "transference.build_cover.s": "s",
    "transference.build_cover.direct_evals": "count",
    "transference.cover_points": "count",
    "transference.build_bohr.s": "s",
    "transference.bohr_size": "count",
    "transference.decompose.self_s": "s",
    "transference.transform_checks.s": "s",
    "transference.transform_checks.self_s": "s",
    "transference.transform_eval.calls": "count",
    "transference.cusp_suppression_report.s": "s",
    "transference.sharp_sup_report.s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
}


def _exp_sum_at(c, args, value):
    c["expsums.exp_sum_at.terms"] += len(args[0].members)


def _g_sifted(c, args, g):
    c["gfunctions.g_sifted.den_bits_max"] = max(
        c["gfunctions.g_sifted.den_bits_max"], g.denominator.bit_length())


def _build_weights(c, args, weights):
    c["sieve.build_weights.keys"] += len(weights.lam) + len(weights.w)


def _spectrum(c, args, grid):
    c["expsums.spectrum.grid_points"] += grid.G
    # computed, not measured: the float64 indicator plus the values kept
    c["expsums.spectrum.bytes"] += 8 * grid.G + grid.values.nbytes


def _find_cusps(c, args, report):
    c["cusps.arcs"] += len(report.arcs)
    c["cusps.wellspaced"] += len(report.wellspaced)


def _build_cover(c, args, cover):
    c["transference.cover_points"] += len(cover.points)


def _build_bohr(c, args, bohr):
    c["transference.bohr_size"] += bohr.size


# name -> observer(counters, args, result): counters read off a call
OBSERVERS = {
    "expsums.exp_sum_at": _exp_sum_at,
    "gfunctions.g_sifted": _g_sifted,
    "sieve.build_weights": _build_weights,
    "expsums.spectrum": _spectrum,
    "cusps.find_cusps": _find_cusps,
    "transference.build_cover": _build_cover,
    "transference.build_bohr": _build_bohr,
}


class Tracer:
    """Spans, aggregated calls and counters for one traced process."""

    def __init__(self):
        self.stack = []      # open frames: [span id, child seconds]
        self.spans = []      # [id, parent id, name, start, end, self seconds]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_busy = defaultdict(float)
        self.evals_within = defaultdict(int)
        self.counters = defaultdict(int)
        self._undo = []

    # -- wrappers --------------------------------------------------------

    def _timed(self, name: str, fn, span: bool):
        clock, stack = time.perf_counter, self.stack
        calls, busy, self_busy = self.calls, self.busy, self.self_busy
        evals_within, counters = self.evals_within, self.counters
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans) if span else None
            if span:
                self.spans.append(None)  # reserve the id; filled on exit
                evals0 = calls[EVALS]
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                busy[name] += dur
                self_busy[name] += dur - frame[1]
                if span:
                    evals_within[name] += calls[EVALS] - evals0
                    parent = next((f[0] for f in reversed(stack)
                                   if f[0] is not None), None)
                    self.spans[span_id] = [span_id, parent, name, start, end,
                                           dur - frame[1]]
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "primecusps" and not modname.startswith("primecusps."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> "Tracer":
        for modname, attr, span in FUNCTIONS:
            mod = importlib.import_module(f"primecusps.{modname}")
            original = getattr(mod, attr)
            self._rebind(original, self._timed(f"{modname}.{attr}", original, span))
        for modname, clsname, meth, name, timed in METHODS:
            cls = getattr(importlib.import_module(f"primecusps.{modname}"), clsname)
            original = vars(cls)[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._timed(name, original, False) if timed
                    else self._counted(name, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self, output_bytes: int) -> dict:
        """Every per-layer metric as {name: value}; layers a workload never
        reaches read 0."""
        values = {}
        for metric in LAYER_UNITS:
            base, _, kind = metric.rpartition(".")
            if kind == "s":
                values[metric] = self.busy[base]
            elif kind == "self_s":
                values[metric] = self.self_busy[base]
            elif kind == "calls":
                values[metric] = self.calls[base]
            elif kind == "direct_evals":
                values[metric] = self.evals_within[base]
            else:
                values[metric] = self.counters[metric]
        values["cli.output_bytes"] = output_bytes
        return values

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form."""
        keys = ("id", "parent", "name", "start", "end", "self_s")
        return {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_busy),
            "direct_evals": dict(self.evals_within),
            "counters": dict(self.counters),
        }
