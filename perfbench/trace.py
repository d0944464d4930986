"""Per-layer spans and counts, recorded from outside the ``rpif`` package.

``Tracer.install`` wraps every public function of each layer (module) in
a span, plus ``TimeFunction.__call__`` and ``Scenario.nondimensionalized``.
A function is replaced at every name it is looked up by: ``rpif.sweep``
imports ``decompose`` by name, ``rpif.interference`` imports
``classical_action`` by name, and so on.  A span records its name, start,
end, parent span, request id, whether it raised, and a tag (the mode, for
``decompose``).  Spans stay in memory until the run ends.

Counts are taken at the same boundaries: quadrature nodes by wrapping the
integrand handed to ``integrate`` / ``integrate_triangle``, time-function
points by counting the times passed to ``TimeFunction.__call__``, lattice
points from the size of each reduced form.  A function that a later
version of the program no longer has is skipped, and the metrics that need
it are left out of the report.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import math
import sys
import time

import numpy as np

LAYERS = ("cli", "sweep", "scenario", "interference", "actions", "quadrature",
          "lattice", "timefunctions")
METHODS = (("timefunctions", "TimeFunction", "__call__"),
           ("scenario", "Scenario", "nondimensionalized"))

#: largest allowed |sum of self times / traced request time - 1|
SELF_SUM_TOLERANCE = 0.02

# span record fields
NAME, START, END, PARENT, REQUEST, RAISED, TAG = range(7)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


class Tracer:
    """Installs spans into the loaded ``rpif`` modules and collects them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: collections.Counter = collections.Counter()
        self.installed: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, tag_of=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.request,
                      False, tag_of(args, kwargs) if tag_of else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()
        return wrapper

    # -- counting hooks, applied inside the span -----------------------------

    def _count_line(self, fn):
        counts = self.counts

        def integrate(integrand, *args, **kwargs):
            nodes = 0

            def counted(t):
                nonlocal nodes
                nodes += np.size(t)
                return integrand(t)
            try:
                return fn(counted, *args, **kwargs)
            except Exception:
                counts["quadrature.failed_calls"] += 1
                counts["quadrature.wasted_nodes"] += nodes
                raise
            finally:
                counts["quadrature.line_nodes"] += nodes
        return integrate

    def _count_triangle(self, fn):
        counts = self.counts

        def integrate_triangle(integrand, *args, **kwargs):
            nodes = 0

            def counted(t, s):
                nonlocal nodes
                nodes += np.size(s)
                counts["quadrature.triangle_max_axis"] = max(
                    counts["quadrature.triangle_max_axis"], np.shape(t)[0])
                return integrand(t, s)
            try:
                return fn(counted, *args, **kwargs)
            except Exception:
                counts["quadrature.failed_calls"] += 1
                counts["quadrature.wasted_nodes"] += nodes
                raise
            finally:
                counts["quadrature.triangle_nodes"] += nodes
        return integrate_triangle

    def _count_points(self, fn):
        counts = self.counts

        def __call__(time_function, t):
            counts["timefunctions.eval_points"] += np.size(t)
            return fn(time_function, t)
        return __call__

    def _count_reduced(self, fn):
        counts = self.counts

        def gaussian_reduce(form, *args, **kwargs):
            counts["lattice.points"] += getattr(form, "n_steps", 0)
            return fn(form, *args, **kwargs)
        return gaussian_reduce

    def _count_refused(self, fn):
        counts = self.counts

        def richardson_extrapolate(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "LatticeError":
                    counts["lattice.refused"] += 1
                raise
        return richardson_extrapolate

    def _count_series(self, fn, crossover: float):
        counts = self.counts

        def classical_action(beam, frame_profile, params, *args, **kwargs):
            # |wT| = sqrt(4 hbar T / (m delta^2)); the closed form hands over
            # to its series expansion below the crossover
            wt = math.sqrt(4.0 * params.hbar * params.duration
                           / (params.m * beam.resolution ** 2))
            if wt < crossover:
                counts["actions.series_calls"] += 1
            return fn(beam, frame_profile, params, *args, **kwargs)
        return classical_action

    def _hooked(self, key: str, fn, module):
        if key == "quadrature.integrate":
            return self._count_line(fn)
        if key == "quadrature.integrate_triangle":
            return self._count_triangle(fn)
        if key == "timefunctions.TimeFunction.__call__":
            return self._count_points(fn)
        if key == "lattice.gaussian_reduce":
            return self._count_reduced(fn)
        if key == "lattice.richardson_extrapolate":
            return self._count_refused(fn)
        if key == "actions.classical_action":
            return self._count_series(fn, getattr(module, "SMALL_WT_CROSSOVER", 1e-2))
        return fn

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer that can be imported."""
        targets = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"rpif.{layer}")
            except ImportError:
                continue
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    targets.append((f"{layer}.{name}", obj, module))
        loaded = [m for key, m in sys.modules.items()
                  if m is not None and (key == "rpif" or key.startswith("rpif."))]
        for key, original, module in targets:
            tag_of = _mode_of if key == "interference.decompose" else None
            wrapper = self._span(key, self._hooked(key, original, module), tag_of)
            for holder in loaded:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, attr, wrapper)
            self.installed.add(key)
        for layer, cls_name, attr in METHODS:
            module = sys.modules.get(f"rpif.{layer}")
            cls = getattr(module, cls_name, None)
            if cls is None or attr not in vars(cls):
                continue
            key = f"{layer}.{cls_name}.{attr}"
            original = vars(cls)[attr]
            self._replace(cls, attr, self._span(key, self._hooked(key, original, module)))
            self.installed.add(key)

    def _replace(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()


def _mode_of(args, kwargs):
    if len(args) > 1:
        return args[1]
    return kwargs.get("mode", "derived")


def layer_metrics(tracer: Tracer, request_scale: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over all traced requests, times in reference ms.

    ``request_scale[i]`` turns request ``i``'s wall seconds into reference
    seconds.  A metric whose function was not installed is left out.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls = collections.Counter()
    total_ms = collections.Counter()
    self_ms = collections.Counter()
    layer_self = collections.Counter()
    for span, own in zip(spans, selfs):
        factor = 1e3 * request_scale[span[REQUEST]]
        key = span[NAME] if span[TAG] is None else f"{span[NAME]}[{span[TAG]}]"
        calls[key] += 1
        total_ms[key] += (span[END] - span[START]) * factor
        self_ms[span[NAME]] += own * factor
        layer_self[span[NAME].split(".", 1)[0]] += own * factor
    if "interference.decompose" in tracer.installed:
        for mode in ("paper-literal", "derived"):
            calls["interference.decompose"] += calls[f"interference.decompose[{mode}]"]

    have = tracer.installed
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit, *needs):
        if all(n in have for n in needs):
            out[name] = (float(value), unit)

    for layer in LAYERS:
        if any(key.startswith(layer + ".") for key in have):
            out[f"{layer}.self_ms"] = (layer_self[layer], "ms")
    put("sweep.parse_ms", total_ms["sweep.parse_config"], "ms", "sweep.parse_config")
    put("sweep.render_ms", total_ms["sweep.render_csv"] + total_ms["sweep.render_json"],
        "ms", "sweep.render_csv", "sweep.render_json")
    put("scenario.validate_calls", calls["scenario.validate_scenario"], "count",
        "scenario.validate_scenario")
    put("scenario.mean_square_calls", calls["scenario.mean_square"], "count",
        "scenario.mean_square")
    put("interference.decompose_calls", calls["interference.decompose"], "count",
        "interference.decompose")
    put("interference.literal_ms", total_ms["interference.decompose[paper-literal]"],
        "ms", "interference.decompose")
    put("interference.derived_ms", total_ms["interference.decompose[derived]"],
        "ms", "interference.decompose")
    put("actions.action_calls", calls["actions.classical_action"], "count",
        "actions.classical_action")
    put("actions.series_calls", counts["actions.series_calls"], "count",
        "actions.classical_action")
    put("timefunctions.eval_points", counts["timefunctions.eval_points"], "count",
        "timefunctions.TimeFunction.__call__")
    line, tri = "quadrature.integrate", "quadrature.integrate_triangle"
    put("quadrature.line_calls", calls[line], "count", line)
    put("quadrature.line_nodes", counts["quadrature.line_nodes"], "count", line)
    put("quadrature.line_ms", total_ms[line], "ms", line)
    put("quadrature.line_self_ms", self_ms[line], "ms", line)
    put("quadrature.triangle_calls", calls[tri], "count", tri)
    put("quadrature.triangle_nodes", counts["quadrature.triangle_nodes"], "count", tri)
    put("quadrature.triangle_ms", total_ms[tri], "ms", tri)
    put("quadrature.triangle_self_ms", self_ms[tri], "ms", tri)
    put("quadrature.triangle_max_axis", counts["quadrature.triangle_max_axis"], "count", tri)
    put("quadrature.failed_calls", counts["quadrature.failed_calls"], "count", line, tri)
    nodes = counts["quadrature.line_nodes"] + counts["quadrature.triangle_nodes"]
    put("quadrature.wasted_node_frac",
        counts["quadrature.wasted_nodes"] / nodes if nodes else 0.0, "1", line, tri)
    put("lattice.oracle_calls", calls["lattice.oracle_propagator"], "count",
        "lattice.oracle_propagator")
    put("lattice.points", counts["lattice.points"], "count", "lattice.gaussian_reduce")
    put("lattice.assemble_ms", total_ms["lattice.assemble_quadratic_form"], "ms",
        "lattice.assemble_quadratic_form")
    put("lattice.reduce_ms", total_ms["lattice.gaussian_reduce"], "ms",
        "lattice.gaussian_reduce")
    put("lattice.richardson_ms", total_ms["lattice.richardson_extrapolate"], "ms",
        "lattice.richardson_extrapolate")
    put("lattice.refused", counts["lattice.refused"], "count",
        "lattice.richardson_extrapolate")
    return out


def scipy_import_s(importtime_stderr: str) -> float:
    """Seconds spent importing scipy, from ``python -X importtime`` output.

    Sums the cumulative time of every ``scipy`` module whose importer is
    not itself a ``scipy`` module.  The report lists each module after the
    modules it imported, indented one step deeper than its importer.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    total_us = 0
    ancestors: list[str] = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        ancestors.extend([""] * (depth - len(ancestors)))
        parent = ancestors[-1] if depth else ""
        if _is_scipy(name) and not _is_scipy(parent):
            total_us += cumulative
        ancestors.append(name)
    return total_us * 1e-6


def _is_scipy(module: str) -> bool:
    return module == "scipy" or module.startswith("scipy.")
