"""Config ingestion, parameter sweeps, mode comparison, and tabular output.

The JSON config document holds the scenario fields at the root (``params``,
``z1``, ``z2``, ``frame_profile``, ``beam_a``, ``beam_b``) plus an optional
``sweep`` section; every field has a documented default, so ``{}`` is a
valid config describing the reference scenario.  Diagnostics carry
JSON-pointer paths and every violation is collected before reporting.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, LatticeError, RpifError, ValidationError
from .interference import MODE_DERIVED, MODE_LITERAL, decompose, fill_row_caches
from .lattice import oracle_propagator
from .actions import restricted_propagator
from .scenario import Scenario, nondimensional, scenario_from_dict

SWEEP_PARAMETERS = ("z2", "delta_a", "delta_b", "g", "m_over_hbar_scale")
MODE_CHOICES = ("literal", "derived", "both")

CSV_HEADER = ("swept_value,mode,intensity,reduced_i,i1,i2,i3,i4,i5,"
              "phase_difference,residual,oracle_dev")

#: shared tolerance for "the two modes agree" checks (--strict-modes)
MODE_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    steps: int
    mode: str = "derived"
    oracle_schedule: tuple[int, ...] | None = None

    def modes(self) -> tuple[str, ...]:
        if self.mode == "both":
            return (MODE_LITERAL, MODE_DERIVED)
        return (MODE_LITERAL,) if self.mode == "literal" else (MODE_DERIVED,)

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class ResultRow:
    swept_value: float
    mode: str
    intensity: float
    reduced_i: float
    i1: float
    i2: float
    i3: float
    i4: float
    i5: float
    phase_difference: float
    residual: float
    oracle_dev: float | None = None
    error: str | None = None


def _validate_sweep(raw: Mapping, scenario: Scenario | None) -> tuple[SweepSpec | None, list[str]]:
    problems: list[str] = []
    if not isinstance(raw, Mapping):
        return None, ["/sweep: expected an object"]

    parameter = raw.get("parameter", "z2")
    if parameter not in SWEEP_PARAMETERS:
        problems.append(f"/sweep/parameter: must be one of {', '.join(SWEEP_PARAMETERS)}, "
                        f"got {parameter!r}")

    def number(key: str, default):
        value = raw.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"/sweep/{key}: expected a number, got {value!r}")
            return float("nan")
        return float(value)

    if scenario is not None and parameter in SWEEP_PARAMETERS:
        base = _base_value(scenario, parameter)
    else:
        base = 0.0
    start = number("start", base)
    stop = number("stop", start)

    steps_raw = raw.get("steps", 1)
    if isinstance(steps_raw, bool) or not isinstance(steps_raw, int) or steps_raw < 1:
        problems.append(f"/sweep/steps: expected an integer >= 1, got {steps_raw!r}")
        steps_raw = 1

    mode = raw.get("mode", "derived")
    if mode not in MODE_CHOICES:
        problems.append(f"/sweep/mode: must be one of {', '.join(MODE_CHOICES)}, got {mode!r}")
        mode = "derived"

    schedule = None
    if raw.get("oracle") is not None:
        schedule, sched_problems = parse_oracle_schedule(raw["oracle"], "/sweep/oracle")
        problems.extend(sched_problems)

    if not problems and np.isfinite(start) and np.isfinite(stop) and start > stop:
        problems.append(f"/sweep/start: start ({start:g}) must be <= stop ({stop:g})")

    if problems:
        return None, problems
    return SweepSpec(parameter=parameter, start=start, stop=stop, steps=steps_raw,
                     mode=mode, oracle_schedule=schedule), []


def parse_oracle_schedule(raw, where: str) -> tuple[tuple[int, ...] | None, list[str]]:
    if isinstance(raw, str):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        try:
            raw = [int(p) for p in parts]
        except ValueError:
            return None, [f"{where}: expected comma-separated integers, got {raw!r}"]
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        return None, [f"{where}: expected an array of integers"]
    vals = []
    for i, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            return None, [f"{where}/{i}: expected a positive integer, got {v!r}"]
        vals.append(v)
    if len(vals) < 3:
        return None, [f"{where}: need at least 3 lattice sizes, got {len(vals)}"]
    for a, b in zip(vals, vals[1:]):
        if b != 2 * a:
            return None, [f"{where}: sizes must double, got {a} then {b}"]
    return tuple(vals), []


def parse_config(text: str) -> tuple[Scenario, SweepSpec]:
    """Parse and fully validate a JSON config document.

    Raises ConfigError listing every schema violation with a JSON-pointer
    path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"/: malformed JSON ({exc.msg} at line {exc.lineno})"]) from None
    if not isinstance(doc, Mapping):
        raise ConfigError(["/: expected a JSON object at the top level"])

    unknown = set(doc) - {"params", "z1", "z2", "frame_profile",
                          "beam_a", "beam_b", "sweep"}
    problems = [f"/{key}: unknown property" for key in sorted(unknown)]

    scenario = None
    try:
        scenario = scenario_from_dict(doc)
    except ValidationError as exc:
        problems.extend(exc.violations)

    sweep, sweep_problems = _validate_sweep(doc.get("sweep", {}), scenario)
    problems.extend(sweep_problems)

    if problems:
        raise ConfigError(problems)
    return scenario, sweep


def _base_value(scenario: Scenario, parameter: str) -> float:
    if parameter == "z2":
        return scenario.z2
    if parameter == "delta_a":
        return scenario.beam_a.resolution
    if parameter == "delta_b":
        return scenario.beam_b.resolution
    if parameter == "g":
        return scenario.params.g
    return 1.0  # m_over_hbar_scale


def apply_sweep_value(scenario: Scenario, parameter: str, value: float) -> Scenario:
    """Return the scenario with one swept parameter replaced."""
    if parameter == "z2":
        return dataclasses.replace(scenario, z2=value)
    if parameter == "delta_a":
        return dataclasses.replace(
            scenario, beam_a=dataclasses.replace(scenario.beam_a, resolution=value))
    if parameter == "delta_b":
        return dataclasses.replace(
            scenario, beam_b=dataclasses.replace(scenario.beam_b, resolution=value))
    if parameter == "g":
        return dataclasses.replace(
            scenario, params=dataclasses.replace(scenario.params, g=value))
    if parameter == "m_over_hbar_scale":
        p = scenario.params
        return dataclasses.replace(
            scenario, params=dataclasses.replace(p, m=p.m * value, hbar=p.hbar * value))
    raise RpifError(f"unknown sweep parameter {parameter!r}")


#: the mode rows of one sweep point share its oracle deviation; sweeps run
#: serially (``--jobs`` is accepted and ignored), so those rows are adjacent
#: and one entry catches them
_ORACLE_CACHE_SIZE = 1


@functools.lru_cache(maxsize=_ORACLE_CACHE_SIZE)
def _oracle_deviation(nd: Scenario, schedule: Sequence[int]) -> float:
    """Max over beams of |closed - extrapolated| / |extrapolated| for a
    scenario in internal units.  A beam whose lattice amplitude underflows
    to 0 raises LatticeError, which fails that row only.

    Depends on the point in internal units, not on the mode or the units,
    so it runs once per point, and once for a run of points that differ
    only in units (an ``m_over_hbar_scale`` sweep whose rescaling is exact).
    """
    worst = 0.0
    for label in ("a", "b"):
        extr = oracle_propagator(nd, label, schedule)
        if extr.value == 0:
            raise LatticeError(
                f"beam_{label}: the lattice amplitude underflows to 0 on the "
                f"schedule {','.join(map(str, schedule))}, so the oracle "
                f"deviation is undefined")
        closed = restricted_propagator(nd.beam(label), nd.frame_profile,
                                       nd.params, nd.z1, nd.z2)
        worst = max(worst, abs(closed.amplitude - extr.value) / abs(extr.value))
    return worst


def _evaluate_point(scenario: Scenario, spec: SweepSpec,
                    value: float, mode: str) -> ResultRow:
    try:
        point = apply_sweep_value(scenario, spec.parameter, value)
        br = decompose(point, mode)
        dev = None
        if spec.oracle_schedule:
            dev = _oracle_deviation(nondimensional(point), spec.oracle_schedule)
        return ResultRow(swept_value=value, mode=mode, intensity=br.intensity,
                         reduced_i=br.reduced_i, i1=br.i1, i2=br.i2, i3=br.i3,
                         i4=br.i4, i5=br.i5, phase_difference=br.phase_difference,
                         residual=br.residual, oracle_dev=dev)
    except RpifError as exc:
        nan = float("nan")
        return ResultRow(swept_value=value, mode=mode, intensity=nan, reduced_i=nan,
                         i1=nan, i2=nan, i3=nan, i4=nan, i5=nan,
                         phase_difference=nan, residual=nan, oracle_dev=None,
                         error=f"{type(exc).__name__}: {exc}")


def run_sweep(scenario: Scenario, spec: SweepSpec, jobs: int = 1) -> list[ResultRow]:
    """One row per sweep point per mode, in deterministic order.

    Per-point failures (guard trips, quadrature stalls, invalid swept
    values) are captured in the row's ``error`` field instead of aborting
    the sweep.  Points run serially: ``jobs`` is accepted for callers that
    pass it and has no effect, since threads only slowed sweeps down (the
    work holds the interpreter lock and interleaved points defeat the
    per-beam caches).
    """
    values = [float(value) for value in spec.points()]
    if spec.parameter in ("delta_a", "delta_b"):
        _fill_resolution_sweep(scenario, spec, values)
    return [_evaluate_point(scenario, spec, value, mode)
            for value in values for mode in spec.modes()]


def _fill_resolution_sweep(scenario: Scenario, spec: SweepSpec,
                           values: Sequence[float]) -> None:
    """Put every point of a resolution sweep into internal units and fill
    the per-beam row caches for all of them in one call, so the swept beam
    is integrated once for the whole sweep, not once per point.  A point
    that fails here is left out; its own rows report the error."""
    points = []
    for value in values:
        try:
            points.append(nondimensional(apply_sweep_value(scenario, spec.parameter, value)))
        except RpifError:
            continue
    fill_row_caches(points, spec.modes())


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def render_csv(rows: Sequence[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join([
            _fmt(row.swept_value), row.mode, _fmt(row.intensity),
            _fmt(row.reduced_i), _fmt(row.i1), _fmt(row.i2), _fmt(row.i3),
            _fmt(row.i4), _fmt(row.i5), _fmt(row.phase_difference),
            _fmt(row.residual), _fmt(row.oracle_dev),
        ]))
    return "\n".join(lines) + "\n"


def render_json(rows: Sequence[ResultRow]) -> str:
    def cell(value):
        if value is None or (isinstance(value, float) and not np.isfinite(value)):
            return None
        return value

    payload = []
    for row in rows:
        entry = {
            "swept_value": cell(row.swept_value),
            "mode": row.mode,
            "intensity": cell(row.intensity),
            "reduced_i": cell(row.reduced_i),
            "i1": cell(row.i1), "i2": cell(row.i2), "i3": cell(row.i3),
            "i4": cell(row.i4), "i5": cell(row.i5),
            "phase_difference": cell(row.phase_difference),
            "residual": cell(row.residual),
            "oracle_dev": cell(row.oracle_dev),
        }
        if row.error is not None:
            entry["error"] = row.error
        payload.append(entry)
    return json.dumps(payload, indent=2) + "\n"


def emit_results(rows: Sequence[ResultRow], fmt: str, destination) -> None:
    """Write rows as CSV or JSON to a path or text stream."""
    if not rows:
        raise RpifError("no rows to emit")
    text = render_csv(rows) if fmt == "csv" else render_json(rows)
    if isinstance(destination, (str, bytes, os.PathLike)):
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    elif isinstance(destination, io.TextIOBase) or hasattr(destination, "write"):
        destination.write(text)
    else:
        raise RpifError(f"cannot write to destination {destination!r}")


@dataclass(frozen=True)
class ModeComparison:
    literal: object
    derived: object

    @property
    def literal_residual(self) -> float:
        return self.literal.residual

    @property
    def max_term_gap(self) -> float:
        return max(abs(getattr(self.literal, k) - getattr(self.derived, k))
                   for k in ("i1", "i2", "i3", "i4", "i5"))

    def exceeds_tolerance(self, tolerance: float = MODE_TOLERANCE) -> bool:
        return self.literal_residual > tolerance


def compare_modes(scenario: Scenario) -> ModeComparison:
    """Side-by-side breakdown in both modes for one scenario."""
    return ModeComparison(literal=decompose(scenario, MODE_LITERAL),
                          derived=decompose(scenario, MODE_DERIVED))


def render_comparison(cmp: ModeComparison, stream=None) -> str:
    lit, der = cmp.literal, cmp.derived
    rows = [("i1", lit.i1, der.i1), ("i2", lit.i2, der.i2),
            ("i3", lit.i3, der.i3), ("i4", lit.i4, der.i4),
            ("i5", lit.i5, der.i5),
            ("sum", lit.terms_sum, der.terms_sum),
            ("phase_difference", lit.phase_difference, der.phase_difference),
            ("residual", lit.residual, der.residual),
            ("reduced_i", lit.reduced_i, der.reduced_i),
            ("intensity", lit.intensity, der.intensity)]
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{'quantity':<{width}}  {'paper-literal':>24}  {'derived':>24}"]
    for name, a, b in rows:
        lines.append(f"{name:<{width}}  {a:>24.16g}  {b:>24.16g}")
    lines.append("")
    lines.append(f"max |literal - derived| over i1..i5: {cmp.max_term_gap:.3e}")
    lines.append(f"paper-literal residual {lit.residual:.3e} "
                 f"{'exceeds' if cmp.exceeds_tolerance() else 'within'} "
                 f"tolerance {MODE_TOLERANCE:g} "
                 f"(a nonzero literal residual is the expected, documented outcome "
                 f"on asymmetric scenarios)")
    text = "\n".join(lines) + "\n"
    if stream is not None:
        stream.write(text)
    return text
