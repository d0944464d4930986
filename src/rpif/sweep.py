"""Config ingestion, parameter sweeps, mode comparison, and tabular output.

The JSON config document holds the scenario fields at the root (``params``,
``z1``, ``z2``, ``frame_profile``, ``beam_a``, ``beam_b``) plus an optional
``sweep`` section; every field has a documented default, so ``{}`` is a
valid config describing the reference scenario.  Diagnostics carry
JSON-pointer paths and every violation is collected before reporting.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, LatticeError, RpifError, ValidationError
# decompose is not called here; perfbench/test_perfbench.py looks it up on
# this module
from .interference import MODE_DERIVED, MODE_LITERAL, _breakdown, _evaluate, decompose  # noqa: F401
from .lattice import oracle_propagator
from .scenario import (
    BeamRecord,
    PhysicalParams,
    Scenario,
    _check_endpoint,
    _check_gravity,
    _check_params,
    _check_resolution,
    nondimensional,
    scenario_from_dict,
    validate_scenario,
)

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


class ResultRow(NamedTuple):
    """One row of a sweep: a point in one mode, with the CSV columns as
    fields and ``error`` set (and the numbers NaN) when the row failed."""

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


def _oracle_deviation(nd: Scenario, amplitudes: tuple[complex, complex],
                      schedule: Sequence[int]) -> float:
    """Max over beams of |closed - extrapolated| / |extrapolated| for a
    scenario in internal units and its closed-form amplitudes (U_a, U_b).
    A beam whose lattice amplitude underflows to 0 raises LatticeError.
    """
    worst = 0.0
    for label, closed in zip("ab", amplitudes):
        extr = oracle_propagator(nd, label, schedule)
        if extr.value == 0:
            raise LatticeError(
                f"beam_{label}: the lattice amplitude underflows to 0 on the "
                f"schedule {','.join(map(str, schedule))}, so the oracle "
                f"deviation is undefined")
        worst = max(worst, abs(closed - extr.value) / abs(extr.value))
    return worst


#: a value of each sweep parameter that any scenario takes, for validating
#: the rest of the scenario once per sweep
_NEUTRAL = {"z2": 0.0, "delta_a": 1.0, "delta_b": 1.0, "g": 0.0, "m_over_hbar_scale": 1.0}


def _internal_point(base: Scenario, nd: Scenario, parameter: str, value: float) -> Scenario:
    """The sweep point at ``value`` in internal units, from the validated
    scenario ``base`` and ``nd``, the same in internal units.  Only the swept
    value is checked, with the message validation gives it, and only its
    part of ``Scenario.nondimensionalized`` is redone: z2/L, delta/L or
    g*sqrt(m*T^3/hbar)."""
    problems: list[str] = []
    if parameter == "m_over_hbar_scale":
        # L and g in internal units may move in the last bit: rescale in full
        scaled = apply_sweep_value(base, parameter, value)
        _check_params(scaled.params, problems)
        if problems:
            raise ValidationError(problems)
        return scaled.nondimensionalized()
    p, z2, beam_a, beam_b = nd.params, nd.z2, nd.beam_a, nd.beam_b
    if parameter == "z2":
        _check_endpoint("z2", value, problems)
        z2 = value / base.length_scale
    elif parameter == "delta_a":
        _check_resolution("beam_a", value, problems)
        beam_a = BeamRecord(beam_a.trajectory, value / base.length_scale)
    elif parameter == "delta_b":
        _check_resolution("beam_b", value, problems)
        beam_b = BeamRecord(beam_b.trajectory, value / base.length_scale)
    else:
        _check_gravity(value, problems)
        p = PhysicalParams(p.m, value * base.gravity_scale, p.hbar, p.tau_start, p.tau_end)
    if problems:
        raise ValidationError(problems)
    return Scenario(p, nd.z1, z2, nd.frame_profile, beam_a, beam_b)


def _internal_points(scenario: Scenario, parameter: str,
                     values: Sequence[float]) -> list[Scenario | RpifError]:
    """Every point of a sweep in internal units, or the error that building
    it raised.  The scenario is validated and put into internal units once,
    with the swept field at a neutral value.  A scenario whose other fields
    are invalid (or an unknown parameter) is instead validated at every
    point, so that each point reports all its own violations."""
    base = None
    if parameter in _NEUTRAL:
        try:
            base = validate_scenario(apply_sweep_value(scenario, parameter, _NEUTRAL[parameter]))
        except ValidationError:
            pass
        else:
            nd = base.nondimensionalized()
    points: list[Scenario | RpifError] = []
    for value in values:
        try:
            if base is None:
                points.append(nondimensional(apply_sweep_value(scenario, parameter, value)))
            else:
                points.append(_internal_point(base, nd, parameter, value))
        except RpifError as exc:
            points.append(exc)
    return points


def _point_rows(nd: Scenario | RpifError, spec: SweepSpec, value: float,
                results: list, amplitudes: tuple[complex, complex] | None) -> list[ResultRow]:
    """The rows of one point, one per mode, from each mode's numbers or
    error and at most one oracle deviation, which every mode row shares.
    ``nd`` is the point in internal units, or the error that building it
    raised; an oracle error fails every row that has not failed on its
    own."""
    modes = spec.modes()
    dev = None
    if spec.oracle_schedule and amplitudes is not None:
        try:
            dev = _oracle_deviation(nd, amplitudes, spec.oracle_schedule)
        except RpifError as exc:
            results = [r if isinstance(r, RpifError) else exc for r in results]
    rows = []
    for mode, br in zip(modes, results):
        if isinstance(br, RpifError):
            rows.append(ResultRow(value, mode, *[float("nan")] * 9,
                                  error=f"{type(br).__name__}: {br}"))
        else:
            rows.append(ResultRow(value, mode, *br, dev))
    return rows


def run_sweep(scenario: Scenario, spec: SweepSpec) -> list[ResultRow]:
    """One row per sweep point per mode, in deterministic order.

    The scenario is validated once and every point is put into internal
    units with only its swept value's arithmetic.  The points are then
    evaluated together (``interference._evaluate``): what depends on
    neither g nor the endpoints is computed once per distinct beam (a swept
    resolution is integrated once for the whole sweep), and each point once
    for all its modes.  Per-point failures (guard trips, quadrature stalls,
    invalid swept values) are captured in the row's ``error`` field instead
    of aborting the sweep.
    """
    values = [float(value) for value in spec.points()]
    points = _internal_points(scenario, spec.parameter, values)
    modes = spec.modes()
    evaluated = iter(_evaluate([nd for nd in points if isinstance(nd, Scenario)], modes))
    rows = []
    for nd, value in zip(points, values):
        results, amplitudes = (([nd] * len(modes), None) if isinstance(nd, RpifError)
                               else next(evaluated))
        rows.extend(_point_rows(nd, spec, value, results, amplitudes))
    return rows


#: one CSV line: every number at 17 significant digits, oracle_dev last
#: and empty when there is none
_CSV_ROW = "%.17g,%s" + ",%.17g" * 9 + ","
_CSV_ROW_ORACLE = _CSV_ROW + "%.17g"


def render_csv(rows: Sequence[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        cells = (row.swept_value, row.mode, row.intensity, row.reduced_i, row.i1, row.i2,
                 row.i3, row.i4, row.i5, row.phase_difference, row.residual)
        if row.oracle_dev is None:
            lines.append(_CSV_ROW % cells)
        else:
            lines.append(_CSV_ROW_ORACLE % (*cells, row.oracle_dev))
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
    """Side-by-side breakdown in both modes for one scenario, from one
    evaluation; a failure of either mode raises, the literal one first."""
    modes = (MODE_LITERAL, MODE_DERIVED)
    [(results, _)] = _evaluate([nondimensional(scenario)], modes)
    for result in results:
        if isinstance(result, RpifError):
            raise result
    return ModeComparison(*map(_breakdown, modes, results))


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
