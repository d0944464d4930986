"""Config ingestion, parameter sweeps, mode comparison, and tabular output.

The JSON config document holds the scenario fields at the root (``params``,
``z1``, ``z2``, ``frame_profile``, ``beam_a``, ``beam_b``) plus an optional
``sweep`` section; every field has a documented default, so ``{}`` is a
valid config describing the reference scenario.  Diagnostics carry
JSON-pointer paths and every violation is collected before reporting.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, RpifError, ValidationError
# decompose is not called here; perfbench/test_perfbench.py looks it up on
# this module
from .interference import MODE_DERIVED, MODE_LITERAL, _breakdown, _evaluate, decompose  # noqa: F401
from .lattice import _check_schedule
from .scenario import (
    BeamRecord,
    PhysicalParams,
    Scenario,
    _check_endpoint,
    _check_gravity,
    _check_params,
    _check_resolution,
    _number,
    _pointer,
    nondimensional,
    scenario_from_dict,
)
from .timefunctions import _unknown

SWEEP_PARAMETERS = ("z2", "delta_a", "delta_b", "g", "m_over_hbar_scale")
#: each sweep mode and the modes it evaluates, in row order
MODE_CHOICES = {"literal": (MODE_LITERAL,), "derived": (MODE_DERIVED,),
                "both": (MODE_LITERAL, MODE_DERIVED)}

CSV_HEADER = ("swept_value,mode,intensity,reduced_i,i1,i2,i3,i4,i5,"
              "phase_difference,residual,oracle_dev")

#: shared tolerance for "the two modes agree" checks (--strict-modes)
MODE_TOLERANCE = 1e-8

#: the largest step count of a sweep: its points and rows take O(steps)
#: memory
MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class SweepSpec:
    """What the config's ``sweep`` section asks for; ``oracle_schedule``
    comes from ``simulate --oracle`` or a library caller, never the config."""

    parameter: str
    start: float
    stop: float
    steps: int
    mode: str = "derived"
    oracle_schedule: tuple[int, ...] | None = None

    def modes(self) -> tuple[str, ...]:
        """The modes the sweep evaluates, in row order; a ``steps`` or ``mode``
        that ``_check_sweep`` refuses raises ValidationError."""
        problems = _check_sweep(self.steps, self.mode)
        if problems:
            raise ValidationError(problems)
        return MODE_CHOICES[self.mode]

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


def _check_sweep(steps, mode) -> list[str]:
    """What keeps ``steps`` and ``mode`` from being a sweep's, at sweep.steps
    and sweep.mode: steps is an integer, not a bool, with
    1 <= steps <= ``MAX_STEPS``; mode is a string in ``MODE_CHOICES``."""
    out = []
    integer = isinstance(steps, (int, np.integer)) and not isinstance(steps, bool)
    if not integer or steps < 1:
        out.append(f"sweep.steps: expected an integer >= 1, got {steps!r}")
    elif steps > MAX_STEPS:
        out.append(f"sweep.steps: must be <= {MAX_STEPS}, got {steps!r}")
    if not isinstance(mode, str) or mode not in MODE_CHOICES:
        out.append(f"sweep.mode: must be one of {', '.join(MODE_CHOICES)}, got {mode!r}")
    return out


def _validate_sweep(raw: Mapping, scenario: Scenario | None) -> tuple[SweepSpec | None, list[str]]:
    if not isinstance(raw, Mapping):
        return None, ["/sweep: expected an object"]
    problems = _unknown(raw, ("parameter", "start", "stop", "steps", "mode"), "/sweep")

    parameter = raw.get("parameter", "z2")
    if parameter not in SWEEP_PARAMETERS:
        problems.append(f"/sweep/parameter: must be one of {', '.join(SWEEP_PARAMETERS)}, "
                        f"got {parameter!r}")

    known = scenario is not None and parameter in SWEEP_PARAMETERS
    base = _base_value(scenario, parameter) if known else 0.0
    start = _number(raw, "start", base, "/sweep/start", problems)
    stop = _number(raw, "stop", start, "/sweep/stop", problems)
    for name, value in (("start", start), ("stop", stop)):
        source = raw.get(name, raw.get("start"))  # a stop defaults to the start
        # a bound that is no number reads NaN too, and is reported as such
        if np.isinf(value) or isinstance(source, float) and np.isnan(source):
            problems.append(f"/sweep/{name}: must be finite, got {value!r}")

    steps, mode = raw.get("steps", 1), raw.get("mode", "derived")
    problems.extend(map(_pointer, _check_sweep(steps, mode)))

    # checked alongside every other problem; a start that defaults to the
    # base value of a bad parameter or scenario is no bound of the user's
    given = "start" in raw or known
    if given and np.isfinite(start) and np.isfinite(stop) and start > stop:
        problems.append(f"/sweep/start: start ({start:g}) must be <= stop ({stop:g})")

    if problems:
        return None, problems
    return SweepSpec(parameter=parameter, start=start, stop=stop, steps=steps,
                     mode=mode), []


def parse_oracle_schedule(text: str, where: str) -> tuple[tuple[int, ...] | None, list[str]]:
    """The lattice sizes of a comma-separated list such as "256,512,1024",
    or every problem with them, each at ``where``, by the lattice's rule
    (``lattice._check_schedule``)."""
    try:
        sizes = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        return None, [f"{where}: expected comma-separated integers, got {text!r}"]
    try:
        return _check_schedule(sizes, where), []
    except ValidationError as exc:
        return None, exc.violations


def _integer(digits: str) -> int | float:
    """A JSON integer.  One with more digits than ``int`` converts
    (``sys.get_int_max_str_digits``) lies far past the float range, and
    reads as +-inf, as json reads 1e400."""
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def parse_config(text: str) -> tuple[Scenario, SweepSpec]:
    """Parse and fully validate a JSON config document.

    Raises ConfigError listing every schema violation with a JSON-pointer
    path.
    """
    try:
        doc = json.loads(text, parse_int=_integer)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"/: malformed JSON ({exc.msg} at line {exc.lineno})"]) from None
    if not isinstance(doc, Mapping):
        raise ConfigError(["/: expected a JSON object at the top level"])

    problems = _unknown(doc, ("params", "z1", "z2", "frame_profile", "beam_a", "beam_b",
                              "sweep"), "")

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
    p, z2, beam_a, beam_b = scenario.params, scenario.z2, scenario.beam_a, scenario.beam_b
    if parameter == "z2":
        z2 = value
    elif parameter == "delta_a":
        beam_a = BeamRecord(beam_a.trajectory, value)
    elif parameter == "delta_b":
        beam_b = BeamRecord(beam_b.trajectory, value)
    elif parameter == "g":
        p = PhysicalParams(p.m, value, p.hbar, p.tau_start, p.tau_end)
    elif parameter == "m_over_hbar_scale":
        p = PhysicalParams(p.m * value, p.g, p.hbar * value, p.tau_start, p.tau_end)
    else:
        raise RpifError(f"unknown sweep parameter {parameter!r}")
    return Scenario(p, scenario.z1, z2, scenario.frame_profile, beam_a, beam_b)


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
        scaled = apply_sweep_value(base, parameter, value)
        _check_params(scaled.params, problems)
    elif parameter == "z2":
        _check_endpoint("z2", value, problems)
    elif parameter == "g":
        _check_gravity(value, problems)
    else:
        _check_resolution(f"beam_{parameter[-1]}", value, problems)
    if problems:
        raise ValidationError(problems)
    if parameter == "m_over_hbar_scale":
        # L and g in internal units may move in the last bit: rescale in full
        return scaled.nondimensionalized()
    p = base.params
    internal = value * p.gravity_scale if parameter == "g" else value / p.length_scale
    return apply_sweep_value(nd, parameter, internal)


def _internal_points(scenario: Scenario, parameter: str,
                     values: Sequence[float]) -> list[Scenario | RpifError]:
    """Every point of a sweep in internal units, or the error that building
    it raised.  The scenario is validated and put into internal units once,
    with the swept field at a neutral value: if that fails, or the
    parameter is unknown, every point fails with that one error."""
    try:
        base = apply_sweep_value(scenario, parameter, _NEUTRAL.get(parameter))
        nd = nondimensional(base)
    except RpifError as exc:
        return [exc] * len(values)
    points: list[Scenario | RpifError] = []
    for value in values:
        try:
            points.append(_internal_point(base, nd, parameter, value))
        except RpifError as exc:
            points.append(exc)
    return points


def _point_rows(modes: Sequence[str], value: float, results: list,
                dev: float | None) -> list[ResultRow]:
    """The rows of one point, one per mode, from each mode's numbers or
    error and the oracle deviation, which every mode row shares."""
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

    A ``steps`` or ``mode`` that ``_check_sweep`` refuses raises
    ValidationError before any point is built.  The scenario is validated
    once, with the swept field at a neutral value: if it is invalid, or the
    parameter unknown, every row carries that one error; a schedule that
    ``lattice._check_schedule`` refuses fails every row it reaches.  Each
    point is put into internal units with only its swept value's check and
    arithmetic, and the points are evaluated together
    (``interference._evaluate``): what depends on neither g nor the
    endpoints is computed once per distinct beam (a swept resolution is
    integrated once for the whole sweep, and reduced once per oracle
    level), and each point once for all its modes and its oracle.  Other
    failures (guard trips, refused quadratures, invalid swept values) fail
    only their point's rows, in ``error``.
    """
    modes = spec.modes()
    values = [float(value) for value in spec.points()]
    points = _internal_points(scenario, spec.parameter, values)
    evaluated = iter(_evaluate([nd for nd in points if isinstance(nd, Scenario)], modes,
                               spec.oracle_schedule))
    rows = []
    for nd, value in zip(points, values):
        results, dev = (([nd] * len(modes), None) if isinstance(nd, RpifError)
                        else next(evaluated))
        rows.extend(_point_rows(modes, value, results, dev))
    return rows


#: one CSV line: every number at 17 significant digits, oracle_dev last
#: and empty when there is none
_CSV_ROW = "%.17g,%s" + ",%.17g" * 9 + ","
_CSV_ROW_ORACLE = _CSV_ROW + "%.17g"


def render_csv(rows: Sequence[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:   # the CSV columns are the row's first fields
        if row.oracle_dev is None:
            lines.append(_CSV_ROW % row[:11])
        else:
            lines.append(_CSV_ROW_ORACLE % row[:12])
    return "\n".join(lines) + "\n"


def render_json(rows: Sequence[ResultRow]) -> str:
    def cell(value):
        if value is None or (isinstance(value, float) and not np.isfinite(value)):
            return None
        return value

    payload = []
    for row in rows:
        entry = {key: cell(value) for key, value in row._asdict().items()}
        if row.error is None:
            del entry["error"]  # the last key, only where the row failed
        payload.append(entry)
    return json.dumps(payload, indent=2) + "\n"


def emit_results(rows: Sequence[ResultRow], fmt: str, destination) -> None:
    """Write rows as CSV (``fmt`` "csv") or JSON ("json") to a path or text
    stream."""
    renderers = {"csv": render_csv, "json": render_json}
    if fmt not in renderers:
        raise RpifError(f"unknown format {fmt!r}, expected one of {', '.join(renderers)}")
    if not rows:
        raise RpifError("no rows to emit")
    text = renderers[fmt](rows)
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

    def exceeds_tolerance(self) -> bool:
        return self.literal_residual > MODE_TOLERANCE


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
