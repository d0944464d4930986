"""Domain types, scenario validation, and nondimensionalization.

A Scenario bundles the physical constants, the flight endpoints, the
noninertial frame profile f(t), and the two continuously measured beam
records.  All computations downstream run on the nondimensionalized form
(hbar = m = T = 1, time mapped to [0, 1], lengths divided by
sqrt(hbar*T/m)); phases depend only on dimensionless groups, and the
rescaling keeps double precision away from extremes like hbar ~ 1e-34.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import quadrature
from .errors import ValidationError
from .timefunctions import (
    TimeFunction,
    _unknown,
    build_time_function,
    check_domain_coverage,
)


@dataclass(frozen=True)
class PhysicalParams:
    """Constants of one run: mass, gravity, hbar, and the time window."""

    m: float
    g: float
    hbar: float
    tau_start: float
    tau_end: float

    @property
    def duration(self) -> float:
        return self.tau_end - self.tau_start

    @property
    def length_scale(self) -> float:
        """Natural quantum length sqrt(hbar*T/m) used for rescaling."""
        return math.sqrt(self.hbar * self.duration / self.m)

    @property
    def gravity_scale(self) -> float:
        """Factor sqrt(m*T^3/hbar) that puts g into internal units."""
        return math.sqrt(self.m * self.duration ** 3 / self.hbar)


@dataclass(frozen=True)
class BeamRecord:
    """One beam's measured trajectory c(t) and the device resolution."""

    trajectory: TimeFunction
    resolution: float


@dataclass(frozen=True)
class Scenario:
    params: PhysicalParams
    z1: float
    z2: float
    frame_profile: TimeFunction
    beam_a: BeamRecord
    beam_b: BeamRecord

    def beam(self, label: str) -> BeamRecord:
        if label == "a":
            return self.beam_a
        if label == "b":
            return self.beam_b
        raise ValueError(f"beam label must be 'a' or 'b', got {label!r}")

    def nondimensionalized(self) -> "Scenario":
        """Rescale to hbar = m = T = 1 with time on [0, 1].

        Lengths divide by L = sqrt(hbar*T/m) and gravity becomes
        g * sqrt(m*T^3/hbar); both beams and the frame profile are
        recomposed exactly (no sampling).  Identity transform when the
        scenario is already in internal units.
        """
        p = self.params
        if p.m == 1.0 and p.hbar == 1.0 and p.tau_start == 0.0 and p.tau_end == 1.0:
            return self
        T = p.duration
        L = p.length_scale
        g_hat = p.g * p.gravity_scale

        def beam_hat(beam: BeamRecord) -> BeamRecord:
            return BeamRecord(
                trajectory=beam.trajectory.rescaled(p.tau_start, T, 1.0 / L),
                resolution=beam.resolution / L,
            )

        return Scenario(
            params=PhysicalParams(1.0, g_hat, 1.0, 0.0, 1.0),
            z1=self.z1 / L,
            z2=self.z2 / L,
            frame_profile=self.frame_profile.rescaled(p.tau_start, T, 1.0),
            beam_a=beam_hat(self.beam_a),
            beam_b=beam_hat(self.beam_b),
        )


def mean_square(c: TimeFunction, params: PhysicalParams) -> float:
    """Time average (1/T) * integral of c(t)^2 over the window.

    Panels end at the record's breakpoints, so a tabulated record's square,
    piecewise quadratic, is integrated exactly on one panel per segment.
    c^2 has twice the rate and twice the degree of c.
    """
    T = params.duration
    sample = c.sampler()
    val = quadrature.integrate(lambda t: sample(t) ** 2 + 0j,
                               params.tau_start, params.tau_end, rate=2.0 * c.rate,
                               degree=2 * c.degree, breaks=c.breakpoints)
    return float(val.real) / T


def _number(section: Mapping, key: str, default, path: str, out: list[str]) -> float:
    """``section[key]``, or ``default``, as a float: anything else, a bool
    too, goes into ``out`` as a violation at ``path`` and reads NaN.  An
    integer past the float range reads as +-inf, as json reads 1e400."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        out.append(f"{path}: expected a number, got {value!r}")
        return float("nan")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _check_gravity(g: float, out: list[str]) -> None:
    if not np.isfinite(g) or g < 0:
        out.append(f"params.g: must be >= 0 and finite, got {g!r}")


def _check_endpoint(name: str, value: float, out: list[str]) -> None:
    if not np.isfinite(value):
        out.append(f"{name}: must be finite, got {value!r}")


def _check_resolution(name: str, value: float, out: list[str]) -> None:
    if not (np.isfinite(value) and value > 0):
        out.append(f"{name}.resolution: must be a positive finite number, got {value!r}")


def _check_scales(p: PhysicalParams, out: list[str]) -> None:
    """The internal units of params whose m, hbar and window are valid:
    lengths divide by sqrt(hbar*T/m) and g multiplies by sqrt(m*T^3/hbar),
    so each must be a positive finite number."""
    try:
        gravity = p.gravity_scale
    except OverflowError:  # T^3
        gravity = math.inf
    scales = (p.length_scale, gravity)
    if not all(0.0 < scale < math.inf for scale in scales):
        out.append(f"params: the internal units cannot be formed, need sqrt(hbar*T/m) "
                   f"and sqrt(m*T^3/hbar) positive and finite (got {scales[0]!r} and "
                   f"{scales[1]!r})")


def _check_params(p: PhysicalParams, out: list[str]) -> None:
    start = len(out)
    for name, value in (("params.m", p.m), ("params.hbar", p.hbar)):
        if not (np.isfinite(value) and value > 0):
            out.append(f"{name}: must be a positive finite number, got {value!r}")
    units = len(out) == start
    _check_gravity(p.g, out)
    _check_endpoint("params.tau_start", p.tau_start, out)
    _check_endpoint("params.tau_end", p.tau_end, out)
    if not (np.isfinite(p.tau_start) and np.isfinite(p.tau_end)):
        return
    if p.tau_end <= p.tau_start:
        out.append(
            f"params: time ordering violated, need tau_end > tau_start "
            f"(got [{p.tau_start!r}, {p.tau_end!r}])"
        )
    elif units:
        _check_scales(p, out)


def _finite_fields(fn: TimeFunction) -> bool:
    """Whether every number in the fields of ``fn`` is finite."""
    for field in dataclasses.fields(fn):
        value = getattr(fn, field.name)
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            return False
    return True


def validate_scenario(scenario: Scenario) -> Scenario:
    """Verify every invariant, a tabulated function's coverage of the time
    window included, and, where the params are valid, that the frame
    profile and the records keep finite fields in internal units; return
    the scenario itself.

    On failure raises ValidationError whose ``violations`` list names each
    violated invariant (all of them, not just the first).
    """
    nondimensional(scenario)
    return scenario


def nondimensional(scenario: Scenario) -> Scenario:
    """The validated scenario in internal units: ``validate_scenario``,
    returning the rescaled scenario that its check of the fields builds, so
    that no caller rescales it again."""
    out: list[str] = []
    p = scenario.params
    _check_params(p, out)
    units = not out  # valid params: the internal units can be formed
    _check_endpoint("z1", scenario.z1, out)
    _check_endpoint("z2", scenario.z2, out)
    _check_resolution("beam_a", scenario.beam_a.resolution, out)
    _check_resolution("beam_b", scenario.beam_b.resolution, out)

    if p.tau_end > p.tau_start and np.isfinite(p.tau_start) and np.isfinite(p.tau_end):
        for name, fn in (("frame_profile", scenario.frame_profile),
                         ("beam_a.trajectory", scenario.beam_a.trajectory),
                         ("beam_b.trajectory", scenario.beam_b.trajectory)):
            try:
                check_domain_coverage(fn, (p.tau_start, p.tau_end), name)
            except ValidationError as exc:
                out.extend(exc.violations)

    nd = None
    if units:
        with np.errstate(all="ignore"):  # an overflow reads non-finite, and is refused
            nd = scenario.nondimensionalized()
        for name, fn in (("frame_profile", nd.frame_profile),
                         ("beam_a.trajectory", nd.beam_a.trajectory),
                         ("beam_b.trajectory", nd.beam_b.trajectory)):
            if not _finite_fields(fn):
                out.append(f"{name}: not every field is finite in internal units "
                           f"(time in units of tau_end - tau_start, lengths in sqrt(hbar*T/m))")

    if out:
        raise ValidationError(out)
    return nd


#: the fields of ``params``, in ``PhysicalParams`` order, with their defaults
_PARAMS = {"m": 1.0, "g": 1.0, "hbar": 1.0, "tau_start": 0.0, "tau_end": 1.0}


def scenario_from_dict(raw: Mapping) -> Scenario:
    """Build and validate a Scenario from plain nested mappings.

    Used by the config parser: diagnostics carry JSON-pointer paths, and
    every structural problem is collected before raising.  The root's own
    keys are left to the caller, which knows the sections beside the
    scenario's.
    """
    out: list[str] = []
    if not isinstance(raw, Mapping):
        raise ValidationError(["/: expected an object"])

    params_raw = raw.get("params", {})
    if not isinstance(params_raw, Mapping):
        out.append("/params: expected an object")
        params_raw = {}
    out.extend(_unknown(params_raw, _PARAMS, "/params"))
    params = PhysicalParams(*(_number(params_raw, name, default, f"/params/{name}", out)
                              for name, default in _PARAMS.items()))
    z1 = _number(raw, "z1", 0.0, "/z1", out)
    z2 = _number(raw, "z2", 0.5, "/z2", out)

    def fn_from(section: Mapping | None, default: Mapping, path: str) -> TimeFunction:
        spec = section if section is not None else default
        try:
            return build_time_function(spec, where=path)
        except ValidationError as exc:
            out.extend(exc.violations)
            return build_time_function({"kind": "constant", "value": 0.0})

    def beam_from(key: str, default_traj: Mapping, default_res: float) -> BeamRecord:
        section = raw.get(key, {})
        if not isinstance(section, Mapping):
            out.append(f"/{key}: expected an object")
            section = {}
        out.extend(_unknown(section, ("trajectory", "resolution"), f"/{key}"))
        traj = fn_from(section.get("trajectory"), default_traj, f"/{key}/trajectory")
        if "resolution" in section:
            res = _number(section, "resolution", None, f"/{key}/resolution", out)
        elif isinstance(raw.get(key), Mapping):  # a non-object section was reported above
            out.append(f"/{key}/resolution: required property is missing")
            res = float("nan")
        else:
            res = default_res
        return BeamRecord(trajectory=traj, resolution=res)

    frame = fn_from(raw.get("frame_profile"), {"kind": "constant", "value": 1.0},
                    "/frame_profile")
    beam_a = beam_from("beam_a", {"kind": "constant", "value": 0.1}, 1.0)
    beam_b = beam_from("beam_b", {"kind": "constant", "value": -0.1}, 2.0)

    if out:
        raise ValidationError(out)

    scenario = Scenario(params=params, z1=z1, z2=z2, frame_profile=frame,
                        beam_a=beam_a, beam_b=beam_b)
    try:
        return validate_scenario(scenario)
    except ValidationError as exc:
        raise ValidationError([v if v.startswith("/") else _pointer(v)
                               for v in exc.violations]) from None


def _pointer(violation: str) -> str:
    """A violation of ``validate_scenario`` with its dotted field name, the
    text before the first ": ", as a JSON pointer."""
    name, sep, message = violation.partition(": ")
    return f"/{name.replace('.', '/')}{sep}{message}"
