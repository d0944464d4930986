"""Domain types, scenario validation, and nondimensionalization.

A Scenario bundles the physical constants, the flight endpoints, the
noninertial frame profile f(t), and the two continuously measured beam
records.  All computations downstream run on the nondimensionalized form
(hbar = m = T = 1, time mapped to [0, 1], lengths divided by
sqrt(hbar*T/m)); phases depend only on dimensionless groups, and the
rescaling keeps double precision away from extremes like hbar ~ 1e-34.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from . import quadrature
from .errors import ValidationError
from .timefunctions import (
    TimeFunction,
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

    def swapped(self) -> "Scenario":
        return replace(self, beam_a=self.beam_b, beam_b=self.beam_a)

    @property
    def length_scale(self) -> float:
        """Natural quantum length sqrt(hbar*T/m) used for rescaling."""
        p = self.params
        return math.sqrt(p.hbar * p.duration / p.m)

    @property
    def gravity_scale(self) -> float:
        """Factor sqrt(m*T^3/hbar) that puts g into internal units."""
        p = self.params
        return math.sqrt(p.m * p.duration ** 3 / p.hbar)

    def is_nondimensional(self) -> bool:
        p = self.params
        return (p.m == 1.0 and p.hbar == 1.0
                and p.tau_start == 0.0 and p.tau_end == 1.0)

    def nondimensionalized(self) -> "Scenario":
        """Rescale to hbar = m = T = 1 with time on [0, 1].

        Lengths divide by L = sqrt(hbar*T/m) and gravity becomes
        g * sqrt(m*T^3/hbar); both beams and the frame profile are
        recomposed exactly (no sampling).  Identity transform when the
        scenario is already in internal units.
        """
        if self.is_nondimensional():
            return self
        p = self.params
        T = p.duration
        L = self.length_scale
        g_hat = p.g * self.gravity_scale
        dom = (0.0, 1.0)

        def beam_hat(beam: BeamRecord) -> BeamRecord:
            return BeamRecord(
                trajectory=beam.trajectory.rescaled(p.tau_start, T, 1.0 / L, dom),
                resolution=beam.resolution / L,
            )

        return Scenario(
            params=PhysicalParams(1.0, g_hat, 1.0, 0.0, 1.0),
            z1=self.z1 / L,
            z2=self.z2 / L,
            frame_profile=self.frame_profile.rescaled(p.tau_start, T, 1.0, dom),
            beam_a=beam_hat(self.beam_a),
            beam_b=beam_hat(self.beam_b),
        )


def mean_square(c: TimeFunction, params: PhysicalParams) -> float:
    """Time average (1/T) * integral of c(t)^2 over the window.

    Panels end at the record's breakpoints, so a tabulated record's square,
    piecewise quadratic, is integrated exactly at the first level.
    """
    T = params.duration
    val = quadrature.integrate(lambda t: np.asarray(c(t)) ** 2 + 0j,
                               params.tau_start, params.tau_end, breaks=c.breakpoints)
    return float(val.real) / T


def _check_gravity(g: float, out: list[str]) -> None:
    if not np.isfinite(g) or g < 0:
        out.append(f"params.g: must be >= 0 and finite, got {g!r}")


def _check_endpoint(name: str, value: float, out: list[str]) -> None:
    if not np.isfinite(value):
        out.append(f"{name}: must be finite, got {value!r}")


def _check_resolution(name: str, value: float, out: list[str]) -> None:
    if not (np.isfinite(value) and value > 0):
        out.append(f"{name}.resolution: must be a positive finite number, got {value!r}")


def _check_params(p: PhysicalParams, out: list[str]) -> None:
    for name, value in (("params.m", p.m), ("params.hbar", p.hbar)):
        if not (np.isfinite(value) and value > 0):
            out.append(f"{name}: must be a positive finite number, got {value!r}")
    _check_gravity(p.g, out)
    if not (np.isfinite(p.tau_start) and np.isfinite(p.tau_end)):
        out.append("params.tau_start/tau_end: must be finite")
    elif p.tau_end <= p.tau_start:
        out.append(
            f"params: time ordering violated, need tau_end > tau_start "
            f"(got [{p.tau_start!r}, {p.tau_end!r}])"
        )


def validate_scenario(scenario: Scenario) -> Scenario:
    """Verify every invariant; return the scenario with domains attached.

    On failure raises ValidationError whose ``violations`` list names each
    violated invariant (all of them, not just the first).
    """
    out: list[str] = []
    p = scenario.params
    _check_params(p, out)
    _check_endpoint("z1", scenario.z1, out)
    _check_endpoint("z2", scenario.z2, out)
    _check_resolution("beam_a", scenario.beam_a.resolution, out)
    _check_resolution("beam_b", scenario.beam_b.resolution, out)

    domain_ok = p.tau_end > p.tau_start and np.isfinite(p.tau_start) and np.isfinite(p.tau_end)
    fixed = scenario
    if domain_ok:
        dom = (p.tau_start, p.tau_end)
        named = (("frame_profile", scenario.frame_profile),
                 ("beam_a.trajectory", scenario.beam_a.trajectory),
                 ("beam_b.trajectory", scenario.beam_b.trajectory))
        attached = {}
        for name, fn in named:
            try:
                check_domain_coverage(fn, dom, name)
            except ValidationError as exc:
                out.extend(exc.violations)
                continue
            attached[name] = fn.with_domain(dom)
        if not out:
            fixed = replace(
                scenario,
                frame_profile=attached["frame_profile"],
                beam_a=replace(scenario.beam_a, trajectory=attached["beam_a.trajectory"]),
                beam_b=replace(scenario.beam_b, trajectory=attached["beam_b.trajectory"]),
            )

    if out:
        raise ValidationError(out)
    return fixed


def nondimensional(scenario: Scenario) -> Scenario:
    """The validated scenario in internal units."""
    return validate_scenario(scenario).nondimensionalized()


def scenario_from_dict(raw: Mapping, where: str = "") -> Scenario:
    """Build and validate a Scenario from plain nested mappings.

    Used by the config parser; ``where`` prefixes diagnostic paths.
    Collects every structural problem before raising.
    """
    out: list[str] = []

    def number(section: Mapping, key: str, default, path: str) -> float:
        value = section.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            out.append(f"{path}: expected a number, got {value!r}")
            return float("nan")
        return float(value)

    if not isinstance(raw, Mapping):
        raise ValidationError([f"{where or '/'}: expected an object"])

    params_raw = raw.get("params", {})
    if not isinstance(params_raw, Mapping):
        out.append(f"{where}/params: expected an object")
        params_raw = {}
    params = PhysicalParams(
        m=number(params_raw, "m", 1.0, f"{where}/params/m"),
        g=number(params_raw, "g", 1.0, f"{where}/params/g"),
        hbar=number(params_raw, "hbar", 1.0, f"{where}/params/hbar"),
        tau_start=number(params_raw, "tau_start", 0.0, f"{where}/params/tau_start"),
        tau_end=number(params_raw, "tau_end", 1.0, f"{where}/params/tau_end"),
    )
    z1 = number(raw, "z1", 0.0, f"{where}/z1")
    z2 = number(raw, "z2", 0.5, f"{where}/z2")

    def fn_from(section: Mapping | None, default: Mapping, path: str) -> TimeFunction:
        spec = section if section is not None else default
        try:
            return build_time_function(spec, domain=None, where=path)
        except ValidationError as exc:
            out.extend(exc.violations)
            return build_time_function({"kind": "constant", "value": 0.0})

    def beam_from(key: str, default_traj: Mapping, default_res: float) -> BeamRecord:
        section = raw.get(key, {})
        if not isinstance(section, Mapping):
            out.append(f"{where}/{key}: expected an object")
            section = {}
        traj = fn_from(section.get("trajectory"), default_traj, f"{where}/{key}/trajectory")
        if "resolution" in section:
            res = number(section, "resolution", None, f"{where}/{key}/resolution")
        elif key in raw:
            out.append(f"{where}/{key}/resolution: required property is missing")
            res = float("nan")
        else:
            res = default_res
        return BeamRecord(trajectory=traj, resolution=res)

    frame = fn_from(raw.get("frame_profile"), {"kind": "constant", "value": 1.0},
                    f"{where}/frame_profile")
    beam_a = beam_from("beam_a", {"kind": "constant", "value": 0.1}, 1.0)
    beam_b = beam_from("beam_b", {"kind": "constant", "value": -0.1}, 2.0)

    if out:
        raise ValidationError(out)

    scenario = Scenario(params=params, z1=z1, z2=z2, frame_profile=frame,
                        beam_a=beam_a, beam_b=beam_b)
    try:
        return validate_scenario(scenario)
    except ValidationError as exc:
        prefix = where or ""
        raise ValidationError(
            [f"{prefix}/{v.replace('.', '/', 1)}" if not v.startswith("/") else v
             for v in exc.violations]
        ) from None
