"""Evaluable real functions of time.

All scenario inputs that vary with time (the frame profile and the two
measured beam records) are represented by one of the small function
families below.  Instances are immutable, deterministic, and evaluate on
scalars or numpy arrays of any shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ValidationError

# absolute slack allowed when checking that tabulated samples cover the
# time window, scaled by the window's width; it only absorbs rounding at
# the window's ends
_DOMAIN_SLACK = 1e-9


def _as_float(value, what: str, out: list[str]) -> float:
    """``value`` as a finite float: anything else, a bool too, goes into
    ``out`` as a violation at ``what`` and reads NaN."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        out.append(f"{what}: expected a number, got {value!r}")
        return float("nan")
    try:
        result = float(value)
    except OverflowError:  # an integer past the float range, not finite either
        result = np.inf
    if not np.isfinite(result):
        out.append(f"{what}: must be finite")
        return float("nan")
    return result


def _unknown(section: Mapping, known, path: str) -> list[str]:
    """A violation at ``path`` for each key of ``section`` outside ``known``."""
    return [f"{path}/{key}: unknown property" for key in sorted(set(section) - set(known))]


class TimeFunction:
    """Common behaviour for the concrete function kinds."""

    kind: str = ""

    def _values(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, t):
        out = self._values(np.asarray(t, dtype=float))
        if np.ndim(t) == 0:
            return float(out)
        return out

    def sampler(self):
        """The function's values at float arrays of times, with the bits of
        a call and without its conversions."""
        return self._values

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Times where the function may have a kink: quadrature panels end
        there.  Derived from the fields, so it survives every rescaling."""
        return ()

    @property
    def rate(self) -> float:
        """The largest |alpha| of the exponentials e^(alpha*t) the function
        is a sum of, between breakpoints: with ``degree``, it sizes the
        quadrature panels.  Derived from the fields, as ``breakpoints``."""
        return 0.0

    @property
    def degree(self) -> int:
        """The degree of the polynomials that multiply those exponentials
        between breakpoints."""
        return 0

    def rescaled(self, origin: float, time_scale: float,
                 value_scale: float) -> "TimeFunction":
        """Return g with g(u) = value_scale * f(origin + time_scale * u)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantFunction(TimeFunction):
    value: float
    kind = "constant"

    def _values(self, t):
        return np.full_like(t, self.value, dtype=float)

    def rescaled(self, origin, time_scale, value_scale):
        return ConstantFunction(self.value * value_scale)


@dataclass(frozen=True)
class LinearFunction(TimeFunction):
    slope: float
    intercept: float
    kind = "linear"
    degree = 1

    def _values(self, t):
        return self.slope * t + self.intercept

    def rescaled(self, origin, time_scale, value_scale):
        return LinearFunction(
            self.slope * time_scale * value_scale,
            (self.slope * origin + self.intercept) * value_scale,
        )


@dataclass(frozen=True)
class SinusoidFunction(TimeFunction):
    """amplitude * sin(omega * t + phase)"""

    amplitude: float
    omega: float
    phase: float = 0.0
    kind = "sinusoid"

    def _values(self, t):
        return self.amplitude * np.sin(self.omega * t + self.phase)

    @property
    def rate(self) -> float:
        return abs(self.omega)

    def rescaled(self, origin, time_scale, value_scale):
        return SinusoidFunction(
            self.amplitude * value_scale,
            self.omega * time_scale,
            self.omega * origin + self.phase,
        )


def _floats(fn: TimeFunction, *names: str) -> None:
    """Store each sequence field of ``fn`` named in ``names`` as a tuple of
    floats, as a config builds it, whatever sequence a caller passed: the
    function then hashes, compares and rescales by value."""
    for name in names:
        object.__setattr__(fn, name, tuple(map(float, getattr(fn, name))))


@dataclass(frozen=True)
class PolynomialFunction(TimeFunction):
    """sum_k coefficients[k] * t**k"""

    coefficients: tuple[float, ...]
    kind = "polynomial"

    def __post_init__(self):
        _floats(self, "coefficients")

    def _values(self, t):
        return np.polynomial.polynomial.polyval(t, np.asarray(self.coefficients))

    @property
    def degree(self) -> int:
        nonzero = [k for k, c in enumerate(self.coefficients) if c != 0.0]
        return nonzero[-1] if nonzero else 0

    def rescaled(self, origin, time_scale, value_scale):
        coefs = np.asarray(self.coefficients)
        if not coefs.size:  # no polynomial: validation rescales it, then refuses it
            return self
        if origin == 0.0 and time_scale == 1.0:
            # composing with the identity map only drops trailing zeros and
            # turns -0.0 into 0.0; this gives the same bits without it
            composed = np.polynomial.polynomial.polytrim(coefs) + 0.0
        else:
            base = np.polynomial.Polynomial(coefs)
            composed = base(np.polynomial.Polynomial([origin, time_scale])).coef
        return PolynomialFunction(tuple(float(c) * value_scale for c in composed))


@dataclass(frozen=True)
class TabulatedFunction(TimeFunction):
    """Piecewise-linear interpolation of (time, value) samples.

    ``validate_scenario`` checks the table (``check_domain_coverage``): at
    least 2 samples, as many values as times, strictly increasing times
    that cover the scenario's time window.  Interpolation error is
    controlled by the supplier's sampling density.  The interior sample
    times are the breakpoints, where quadrature panels end.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    kind = "tabulated"
    degree = 1  # between breakpoints

    def __post_init__(self):
        _floats(self, "times", "values")

    def _values(self, t):
        return np.interp(t, np.asarray(self.times), np.asarray(self.values))

    def sampler(self):
        times, values = np.asarray(self.times), np.asarray(self.values)
        return lambda t: np.interp(t, times, values)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self.times[1:-1]

    def rescaled(self, origin, time_scale, value_scale):
        new_times = tuple((tt - origin) / time_scale for tt in self.times)
        new_values = tuple(v * value_scale for v in self.values)
        return TabulatedFunction(new_times, new_values)


#: each kind's class and fields, with the defaults of its scalar fields
_KINDS = {
    "constant": (ConstantFunction, {"value": 0.0}),
    "linear": (LinearFunction, {"slope": 0.0, "intercept": 0.0}),
    "sinusoid": (SinusoidFunction, {"amplitude": 1.0, "omega": 1.0, "phase": 0.0}),
    "polynomial": (PolynomialFunction, {"coefficients": None}),
    "tabulated": (TabulatedFunction, {"times": None, "values": None}),
}


#: what a table's times and values must each be
_TOO_FEW = "an array of at least 2 samples"


def _check_table(times, values, where: str, out: list[str]) -> None:
    """Put into ``out`` what keeps ``times`` and ``values`` from being a
    table to interpolate: fewer than 2 of either, unequal lengths, or times
    that do not strictly increase.  A field that is None has been reported
    already."""
    for name, samples in (("times", times), ("values", values)):
        if samples is not None and len(samples) < 2:
            out.append(f"{where}/{name}: expected {_TOO_FEW}")
    if times is not None and values is not None and len(times) != len(values):
        out.append(f"{where}/values: length {len(values)} does not match times ({len(times)})")
    # a NaN (a time that is not a number) compares false, so it is reported
    # once, where it is read or as a field that is not finite
    if times is not None and any(b <= a for a, b in zip(times, times[1:])):
        out.append(f"{where}/times: sample times must be strictly increasing")


def build_time_function(spec: Mapping, where: str = "time function") -> TimeFunction:
    """Build a TimeFunction from a tagged mapping like ``{"kind": ..., ...}``.

    Raises ValidationError naming every bad field of the spec.
    """
    if not isinstance(spec, Mapping):
        raise ValidationError([f"{where}: expected an object, got {type(spec).__name__}"])
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(
            [f"{where}/kind: unknown kind {kind!r} (expected one of {', '.join(_KINDS)})"]
        )
    cls, fields = _KINDS[kind]
    out = _unknown(spec, ("kind", *fields), where)

    def array(name: str, least: int, expected: str) -> tuple[float, ...] | None:
        raw = spec.get(name)
        if not isinstance(raw, (list, tuple)) or len(raw) < least:
            out.append(f"{where}/{name}: expected {expected}")
            return None
        return tuple(_as_float(v, f"{where}/{name}/{i}", out) for i, v in enumerate(raw))

    if kind == "polynomial":
        args = (array("coefficients", 1, "a nonempty array"),)
    elif kind == "tabulated":
        args = (array("times", 2, _TOO_FEW), array("values", 2, _TOO_FEW))
        _check_table(*args, where, out)
    else:
        args = [_as_float(spec.get(name, default), f"{where}/{name}", out)
                for name, default in fields.items()]
    if out:
        raise ValidationError(out)
    return cls(*args)


def check_domain_coverage(fn: TimeFunction, window: tuple[float, float],
                          where: str = "time function") -> None:
    """Reject a polynomial with no coefficients, a tabulated function that is
    no table (``_check_table``), or one whose samples miss the window."""
    if isinstance(fn, PolynomialFunction) and not fn.coefficients:
        raise ValidationError([f"{where}/coefficients: expected a nonempty array"])
    if isinstance(fn, TabulatedFunction):
        out: list[str] = []
        _check_table(fn.times, fn.values, where, out)
        if out:
            raise ValidationError(out)
        lo, hi = window
        slack = _DOMAIN_SLACK * max(hi - lo, 1.0)
        if fn.times[0] > lo + slack or fn.times[-1] < hi - slack:
            raise ValidationError(
                [f"{where}/times: samples [{fn.times[0]:g}, {fn.times[-1]:g}] do not "
                 f"cover the interval [{lo:g}, {hi:g}]"]
            )
