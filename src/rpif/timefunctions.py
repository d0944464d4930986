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


def _as_float(value, what: str) -> float:
    try:
        out = float(value)
    except OverflowError:  # an integer past the float range, not finite either
        out = np.inf
    except (TypeError, ValueError):
        raise ValidationError([f"{what}: not a number ({value!r})"]) from None
    if not np.isfinite(out):
        raise ValidationError([f"{what}: must be finite"])
    return out


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

    def rescaled(self, origin, time_scale, value_scale):
        return SinusoidFunction(
            self.amplitude * value_scale,
            self.omega * time_scale,
            self.omega * origin + self.phase,
        )


@dataclass(frozen=True)
class PolynomialFunction(TimeFunction):
    """sum_k coefficients[k] * t**k"""

    coefficients: tuple[float, ...]
    kind = "polynomial"

    def _values(self, t):
        return np.polynomial.polynomial.polyval(t, np.asarray(self.coefficients))

    def rescaled(self, origin, time_scale, value_scale):
        coefs = np.asarray(self.coefficients)
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

    Sample times must be strictly increasing; ``validate_scenario`` checks
    that they cover the scenario's time window.  Interpolation error is
    controlled by the supplier's sampling density.  The interior sample times are the breakpoints, where
    quadrature panels end.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    kind = "tabulated"

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


_KINDS = ("constant", "linear", "sinusoid", "polynomial", "tabulated")


def build_time_function(spec: Mapping, where: str = "time function") -> TimeFunction:
    """Build a TimeFunction from a tagged mapping like ``{"kind": ..., ...}``."""
    if not isinstance(spec, Mapping):
        raise ValidationError([f"{where}: expected an object, got {type(spec).__name__}"])
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ValidationError(
            [f"{where}/kind: unknown kind {kind!r} (expected one of {', '.join(_KINDS)})"]
        )

    if kind == "constant":
        return ConstantFunction(_as_float(spec.get("value", 0.0), f"{where}/value"))
    if kind == "linear":
        return LinearFunction(
            _as_float(spec.get("slope", 0.0), f"{where}/slope"),
            _as_float(spec.get("intercept", 0.0), f"{where}/intercept"),
        )
    if kind == "sinusoid":
        return SinusoidFunction(
            _as_float(spec.get("amplitude", 1.0), f"{where}/amplitude"),
            _as_float(spec.get("omega", 1.0), f"{where}/omega"),
            _as_float(spec.get("phase", 0.0), f"{where}/phase"),
        )
    if kind == "polynomial":
        raw = spec.get("coefficients")
        if not isinstance(raw, (list, tuple)) or len(raw) == 0:
            raise ValidationError([f"{where}/coefficients: expected a nonempty array"])
        coefs = tuple(_as_float(c, f"{where}/coefficients/{i}") for i, c in enumerate(raw))
        return PolynomialFunction(coefs)
    times = spec.get("times")
    values = spec.get("values")
    for name, raw in (("times", times), ("values", values)):
        if not isinstance(raw, (list, tuple)) or len(raw) < 2:
            raise ValidationError([f"{where}/{name}: expected an array of at least 2 samples"])
    if len(times) != len(values):
        raise ValidationError([f"{where}/values: length {len(values)} does not match times ({len(times)})"])
    ts = tuple(_as_float(v, f"{where}/times/{i}") for i, v in enumerate(times))
    vs = tuple(_as_float(v, f"{where}/values/{i}") for i, v in enumerate(values))
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError([f"{where}/times: sample times must be strictly increasing"])
    return TabulatedFunction(ts, vs)


def check_domain_coverage(fn: TimeFunction, window: tuple[float, float],
                          where: str = "time function") -> None:
    """Reject a tabulated function whose samples do not span the window."""
    if isinstance(fn, TabulatedFunction):
        lo, hi = window
        slack = _DOMAIN_SLACK * max(hi - lo, 1.0)
        if fn.times[0] > lo + slack or fn.times[-1] < hi - slack:
            raise ValidationError(
                [f"{where}/times: samples [{fn.times[0]:g}, {fn.times[-1]:g}] do not "
                 f"cover the interval [{lo:g}, {hi:g}]"]
            )
