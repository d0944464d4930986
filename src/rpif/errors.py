"""Exception types shared across the package."""

from __future__ import annotations


class RpifError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RpifError):
    """One or more invariants of a scenario or config are violated.

    ``violations`` lists every problem found, each entry naming the
    offending field (config diagnostics use JSON-pointer paths).
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigError(ValidationError):
    """A JSON config document failed schema or invariant validation."""


class StabilityError(RpifError):
    """The exponential-scale guard rejected a scenario.

    Raised before any computation whose intermediate factors would grow
    past the safe double-precision range for the given resolution.
    """

    def __init__(self, delta_c: float, scale: float, limit: float):
        self.delta_c = delta_c
        self.scale = scale
        self.limit = limit
        super().__init__(
            f"stability guard tripped: resolution delta_c={delta_c:g} gives "
            f"|Im(wT)|*sqrt(2)={scale:.3f} > {limit:g}"
        )


class QuadratureError(RpifError):
    """An integral's panels would exceed its node budget, or its estimate
    is not finite."""


class LatticeError(RpifError):
    """Lattice reduction or extrapolation could not produce a reliable value."""
