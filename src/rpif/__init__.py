"""Gravity-induced interference of continuously position-monitored beams.

Restricted-path-integral treatment of a split-beam interference experiment
in which both beams are continuously monitored: each Gaussian measurement
record turns its beam into a driven complex harmonic oscillator whose
propagator is known in closed form, and the interference pattern at the
recombination point decomposes into five closed-form contributions.
An independent time-lattice Gaussian reduction serves as the numerical
ground truth for the closed forms.
"""

from .actions import (
    PropagatorValue,
    classical_action,
    complex_frequency,
    restricted_propagator,
)
from .errors import (
    ConfigError,
    LatticeError,
    QuadratureError,
    RpifError,
    StabilityError,
    ValidationError,
)
from .interference import (
    MODE_DERIVED,
    MODE_LITERAL,
    InterferenceBreakdown,
    decompose,
)
from .lattice import (
    ExtrapolationResult,
    oracle_propagator,
    richardson_extrapolate,
    stationary_action,
)
from .scenario import (
    BeamRecord,
    PhysicalParams,
    Scenario,
    mean_square,
    scenario_from_dict,
    validate_scenario,
)
from .sweep import (
    ResultRow,
    SweepSpec,
    compare_modes,
    emit_results,
    parse_config,
    run_sweep,
)
from .timefunctions import (
    ConstantFunction,
    LinearFunction,
    PolynomialFunction,
    SinusoidFunction,
    TabulatedFunction,
    TimeFunction,
    build_time_function,
)

__version__ = "0.1.0"

__all__ = [
    "BeamRecord", "ConfigError",
    "ConstantFunction", "ExtrapolationResult", "InterferenceBreakdown",
    "LatticeError", "LinearFunction", "MODE_DERIVED",
    "MODE_LITERAL", "PhysicalParams", "PolynomialFunction", "PropagatorValue",
    "QuadratureError", "ResultRow", "RpifError", "Scenario",
    "SinusoidFunction", "StabilityError", "SweepSpec", "TabulatedFunction",
    "TimeFunction", "ValidationError",
    "build_time_function", "classical_action", "compare_modes",
    "complex_frequency", "decompose", "emit_results", "mean_square",
    "oracle_propagator", "parse_config", "restricted_propagator",
    "richardson_extrapolate", "run_sweep", "scenario_from_dict",
    "stationary_action", "validate_scenario",
]
