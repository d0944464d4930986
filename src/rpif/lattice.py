"""Brute-force lattice evaluation of the restricted path integral.

Ground-truth oracle for the closed-form machinery: the path integral is
discretized on N time slices, which turns the integrand into an exact
multivariate Gaussian over the N-1 interior points,

    exp(-1/2 z^T A z + r^T z + s0),   A complex symmetric tridiagonal,

and the integral is done exactly: A is constant-coefficient tridiagonal,
so its determinant and the solve have closed forms, each one numpy pass.
The only approximation is the discretization of the exponent itself, and
it converges at O(h^2):

  * kinetic term from nearest-neighbour differences (exact for the
    piecewise-linear paths the measure lives on);
  * the frame profile and the measured record sampled at slice midpoints;
  * the quadratic weight attached to the path nodes with trapezoid
    splitting per slice.  Averaging the path variable onto midpoints
    instead would leak an O(h) error into the fluctuation determinant.

This module never calls the closed-form code paths; separate quadrature,
separate algebra.  That independence is the point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .actions import ComplexAction
from .errors import LatticeError, ValidationError
from .scenario import PhysicalParams, Scenario

#: relative size of Re(kap) and Im(d + 2*kap) up to which a form still
#: counts as the lattice's shape; assembly makes both exactly 0
_BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class LatticeSpec:
    """Time lattice with fixed endpoints: N steps of size h = T/N."""

    n_steps: int
    z1: float
    z2: float
    step: float

    def __post_init__(self):
        problems = []
        if self.n_steps < 1:
            problems.append(f"lattice.n_steps: must be >= 1, got {self.n_steps}")
        if not (np.isfinite(self.step) and self.step > 0):
            problems.append(f"lattice.step: must be positive, got {self.step!r}")
        if problems:
            raise ValidationError(problems)

    @classmethod
    def for_params(cls, params: PhysicalParams, z1: float, z2: float,
                   n_steps: int) -> "LatticeSpec":
        return cls(n_steps=n_steps, z1=z1, z2=z2,
                   step=params.duration / n_steps)


@dataclass(frozen=True)
class QuadraticForm:
    """Exact Gaussian exponent of the discretized restricted propagator.

    exponent(z) = -1/2 z^T A z + r^T z + s0 over the interior points, with
    A stored as (diag, off).  ``weight_const`` is the record-only constant
    inside s0 (the discrete -2<c^2>/dc^2 piece); the stationary action
    excludes it.  ``slice_norm`` is the per-slice measure normalization
    m/(2*pi*i*hbar*h), applied as (slice_norm)^(N/2).
    """

    diag: np.ndarray
    off: np.ndarray
    linear: np.ndarray
    offset: complex
    weight_const: complex
    slice_norm: complex
    n_steps: int
    step: float
    hbar: float

    def __post_init__(self):
        for arr in (self.diag, self.off, self.linear):
            arr.setflags(write=False)
        n_interior = max(self.n_steps - 1, 0)
        if self.diag.shape != (n_interior,) or self.linear.shape != (n_interior,) \
                or self.off.shape != (max(n_interior - 1, 0),):
            raise ValidationError(["lattice form: inconsistent dimensions"])


def assemble_quadratic_form(scenario: Scenario, beam_label: str,
                            lattice: LatticeSpec) -> QuadraticForm:
    """Discretize one beam's weighted path-integral exponent.

    Works in the units of the scenario as given; callers comparing against
    the closed form pass the nondimensionalized scenario on both sides.
    """
    p = scenario.params
    beam = scenario.beam(beam_label)
    n = lattice.n_steps
    h = lattice.step
    z1, z2 = lattice.z1, lattice.z2

    lam = 2.0 * h / (p.duration * beam.resolution ** 2)
    kap = 1j * p.m / (p.hbar * h)
    gq = 1j * p.m * p.g * h / (2.0 * p.hbar)

    t_mid = p.tau_start + h * (np.arange(n) + 0.5)
    f_mid = np.asarray(scenario.frame_profile(t_mid), dtype=float)
    c_mid = np.asarray(beam.trajectory(t_mid), dtype=float)
    weight_const = complex(-lam * np.sum(c_mid * c_mid))

    n_int = n - 1
    diag = np.full(n_int, -2.0 * kap + 2.0 * lam, dtype=complex)
    off = np.full(max(n_int - 1, 0), kap, dtype=complex)
    linear = np.zeros(n_int, dtype=complex)
    if n_int > 0:
        linear[:] = lam * (c_mid[:-1] + c_mid[1:]) - gq * (f_mid[:-1] + f_mid[1:])
        linear[0] += -kap * z1
        linear[-1] += -kap * z2
        offset = ((kap / 2.0 - lam / 2.0) * (z1 * z1 + z2 * z2)
                  + lam * (c_mid[0] * z1 + c_mid[-1] * z2)
                  - gq * (f_mid[0] * z1 + f_mid[-1] * z2)
                  + weight_const)
    else:
        # single slice, no interior points: the whole exponent is constant
        offset = (kap / 2.0 * (z2 - z1) ** 2
                  - lam / 2.0 * ((z1 - c_mid[0]) ** 2 + (z2 - c_mid[0]) ** 2)
                  - gq * f_mid[0] * (z1 + z2))

    slice_norm = p.m / (2j * math.pi * p.hbar * h)
    return QuadraticForm(diag=diag, off=off, linear=linear,
                         offset=complex(offset), weight_const=weight_const,
                         slice_norm=slice_norm, n_steps=n, step=h, hbar=p.hbar)


def _toeplitz_reduce(diag: np.ndarray, off: np.ndarray,
                     rhs: np.ndarray) -> tuple[complex, complex]:
    """(log det A, 1/2 r^T A^(-1) r) for A = tridiag(kap, d, kap), in closed form.

    The lattice's A is 2*lam*I + kap*tridiag(1, -2, 1) with lam >= 0 and
    kap imaginary, so d = 2*lam - 2*kap.  Its eigenvalues are
    2*lam - 4*kap*s_j^2 with s_j = sin(j*pi/(2N)), j = 1..N-1; their real
    parts are all 2*lam >= 0, so the principal logs sum to the continuous
    phase of det A.  The sum is taken factored as
    (N-1)*log(-kap) + log N + sum log1p(2*lam/(-4*kap*s_j^2)), using
    prod 4*s_j^2 = N, which keeps the O(N) size of each log out of the
    rounding of the sum.

    The quadratic form follows from the LDL^T factorization in
    Green's-function form: with cosh(psi) = -d/(2*kap), the pivots are
    u_k = -kap*sinh((k+1)psi)/sinh(k psi) and the forward-substituted
    y_k = sum_{j<=k} sinh(j psi)*r_j / sinh(k psi) is one cumulative sum.
    Under the stability guard |Re(N psi)| stays below about 43, so no
    sinh overflows.  Singular, degenerate or non-constant forms raise
    LatticeError.
    """
    n = diag.shape[0]
    d = complex(diag[0])
    if n == 1:
        if d == 0:
            raise LatticeError("singular lattice form of size 1")
        return cmath.log(d), 0.5 * complex(rhs[0]) ** 2 / d
    kap = complex(off[0])
    if np.any(diag != d) or np.any(off != kap):
        raise LatticeError(f"lattice form of size {n} is not constant-coefficient")
    if kap == 0:
        raise LatticeError(f"degenerate lattice form of size {n}: zero off-diagonal")
    two_lam = d + 2.0 * kap
    if (abs(kap.real) > _BRANCH_TOL * abs(kap)
            or abs(two_lam.imag) > _BRANCH_TOL * abs(kap) or two_lam.real < 0):
        raise LatticeError(
            f"lattice form of size {n} is not 2*lam*I + kap*tridiag(1, -2, 1) "
            f"with lam >= 0 and kap imaginary (d={d!r}, kap={kap!r})")
    two_lam = two_lam.real
    size = n + 1
    k = np.arange(1, size)
    s_sq = np.sin(k * (math.pi / (2 * size))) ** 2
    logdet = (n * cmath.log(-kap) + math.log(size)
              + np.sum(np.log1p(two_lam / (-4.0 * kap * s_sq))))

    psi = 2.0 * cmath.asinh(cmath.sqrt(two_lam / (-4.0 * kap)))
    shs = np.sinh(psi * np.arange(1, size + 1)) if psi != 0 else np.arange(1.0, size + 1)
    cum = np.cumsum(shs[:-1] * rhs)
    quad = -0.5 / kap * np.sum(cum * cum / (shs[:-1] * shs[1:]))
    if not (cmath.isfinite(logdet) and cmath.isfinite(quad)):
        raise LatticeError(f"singular or overflowing lattice form of size {n}")
    return complex(logdet), complex(quad)


def gaussian_reduce(form: QuadraticForm) -> complex:
    """Exact Gaussian integration of the quadratic form.

    value = slice_norm^(N/2) * (2*pi)^((N-1)/2) * det(A)^(-1/2)
            * exp(1/2 r^T A^(-1) r + s0)

    assembled in log space (the raw normalization alone overflows for
    large N), with the continuous phase of det A.
    """
    n = form.n_steps
    n_int = n - 1
    log_norm = (n / 2.0) * cmath.log(form.slice_norm)
    if n_int == 0:
        return cmath.exp(log_norm + form.offset)

    logdet, quad = _toeplitz_reduce(form.diag, form.off, form.linear)
    log_value = (log_norm + (n_int / 2.0) * math.log(2.0 * math.pi)
                 - 0.5 * logdet + quad + form.offset)
    if not (np.isfinite(log_value.real) and np.isfinite(log_value.imag)):
        raise LatticeError(f"lattice reduction produced a non-finite exponent at N={n}")
    return cmath.exp(log_value)


def stationary_action(scenario: Scenario, beam_label: str,
                      lattice: LatticeSpec) -> ComplexAction:
    """Discrete action at the stationary path (solves A z = r).

    The record-only weight constant is excluded, so the value converges at
    O(h^2) to the continuum driven-oscillator action between the lattice
    endpoints.
    """
    form = assemble_quadratic_form(scenario, beam_label, lattice)
    exponent = form.offset - form.weight_const
    if form.n_steps > 1:
        exponent += _toeplitz_reduce(form.diag, form.off, form.linear)[1]
    value = -1j * form.hbar * exponent
    return ComplexAction.from_complex(complex(value))


@dataclass(frozen=True)
class ExtrapolationResult:
    value: complex
    error_estimate: float
    levels: int


def richardson_extrapolate(estimates) -> ExtrapolationResult:
    """h^2-Richardson limit of a doubling sequence [(N, value), ...].

    Requires at least 3 estimates with N doubling.  Monotone shrinking of
    successive differences is checked first; if convergence is not
    monotone the extrapolation is refused rather than returning a number
    that the h^2 error model does not support.
    """
    pts = list(estimates)
    if len(pts) < 3:
        raise LatticeError(f"need at least 3 lattice levels, got {len(pts)}")
    ns = [int(n) for n, _ in pts]
    vals = [complex(v) for _, v in pts]
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise LatticeError(f"lattice levels must double: got {a} then {b}")

    diffs = [abs(v2 - v1) for v1, v2 in zip(vals, vals[1:])]
    if all(d == 0.0 for d in diffs):
        return ExtrapolationResult(value=vals[-1], error_estimate=0.0,
                                   levels=len(vals))
    for d1, d2 in zip(diffs, diffs[1:]):
        if d2 >= d1:
            raise LatticeError(
                "non-monotone convergence, extrapolation refused "
                f"(successive differences {d1:.3e} then {d2:.3e})")

    # Richardson tableau for an error series in h^2, h^4, ...
    table = [vals]
    k = 1
    while len(table[-1]) > 1:
        factor = 4.0 ** k
        prev = table[-1]
        table.append([(factor * b - a) / (factor - 1.0)
                      for a, b in zip(prev, prev[1:])])
        k += 1
    value = table[-1][0]
    runner_up = table[-2][-1]
    return ExtrapolationResult(value=value,
                               error_estimate=abs(value - runner_up),
                               levels=len(vals))


def oracle_propagator(scenario: Scenario, beam_label: str,
                      schedule, z1: float | None = None,
                      z2: float | None = None) -> ExtrapolationResult:
    """Propagator estimates over an N schedule, Richardson extrapolated."""
    p = scenario.params
    z1 = scenario.z1 if z1 is None else z1
    z2 = scenario.z2 if z2 is None else z2
    pairs = []
    for n in schedule:
        lattice = LatticeSpec.for_params(p, z1, z2, int(n))
        form = assemble_quadratic_form(scenario, beam_label, lattice)
        pairs.append((int(n), gaussian_reduce(form)))
    return richardson_extrapolate(pairs)
