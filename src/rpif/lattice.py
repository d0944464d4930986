"""Brute-force lattice evaluation of the restricted path integral.

Ground-truth oracle for the closed-form machinery: the path integral is
discretized on N time slices, which turns the integrand into an exact
multivariate Gaussian over the N-1 interior points,

    exp(-1/2 z^T A z + r^T z + s0),   A complex symmetric tridiagonal,

and the integral is done exactly.  The only approximation is the
discretization of the exponent itself, and it converges at O(h^2):

  * kinetic term from nearest-neighbour differences (exact for the
    piecewise-linear paths the measure lives on);
  * the frame profile and the measured record sampled at slice midpoints;
  * the quadratic weight attached to the path nodes with trapezoid
    splitting per slice.  Averaging the path variable onto midpoints
    instead would leak an O(h) error into the fluctuation determinant.

A = 2*lam*I + kap*tridiag(1, -2, 1) depends only on (N, delta, m, hbar, T),
and the rest of the exponent is affine or quadratic in g and the
endpoints: r = u_c + g*u_f - kap*z1*e_0 - kap*z2*e_(N-2) and s0 is a
quadratic in (g, z1, z2).  So each beam is reduced once per level to rows
free of g and the endpoints (``LatticeRows``): the log of the propagator
at level N is a constant plus a quadratic form in x = (1, g, z1, z2).
Both pieces of the reduction have closed forms for this A, each one
numpy pass: log det A as a sum over its eigenvalues, and 1/2 r^T A^(-1) r
by polarizing its Green's-function form over the four vectors of r.  The
beams of an evaluation are reduced together (``_batch_lattice_rows``),
each distinct function sampled once per level, so a sweep of z2, g or the
units costs an O(1) read per level per point.

``QuadraticForm``, ``assemble_quadratic_form`` and ``gaussian_reduce``
keep the per-form path, one beam at one level N with the scenario's g and
endpoints, as the reference the rows are tested against; the oracle does
not call them.  A level is a plain int N >= 1: the step T/N and the
endpoints are always read off the scenario.

This module imports nothing from the closed-form modules (``actions``,
``interference``, ``quadrature``): separate quadrature, separate algebra,
and the discrete action comes back as a Python complex.  That
independence is the point.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LatticeError, RpifError, ValidationError
from .scenario import BeamRecord, Scenario
from .timefunctions import TimeFunction

#: the spacing of doubles at 1, which bounds the relative rounding of each
#: term of a lattice exponent
_EPS = float(np.finfo(float).eps)


def _check_level(n: int) -> None:
    """Refuse a lattice level N below one slice."""
    if n < 1:
        raise ValidationError([f"lattice.n_steps: must be >= 1, got {n}"])


@dataclass(frozen=True)
class LatticeRows:
    """One beam's lattice exponents on a schedule, free of g and the endpoints.

    At level ``n_steps[i]`` the log of the propagator is

        const[i] + x^T quad[i] x,   x = (1, g, z1, z2),

    with ``quad[i]`` symmetric.  ``const`` holds the measure normalization
    (N/2)*log(m/(2*pi*i*hbar*h)), ((N-1)/2)*log(2*pi), -1/2*log det A and
    the record-only weight constant -lam*sum(c_k^2); x^T quad x alone is
    the exponent at the stationary path, which the discrete action reads.
    ``scale[i]`` is the sum of the magnitudes of the terms of ``const[i]``.
    """

    n_steps: tuple[int, ...]
    const: np.ndarray
    quad: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        for arr in (self.const, self.quad, self.scale):
            arr.setflags(write=False)

    def stationary(self, g: float, z1: float, z2: float) -> np.ndarray:
        """x^T quad x at every level."""
        x = np.array((1.0, g, z1, z2))
        return self.quad @ x @ x

    def log_values(self, g: float, z1: float, z2: float) -> np.ndarray:
        """Log of the propagator at every level."""
        return self.const + self.stationary(g, z1, z2)

    def rounding(self, g: float, z1: float, z2: float) -> np.ndarray:
        """A bound on the rounding error of ``log_values`` at every level:
        eps times the sum of the magnitudes of the terms the exponent adds
        up, each of which is rounded to within eps of its size."""
        x = np.abs(np.array((1.0, g, z1, z2)))
        return _EPS * (self.scale + np.abs(self.quad) @ x @ x)


def _midpoint_samples(fn: TimeFunction, tau_start: float, tau_end: float,
                      n: int) -> np.ndarray:
    """fn at the midpoints of the N slices of [tau_start, tau_end]."""
    h = (tau_end - tau_start) / n
    return np.asarray(fn(tau_start + h * (np.arange(n) + 0.5)), dtype=float)


@functools.lru_cache(maxsize=12)
def _sin_sq(n: int) -> np.ndarray:
    """sin^2(j*pi/(2N)) for j = 1..N-1.

    A table of N alone, kept for the levels of a few schedules, which
    recur from one evaluation to the next.
    """
    out = np.sin(np.arange(1, n) * (math.pi / (2 * n))) ** 2
    out.setflags(write=False)
    return out


def _log_det(n: int, lam: float, kap_im: float) -> complex:
    """log det A for A = 2*lam*I + kap*tridiag(1, -2, 1) of size N-1, kap = i*kap_im.

    The eigenvalues are 2*lam - 4*kap*s_j^2 with s_j = sin(j*pi/(2N)),
    j = 1..N-1; their real parts are all 2*lam >= 0, so the principal logs
    sum to the continuous phase of det A.  The sum is taken factored as
    (N-1)*log(-kap) + log N + sum log1p(2*lam/(-4*kap*s_j^2)), using
    prod 4*s_j^2 = N, which keeps the O(N) size of each log out of the
    rounding of the sum.  The log1p argument is purely imaginary, i*y with
    y = lam/(2*kap_im*s_j^2), so log1p(i*y) = 1/2*log1p(y^2) + i*atan(y) is
    done in real arithmetic.
    """
    y = lam / (2.0 * kap_im) / _sin_sq(n)
    return complex((n - 1) * math.log(kap_im) + math.log(n)
                   + 0.5 * float(np.sum(np.log1p(y * y))),
                   -(n - 1) * (math.pi / 2.0) + float(np.sum(np.arctan(y))))


def _green_form(n: int, lam: float, kap: complex, u_c: np.ndarray,
                u_f: np.ndarray) -> np.ndarray:
    """The symmetric bilinear form B(v, w) = 1/2 v^T A^(-1) w over the
    vectors (u_c, u_f, -kap*e_0, -kap*e_(N-2)), as a 4x4 matrix.

    From the LDL^T factorization in Green's-function form: with
    cosh(psi) = 1 - lam/kap and sh_k = sinh(k*psi), the pivots are
    -kap*sh_(k+1)/sh_k, and

        B(v, w) = -1/(2*kap) * sum_k C_k(v)*C_k(w) / (sh_k*sh_(k+1)),
        C_k(v) = sum_(j<=k) sh_j*v_j,

    so u_c and u_f take one cumulative sum each; C(e_0) is the constant
    sh_1 and C(e_(N-2)) is nonzero only at the last k.  Under the
    stability guard |Re(N*psi)| stays below about 43, so no sinh overflows.
    """
    psi = 2.0 * cmath.asinh(cmath.sqrt(2.0 * lam / (-4.0 * kap)))
    shs = np.sinh(psi * np.arange(1, n + 1)) if psi != 0 else np.arange(1.0, n + 1)
    weights = 1.0 / (shs[:-1] * shs[1:])
    cum_c = np.cumsum(shs[:-1] * u_c)
    cum_f = np.cumsum(shs[:-1] * u_f)
    cum_cw = cum_c * weights
    cum_fw = cum_f * weights
    first, last, w_last = complex(shs[0]), complex(shs[-2]), complex(weights[-1])
    scale = -0.5 / kap
    cc = scale * complex(np.dot(cum_cw, cum_c))
    cf = scale * complex(np.dot(cum_cw, cum_f))
    ff = scale * complex(np.dot(cum_fw, cum_f))
    c0, f0 = 0.5 * first * complex(cum_cw.sum()), 0.5 * first * complex(cum_fw.sum())
    c1, f1 = 0.5 * last * complex(cum_cw[-1]), 0.5 * last * complex(cum_fw[-1])
    e00 = -0.5 * kap * first * first * complex(weights.sum())
    e01 = -0.5 * kap * first * last * w_last
    e11 = -0.5 * kap * last * last * w_last
    return np.array(((cc, cf, c0, c1), (cf, ff, f0, f1), (c0, f0, e00, e01),
                     (c1, f1, e01, e11)))


def _reduce_level(n: int, m: float, hbar: float, duration: float,
                  resolution: float, c_mid: np.ndarray,
                  f_mid: np.ndarray) -> tuple[complex, np.ndarray, float]:
    """(const, quad, scale) of one beam at N slices, as in ``LatticeRows``."""
    h = duration / n
    lam = 2.0 * h / (duration * resolution ** 2)
    kap_im = m / (hbar * h)
    kap = 1j * kap_im
    gam = 0.5j * m * h / hbar  # the force term of a slice is -g*gam*f*(z_k + z_(k+1))
    weight_const = -lam * float(np.sum(c_mid * c_mid))
    log_norm = (n / 2.0) * cmath.log(m / (2j * math.pi * hbar * h))

    # s0 - weight_const = (kap/2 - lam/2)*(z1^2 + z2^2) + lam*(c_0*z1 + c_(N-1)*z2)
    #                     - g*gam*(f_0*z1 + f_(N-1)*z2); one slice alone (N = 1)
    #                     also couples the endpoints directly, -kap*z1*z2
    d = 0.5 * (kap - lam)
    c0, c1 = 0.5 * lam * float(c_mid[0]), 0.5 * lam * float(c_mid[-1])
    f0, f1 = -0.5 * gam * float(f_mid[0]), -0.5 * gam * float(f_mid[-1])
    e01 = -0.5 * kap if n == 1 else 0.0
    quad = np.array(((0.0, 0.0, c0, c1), (0.0, 0.0, f0, f1), (c0, f0, d, e01),
                     (c1, f1, e01, d)), dtype=complex)
    if n == 1:
        return log_norm + weight_const, quad, abs(log_norm) + abs(weight_const)

    logdet = _log_det(n, lam, kap_im)
    quad += _green_form(n, lam, kap, lam * (c_mid[:-1] + c_mid[1:]),
                        -gam * (f_mid[:-1] + f_mid[1:]))
    log_two_pi = ((n - 1) / 2.0) * math.log(2.0 * math.pi)
    const = log_norm + log_two_pi - 0.5 * logdet + weight_const
    if not (cmath.isfinite(const) and np.all(np.isfinite(quad))):
        raise LatticeError(f"singular or overflowing lattice form of size {n - 1}")
    return const, quad, abs(log_norm) + log_two_pi + 0.5 * abs(logdet) + abs(weight_const)


def _batch_lattice_rows(beams: tuple[BeamRecord, ...], frame_profile: TimeFunction,
                        m: float, hbar: float, tau_start: float, tau_end: float,
                        schedule: tuple[int, ...]) -> list[LatticeRows | RpifError]:
    """Beams that share the frame profile and the units, each reduced at
    every level of the schedule; none of it depends on g, z1 or z2.  Each
    distinct function (the frame profile and the records, compared by
    value) is sampled once per level.  Returns each beam's rows, or the
    RpifError that it raises on its own."""
    duration = tau_end - tau_start
    out: list = [None] * len(beams)
    levels: list = [[] for _ in beams]
    for n in schedule:
        samples: dict = {}

        def sample(fn):
            if fn not in samples:
                samples[fn] = _midpoint_samples(fn, tau_start, tau_end, n)
            return samples[fn]

        for i, beam in enumerate(beams):
            if out[i] is None:
                try:
                    levels[i].append(_reduce_level(
                        n, m, hbar, duration, beam.resolution,
                        sample(beam.trajectory), sample(frame_profile)))
                except RpifError as exc:
                    out[i] = exc
    for i, reduced in enumerate(levels):
        if out[i] is None:
            consts, quads, scales = zip(*reduced)
            out[i] = LatticeRows(tuple(schedule), np.array(consts, dtype=complex),
                                 np.array(quads), np.array(scales))
    return out


# ---------------------------------------------------------------------------
# Per-form reference: one beam at one level N, with the scenario's g and
# endpoints, assembled as explicit arrays and reduced on its own, sharing
# nothing with the rows.  The oracle
# and the stationary action read the rows; the tests check every level of
# the rows against this, and the benchmark's tracer (perfbench/trace.py)
# still looks these functions up by name.
# ---------------------------------------------------------------------------

#: relative size of Re(kap) and Im(d + 2*kap) up to which a form still
#: counts as the lattice's shape; assembly makes both exactly 0
_BRANCH_TOL = 1e-12


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

    def __post_init__(self):
        for arr in (self.diag, self.off, self.linear):
            arr.setflags(write=False)
        n_interior = max(self.n_steps - 1, 0)
        if self.diag.shape != (n_interior,) or self.linear.shape != (n_interior,) \
                or self.off.shape != (max(n_interior - 1, 0),):
            raise ValidationError(["lattice form: inconsistent dimensions"])


def assemble_quadratic_form(scenario: Scenario, beam_label: str,
                            n_steps: int) -> QuadraticForm:
    """Discretize one beam's weighted path-integral exponent on N = n_steps
    slices of the scenario's window, between its endpoints.

    Works in the units of the scenario as given; callers comparing against
    the closed form pass the nondimensionalized scenario on both sides.
    """
    _check_level(n_steps)
    p = scenario.params
    beam = scenario.beam(beam_label)
    n = n_steps
    h = p.duration / n
    z1, z2 = scenario.z1, scenario.z2

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
                         slice_norm=slice_norm, n_steps=n, step=h)


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


def _rows(scenario: Scenario, beam_label: str, schedule) -> LatticeRows:
    """One beam's lattice rows, reduced as a batch of one."""
    p = scenario.params
    schedule = tuple(int(n) for n in schedule)
    for n in schedule:
        _check_level(n)
    rows, = _batch_lattice_rows((scenario.beam(beam_label),), scenario.frame_profile,
                                p.m, p.hbar, p.tau_start, p.tau_end, schedule)
    if isinstance(rows, RpifError):
        raise rows
    return rows


def stationary_action(scenario: Scenario, beam_label: str, n_steps: int) -> complex:
    """Discrete action at the stationary path (solves A z = r) on N = n_steps
    slices of the scenario's window.

    The record-only weight constant is excluded, so the value converges at
    O(h^2) to the continuum driven-oscillator action between the scenario's
    endpoints.
    """
    p = scenario.params
    exponent = _rows(scenario, beam_label, (n_steps,)).stationary(p.g, scenario.z1,
                                                                  scenario.z2)[0]
    return complex(-1j * p.hbar * exponent)


@dataclass(frozen=True)
class ExtrapolationResult:
    value: complex
    error_estimate: float
    levels: int


def richardson_extrapolate(estimates, floor: float = 0.0) -> ExtrapolationResult:
    """h^2-Richardson limit of a doubling sequence [(N, value), ...].

    Requires at least 3 estimates with N doubling.  Monotone shrinking of
    successive differences is checked first; if convergence is not
    monotone the extrapolation is refused rather than returning a number
    that the h^2 error model does not support.  ``floor`` is the size up
    to which a difference may be rounding alone: a difference at or below
    it does not count against monotonicity, and the error estimate is at
    least ``floor``.
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
        return ExtrapolationResult(value=vals[-1], error_estimate=floor,
                                   levels=len(vals))
    for d1, d2 in zip(diffs, diffs[1:]):
        if d2 >= d1 and d2 > floor:
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
                               error_estimate=max(abs(value - runner_up), floor),
                               levels=len(vals))


def oracle_propagator(scenario: Scenario, beam_label: str, schedule, *,
                      rows: LatticeRows | None = None) -> ExtrapolationResult:
    """Propagator estimates over an N schedule, Richardson extrapolated.

    A caller that already holds the beam's lattice rows on the schedule
    passes them as ``rows``.  The extrapolation's rounding floor is twice
    the largest rounding bound of a level's value (``LatticeRows.rounding``
    times its magnitude): two levels can differ by that much from rounding
    alone.  At N = 4096 the exponent adds up terms of order 1e4 (the
    measure normalization and -1/2*log det A), which puts the floor near
    1.5e-11 of the value.
    """
    z1, z2 = scenario.z1, scenario.z2
    if rows is None:
        rows = _rows(scenario, beam_label, schedule)
    g = scenario.params.g
    log_values = rows.log_values(g, z1, z2)
    if not np.all(np.isfinite(log_values)):
        bad = rows.n_steps[int(np.argmin(np.isfinite(log_values)))]
        raise LatticeError(f"lattice reduction produced a non-finite exponent at N={bad}")
    values = np.exp(log_values)
    floor = 2.0 * float(np.max(rows.rounding(g, z1, z2) * np.abs(values)))
    return richardson_extrapolate(zip(rows.n_steps, values), floor)
