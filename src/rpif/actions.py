"""Closed-form propagation of one continuously monitored beam.

The Gaussian measurement weight turns each beam into a driven harmonic
oscillator with complex frequency

    w = sqrt(4*hbar/(m*T*delta_c^2)) * exp(-i*pi/4)

and complex driving force

    F(t) = -m*g*f(t) - i*(4*hbar/(T*delta_c^2))*c(t).

This module evaluates the oscillator's classical action between the fixed
endpoints and the resulting restricted propagator

    U = exp(-2*<c^2>/delta_c^2) * sqrt(m*w/(2*pi*i*hbar*sin(wT))) * exp(i*S/hbar).

Numerical posture:
  * w sits in the fourth quadrant, so sin(wT) grows like exp(|Im wT|) and
    never vanishes; every 1/sin is folded into bounded, exp-factored
    integrand ratios.
  * below |wT| = 1e-2 the closed form cancels catastrophically and a
    Taylor expansion through (wT)^4 takes over; at the crossover the two
    agree to ~1e-12 relative.
  * scenarios whose resolution would push exp factors past ~1e26 are
    rejected up front by the stability guard.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .errors import RpifError, StabilityError
from .scenario import BeamRecord, PhysicalParams, mean_square
from .timefunctions import TimeFunction

#: guard threshold on |Im(wT)|*sqrt(2) (= |wT| on the principal branch)
STABILITY_LIMIT = 60.0

#: |wT| below which the series expansion replaces the closed form
SMALL_WT_CROSSOVER = 1e-2


@dataclass(frozen=True)
class ComplexAction:
    """Driven-oscillator action split as S = s1 + i*s2 (action units)."""

    s1: float
    s2: float

    @property
    def as_complex(self) -> complex:
        return complex(self.s1, self.s2)

    @staticmethod
    def from_complex(value: complex) -> "ComplexAction":
        return ComplexAction(float(value.real), float(value.imag))


@dataclass(frozen=True)
class PropagatorValue:
    """Restricted propagator with its three factors kept for diagnostics.

    ``amplitude`` is prefactor * exp(-2*<c^2>/delta_c^2 + i*S/hbar), one
    exp of the combined exponent, which equals weight_norm_factor *
    prefactor * phase_factor.  Each of the two factors may leave the double
    range on its own while the amplitude does not: weight_norm_factor then
    underflows to 0.0, and phase_factor holds an infinite magnitude in the
    direction of its phase Re(S)/hbar.  ``phase_magnitude`` records
    |exp(i*S/hbar)|; no sign is asserted for the imaginary action part,
    this is diagnostic only.
    """

    amplitude: complex
    weight_norm_factor: float
    prefactor: complex
    phase_factor: complex
    action: ComplexAction

    @property
    def phase_magnitude(self) -> float:
        return abs(self.phase_factor)


def _ensure_finite(value, what: str):
    if isinstance(value, (int, float, complex)):  # numpy scalars included
        finite = cmath.isfinite(value)
    else:
        arr = np.asarray(value)
        finite = bool(np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag)))
    if not finite:
        raise RpifError(f"{what}: non-finite value {value!r}")
    return value


def complex_frequency(params: PhysicalParams, delta_c: float) -> complex:
    """Principal root sqrt(-i*4*hbar/(m*T*delta_c^2)); arg is exactly -pi/4."""
    if delta_c <= 0:
        raise RpifError(f"delta_c must be positive, got {delta_c!r}")
    mag = math.sqrt(4.0 * params.hbar / (params.m * params.duration * delta_c ** 2))
    part = mag / math.sqrt(2.0)
    return _ensure_finite(complex(part, -part), "complex_frequency")


def ensure_stable(params: PhysicalParams, delta_c: float) -> complex:
    """Return w after checking the exponential-scale guard."""
    w = complex_frequency(params, delta_c)
    scale = abs(w.imag) * params.duration * math.sqrt(2.0)
    if scale > STABILITY_LIMIT:
        raise StabilityError(delta_c, scale, STABILITY_LIMIT)
    return w


def _force_rows(beam: BeamRecord, frame_profile: TimeFunction,
               params: PhysicalParams) -> Callable:
    """The force split by its dependence on g, F = g*F_f + F_c: returns
    t -> (F_f(t), F_c(t)), shape (2, len(t)).  params.g is not read."""
    coef = 4.0 * params.hbar / (params.duration * beam.resolution ** 2)
    m, c, f = params.m, beam.trajectory, frame_profile
    return lambda t: np.stack((-m * np.asarray(f(t)), -1j * coef * np.asarray(c(t))))


# ---------------------------------------------------------------------------
# Kernels shared by the action and the term-by-term interference module.
#
# With w = q*(1-i) (q = Re w > 0) and E(u) = exp(-2*q*u):
#   sin(w*u) = exp(q*u)/(2i) * hsin(u),  hsin(u) = e^{i q u} - E(u) e^{-i q u}
#   cos(w*u) = exp(q*u)/2    * hcos(u),  hcos(u) = e^{i q u} + E(u) e^{-i q u}
# so ratios of sines carry only decaying exponentials.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionKernels:
    """Endpoint blocks and integrand ratios of the oscillator action.

    S = (z1^2+z2^2)*b1 - 2*z1*z2*b2
        + z2*Int[F(t)*single(t-t0)] + z1*Int[F(t)*single(t1-t)]
        - (1/m)*DoubleInt[F(t)*F(s)*K(t1-t, s-t0)]

    The triangle kernel K(e, p) = sin(w e) sin(w p)/(w sin(w T)) is kept as
    its factors: K(e, p) = sum_k outer(e)[k] * inner(p)[k].
    """

    b1: complex
    b2: complex
    single: Callable        # u >= 0 -> sin(w u)/sin(w T)
    outer: Callable         # e >= 0 -> rows of shape (k, len(e))
    inner: Callable         # p >= 0 -> rows of shape (k, len(p))


def _kernels_closed(w: complex, m: float, T: float) -> ActionKernels:
    q = w.real

    def hsin(u):
        return np.exp(1j * q * u) - np.exp(-2.0 * q * u - 1j * q * u)

    def hcos(u):
        return np.exp(1j * q * u) + np.exp(-2.0 * q * u - 1j * q * u)

    hs_T = hsin(T)
    b1 = 1j * (m * w / 2.0) * hcos(T) / hs_T
    b2 = 1j * m * w * cmath.exp(-q * T) / hs_T

    def single(u):
        return np.exp(q * (u - T)) * hsin(u) / hs_T

    # exp(q*(u-T/2))*hsin(u) = exp(conj(w)*u - q*T/2) - exp(-conj(w)*u - q*T/2):
    # exp(q*(e+p-T)) split evenly, so each side stays within exp(+-q*T/2)
    wc, shift = w.conjugate(), 0.5 * q * T

    def side(u):
        return (np.exp(wc * u - shift) - np.exp(-wc * u - shift))[None, :]

    scale = 1.0 / (2j * w * hs_T)
    return ActionKernels(b1, b2, single, lambda e: scale * side(e), side)


def _kernels_series(w: complex, m: float, T: float) -> ActionKernels:
    # Taylor in (wT) through fourth order; truncation error O((wT)^6).
    w2 = w * w
    w4 = w2 * w2
    b1 = (m / 2.0) * (1.0 / T - w2 * T / 3.0 - w4 * T ** 3 / 45.0)
    b2 = (m / 2.0) * (1.0 / T + w2 * T / 6.0 + 7.0 * w4 * T ** 3 / 360.0)

    def single(u):
        return (u / T) * (1.0 + w2 * (T * T - u * u) / 6.0
                          + w4 * (u ** 4 / 120.0 + 7.0 * T ** 4 / 360.0
                                  - u * u * T * T / 36.0))

    # (e*p/T) * (1 + w2*(T^2-e^2-p^2)/6 + w4*(e^4/120 + p^4/120 + e^2 p^2/36
    #            - T^2 e^2/36 - T^2 p^2/36 + 7 T^4/360)),
    # grouped by the power of p: p, p^3 and p^5
    c0 = (1.0 + w2 * T * T / 6.0 + 7.0 * w4 * T ** 4 / 360.0) / T
    c1 = -(w2 / 6.0 + w4 * T * T / 36.0) / T
    c2 = w4 / (120.0 * T)
    c3 = w4 / (36.0 * T)

    def outer(e):
        e2 = e * e
        return np.stack((e * (c0 + e2 * (c1 + e2 * c2)), e * (c1 + e2 * c3), c2 * e))

    def inner(p):
        p2 = p * p
        return np.stack((p, p * p2, p * p2 * p2))

    return ActionKernels(b1, b2, single, outer, inner)


def action_kernels(w: complex, m: float, T: float) -> ActionKernels:
    if abs(w) * T < SMALL_WT_CROSSOVER:
        return _kernels_series(w, m, T)
    return _kernels_closed(w, m, T)


@dataclass(frozen=True)
class ActionBlocks:
    """One beam's action, grouped by endpoint dependence:

    S = (z1^2+z2^2)*b1 - 2*z1*z2*b2 + z1*q1 + z2*q2 - q12/m
    """

    b1: complex
    b2: complex
    q1: complex
    q2: complex
    q12: complex

    def action(self, m: float, z1: float, z2: float) -> complex:
        return ((z1 * z1 + z2 * z2) * self.b1 - 2.0 * z1 * z2 * self.b2
                + z2 * self.q2 + z1 * self.q1 - self.q12 / m)


@dataclass(frozen=True)
class ActionRows:
    """One beam's action blocks as polynomials in g, for the force
    F = g*F_f + F_c with F_f = -m*f(t) and F_c = -i*(4*hbar/(T*delta^2))*c(t):

        q1 = g*q1_f + q1_c,  q2 = g*q2_f + q2_c,
        q12 = g^2*q12_ff + g*q12_fc + q12_cc  (q12_fc holds both cross terms)

    None of the rows depends on g, so a g sweep integrates them once.
    """

    b1: complex
    b2: complex
    q1_f: complex
    q1_c: complex
    q2_f: complex
    q2_c: complex
    q12_ff: complex
    q12_fc: complex
    q12_cc: complex

    def at(self, g: float) -> ActionBlocks:
        return ActionBlocks(self.b1, self.b2, g * self.q1_f + self.q1_c,
                            g * self.q2_f + self.q2_c,
                            (g * self.q12_ff + self.q12_fc) * g + self.q12_cc)


def _integrate_rows(kernels: ActionKernels, forces: Callable,
                    t0: float, t1: float, breaks=()) -> ActionRows:
    """The action quadratures of the force rows ``forces(t)`` = (F_f, F_c),
    shape (2, len(t)): one line call and one triangle call."""
    single = kernels.single

    def line(t):
        both = forces(t)
        return np.concatenate((both * single(t - t0), both * single(t1 - t)))

    q2_f, q2_c, q1_f, q1_c = quadrature.integrate(line, t0, t1, breaks=breaks)

    def factors(t, s):
        n = t.size
        both = forces(np.concatenate((t, s)))[:, None, :]
        f_t, c_t = both[..., :n] * kernels.outer(t1 - t)
        zero = np.zeros_like(f_t)
        # leading rows g^2, g^1, g^0 against the inner rows (F_f, F_c) * inner
        outer = np.stack((np.concatenate((f_t, zero)),
                          np.concatenate((c_t, f_t)),
                          np.concatenate((zero, c_t))))
        inner = both[..., n:] * kernels.inner(s - t0)
        return outer, inner.reshape(-1, s.size)

    q12_ff, q12_fc, q12_cc = quadrature.integrate_triangle(factors, t0, t1,
                                                           breaks=breaks)
    return ActionRows(kernels.b1, kernels.b2, q1_f, q1_c, q2_f, q2_c,
                      q12_ff, q12_fc, q12_cc)


#: Entries per block cache.  The cached rows do not depend on g or on the
#: endpoints, so a sweep reuses them between the mode rows of one point and
#: across every point that leaves the beam, the frame and the units alone;
#: one point needs two entries of a cache (one per beam), so eight catch
#: all the reuse there is.
BLOCK_CACHE_SIZE = 8


@functools.lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _action_rows(beam: BeamRecord, frame_profile: TimeFunction, m: float,
                 hbar: float, tau_start: float, tau_end: float) -> ActionRows:
    """The g-free action rows of one beam; none depends on z1, z2 or g.

    The arguments are frozen dataclasses and floats compared by value, so a
    cache hit returns exactly the bits a recomputation would.
    """
    params = PhysicalParams(m, 0.0, hbar, tau_start, tau_end)
    w = ensure_stable(params, beam.resolution)
    kernels = action_kernels(w, m, params.duration)
    return _integrate_rows(kernels, _force_rows(beam, frame_profile, params),
                           tau_start, tau_end,
                           frame_profile.breakpoints + beam.trajectory.breakpoints)


def _action_blocks(beam: BeamRecord, frame_profile: TimeFunction,
                   params: PhysicalParams) -> ActionBlocks:
    """The three action quadratures of one beam at the params' g."""
    rows = _action_rows(beam, frame_profile, params.m, params.hbar,
                        params.tau_start, params.tau_end)
    return rows.at(params.g)


@functools.lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _record_mean_square(trajectory: TimeFunction, tau_start: float,
                        tau_end: float) -> float:
    """<c^2> over [tau_start, tau_end].

    ``mean_square`` reads only the window from its params, so the cache is
    keyed on the window alone and a g sweep computes <c^2> once per beam.
    """
    return mean_square(trajectory, PhysicalParams(1.0, 0.0, 1.0, tau_start, tau_end))


def classical_action(beam: BeamRecord, frame_profile: TimeFunction,
                     params: PhysicalParams, z1: float, z2: float) -> ComplexAction:
    """Classical action of the driven complex oscillator between z1 and z2.

    Uses the closed form for |wT| >= 1e-2 and the series expansion below;
    the two agree to better than 1e-9 relative at the crossover.
    """
    value = _action_blocks(beam, frame_profile, params).action(params.m, z1, z2)
    _ensure_finite(value, "classical_action")
    return ComplexAction.from_complex(value)


def _sine_ratio(w: complex, T: float) -> complex:
    """w / sin(wT), series-protected near zero."""
    x = w * T
    if abs(x) < SMALL_WT_CROSSOVER:
        return (1.0 / T) * (1.0 + x * x / 6.0 + 7.0 * x ** 4 / 360.0)
    return w / cmath.sin(x)


def _prefactor(w: complex, params: PhysicalParams) -> complex:
    """sqrt(m*w/(2*pi*i*hbar*sin(wT))) on the branch continuous in |wT|.

    The principal root is right only while the radicand's argument stays in
    (-pi, pi].  With q = Re w,
    sin(wT) = exp(qT)*exp(iqT)*(1 - exp(-2qT(1+i)))/(2i), so the argument
    continued from |wT| = 0 is
    -pi/4 - qT - Arg(1 - exp(-2qT(1+i))), and the root is the principal one
    or its negative, whichever lies at half that argument.  Where the
    principal root is right its bits are unchanged.
    """
    root = cmath.sqrt(
        params.m * _sine_ratio(w, params.duration) / (2j * math.pi * params.hbar))
    q_t = w.real * params.duration
    tail = 1.0 - cmath.exp(complex(-2.0 * q_t, -2.0 * q_t))
    arg = -0.25 * math.pi - q_t - cmath.phase(tail)
    return -root if math.cos(0.5 * arg - cmath.phase(root)) < 0.0 else root


def propagator_from_action(beam: BeamRecord, params: PhysicalParams,
                           action: ComplexAction) -> PropagatorValue:
    """Assemble the three propagator factors around a precomputed action."""
    w = ensure_stable(params, beam.resolution)
    msq = _record_mean_square(beam.trajectory, params.tau_start, params.tau_end)
    weight_exponent = -2.0 * msq / beam.resolution ** 2
    phase_exponent = 1j * action.as_complex / params.hbar
    prefactor = _prefactor(w, params)
    exponent = weight_exponent + phase_exponent
    try:
        amplitude = prefactor * cmath.exp(exponent)
    except (OverflowError, ValueError):  # ValueError: an infinite phase
        amplitude = complex(math.inf)
    if not cmath.isfinite(amplitude):
        raise RpifError(
            f"restricted_propagator: exp(-2<c^2>/delta^2 + i*S/hbar) is not "
            f"finite for the {beam.trajectory.kind} record at resolution "
            f"{beam.resolution:g} (exponent {exponent:.6g})")
    weight_norm = math.exp(weight_exponent)
    try:
        phase_factor = cmath.exp(phase_exponent)
    except OverflowError:
        phase_factor = cmath.rect(math.inf, phase_exponent.imag)
    return PropagatorValue(amplitude=amplitude, weight_norm_factor=weight_norm,
                           prefactor=prefactor, phase_factor=phase_factor,
                           action=action)


def restricted_propagator(beam: BeamRecord, frame_profile: TimeFunction,
                          params: PhysicalParams, z1: float, z2: float) -> PropagatorValue:
    """Full restricted propagator U(z2, z1) for one measured beam."""
    action = classical_action(beam, frame_profile, params, z1, z2)
    return propagator_from_action(beam, params, action)
