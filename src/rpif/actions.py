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
    vanishes only at w = 0; the kernels are the complex sines themselves,
    sin(wu)/sin(wT) and sin(wp)/w, which keep their relative accuracy at
    every |wT|, small or large.
  * w = 0, where 4*hbar/(m*T*delta_c^2) underflows, is the free particle,
    the w -> 0 limit of every kernel.
  * the stability guard (``ensure_stable``) rejects up front a resolution
    that would push the sines past ~1e18, and one so fine that
    4*hbar/(m*T*delta_c^2) overflows.  It runs once where a beam enters a
    computation: an evaluation's beams, ``classical_action`` without blocks
    and ``restricted_propagator``.  The row batches take only beams that
    passed it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import quadrature
from .errors import RpifError, StabilityError
from .scenario import BeamRecord, PhysicalParams, mean_square
from .timefunctions import TimeFunction

#: guard threshold on |Im(wT)|*sqrt(2) (= |wT| on the principal branch)
STABILITY_LIMIT = 60.0


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
    action: complex         # S = s1 + i*s2, in action units

    @property
    def phase_magnitude(self) -> float:
        return abs(self.phase_factor)


def _ensure_finite(value, what: str):
    """``value``, a Python or numpy complex scalar, after checking that it is
    finite."""
    if not cmath.isfinite(value):
        raise RpifError(f"{what}: non-finite value {value!r}")
    return value


def complex_frequency(params: PhysicalParams, delta_c: float) -> complex:
    """Principal root sqrt(-i*4*hbar/(m*T*delta_c^2)); arg is exactly -pi/4.
    A resolution so fine that 4*hbar/(m*T*delta_c^2) is not finite trips the
    stability guard."""
    if delta_c <= 0:
        raise RpifError(f"delta_c must be positive, got {delta_c!r}")
    try:
        rate = 4.0 * params.hbar / (params.m * params.duration * delta_c ** 2)
    except OverflowError:
        raise RpifError(f"resolution {delta_c:g}: 4*hbar/(m*T*delta^2) cannot be "
                        f"formed, delta^2 overflows") from None
    except ZeroDivisionError:  # delta^2 underflows to 0
        rate = math.inf
    if rate == math.inf:
        raise StabilityError(delta_c, math.inf, STABILITY_LIMIT)
    part = math.sqrt(rate) / math.sqrt(2.0)
    return _ensure_finite(complex(part, -part), "complex_frequency")


def ensure_stable(params: PhysicalParams, delta_c: float) -> complex:
    """Return w after checking the exponential-scale guard."""
    w = complex_frequency(params, delta_c)
    scale = abs(w.imag) * params.duration * math.sqrt(2.0)
    if scale > STABILITY_LIMIT:
        raise StabilityError(delta_c, scale, STABILITY_LIMIT)
    return w


# ---------------------------------------------------------------------------
# Kernels shared by the action and the term-by-term interference module.
#
# Every kernel is built over a sequence of frequencies (the beams of a
# batch): the blocks are arrays over the frequencies, and each row takes a
# ``sets`` argument, a ``quadrature.Batch`` index that picks the
# frequencies it is evaluated at: an integer for one, whose rows come
# without a set axis, and an index array for several.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionKernels:
    """Endpoint blocks and integrand ratios of the oscillator action.

    S = (z1^2+z2^2)*b1 - 2*z1*z2*b2
        + z2*Int[F(t)*single(t-t0)] + z1*Int[F(t)*single(t1-t)]
        - (1/m)*DoubleInt[F(t)*F(s)*K(t1-t, s-t0)]

    with b1 = (m*w/2)*cot(wT) and b2 = (m*w/2)/sin(wT).  The triangle
    kernel K(e, p) = sin(w e) sin(w p)/(w sin(w T)) is kept as its factors:
    K(e, p) = single(e) * inner(p), with the 1/w on the inner one, so that
    neither factor leaves the double range where w*sin(wT) ~ w^2*T would.
    """

    b1: np.ndarray          # one entry per frequency
    b2: np.ndarray
    single: Callable        # (u >= 0, sets) -> sin(w u)/sin(w T), shape (..., len(u))
    inner: Callable         # (p >= 0, sets) -> sin(w p)/w, shape (..., len(p))


def _sines(w: complex, T: float) -> tuple[complex, complex]:
    """w and sin(wT).  w = 0, where 4*hbar/(m*T*delta^2) underflows, is the
    free particle, the w -> 0 limit of every kernel.  A power of two with
    |wT| < 2^-30 stands in for it: its sines are exact, sin(wu) = w*u, so
    the kernels come out as u/T and e*p/T in the same arithmetic."""
    if w == 0:
        w = complex(math.ldexp(1.0, -30 - math.frexp(T)[1]))
    return w, cmath.sin(w * T)


def _frequency_blocks(w: complex, m: float, T: float) -> tuple:
    """b1 and b2, then the numbers the rows read: w, 1/sin(wT) and 1/w."""
    w, sin_wt = _sines(w, T)
    b2 = (m / 2.0) * (w / sin_wt)
    return b2 * cmath.cos(w * T), b2, w, 1.0 / sin_wt, 1.0 / w


def action_kernels(ws, m: float, T: float) -> ActionKernels:
    """The kernels at a sequence of frequencies.

    The per-frequency numbers are few, so they keep the scalar arithmetic
    of a single frequency, and a beam gets the same bits in any batch; only
    the node rows are vectorized.
    """
    values = np.array([_frequency_blocks(complex(w), m, T) for w in ws], complex)
    b1, b2, freq, inv_sin, inv_w = values.reshape(-1, 5).T

    def single(u, sets):
        w, scale = quadrature._per_set(sets, freq, inv_sin)
        return np.sin(w * u) * scale

    def inner(p, sets):
        w, scale = quadrature._per_set(sets, freq, inv_w)
        return np.sin(w * p) * scale

    return ActionKernels(b1, b2, single, inner)


class ActionBlocks(NamedTuple):
    """One beam's action, grouped by endpoint dependence:

    S = (z1^2+z2^2)*b1 - 2*z1*z2*b2 + z1*q1 + z2*q2 - q12/m

    The blocks are Python complex numbers (``ActionRows.at``), and m, z1
    and z2 are taken as Python floats, so an action that overflows comes
    out non-finite, with no numpy warning: every caller checks that it is
    finite.
    """

    b1: complex
    b2: complex
    q1: complex
    q2: complex
    q12: complex

    def action(self, m: float, z1: float, z2: float) -> complex:
        m, z1, z2 = float(m), float(z1), float(z2)
        return ((z1 * z1 + z2 * z2) * self.b1 - 2.0 * z1 * z2 * self.b2
                + z2 * self.q2 + z1 * self.q1 - self.q12 / m)


@dataclass(frozen=True)
class ActionRows:
    """One beam's action blocks as polynomials in g, for the force
    F = g*F_f + F_c with F_f = -m*f(t) and F_c = -i*(4*hbar/(T*delta^2))*c(t):

        q1 = g*q1_f + q1_c,  q2 = g*q2_f + q2_c,
        q12 = g^2*q12_ff + g*q12_fc + q12_cc  (q12_fc holds both cross terms)

    and the two factors of its amplitude that depend on neither g nor the
    endpoints: the ``prefactor`` sqrt(m*w/(2*pi*i*hbar*sin(wT)))
    (``_prefactor``) and the ``weight_exponent`` -2*<c^2>/delta^2, from the
    record's mean square.  None of it depends on g, so a g sweep integrates
    the rows once.  The rows are Python complex numbers
    (``_batch_action_rows``), and g is taken as a Python float, so a block
    that overflows at a large g comes out non-finite, with no numpy
    warning, and so does the action.
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
    prefactor: complex
    weight_exponent: float

    def at(self, g: float) -> ActionBlocks:
        g = float(g)
        return ActionBlocks(self.b1, self.b2, g * self.q1_f + self.q1_c,
                            g * self.q2_f + self.q2_c,
                            (g * self.q12_ff + self.q12_fc) * g + self.q12_cc)


def _batch_action_rows(beams: tuple[BeamRecord, ...], frame_profile: TimeFunction,
                       params: PhysicalParams) -> list[ActionRows | RpifError]:
    """The ``ActionRows`` of beams under one frame profile and ``params``
    (whose g is not read) that have passed the stability guard, the sets of
    one ``quadrature.Batch``: one triangle pass and one line pass, which
    sample each distinct record once per call, then <c^2> once per
    distinct record.  Returns each beam's rows, or the RpifError that it
    raises on its own, with the error of the first step that fails alone:
    the triangle, the line, <c^2>.  The triangle comes first: its budget
    is the one a fast record exceeds, and then no node of the beam is
    evaluated.

    ``forces(t, sets)`` gives the rows (F_f(t), F_c(t)) of the force
    F = g*F_f + F_c, shape (..., 2, len(t)), the sets (a ``Batch`` index)
    in front; ``line`` and ``factors`` put them against the kernels.  A
    beam's line integrand, the force against a kernel of rate |w|, has the
    rate |w| plus the faster of f and c, and their higher degree, and its
    breakpoints are those of f and c; the triangle pairs two of those.
    """
    t0, t1, m = params.tau_start, params.tau_end, params.m
    ws = [complex_frequency(params, beam.resolution) for beam in beams]
    kernels = action_kernels(ws, m, params.duration)
    single, f = kernels.single, frame_profile.sampler()
    records = quadrature.Samples([beam.trajectory for beam in beams])
    drive = np.array([4.0 * params.hbar / (params.duration * beam.resolution ** 2)
                      for beam in beams])
    breaks = [frame_profile.breakpoints + beam.trajectory.breakpoints for beam in beams]
    rates = [abs(w) + max(frame_profile.rate, beam.trajectory.rate)
             for w, beam in zip(ws, beams)]
    degrees = [max(frame_profile.degree, beam.trajectory.degree) for beam in beams]
    batch = quadrature.Batch(len(beams))

    def forces(t, sets):
        k, = quadrature._per_set(sets, drive)
        c_part = -1j * k * np.asarray(records.take(sets, t))
        rows = np.empty(c_part.shape[:-1] + (2, c_part.shape[-1]), complex)
        rows[..., 0, :] = -m * np.asarray(f(t))
        rows[..., 1, :] = c_part
        return rows

    def line(t):
        n, sets = t.size, batch.index
        both = forces(t, sets)
        ratio = single(np.concatenate((t - t0, t1 - t)), sets)[..., None, :]
        return np.concatenate((both * ratio[..., :n], both * ratio[..., n:]), axis=-2)

    def factors(t, s):
        n, sets = t.size, batch.index
        both = forces(np.concatenate((t, s)), sets)
        split = both[..., :n] * single(t1 - t, sets)[..., None, :]  # (F_f, F_c) * single
        # rows g^2, g^1, g^0 against the inner rows (F_f, F_c) * inner:
        # (F_f, 0), (F_c, F_f) and (0, F_c)
        outer = np.zeros(split.shape[:-2] + (3, 2, n), complex)
        outer[..., :2, 0, :] = split
        outer[..., 1:, 1, :] = split
        return outer, both[..., n:] * kernels.inner(s - t0, sets)[..., None, :]

    q12 = quadrature.integrate_triangle(factors, t0, t1, rate=[2.0 * r for r in rates],
                                        degree=[2 * d + 1 for d in degrees], breaks=breaks,
                                        batch=batch)
    if len(batch.failed) == batch.size:
        return [batch.failed[j] for j in range(batch.size)]
    q2_f, q2_c, q1_f, q1_c = quadrature.integrate(line, t0, t1, rate=rates, degree=degrees,
                                                  breaks=breaks, batch=batch).T
    rows = (kernels.b1, kernels.b2, q1_f, q1_c, q2_f, q2_c, *q12.T)
    out = [batch.failed.get(j, values)
           for j, values in enumerate(zip(*(row.tolist() for row in rows)))]
    msq: dict = {}
    for i, (beam, w) in enumerate(zip(beams, ws)):
        if isinstance(out[i], tuple):
            record = beam.trajectory
            if record not in msq:
                try:
                    msq[record] = mean_square(record, params)
                except RpifError as exc:
                    msq[record] = exc
            out[i] = msq[record] if isinstance(msq[record], RpifError) else ActionRows(
                *out[i], _prefactor(w, params), -2.0 * msq[record] / beam.resolution ** 2)
    return out


def _beam_rows(beam: BeamRecord, frame_profile: TimeFunction,
               params: PhysicalParams) -> ActionRows:
    """The ``ActionRows`` of one beam that passed the stability guard,
    integrated as a batch of one."""
    rows, = _batch_action_rows((beam,), frame_profile, params)
    if isinstance(rows, RpifError):
        raise rows
    return rows


def classical_action(beam: BeamRecord, frame_profile: TimeFunction,
                     params: PhysicalParams, z1: float, z2: float, *,
                     blocks: ActionBlocks | None = None) -> complex:
    """Classical action S = s1 + i*s2 of the driven complex oscillator
    between z1 and z2, as a Python complex.

    A caller that already holds the beam's blocks at the params' g passes
    them as ``blocks``.  An action that overflows raises an RpifError.
    """
    if blocks is None:
        ensure_stable(params, beam.resolution)
        blocks = _beam_rows(beam, frame_profile, params).at(params.g)
    value = blocks.action(params.m, z1, z2)
    _ensure_finite(value, "classical_action")
    return complex(value)


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
    w_, sin_wt = _sines(w, params.duration)
    root = cmath.sqrt(params.m * (w_ / sin_wt) / (2j * math.pi * params.hbar))
    q_t = w.real * params.duration
    tail = 1.0 - cmath.exp(complex(-2.0 * q_t, -2.0 * q_t))
    arg = -0.25 * math.pi - q_t - cmath.phase(tail)
    return -root if math.cos(0.5 * arg - cmath.phase(root)) < 0.0 else root


def _amplitude(beam: BeamRecord, prefactor: complex, weight_exponent: float,
               phase_exponent: complex) -> complex:
    """prefactor * exp(weight_exponent + phase_exponent), one exp of the
    combined exponent, or an RpifError naming the record when that is not
    finite."""
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
    return amplitude


def restricted_propagator(beam: BeamRecord, frame_profile: TimeFunction,
                          params: PhysicalParams, z1: float, z2: float) -> PropagatorValue:
    """Full restricted propagator U(z2, z1) for one measured beam: its
    action and the three factors around it, the prefactor and the weight
    exponent read off its ``ActionRows``."""
    ensure_stable(params, beam.resolution)
    rows = _beam_rows(beam, frame_profile, params)
    action = classical_action(beam, frame_profile, params, z1, z2, blocks=rows.at(params.g))
    phase_exponent = 1j * action / params.hbar
    amplitude = _amplitude(beam, rows.prefactor, rows.weight_exponent, phase_exponent)
    weight_norm = math.exp(rows.weight_exponent)
    try:
        phase_factor = cmath.exp(phase_exponent)
    except OverflowError:
        phase_factor = cmath.rect(math.inf, phase_exponent.imag)
    return PropagatorValue(amplitude=amplitude, weight_norm_factor=weight_norm,
                           prefactor=rows.prefactor, phase_factor=phase_factor,
                           action=action)
