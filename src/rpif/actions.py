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
from typing import Callable, NamedTuple

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


def _force_rows(trajectory: TimeFunction, resolution, frame_profile: TimeFunction,
                params: PhysicalParams) -> Callable:
    """The force split by its dependence on g, F = g*F_f + F_c, at one
    resolution or a sequence of them: returns (t, sets) -> (F_f(t), F_c(t)),
    shape (..., 2, len(t)) with the sets (``quadrature.Coefficients``) in
    front.  params.g is not read."""
    coefs = quadrature.Coefficients(
        [(4.0 * params.hbar / (params.duration * r ** 2),)
         for r in np.ravel(resolution).tolist()], np.shape(resolution))
    m, c, f = params.m, trajectory, frame_profile

    def forces(t, sets=None):
        k, = coefs.take(sets)
        c_part = -1j * k * np.asarray(c(t))
        rows = np.empty(c_part.shape[:-1] + (2, c_part.shape[-1]), complex)
        rows[..., 0, :] = -m * np.asarray(f(t))
        rows[..., 1, :] = c_part
        return rows
    return forces


def _per_frequency(w, blocks: Callable) -> tuple:
    """``blocks(w)`` for each frequency of ``w`` (a number or a sequence):
    the first two numbers it returns, b1 and b2, as complex arrays of w's
    shape, and the rest as the per-set coefficients of the kernels' rows.

    The per-frequency numbers are few, so they keep the scalar arithmetic
    of a single frequency; only the node rows are vectorized.
    """
    shape = np.shape(w)
    values = [blocks(complex(x)) for x in np.ravel(w).tolist()]
    b1, b2 = (np.array([v[i] for v in values], complex).reshape(shape) for i in (0, 1))
    return b1, b2, quadrature.Coefficients([v[2:] for v in values], shape)


# ---------------------------------------------------------------------------
# Kernels shared by the action and the term-by-term interference module.
#
# With w = q*(1-i) (q = Re w > 0) and E(u) = exp(-2*q*u):
#   sin(w*u) = exp(q*u)/(2i) * hsin(u),  hsin(u) = e^{i q u} - E(u) e^{-i q u}
#   cos(w*u) = exp(q*u)/2    * hcos(u),  hcos(u) = e^{i q u} + E(u) e^{-i q u}
# so ratios of sines carry only decaying exponentials.
#
# Every kernel is built over a frequency or a sequence of them (the
# resolutions of one beam that a sweep visits): the blocks have the
# frequencies' shape, and each row gets that shape in front, or, when its
# ``sets`` argument picks some of the frequencies (``quadrature.Coefficients``),
# theirs.
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

    b1: np.ndarray          # the frequencies' shape
    b2: np.ndarray
    single: Callable        # (u >= 0, sets) -> sin(w u)/sin(w T), shape (..., len(u))
    outer: Callable         # (e >= 0, sets) -> rows of shape (..., k, len(e))
    inner: Callable         # (p >= 0, sets) -> rows of shape (..., k, len(p))


def _closed_blocks(w: complex, m: float, T: float) -> tuple:
    """b1 and b2, then the numbers the rows read: q, iq and -2q for
    hsin(u) = e^{iqu} - e^{-2qu - iqu}; hsin(T); conj(w), -conj(w) and qT/2
    for exp(q*(u-T/2))*hsin(u) = exp(conj(w)*u - qT/2) - exp(-conj(w)*u - qT/2),
    which splits exp(q*(e+p-T)) evenly, so each side stays within
    exp(+-qT/2); and 1/(2i w hsin(T))."""
    q = w.real
    rising, falling = np.exp(1j * q * T), np.exp(-2.0 * q * T - 1j * q * T)
    hs_T = rising - falling
    wc = w.conjugate()
    return (1j * (m * w / 2.0) * (rising + falling) / hs_T,
            1j * m * w * cmath.exp(-q * T) / hs_T,
            q, 1j * q, -2.0 * q, hs_T, wc, -wc, 0.5 * q * T, 1.0 / (2j * w * hs_T))


def _kernels_closed(w, m: float, T: float) -> ActionKernels:
    b1, b2, coefs = _per_frequency(w, lambda x: _closed_blocks(x, m, T))

    def single(u, sets=None):
        q_, iq_, m2q_, hs_, *_ = coefs.take(sets)
        iqu = iq_ * u
        return np.exp(q_ * (u - T)) * (np.exp(iqu) - np.exp(m2q_ * u - iqu)) / hs_

    def side(u, sets):
        *_, wc_, mwc_, shift_, _ = coefs.take(sets)
        return np.exp(wc_ * u - shift_) - np.exp(mwc_ * u - shift_)

    def outer(e, sets=None):
        return (coefs.take(sets)[-1] * side(e, sets))[..., None, :]

    def inner(p, sets=None):
        return side(p, sets)[..., None, :]

    return ActionKernels(b1, b2, single, outer, inner)


def _series_blocks(w: complex, m: float, T: float) -> tuple:
    # Taylor in (wT) through fourth order; truncation error O((wT)^6).
    w2 = w * w
    w4 = w2 * w2
    b1 = (m / 2.0) * (1.0 / T - w2 * T / 3.0 - w4 * T ** 3 / 45.0)
    b2 = (m / 2.0) * (1.0 / T + w2 * T / 6.0 + 7.0 * w4 * T ** 3 / 360.0)
    # (e*p/T) * (1 + w2*(T^2-e^2-p^2)/6 + w4*(e^4/120 + p^4/120 + e^2 p^2/36
    #            - T^2 e^2/36 - T^2 p^2/36 + 7 T^4/360)),
    # grouped by the power of p: p, p^3 and p^5
    c0 = (1.0 + w2 * T * T / 6.0 + 7.0 * w4 * T ** 4 / 360.0) / T
    c1 = -(w2 / 6.0 + w4 * T * T / 36.0) / T
    c2 = w4 / (120.0 * T)
    c3 = w4 / (36.0 * T)
    return b1, b2, w2, w4, c0, c1, c2, c3


def _kernels_series(w, m: float, T: float) -> ActionKernels:
    b1, b2, coefs = _per_frequency(w, lambda x: _series_blocks(x, m, T))  # w^2, w^4, c0..c3

    def single(u, sets=None):
        w2_, w4_, *_ = coefs.take(sets)
        return (u / T) * (1.0 + w2_ * (T * T - u * u) / 6.0
                          + w4_ * (u ** 4 / 120.0 + 7.0 * T ** 4 / 360.0
                                   - u * u * T * T / 36.0))

    def outer(e, sets=None):
        e2 = e * e
        *_, a0, a1, a2, a3 = coefs.take(sets)
        return np.stack((e * (a0 + e2 * (a1 + e2 * a2)), e * (a1 + e2 * a3), a2 * e),
                        axis=-2)

    def inner(p, sets=None):
        # the same for every frequency
        p2 = p * p
        return np.stack((p, p * p2, p * p2 * p2))

    return ActionKernels(b1, b2, single, outer, inner)


def action_kernels(w, m: float, T: float) -> ActionKernels:
    """The kernels at one frequency, or at a sequence of frequencies that
    all lie on the side of the |wT| crossover where the first does."""
    if abs(np.ravel(w)[0]) * T < SMALL_WT_CROSSOVER:
        return _kernels_series(w, m, T)
    return _kernels_closed(w, m, T)


class ActionBlocks(NamedTuple):
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
    ``mean_square`` is the record's <c^2> over the window, which the
    propagator's weight factor reads.
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
    mean_square: float

    def at(self, g: float) -> ActionBlocks:
        return ActionBlocks(self.b1, self.b2, g * self.q1_f + self.q1_c,
                            g * self.q2_f + self.q2_c,
                            (g * self.q12_ff + self.q12_fc) * g + self.q12_cc)


def _integrate_rows(kernels: ActionKernels, forces: Callable,
                    t0: float, t1: float, breaks=()) -> tuple[np.ndarray, ...]:
    """The action quadratures of the force rows ``forces(t, sets)`` =
    (F_f, F_c), over a 1-D sequence of the kernels' frequencies: one line
    call and one triangle call for all of them.  Returns the fields of
    ``ActionRows`` before ``mean_square``, each an array over the
    frequencies."""
    single, batch = kernels.single, quadrature.Batch(len(kernels.b1))

    def line(t):
        n, sets = t.size, batch.index
        both = forces(t, sets)
        ratio = single(np.concatenate((t - t0, t1 - t)), sets)[..., None, :]
        return np.concatenate((both * ratio[..., :n], both * ratio[..., n:]), axis=-2)

    q2_f, q2_c, q1_f, q1_c = quadrature.integrate(line, t0, t1, breaks=breaks,
                                                  batch=batch).T

    def factors(t, s):
        n, sets = t.size, batch.index
        both = forces(np.concatenate((t, s)), sets)[..., None, :]
        split = both[..., :n] * kernels.outer(t1 - t, sets)[..., None, :, :]
        f_t, c_t = split[..., 0, :, :], split[..., 1, :, :]
        zero = np.zeros_like(f_t)
        # leading rows g^2, g^1, g^0 against the inner rows (F_f, F_c) * inner
        outer = np.stack((np.concatenate((f_t, zero), axis=-2),
                          np.concatenate((c_t, f_t), axis=-2),
                          np.concatenate((zero, c_t), axis=-2)), axis=-3)
        inner = both[..., n:] * kernels.inner(s - t0, sets)[..., None, :, :]
        return outer, inner.reshape(inner.shape[:-3] + (-1, s.size))

    q12_ff, q12_fc, q12_cc = quadrature.integrate_triangle(factors, t0, t1, breaks=breaks,
                                                           batch=batch).T
    return (kernels.b1, kernels.b2, q1_f, q1_c, q2_f, q2_c, q12_ff, q12_fc, q12_cc)


#: Entries per block cache, besides a sweep's batch.  The cached rows do not
#: depend on g or on the endpoints, so a sweep reuses them across every
#: point that leaves the beam, the frame and the units alone; one point
#: needs two entries of a cache (one per beam), so eight catch all the
#: reuse there is.
BLOCK_CACHE_SIZE = 8


class RowKey(tuple):
    """A row-cache key (beam, frame profile, m, hbar, tau_start, tau_end)
    that is hashed once: the beam and the frame profile are dataclasses,
    hashed field by field every time.  It equals, and hashes like, the
    plain tuple."""

    def __new__(cls, fields):
        key = super().__new__(cls, fields)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self):
        return self._hash


class RowCache:
    """Per-beam rows keyed by (beam, frame profile, m, hbar, tau_start,
    tau_end), computed in batches.

    ``compute(beams, frame_profile, m, hbar, tau_start, tau_end)`` returns
    the rows of each beam of a batch, whose beams differ only in their
    resolution.  Reads go through an lru cache of ``BLOCK_CACHE_SIZE``
    entries.  ``fill`` computes the rows of a whole sweep, one batch per
    trajectory, and keeps the batch until a read needs rows from outside
    it, so every point of the sweep finds its rows there and the memory
    held is that of the sweep being run.  ``fill`` also returns each key's
    rows, so a sweep needs no read.  A read that finds nothing computes a
    batch of one.  The keys are frozen dataclasses and floats compared by
    value, so a hit returns exactly the bits a recomputation would; the lru
    cache and the batch, replaced whole, let threads share the cache.
    """

    def __init__(self, compute: Callable):
        self._compute = compute
        self._batch: dict = {}
        self._read = functools.lru_cache(maxsize=BLOCK_CACHE_SIZE)(self._find)

    def __call__(self, beam: BeamRecord, frame_profile: TimeFunction, m: float,
                 hbar: float, tau_start: float, tau_end: float):
        return self._read(beam, frame_profile, m, hbar, tau_start, tau_end)

    def _find(self, *key):
        rows = self._batch.get(key)
        if rows is None:
            self._batch = {}
            rows, = self._compute((key[0],), *key[1:])
        elif isinstance(rows, RpifError):
            raise rows.with_traceback(None)
        return rows

    def fill(self, keys: list) -> list:
        """Compute the rows of every key, one batch per trajectory, and keep
        them as the batch; entries of the previous batch are kept, not
        recomputed.  A batch of one key that fails keeps its error, which
        every read of that key raises.  A batch of several keys that fails
        is left out: its keys are computed one by one when they are read,
        and each raises its own error there.

        Returns each key's entry: its rows, the error of its failed batch of
        one, or None when it was left out.
        """
        kept, batch, groups = self._batch, {}, {}
        for key in dict.fromkeys(keys):
            rows = kept.get(key)
            if rows is None:
                groups.setdefault((key[0].trajectory, *key[1:]), []).append(key)
            else:
                batch[key] = rows
        for group in groups.values():
            try:
                rows = self._compute(tuple(key[0] for key in group), *group[0][1:])
            except RpifError as exc:
                if len(group) == 1:
                    batch[group[0]] = exc.with_traceback(None)
                continue
            batch.update(zip(group, rows))
        self._batch = batch
        return [batch.get(key) for key in keys]

    def cache_info(self):
        return self._read.cache_info()

    def cache_clear(self) -> None:
        self._batch = {}
        self._read.cache_clear()


def _batch_action_rows(beams: tuple[BeamRecord, ...], frame_profile: TimeFunction,
                       m: float, hbar: float, tau_start: float,
                       tau_end: float) -> list[ActionRows]:
    """The g-free action rows of beams that differ only in resolution: one
    line pass and one triangle pass per kernel branch.  None of the rows
    depends on z1, z2 or g, and the beams share one record and window, so
    one <c^2> serves them all."""
    params = PhysicalParams(m, 0.0, hbar, tau_start, tau_end)
    T = params.duration
    ws = [ensure_stable(params, beam.resolution) for beam in beams]
    branches: dict[bool, list[int]] = {}
    for i, w in enumerate(ws):
        branches.setdefault(abs(w) * T < SMALL_WT_CROSSOVER, []).append(i)
    out: list = [None] * len(beams)
    for index in branches.values():
        kernels = action_kernels([ws[i] for i in index], m, T)
        forces = _force_rows(beams[0].trajectory, [beams[i].resolution for i in index],
                             frame_profile, params)
        rows = _integrate_rows(kernels, forces, tau_start, tau_end,
                               frame_profile.breakpoints + beams[0].trajectory.breakpoints)
        for i, values in zip(index, zip(*rows)):
            out[i] = values
    msq = mean_square(beams[0].trajectory, params)
    return [ActionRows(*values, msq) for values in out]


_action_rows = RowCache(_batch_action_rows)


def _beam_rows(beam: BeamRecord, frame_profile: TimeFunction,
               params: PhysicalParams) -> ActionRows:
    """One beam's g-free action rows and <c^2>, through the row cache."""
    return _action_rows(beam, frame_profile, params.m, params.hbar,
                        params.tau_start, params.tau_end)


def _action_blocks(beam: BeamRecord, frame_profile: TimeFunction,
                   params: PhysicalParams) -> ActionBlocks:
    """The three action quadratures of one beam at the params' g."""
    return _beam_rows(beam, frame_profile, params).at(params.g)


def classical_action(beam: BeamRecord, frame_profile: TimeFunction,
                     params: PhysicalParams, z1: float, z2: float, *,
                     blocks: ActionBlocks | None = None) -> ComplexAction:
    """Classical action of the driven complex oscillator between z1 and z2.

    Uses the closed form for |wT| >= 1e-2 and the series expansion below;
    the two agree to better than 1e-9 relative at the crossover.  A caller
    that already holds the beam's blocks at the params' g passes them as
    ``blocks``.
    """
    if blocks is None:
        blocks = _action_blocks(beam, frame_profile, params)
    value = blocks.action(params.m, z1, z2)
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


def propagator_from_action(beam: BeamRecord, params: PhysicalParams,
                           action: ComplexAction, msq: float) -> PropagatorValue:
    """Assemble the three propagator factors around a precomputed action
    and the record's mean square <c^2> (``ActionRows.mean_square``)."""
    w = ensure_stable(params, beam.resolution)
    weight_exponent = -2.0 * msq / beam.resolution ** 2
    phase_exponent = 1j * action.as_complex / params.hbar
    prefactor = _prefactor(w, params)
    amplitude = _amplitude(beam, prefactor, weight_exponent, phase_exponent)
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
    rows = _beam_rows(beam, frame_profile, params)
    action = classical_action(beam, frame_profile, params, z1, z2, blocks=rows.at(params.g))
    return propagator_from_action(beam, params, action, rows.mean_square)
