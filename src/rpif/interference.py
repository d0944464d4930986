"""Interference of the two monitored beams and its five-term breakdown.

Recombining the beams at z2 gives the intensity |U_a + U_b|^2.  Dropping
the damping factors leaves the reduced interference

    I = cos((Re S_a - Re S_b)/hbar),

and the real action difference splits into five contributions i1..i5,
grouped by endpoint dependence: quadratic (i1), cross (i2), linear in z1
(i3) and z2 (i4), and endpoint-free (i5).

Two evaluation modes are provided and reported side by side:

``paper-literal``
    The published closed-form expressions evaluated exactly as printed,
    including theta = sqrt(2*pi*hbar*T/(m*delta^2)) in the hyperbolic
    prefactors.

``derived``
    The same five groups recomputed directly from the driven-oscillator
    action, where the angle implied by the complex frequency is
    |Re(wT)| = sqrt(2*hbar*T/(m*delta^2)), a factor sqrt(pi) smaller.
    The terms and the action difference are read off the same per-beam
    action blocks, so i1+...+i5 reproduces the action difference to
    rounding: the decomposition identity checks the assembly arithmetic,
    and the lattice oracle is the independent check of the blocks.

The discrepancy between the modes is reported, never silently resolved.
Everything here nondimensionalizes its input first, so outputs are in
internal units (hbar = m = T = 1); the reduced interference and the mode
residual are invariant under that rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadrature
from .actions import (
    ActionBlocks,
    ComplexAction,
    RowCache,
    _action_rows,
    _beam_rows,
    classical_action,
    ensure_stable,
    propagator_from_action,
)
from .errors import RpifError
from .scenario import BeamRecord, PhysicalParams, Scenario, nondimensional
from .timefunctions import TimeFunction

MODE_LITERAL = "paper-literal"
MODE_DERIVED = "derived"
_MODES = (MODE_LITERAL, MODE_DERIVED)


@dataclass(frozen=True)
class AuxiliaryAngles:
    """Dimensionless angles entering the closed-form contributions.

    theta and rho are the per-beam angles (mode dependent, see module
    docstring); omega_a and omega_b are the per-beam rates
    sqrt(4*hbar/(m*T*delta^2)), shared by both modes, at which the
    printed kernels' angles grow with time.
    """

    theta: float
    rho: float
    omega_a: float
    omega_b: float


@dataclass(frozen=True)
class InterferenceBreakdown:
    i1: float
    i2: float
    i3: float
    i4: float
    i5: float
    phase_difference: float
    reduced_i: float
    intensity: float
    mode: str
    residual: float

    @property
    def terms_sum(self) -> float:
        return self.i1 + self.i2 + self.i3 + self.i4 + self.i5


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise RpifError(f"unknown mode {mode!r}, expected one of {_MODES}")
    return mode


def _omega(params, delta: float) -> float:
    return math.sqrt(4.0 * params.hbar / (params.m * params.duration * delta ** 2))


def _paper_angle(params: PhysicalParams, delta: float) -> float:
    """The printed angle theta = sqrt(2*pi*hbar*T/(m*delta^2))."""
    return math.sqrt(2.0 * math.pi * params.hbar * params.duration / (params.m * delta ** 2))


def auxiliary_angles(scenario: Scenario, mode: str = MODE_LITERAL) -> AuxiliaryAngles:
    _check_mode(mode)
    nd = nondimensional(scenario)
    p = nd.params
    da, db = nd.beam_a.resolution, nd.beam_b.resolution
    if mode == MODE_LITERAL:
        theta, rho = _paper_angle(p, da), _paper_angle(p, db)
    else:
        # |Re(wT)|, the angle the complex frequency actually implies
        theta = abs((ensure_stable(p, da) * p.duration).real)
        rho = abs((ensure_stable(p, db) * p.duration).real)
    return AuxiliaryAngles(theta=theta, rho=rho,
                           omega_a=_omega(p, da), omega_b=_omega(p, db))


# ---------------------------------------------------------------------------
# paper-literal closed forms
# ---------------------------------------------------------------------------

def _denom(th: float) -> float:
    return 1.0 + math.exp(-4.0 * th) - 2.0 * math.exp(-2.0 * th) * math.cos(2.0 * th)


def _bracket_i1(th: float) -> float:
    return (1.0 - math.exp(-4.0 * th)
            + 2.0 * math.exp(-2.0 * th) * math.sin(2.0 * th)) / _denom(th)


def _bracket_i2(th: float) -> float:
    e2 = math.exp(-2.0 * th)
    num = (1.0 - e2) * math.cos(th) + (1.0 + e2) * math.sin(th)
    return num / (math.exp(th) * _denom(th))


def _batch_literal_rows(beams: tuple[BeamRecord, ...], frame_profile: TimeFunction,
                        m: float, hbar: float, tau_start: float, tau_end: float
                        ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The g-free rows of the printed i3/i4 and i5 integrals of beams that
    differ only in resolution: one line pass and one triangle pass for all
    of them.  Independent of the endpoints and of g, so z2 and g sweeps
    compute them once per beam, and a resolution sweep once per sweep.

    i3 and i4: with x = q*(t - anchor), q = omega/sqrt(2), the printed pair
    of single integrals is

        j_sin = Int e^x [omega^2 c sin x (1 + e^{-2x}) - g f cos x (1 - e^{-2x})]
        j_cos = Int e^x [omega^2 c cos x (1 - e^{-2x}) + g f sin x (1 + e^{-2x})],

    affine in g.  The eight line rows of a beam are indexed [anchor (end,
    start), integral (sin, cos), part (f, c)], with the g and the sign of
    each f part left to the caller.

    i5: the printed kernels combine g^2*(f(t)+f(s)), the record sum, and
    the mixed g*[f(t)c(s)+f(s)c(t)] term under exp((sigma+epsilon)/2), with
    sigma = omega*(s-t0) and epsilon = omega*(t1-t).  By angle addition the
    second kernel plus i times the first is

        -(i/2) e^{epsilon/2} hs(epsilon) e^{sigma/2} hs(sigma) (G + iH),
        hs(x) = e^{ix/sqrt2} - e^{-sqrt2 x} e^{-ix/sqrt2},
        G + iH = A(t) + A(s) + i*omega^2*g*(f(t)c(s) + c(t)f(s)),
        A = g^2 f - omega^4 c.

    G + iH is a quadratic in g whose coefficients pair an outer factor in t
    with one of the inner factors [1, f(s), c(s)] times e^{sigma/2} hs(sigma).
    Splitting each inner factor into its real and imaginary parts gives six
    real inner rows, and the triangle rows of a beam are indexed
    [j1 (imaginary part), j2 (real part)] x [g^0, g^1, g^2].
    """
    t0, t1 = tau_start, tau_end
    f, c = frame_profile, beams[0].trajectory
    rt2 = math.sqrt(2.0)
    grow, decay = 0.5 + 1j / rt2, 0.5 - rt2 - 1j / rt2
    per_beam = []  # (omega^2, q, omega)
    for beam in beams:
        coef = 4.0 * hbar / (m * (t1 - t0) * beam.resolution ** 2)
        om = math.sqrt(coef)
        per_beam.append((coef, om / rt2, om))
    rates = quadrature.Coefficients(per_beam)
    batch = quadrature.Batch(len(beams))

    def line(t):
        k, q_, _ = rates.take(batch.index)
        x = np.stack((q_ * (t - t1), q_ * (t - t0)), axis=-2)
        # e^x (1 + e^{-2x}) sin x and e^x (1 - e^{-2x}) cos x, through
        # cosh and sinh: accurate near x = 0, where a coarse measurement's
        # theta prefactors cancel to O(theta^2)
        plus, minus = 2.0 * np.cosh(x) * np.sin(x), 2.0 * np.sinh(x) * np.cos(x)
        fv, cv = np.asarray(f(t)), (k * np.asarray(c(t)))[..., None, :]
        return np.stack((np.stack((fv * minus, cv * plus), axis=-2),
                         np.stack((fv * plus, cv * minus), axis=-2)), axis=-3)

    def side(x):
        # e^{x/2} hs(x) for x = epsilon or sigma
        return np.exp(grow * x) - np.exp(decay * x)

    def factors(t, s):
        n = t.size
        both = np.concatenate((t, s))
        fv, cv = np.asarray(f(both)), np.asarray(c(both))
        k, _, w = rates.take(batch.index)
        base = -0.5j * side(w * (t1 - t))
        one = np.ones(n)
        # rows g^0, g^1, g^2 against the inner factors [1, f(s), c(s)]:
        # A(t) + A(s) + the mixed term
        table = np.zeros(base.shape[:-1] + (3, 3, n), complex)
        table[..., 0, 0, :], table[..., 0, 2, :] = -k * k * cv[:n], -k * k * one
        table[..., 1, 1, :], table[..., 1, 2, :] = 1j * k * cv[:n], 1j * k * fv[:n]
        table[..., 2, 0, :], table[..., 2, 1, :] = fv[:n], one
        outer = base[..., None, None, :] * table
        inner = (side(w * (s - t0))[..., None, :]
                 * np.stack((np.ones(s.size), fv[n:], cv[n:])))
        outer = np.concatenate((outer, 1j * outer), axis=-2)
        return (np.stack((outer.imag, outer.real), axis=-4),
                np.concatenate((inner.real, inner.imag), axis=-2))

    breaks = f.breakpoints + c.breakpoints
    return list(zip(
        quadrature.integrate(line, t0, t1, breaks=breaks, batch=batch).real,
        quadrature.integrate_triangle(factors, t0, t1, breaks=breaks, batch=batch).real))


_literal_rows = RowCache(_batch_literal_rows)


def _literal_linear_block(rows: tuple[np.ndarray, np.ndarray], p: PhysicalParams,
                          th: float, anchor: str) -> float:
    """One beam's contribution to i3 (anchor='end') or i4 (anchor='start'):
    the printed pair of single integrals over the record and the frame
    profile at the params' g, read off the beam's literal rows and weighted
    by the hyperbolic theta prefactors.
    """
    (sin_f, sin_c), (cos_f, cos_c) = rows[0][0 if anchor == "end" else 1]
    j_sin = sin_c - p.g * sin_f
    j_cos = cos_c + p.g * cos_f
    e2 = math.exp(-2.0 * th)
    return (math.exp(-th) / _denom(th)) * ((1.0 - e2) * math.cos(th) * j_sin
                                           - (1.0 + e2) * math.sin(th) * j_cos)


def _literal_double_block(rows: tuple[np.ndarray, np.ndarray], p: PhysicalParams,
                          th: float) -> float:
    """One beam's contribution to i5, exactly as printed, at the params' g."""
    g = p.g
    j1, j2 = rows[1][:, 0] + g * (rows[1][:, 1] + g * rows[1][:, 2])
    e2 = math.exp(-2.0 * th)
    w1 = (1.0 - e2) * math.cos(th) - (1.0 + e2) * math.sin(th)
    w2 = (1.0 - e2) * math.cos(th) + (1.0 + e2) * math.sin(th)
    T = p.duration
    return (T * math.exp(-th) / (th * _denom(th))) * (-w1 * j1 + w2 * j2)


def _beam_literal_rows(nd: Scenario, label: str) -> tuple[np.ndarray, np.ndarray]:
    p = nd.params
    return _literal_rows(nd.beam(label), nd.frame_profile, p.m, p.hbar,
                         p.tau_start, p.tau_end)


def _literal_terms(nd: Scenario, theta: float, rho: float) -> tuple[float, ...]:
    p = nd.params
    da, db = nd.beam_a.resolution, nd.beam_b.resolution
    z1, z2 = nd.z1, nd.z2
    i1 = ((z1 * z1 + z2 * z2) * math.sqrt(p.m / (2.0 * p.hbar * p.duration))
          * (_bracket_i1(theta) / da - _bracket_i1(rho) / db))
    i2 = (-math.sqrt(8.0 * p.m / (p.hbar * p.duration)) * z1 * z2
          * (_bracket_i2(theta) / da - _bracket_i2(rho) / db))
    mh = p.m / p.hbar
    a, b = _beam_literal_rows(nd, "a"), _beam_literal_rows(nd, "b")
    i3 = mh * z1 * (-_literal_linear_block(a, p, theta, "end")
                    + _literal_linear_block(b, p, rho, "end"))
    i4 = mh * z2 * (_literal_linear_block(a, p, theta, "start")
                    - _literal_linear_block(b, p, rho, "start"))
    i5 = mh * (_literal_double_block(a, p, theta)
               - _literal_double_block(b, p, rho))
    return i1, i2, i3, i4, i5


# ---------------------------------------------------------------------------
# derived mode: the same grouping read off the oscillator action itself
# ---------------------------------------------------------------------------

def _derived_terms(nd: Scenario, a: ActionBlocks, b: ActionBlocks) -> tuple[float, ...]:
    p = nd.params
    z1, z2 = nd.z1, nd.z2
    i1 = (z1 * z1 + z2 * z2) * (a.b1 - b.b1).real
    i2 = -2.0 * z1 * z2 * (a.b2 - b.b2).real
    i3 = z1 * (a.q1 - b.q1).real
    i4 = z2 * (a.q2 - b.q2).real
    free_a, free_b = -a.q12 / p.m, -b.q12 / p.m
    i5 = (free_a - free_b).real
    return i1, i2, i3, i4, i5


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def fill_row_caches(points: Sequence[Scenario], modes: Sequence[str]) -> None:
    """Compute the per-beam rows that ``_evaluate`` reads at every point, in
    batches: each beam's rows at all the resolutions the points visit in
    one line pass and one triangle pass per kind of row.

    ``points`` are scenarios in internal units.  A resolution past the
    stability guard is left out, as is a batch that fails; ``_evaluate``
    then reports that point's own error.
    """
    keys = []
    for nd in points:
        p = nd.params
        for beam in (nd.beam_a, nd.beam_b):
            try:
                ensure_stable(p, beam.resolution)
            except RpifError:
                continue
            keys.append((beam, nd.frame_profile, p.m, p.hbar, p.tau_start, p.tau_end))
    _action_rows.fill(keys)
    if MODE_LITERAL in modes:
        _literal_rows.fill(keys)


def _amplitudes(nd: Scenario, actions: Sequence[ComplexAction],
                mean_squares: Sequence[float]) -> tuple[complex, complex]:
    """U_a and U_b from the beams' actions and records' <c^2>; a failure
    names the beam it came from."""
    out = []
    for label, action, msq in zip("ab", actions, mean_squares):
        try:
            out.append(propagator_from_action(nd.beam(label), nd.params, action,
                                              msq).amplitude)
        except RpifError as exc:
            raise RpifError(f"beam_{label}: {exc}") from None
    return tuple(out)


def _evaluate(nd: Scenario, modes: Sequence[str]
              ) -> tuple[list[InterferenceBreakdown | RpifError], tuple[complex, complex] | None]:
    """One point in internal units, in every mode of ``modes`` at once.

    Returns each mode's breakdown, or the RpifError that failed it, and
    the amplitudes (U_a, U_b), or None when every mode failed.  The
    stability check, each beam's rows, the two actions and the two
    amplitudes are computed once and shared by the modes; only the printed
    i3..i5 rows are the literal mode's own, so their failure fails that
    mode alone, and it is reported ahead of a failure of the shared part.
    """
    p, f = nd.params, nd.frame_profile
    failed: dict[str, RpifError] = {}
    try:
        ensure_stable(p, nd.beam_a.resolution)
        ensure_stable(p, nd.beam_b.resolution)
        if MODE_LITERAL in modes:
            try:
                literal = _literal_terms(nd, _paper_angle(p, nd.beam_a.resolution),
                                         _paper_angle(p, nd.beam_b.resolution))
            except RpifError as exc:
                failed[MODE_LITERAL] = exc
                if len(modes) == 1:
                    return [exc], None
        rows = (_beam_rows(nd.beam_a, f, p), _beam_rows(nd.beam_b, f, p))
        a, b = (beam_rows.at(p.g) for beam_rows in rows)
        actions = (classical_action(nd.beam_a, f, p, nd.z1, nd.z2, blocks=a),
                   classical_action(nd.beam_b, f, p, nd.z1, nd.z2, blocks=b))
        ua, ub = _amplitudes(nd, actions, [beam_rows.mean_square for beam_rows in rows])
    except RpifError as exc:
        return [failed.get(mode, exc) for mode in modes], None
    pd = actions[0].s1 - actions[1].s1
    out: list[InterferenceBreakdown | RpifError] = []
    for mode in modes:
        if mode in failed:
            out.append(failed[mode])
            continue
        i1, i2, i3, i4, i5 = literal if mode == MODE_LITERAL else _derived_terms(nd, a, b)
        out.append(InterferenceBreakdown(
            i1=i1, i2=i2, i3=i3, i4=i4, i5=i5,
            phase_difference=pd,
            reduced_i=math.cos(pd / p.hbar),
            intensity=abs(ua + ub) ** 2,
            mode=mode,
            residual=abs(i1 + i2 + i3 + i4 + i5 - pd),
        ))
    return out, (ua, ub)


def decompose(scenario: Scenario, mode: str = MODE_DERIVED) -> InterferenceBreakdown:
    """Full breakdown: the five terms, phase difference, intensity, residual.

    In derived mode the terms and the phase difference come from the same
    per-beam action blocks, so the residual |i1+...+i5 - phase_difference|
    checks only the assembly arithmetic (it is a few ulps); the lattice
    oracle is the independent check.  In paper-literal mode the residual
    measures the printed formulas against the action difference and is
    reported as-is.
    """
    _check_mode(mode)
    (result,), _ = _evaluate(nondimensional(scenario), (mode,))
    if isinstance(result, RpifError):
        raise result
    return result
