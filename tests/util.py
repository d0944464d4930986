"""Shared scenario builders and independent numerical oracles.

The oracles here deliberately avoid the package's closed-form code paths:
the linear-potential action integrates the Lagrangian along the exact
constant-force trajectory, and the boundary-value oracle solves the
complex oscillator equation of motion by RK4 shooting and integrates the
Lagrangian along the numerical path.  The lattice reference reduces any
tridiagonal form with the continuant recurrence and a banded solve, with
no use of the constant-coefficient structure ``rpif.lattice`` exploits.
The unsplit block references integrate the whole force, g included, as
one function, against which the package's g-free rows are recombined.
"""

import cmath
import math

import numpy as np

import rpif
from rpif import (BeamRecord, LatticeError, PhysicalParams, Scenario, actions,
                  quadrature, validate_scenario)
from rpif.lattice import _lattice_rows, _toeplitz_reduce
from rpif.timefunctions import ConstantFunction

NBASE = PhysicalParams(m=1.0, g=1.0, hbar=1.0, tau_start=0.0, tau_end=1.0)


def make_scenario(m=1.0, g=1.0, hbar=1.0, tau_start=0.0, tau_end=1.0,
                  z1=0.0, z2=0.5, f=None, a=None, b=None,
                  delta_a=1.0, delta_b=2.0) -> Scenario:
    params = PhysicalParams(m=m, g=g, hbar=hbar,
                            tau_start=tau_start, tau_end=tau_end)
    return validate_scenario(Scenario(
        params=params, z1=z1, z2=z2,
        frame_profile=f if f is not None else ConstantFunction(1.0),
        beam_a=BeamRecord(a if a is not None else ConstantFunction(0.1), delta_a),
        beam_b=BeamRecord(b if b is not None else ConstantFunction(-0.1), delta_b),
    ))


def baseline_scenario() -> Scenario:
    """Reference case: m=hbar=T=1, g=1, f=1, a=0.1, b=-0.1, da=1, db=2."""
    return make_scenario()


def linear_potential_action(m, g, T, z1, z2, samples=20001) -> float:
    """Action along the exact trajectory of z'' = -g between z1 and z2.

    Solves the two-point problem in closed form (constant force) and
    integrates L = m*zdot^2/2 - m*g*z by Simpson's rule.
    """
    from scipy.integrate import simpson

    t = np.linspace(0.0, T, samples)
    v0 = (z2 - z1) / T + g * T / 2.0
    z = z1 + v0 * t - 0.5 * g * t * t
    zdot = v0 - g * t
    lagrangian = 0.5 * m * zdot ** 2 - m * g * z
    return float(simpson(lagrangian, x=t))


def bvp_on_path_action(w, force, m, t0, t1, z1, z2, n=4000) -> complex:
    """Driven-oscillator action via RK4 shooting, independent of any
    closed-form algebra.

    Solves m*z'' + m*w^2*z = F(t) as a two-point boundary problem
    (particular plus homogeneous solution, exact superposition for a
    linear ODE) and integrates L = m*zdot^2/2 - m*w^2*z^2/2 + F*z along
    the path.
    """
    from scipy.integrate import simpson

    h = (t1 - t0) / n
    ts = t0 + h * np.arange(n + 1)

    def rhs_full(t, y):
        return np.array([y[1], force(t) / m - w * w * y[0]], dtype=complex)

    def rhs_hom(t, y):
        return np.array([y[1], -w * w * y[0]], dtype=complex)

    def rk4(y0, rhs):
        ys = np.empty((n + 1, 2), dtype=complex)
        ys[0] = y0
        y = np.array(y0, dtype=complex)
        for i in range(n):
            t = ts[i]
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + h / 2 * k1)
            k3 = rhs(t + h / 2, y + h / 2 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            ys[i + 1] = y
        return ys

    y_part = rk4(np.array([z1, 0.0], dtype=complex), rhs_full)
    y_hom = rk4(np.array([0.0, 1.0], dtype=complex), rhs_hom)
    v0 = (z2 - y_part[-1, 0]) / y_hom[-1, 0]
    path = y_part + v0 * y_hom
    z, zdot = path[:, 0], path[:, 1]
    f_vals = np.array([force(t) for t in ts], dtype=complex)
    lagrangian = 0.5 * m * zdot ** 2 - 0.5 * m * w * w * z ** 2 + f_vals * z
    return complex(simpson(lagrangian, x=ts))


# ---------------------------------------------------------------------------
# reference forms of the double integrals
# ---------------------------------------------------------------------------

def reference_triangle(fn, a, b, *, rtol=quadrature.DEFAULT_RTOL,
                       atol=quadrature.DEFAULT_ATOL,
                       axis_budget=quadrature.AXIS_NODE_BUDGET,
                       order=quadrature.GAUSS_ORDER) -> complex:
    """Iterated n x n rule over the triangle a <= s <= t <= b.

    Outer in t and inner in s on [a, t], with the same composite grid on
    both axes; ``fn`` gets t of shape (n, 1) and s of shape (n, n).  It
    evaluates any kernel, separable or not, at n^2 cost, and serves as
    the reference for ``quadrature.integrate_triangle``.
    """
    width = b - a
    prev = None
    panels = 1
    while panels * order <= axis_budget:
        u, wu = quadrature._reference_rule(panels, order)
        t = a + width * u
        inner_width = t - a
        s = a + inner_width[:, None] * u[None, :]
        inner = inner_width * (np.asarray(fn(t[:, None], s)) @ wu)
        est = complex(width * np.sum(wu * inner))
        if prev is not None and abs(est - prev) <= rtol * abs(est) + atol:
            return est
        prev = est
        panels *= 2
    raise rpif.QuadratureError(f"reference triangle rule did not converge within "
                          f"{axis_budget} nodes per axis")


def closed_triangle_kernel(w: complex, T: float):
    """sin(w e) sin(w p)/(w sin(w T)) in the exp-factored closed form."""
    q = w.real

    def hsin(u):
        return np.exp(1j * q * u) - np.exp(-2.0 * q * u - 1j * q * u)

    hs_T = hsin(T)
    return lambda e, p: np.exp(q * (e + p - T)) * hsin(e) * hsin(p) / (2j * w * hs_T)


def series_triangle_kernel(w: complex, T: float):
    """The same kernel as a Taylor series in (wT) through fourth order."""
    w2 = w * w
    w4 = w2 * w2

    def kernel(e, p):
        return (e * p / T) * (
            1.0 + w2 * (T * T - e * e - p * p) / 6.0
            + w4 * (e ** 4 / 120.0 + p ** 4 / 120.0 + e * e * p * p / 36.0
                    - T * T * e * e / 36.0 - T * T * p * p / 36.0
                    + 7.0 * T ** 4 / 360.0))
    return kernel


def printed_i5_block(beam, frame_profile, p, th) -> float:
    """One beam's i5 contribution with the kernels evaluated as printed."""
    import math

    om = math.sqrt(4.0 * p.hbar / (p.m * p.duration * beam.resolution ** 2))
    coef = om * om
    g, f, c = p.g, frame_profile, beam.trajectory
    t0, t1 = p.tau_start, p.tau_end
    rt2 = math.sqrt(2.0)

    def pieces(t, s):
        eps = om * (t1 - t)
        sig = om * (np.asarray(s) - t0)
        ft, fs = np.asarray(f(t)), np.asarray(f(s))
        ct, cs = np.asarray(c(t)), np.asarray(c(s))
        big_g = g * g * (ft + fs) - coef * coef * (ct + cs)
        big_h = coef * g * (ft * cs + fs * ct)
        e_sig = np.exp(-rt2 * sig)
        e_eps = np.exp(-rt2 * eps)
        e_both = np.exp(-rt2 * (sig + eps))
        k1 = (np.cos((eps - sig) / rt2) * (e_sig + e_eps)
              - np.cos((eps + sig) / rt2) * (1.0 + e_both))
        k2 = (np.sin((eps + sig) / rt2) * (1.0 - e_both)
              + (-e_sig + e_eps) * np.sin((eps - sig) / rt2))
        lead = np.exp((sig + eps) / 2.0) / 2.0
        return lead, big_g, big_h, k1, k2

    def kern_first(t, s):
        lead, big_g, big_h, k1, k2 = pieces(t, s)
        return lead * (big_g * k1 + big_h * k2) + 0j

    def kern_second(t, s):
        lead, big_g, big_h, k1, k2 = pieces(t, s)
        return lead * (big_g * k2 - big_h * k1) + 0j

    j1 = reference_triangle(kern_first, t0, t1).real
    j2 = reference_triangle(kern_second, t0, t1).real
    e2 = math.exp(-2.0 * th)
    denom = 1.0 + math.exp(-4.0 * th) - 2.0 * math.exp(-2.0 * th) * math.cos(2.0 * th)
    w1 = (1.0 - e2) * math.cos(th) - (1.0 + e2) * math.sin(th)
    w2 = (1.0 - e2) * math.cos(th) + (1.0 + e2) * math.sin(th)
    return (p.duration * math.exp(-th) / (th * denom)) * (-w1 * j1 + w2 * j2)


# ---------------------------------------------------------------------------
# unsplit references of the per-beam blocks: the force, g included, is
# integrated as one function, as the package did before it split the blocks
# into g-free rows
# ---------------------------------------------------------------------------

def force_callable(beam, frame_profile, params):
    """The whole driving force F(t) = -m g f(t) - i (4 hbar/(T delta^2)) c(t)."""
    coef = 4.0 * params.hbar / (params.duration * beam.resolution ** 2)
    m, g = params.m, params.g
    c, f = beam.trajectory, frame_profile
    return lambda t: -m * g * np.asarray(f(t)) - 1j * coef * np.asarray(c(t))


def unsplit_blocks(kernels, force, t0, t1, breaks=()):
    """``ActionBlocks`` of one force callable: two line calls, one triangle."""
    single = kernels.single
    q2 = quadrature.integrate(lambda t: force(t) * single(t - t0), t0, t1,
                              breaks=breaks)
    q1 = quadrature.integrate(lambda t: force(t) * single(t1 - t), t0, t1,
                              breaks=breaks)

    def factors(t, s):
        n = t.size
        f = force(np.concatenate((t, s)))
        return f[:n] * kernels.outer(t1 - t), f[n:] * kernels.inner(s - t0)

    q12 = quadrature.integrate_triangle(factors, t0, t1, breaks=breaks)
    return actions.ActionBlocks(kernels.b1, kernels.b2, q1, q2, q12)


def unsplit_action(kernels, force, m, t0, t1, z1, z2) -> complex:
    return unsplit_blocks(kernels, force, t0, t1).action(m, z1, z2)


def unsplit_action_blocks(beam, frame_profile, params):
    """One beam's ``ActionBlocks`` at the params' g, from the whole force."""
    w = actions.ensure_stable(params, beam.resolution)
    kernels = actions.action_kernels(w, params.m, params.duration)
    force = force_callable(beam, frame_profile, params)
    return unsplit_blocks(kernels, force, params.tau_start, params.tau_end,
                          frame_profile.breakpoints + beam.trajectory.breakpoints)


def _omega(p, delta):
    return math.sqrt(4.0 * p.hbar / (p.m * p.duration * delta ** 2))


def _literal_weights(th):
    e2 = math.exp(-2.0 * th)
    denom = 1.0 + math.exp(-4.0 * th) - 2.0 * e2 * math.cos(2.0 * th)
    return e2, denom


def unsplit_literal_linear_block(beam, frame_profile, p, th, anchor) -> float:
    """One beam's printed i3 (anchor 'end') or i4 ('start') contribution,
    each of its two single integrals in a call of its own."""
    om = _omega(p, beam.resolution)
    q = om / math.sqrt(2.0)
    coef = 4.0 * p.hbar / (p.m * p.duration * beam.resolution ** 2)
    anchor_t = p.tau_end if anchor == "end" else p.tau_start
    g, f, c = p.g, frame_profile, beam.trajectory

    # e^x (1 + e^{-2x}) = 2 cosh x and e^x (1 - e^{-2x}) = 2 sinh x: the
    # printed prefactors cancel to O(theta^2) for a coarse measurement, so
    # the integrals need the accuracy of the hyperbolic forms near x = 0
    def integrand_sin(t):
        x = q * (t - anchor_t)
        return 2.0 * (coef * c(t) * np.sin(x) * np.cosh(x)
                      - g * f(t) * np.cos(x) * np.sinh(x))

    def integrand_cos(t):
        x = q * (t - anchor_t)
        return 2.0 * (coef * c(t) * np.cos(x) * np.sinh(x)
                      + g * f(t) * np.sin(x) * np.cosh(x))

    breaks = f.breakpoints + c.breakpoints
    j_sin = quadrature.integrate(integrand_sin, p.tau_start, p.tau_end,
                                 breaks=breaks).real
    j_cos = quadrature.integrate(integrand_cos, p.tau_start, p.tau_end,
                                 breaks=breaks).real
    e2, denom = _literal_weights(th)
    return (math.exp(-th) / denom) * ((1.0 - e2) * math.cos(th) * j_sin
                                      - (1.0 + e2) * math.sin(th) * j_cos)


def unsplit_literal_double_block(beam, frame_profile, p, th) -> float:
    """One beam's printed i5 contribution with A = g^2 f - omega^4 c and
    the mixed term formed at the params' g inside the integrand."""
    om = _omega(p, beam.resolution)
    coef = om * om
    g, f, c = p.g, frame_profile, beam.trajectory
    t0, t1 = p.tau_start, p.tau_end
    rt2 = math.sqrt(2.0)
    grow, decay = 0.5 + 1j / rt2, 0.5 - rt2 - 1j / rt2

    def side(x):
        return np.exp(grow * x) - np.exp(decay * x)

    def factors(t, s):
        n = t.size
        both = np.concatenate((t, s))
        fv, cv = f(both), c(both)
        a_v = g * g * fv - coef * coef * cv
        base = -0.5j * side(om * (t1 - t))
        outer = base * np.stack((a_v[:n], np.ones(n), 1j * coef * g * fv[:n],
                                 1j * coef * g * cv[:n]))
        inner = side(om * (s - t0)) * np.stack((np.ones(s.size), a_v[n:], cv[n:], fv[n:]))
        outer = np.concatenate((outer, 1j * outer))
        return (np.stack((outer.imag, outer.real)),
                np.concatenate((inner.real, inner.imag)))

    j1, j2 = quadrature.integrate_triangle(
        factors, t0, t1, breaks=f.breakpoints + c.breakpoints).real
    e2, denom = _literal_weights(th)
    w1 = (1.0 - e2) * math.cos(th) - (1.0 + e2) * math.sin(th)
    w2 = (1.0 - e2) * math.cos(th) + (1.0 + e2) * math.sin(th)
    return (p.duration * math.exp(-th) / (th * denom)) * (-w1 * j1 + w2 * j2)


# ---------------------------------------------------------------------------
# reference reduction of a lattice form
# ---------------------------------------------------------------------------

_RESCALE_HI = 1e150
_RESCALE_LO = 1e-150


def reference_tridiag_logdet(diag: np.ndarray, off: np.ndarray) -> complex:
    """log(det A) via the continuant recurrence with continuous phase.

    The three-term recurrence D_k = a_k D_{k-1} - b_{k-1}^2 D_{k-2} is run
    with magnitude rescaling (powers kept in a log accumulator) and the
    argument unwrapped increment by increment, so det^(1/2) can later be
    taken without branch jumps.  Returns log|det| + i*phase (phase not
    reduced mod 2*pi).
    """
    n = diag.shape[0]
    if n == 0:
        return 0.0 + 0.0j
    log_scale = 0.0
    d_prev2 = 1.0 + 0.0j
    d_prev = diag[0]
    if d_prev == 0:
        raise LatticeError("singular leading minor in tridiagonal determinant")
    phase = cmath.phase(d_prev)
    for k in range(1, n):
        d_new = diag[k] * d_prev - off[k - 1] ** 2 * d_prev2
        if d_new == 0:
            raise LatticeError(f"singular minor of order {k + 1} in tridiagonal determinant")
        phase += cmath.phase(d_new / d_prev)
        d_prev2, d_prev = d_prev, d_new
        mag = abs(d_prev)
        if mag > _RESCALE_HI or mag < _RESCALE_LO:
            d_prev /= mag
            d_prev2 /= mag
            log_scale += math.log(mag)
    return complex(math.log(abs(d_prev)) + log_scale, phase)


def reference_tridiag_solve(diag: np.ndarray, off: np.ndarray,
                            rhs: np.ndarray) -> np.ndarray:
    """A^(-1) r for a general complex tridiagonal A by a banded LU solve."""
    import scipy.linalg

    n = diag.shape[0]
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    try:
        return scipy.linalg.solve_banded((1, 1), ab, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise LatticeError(f"near-singular lattice form of size {n}: {exc}") from None


def reference_gaussian_reduce(form, order: str = "forward") -> complex:
    """``lattice.gaussian_reduce`` by the recurrence and the banded solve.

    ``order`` picks the elimination direction; "forward" and "backward"
    are algebraically identical, so their agreement to ~1e-12 confirms
    that this reference reduction is exact at fixed N.
    """
    if order not in ("forward", "backward"):
        raise ValueError(f"order must be 'forward' or 'backward', got {order!r}")
    n = form.n_steps
    n_int = n - 1
    log_norm = (n / 2.0) * cmath.log(form.slice_norm)
    if n_int == 0:
        return cmath.exp(log_norm + form.offset)
    diag, off, rhs = form.diag, form.off, form.linear
    if order == "backward":
        diag, off, rhs = diag[::-1].copy(), off[::-1].copy(), rhs[::-1].copy()
    logdet = reference_tridiag_logdet(diag, off)
    quad = 0.5 * np.dot(rhs, reference_tridiag_solve(diag, off, rhs))
    return cmath.exp(log_norm + (n_int / 2.0) * math.log(2.0 * math.pi)
                     - 0.5 * logdet + quad + form.offset)


def gaussian_exponent_terms(form) -> tuple[complex, ...]:
    """The terms whose sum is the log of ``lattice.gaussian_reduce(form)``:
    (N/2)*log(slice_norm), ((N-1)/2)*log(2*pi), -1/2*log det A,
    1/2 r^T A^(-1) r and s0 (the last alone when N = 1)."""
    n = form.n_steps
    log_norm = (n / 2.0) * cmath.log(form.slice_norm)
    if n == 1:
        return log_norm, form.offset
    logdet, quad = _toeplitz_reduce(form.diag, form.off, form.linear)
    return (log_norm, ((n - 1) / 2.0) * math.log(2.0 * math.pi), -0.5 * logdet,
            quad, form.offset)


def lattice_values(scenario: Scenario, beam_label: str, schedule) -> dict:
    """The package's lattice propagator at each N of the schedule, by N."""
    p = scenario.params
    rows = _lattice_rows(scenario.beam(beam_label), scenario.frame_profile, p.m,
                         p.hbar, p.tau_start, p.tau_end, tuple(schedule))
    return dict(zip(rows.n_steps, np.exp(rows.log_values(p.g, scenario.z1,
                                                         scenario.z2))))
