"""The action kernels against 40-digit mpmath at every |wT| under the guard.

The kernels are the complex sines evaluated directly: single(u) =
sin(wu)/sin(wT), the triangle kernel single(e)*inner(p) =
sin(we) sin(wp)/(w sin(wT)), b1 = (mw/2) cot(wT), b2 = (mw/2)/sin(wT), and
the w/sin(wT) that the propagator's prefactor reads.  Each holds 1e-14
relative from |wT| = 1e-9 to the stability guard, on both sides of
|wT| = 1e-2.  T = 1, so that w*T carries no rounding of its own: at large
|wT| a rounded argument alone moves sin(wT) by |wT| ulps.

w = 0, where 4*hbar/(m*T*delta^2) underflows, is the free particle.
"""

import math

import numpy as np
import pytest

from rpif import actions
from rpif.actions import action_kernels, complex_frequency, restricted_propagator
from rpif.scenario import BeamRecord, PhysicalParams
from rpif.timefunctions import ConstantFunction

mp = pytest.importorskip("mpmath")

WT = (1e-9, 1e-6, 1e-3, 0.0099, 0.0101, 0.1, 1.0, 3.35, 10.0, 30.0, 59.9)
M, HBAR, T = 1.7, 1.3, 1.0
RTOL = 1e-14
SAMPLES = 32


def _relative(got, want) -> float:
    return float(abs(mp.mpc(complex(got)) - want) / abs(want))


def _triangle_points(rng, T: float, n: int):
    """Random (e, p) with e + p <= T, where the triangle reads its kernel."""
    e = rng.uniform(0.0, T, n)
    return e, rng.uniform(0.0, 1.0, n) * (T - e)


@pytest.mark.parametrize("wt", WT)
def test_kernels_match_mpmath(wt, rng):
    part = wt / math.sqrt(2.0)
    w = complex(part, -part)  # arg exactly -pi/4, as complex_frequency gives
    kernels = action_kernels((w,), M, T)
    u = rng.uniform(0.0, T, SAMPLES)
    e, p = _triangle_points(rng, T, SAMPLES)
    single = kernels.single(u, 0)
    triangle = kernels.single(e, 0) * kernels.inner(p, 0)
    prefactor = actions._prefactor(w, PhysicalParams(M, 0.0, HBAR, 0.0, T))
    with mp.workdps(40):
        big_w = mp.mpc(w.real, w.imag)
        sin_wt = mp.sin(big_w * T)
        checks = {
            "b1": [(kernels.b1[0], (M * big_w / 2) * mp.cos(big_w * T) / sin_wt)],
            "b2": [(kernels.b2[0], (M * big_w / 2) / sin_wt)],
            # the prefactor squared, m*w/(2*pi*i*hbar*sin(wT))
            "prefactor^2": [(prefactor * prefactor,
                             M * big_w / (2j * mp.pi * HBAR * sin_wt))],
            "single": [(got, mp.sin(big_w * x) / sin_wt) for x, got in zip(u, single)],
            "single*inner": [(got, mp.sin(big_w * x) * mp.sin(big_w * y) / (big_w * sin_wt))
                             for x, y, got in zip(e, p, triangle)],
        }
        worst = {name: max(_relative(got, want) for got, want in pairs)
                 for name, pairs in checks.items()}
    assert all(error <= RTOL for error in worst.values()), worst


@pytest.mark.parametrize("m, T", [(1.0, 1.0), (1.7, 0.7)])
def test_zero_frequency_is_the_free_particle(m, T):
    kernels = action_kernels((0j,), m, T)
    u = np.linspace(0.0, T, 9)
    e, p = _triangle_points(np.random.default_rng(0), T, 9)
    assert kernels.b1[0] == pytest.approx(m / (2.0 * T), rel=1e-12)
    assert kernels.b2[0] == pytest.approx(m / (2.0 * T), rel=1e-12)
    np.testing.assert_allclose(kernels.single(u, 0), u / T, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(kernels.single(e, 0) * kernels.inner(p, 0), e * p / T,
                               rtol=1e-12, atol=0.0)
    prefactor = actions._prefactor(0j, PhysicalParams(m, 0.0, HBAR, 0.0, T))
    assert prefactor * prefactor == pytest.approx(m / (2j * math.pi * HBAR * T), rel=1e-12)


def test_an_underflowed_frequency_keeps_the_free_particle_propagator():
    # in physical units 4*hbar/(m*T*delta^2) = 4e-334 underflows, so w = 0
    beam = BeamRecord(ConstantFunction(0.1), 1e150)
    params = PhysicalParams(1.0, 1.0, 1e-34, 0.0, 1.0)
    assert complex_frequency(params, 1e150) == 0
    value = restricted_propagator(beam, ConstantFunction(1.0), params, 0.0, 1e-17)
    # the free fall in g = 1: S = -1/24 + z2*q2 + z2^2*b1 with q2 = -1/2 and
    # b1 = 1/2, to rounding: within 4 ulp of it (the one-panel sums give 3)
    exact = -1.0 / 24.0 - 0.5e-17 + 0.5e-34
    assert value.action.imag == 0.0
    assert abs(value.action.real - exact) <= 4 * math.ulp(exact)
    assert abs(value.amplitude) == pytest.approx(
        math.sqrt(1.0 / (2.0 * math.pi * 1e-34)), rel=1e-12)
    # S/hbar is -4.2e32, so the amplitude's phase follows every bit of S:
    # both are pinned, as the goldens pin the output bytes
    assert value.action == -0.04166666666666665
    want = complex(-576452555663296.0, 3.989006309057461e16)
    assert abs(value.amplitude - want) <= 1e-12 * abs(want)
