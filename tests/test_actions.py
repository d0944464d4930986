import cmath
import math
import warnings

import numpy as np
import pytest

from rpif import (
    LatticeError,
    QuadratureError,
    RpifError,
    StabilityError,
    actions,
    classical_action,
    complex_frequency,
    decompose,
    interference,
    mean_square,
    oracle_propagator,
    restricted_propagator,
)
from rpif.actions import action_kernels, ensure_stable
from sampling import random_scenario
from rpif.scenario import BeamRecord, PhysicalParams, nondimensional
from rpif.timefunctions import ConstantFunction, TabulatedFunction
from util import (NBASE, bvp_on_path_action, force_callable, linear_potential_action,
                  make_scenario, unsplit_action)


# ---------------------------------------------------------------------------
# complex frequency
# ---------------------------------------------------------------------------

def test_frequency_unit_case():
    w = complex_frequency(NBASE, 2.0)
    assert w.real == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert w.imag == pytest.approx(-math.sqrt(0.5), rel=1e-15)


def test_frequency_vanishes_for_coarse_measurement():
    w = complex_frequency(NBASE, 1e9)
    assert abs(w) == pytest.approx(2e-9, rel=1e-12)


def test_frequency_combined_params():
    params = PhysicalParams(m=2.0, g=0.0, hbar=1.0, tau_start=0.0, tau_end=2.0)
    w = complex_frequency(params, 1.0)
    assert w == pytest.approx(complex(math.sqrt(0.5), -math.sqrt(0.5)), rel=1e-15)


def test_frequency_branch_is_fourth_quadrant(rng):
    for _ in range(100):
        params = PhysicalParams(m=rng.uniform(0.1, 10), g=0.0, hbar=rng.uniform(0.1, 10),
                                tau_start=0.0, tau_end=rng.uniform(0.1, 10))
        w = complex_frequency(params, rng.uniform(0.05, 50))
        assert np.angle(w) == pytest.approx(-np.pi / 4.0, abs=1e-15)


def test_frequency_requires_positive_resolution():
    with pytest.raises(RpifError):
        complex_frequency(NBASE, 0.0)


# ---------------------------------------------------------------------------
# classical action limits
# ---------------------------------------------------------------------------

def test_free_particle_limit():
    scenario = make_scenario(g=0.0, z1=0.0, z2=1.0, delta_a=1e6,
                             a=ConstantFunction(0.0))
    s = classical_action(scenario.beam_a, scenario.frame_profile, scenario.params,
                         0.0, 1.0)
    assert s.real == pytest.approx(0.5, rel=1e-6)
    assert abs(s.imag) <= 1e-6


def test_linear_potential_limit_against_trajectory_oracle():
    scenario = make_scenario(g=1.0, z1=0.0, z2=1.0, delta_a=1e6,
                             a=ConstantFunction(0.0))
    s = classical_action(scenario.beam_a, scenario.frame_profile, scenario.params,
                         0.0, 1.0)
    oracle = linear_potential_action(m=1.0, g=1.0, T=1.0, z1=0.0, z2=1.0)
    assert oracle == pytest.approx(0.5 - 0.5 - 1.0 / 24.0, rel=1e-9)
    assert s.real == pytest.approx(oracle, rel=1e-6)
    assert abs(s.imag) <= 1e-6


def test_baseline_action_frozen_value():
    # cross-checked against the lattice stationary action, N=256..1024
    # Richardson extrapolated (see test_lattice), and the shooting oracle
    scenario = make_scenario()
    s = classical_action(scenario.beam_a, scenario.frame_profile,
                         scenario.params, 0.0, 0.5)
    assert s == pytest.approx(
        complex(-0.12802426110715723, 0.11861537743272015), rel=1e-9)


def test_on_path_action_oracle_baseline():
    scenario = make_scenario()
    beam = scenario.beam_a
    w = complex_frequency(scenario.params, beam.resolution)
    force = force_callable(beam, scenario.frame_profile, scenario.params)
    expected = bvp_on_path_action(w, lambda t: complex(force(t)), 1.0, 0.0, 1.0,
                                  0.0, 0.5)
    s = classical_action(beam, scenario.frame_profile, scenario.params, 0.0, 0.5)
    assert abs(s - expected) <= 1e-8 * abs(expected)


def test_on_path_action_oracle_random(rng):
    for _ in range(3):
        scenario = random_scenario(rng)
        beam = scenario.beam_a
        w = complex_frequency(scenario.params, beam.resolution)
        force = force_callable(beam, scenario.frame_profile, scenario.params)
        expected = bvp_on_path_action(w, lambda t: complex(force(t)), 1.0,
                                      0.0, 1.0, scenario.z1, scenario.z2)
        s = classical_action(beam, scenario.frame_profile, scenario.params,
                             scenario.z1, scenario.z2)
        assert abs(s - expected) <= 1e-8 * max(abs(expected), 1.0)


# ---------------------------------------------------------------------------
# the free-particle limit w = 0
# ---------------------------------------------------------------------------

def test_series_at_zero_frequency_free():
    kernels = action_kernels((0j,), 1, 1)
    # with w = 0 and no force the action is the free one
    assert kernels.b1[0] == pytest.approx(0.5, rel=1e-15)
    val = unsplit_action(kernels, lambda t: np.zeros_like(t, dtype=complex),
                         1.0, 0.0, 1.0, 0.0, 1.0)
    assert val == pytest.approx(0.5 + 0.0j, rel=1e-15)


def test_series_at_zero_frequency_linear_potential():
    kernels = action_kernels((0j,), 1, 1)
    val = unsplit_action(kernels, lambda t: -np.ones_like(t, dtype=complex),
                         1.0, 0.0, 1.0, 0.0, 1.0)
    oracle = linear_potential_action(m=1.0, g=1.0, T=1.0, z1=0.0, z2=1.0)
    assert val.real == pytest.approx(oracle, rel=1e-10)
    assert val.imag == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# scaling and guard
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_phase_scaling_invariance(lam):
    base = make_scenario()
    scaled = make_scenario(m=lam, hbar=lam)
    s0 = classical_action(base.beam_a, base.frame_profile, base.params, 0.0, 0.5)
    s1 = classical_action(scaled.beam_a, scaled.frame_profile, scaled.params, 0.0, 0.5)
    phase0 = s0 / base.params.hbar
    phase1 = s1 / scaled.params.hbar
    assert abs(phase0 - phase1) <= 1e-9 * abs(phase0)


def test_stability_guard_trips():
    scenario = make_scenario(delta_a=0.03)  # |wT| = 66.7 > 60
    with pytest.raises(StabilityError) as err:
        classical_action(scenario.beam_a, scenario.frame_profile, scenario.params,
                         0.0, 0.5)
    assert "0.03" in str(err.value)


def test_stability_guard_admits_below_limit():
    scenario = make_scenario(delta_a=0.04, a=ConstantFunction(0.0))  # |wT| = 50
    s = classical_action(scenario.beam_a, scenario.frame_profile, scenario.params,
                         0.0, 0.5)
    assert np.isfinite(s.real) and np.isfinite(s.imag)


@pytest.mark.parametrize("call", ["classical_action", "restricted_propagator"])
def test_a_library_call_runs_the_stability_guard_once(monkeypatch, call):
    # the guard runs where the beam enters the call, and its rows are
    # integrated without it
    from rpif import actions
    calls = []

    def counted(*args):
        calls.append(args)
        return ensure_stable(*args)
    monkeypatch.setattr(actions, "ensure_stable", counted)
    scenario = make_scenario()
    getattr(actions, call)(scenario.beam_a, scenario.frame_profile, scenario.params,
                           0.0, 0.5)
    assert [resolution for _, resolution in calls] == [scenario.beam_a.resolution]


@pytest.mark.parametrize("delta", [1e-200, 1e-161])
def test_a_resolution_whose_rate_overflows_trips_the_guard(delta):
    # delta^2 underflows to 0 (1e-200) or to a subnormal (1e-161), and
    # 4*hbar/(m*T*delta^2) is not finite: every entry point raises the
    # guard's StabilityError, never a ZeroDivisionError
    from rpif import decompose
    scenario = make_scenario(delta_a=delta)
    text = (f"stability guard tripped: resolution delta_c={delta:g} gives "
            f"|Im(wT)|*sqrt(2)=inf > 60")
    beam, f, p = scenario.beam_a, scenario.frame_profile, scenario.params
    for call in (lambda: complex_frequency(p, delta), lambda: ensure_stable(p, delta),
                 lambda: classical_action(beam, f, p, 0.0, 0.5),
                 lambda: restricted_propagator(beam, f, p, 0.0, 0.5),
                 lambda: decompose(scenario, "derived"),
                 lambda: decompose(scenario, "paper-literal")):
        with pytest.raises(StabilityError) as err:
            call()
        assert str(err.value) == text


def test_the_finest_resolution_whose_rate_is_finite_keeps_its_bits():
    # at delta = 1.5e-154, 4/delta^2 = 1.78e308 is still finite: w keeps the
    # bits of the root, and the guard trips on its finite size
    delta = 1.5e-154
    part = math.sqrt(4.0 / delta ** 2) / math.sqrt(2.0)
    assert complex_frequency(NBASE, delta) == complex(part, -part)
    with pytest.raises(StabilityError) as err:
        ensure_stable(NBASE, delta)
    assert math.isfinite(err.value.scale)


def test_non_finite_record_is_rejected():
    beam = BeamRecord(ConstantFunction(float("nan")), 1.0)
    with pytest.raises(RpifError, match="non-finite"):
        classical_action(beam, ConstantFunction(1.0), NBASE, 0.0, 0.5)


@pytest.mark.parametrize("g", [1e160, np.float64(1e160)], ids=["float", "numpy"])
@pytest.mark.parametrize("call", [classical_action, restricted_propagator])
def test_an_action_that_overflows_at_a_huge_g_fails_without_a_warning(call, g):
    # at g = 1e160 the g^2 block of the action overflows: the blocks are
    # Python complex numbers, also for a numpy g, so the action comes out
    # non-finite, with no numpy RuntimeWarning, and the call raises an
    # RpifError
    record = TabulatedFunction((0.0, 0.3, 0.7, 1.0), (0.1, 0.2, -0.1, 0.0))
    scenario = make_scenario(g=g, a=record, m=2.7, hbar=0.37)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RpifError, match="^classical_action: non-finite value"):
            call(scenario.beam_a, scenario.frame_profile, scenario.params,
                 scenario.z1, scenario.z2)


@pytest.mark.parametrize("value", [complex(float("inf"), 0.0), complex(0.0, float("nan")),
                                   float("nan"), np.complex128(complex(1.0, float("inf")))])
def test_finiteness_check_names_the_value_on_both_paths(value):
    # Python and numpy scalars
    from rpif.actions import _ensure_finite
    message = f"x: non-finite value {value!r}"
    with pytest.raises(RpifError) as scalar:
        _ensure_finite(value, "x")
    assert str(scalar.value) == message
    assert _ensure_finite(complex(1.0, -2.0), "x") == complex(1.0, -2.0)


# ---------------------------------------------------------------------------
# restricted propagator
# ---------------------------------------------------------------------------

def test_weight_norm_is_one_for_zero_record():
    scenario = make_scenario(a=ConstantFunction(0.0))
    prop = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                 scenario.params, 0.0, 0.5)
    assert prop.weight_norm_factor == 1.0


def test_far_record_amplitude_from_the_combined_exponent():
    # 25 resolutions out, each factor alone leaves the double range
    delta = 2.0 / 55.0
    scenario = make_scenario(a=ConstantFunction(25.0 * delta), delta_a=delta)
    prop = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                 scenario.params, 0.0, 0.5)
    assert prop.weight_norm_factor == 0.0
    assert math.isinf(prop.phase_magnitude)
    msq = (25.0 * delta) ** 2
    exponent = -2.0 * msq / delta ** 2 + 1j * prop.action
    assert prop.amplitude == pytest.approx(prop.prefactor * cmath.exp(exponent),
                                           rel=1e-12)
    assert 0.0 < abs(prop.amplitude) < 1e-15


@pytest.mark.parametrize("action", [(0.0, -1e4), (0.0, -math.inf), (math.nan, 0.0),
                                    (math.inf, 0.0)])
def test_non_finite_combined_exponent_names_the_beam(monkeypatch, action):
    # each beam in turn gets the action, the other 0: the point fails with
    # the amplitude's error, named after the beam
    nd = nondimensional(make_scenario())
    for label, pair in (("a", (complex(*action), 0j)), ("b", (0j, complex(*action)))):
        given = iter(pair)
        monkeypatch.setattr(interference, "classical_action",
                            lambda *args, blocks: next(given))
        [((error,), _)] = interference._evaluate([nd], (interference.MODE_DERIVED,))
        assert isinstance(error, RpifError)
        assert "restricted_propagator" in str(error)
        assert str(error).startswith(f"beam_{label}: ")
        assert "not finite" in str(error)


@pytest.mark.parametrize("value, delta", [(1e160, 1.0), (1e155, 1000.0)])
def test_a_record_near_the_double_range_fails_its_rows_without_a_warning(
        monkeypatch, value, delta):
    # 1e160 at resolution 1: every integrand value is finite, and the
    # triangle's sums overflow; 1e155 at 1000: the integrals converge and
    # <c^2> overflows.  The beam's rows fail with a QuadratureError, the
    # oracle with a LatticeError, and no numpy RuntimeWarning reaches the
    # caller (the suite makes one an error)
    scenario = make_scenario(a=ConstantFunction(value), delta_a=delta)
    beam, p = scenario.beam_a, scenario.params
    args = ((beam,), scenario.frame_profile, p)
    rows, = actions._batch_action_rows(*args)
    assert isinstance(rows, QuadratureError)
    assert str(rows) == "non-finite estimate over [0, 1]"
    with pytest.raises(QuadratureError):
        mean_square(beam.trajectory, p)
    with pytest.raises(QuadratureError):
        decompose(scenario)
    with pytest.raises(LatticeError):
        oracle_propagator(scenario, "a", (256, 512, 1024))
    # with <c^2> left out, the rows at 1e160 still fail, and those at 1000
    # do not
    monkeypatch.setattr(actions, "mean_square", lambda record, params: 0.0)
    rows, = actions._batch_action_rows(*args)
    assert isinstance(rows, QuadratureError) == (delta == 1.0)


def test_free_particle_propagator_limit():
    scenario = make_scenario(g=0.0, z1=0.0, z2=1.0, delta_a=1e6,
                             a=ConstantFunction(0.0))
    prop = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                 scenario.params, 0.0, 1.0)
    expect = np.sqrt(1.0 / (2j * np.pi)) * np.exp(0.5j)
    assert abs(prop.amplitude - expect) <= 1e-5 * abs(expect)


def test_component_product_identity(rng):
    for _ in range(100):
        scenario = random_scenario(rng)
        prop = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                     scenario.params, scenario.z1, scenario.z2)
        product = prop.weight_norm_factor * prop.prefactor * prop.phase_factor
        assert abs(prop.amplitude - product) <= 1e-12 * abs(prop.amplitude)


def test_phase_magnitude_diagnostic_recorded(rng):
    scenario = random_scenario(rng)
    prop = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                 scenario.params, scenario.z1, scenario.z2)
    assert prop.phase_magnitude == pytest.approx(
        math.exp(-prop.action.imag / scenario.params.hbar), rel=1e-12)
