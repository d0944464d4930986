import cmath
import math

import numpy as np
import pytest

from rpif import (
    RpifError,
    StabilityError,
    classical_action,
    complex_frequency,
    quadrature,
    restricted_propagator,
)
from rpif.actions import (
    _force_rows,
    _prefactor,
    action_kernels,
    ensure_stable,
)
from rpif.interference import _named_amplitude
from sampling import random_scenario
from rpif.scenario import BeamRecord, PhysicalParams
from rpif.timefunctions import ConstantFunction
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
# driving force
# ---------------------------------------------------------------------------

def _force(beam, frame_profile, params, t):
    """F(t) = g*F_f(t) + F_c(t) from the package's g-split force rows."""
    forces = _force_rows(quadrature.Samples([beam.trajectory]), (beam.resolution,),
                         frame_profile, params)
    f_part, c_part = forces(np.array([t]), 0)[:, 0]
    return params.g * f_part + c_part


def test_force_vanishes_without_sources():
    beam = BeamRecord(ConstantFunction(0.0), 1.0)
    val = _force(beam, ConstantFunction(0.0), NBASE, 0.5)
    assert val == 0.0 + 0.0j


def test_force_gravity_only():
    beam = BeamRecord(ConstantFunction(0.0), 1.0)
    val = _force(beam, ConstantFunction(1.0), NBASE, 0.5)
    assert val == pytest.approx(-1.0 + 0.0j, abs=1e-15)


def test_force_record_only():
    beam = BeamRecord(ConstantFunction(1.0), 2.0)
    params = PhysicalParams(m=1.0, g=1.0, hbar=1.0, tau_start=0.0, tau_end=1.0)
    val = _force(beam, ConstantFunction(0.0), params, 0.5)
    assert val == pytest.approx(0.0 - 1.0j, abs=1e-15)


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


def test_non_finite_record_is_rejected():
    beam = BeamRecord(ConstantFunction(float("nan")), 1.0)
    with pytest.raises(RpifError, match="non-finite"):
        classical_action(beam, ConstantFunction(1.0), NBASE, 0.0, 0.5)


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
def test_non_finite_combined_exponent_names_the_beam(action):
    scenario = make_scenario()
    beam, p = scenario.beam_a, scenario.params
    prefactor = _prefactor(ensure_stable(p, beam.resolution), p)
    with pytest.raises(RpifError, match="restricted_propagator") as info:
        _named_amplitude("a", beam, prefactor, -2.0 * 0.01 / beam.resolution ** 2,
                         complex(*action), p.hbar)
    assert str(info.value).startswith("beam_a: ")
    assert "not finite" in str(info.value)


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
