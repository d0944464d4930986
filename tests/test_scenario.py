import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpif import (
    BeamRecord,
    PhysicalParams,
    Scenario,
    ValidationError,
    compare_modes,
    decompose,
    mean_square,
    run_sweep,
    scenario_from_dict,
    validate_scenario,
)
from rpif.sweep import SweepSpec
from rpif.timefunctions import (
    ConstantFunction,
    LinearFunction,
    PolynomialFunction,
    SinusoidFunction,
    TabulatedFunction,
)
from util import NBASE, make_scenario, swapped


def test_mean_square_zero():
    assert mean_square(ConstantFunction(0.0), NBASE) == 0.0


def test_mean_square_constant():
    assert mean_square(ConstantFunction(2.5), NBASE) == pytest.approx(6.25, rel=1e-12)


def test_mean_square_ramp_is_one_third():
    assert mean_square(LinearFunction(1.0, 0.0), NBASE) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_mean_square_sign_flip_invariance():
    f = PolynomialFunction((0.3, -1.2, 0.7))
    flipped = PolynomialFunction((-0.3, 1.2, -0.7))
    assert mean_square(f, NBASE) == pytest.approx(mean_square(flipped, NBASE), rel=1e-12)


@pytest.mark.parametrize("lam", [2.0, 10.0])
def test_mean_square_quadratic_scaling(lam):
    f = PolynomialFunction((0.5, 0.2, -0.8, 0.1))
    scaled = PolynomialFunction(tuple(lam * c for c in f.coefficients))
    assert mean_square(scaled, NBASE) == pytest.approx(
        lam * lam * mean_square(f, NBASE), rel=1e-12)


@given(st.lists(st.floats(-2, 2), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_mean_square_nonnegative(coefs):
    assert mean_square(PolynomialFunction(tuple(coefs)), NBASE) >= 0.0


def test_validate_accepts_baseline():
    scenario = make_scenario()
    assert validate_scenario(scenario) is scenario


def test_validate_rejects_zero_resolution():
    with pytest.raises(ValidationError) as err:
        make_scenario(delta_a=0.0)
    assert any("beam_a.resolution" in v for v in err.value.violations)


def test_validate_rejects_reversed_time():
    with pytest.raises(ValidationError) as err:
        make_scenario(tau_start=1.0, tau_end=0.5)
    assert any("time ordering" in v for v in err.value.violations)


def test_validate_lists_every_violation():
    params = PhysicalParams(m=-1.0, g=-2.0, hbar=1.0, tau_start=0.0, tau_end=1.0)
    bad = Scenario(params=params, z1=0.0, z2=float("nan"),
                   frame_profile=ConstantFunction(1.0),
                   beam_a=BeamRecord(ConstantFunction(0.0), -1.0),
                   beam_b=BeamRecord(ConstantFunction(0.0), 2.0))
    with pytest.raises(ValidationError) as err:
        validate_scenario(bad)
    text = "\n".join(err.value.violations)
    for field in ("params.m", "params.g", "z2", "beam_a.resolution"):
        assert field in text
    assert len(err.value.violations) >= 4


UNITS_TEXT = ("params: the internal units cannot be formed, need sqrt(hbar*T/m) and "
              "sqrt(m*T^3/hbar) positive and finite")


@pytest.mark.parametrize("params, scales", [
    # T^3 overflows
    ({"tau_end": 1e300}, "(got 1e+150 and inf)"),
    # hbar*T/m underflows to 0, and so does m*T^3/hbar
    ({"m": 1e30, "tau_end": 1e-300}, "(got 0.0 and 0.0)"),
])
def test_params_whose_internal_units_cannot_be_formed_are_refused(params, scales):
    # one violation under params, at /params in a config, and decompose
    # raises it rather than dividing by 0 or overflowing
    from rpif import ConfigError, decompose, parse_config
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"params": params}))
    assert err.value.violations == [f"/{UNITS_TEXT} {scales}"]
    defaults = {"m": 1.0, "g": 1.0, "hbar": 1.0, "tau_start": 0.0, "tau_end": 1.0}
    scenario = make_scenario()
    scenario = Scenario(PhysicalParams(**{**defaults, **params}), scenario.z1, scenario.z2,
                        scenario.frame_profile, scenario.beam_a, scenario.beam_b)
    with pytest.raises(ValidationError) as err:
        decompose(scenario)
    assert err.value.violations == [f"{UNITS_TEXT} {scales}"]


@pytest.mark.parametrize("field, functions", [
    ("frame_profile", {"f": LinearFunction(1e308, 0.0)}),          # slope*T
    ("beam_a.trajectory", {"a": SinusoidFunction(1.0, 1e308)}),    # omega*T
    # its composition with t = 1 + T*u overflows in numpy's polynomial sums
    ("beam_b.trajectory", {"b": PolynomialFunction((1e300, 1e308, 1e308))}),
    ("beam_b.trajectory", {"b": ConstantFunction(1e308), "m": 1e14}),  # c/sqrt(hbar*T/m)
])
def test_validate_refuses_a_function_that_overflows_in_internal_units(field, functions):
    # each field is finite as given; in internal units one is not, which
    # is one violation at its function, with no numpy warning
    with pytest.raises(ValidationError) as err:
        make_scenario(tau_start=1.0, tau_end=1e10, **functions)
    assert err.value.violations == [
        f"{field}: not every field is finite in internal units (time in units of "
        f"tau_end - tau_start, lengths in sqrt(hbar*T/m))"]


def test_validate_rejects_uncovering_table():
    table = TabulatedFunction((0.2, 0.8), (0.0, 1.0))
    with pytest.raises(ValidationError) as err:
        make_scenario(a=table)
    assert any("beam_a.trajectory" in v for v in err.value.violations)


NOT_INCREASING = "beam_a.trajectory/times: sample times must be strictly increasing"


@pytest.mark.parametrize("times, values, violations", [
    # np.interp would read unsorted or repeated times without a word
    pytest.param((0, 0.7, 0.3, 1), (0.1, 0.2, 0.3, 0.4), [NOT_INCREASING], id="unsorted"),
    pytest.param((0.0, 0.5, 0.5, 1.0), (0.1, 0.2, 0.3, 0.4), [NOT_INCREASING],
                 id="repeated"),
    pytest.param((0.0, 0.5, 1.0), (0.1, 0.2),
                 ["beam_a.trajectory/values: length 2 does not match times (3)"],
                 id="lengths"),
    pytest.param((), (), ["beam_a.trajectory/times: expected an array of at least 2 samples",
                          "beam_a.trajectory/values: expected an array of at least 2 samples"],
                 id="empty"),
])
def test_a_table_built_in_code_is_checked_before_it_is_used(times, values, violations):
    # as a config's table is: by validation, and by every evaluation, which
    # validates its scenario first
    with pytest.raises(ValidationError) as err:
        make_scenario(a=TabulatedFunction(times, values))
    assert err.value.violations == violations
    beam = BeamRecord(TabulatedFunction(times, values), 1.0)
    scenario = dataclasses.replace(make_scenario(), beam_a=beam)
    for evaluate in (decompose, compare_modes):
        with pytest.raises(ValidationError) as err:
            evaluate(scenario)
        assert err.value.violations == violations
    spec = SweepSpec(parameter="z2", start=0.0, stop=1.0, steps=2, mode="both")
    assert {row.error for row in run_sweep(scenario, spec)} == {
        f"ValidationError: {'; '.join(violations)}"}


@pytest.mark.parametrize("params", [{}, {"m": 2.0, "tau_end": 3.0}], ids=["unit", "rescaled"])
def test_a_polynomial_with_no_coefficients_built_in_code_is_refused(params):
    # as a config's "coefficients": [] is, at its path; polyval would end in
    # IndexError, and rescaling in numpy's ValueError
    violations = ["frame_profile/coefficients: expected a nonempty array"]
    scenario = make_scenario(**params)
    scenario = dataclasses.replace(scenario, frame_profile=PolynomialFunction(()))
    with pytest.raises(ValidationError) as err:
        validate_scenario(scenario)
    assert err.value.violations == violations
    with pytest.raises(ValidationError) as err:
        decompose(scenario)
    assert err.value.violations == violations
    with pytest.raises(ValidationError) as err:
        scenario_from_dict({"frame_profile": {"kind": "polynomial", "coefficients": []}})
    assert err.value.violations == ["/frame_profile/coefficients: expected a nonempty array"]


def test_sequence_fields_are_stored_as_tuples_of_floats():
    # a list or an array from a library caller gives the function a config
    # builds, which hashes and evaluates alike
    table = TabulatedFunction([0, 0.4, 1], np.array([0.1, -0.2, 0.3]))
    poly = PolynomialFunction([0.1, np.float64(0.2), 1])
    assert table == TabulatedFunction((0.0, 0.4, 1.0), (0.1, -0.2, 0.3))
    assert poly == PolynomialFunction((0.1, 0.2, 1.0))
    for fn in (table, poly):
        for field in dataclasses.fields(fn):
            value = getattr(fn, field.name)
            assert type(value) is tuple and all(type(v) is float for v in value)
    listed = make_scenario(a=table, b=poly)
    assert decompose(listed) == decompose(make_scenario(
        a=TabulatedFunction((0.0, 0.4, 1.0), (0.1, -0.2, 0.3)),
        b=PolynomialFunction((0.1, 0.2, 1.0))))


def test_nondimensional_scenario_is_fixed_point():
    scenario = make_scenario()
    assert scenario.nondimensionalized() is scenario


def test_nondimensionalization_scales():
    hbar = 1.054e-34
    m = 1.675e-27
    tau0, tau1 = 2.0, 6.0
    T = tau1 - tau0
    L = np.sqrt(hbar * T / m)
    scenario = make_scenario(m=m, g=9.8, hbar=hbar, tau_start=tau0, tau_end=tau1,
                             z1=0.0, z2=3.0 * L, delta_a=2.0 * L, delta_b=L)
    nd = scenario.nondimensionalized()
    assert nd.params.m == 1.0 and nd.params.hbar == 1.0
    assert nd.params.tau_start == 0.0 and nd.params.tau_end == 1.0
    assert nd.params.g == pytest.approx(9.8 * np.sqrt(m * T ** 3 / hbar), rel=1e-12)
    assert nd.z2 == pytest.approx(3.0, rel=1e-12)
    assert nd.beam_a.resolution == pytest.approx(2.0, rel=1e-12)
    assert nd.beam_b.resolution == pytest.approx(1.0, rel=1e-12)


def test_nondimensionalization_recomposes_time_functions():
    tau0, tau1 = 1.0, 3.0
    f = SinusoidFunction(0.5, 2.0, 0.1)
    a = PolynomialFunction((0.1, -0.3, 0.2))
    scenario = make_scenario(m=2.0, tau_start=tau0, tau_end=tau1, f=f, a=a)
    nd = scenario.nondimensionalized()
    L = scenario.params.length_scale
    T = tau1 - tau0
    for u in np.linspace(0.0, 1.0, 9):
        t = tau0 + T * u
        assert nd.frame_profile(u) == pytest.approx(f(t), rel=1e-12, abs=1e-15)
        assert nd.beam_a.trajectory(u) == pytest.approx(a(t) / L, rel=1e-12, abs=1e-15)


def test_swapped_exchanges_beams():
    scenario = make_scenario()
    exchanged = swapped(scenario)
    assert exchanged.beam_a is scenario.beam_b
    assert exchanged.beam_b is scenario.beam_a


def test_a_beam_label_other_than_a_or_b_is_refused():
    scenario = make_scenario()
    assert scenario.beam("a") is scenario.beam_a and scenario.beam("b") is scenario.beam_b
    with pytest.raises(ValueError, match="^beam label must be 'a' or 'b', got 'c'$"):
        scenario.beam("c")
