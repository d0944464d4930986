import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpif import ValidationError, build_time_function
from rpif.timefunctions import (
    ConstantFunction,
    LinearFunction,
    PolynomialFunction,
    SinusoidFunction,
    TabulatedFunction,
)


def test_constant_everywhere():
    f = build_time_function({"kind": "constant", "value": 1.0})
    for t in (0.0, 0.3, 1.0):
        assert f(t) == 1.0


def test_linear_midpoint():
    f = build_time_function({"kind": "linear", "slope": 2.0, "intercept": 0.0})
    assert f(0.5) == 1.0


def test_tabulated_midpoint_interpolation():
    f = build_time_function({"kind": "tabulated", "times": [0.0, 1.0],
                             "values": [0.0, 2.0]})
    assert f(0.5) == 1.0


def test_evaluate_constant():
    assert ConstantFunction(3.0)(0.7) == 3.0


def test_evaluate_sinusoid_quarter_period():
    f = SinusoidFunction(amplitude=1.0, omega=2.0 * np.pi, phase=0.0)
    assert f(0.25) == pytest.approx(1.0, abs=1e-15)


def test_evaluate_polynomial():
    f = PolynomialFunction((0.0, 0.0, 1.0))
    assert f(3.0) == 9.0


def test_evaluate_is_deterministic():
    f = PolynomialFunction((0.2, -0.9, 0.4, 1.1))
    t = np.linspace(0.0, 1.0, 37)
    first = f(t)
    second = f(t)
    np.testing.assert_array_equal(first, second)


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="unknown kind"):
        build_time_function({"kind": "spline", "value": 1.0})


@pytest.mark.parametrize("kind", [["constant"], None])
def test_a_kind_that_is_not_a_string_is_rejected(kind):
    with pytest.raises(ValidationError, match="unknown kind"):
        build_time_function({"kind": kind})


def test_tabulated_not_increasing_rejected():
    with pytest.raises(ValidationError, match="strictly increasing"):
        build_time_function({"kind": "tabulated", "times": [0.0, 0.5, 0.5],
                             "values": [1.0, 2.0, 3.0]})


def test_domain_check_slack_edges_and_empty_input():
    # a time function evaluates at any time, and on an empty array returns
    # an empty array
    f = LinearFunction(2.0, 1.0)
    outside = np.array([-0.5, 0.5, 1.5])
    assert np.array_equal(f(outside), 2.0 * outside + 1.0)
    empty = f(np.empty(0))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_array_evaluation_shape():
    f = LinearFunction(1.0, 0.0)
    t = np.linspace(0.0, 1.0, 11).reshape(11, 1)
    out = f(t)
    assert out.shape == (11, 1)


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8, unique=True),
       st.lists(st.floats(-3, 3), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_tabulated_reproduces_samples_exactly(times, values):
    times = sorted(times)
    values = values[:len(times)]
    f = TabulatedFunction(tuple(times), tuple(values))
    for t, v in zip(times, values):
        assert f(t) == v


@pytest.mark.parametrize("spec", [
    {"kind": "constant", "value": 0.7},
    {"kind": "linear", "slope": -1.3, "intercept": 0.4},
    {"kind": "sinusoid", "amplitude": 0.8, "omega": 5.0, "phase": 0.3},
    {"kind": "polynomial", "coefficients": [0.1, -0.2, 0.5, 1.0]},
    {"kind": "tabulated", "times": [1.0, 1.7, 2.4, 3.0], "values": [0.0, 1.0, -1.0, 0.5]},
])
def test_rescaled_matches_composition(spec):
    # g(u) = scale * f(origin + width * u) must hold pointwise
    origin, width, scale = 1.0, 2.0, 0.25
    f = build_time_function(spec)
    g = f.rescaled(origin, width, scale)
    for u in np.linspace(0.0, 1.0, 17):
        assert g(u) == pytest.approx(scale * f(origin + width * u),
                                     rel=1e-12, abs=1e-12)


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
                min_size=1, max_size=6),
       st.floats(0.1, 10.0))
@settings(max_examples=80, deadline=None)
def test_polynomial_rescaled_by_the_identity_map_keeps_the_composed_bits(coefs, scale):
    # an m_over_hbar_scale sweep rescales values only (origin 0, scale 1);
    # skipping the composition must keep its bits, trailing zeros and -0.0
    # included
    composed = np.polynomial.Polynomial(np.asarray(coefs))(
        np.polynomial.Polynomial([0.0, 1.0]))
    want = tuple(float(c) * scale for c in composed.coef)
    got = PolynomialFunction(tuple(coefs)).rescaled(0.0, 1.0, scale)
    assert np.array(got.coefficients).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("spec", [
    {"kind": "constant", "value": 0.7},
    {"kind": "linear", "slope": -1.3, "intercept": 0.4},
    {"kind": "sinusoid", "amplitude": 0.8, "omega": 5.0, "phase": 0.3},
    {"kind": "polynomial", "coefficients": [0.1, -0.2, 0.5, 1.0]},
])
def test_smooth_kinds_have_no_breakpoints(spec):
    f = build_time_function(spec)
    assert f.breakpoints == ()
    assert f.rescaled(1.0, 2.0, 0.25).breakpoints == ()


def test_tabulated_breakpoints_are_the_interior_samples_through_every_rescaling():
    from rpif.scenario import BeamRecord, PhysicalParams, Scenario
    f = TabulatedFunction((1.0, 1.7, 2.4, 3.0), (0.0, 1.0, -1.0, 0.5))
    assert f.breakpoints == (1.7, 2.4)
    g = f.rescaled(1.0, 2.0, 0.25)
    assert g.breakpoints == pytest.approx((0.35, 0.7), abs=1e-15)
    scenario = Scenario(PhysicalParams(2.0, 1.0, 0.5, 1.0, 3.0), 0.0, 0.5, f,
                        BeamRecord(f, 1.0), BeamRecord(ConstantFunction(0.0), 1.0))
    nd = scenario.nondimensionalized()
    assert nd.frame_profile.breakpoints == g.breakpoints
    assert nd.beam_a.trajectory.breakpoints == g.breakpoints
    assert nd.beam_b.trajectory.breakpoints == ()


def test_polynomial_coefficients_required():
    with pytest.raises(ValidationError, match="coefficients"):
        build_time_function({"kind": "polynomial"})


def test_tabulated_length_mismatch():
    with pytest.raises(ValidationError, match="length"):
        build_time_function({"kind": "tabulated", "times": [0, 1, 2],
                             "values": [0, 1]})


@pytest.mark.parametrize("fn", [
    LinearFunction(2.0, 1.0),
    TabulatedFunction((0.0, 0.4, 1.0), (1.0, -1.0, 0.5)),
    ConstantFunction(0.7),
    SinusoidFunction(0.8, 5.0, 0.3),
    PolynomialFunction((0.1, -0.2, 0.5, 1.0)),
])
def test_a_sampler_checks_its_window_once_and_keeps_the_bits_of_a_call(fn):
    sample = fn.sampler()
    t = np.linspace(0.0, 1.0, 37)
    assert sample(t).tobytes() == fn(t).tobytes()
