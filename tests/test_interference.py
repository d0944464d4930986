import cmath
import math

import numpy as np
import pytest

from rpif import (
    MODE_DERIVED,
    MODE_LITERAL,
    RpifError,
    decompose,
)
from rpif import actions, quadrature
from rpif.actions import ensure_stable
from rpif.interference import _paper_angle, _printed
from rpif.scenario import nondimensional
from sampling import random_scenario
from rpif.timefunctions import (ConstantFunction, LinearFunction, PolynomialFunction,
                               SinusoidFunction, TabulatedFunction)
from util import lattice_values, make_scenario, printed_terms


def _theta_derived(delta, m=1.0, hbar=1.0, T=1.0):
    return math.sqrt(2.0 * hbar * T / (m * delta * delta))


# ---------------------------------------------------------------------------
# the angles of the two modes
# ---------------------------------------------------------------------------

def _angles(scenario, mode):
    """theta and rho, the angles of beams a and b in internal units: the
    printed angle in the literal mode, |Re(wT)| in the derived mode."""
    nd = nondimensional(scenario)
    p = nd.params
    deltas = (nd.beam_a.resolution, nd.beam_b.resolution)
    if mode == MODE_LITERAL:
        return tuple(_paper_angle(p, delta) for delta in deltas)
    return tuple(abs((ensure_stable(p, delta) * p.duration).real) for delta in deltas)


def test_theta_unit_value():
    scenario = make_scenario(delta_a=math.sqrt(2.0 * math.pi))
    theta, _ = _angles(scenario, MODE_LITERAL)
    assert theta == pytest.approx(1.0, rel=1e-12)


def test_theta_at_unit_resolution():
    scenario = make_scenario(delta_a=1.0)
    theta, _ = _angles(scenario, MODE_LITERAL)
    assert theta == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)


def test_theta_vanishes_for_coarse_measurement():
    scenario = make_scenario(delta_a=1e8)
    theta, _ = _angles(scenario, MODE_LITERAL)
    assert theta < 1e-7


def test_literal_decompose_refuses_a_printed_denominator_of_zero():
    # at delta = 1e10 theta is 2.5e-10 and the printed denom rounds to 0;
    # the derived mode has no such denominator
    scenario = make_scenario(delta_a=1e10)
    with pytest.raises(RpifError, match="printed denominator .* resolution 1e\\+10"):
        decompose(scenario, MODE_LITERAL)
    assert math.isfinite(decompose(scenario, MODE_DERIVED).i5)


def test_derived_theta_is_re_wt():
    scenario = make_scenario(delta_a=1.0, delta_b=2.0)
    theta, rho = _angles(scenario, MODE_DERIVED)
    assert theta == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert rho == pytest.approx(math.sqrt(0.5), rel=1e-12)
    lit_theta, _ = _angles(scenario, MODE_LITERAL)
    assert lit_theta / theta == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_unknown_mode_rejected():
    with pytest.raises(RpifError, match="mode"):
        decompose(make_scenario(), "approximate")


@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_DERIVED])
def test_terms_respect_stability_guard(mode):
    from rpif import StabilityError
    scenario = make_scenario(delta_a=0.03)
    with pytest.raises(StabilityError):
        decompose(scenario, mode).i1


# ---------------------------------------------------------------------------
# i1, i2: endpoint-quadratic terms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_DERIVED])
def test_i1_zero_for_equal_resolutions(mode):
    scenario = make_scenario(delta_a=1.3, delta_b=1.3,
                             a=ConstantFunction(0.1), b=ConstantFunction(0.1))
    assert abs(decompose(scenario, mode).i1) <= 1e-15


@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_DERIVED])
def test_i1_zero_for_zero_endpoints(mode):
    scenario = make_scenario(z1=0.0, z2=0.0)
    assert decompose(scenario, mode).i1 == 0.0


def _i1_highprec(theta_of_delta, z1, z2, da, db):
    """50-digit evaluation of the printed i1 closed form."""
    import mpmath as mp
    with mp.workdps(50):
        def bracket(x):
            return (1 - mp.e ** (-4 * x) + 2 * mp.e ** (-2 * x) * mp.sin(2 * x)) / \
                   (1 + mp.e ** (-4 * x) - 2 * mp.e ** (-2 * x) * mp.cos(2 * x))

        val = ((z1 ** 2 + z2 ** 2) * mp.sqrt(mp.mpf(1) / 2)
               * (bracket(theta_of_delta(da)) / da - bracket(theta_of_delta(db)) / db))
        return float(val)


def test_i1_frozen_values():
    # frozen from the 50-digit oracle below, m=hbar=T=1, z1=0, z2=1, da=1, db=2
    import mpmath as mp
    scenario = make_scenario(z1=0.0, z2=1.0, a=ConstantFunction(0.0),
                             b=ConstantFunction(0.0))
    lit = _i1_highprec(lambda d: mp.sqrt(2 * mp.pi / d ** 2), 0.0, 1.0, 1.0, 2.0)
    der = _i1_highprec(lambda d: mp.sqrt(mp.mpf(2) / d ** 2), 0.0, 1.0, 1.0, 2.0)
    assert lit == pytest.approx(0.36214293480420017176, rel=1e-15)
    assert der == pytest.approx(0.14348893638461450825, rel=1e-15)
    assert decompose(scenario, MODE_LITERAL).i1 == pytest.approx(lit, rel=1e-12)
    assert decompose(scenario, MODE_DERIVED).i1 == pytest.approx(der, rel=1e-11)


def test_i1_derived_matches_closed_bracket_form():
    # independent algebra route: the printed bracket evaluated at the
    # angle |Re(wT)| must reproduce the action-block value
    scenario = make_scenario(z1=0.2, z2=0.9, delta_a=0.8, delta_b=2.5)

    def bracket(x):
        return (1 - math.exp(-4 * x) + 2 * math.exp(-2 * x) * math.sin(2 * x)) / \
               (1 + math.exp(-4 * x) - 2 * math.exp(-2 * x) * math.cos(2 * x))

    expect = (0.2 ** 2 + 0.9 ** 2) * math.sqrt(0.5) * (
        bracket(_theta_derived(0.8)) / 0.8 - bracket(_theta_derived(2.5)) / 2.5)
    assert decompose(scenario, MODE_DERIVED).i1 == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_DERIVED])
def test_i2_zero_when_z1_zero(mode):
    assert decompose(make_scenario(z1=0.0), mode).i2 == 0.0


@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_DERIVED])
def test_i2_zero_for_equal_resolutions(mode):
    scenario = make_scenario(z1=0.3, z2=0.7, delta_a=1.1, delta_b=1.1)
    assert abs(decompose(scenario, mode).i2) <= 1e-15


def test_i2_frozen_literal_value():
    scenario = make_scenario(z1=0.3, z2=0.5, a=ConstantFunction(0.0),
                             b=ConstantFunction(0.0))
    assert decompose(scenario, MODE_LITERAL).i2 == pytest.approx(
        0.076996830170677466526, rel=1e-12)


def test_i2_derived_matches_closed_bracket_form():
    scenario = make_scenario(z1=0.3, z2=0.5, delta_a=1.0, delta_b=2.0)

    def bracket(x):
        e2 = math.exp(-2 * x)
        den = math.exp(x) * (1 + math.exp(-4 * x) - 2 * e2 * math.cos(2 * x))
        return ((1 - e2) * math.cos(x) + (1 + e2) * math.sin(x)) / den

    expect = -math.sqrt(8.0) * 0.3 * 0.5 * (
        bracket(_theta_derived(1.0)) / 1.0 - bracket(_theta_derived(2.0)) / 2.0)
    assert decompose(scenario, MODE_DERIVED).i2 == pytest.approx(expect, rel=1e-10)


# ---------------------------------------------------------------------------
# i3, i4: endpoint-linear terms, checked against finite differences of the
# action difference (exact for a quadratic function of the endpoints)
# ---------------------------------------------------------------------------

def _linear_coefficient(scenario, which: str, delta=0.25):
    """Coefficient of the monomial z1 (or z2) in the action difference.

    The action difference is quadratic in the endpoints, so a centered
    difference with the other endpoint at zero isolates the linear
    coefficient exactly: the even quadratic part cancels and the cross
    term vanishes.
    """
    import dataclasses
    if which == "z1":
        hi = dataclasses.replace(scenario, z1=+delta, z2=0.0)
        lo = dataclasses.replace(scenario, z1=-delta, z2=0.0)
    else:
        hi = dataclasses.replace(scenario, z1=0.0, z2=+delta)
        lo = dataclasses.replace(scenario, z1=0.0, z2=-delta)
    return (decompose(hi).phase_difference - decompose(lo).phase_difference) / (2.0 * delta)


@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_DERIVED])
def test_i3_zero_when_z1_zero(mode):
    assert decompose(make_scenario(z1=0.0), mode).i3 == 0.0


@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_DERIVED])
def test_i3_i4_zero_without_sources(mode):
    scenario = make_scenario(f=ConstantFunction(0.0), a=ConstantFunction(0.0),
                             b=ConstantFunction(0.0), z1=0.4, z2=0.9)
    assert abs(decompose(scenario, mode).i3) <= 1e-15
    assert abs(decompose(scenario, mode).i4) <= 1e-15


def test_i3_derived_is_z1_linear_part_of_phase_difference():
    scenario = make_scenario(z1=0.3, z2=0.5)
    coeff = _linear_coefficient(scenario, "z1")
    assert decompose(scenario, MODE_DERIVED).i3 == pytest.approx(
        scenario.z1 * coeff, rel=1e-8)


@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_DERIVED])
def test_i4_zero_when_z2_zero(mode):
    assert decompose(make_scenario(z2=0.0), mode).i4 == 0.0


def test_i4_derived_is_z2_linear_part_of_phase_difference():
    scenario = make_scenario(z1=0.3, z2=0.5)
    coeff = _linear_coefficient(scenario, "z2")
    assert decompose(scenario, MODE_DERIVED).i4 == pytest.approx(
        scenario.z2 * coeff, rel=1e-8)


# ---------------------------------------------------------------------------
# i5: endpoint-free term
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_DERIVED])
def test_i5_zero_without_sources(mode):
    scenario = make_scenario(f=ConstantFunction(0.0), a=ConstantFunction(0.0),
                             b=ConstantFunction(0.0))
    assert abs(decompose(scenario, mode).i5) <= 1e-15


@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_DERIVED])
def test_i5_cancels_for_identical_beams(mode):
    scenario = make_scenario(delta_a=1.5, delta_b=1.5,
                             a=PolynomialFunction((0.1, 0.3)),
                             b=PolynomialFunction((0.1, 0.3)))
    assert decompose(scenario, mode).i5 == 0.0


def test_i5_derived_is_endpoint_free_part():
    import dataclasses
    scenario = make_scenario(z1=0.3, z2=0.5)
    at_origin = dataclasses.replace(scenario, z1=0.0, z2=0.0)
    assert decompose(scenario, MODE_DERIVED).i5 == pytest.approx(
        decompose(at_origin).phase_difference, rel=1e-8)


# ---------------------------------------------------------------------------
# transcription check: the printed formulas evaluated at the derived angle
# reproduce the action-grouping for the first four terms (the printed i5
# differs structurally; its discrepancy is what the mode comparison reports)
# ---------------------------------------------------------------------------

def test_literal_forms_at_derived_angle_match_action_grouping():
    scenario = make_scenario(z1=0.3, z2=0.5,
                             a=PolynomialFunction((0.1, -0.2, 0.05)),
                             b=PolynomialFunction((-0.1, 0.15)))
    nd = nondimensional(scenario)
    theta_d = _theta_derived(nd.beam_a.resolution)
    rho_d = _theta_derived(nd.beam_b.resolution)
    lit = printed_terms(nd, theta_d, rho_d)
    br = decompose(scenario, MODE_DERIVED)
    der = (br.i1, br.i2, br.i3, br.i4)
    for k in range(4):
        assert lit[k] == pytest.approx(der[k], rel=1e-9, abs=1e-12)


def test_printed_i1_to_i4_are_the_derived_terms_at_re_wt():
    # on 50 random scenarios the printed i1..i4 with theta = |Re(wT)| equal
    # the derived terms to quadrature accuracy (i1 and i2 are closed forms;
    # i3 and i4 are read off the same action rows, with a weight that is 1
    # at that angle up to rounding), and with the printed angle, sqrt(pi)
    # larger, differ from them by over a tenth of the row's largest term
    for seed in range(50):
        scenario = random_scenario(np.random.default_rng(seed))
        nd = nondimensional(scenario)
        br = decompose(scenario, MODE_DERIVED)
        derived = (br.i1, br.i2, br.i3, br.i4)
        largest = max(map(abs, derived + (br.i5,)))

        def gap(mode):
            printed = printed_terms(nd, *_angles(scenario, mode))[:4]
            return max(abs(x - y) for x, y in zip(printed, derived))
        assert gap(MODE_DERIVED) <= 10 * quadrature.DEFAULT_RTOL * largest, seed
        assert gap(MODE_LITERAL) > 0.1 * largest, seed


# the printed i3/i4 integrands are e^x (1 + e^{-2x}) sin x = 2 Re sin(wu)
# and e^x (1 - e^{-2x}) cos x = -2 Im sin(wu) at x = q*u, w = q*(1 - i): so
# their single integrals are the action's q1 and q2 rows times sin(wT), and
# the package reads the printed i3/i4 off those rows


def _printed_line_rows(beam, f, p):
    """One beam's printed i3/i4 single integrals, integrated as printed,
    indexed [anchor (end, start), integral (sin, cos), part (f, c)]: with
    x = q*(t - anchor), q = omega/sqrt(2), the printed pair is

        j_sin = Int e^x [omega^2 c sin x (1 + e^{-2x}) - g f cos x (1 - e^{-2x})]
        j_cos = Int e^x [omega^2 c cos x (1 - e^{-2x}) + g f sin x (1 + e^{-2x})],

    each split into its f and c parts, without the g and the sign of the
    f part."""
    t0, t1 = p.tau_start, p.tau_end
    coef = 4.0 * p.hbar / (p.m * p.duration * beam.resolution ** 2)
    q = math.sqrt(coef) / math.sqrt(2.0)

    def line(t):
        x = q * np.stack((t - t1, t - t0))
        # e^x (1 + e^{-2x}) sin x and e^x (1 - e^{-2x}) cos x, through
        # cosh and sinh: accurate near x = 0, where a coarse measurement's
        # theta prefactors cancel to O(theta^2)
        plus, minus = 2.0 * np.cosh(x) * np.sin(x), 2.0 * np.sinh(x) * np.cos(x)
        fv, cv = f(t), coef * beam.trajectory(t)
        return np.stack((np.stack((fv * minus, cv * plus), axis=-2),
                         np.stack((fv * plus, cv * minus), axis=-2)), axis=-3)

    breaks = f.breakpoints + beam.trajectory.breakpoints
    return quadrature.integrate(line, t0, t1, breaks=breaks).real


def _scaled_action_rows(beam, f, p):
    """The same rows from the action's q1 (end) and q2 (start) rows, with
    F_f = -m f and F_c = -i m omega^2 c: sin(wT)*q1_f = (m/2)(cos_f - i sin_f),
    sin(wT)*q1_c = (m/2)(cos_c + i sin_c), and q2 the same with the sign
    flipped."""
    rows = actions._beam_rows(beam, f, p)
    sin_wt = cmath.sin(actions.complex_frequency(p, beam.resolution) * p.duration)

    def anchored(q_f, q_c, sign):
        z_f, z_c = (sign * 2.0 / p.m * sin_wt * q for q in (q_f, q_c))
        return [[-z_f.imag, z_c.imag], [z_f.real, z_c.real]]
    return np.array([anchored(rows.q1_f, rows.q1_c, 1.0),
                     anchored(rows.q2_f, rows.q2_c, -1.0)])


def test_printed_line_integrals_are_the_scaled_action_rows():
    # 20 random beams (|wT| from 0.5 to 4), and a tabulated record and an
    # omega = 40 sinusoid at |wT| = 2/delta from 59.9 down to 0.05
    beams = []
    for seed in range(10):
        nd = nondimensional(random_scenario(np.random.default_rng(seed)))
        beams += [(beam, nd.frame_profile, nd.params) for beam in (nd.beam_a, nd.beam_b)]
    records = (TabulatedFunction((0.0, 0.37, 0.61, 1.0), (0.1, 0.3, -0.2, 0.05)),
               SinusoidFunction(amplitude=0.3, omega=40.0, phase=0.2))
    for record in records:
        for delta in (2.0 / 59.9, 0.1, 1.0, 10.0, 40.0):
            nd = nondimensional(make_scenario(a=record, f=LinearFunction(0.5, 1.0),
                                              delta_a=delta))
            beams.append((nd.beam_a, nd.frame_profile, nd.params))
    for beam, f, p in beams:
        printed = _printed_line_rows(beam, f, p)
        scaled = _scaled_action_rows(beam, f, p)
        assert np.max(np.abs(printed - scaled)) <= 1e-12 * np.max(np.abs(printed)), beam


def test_the_printed_weight_is_one_at_re_wt():
    # W = 2 e^{-theta} [(1 + e^{-2 theta}) sin theta
    #     + i (1 - e^{-2 theta}) cos theta] sin(wT) / denom(theta) is 1 at
    # theta = |Re(wT)|, where the printed i3/i4 are the derived ones
    p = make_scenario().params
    for wt in np.geomspace(0.05, 60.0, 40):
        delta = 2.0 / wt
        w = actions.complex_frequency(p, delta)
        printed = _printed(np.zeros((2, 3)), w, p, delta, abs((w * p.duration).real))
        assert abs(complex(printed.weight_re, printed.weight_im) - 1.0) <= 1e-13, wt


# ---------------------------------------------------------------------------
# phase difference, reduced interference, intensity
# ---------------------------------------------------------------------------

def test_phase_difference_zero_for_identical_beams():
    scenario = make_scenario(delta_a=1.0, delta_b=1.0,
                             a=ConstantFunction(0.1), b=ConstantFunction(0.1))
    assert decompose(scenario).phase_difference == 0.0


def test_phase_difference_swap_antisymmetry():
    scenario = make_scenario()
    assert abs(decompose(scenario).phase_difference
               + decompose(scenario.swapped()).phase_difference) <= 1e-12


def test_phase_difference_baseline_frozen():
    assert decompose(make_scenario()).phase_difference == pytest.approx(
        0.030111441588577398, rel=1e-9)


def test_phase_difference_baseline_against_lattice_oracle():
    from rpif import richardson_extrapolate, stationary_action
    scenario = make_scenario()
    stationary = {}
    for label in ("a", "b"):
        seq = [(n, stationary_action(scenario, label, n)) for n in (256, 512, 1024)]
        stationary[label] = richardson_extrapolate(seq).value
    oracle = (stationary["a"] - stationary["b"]).real
    assert decompose(scenario).phase_difference == pytest.approx(oracle, rel=1e-6)


def test_dyadic_tabulated_record_decomposes_and_matches_the_lattice():
    # kinks on panel edges: the nested triangle rule never integrates
    # across one, so both modes converge and the propagator matches the
    # lattice
    from rpif import oracle_propagator, restricted_propagator
    from rpif.timefunctions import TabulatedFunction
    record = TabulatedFunction((0.0, 0.25, 0.5, 0.75, 1.0), (0.1, 0.3, -0.1, 0.2, 0.0))
    scenario = make_scenario(a=record, delta_a=0.8)
    for mode in (MODE_DERIVED, MODE_LITERAL):
        assert math.isfinite(decompose(scenario, mode).i5)
    closed = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                   scenario.params, scenario.z1, scenario.z2).amplitude
    lattice = oracle_propagator(scenario, "a", (512, 1024, 2048)).value
    assert abs(closed - lattice) <= 1e-6 * abs(lattice)


# off-dyadic sample times: the lattice's Richardson h^2 model does not hold
# across these kinks, so the lattice is compared at one fine N instead
OFF_DYADIC = TabulatedFunction((0.0, 0.37, 0.61, 1.0), (0.1, 0.3, -0.2, 0.05))
_BREAKDOWN = ("i1", "i2", "i3", "i4", "i5", "phase_difference", "reduced_i",
              "intensity")


def _assert_same_breakdown(got, want, rel):
    for name in _BREAKDOWN:
        a, b = getattr(got, name), getattr(want, name)
        assert abs(a - b) <= rel * abs(b), name


def test_off_dyadic_tabulated_record_decomposes_and_matches_the_lattice():
    from rpif import restricted_propagator
    scenario = make_scenario(a=OFF_DYADIC, delta_a=0.8)
    for mode in (MODE_DERIVED, MODE_LITERAL):
        row = decompose(scenario, mode)
        assert all(math.isfinite(getattr(row, name)) for name in _BREAKDOWN)
    closed = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                   scenario.params, scenario.z1, scenario.z2).amplitude
    lattice = lattice_values(scenario, "a", (2 ** 18,))[2 ** 18]
    assert abs(closed - lattice) <= 1e-8 * abs(lattice)


def _sampled_line(times, slope=0.4, intercept=-0.1):
    line = LinearFunction(slope, intercept)
    return line, TabulatedFunction(tuple(times), tuple(line(t) for t in times))


@pytest.mark.parametrize("mode", [MODE_DERIVED, MODE_LITERAL])
def test_tabulated_samples_of_a_line_match_the_line(mode):
    line, samples = _sampled_line((0.0, 0.13, 0.37, 0.61, 0.9, 1.0))
    tabulated = decompose(make_scenario(a=samples, delta_a=0.8, z1=0.2), mode)
    exact = decompose(make_scenario(a=line, delta_a=0.8, z1=0.2), mode)
    _assert_same_breakdown(tabulated, exact, 1e-12)


@pytest.mark.parametrize("mode", [MODE_DERIVED, MODE_LITERAL])
def test_a_densely_sampled_line_matches_the_line(mode):
    # 998 interior samples: more segments than two levels of the triangle
    # rule's axis budget hold, so the budget grows to fit three
    line, samples = _sampled_line(np.linspace(0.0, 1.0, 1000))
    tabulated = decompose(make_scenario(a=samples, delta_a=0.8, z1=0.2), mode)
    exact = decompose(make_scenario(a=line, delta_a=0.8, z1=0.2), mode)
    _assert_same_breakdown(tabulated, exact, 1e-12)


@pytest.mark.parametrize("mode", [MODE_DERIVED, MODE_LITERAL])
def test_tabulated_records_in_physical_units_match_internal_units(mode):
    # internal units: tau on [0, 1], m = hbar = 1, a tabulated frame profile
    # and record with off-dyadic samples; the physical scenario puts the
    # same samples on tau = 2 + 3u with m = 3, hbar = 0.5, so its
    # breakpoints come back from nondimensionalization only to rounding
    m, hbar, t0, T = 3.0, 0.5, 2.0, 3.0
    L = math.sqrt(hbar * T / m)
    u_frame, frame = (0.0, 0.23, 0.77, 1.0), (1.0, 1.2, 0.8, 1.0)
    u_rec, rec = OFF_DYADIC.times, OFF_DYADIC.values
    internal = make_scenario(
        z1=0.2, z2=0.5, delta_a=0.8, f=TabulatedFunction(u_frame, frame),
        a=TabulatedFunction(u_rec, rec))
    physical = make_scenario(
        m=m, hbar=hbar, tau_start=t0, tau_end=t0 + T,
        g=1.0 / math.sqrt(m * T ** 3 / hbar), z1=0.2 * L, z2=0.5 * L,
        delta_a=0.8 * L, delta_b=2.0 * L,
        f=TabulatedFunction(tuple(t0 + T * u for u in u_frame), frame),
        a=TabulatedFunction(tuple(t0 + T * u for u in u_rec),
                            tuple(L * v for v in rec)),
        b=ConstantFunction(-0.1 * L))
    _assert_same_breakdown(decompose(physical, mode), decompose(internal, mode), 1e-11)


def test_reduced_interference_identical_beams():
    scenario = make_scenario(delta_a=2.0, delta_b=2.0,
                             a=ConstantFunction(-0.1), b=ConstantFunction(-0.1))
    assert decompose(scenario).reduced_i == 1.0


def test_reduced_interference_is_cosine_of_phase():
    scenario = make_scenario(z2=0.9)
    assert decompose(scenario).reduced_i == pytest.approx(
        math.cos(decompose(scenario).phase_difference), rel=1e-14)


def test_reduced_interference_in_bounds(rng):
    for _ in range(10):
        scenario = random_scenario(rng)
        assert -1.0 <= decompose(scenario).reduced_i <= 1.0
        assert decompose(scenario).intensity >= 0.0


def test_intensity_coherent_doubling():
    from rpif import restricted_propagator
    scenario = make_scenario(delta_a=1.0, delta_b=1.0,
                             a=ConstantFunction(0.1), b=ConstantFunction(0.1))
    single = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                   scenario.params, scenario.z1, scenario.z2)
    assert decompose(scenario).intensity == pytest.approx(4.0 * abs(single.amplitude) ** 2,
                                                          rel=1e-12)


def test_intensity_single_beam_limit():
    # beam a's record sits far outside its resolution: its weight-norm
    # factor collapses and only beam b contributes
    from rpif import restricted_propagator
    scenario = make_scenario(a=ConstantFunction(6.0), delta_a=0.5)
    other = restricted_propagator(scenario.beam_b, scenario.frame_profile,
                                  scenario.params, scenario.z1, scenario.z2)
    assert decompose(scenario).intensity == pytest.approx(abs(other.amplitude) ** 2, rel=1e-10)


def test_intensity_baseline_frozen():
    assert decompose(make_scenario()).intensity == pytest.approx(0.47322879385856004, rel=1e-9)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_symmetric_null():
    scenario = make_scenario(delta_a=1.5, delta_b=1.5,
                             a=PolynomialFunction((0.05, 0.2)),
                             b=PolynomialFunction((0.05, 0.2)))
    for mode in (MODE_LITERAL, MODE_DERIVED):
        br = decompose(scenario, mode)
        for term in (br.i1, br.i2, br.i3, br.i4, br.i5):
            assert abs(term) <= 1e-12
        assert abs(br.reduced_i - 1.0) <= 1e-12


def test_decompose_zero_z1_kills_i2_i3():
    br = decompose(make_scenario(z1=0.0), MODE_DERIVED)
    assert br.i2 == 0.0
    assert br.i3 == 0.0


def test_decompose_derived_residual_baseline():
    br = decompose(make_scenario(), MODE_DERIVED)
    assert br.residual <= 1e-8


def test_decompose_literal_residual_reported_not_asserted():
    br = decompose(make_scenario(), MODE_LITERAL)
    assert np.isfinite(br.residual)
    assert br.residual >= 0.0
    assert br.mode == MODE_LITERAL


def test_decompose_derived_residual_randomized(rng):
    for _ in range(20):
        scenario = random_scenario(rng)
        br = decompose(scenario, MODE_DERIVED)
        assert br.residual <= 1e-8


def test_swap_negates_terms_and_preserves_observables(rng):
    scenarios = [make_scenario(z1=0.3, z2=0.8)] + [random_scenario(rng) for _ in range(3)]
    for scenario in scenarios:
        for mode in (MODE_LITERAL, MODE_DERIVED):
            fwd = decompose(scenario, mode)
            rev = decompose(scenario.swapped(), mode)
            for k in ("i1", "i2", "i3", "i4", "i5", "phase_difference"):
                assert abs(getattr(fwd, k) + getattr(rev, k)) <= 1e-12
            assert abs(fwd.intensity - rev.intensity) <= 1e-12 * max(fwd.intensity, 1e-300)
            assert abs(fwd.reduced_i - rev.reduced_i) <= 1e-12


def test_equivalence_principle_free_frame():
    # with f = 0 gravity enters nowhere; g = 0 and g = 9.8 must agree
    outputs = []
    for g in (0.0, 9.8):
        scenario = make_scenario(g=g, f=ConstantFunction(0.0), z1=0.2, z2=0.7)
        br = decompose(scenario, MODE_DERIVED)
        lit = decompose(scenario, MODE_LITERAL)
        outputs.append((br.i1, br.i2, br.i3, br.i4, br.i5, br.phase_difference,
                        br.reduced_i, br.intensity,
                        lit.i1, lit.i2, lit.i3, lit.i4, lit.i5))
    for x, y in zip(*outputs):
        assert abs(x - y) <= 1e-10


def test_resolution_difference_is_interference_source():
    # identical records, different resolutions: the quadratic terms survive
    scenario = make_scenario(z1=0.0, z2=1.0, a=ConstantFunction(0.2),
                             b=ConstantFunction(0.2), delta_a=1.0, delta_b=2.0)
    for mode in (MODE_LITERAL, MODE_DERIVED):
        br = decompose(scenario, mode)
        assert abs(br.i1) + abs(br.i2) > 1e-6


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_m_over_hbar_invariance(lam):
    base = decompose(make_scenario()).reduced_i
    scaled = decompose(make_scenario(m=lam, hbar=lam)).reduced_i
    assert scaled == pytest.approx(base, abs=1e-9)
