import cmath
import math

import numpy as np
import pytest

from rpif import (
    MODE_DERIVED,
    MODE_LITERAL,
    LatticeError,
    RpifError,
    decompose,
)
from rpif import actions, interference
from rpif.interference import _paper_angle, _printed
from rpif.scenario import nondimensional
from sampling import random_scenario
from rpif.timefunctions import (ConstantFunction, LinearFunction, PolynomialFunction,
                               SinusoidFunction, TabulatedFunction)
from util import (DOUBLING_RTOL, action_angle, doubling_integrate, lattice_values,
                  make_scenario, printed_i5, printed_i5_block, printed_terms, swapped)


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
    return tuple(action_angle(p, delta) for delta in deltas)


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


@pytest.mark.parametrize("mode", [MODE_LITERAL, MODE_DERIVED])
def test_a_numpy_scalar_scenario_that_overflows_fails_without_a_warning(mode):
    # a library caller's numpy scalars are read as Python floats: at
    # g = 1e160 the action overflows, and decompose raises an RpifError
    # with no numpy RuntimeWarning (the suite makes one an error); at 1e150
    # every number is finite and the same as from Python floats
    record = TabulatedFunction((0.0, 0.3, 0.7, 1.0), (0.1, 0.2, -0.1, 0.0))
    with pytest.raises(RpifError, match="^classical_action: non-finite value"):
        decompose(make_scenario(g=np.float64(1e160), z1=np.float64(0.1),
                                z2=np.float64(0.5), a=record), mode)
    got = decompose(make_scenario(g=np.float64(1e150), z1=np.float64(0.1),
                                  z2=np.float64(0.5), a=record), mode)
    assert got == decompose(make_scenario(g=1e150, z1=0.1, z2=0.5, a=record), mode)


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


#: a record of each kind per beam; i1 and i2 depend on the resolutions and
#: the endpoints alone
WEAK_RECORDS = {
    "constant": (ConstantFunction(0.1), ConstantFunction(-0.1)),
    "polynomial": (PolynomialFunction((0.1, -0.3, 0.2)), PolynomialFunction((-0.05, 0.4))),
    "sinusoid": (SinusoidFunction(0.2, 7.0, 0.3), SinusoidFunction(0.1, 3.0, 1.0)),
    "tabulated": (TabulatedFunction((0.0, 0.3, 0.55, 1.0), (0.1, 0.25, -0.05, 0.0)),
                  TabulatedFunction((0.0, 0.4, 1.0), (-0.1, 0.0, 0.15))),
}


@pytest.mark.parametrize("records", sorted(WEAK_RECORDS))
@pytest.mark.parametrize("delta_a", [3.0, 10.0, 30.0])
def test_i1_and_i2_follow_the_weak_measurement_law(records, delta_a):
    """Under coarse measurement, kappa = 4*hbar*T/(m*delta^2) small, the
    derived terms tend to

        i1 = (z1^2 + z2^2) * (m/(90T)) * (kappa_a^2 - kappa_b^2),
        i2 = (7m*z1*z2/(360T)) * (kappa_a^2 - kappa_b^2),

    from the x^2 terms of wT*cot(wT) = 1 - x/3 - x^2/45 - 2x^3/945 -
    x^4/4725 and wT/sin(wT) = 1 + x/6 + 7x^2/360 + 31x^3/15120 +
    127x^4/604800 at x = (wT)^2 = -i*kappa; their x^4 terms give the next
    order, a relative gap of -(kappa_a^2 + kappa_b^2)/105 for i1 and
    -(127/11760)*(kappa_a^2 + kappa_b^2) for i2.  Each gap must lie within
    1 % of its prediction.  The test stops at delta_a = 30: the derived
    form loses digits to cancellation as |wT| -> 0, and at delta_a = 100
    the i1 gap is -1.3e-7 against a predicted -1.8e-9."""
    z1, z2, delta_b = 0.3, 0.5, 1.5 * delta_a
    a, b = WEAK_RECORDS[records]
    breakdown = decompose(make_scenario(z1=z1, z2=z2, a=a, b=b, delta_a=delta_a,
                                        delta_b=delta_b), MODE_DERIVED)
    kappa_a, kappa_b = 4.0 / delta_a ** 2, 4.0 / delta_b ** 2
    difference, total = kappa_a ** 2 - kappa_b ** 2, kappa_a ** 2 + kappa_b ** 2
    for term, law, gap in (
            (breakdown.i1, (z1 ** 2 + z2 ** 2) / 90.0 * difference, -total / 105.0),
            (breakdown.i2, 7.0 * z1 * z2 / 360.0 * difference, -127.0 / 11760.0 * total)):
        assert term / law - 1.0 == pytest.approx(gap, rel=1e-2)


@pytest.mark.parametrize("delta_a", [0.3, 1.0, 3.0])
def test_printed_i1_and_i2_are_the_derived_ones_at_delta_over_sqrt_pi(delta_a):
    """The printed angle theta = sqrt(2*pi*hbar*T/(m*delta^2)) is |Re(wT)|
    at delta/sqrt(pi), and the printed factors of i1 and i2 are the derived
    ones over sqrt(pi), with 1/delta in each bracket: so sqrt(pi) times the
    printed i1 and i2 at (delta_a, delta_b) are the derived i1 and i2 at
    (delta_a/sqrt(pi), delta_b/sqrt(pi)).  The largest gap, measured, is
    3.0e-15 of the row's largest derived term (at delta_a = 3); the bound
    is 1e-14.  The test stops at delta_a = 3: past it both sides lose
    digits as |wT| -> 0 (1.1e-12 at delta_a = 10, 1.3e-9 at 30)."""
    root = math.sqrt(math.pi)
    delta_b = 1.5 * delta_a
    printed = decompose(make_scenario(z1=0.3, z2=0.5, delta_a=delta_a, delta_b=delta_b),
                        MODE_LITERAL)
    derived = decompose(make_scenario(z1=0.3, z2=0.5, delta_a=delta_a / root,
                                      delta_b=delta_b / root), MODE_DERIVED)
    largest = max(abs(getattr(derived, k)) for k in ("i1", "i2", "i3", "i4", "i5"))
    for k in ("i1", "i2"):
        assert abs(root * getattr(printed, k) - getattr(derived, k)) <= 1e-14 * largest, k


#: record pairs of the mass test: constants, and a sinusoid beside a
#: polynomial
MASS_RECORDS = {
    "constants": (ConstantFunction(0.1), ConstantFunction(-0.1)),
    "sinusoid_polynomial": (SinusoidFunction(0.2, 7.0, 0.3),
                            PolynomialFunction((-0.05, 0.4, 0.1))),
}


@pytest.mark.parametrize("records", sorted(MASS_RECORDS))
def test_each_new_term_falls_as_one_over_m_at_coarse_measurement(records):
    """Gravity still depends on mass: at coarse measurement every term,
    and the phase difference, falls as 1/m.  With hbar = T = 1, g = 1, a
    constant frame, delta_a = 20 and delta_b = 30, each of m*i1..m*i5 and
    m*phase_difference agrees across m = 0.5, 1, 2 and 4 to within
    C*kappa^2 of its value at m = 4, with kappa = 4*hbar*T/(m*delta_a^2) at
    the smallest m (kappa^2 = 4e-4) and C = 0.05; the largest gap,
    measured, is 6.5e-6 (C = 0.016).  And i1 is the weak-measurement law
    (8/45)*(hbar*T/m)*(z1^2 + z2^2)*(delta_a^-4 - delta_b^-4) within its
    next order: a relative gap of -(kappa_a^2 + kappa_b^2)/105, which falls
    as 1/m^2 (-4.6e-6 at m = 0.5), to 1 % of itself."""
    z1, z2, delta_a, delta_b = 0.3, 0.5, 20.0, 30.0
    a, b = MASS_RECORDS[records]
    names = ("i1", "i2", "i3", "i4", "i5", "phase_difference")
    masses = (0.5, 1.0, 2.0, 4.0)
    scaled = {}
    for m in masses:
        br = decompose(make_scenario(m=m, z1=z1, z2=z2, f=ConstantFunction(1.0), a=a, b=b,
                                     delta_a=delta_a, delta_b=delta_b), MODE_DERIVED)
        scaled[m] = [m * getattr(br, k) for k in names]
        kappa_a, kappa_b = 4.0 / (m * delta_a ** 2), 4.0 / (m * delta_b ** 2)
        law = 8.0 / 45.0 / m * (z1 ** 2 + z2 ** 2) * (delta_a ** -4 - delta_b ** -4)
        assert br.i1 / law - 1.0 == pytest.approx(-(kappa_a ** 2 + kappa_b ** 2) / 105.0,
                                                  rel=1e-2), m
    bound = 0.05 * (4.0 / (masses[0] * delta_a ** 2)) ** 2
    for m in masses:
        for name, value, reference in zip(names, scaled[m], scaled[masses[-1]]):
            assert abs(value - reference) <= bound * abs(reference), (m, name)


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
        assert gap(MODE_DERIVED) <= 10 * DOUBLING_RTOL * largest, seed
        assert gap(MODE_LITERAL) > 0.1 * largest, seed


#: the three departures of the printed i5 from the action, each as
#: printed and as the action has it: the weight's exponent, sums or
#: products of the frame and record factors, and the angle
_I5_AS_PRINTED = {"exponent": 0.5, "products": False, "angle": _paper_angle}
_I5_AS_ACTION = {"exponent": 1.0 / math.sqrt(2.0), "products": True, "angle": action_angle}


def _i5_by_beam_and_power(nd, exponent, products, angle):
    """The printed i5 blocks of both beams, each split by power of g, and
    the derived ones, -Re(q12)/m, the same way: arrays of 6 entries."""
    p, f = nd.params, nd.frame_profile
    printed, derived = [], []
    for beam in (nd.beam_a, nd.beam_b):
        th = angle(p, beam.resolution)
        printed += [printed_i5_block(beam, f, p, th, exponent, products, power=k) * p.m / p.hbar
                    for k in range(3)]
        rows = actions._beam_rows(beam, f, p)
        derived += [(-q12 / p.m).real for q12 in (rows.q12_cc, rows.q12_fc, rows.q12_ff)]
    return np.array(printed), np.array(derived)


def test_printed_i5_is_minus_twice_the_derived_i5_after_three_changes():
    # with the weight e^{(sigma+epsilon)/sqrt2}, the products g^2 f(t) f(s)
    # and -omega^4 c(t) c(s), and theta = |Re(wT)|, the printed i5 is -2
    # times the derived i5: on each row within 1e-12 of its largest term
    # (both quadratures converge far below DOUBLING_RTOL on these
    # polynomials), and per beam and per power of g within 1e-12 of the
    # largest derived block.  With any one change undone, some block is off
    # by more than a tenth of the largest.  The row alone does not show
    # that: its difference of beams and its sum over powers of g can cancel
    # most of the gap (on seed 13, undoing the weight moves the row's i5 by
    # 1 % of its largest term)
    for seed in range(50):
        scenario = random_scenario(np.random.default_rng(seed))
        nd = nondimensional(scenario)
        br = decompose(scenario, MODE_DERIVED)
        largest = max(map(abs, (br.i1, br.i2, br.i3, br.i4, br.i5)))
        assert abs(printed_i5(nd, **_I5_AS_ACTION) + 2.0 * br.i5) <= 1e-12 * largest, seed

        printed, derived = _i5_by_beam_and_power(nd, **_I5_AS_ACTION)
        scale = np.max(np.abs(derived))
        assert np.max(np.abs(printed + 2.0 * derived)) <= 1e-12 * scale, seed
        for undone, as_printed in _I5_AS_PRINTED.items():
            printed, _ = _i5_by_beam_and_power(nd, **dict(_I5_AS_ACTION, **{undone: as_printed}))
            assert np.max(np.abs(printed + 2.0 * derived)) > 0.1 * scale, (seed, undone)


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
    return doubling_integrate(line, t0, t1, breaks=breaks).real


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


def test_a_deviation_that_is_not_finite_fails_the_point():
    # max(0.0, nan) is 0.0: a deviation that is not finite must raise, not
    # read as perfect agreement
    nd = nondimensional(make_scenario())
    pair = tuple(interference._Beam(beam, nd.params) for beam in (nd.beam_a, nd.beam_b))
    with pytest.raises(LatticeError, match="^beam_a: the oracle deviation is not finite"):
        interference._oracle_deviation(nd, pair, (complex(math.nan), 1.0), (256, 512, 1024))


def test_the_printed_weight_is_one_at_re_wt():
    # W = 2 e^{-theta} [(1 + e^{-2 theta}) sin theta
    #     + i (1 - e^{-2 theta}) cos theta] sin(wT) / denom(theta) is 1 at
    # theta = |Re(wT)|, where the printed i3/i4 are the derived ones
    p = make_scenario().params
    for wt in np.geomspace(0.05, 60.0, 40):
        delta = 2.0 / wt
        w = actions.complex_frequency(p, delta)
        printed = _printed(np.zeros((2, 3)), w, p, delta, abs((w * p.duration).real))
        assert abs(printed.weight - 1.0) <= 1e-13, wt


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
               + decompose(swapped(scenario)).phase_difference) <= 1e-12


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
            rev = decompose(swapped(scenario), mode)
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
