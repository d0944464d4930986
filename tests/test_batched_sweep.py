"""A sweep evaluates its points together, and each row has the bits of
its point alone.

``run_sweep`` integrates the per-beam rows of every point of a
``delta_a`` / ``delta_b`` sweep in one batch, and the batch converges each
resolution on its own, at the level and with the arithmetic that resolution
gets alone.  So every row of a batched sweep must equal the one-point run
at its resolution; identical bytes are expected, and 1e-13 relative is the
bound.

``run_sweep`` then evaluates each point alone, in scalar arithmetic, from
the per-beam rows it shares with the other points, so every row of a sweep
of any parameter must be the one-point run bit for bit, failing points
included.
"""

import math
import sys

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rpif import classical_action, restricted_propagator
from rpif import scenario as scenario_module
from rpif.scenario import nondimensional
from rpif.sweep import SWEEP_PARAMETERS, SweepSpec, apply_sweep_value, run_sweep
from rpif.timefunctions import LinearFunction, SinusoidFunction, TabulatedFunction
from util import make_scenario

COLUMNS = ("intensity", "reduced_i", "i1", "i2", "i3", "i4", "i5",
           "phase_difference", "residual")

RECORDS = {
    "sinusoid": SinusoidFunction(amplitude=0.3, omega=3.0, phase=0.2),
    "linear": LinearFunction(0.3, -0.1),
    "tabulated": TabulatedFunction((0.0, 0.37, 0.61, 1.0), (0.1, 0.3, -0.2, 0.05)),
}

# resolutions in internal units, where |wT| = 2/delta: |wT| from 5 down to
# 2.2e-3, and a range that crosses delta = 200 (|wT| = 1e-2)
RANGES = {"closed": (0.4, 3.0), "series": (250.0, 900.0), "crossing": (120.0, 320.0)}


def _same(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= 1e-13 * abs(want)


@given(parameter=st.sampled_from(["delta_a", "delta_b"]),
       record=st.sampled_from(sorted(RECORDS)),
       span=st.sampled_from(sorted(RANGES)),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       g=st.floats(0.0, 2.0), z1=st.floats(-1.0, 1.0), z2=st.floats(-1.0, 1.0))
@settings(max_examples=12, deadline=None)
def test_every_row_of_a_resolution_sweep_matches_its_point_alone(
        parameter, record, span, ends, g, z1, z2):
    lo, hi = RANGES[span]
    start, stop = sorted(lo + (hi - lo) * e for e in ends)
    swept = {"a": RECORDS[record]} if parameter == "delta_a" else {"b": RECORDS[record]}
    scenario = make_scenario(g=g, z1=z1, z2=z2, f=LinearFunction(0.5, 1.0), **swept)
    spec = SweepSpec(parameter=parameter, start=start, stop=stop, steps=32, mode="both")
    rows = run_sweep(scenario, spec)
    for i, value in enumerate(spec.points()):
        alone = run_sweep(scenario, SweepSpec(parameter=parameter, start=float(value),
                                              stop=float(value), steps=1, mode="both"))
        for got, want in zip(rows[2 * i:2 * i + 2], alone):
            assert got.error == want.error
            for name in COLUMNS:
                assert _same(getattr(got, name), getattr(want, name)), (value, name)


def _same_bits(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return got.hex() == want.hex()


# for each parameter a range of swept values with failing points in it:
# z2 has none; a resolution <= 0 and one past the stability guard
# (delta < 1/30 in internal units); g < 0; a scale <= 0, which makes m and
# hbar invalid, and in physical units a rescale that is inexact
SWEPT = {"z2": (-1.0, 1.0), "delta_a": (-0.1, 1.5), "delta_b": (-0.1, 1.5),
         "g": (-1.0, 2.0), "m_over_hbar_scale": (-0.5, 3.0)}


@given(parameter=st.sampled_from(SWEEP_PARAMETERS),
       mode=st.sampled_from(["literal", "derived", "both"]),
       record=st.sampled_from(sorted(RECORDS)),
       physical=st.booleans(),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       g=st.floats(0.0, 2.0), z1=st.floats(-1.0, 1.0), z2=st.floats(-1.0, 1.0))
@settings(max_examples=20, deadline=None)
def test_every_row_of_a_sweep_is_its_point_alone_bit_for_bit(
        parameter, mode, record, physical, ends, g, z1, z2):
    lo, hi = SWEPT[parameter]
    start, stop = sorted(lo + (hi - lo) * e for e in ends)
    units = dict(m=2.7, hbar=0.37) if physical else {}
    scenario = make_scenario(g=g, z1=z1, z2=z2, f=LinearFunction(0.5, 1.0),
                             a=RECORDS[record], delta_a=0.8, **units)
    _assert_each_row_is_its_point_alone(scenario, SweepSpec(
        parameter=parameter, start=start, stop=stop, steps=16, mode=mode))


def _assert_each_row_is_its_point_alone(scenario, spec):
    rows = run_sweep(scenario, spec)
    width = len(spec.modes())
    for i, value in enumerate(spec.points()):
        alone = run_sweep(scenario, SweepSpec(parameter=spec.parameter, start=float(value),
                                              stop=float(value), steps=1, mode=spec.mode))
        for got, want in zip(rows[width * i:width * (i + 1)], alone, strict=True):
            assert got.error == want.error
            for name in ("swept_value",) + COLUMNS:
                assert _same_bits(getattr(got, name), getattr(want, name)), (value, name)


@pytest.mark.parametrize("parameter, start, stop, steps", [
    ("g", -0.0, 0.0, 2), ("g", -0.0, 0.0, 3), ("z2", -1.0, 1.0, 5)])
def test_points_at_g_minus_zero_and_zero_are_apart(parameter, start, stop, steps):
    # the points of a pair of beams share their blocks at g by the bits of
    # g, so a point at g = -0.0 gets its own, as it does alone
    scenario = make_scenario(g=-0.0, z1=0.3, f=LinearFunction(0.5, 1.0),
                             a=RECORDS["linear"], delta_a=0.8)
    _assert_each_row_is_its_point_alone(scenario, SweepSpec(
        parameter=parameter, start=start, stop=stop, steps=steps, mode="both"))


@pytest.mark.parametrize("physical", [False, True], ids=["internal", "physical"])
@pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
def test_each_row_has_the_bits_of_its_points_actions_and_propagators(parameter, physical):
    # phase_difference, intensity and reduced_i of every row that did not
    # fail are those of classical_action and restricted_propagator on the
    # point's own scenario in internal units
    lo, hi = SWEPT[parameter]
    units = dict(m=2.7, hbar=0.37) if physical else {}
    scenario = make_scenario(g=0.6, z1=0.3, z2=-0.4, f=LinearFunction(0.5, 1.0),
                             a=RECORDS["sinusoid"], delta_a=0.8, **units)
    spec = SweepSpec(parameter=parameter, start=lo, stop=hi, steps=18, mode="both")
    rows = run_sweep(scenario, spec)
    checked = 0
    for i, value in enumerate(spec.points()):
        for row in rows[2 * i:2 * i + 2]:
            if row.error is not None:
                continue
            nd = nondimensional(apply_sweep_value(scenario, parameter, float(value)))
            args = (nd.frame_profile, nd.params, nd.z1, nd.z2)
            beams = (nd.beam_a, nd.beam_b)
            sa, sb = (classical_action(beam, *args) for beam in beams)
            ua, ub = (restricted_propagator(beam, *args).amplitude for beam in beams)
            pd = sa.real - sb.real
            for name, want in (("phase_difference", pd), ("intensity", abs(ua + ub) ** 2),
                               ("reduced_i", math.cos(pd / nd.params.hbar))):
                assert getattr(row, name).hex() == want.hex(), (value, row.mode, name)
            checked += 1
    assert checked >= 16


@pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
def test_a_sweep_validates_its_scenario_once(monkeypatch, parameter):
    # every validation, validate_scenario's too, goes through nondimensional,
    # which hands back the scenario in internal units
    scenario = make_scenario(m=2.7, hbar=0.37, tau_start=0.3, tau_end=1.9, z1=0.2)
    calls = []
    validate = scenario_module.nondimensional

    def counted(scenario):
        calls.append(scenario)
        return validate(scenario)
    for module in (scenario_module, sys.modules["rpif.sweep"]):
        monkeypatch.setattr(module, "nondimensional", counted)
    rows = run_sweep(scenario, SweepSpec(parameter=parameter, start=0.5, stop=1.5,
                                         steps=16, mode="both"))
    assert len(rows) == 32 and all(row.error is None for row in rows)
    assert len(calls) == 1
