"""A sweep evaluates its points together, and each row has the bits of
its point alone.

``run_sweep`` fills the per-beam row caches for every point of a
``delta_a`` / ``delta_b`` sweep in one batch, and the batch converges each
resolution on its own, at the level and with the arithmetic that resolution
gets alone.  So every row of a batched sweep must equal the one-point run
at its resolution; identical bytes are expected, and 1e-13 relative is the
bound.

``run_sweep`` also evaluates the rows at g, the actions and the terms of
its points as array arithmetic (from ``VECTOR_POINTS`` points on), written
out as the real operations of a scalar complex product, so every row of a
sweep of any parameter must be the one-point run bit for bit, failing
points included.
"""

import itertools
import math
import sys
import threading

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rpif import actions, decompose, interference
from rpif import scenario as scenario_module
from rpif.sweep import SWEEP_PARAMETERS, SweepSpec, run_sweep
from rpif.timefunctions import LinearFunction, SinusoidFunction, TabulatedFunction
from util import make_scenario

COLUMNS = ("intensity", "reduced_i", "i1", "i2", "i3", "i4", "i5",
           "phase_difference", "residual")

RECORDS = {
    "sinusoid": SinusoidFunction(amplitude=0.3, omega=3.0, phase=0.2),
    "linear": LinearFunction(0.3, -0.1),
    "tabulated": TabulatedFunction((0.0, 0.37, 0.61, 1.0), (0.1, 0.3, -0.2, 0.05)),
}

# resolutions in internal units, where |wT| = 2/delta: the closed-form
# kernels, the series kernels (delta > 200, |wT| < 1e-2), and a range that
# crosses delta = 200, so the batch splits by branch
RANGES = {"closed": (0.4, 3.0), "series": (250.0, 900.0), "crossing": (120.0, 320.0)}


def _clear_row_caches():
    for cached in (actions._action_rows, interference._literal_rows):
        cached.cache_clear()


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
    _clear_row_caches()
    rows = run_sweep(scenario, spec)
    for i, value in enumerate(spec.points()):
        _clear_row_caches()
        alone = run_sweep(scenario, SweepSpec(parameter=parameter, start=float(value),
                                              stop=float(value), steps=1, mode="both"))
        for got, want in zip(rows[2 * i:2 * i + 2], alone):
            assert got.error == want.error
            for name in COLUMNS:
                assert _same(getattr(got, name), getattr(want, name)), (value, name)


def test_threads_share_the_row_caches():
    # more threads than cores and a short switch interval, so that reads,
    # batch fills and evictions interleave; every thread must see the rows
    # a serial run computes
    scenarios = [make_scenario(delta_a=0.5 + 0.25 * i, z2=0.1 * i) for i in range(12)]
    _clear_row_caches()
    want = [decompose(s, mode) for s in scenarios for mode in ("derived", "paper-literal")]
    spec = SweepSpec(parameter="delta_b", start=0.5, stop=3.0, steps=8, mode="both")
    failures = []

    def work():
        try:
            for _ in range(3):
                got = [decompose(s, mode) for s in scenarios
                       for mode in ("derived", "paper-literal")]
                run_sweep(scenarios[0], spec)
                if got != want:
                    failures.append("rows differ")
        except Exception as exc:  # noqa: BLE001 - any failure fails the test
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


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
    spec = SweepSpec(parameter=parameter, start=start, stop=stop,
                     steps=2 * interference.VECTOR_POINTS, mode=mode)
    _clear_row_caches()
    rows = run_sweep(scenario, spec)
    width = len(spec.modes())
    for i, value in enumerate(spec.points()):
        _clear_row_caches()
        alone = run_sweep(scenario, SweepSpec(parameter=parameter, start=float(value),
                                              stop=float(value), steps=1, mode=mode))
        for got, want in zip(rows[width * i:width * (i + 1)], alone, strict=True):
            assert got.error == want.error
            for name in COLUMNS:
                assert _same_bits(getattr(got, name), getattr(want, name)), (value, name)


@pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
def test_a_sweep_validates_its_scenario_once(monkeypatch, parameter):
    calls = []
    validate = scenario_module.validate_scenario

    def counted(scenario):
        calls.append(scenario)
        return validate(scenario)
    for module in (scenario_module, sys.modules["rpif.sweep"]):
        monkeypatch.setattr(module, "validate_scenario", counted)
    scenario = make_scenario(m=2.7, hbar=0.37, tau_start=0.3, tau_end=1.9, z1=0.2)
    rows = run_sweep(scenario, SweepSpec(parameter=parameter, start=0.5, stop=1.5,
                                         steps=16, mode="both"))
    assert len(rows) == 32 and all(row.error is None for row in rows)
    assert len(calls) == 1


SPECIALS = (0.0, -0.0, 1.5, -2.5, 1e-310, -1e-310, 1e308, -1e308, math.inf, -math.inf,
            math.nan)


def test_complex_arrays_keep_the_bits_of_complex_scalars():
    # the operations the action blocks use, on every combination of signed
    # zeros, subnormals, huge and non-finite parts: each array entry must
    # be what numpy's complex128 scalars give, bit for bit
    x, re, im = (np.array(column) for column in zip(*itertools.product(SPECIALS, repeat=3)))
    re2, im2 = im[::-1].copy(), re[::-1].copy()
    c, d = interference._Complex(re, im), interference._Complex(re2, im2)
    scalars = [np.complex128(complex(*pair)) for pair in zip(re, im)]
    others = [np.complex128(complex(*pair)) for pair in zip(re2, im2)]
    with np.errstate(all="ignore"):
        cases = {
            "x * c": (x * c, [a * z for a, z in zip(x.tolist(), scalars)]),
            "c * x": (c * x, [z * a for a, z in zip(x.tolist(), scalars)]),
            # a quotient by a mass, which is never 0
            "c / x": (c / np.where(x == 0.0, 1.0, x),
                      [z / (a or 1.0) for a, z in zip(x.tolist(), scalars)]),
            "-c": (-c, [-z for z in scalars]),
            "c + d": (c + d, [z + w for z, w in zip(scalars, others)]),
            "c - d": (c - d, [z - w for z, w in zip(scalars, others)]),
        }
    for name, (got, want) in cases.items():
        for part in ("real", "imag"):
            for g, w in zip(getattr(got, part).tolist(), (getattr(z, part) for z in want)):
                assert _same_bits(g, float(w)), name
