"""A resolution sweep integrates its swept beam once for all its points.

``run_sweep`` fills the per-beam row caches for every point of a
``delta_a`` / ``delta_b`` sweep in one batch, and the batch converges each
resolution on its own, at the level and with the arithmetic that resolution
gets alone.  So every row of a batched sweep must equal the one-point run
at its resolution; identical bytes are expected, and 1e-13 relative is the
bound.
"""

import math
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from rpif import actions, decompose, interference
from rpif.sweep import SweepSpec, run_sweep
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
