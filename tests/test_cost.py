"""Memory and work bounds on the hardest records.

The omega = 400 sinusoid on beam a (amplitude 0.3, delta = 1, z2 = 0.5,
otherwise the reference scenario; the same scenario as the benchmark's
omega = 400 request) takes 880 nodes per axis for its action rows and as
many for its printed rows, each at one level sized from its rates.  An n x n
rule there peaks at hundreds of MiB and evaluates its kernels at tens of
millions of points; the nested rule, which sees n outer and 2n inner
points, stays under 2 MiB (1.3 MiB of traced allocations) and at 5 376
points, in chunks of 32 panels (512 outer nodes, 48 points per panel).
The panel-doubling loop this rule replaced took 24 480 points (2048
nodes per axis at its last level), and 36 816 on 8-node panels.

A beam one short of the stability guard, |wT| = 59, takes 1 008 triangle
points, against 1 440 for the doubling loop and 3 024 for it on 8-node
panels.

A 16-point resolution sweep of the same scenario integrates beam a at
all 16 resolutions in one batch, and stays as small.

A zig-zag tabulated record (the benchmark's kind: eight interior samples,
four of them off the dyadic grid) takes 640 line nodes in both modes
once panels end at its samples, against 1 920 for the doubling loop;
without breakpoints, composite Gauss converges only like h^2 over the
kinks and burns about 266 000 nodes before it fails.

A detector-like record of 65 537 samples (a noisy omega = 40 sine on a
uniform grid) puts a line integral of more than a million nodes in
derived ``decompose``.  The line rule evaluates it in chunks of
``BATCH_POINTS`` nodes, and the panel edges of its 65 536 segments are
cut in one numpy expression, so the traced peak is about 54 MiB (1.9 s
under tracemalloc, 0.6 s without, on a 2-core VM), where evaluating every
node at once peaked at 238 MiB.
"""

import gc
import tracemalloc

import numpy as np

from rpif import compare_modes, decompose, quadrature
from rpif.sweep import SweepSpec, run_sweep
from rpif.timefunctions import SinusoidFunction, TabulatedFunction
from util import make_scenario


def _counted_triangle_points(monkeypatch) -> list:
    """The points each call of the factors of ``integrate_triangle`` sees,
    appended to the returned list."""
    points = []
    original = quadrature.integrate_triangle

    def counted(factors, *args, **kwargs):
        def inner(t, s):
            points.append(np.size(t) + np.size(s))
            return factors(t, s)
        return original(inner, *args, **kwargs)
    monkeypatch.setattr(quadrature, "integrate_triangle", counted)
    return points


def test_omega_400_decompose_stays_small(monkeypatch):
    scenario = make_scenario(a=SinusoidFunction(amplitude=0.3, omega=400.0, phase=0.0),
                             delta_a=1.0, z2=0.5)
    points = _counted_triangle_points(monkeypatch)

    # both modes from one evaluation, which integrates each beam's action
    # rows and printed rows once; two decompose calls would integrate the
    # action rows twice
    tracemalloc.start()
    try:
        compare_modes(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert sum(points) < 5_500


def test_a_beam_near_the_guard_takes_few_triangle_points(monkeypatch):
    # |wT| = 2/delta = 59, one short of the guard: both modes' triangle
    # integrals take 1008 points, against 1440 for the doubling loop
    scenario = make_scenario(delta_a=2.0 / 59.0)
    points = _counted_triangle_points(monkeypatch)
    compare_modes(scenario)
    assert sum(points) < 1_100


def test_omega_400_resolution_sweep_stays_small():
    # the swept beam's rows at all 16 resolutions come from one batch; an
    # evaluation covers only as many resolutions as fit in BATCH_POINTS
    # points, so the batch needs no more memory than one point
    scenario = make_scenario(a=SinusoidFunction(amplitude=0.3, omega=400.0, phase=0.0),
                             delta_a=1.0, z2=0.5)
    spec = SweepSpec(parameter="delta_a", start=0.5, stop=2.0, steps=16, mode="both")
    tracemalloc.start()
    try:
        rows = run_sweep(scenario, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row.error is None for row in rows)
    assert peak < 64 * 2 ** 20


def test_zig_zag_tabulated_record_takes_few_line_nodes(monkeypatch):
    times = (0.0, 0.0625, 0.1437, 0.25, 0.3719, 0.5, 0.6183, 0.8125, 0.9071, 1.0)
    values = tuple((-1) ** k * (0.5 + 0.05 * k) for k in range(len(times)))
    scenario = make_scenario(a=TabulatedFunction(times, values), delta_a=0.8, z2=0.5)
    nodes = []
    original = quadrature.integrate

    def counted(fn, *args, **kwargs):
        def inner(t):
            nodes.append(np.size(t))
            return fn(t)
        return original(inner, *args, **kwargs)
    monkeypatch.setattr(quadrature, "integrate", counted)

    for mode in ("derived", "paper-literal"):
        decompose(scenario, mode)
    assert sum(nodes) < 700


def test_a_65537_sample_record_decomposes_in_bounded_memory():
    n = 65_537
    times = np.linspace(0.0, 1.0, n)
    noise = np.random.default_rng(14).standard_normal(n)
    record = TabulatedFunction(tuple(times.tolist()),
                               tuple((0.3 * np.sin(40.0 * times) + 0.01 * noise).tolist()))
    scenario = make_scenario(a=record, delta_a=1.0)
    tracemalloc.start()
    try:
        breakdown = decompose(scenario, "derived")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(breakdown.i1)
    assert peak < 120 * 2 ** 20


def test_memory_left_after_long_records_does_not_grow_with_their_count():
    # each derived decompose of a distinct 1025-sample record left its
    # 16 400-node rule and its split cached, 0.56 MiB a record; rules past
    # CACHED_RULE_NODES nodes and splits past CACHED_BREAKS breakpoints are
    # built per call, and six more records leave less than 0.01 MiB
    rng = np.random.default_rng(19)

    def record():
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 1023)), [1.0]))
        return TabulatedFunction(tuple(times.tolist()),
                                 tuple(rng.uniform(-0.3, 0.3, times.size).tolist()))
    scenarios = [make_scenario(a=record(), delta_a=1.0) for _ in range(8)]
    left = []
    tracemalloc.start()
    try:
        for scenario in scenarios:
            decompose(scenario, "derived")
            gc.collect()
            left.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert left[-1] - left[1] < 2 ** 18
