"""Memory and work bounds on the hardest records.

The omega = 400 sinusoid on beam a (amplitude 0.3, delta = 1, z2 = 0.5,
otherwise the reference scenario; the same scenario as the benchmark's
omega = 400 request) needs 2048 nodes per axis in its double integrals.
An n x n rule there peaks at about 430 MiB and evaluates its kernels at
tens of millions of points; the nested rule, which sees n outer and 2n
inner points per level, stays under 2 MiB and about 37 000 points.

A 16-point resolution sweep of the same scenario integrates beam a at
all 16 resolutions in one batch, and stays as small.

A zig-zag tabulated record (the benchmark's kind: eight interior samples,
four of them off the dyadic grid) converges in a couple of thousand line
nodes once panels end at its samples; without that, composite Gauss
converges only like h^2 over the kinks and burns about 266 000 nodes
before it fails.
"""

import tracemalloc

import numpy as np

from rpif import compare_modes, decompose, quadrature
from rpif.sweep import SweepSpec, run_sweep
from rpif.timefunctions import SinusoidFunction, TabulatedFunction
from util import make_scenario


def test_omega_400_decompose_stays_small(monkeypatch):
    scenario = make_scenario(a=SinusoidFunction(amplitude=0.3, omega=400.0, phase=0.0),
                             delta_a=1.0, z2=0.5)
    points = []
    original = quadrature.integrate_triangle

    def counted(factors, *args, **kwargs):
        def inner(t, s):
            points.append(np.size(t) + np.size(s))
            return factors(t, s)
        return original(inner, *args, **kwargs)
    monkeypatch.setattr(quadrature, "integrate_triangle", counted)

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
    assert sum(points) < 40_000


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
    assert sum(nodes) < 5_000
