"""Memory and work bounds on the hardest smooth record.

The omega = 400 sinusoid on beam a (amplitude 0.3, delta = 1, z2 = 0.5,
otherwise the reference scenario; the same scenario as the benchmark's
omega = 400 request) needs 2048 nodes per axis in its double integrals.
An n x n rule there peaks at about 430 MiB and evaluates its kernels at
tens of millions of points; the nested rule stays at a few MiB and about
a hundred thousand points.
"""

import tracemalloc

import numpy as np

from rpif import actions, decompose, interference, quadrature
from rpif.timefunctions import SinusoidFunction
from util import make_scenario


def test_omega_400_decompose_stays_small(monkeypatch):
    scenario = make_scenario(a=SinusoidFunction(amplitude=0.3, omega=400.0, phase=0.0),
                             delta_a=1.0, z2=0.5)
    for cached in (actions._action_blocks, actions._record_mean_square,
                   interference._literal_linear_block,
                   interference._literal_double_block):
        cached.cache_clear()
    points = []
    original = quadrature.integrate_triangle

    def counted(factors, *args, **kwargs):
        def inner(t, s):
            points.append(np.size(t) + np.size(s))
            return factors(t, s)
        return original(inner, *args, **kwargs)
    monkeypatch.setattr(quadrature, "integrate_triangle", counted)

    tracemalloc.start()
    try:
        for mode in ("derived", "paper-literal"):
            decompose(scenario, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert sum(points) < 200_000
