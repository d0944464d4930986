"""The nested triangle rule against the n x n iterated rule it replaced.

Each double integral of the package (the action's q12 block, against an
exp-factored form of its kernel and, at small |wT|, its Taylor series, and
the paper-literal endpoint-free block) is computed
by ``quadrature.integrate_triangle`` from its separable factors and by
``util.reference_triangle`` from the kernel as one function of (t, s).
"""

import math

import pytest

from rpif.actions import action_kernels, complex_frequency
from rpif.timefunctions import LinearFunction, SinusoidFunction
from util import (
    closed_triangle_kernel,
    force_callable,
    make_scenario,
    printed_blocks,
    printed_i5_block,
    reference_triangle,
    series_triangle_kernel,
    unsplit_blocks,
)

RECORD = SinusoidFunction(amplitude=0.3, omega=3.0, phase=0.2)
FRAME = LinearFunction(slope=0.5, intercept=1.0)


def _q12_pair(wt: float, kernel_of):
    """q12 from the nested rule and from the reference rule at |wT| = wt."""
    delta = 2.0 / wt  # |wT| = 2/delta in internal units
    scenario = make_scenario(a=RECORD, f=FRAME, delta_a=delta)
    w = complex_frequency(scenario.params, delta)
    force = force_callable(scenario.beam_a, scenario.frame_profile, scenario.params)
    nested = unsplit_blocks(action_kernels((w,), 1.0, 1.0), force, 0.0, 1.0).q12
    kernel = kernel_of(w, 1.0)
    reference = reference_triangle(
        lambda t, s: force(t) * force(s) * kernel(1.0 - t, s), 0.0, 1.0)
    return nested, reference


@pytest.mark.parametrize("wt", [0.5, 3.0, 59.0])
def test_closed_kernel_matches_reference(wt):
    nested, reference = _q12_pair(wt, closed_triangle_kernel)
    assert abs(nested - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("wt", [1e-3, 0.0099])
def test_series_kernel_matches_reference(wt):
    nested, reference = _q12_pair(wt, series_triangle_kernel)
    assert abs(nested - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("delta", [1.0, 0.5, 0.04])
def test_literal_i5_block_matches_printed_kernel(delta):
    scenario = make_scenario(a=RECORD, f=FRAME, delta_a=delta)
    p = scenario.params
    th = math.sqrt(2.0 * math.pi * p.hbar * p.duration / (p.m * delta ** 2))
    nested = printed_blocks(scenario.beam_a, scenario.frame_profile, p, th)[2]
    reference = printed_i5_block(scenario.beam_a, scenario.frame_profile, p, th)
    assert abs(nested - reference) <= 1e-12 * abs(reference)
