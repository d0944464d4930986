"""The per-beam blocks, split into g-free rows and recombined at g.

Each block the package integrates once per beam (the action's q1, q2 and
q12, and the paper-literal i5 block) is computed from g-free rows and
combined with g at read time; the paper-literal i3/i4 blocks are read off
q1 and q2.  Recombined, every block must match the unsplit reference in
``util``, which integrates the whole force, or the printed integrands,
with g inside the integrand, to 1e-10 relative.
"""

import dataclasses
import math

import numpy as np
import pytest

from rpif import actions
from sampling import random_scenario
from rpif.timefunctions import LinearFunction, TabulatedFunction
from util import (
    make_scenario,
    printed_blocks,
    unsplit_action_blocks,
    unsplit_literal_double_block,
    unsplit_literal_linear_block,
)

G_VALUES = (0.0, 0.37, 2.0)
RTOL = 1e-10

OFF_DYADIC = TabulatedFunction((0.0, 0.37, 0.61, 1.0), (0.1, 0.3, -0.2, 0.05))

SCENARIOS = {
    **{f"random-{seed}": random_scenario(np.random.default_rng(seed))
       for seed in range(5)},
    # |wT| = 2/300 < 1e-2, where the kernels once switched to a series
    "series-branch": make_scenario(delta_a=300.0, a=LinearFunction(0.3, -0.1),
                                   f=LinearFunction(0.5, 1.0), z1=0.2),
    "off-dyadic-tabulated": make_scenario(a=OFF_DYADIC, delta_a=0.8, z1=0.2,
                                          f=TabulatedFunction((0.0, 0.23, 0.77, 1.0),
                                                              (1.0, 1.2, 0.8, 1.0))),
    # physical units: m and the window enter the rows, not just g
    "physical-units": make_scenario(m=3.0, hbar=0.5, tau_start=2.0, tau_end=5.0,
                                    a=LinearFunction(0.2, -0.5), delta_a=1.5,
                                    delta_b=2.5, z1=0.3, z2=0.8),
}


def _close(got, want):
    return abs(got - want) <= RTOL * abs(want)


def _at_g(scenario, g):
    return dataclasses.replace(scenario, params=dataclasses.replace(scenario.params, g=g))


def _theta(beam, p):
    return math.sqrt(2.0 * math.pi * p.hbar * p.duration / (p.m * beam.resolution ** 2))


def _recombined(beam, scenario):
    p, f = scenario.params, scenario.frame_profile
    th = _theta(beam, p)
    action = actions._beam_rows(beam, f, p).at(p.g)
    end, start, double = printed_blocks(beam, f, p, th)
    return {**{name: getattr(action, name) for name in ("b1", "b2", "q1", "q2", "q12")},
            "i3": end, "i4": start, "i5": double}


def _unsplit(beam, scenario):
    p, f = scenario.params, scenario.frame_profile
    th = _theta(beam, p)
    action = unsplit_action_blocks(beam, f, p)
    return {**{name: getattr(action, name) for name in ("b1", "b2", "q1", "q2", "q12")},
            "i3": unsplit_literal_linear_block(beam, f, p, th, "end"),
            "i4": unsplit_literal_linear_block(beam, f, p, th, "start"),
            "i5": unsplit_literal_double_block(beam, f, p, th)}


@pytest.mark.parametrize("g", G_VALUES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_blocks_match_the_unsplit_reference(name, g):
    scenario = _at_g(SCENARIOS[name], g)
    for beam in (scenario.beam_a, scenario.beam_b):
        got = _recombined(beam, scenario)
        for block, value in _unsplit(beam, scenario).items():
            assert _close(got[block], value), block

