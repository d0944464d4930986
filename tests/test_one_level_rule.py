"""The one-level rule against the panel-doubling loop it replaced.

Each action, printed-i5 and mean-square integral of a beam, on the panels
its rates ask, must match the doubling loop of ``util`` (panels doubled
until two levels agree to 1e-10, whatever the rates) to 1e-12 of its
scale: the window times the largest magnitude of each row's integrand on
the reference's nodes, and for a triangle half the window squared times
the sum over its terms of the largest outer and inner magnitudes.  The
frame profile and the record are drawn from all five kinds: tabulated
with samples off any grid, sinusoids up to omega = 400 and polynomials up
to degree 8; |wT| is log-uniform in [0.01, 59].  The draws follow the
suite's seed (``RPIF_SEED``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rpif import actions, interference, quadrature
from rpif.scenario import BeamRecord
from rpif.timefunctions import (
    ConstantFunction,
    LinearFunction,
    PolynomialFunction,
    SinusoidFunction,
    TabulatedFunction,
)
from sampling import resolve_seed
from util import NBASE, RowScale, doubling_integrate, doubling_triangle

RTOL = 1e-12
#: 0 or a magnitude from 1e-100 to 1: no row falls below the normal range,
#: where rounding is absolute and no relative tolerance can be met
unit = st.floats(-1.0, 1.0).filter(lambda value: value == 0.0 or abs(value) >= 1e-100)


@st.composite
def time_functions(draw):
    kind = draw(st.sampled_from(["constant", "linear", "polynomial", "sinusoid", "tabulated"]))
    if kind == "constant":
        return ConstantFunction(draw(unit))
    if kind == "linear":
        return LinearFunction(draw(unit), draw(unit))
    if kind == "polynomial":
        degree = draw(st.integers(0, 8))
        return PolynomialFunction(tuple(draw(unit) for _ in range(degree + 1)))
    if kind == "sinusoid":
        omega = math.exp(draw(st.floats(math.log(0.1), math.log(400.0))))
        return SinusoidFunction(draw(unit), omega, draw(st.floats(0.0, 2.0 * math.pi)))
    inside = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=10, unique=True))
    times = (0.0, *sorted(inside), 1.0)
    return TabulatedFunction(times, tuple(draw(unit) for _ in times))


def _recorded(line, triangle, calls):
    """``line`` and ``triangle`` that append each integral's value and
    ``RowScale`` to ``calls``."""
    def integrate(fn, a, b, **kwargs):
        scale = RowScale(fn, a, b, triangle=False)
        value = line(scale.fn, a, b, **kwargs)
        calls.append((np.asarray(value), scale.value))
        return value

    def integrate_triangle(factors, a, b, **kwargs):
        scale = RowScale(factors, a, b, triangle=True)
        value = triangle(scale.fn, a, b, **kwargs)
        calls.append((np.asarray(value), scale.value))
        return value
    return integrate, integrate_triangle


def _integrals(beam, frame, line, triangle):
    """Every integral of a beam's action rows (with <c^2>) and printed rows,
    in call order, each with its scale."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        integrate, integrate_triangle = _recorded(line, triangle, calls)
        patch.setattr(quadrature, "integrate", integrate)
        patch.setattr(quadrature, "integrate_triangle", integrate_triangle)
        for compute in (actions._batch_action_rows, interference._batch_literal_rows):
            entry, = compute((beam,), frame, NBASE)
            assert not isinstance(entry, Exception), entry
    return calls


@seed(resolve_seed())
@settings(max_examples=40, deadline=None)
@given(record=time_functions(), frame=time_functions(),
       wt=st.floats(math.log(0.01), math.log(59.0)))
def test_each_row_matches_the_doubling_loop(record, frame, wt):
    beam = BeamRecord(record, 2.0 / math.exp(wt))
    got = _integrals(beam, frame, quadrature.integrate, quadrature.integrate_triangle)
    want = _integrals(beam, frame, doubling_integrate, doubling_triangle)
    assert len(got) == len(want) == 4  # triangle, line, <c^2>, printed triangle
    for (value, _), (reference, scale) in zip(got, want):
        assert value.shape == reference.shape
        assert (np.abs(value - reference) <= RTOL * scale).all(), (
            value, reference, scale)
