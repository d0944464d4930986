"""Every beam of an evaluation is integrated in one batch, and each beam
gets the bits it gets alone.

The points of an evaluation share their frame profile and units, and
``interference._fill`` integrates all of its beams in one triangle and one
line call, sampling each distinct record once per evaluation of the
integrand.  Each set of a batch takes the segments its own breakpoints
split and the panels its own rates ask, with its own arithmetic, so every
beam's rows, and every row a sweep prints, must equal those of the beam
integrated alone, bit for bit, whatever breakpoints the other beams have;
a beam whose integrals need more nodes than their budget (a stall) must
fail with the error a lone attempt raises, and leave the others alone.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpif import RpifError, actions, interference, quadrature
from rpif.scenario import BeamRecord, PhysicalParams
from rpif.sweep import SweepSpec, run_sweep
from rpif.timefunctions import (
    ConstantFunction,
    LinearFunction,
    PolynomialFunction,
    SinusoidFunction,
    TabulatedFunction,
)
from util import make_scenario

RECORDS = {
    "constant": ConstantFunction(0.1),
    "linear": LinearFunction(0.3, -0.1),
    "sinusoid": SinusoidFunction(0.3, 3.0, 0.2),
    "polynomial": PolynomialFunction((0.1, -0.2, 0.3)),
    # two records with the same interior samples split the window alike; a
    # third splits it at 0.5 only, as the tabulated frame profile does
    "tabulated": TabulatedFunction((0.0, 0.37, 0.61, 1.0), (0.1, 0.3, -0.2, 0.05)),
    "tabulated_alike": TabulatedFunction((0.0, 0.37, 0.61, 1.0), (-0.2, 0.1, 0.4, 0.0)),
    "tabulated_half": TabulatedFunction((0.0, 0.5, 1.0), (0.2, -0.1, 0.3)),
    # its triangle integrals need more nodes than their budget
    "stalled": SinusoidFunction(0.3, 30000.0, 0.0),
}

FRAMES = {
    "constant": ConstantFunction(1.0),
    "linear": LinearFunction(0.5, 1.0),
    "tabulated": TabulatedFunction((0.0, 0.5, 1.0), (1.0, 0.5, 1.2)),
}

# in internal units |wT| = 2/delta: from 5 down to 2.2e-3, on both sides of
# delta = 200 (|wT| = 1e-2)
RESOLUTIONS = (0.4, 1.0, 2.5, 150.0, 199.0, 201.0, 250.0, 900.0)

ROWS = (actions._batch_action_rows, interference._batch_literal_rows)

PARAMS = PhysicalParams(m=1.0, g=1.0, hbar=1.0, tau_start=0.0, tau_end=1.0)


def _bits(entry):
    """A beam's entry of a batch as comparable bits: an error's type and
    text, or the bytes of every number of the rows: the action rows' blocks,
    prefactor and weight exponent, or the printed i5 rows."""
    if isinstance(entry, RpifError):
        return type(entry).__name__, str(entry)
    if isinstance(entry, actions.ActionRows):
        return tuple(complex(number).real.hex() + complex(number).imag.hex()
                     for number in dataclasses.astuple(entry))
    return tuple(part.tobytes() for part in entry)


def _beams(beams):
    return [interference._Beam(BeamRecord(RECORDS[record], delta), PARAMS)
            for record, delta in beams]


def _alone(compute, beam, *args):
    """The entry of ``beam`` (an ``interference._Beam``) in a batch of one,
    ``compute``'s other arguments ``args``."""
    entry, = compute((beam.beam,), *args)
    return entry


@given(beams=st.lists(st.tuples(st.sampled_from(sorted(RECORDS)),
                                st.sampled_from(RESOLUTIONS)),
                      min_size=2, max_size=5, unique=True),
       frame=st.sampled_from(sorted(FRAMES)))
@settings(max_examples=25, deadline=None)
def test_each_beam_of_a_joint_batch_gets_its_rows_alone(beams, frame):
    beams, args = _beams(beams), (FRAMES[frame], PARAMS)
    for compute in ROWS:
        joint = interference._fill(beams, compute, *args)
        for beam, entry in zip(beams, joint):
            assert _bits(entry) == _bits(_alone(compute, beam, *args)), beam.beam


def test_a_joint_batch_has_one_call_per_evaluation(monkeypatch):
    calls = []
    triangle = quadrature.integrate_triangle

    def counted(factors, a, b, *, batch, **kwargs):
        calls.append(batch.size)
        return triangle(factors, a, b, batch=batch, **kwargs)
    monkeypatch.setattr(quadrature, "integrate_triangle", counted)
    # smooth records at |wT| from 2 down to 8e-3, one of which stalls; two
    # tabulated records with the same interior samples, at |wT| 5 and
    # 2.2e-3; a record with samples of its own: three splits of the window
    beams = [("sinusoid", 1.0), ("linear", 2.5), ("stalled", 1.0), ("polynomial", 250.0),
             ("tabulated", 0.4), ("tabulated_alike", 900.0), ("tabulated_half", 1.0)]
    beams = _beams(beams)
    frame = FRAMES["constant"]
    for compute in ROWS:
        calls.clear()
        joint = interference._fill(beams, compute, frame, PARAMS)
        # one call of 7 sets, whatever |wT| and the breakpoints; the stalled
        # beam's triangle budget refuses it before any node, and the line
        # call of its batch leaves it out
        assert calls == [7]
        assert isinstance(joint[2], quadrature.QuadratureError)
        assert "more than its budget of 4096" in str(joint[2])
        for beam, entry in zip(beams, joint):
            assert _bits(entry) == _bits(_alone(compute, beam, frame, PARAMS))


def _sweep_alone(scenario, spec):
    """The sweep's rows with every beam's rows integrated on their own."""
    def fill(beams, compute, *args):
        return [_alone(compute, beam, *args) for beam in beams]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interference, "_fill", fill)
        return run_sweep(scenario, spec)


COLUMNS = ("intensity", "reduced_i", "i1", "i2", "i3", "i4", "i5",
           "phase_difference", "residual")


def _row_bits(row):
    return (row.error,) + tuple(float(getattr(row, name)).hex()
                                if not math.isnan(getattr(row, name)) else "nan"
                                for name in COLUMNS)


@given(parameter=st.sampled_from(["delta_a", "delta_b", "z2", "g"]),
       records=st.tuples(st.sampled_from(sorted(RECORDS)), st.sampled_from(sorted(RECORDS))),
       resolutions=st.tuples(st.sampled_from(RESOLUTIONS), st.sampled_from(RESOLUTIONS)),
       frame=st.sampled_from(sorted(FRAMES)))
@settings(max_examples=15, deadline=None)
def test_a_sweep_of_joint_batches_prints_the_rows_of_beams_alone(
        parameter, records, resolutions, frame):
    # a resolution sweep batches the swept beam at every resolution with the
    # fixed beam
    scenario = make_scenario(f=FRAMES[frame], a=RECORDS[records[0]], b=RECORDS[records[1]],
                             delta_a=resolutions[0], delta_b=resolutions[1], z1=0.3)
    start, stop = {"delta_a": (0.5, 260.0), "delta_b": (0.5, 260.0),
                   "z2": (-1.0, 1.0), "g": (0.0, 2.0)}[parameter]
    spec = SweepSpec(parameter=parameter, start=start, stop=stop, steps=8, mode="both")
    joint = run_sweep(scenario, spec)
    alone = _sweep_alone(scenario, spec)
    assert [_row_bits(row) for row in joint] == [_row_bits(row) for row in alone]


# ---------------------------------------------------------------------------
# a pass samples through the time functions' samplers
# ---------------------------------------------------------------------------

def test_a_pass_samples_without_calling_the_time_functions(monkeypatch):
    # the nodes are sampled directly: no call goes through
    # TimeFunction.__call__
    from rpif import decompose
    from rpif.timefunctions import TimeFunction

    def called(self, t):
        raise AssertionError("TimeFunction.__call__ on the quadrature path")
    scenario = make_scenario(f=FRAMES["tabulated"], a=RECORDS["tabulated"],
                             b=RECORDS["sinusoid"])
    monkeypatch.setattr(TimeFunction, "__call__", called)
    for mode in ("derived", "paper-literal"):
        decompose(scenario, mode)
