import dataclasses
import functools
import json

import numpy as np
import pytest

import rpif.sweep
from rpif import (
    ConfigError,
    PhysicalParams,
    RpifError,
    Scenario,
    ValidationError,
    compare_modes,
    parse_config,
    run_sweep,
)
from rpif.sweep import (
    CSV_HEADER,
    MAX_STEPS,
    SweepSpec,
    apply_sweep_value,
    parse_oracle_schedule,
    render_csv,
    render_json,
)
from rpif.timefunctions import ConstantFunction
from util import make_scenario

BASE_CONFIG = {
    "params": {"m": 1.0, "g": 1.0, "hbar": 1.0, "tau_start": 0.0, "tau_end": 1.0},
    "z1": 0.0, "z2": 0.5,
    "frame_profile": {"kind": "constant", "value": 1.0},
    "beam_a": {"trajectory": {"kind": "constant", "value": 0.1}, "resolution": 1.0},
    "beam_b": {"trajectory": {"kind": "constant", "value": -0.1}, "resolution": 2.0},
}


def _config(**extra) -> str:
    doc = dict(BASE_CONFIG)
    doc.update(extra)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_minimal_config_accepted():
    scenario, spec = parse_config("{}")
    assert scenario.params.m == 1.0
    assert scenario.z2 == 0.5
    assert spec.parameter == "z2"
    assert spec.steps == 1
    assert spec.start == spec.stop == 0.5


def test_full_config_accepted():
    scenario, spec = parse_config(_config(sweep={"parameter": "z2", "start": 0.0,
                                                 "stop": 1.0, "steps": 3,
                                                 "mode": "both"}))
    assert spec.steps == 3
    assert spec.mode == "both"
    assert scenario.beam_b.resolution == 2.0


def test_missing_resolution_diagnostic():
    doc = dict(BASE_CONFIG)
    doc["beam_a"] = {"trajectory": {"kind": "constant", "value": 0.1}}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any(v.startswith("/beam_a/resolution") for v in err.value.violations)


def test_zero_steps_diagnostic():
    with pytest.raises(ConfigError) as err:
        parse_config(_config(sweep={"parameter": "z2", "start": 0, "stop": 1,
                                    "steps": 0}))
    assert any(v.startswith("/sweep/steps") for v in err.value.violations)


def test_malformed_json_diagnostic():
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config("{not json")


def test_unknown_key_diagnostic():
    with pytest.raises(ConfigError) as err:
        parse_config(_config(extra_section={}))
    assert any(v.startswith("/extra_section") for v in err.value.violations)


def test_bad_kind_diagnostic():
    doc = dict(BASE_CONFIG)
    doc["frame_profile"] = {"kind": "mystery"}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("/frame_profile/kind" in v for v in err.value.violations)


def test_all_violations_collected():
    doc = {
        "beam_a": {"trajectory": {"kind": "constant", "value": 0.1}},
        "sweep": {"parameter": "z9", "steps": 0},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    text = "\n".join(err.value.violations)
    assert "/beam_a/resolution" in text
    assert "/sweep/parameter" in text
    assert "/sweep/steps" in text


def test_reversed_sweep_bounds_diagnostic():
    with pytest.raises(ConfigError) as err:
        parse_config(_config(sweep={"parameter": "z2", "start": 1.0, "stop": 0.0,
                                    "steps": 2}))
    assert any("/sweep/start" in v for v in err.value.violations)


@pytest.mark.parametrize("doc, path", [
    ({"z2": "x", "sweep": {"stop": -1}}, "/z2"),
    ({"sweep": {"parameter": "bogus", "stop": -1}}, "/sweep/parameter"),
])
def test_a_start_that_defaults_to_an_unreadable_base_is_no_bound(doc, path):
    # the start defaults to the swept parameter's base value, which a bad
    # scenario or parameter leaves unknown: no range is checked against it
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert [v.split(":")[0] for v in err.value.violations] == [path]


def test_oracle_schedule_must_double():
    assert parse_oracle_schedule("100,150,300", "--oracle") == (
        None, ["--oracle: sizes must double, got 100 then 150"])


def test_non_numbers_are_reported_alike_in_the_scenario_and_the_sweep():
    # time-function fields too: a record value, a polynomial coefficient
    # and a tabulated time
    doc = dict(BASE_CONFIG, z1=True, params={"g": "9.8"},
               frame_profile={"kind": "polynomial", "coefficients": [1.0, "1e3"]},
               beam_a={"trajectory": {"kind": "constant", "value": "0.25"},
                       "resolution": 1.0},
               beam_b={"trajectory": {"kind": "tabulated", "times": [0.0, True],
                                      "values": [0.0, 1.0]}, "resolution": 2.0},
               sweep={"parameter": "z2", "start": False, "stop": [1], "steps": 2})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.violations == ["/params/g: expected a number, got '9.8'",
                                    "/z1: expected a number, got True",
                                    "/frame_profile/coefficients/1: expected a number, "
                                    "got '1e3'",
                                    "/beam_a/trajectory/value: expected a number, got '0.25'",
                                    "/beam_b/trajectory/times/1: expected a number, got True",
                                    "/sweep/start: expected a number, got False",
                                    "/sweep/stop: expected a number, got [1]"]


def test_every_bad_field_of_a_time_function_is_reported():
    doc = dict(BASE_CONFIG, frame_profile={"kind": "sinusoid", "amplitude": None,
                                           "omega": [1], "phase": {}})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.violations == ["/frame_profile/amplitude: expected a number, got None",
                                    "/frame_profile/omega: expected a number, got [1]",
                                    "/frame_profile/phase: expected a number, got {}"]


def test_unknown_properties_are_refused_at_every_level():
    doc = dict(BASE_CONFIG, params={"mass": 2.0},
               frame_profile={"kind": "linear", "slope": 1.0, "value": 0.0},
               beam_a={"trajectroy": {"kind": "constant", "value": 0.1}, "resolution": 1.0},
               sweep={"paramter": "g", "start": 0, "stop": 2, "steps": 3})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.violations == ["/params/mass: unknown property",
                                    "/frame_profile/value: unknown property",
                                    "/beam_a/trajectroy: unknown property",
                                    "/sweep/paramter: unknown property"]


def test_invalid_scenario_value_diagnostic():
    doc = dict(BASE_CONFIG)
    doc["params"] = {"m": -1.0}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("/params/m" in v for v in err.value.violations)


# ---------------------------------------------------------------------------
# sweeping
# ---------------------------------------------------------------------------

def test_three_point_sweep_single_mode():
    scenario, _ = parse_config(_config())
    spec = SweepSpec(parameter="z2", start=0.0, stop=1.0, steps=3, mode="derived")
    rows = run_sweep(scenario, spec)
    assert len(rows) == 3
    assert [row.swept_value for row in rows] == [0.0, 0.5, 1.0]
    assert all(row.mode == "derived" for row in rows)
    assert all(row.error is None for row in rows)


def test_both_modes_two_rows_per_point():
    scenario, _ = parse_config(_config())
    spec = SweepSpec(parameter="z2", start=0.0, stop=1.0, steps=2, mode="both")
    rows = run_sweep(scenario, spec)
    assert len(rows) == 4
    assert [row.mode for row in rows] == ["paper-literal", "derived"] * 2


def test_guard_trips_recorded_per_row():
    scenario, _ = parse_config(_config())
    spec = SweepSpec(parameter="delta_a", start=0.02, stop=1.0, steps=3,
                     mode="derived")
    rows = run_sweep(scenario, spec)
    assert rows[0].error is not None and "stability guard" in rows[0].error
    assert np.isnan(rows[0].intensity)
    assert rows[-1].error is None


def _unvalidated(m=1.0, hbar=1.0):
    """The reference scenario with its mass and hbar, not validated."""
    scenario = make_scenario()
    return Scenario(PhysicalParams(m, 1.0, hbar, 0.0, 1.0), scenario.z1, scenario.z2,
                    scenario.frame_profile, scenario.beam_a, scenario.beam_b)


def _errors(rows):
    return {row.error for row in rows}


def test_an_invalid_scenario_fails_every_point_with_its_one_error():
    # swept values that are invalid themselves are not reported apart: the
    # scenario is validated once, with the swept field at a neutral value
    rows = run_sweep(_unvalidated(m=-1.0),
                     SweepSpec(parameter="delta_a", start=-1.0, stop=1.0, steps=5))
    assert len(rows) == 5
    assert _errors(rows) == {"ValidationError: params.m: must be a positive finite "
                             "number, got -1.0"}


def test_an_unknown_parameter_fails_every_point_with_its_one_error():
    rows = run_sweep(make_scenario(), SweepSpec(parameter="mass", start=0.0, stop=1.0,
                                                steps=3, mode="both"))
    assert len(rows) == 6
    assert _errors(rows) == {"RpifError: unknown sweep parameter 'mass'"}


@pytest.mark.parametrize("mode", ["paper-literal", "Literal", "fast"])
def test_a_sweep_mode_the_library_does_not_know_is_refused(mode):
    # a config is refused at /sweep/mode; a SweepSpec built in code is not
    # parsed, and its mode must not fall back to derived
    spec = SweepSpec(parameter="z2", start=0.0, stop=1.0, steps=3, mode=mode)
    with pytest.raises(ValidationError) as err:
        run_sweep(make_scenario(), spec)
    assert str(err.value) == f"sweep.mode: must be one of literal, derived, both, got {mode!r}"


@pytest.mark.parametrize("sweep, violations", [
    pytest.param('{"start": NaN, "stop": 1, "steps": 3}', ["/sweep/start: must be finite, got nan"],
                 id="nan"),
    # a stop defaults to the start, and is reported as a given infinity is
    pytest.param('{"start": NaN}', ["/sweep/start: must be finite, got nan",
                                    "/sweep/stop: must be finite, got nan"], id="nan-default"),
    pytest.param('{"start": 1e400}', ["/sweep/start: must be finite, got inf",
                                      "/sweep/stop: must be finite, got inf"], id="inf-default"),
    # a bound that is no number reads NaN, and is reported once
    pytest.param('{"start": "0", "stop": 1}', ["/sweep/start: expected a number, got '0'"],
                 id="no-number"),
    pytest.param('{"start": null}', ["/sweep/start: expected a number, got None"],
                 id="no-number-default"),
])
def test_a_sweep_bound_that_is_not_finite_is_refused(sweep, violations):
    with pytest.raises(ConfigError) as err:
        parse_config(f'{{"sweep": {sweep}}}')
    assert err.value.violations == violations


@pytest.mark.parametrize("field, value, message", [
    pytest.param("steps", 0, "expected an integer >= 1, got 0", id="steps-zero"),
    pytest.param("steps", -2, "expected an integer >= 1, got -2", id="steps-negative"),
    pytest.param("steps", 2.0, "expected an integer >= 1, got 2.0", id="steps-float"),
    pytest.param("steps", True, "expected an integer >= 1, got True", id="steps-bool"),
    pytest.param("steps", MAX_STEPS + 1, f"must be <= {MAX_STEPS}, got {MAX_STEPS + 1}",
                 id="steps-past-bound"),
    pytest.param("mode", [], "must be one of literal, derived, both, got []", id="mode-list"),
    pytest.param("mode", "fast", "must be one of literal, derived, both, got 'fast'",
                 id="mode-unknown"),
])
def test_a_sweep_steps_or_mode_is_refused_by_one_rule(monkeypatch, field, value, message):
    # at /sweep/<field> in a config, and at sweep.<field> from run_sweep on
    # a SweepSpec built in code, before any point is built
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"sweep": {field: value}}))
    assert err.value.violations == [f"/sweep/{field}: {message}"]
    built = []
    monkeypatch.setattr(rpif.sweep, "_internal_points", lambda *args: built.append(args))
    spec = dataclasses.replace(SweepSpec(parameter="z2", start=0.0, stop=1.0, steps=3),
                               **{field: value})
    with pytest.raises(ValidationError) as err:
        run_sweep(make_scenario(), spec)
    assert err.value.violations == [f"sweep.{field}: {message}"]
    assert built == []


def test_a_scale_that_makes_the_mass_positive_does_not_rescue_the_scenario():
    rows = run_sweep(_unvalidated(m=-1.0, hbar=-1.0),
                     SweepSpec(parameter="m_over_hbar_scale", start=-1.0, stop=1.0, steps=3))
    assert len(_errors(rows)) == 1 and None not in _errors(rows)
    assert all(np.isnan(row.intensity) for row in rows)


def test_sweep_each_parameter():
    scenario, _ = parse_config(_config())
    for name, value in (("z2", 0.7), ("delta_a", 1.5), ("delta_b", 1.7),
                        ("g", 2.0), ("m_over_hbar_scale", 3.0)):
        changed = apply_sweep_value(scenario, name, value)
        if name == "m_over_hbar_scale":
            assert changed.params.m == 3.0 and changed.params.hbar == 3.0
        elif name == "g":
            assert changed.params.g == 2.0
        elif name == "z2":
            assert changed.z2 == 0.7
        elif name == "delta_a":
            assert changed.beam_a.resolution == 1.5
        else:
            assert changed.beam_b.resolution == 1.7


def test_oracle_deviation_small_on_baseline():
    scenario, _ = parse_config(_config())
    spec = SweepSpec(parameter="z2", start=0.5, stop=0.5, steps=1,
                     mode="derived", oracle_schedule=(256, 512, 1024))
    rows = run_sweep(scenario, spec)
    assert rows[0].oracle_dev is not None
    assert rows[0].oracle_dev <= 1e-6


# ---------------------------------------------------------------------------
# reuse of per-beam blocks across rows and points
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, module, name: str) -> list:
    """Log each call of module.name."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture()
def triangle_calls(monkeypatch):
    from rpif import quadrature
    return _count_calls(monkeypatch, quadrature, "integrate_triangle")


#: the smooth beams of BASE_CONFIG, and a tabulated beam a whose samples
#: miss the breakpoint of a tabulated frame profile: the two beams split
#: the window differently, and are still integrated in one batch
RECORDS = {
    "smooth": {},
    "tabulated": {
        "frame_profile": {"kind": "tabulated", "times": [0.0, 0.5, 1.0],
                          "values": [1.0, 0.8, 1.1]},
        "beam_a": {"trajectory": {"kind": "tabulated", "times": [0.0, 0.23, 0.37, 0.61, 1.0],
                                  "values": [0.1, 0.15, 0.05, -0.05, 0.1]},
                   "resolution": 1.0},
    },
}


@pytest.mark.parametrize("records", sorted(RECORDS))
def test_z2_sweep_integrates_each_beam_once(triangle_calls, records):
    scenario, _ = parse_config(_config(**RECORDS[records]))
    spec = SweepSpec(parameter="z2", start=0.0, stop=1.0, steps=16, mode="both")
    rows = run_sweep(scenario, spec)
    assert len(rows) == 32 and all(row.error is None for row in rows)
    # one evaluation: 1 action block call + 1 literal endpoint-free block
    # call (j1 and j2 together), each for both beams
    assert len(triangle_calls) == 2


def test_g_sweep_integrates_each_beam_once(triangle_calls):
    # the blocks are g-free rows combined with g at read time, so a g sweep
    # integrates as often as a z2 sweep
    scenario, _ = parse_config(_config())
    spec = SweepSpec(parameter="g", start=0.0, stop=2.0, steps=16, mode="both")
    rows = run_sweep(scenario, spec)
    assert len(rows) == 32 and all(row.error is None for row in rows)
    assert len(triangle_calls) == 2


@pytest.mark.parametrize("records", sorted(RECORDS))
def test_delta_a_sweep_integrates_beam_b_once(triangle_calls, records):
    scenario, _ = parse_config(_config(**RECORDS[records]))
    steps = 5
    spec = SweepSpec(parameter="delta_a", start=0.5, stop=2.5, steps=steps,
                     mode="both")
    rows = run_sweep(scenario, spec)
    assert all(row.error is None for row in rows)
    # beam a at all five resolutions and beam b are one evaluation: their
    # action rows in one triangle call, and their literal rows in another
    assert len(triangle_calls) == 2


#: the row builders an evaluation calls, as ``interference`` names them
ROW_BUILDERS = ("_batch_action_rows", "_batch_literal_rows", "_batch_lattice_rows")

#: a range of each sweep parameter over which every point is valid
SWEEP_RANGES = {"z2": (-1.0, 1.0), "delta_a": (0.5, 2.5), "delta_b": (0.5, 2.5),
                "g": (0.0, 2.0), "m_over_hbar_scale": (0.5, 2.0)}


@pytest.mark.parametrize("units", ["internal", "physical"])
@pytest.mark.parametrize("parameter", sorted(SWEEP_RANGES))
def test_each_row_builder_is_called_once_per_sweep(monkeypatch, parameter, units):
    # the points of a sweep share their frame profile and units, whatever
    # is swept: each kind of row is built in one call.  In physical units an
    # m_over_hbar_scale point is rescaled in full, so every point gets a
    # fresh frame profile object, equal by value
    from rpif import interference
    from rpif.sweep import _internal_points
    scenario = (make_scenario() if units == "internal" else
                make_scenario(m=2.7, hbar=0.37, tau_start=0.3, tau_end=1.9))
    calls = {name: _count_calls(monkeypatch, interference, name) for name in ROW_BUILDERS}
    start, stop = SWEEP_RANGES[parameter]
    spec = SweepSpec(parameter=parameter, start=start, stop=stop, steps=4, mode="both",
                     oracle_schedule=(64, 128, 256))
    rows = run_sweep(scenario, spec)
    assert len(rows) == 8 and _errors(rows) == {None}
    assert {name: len(count) for name, count in calls.items()} == dict.fromkeys(
        ROW_BUILDERS, 1)
    if parameter == "m_over_hbar_scale" and units == "physical":
        frames = [nd.frame_profile for nd in _internal_points(scenario, parameter,
                                                              spec.points())]
        assert len({id(f) for f in frames}) == 4 and len(set(frames)) == 1


def test_a_sweep_with_no_valid_point_builds_no_row(monkeypatch):
    # every resolution is negative: no point reaches an evaluation, and the
    # oracle has no beam to reduce
    from rpif import interference
    calls = {name: _count_calls(monkeypatch, interference, name) for name in ROW_BUILDERS}
    spec = SweepSpec(parameter="delta_a", start=-2.0, stop=-1.0, steps=3, mode="both",
                     oracle_schedule=(64, 128, 256))
    rows = run_sweep(make_scenario(), spec)
    assert len(rows) == 6
    for row in rows:
        assert row.error.startswith("ValidationError: beam_a.resolution")
        assert np.isnan(row.intensity) and row.oracle_dev is None
    assert all(not count for count in calls.values())


def test_a_second_decompose_integrates_again(monkeypatch):
    # no row outlives the call that computed it: a second decompose of the
    # same config integrates its beams again, to the same bits
    from rpif import decompose, quadrature
    scenario, _ = parse_config("{}")
    first = decompose(scenario)
    nodes = []
    integrate = quadrature.integrate

    def counted(fn, *args, **kwargs):
        def inner(t):
            nodes.append(np.size(t))
            return fn(t)
        return integrate(inner, *args, **kwargs)
    monkeypatch.setattr(quadrature, "integrate", counted)
    assert decompose(scenario) == first
    assert sum(nodes) > 0


def test_oracle_runs_once_per_point(monkeypatch):
    from rpif import interference
    calls = _count_calls(monkeypatch, interference, "oracle_propagator")
    scenario, _ = parse_config(_config())
    spec = SweepSpec(parameter="z2", start=0.0, stop=1.0, steps=3, mode="both",
                     oracle_schedule=(64, 128, 256))
    rows = run_sweep(scenario, spec)
    assert [row.oracle_dev for row in rows[::2]] == [row.oracle_dev for row in rows[1::2]]
    assert len(calls) == 3 * 2  # points x beams, not x modes


def test_oracle_reduces_once_for_points_equal_in_internal_units(monkeypatch):
    # with m = hbar = 1, scaling both by the same factor leaves hbar*T/m
    # exactly 1, so every point is bit-identical in internal units: the
    # oracle reads each point's lattice rows, but reduces each beam and
    # samples each function only once per level
    from rpif import interference, lattice
    calls = _count_calls(monkeypatch, interference, "oracle_propagator")
    reduced = _count_calls(monkeypatch, lattice, "_reduce_level")
    sampled = _count_calls(monkeypatch, lattice, "_midpoint_samples")
    scenario, _ = parse_config(_config())
    schedule = (64, 128, 256)
    spec = SweepSpec(parameter="m_over_hbar_scale", start=1.0, stop=4.0, steps=4,
                     mode="both", oracle_schedule=schedule)
    rows = run_sweep(scenario, spec)
    assert len({row.oracle_dev for row in rows}) == 1
    assert len(calls) == 4 * 2  # points x beams, not x modes
    assert len(reduced) == 2 * len(schedule)
    assert len(sampled) == 3 * len(schedule)


@pytest.mark.parametrize("parameter", ["z2", "g"])
def test_oracle_sweep_reduces_each_beam_once_per_level(monkeypatch, parameter):
    # the lattice rows are free of g and the endpoints: the frame profile and
    # both records are sampled once per level, and each beam is reduced once
    # per level
    from rpif import interference, lattice
    calls = _count_calls(monkeypatch, interference, "oracle_propagator")
    reduced = _count_calls(monkeypatch, lattice, "_reduce_level")
    sampled = _count_calls(monkeypatch, lattice, "_midpoint_samples")
    scenario, _ = parse_config(_config())
    schedule = (64, 128, 256)
    spec = SweepSpec(parameter=parameter, start=0.0, stop=1.0, steps=16,
                     mode="both", oracle_schedule=schedule)
    rows = run_sweep(scenario, spec)
    assert all(row.error is None and row.oracle_dev <= 1e-6 for row in rows)
    assert len(calls) == 16 * 2
    assert len(sampled) == 3 * len(schedule)
    assert len(reduced) == 2 * len(schedule)


def test_oracle_delta_a_sweep_reduces_beam_b_once(monkeypatch):
    from rpif import lattice
    reduced = _count_calls(monkeypatch, lattice, "_reduce_level")
    sampled = _count_calls(monkeypatch, lattice, "_midpoint_samples")
    scenario, _ = parse_config(_config())
    steps = 5
    schedule = (64, 128, 256)
    spec = SweepSpec(parameter="delta_a", start=0.5, stop=2.5, steps=steps,
                     mode="both", oracle_schedule=schedule)
    rows = run_sweep(scenario, spec)
    assert all(row.error is None for row in rows)
    # beam a at every point, beam b once, each once per level; no record
    # changes, so no resampling
    assert len(reduced) == (steps + 1) * len(schedule)
    assert len(sampled) == 3 * 3


def _count_everywhere(monkeypatch, functions) -> dict:
    """Count the calls of each function at every name of the package it is
    looked up by."""
    import sys
    counts = dict.fromkeys((fn.__name__ for fn in functions), 0)
    modules = [m for k, m in sys.modules.items() if k == "rpif" or k.startswith("rpif.")]
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("sweep, oracle", [
    ({"parameter": "delta_a", "start": 0.5, "stop": 2.5}, (512, 1024, 2048)),
    ({"parameter": "z2", "start": 0.0, "stop": 1.0}, None),
])
def test_each_point_is_evaluated_once_for_all_its_modes(monkeypatch, sweep, oracle):
    # both modes and the oracle of a point share one amplitude and one
    # action per beam; the stability check runs once per distinct beam (the
    # swept one at every resolution, the other once), when the sweep reads
    # the beam, and its rows are integrated without it; the scenario is
    # validated once
    from rpif import actions, scenario as scenario_module
    scenario, spec = parse_config(json.dumps({"sweep": {**sweep, "steps": 32,
                                                        "mode": "both"}}))
    spec = SweepSpec(spec.parameter, spec.start, spec.stop, spec.steps, spec.mode, oracle)
    counts = _count_everywhere(monkeypatch, (actions._amplitude, actions.ensure_stable,
                                             actions.classical_action,
                                             scenario_module.nondimensional))
    rows = run_sweep(scenario, spec)
    assert len(rows) == 64 and all(row.error is None for row in rows)
    beams = 32 + 1 if spec.parameter == "delta_a" else 2
    assert counts == {"_amplitude": 64, "ensure_stable": beams, "classical_action": 64,
                      "nondimensional": 1}


@pytest.mark.parametrize("mode, line, triangle", [
    pytest.param("derived", 2, 1, id="derived"),
    pytest.param("literal", 2, 2, id="literal"),
    pytest.param("both", 2, 2, id="both")])
def test_a_failed_row_batch_is_attempted_once(monkeypatch, mode, line, triangle):
    # beam a's quadratures cannot converge at omega = 30 000.  It shares a
    # batch with beam b: the line call fails beam a alone, which keeps its
    # error, and every point then reports it; beam b goes on, and is
    # integrated once (the line call it shares, its triangle and <c^2>; and
    # the triangle call of the printed rows, which fails beam a alone)
    from rpif import QuadratureError, actions, interference, quadrature
    line_calls = _count_calls(monkeypatch, quadrature, "integrate")
    triangle_calls = _count_calls(monkeypatch, quadrature, "integrate_triangle")
    record = {"kind": "sinusoid", "amplitude": 0.3, "omega": 30000.0, "phase": 0.0}
    scenario, spec = parse_config(_config(
        beam_a={"trajectory": record, "resolution": 1.0},
        sweep={"parameter": "z2", "start": 0.0, "stop": 1.0, "steps": 4, "mode": mode}))
    rows = run_sweep(scenario, spec)
    assert (len(line_calls), len(triangle_calls)) == (line, triangle)
    # the text of each row's error is the one a lone attempt raises
    beam, f = scenario.beam_a, scenario.frame_profile
    for compute, mode_name in ((actions._batch_action_rows, "derived"),
                               (interference._batch_literal_rows, "paper-literal")):
        want = [row.error for row in rows if row.mode == mode_name]
        if want:
            alone, = compute((beam,), f, scenario.params)
            assert isinstance(alone, QuadratureError)
            assert want == [f"QuadratureError: {alone}"] * 4


def test_a_literal_failure_fails_only_the_literal_row(monkeypatch):
    from rpif import QuadratureError, interference

    def stall(*args):
        raise QuadratureError("printed rows stalled")
    monkeypatch.setattr(interference, "_batch_literal_rows", stall)
    scenario, _ = parse_config(_config())
    spec = SweepSpec(parameter="z2", start=0.0, stop=1.0, steps=3, mode="both",
                     oracle_schedule=(64, 128, 256))
    rows = run_sweep(scenario, spec)
    assert [row.mode for row in rows] == ["paper-literal", "derived"] * 3
    for literal, derived in zip(rows[::2], rows[1::2]):
        assert literal.error == "QuadratureError: printed rows stalled"
        assert np.isnan(literal.intensity) and literal.oracle_dev is None
        assert derived.error is None and derived.oracle_dev <= 1e-6


def test_an_oracle_failure_keeps_the_earlier_failure_of_a_mode(monkeypatch):
    # the printed rows stall, and beam a lies 200 resolutions out, where its
    # lattice amplitude underflows: the literal rows keep their own error, the
    # oracle's fails the derived rows, and no row has a deviation
    from rpif import QuadratureError, interference

    def stall(*args):
        raise QuadratureError("printed rows stalled")
    monkeypatch.setattr(interference, "_batch_literal_rows", stall)
    delta = 2.0 / 55.0
    scenario, _ = parse_config(_config(beam_a={
        "trajectory": {"kind": "constant", "value": 200.0 * delta}, "resolution": delta}))
    spec = SweepSpec(parameter="z2", start=0.0, stop=0.5, steps=2, mode="both",
                     oracle_schedule=(256, 512, 1024))
    rows = run_sweep(scenario, spec)
    assert [row.mode for row in rows] == ["paper-literal", "derived"] * 2
    for literal, derived in zip(rows[::2], rows[1::2]):
        assert literal.error == "QuadratureError: printed rows stalled"
        assert derived.error.startswith(
            "LatticeError: beam_a: the lattice amplitude underflows to 0")
        assert literal.oracle_dev is None and derived.oracle_dev is None


# a beam that fails a point at one stage: the stability guard (in internal
# units |wT| = 2/delta > 60), its printed rows (omega = 30 000, whose printed
# i5 triangle stalls, and its action rows too), or its action rows alone
# (the linear record, whose action rows the test fails)
FAILING_BEAMS = {
    "stability": {"trajectory": {"kind": "constant", "value": 0.1}, "resolution": 0.01},
    "stability_too": {"trajectory": {"kind": "constant", "value": 0.1}, "resolution": 0.02},
    "literal": {"trajectory": {"kind": "sinusoid", "amplitude": 0.3, "omega": 30000.0,
                               "phase": 0.0}, "resolution": 1.0},
    "action": {"trajectory": {"kind": "linear", "slope": 0.3, "intercept": -0.1},
               "resolution": 2.0},
}

STABILITY_TEXT = ("StabilityError: stability guard tripped: resolution delta_c=0.01 gives "
                  "|Im(wT)|*sqrt(2)=200.000 > 60")
STABILITY_TOO_TEXT = ("StabilityError: stability guard tripped: resolution delta_c=0.02 gives "
                      "|Im(wT)|*sqrt(2)=100.000 > 60")
ACTION_TEXT = "QuadratureError: action rows stalled"


@functools.lru_cache(maxsize=None)
def _lone_text(mode_name: str) -> str:
    """The error text of the ``literal`` beam's rows computed as a batch of
    one: its printed rows for ``paper-literal``, its action rows for
    ``derived``, so that the expected texts follow the quadrature rule."""
    from rpif import QuadratureError, actions, interference
    compute = {"paper-literal": interference._batch_literal_rows,
               "derived": actions._batch_action_rows}[mode_name]
    scenario, _ = parse_config(_config(beam_a=FAILING_BEAMS["literal"]))
    alone, = compute((scenario.beam_a,), scenario.frame_profile, scenario.params)
    assert isinstance(alone, QuadratureError)
    return f"QuadratureError: {alone}"


LITERAL_TEXT = functools.partial(_lone_text, "paper-literal")
LITERAL_ACTION_TEXT = functools.partial(_lone_text, "derived")
LONE_IDS = {LITERAL_TEXT: "QuadratureError of the printed rows alone",
            LITERAL_ACTION_TEXT: "QuadratureError of the action rows alone"}


@pytest.mark.parametrize("stage_a, stage_b, literal, derived", [
    # the stability guard comes first, whichever beam trips it, beam a first
    ("stability", "literal", STABILITY_TEXT, STABILITY_TEXT),
    ("literal", "stability", STABILITY_TEXT, STABILITY_TEXT),
    ("stability", "action", STABILITY_TEXT, STABILITY_TEXT),
    ("action", "stability", STABILITY_TEXT, STABILITY_TEXT),
    ("stability", "stability_too", STABILITY_TEXT, STABILITY_TEXT),
    ("stability_too", "stability", STABILITY_TOO_TEXT, STABILITY_TOO_TEXT),
    # then the literal mode's printed rows, and the actions, beam a first
    ("literal", "action", LITERAL_TEXT, LITERAL_ACTION_TEXT),
    ("action", "literal", LITERAL_TEXT, ACTION_TEXT),
], ids=LONE_IDS.get)
@pytest.mark.parametrize("mode", ["literal", "derived", "both"])
def test_a_point_reports_the_first_failure_of_its_beams(monkeypatch, stage_a, stage_b,
                                                        literal, derived, mode):
    from rpif import QuadratureError, interference
    rows = interference._batch_action_rows

    def stall(beams, *args):
        return [QuadratureError("action rows stalled") if beam.trajectory.kind == "linear"
                else entry for beam, entry in zip(beams, rows(beams, *args))]
    monkeypatch.setattr(interference, "_batch_action_rows", stall)
    scenario, spec = parse_config(_config(
        beam_a=FAILING_BEAMS[stage_a], beam_b=FAILING_BEAMS[stage_b],
        sweep={"parameter": "z2", "start": 0.0, "stop": 1.0, "steps": 2, "mode": mode}))
    want = {mode_name: text() if callable(text) else text
            for mode_name, text in (("paper-literal", literal), ("derived", derived))}
    got = run_sweep(scenario, spec)
    assert len(got) == 2 * (2 if mode == "both" else 1)
    assert [row.error for row in got] == [want[row.mode] for row in got]


def _as_lone_points(scenario, spec, rows):
    """Check that each row is what a lone ``decompose`` of its point gives:
    the same error text, or the same numbers (NaN equal to NaN)."""
    from rpif import RpifError, decompose
    for row in rows:
        point = apply_sweep_value(scenario, spec.parameter, row.swept_value)
        try:
            alone = decompose(point, row.mode)
        except RpifError as exc:
            assert row.error == f"{type(exc).__name__}: {exc}", row
            continue
        assert row.error is None, row
        for name in ("intensity", "reduced_i", "i1", "i2", "i3", "i4", "i5",
                     "phase_difference", "residual"):
            got, want = getattr(row, name), getattr(alone, name)
            assert got == want or (np.isnan(got) and np.isnan(want)), (row, name)


@pytest.mark.parametrize("steps", [1, 3, 8])
@pytest.mark.parametrize("parameter", ["z2", "g"])
def test_an_overflowing_action_fails_its_rows_without_a_warning(parameter, steps):
    # up to 1e200 the action of every point but 0 overflows; each such row
    # fails with the error of a lone point, and no numpy RuntimeWarning
    # reaches the caller (the suite makes one an error), in a sweep of one
    # point or of several
    start = 1e200 if steps == 1 else 0.0
    scenario, spec = parse_config(json.dumps({"sweep": {
        "parameter": parameter, "start": start, "stop": 1e200, "steps": steps,
        "mode": "both"}}))
    rows = run_sweep(scenario, spec)
    assert sum(row.error is not None for row in rows) == 2 * (steps - 1 if steps > 1 else 1)
    _as_lone_points(scenario, spec, rows)


def test_a_printed_term_that_overflows_is_reported_as_alone():
    # the printed i5 overflows at points whose actions do not; such a
    # literal row fails with the error of a lone point, and no row reports
    # a term that is not finite, whether g or z2 is swept
    for config in ({"sweep": {"parameter": "g", "start": 1e154, "stop": 1e155,
                              "steps": 8, "mode": "both"}},
                   {"params": {"g": 5e154}, "sweep": {"parameter": "z2", "start": 0.0,
                                                      "stop": 1.0, "steps": 8,
                                                      "mode": "both"}}):
        scenario, spec = parse_config(json.dumps(config))
        rows = run_sweep(scenario, spec)
        assert any(row.mode == "paper-literal" and row.error is not None
                   and "i5 is not finite" in row.error for row in rows)
        assert all(np.isfinite(row.i5) for row in rows if row.error is None)
        _as_lone_points(scenario, spec, rows)


@pytest.mark.parametrize("start", [1e150, 1e154, 1e160])
def test_a_huge_g_sweep_with_the_oracle_fails_every_row_without_a_warning(start):
    # a tabulated beam and g from 1e150 up: every row fails, with the error
    # of a non-finite action or the lattice's, and no numpy RuntimeWarning
    # reaches the caller (the suite makes one an error); a row records only
    # an RpifError, anything else would end the sweep.  Without the oracle,
    # a 32-point sweep warns no more: each of its rows is its lone point's,
    # an error or finite numbers
    scenario, spec = parse_config(_config(beam_a={
        "trajectory": {"kind": "tabulated", "times": [0.0, 0.3, 0.7, 1.0],
                       "values": [0.1, 0.2, -0.1, 0.0]}, "resolution": 1.0}))
    spec = SweepSpec(parameter="g", start=start, stop=10.0 * start, steps=4, mode="both",
                     oracle_schedule=(256, 512, 1024))
    rows = run_sweep(scenario, spec)
    assert len(rows) == 8 and all(row.error is not None for row in rows)
    spec = SweepSpec(parameter="g", start=start, stop=10.0 * start, steps=32, mode="both")
    rows = run_sweep(scenario, spec)
    assert len(rows) == 64
    assert all(np.isfinite(row.i5) for row in rows if row.error is None)
    _as_lone_points(scenario, spec, rows)


def test_a_resolution_sweep_fails_only_the_resolution_whose_rate_overflows():
    # at 1e-200, delta^2 underflows to 0 and 4*hbar/(m*T*delta^2) is not
    # finite: that point trips the stability guard, and the others are
    # evaluated, with the oracle
    scenario, _ = parse_config(_config())
    spec = SweepSpec(parameter="delta_a", start=1e-200, stop=1.0, steps=3, mode="both",
                     oracle_schedule=(256, 512, 1024))
    rows = run_sweep(scenario, spec)
    assert [row.swept_value for row in rows] == [1e-200] * 2 + [0.5] * 2 + [1.0] * 2
    text = ("StabilityError: stability guard tripped: resolution delta_c=1e-200 gives "
            "|Im(wT)|*sqrt(2)=inf > 60")
    assert [row.error for row in rows[:2]] == [text, text]
    assert all(row.error is None and row.oracle_dev <= 1e-6 for row in rows[2:])


def test_a_scale_sweep_point_whose_units_cannot_be_formed_fails_its_row():
    # on a window of 1e-20, scaling m and hbar by 1e-310 underflows
    # hbar*T/m to 0: that point fails with the validation error, and the
    # other is evaluated
    scenario, _ = parse_config(_config(params={"tau_end": 1e-20}))
    spec = SweepSpec(parameter="m_over_hbar_scale", start=1e-310, stop=1.0, steps=2,
                     mode="derived")
    first, last = run_sweep(scenario, spec)
    assert first.error.startswith(
        "ValidationError: params: the internal units cannot be formed, need "
        "sqrt(hbar*T/m) and sqrt(m*T^3/hbar) positive and finite (got 0.0 and ")
    assert last.error is None


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def _one_row():
    scenario, _ = parse_config(_config())
    spec = SweepSpec(parameter="z2", start=0.5, stop=0.5, steps=1, mode="derived")
    return run_sweep(scenario, spec)


def test_csv_header_and_line_count():
    text = render_csv(_one_row())
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_csv_round_trip_is_bit_exact():
    rows = _one_row()
    text = render_csv(rows)
    header, line = text.strip().split("\n")
    cells = line.split(",")
    names = header.split(",")
    parsed = dict(zip(names, cells))
    row = rows[0]
    for name in ("swept_value", "intensity", "reduced_i", "i1", "i2", "i3",
                 "i4", "i5", "phase_difference", "residual"):
        assert float(parsed[name]) == getattr(row, name)
    assert parsed["mode"] == row.mode
    assert parsed["oracle_dev"] == ""


def test_json_round_trip():
    rows = _one_row()
    payload = json.loads(render_json(rows))
    assert len(payload) == 1
    entry = payload[0]
    row = rows[0]
    assert set(entry) == {"swept_value", "mode", "intensity", "reduced_i",
                          "i1", "i2", "i3", "i4", "i5", "phase_difference",
                          "residual", "oracle_dev"}
    for name in ("swept_value", "intensity", "reduced_i", "phase_difference"):
        assert entry[name] == getattr(row, name)
    assert entry["oracle_dev"] is None


def test_emit_requires_rows(tmp_path):
    from rpif import RpifError, emit_results
    with pytest.raises(RpifError):
        emit_results([], "csv", str(tmp_path / "out.csv"))


def test_emit_refuses_a_destination_that_is_neither_a_path_nor_a_stream():
    from rpif import RpifError, emit_results
    with pytest.raises(RpifError, match="^cannot write to destination 42$"):
        emit_results(_one_row(), "csv", 42)


@pytest.mark.parametrize("fmt", ["xml", "CSV", ""])
def test_emit_refuses_a_format_it_does_not_know(tmp_path, fmt):
    from rpif import RpifError, emit_results
    out = tmp_path / "rows.out"
    with pytest.raises(RpifError) as info:
        emit_results(_one_row(), fmt, str(out))
    assert str(info.value) == f"unknown format {fmt!r}, expected one of csv, json"
    assert not out.exists()


def test_emit_to_path(tmp_path):
    from rpif import emit_results
    rows = _one_row()
    out = tmp_path / "rows.csv"
    emit_results(rows, "csv", str(out))
    assert out.read_text().startswith(CSV_HEADER)


# ---------------------------------------------------------------------------
# mode comparison
# ---------------------------------------------------------------------------

def test_compare_modes_symmetric_scenario_agrees():
    scenario = make_scenario(delta_a=1.5, delta_b=1.5,
                             a=ConstantFunction(0.1), b=ConstantFunction(0.1))
    cmp = compare_modes(scenario)
    assert cmp.max_term_gap <= 1e-12
    assert not cmp.exceeds_tolerance()


def test_compare_modes_baseline_reports_gap():
    cmp = compare_modes(make_scenario())
    assert cmp.derived.residual <= 1e-8
    assert cmp.exceeds_tolerance()  # the documented literal-mode discrepancy
    assert np.isfinite(cmp.literal.residual)


def test_compare_modes_report_renders():
    from rpif.sweep import render_comparison
    text = render_comparison(compare_modes(make_scenario()))
    assert "paper-literal" in text and "derived" in text and "residual" in text


def test_compare_modes_frame_profile_zero_matches_across_g():
    reports = []
    for g in (0.0, 9.8):
        scenario = make_scenario(g=g, f=ConstantFunction(0.0))
        cmp = compare_modes(scenario)
        reports.append((cmp.literal, cmp.derived))
    for attr in ("i1", "i2", "i3", "i4", "i5", "phase_difference",
                 "reduced_i", "intensity", "residual"):
        assert getattr(reports[0][0], attr) == pytest.approx(
            getattr(reports[1][0], attr), abs=1e-10)
        assert getattr(reports[0][1], attr) == pytest.approx(
            getattr(reports[1][1], attr), abs=1e-10)
