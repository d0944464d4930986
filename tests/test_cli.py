import functools
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import rpif
from rpif import cli
from rpif.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_MODES, EXIT_OK, main
from rpif.lattice import MAX_LEVEL
from rpif.sweep import MAX_STEPS, parse_oracle_schedule

BASE = {
    "params": {"m": 1.0, "g": 1.0, "hbar": 1.0, "tau_start": 0.0, "tau_end": 1.0},
    "z1": 0.0, "z2": 0.5,
    "frame_profile": {"kind": "constant", "value": 1.0},
    "beam_a": {"trajectory": {"kind": "constant", "value": 0.1}, "resolution": 1.0},
    "beam_b": {"trajectory": {"kind": "constant", "value": -0.1}, "resolution": 2.0},
    "sweep": {"parameter": "z2", "start": 0.0, "stop": 1.0, "steps": 3,
              "mode": "derived"},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE))
    return str(path)


def _config_file(tmp_path, mode="derived", **fields) -> str:
    """The path of BASE with ``fields`` replaced and its sweep in ``mode``,
    written to a file named after the mode."""
    doc = dict(BASE, sweep=dict(BASE["sweep"], mode=mode), **fields)
    path = tmp_path / f"{mode}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(config_path, capsys):
    assert main(["validate", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "config OK" in out


def test_validate_reports_all_violations(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "beam_a": {"trajectory": {"kind": "constant", "value": 0.1}},
        "sweep": {"steps": 0},
    }))
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "/beam_a/resolution" in err
    assert "/sweep/steps" in err


@pytest.mark.parametrize("text, path", [
    # an integer too large for a float, where the scenario and the sweep read
    # numbers and where a record is built, and one with more digits than int()
    # converts, which json.loads cannot read as an int
    pytest.param('{"z1": 1%s}' % ("0" * 310), "/z1", id="z1"),
    pytest.param('{"params": {"m": -1%s}}' % ("0" * 310), "/params/m", id="m"),
    pytest.param('{"sweep": {"start": 0, "stop": 1%s}}' % ("0" * 310), "/sweep/stop",
                 id="stop"),
    pytest.param('{"beam_a": {"trajectory": {"kind": "constant", "value": 1%s}, '
                 '"resolution": 1}}' % ("0" * 310), "/beam_a/trajectory/value", id="record"),
    pytest.param('{"z2": -1%s}' % ("0" * 5000), "/z2", id="digits"),
])
def test_a_number_past_the_float_range_is_a_config_error(tmp_path, capsys, text, path):
    config = tmp_path / "big.json"
    config.write_text(text)
    assert main(["validate", "--config", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config invalid:") and f"  {path}: must be " in err


@pytest.mark.parametrize("sweep, oracle, path", [
    # validate only parses, and simulate refuses a flag before it runs, so
    # nothing of the size asked for is allocated
    pytest.param({"steps": 10 ** 320}, None, "/sweep/steps", id="digits"),
    pytest.param({"steps": MAX_STEPS + 1}, None, "/sweep/steps", id="steps"),
    pytest.param({}, f"{MAX_LEVEL},{2 * MAX_LEVEL},{4 * MAX_LEVEL}", "--oracle/1",
                 id="oracle"),
])
def test_a_count_past_its_bound_is_a_config_error(tmp_path, capsys, sweep, oracle, path):
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"sweep": sweep}))
    argv = (["validate", "--config", str(config)] if oracle is None else
            ["simulate", "--config", str(config), "--oracle", oracle])
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config invalid:") and f"  {path}: " in err
    # each bound itself is taken
    config.write_text(json.dumps({"sweep": {"steps": MAX_STEPS}}))
    assert main(["validate", "--config", str(config)]) == EXIT_OK
    assert f"in {MAX_STEPS} step(s)" in capsys.readouterr().out
    sizes = (MAX_LEVEL // 4, MAX_LEVEL // 2, MAX_LEVEL)
    assert parse_oracle_schedule(",".join(map(str, sizes)), "--oracle") == (sizes, [])


def test_an_oracle_flag_past_the_bound_is_refused():
    schedule, problems = parse_oracle_schedule(
        f"{MAX_LEVEL},{2 * MAX_LEVEL},{4 * MAX_LEVEL}", "--oracle")
    assert schedule is None
    assert problems == [f"--oracle/1: lattice sizes must be <= {MAX_LEVEL}, got {2 * MAX_LEVEL}",
                        f"--oracle/2: lattice sizes must be <= {MAX_LEVEL}, got {4 * MAX_LEVEL}"]


@pytest.mark.parametrize("sweep, oracle, paths", [
    # a reversed range beside another problem of the section
    pytest.param({"start": 2, "stop": 1, "mode": "fast"}, None,
                 ["/sweep/mode", "/sweep/start"], id="mode"),
    pytest.param({"start": 2, "stop": 1, "paramter": "g"}, None,
                 ["/sweep/paramter", "/sweep/start"], id="unknown-key"),
    # every bad lattice size of --oracle at its index, and the count and
    # the doubling beside them
    pytest.param({}, f"0,512,{2 * MAX_LEVEL}", ["--oracle/0", "--oracle/2"],
                 id="oracle-entries"),
    pytest.param({}, "0,3", ["--oracle/0", "--oracle: need at least 3"], id="oracle-count"),
    pytest.param({}, "3,5", ["--oracle: need at least 3", "--oracle: sizes must"],
                 id="oracle-doubling"),
    pytest.param({}, "256,x,1024", ["--oracle: expected comma-separated integers"],
                 id="oracle-text"),
])
def test_every_sweep_problem_is_reported_at_once(tmp_path, capsys, sweep, oracle, paths):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"sweep": sweep}))
    if oracle is None:
        with pytest.raises(rpif.ConfigError) as err:
            rpif.parse_config(json.dumps({"sweep": sweep}))
        violations = err.value.violations
        argv = ["validate", "--config", str(config)]
    else:
        _, violations = parse_oracle_schedule(oracle, "--oracle")
        argv = ["simulate", "--config", str(config), "--oracle", oracle]
    assert len(violations) == len(paths)
    for path in paths:
        assert any(v.startswith(path) for v in violations), path
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(f"  {path}" in err for path in paths)


@pytest.mark.parametrize("text, violation", [
    ("[]", "/: expected a JSON object at the top level"),
    ('{"params": [1.0]}', "/params: expected an object"),
    ('{"beam_a": 0.1}', "/beam_a: expected an object"),
    ('{"beam_b": [1]}', "/beam_b: expected an object"),
    ('{"sweep": "z2"}', "/sweep: expected an object"),
    ('{"frame_profile": [1.0]}', "/frame_profile: expected an object, got list"),
])
def test_a_section_that_is_not_an_object_is_a_config_error(tmp_path, capsys, text, violation):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    # reported once: a beam section that is not an object has no
    # resolution to miss
    assert capsys.readouterr().err.splitlines() == ["config invalid:", f"  {violation}"]


def test_a_scenario_that_is_not_a_mapping_is_refused_at_the_root():
    with pytest.raises(rpif.ValidationError) as err:
        rpif.scenario_from_dict([])
    assert err.value.violations == ["/: expected an object"]


def test_an_oracle_in_the_config_is_an_unknown_property(tmp_path, capsys):
    # the lattice oracle is asked for with --oracle alone
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"sweep": {"oracle": [256, 512, 1024]}}))
    for command in ("validate", "simulate"):
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config invalid:", "  /sweep/oracle: unknown property"]


def test_the_mode_is_the_configs_alone(config_path):
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--config", config_path, "--mode", "both"])
    assert exit_.value.code == 2


def test_an_oracle_flag_reports_every_bad_size(config_path, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", config_path, "--output", str(out),
                 "--oracle", f"0,512,{2 * MAX_LEVEL}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "  --oracle/0: " in err and "  --oracle/2: " in err
    assert not out.exists()


def test_missing_config_file_is_config_error(capsys):
    assert main(["validate", "--config", "/nonexistent/path.json"]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_simulate_writes_csv(config_path, tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", config_path,
                 "--output", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("swept_value,mode,")
    assert len(lines) == 4  # header + 3 points


def test_simulate_stdout_json(config_path, capsys):
    assert main(["simulate", "--config", config_path, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 3


def test_simulate_deterministic_bytes(config_path, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", config_path, "--output", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", config_path, "--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("sweep, calls", [
    # the parsed scenario and the sweep's base, at the neutral value of the
    # swept field: each put into internal units once, by its validation
    ({"parameter": "z2", "start": 0.0, "stop": 1.0, "steps": 3}, 2),
    ({"parameter": "delta_a", "start": 0.5, "stop": 2.0, "steps": 3}, 2),
    ({"parameter": "g", "start": 0.5, "stop": 2.0, "steps": 3}, 2),
    # and each m_over_hbar_scale point, rescaled in full
    ({"parameter": "m_over_hbar_scale", "start": 1.5, "stop": 2.0, "steps": 3}, 5)])
def test_simulate_rescales_each_scenario_once(tmp_path, monkeypatch, sweep, calls):
    seen = []
    rescale = rpif.Scenario.nondimensionalized

    def counted(scenario):
        seen.append(scenario)
        return rescale(scenario)
    monkeypatch.setattr(rpif.Scenario, "nondimensionalized", counted)
    doc = dict(BASE, params={"m": 2.0, "g": 1.0, "hbar": 0.5, "tau_start": 1.0,
                             "tau_end": 3.0}, sweep=dict(sweep, mode="both"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "o.csv")]) == EXIT_OK
    assert len(seen) == calls
    assert len(set(map(id, seen))) == calls  # no scenario twice


def test_simulate_jobs_do_not_change_bytes(tmp_path):
    path = _config_file(tmp_path, mode="both")
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "threaded.csv"
    assert main(["simulate", "--config", path, "--output", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", path, "--jobs", "4",
                 "--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_oracle_column(tmp_path):
    doc = dict(BASE)
    doc["sweep"] = {"parameter": "z2", "start": 0.5, "stop": 0.5, "steps": 1,
                    "mode": "derived"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--oracle", "64,128,256",
                 "--output", str(out)]) == EXIT_OK
    header, row = out.read_text().strip().split("\n")
    dev = row.split(",")[-1]
    assert dev != ""
    assert float(dev) < 1e-4


def test_simulate_bad_oracle_flag(config_path, capsys):
    assert main(["simulate", "--config", config_path,
                 "--oracle", "10,20"]) == EXIT_CONFIG
    assert "--oracle" in capsys.readouterr().err


def test_simulate_guard_exit_code(tmp_path, capsys):
    doc = dict(BASE)
    doc["sweep"] = {"parameter": "delta_a", "start": 0.02, "stop": 1.0,
                    "steps": 2, "mode": "derived"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--output", str(out)]) == EXIT_GUARD
    # partial data still emitted, failing row diagnosed on stderr
    assert len(out.read_text().strip().split("\n")) == 3
    assert "stability guard" in capsys.readouterr().err


def test_simulate_strict_modes_exit_code(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", _config_file(tmp_path, mode="both"),
                 "--strict-modes", "--output", str(out)]) == EXIT_MODES


def test_simulate_strict_modes_passes_when_symmetric(tmp_path):
    doc = dict(BASE)
    doc["beam_b"] = {"trajectory": {"kind": "constant", "value": 0.1},
                     "resolution": 1.0}
    doc["sweep"] = {"parameter": "z2", "start": 0.2, "stop": 0.8, "steps": 2,
                    "mode": "both"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--strict-modes",
                 "--output", str(out)]) == EXIT_OK


def test_compare_exit_signals_documented_discrepancy(config_path, capsys):
    assert main(["compare", "--config", config_path]) == EXIT_MODES
    out = capsys.readouterr().out
    assert "paper-literal" in out and "derived" in out


def test_compare_symmetric_exit_ok(tmp_path, capsys):
    doc = dict(BASE)
    doc["beam_b"] = {"trajectory": {"kind": "constant", "value": 0.1},
                     "resolution": 1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["compare", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("beam_a, error", [
    # past the stability guard
    ({"trajectory": {"kind": "constant", "value": 0.1}, "resolution": 0.01},
     "StabilityError: stability guard tripped"),
    # a record whose quadratures cannot converge
    ({"trajectory": {"kind": "sinusoid", "amplitude": 0.3, "omega": 30000.0},
      "resolution": 1.0}, "QuadratureError: "),
    # so coarse that the printed denominator rounds to 0
    ({"trajectory": {"kind": "constant", "value": 0.1}, "resolution": 1e10},
     "RpifError: paper-literal: the printed denominator"),
])
def test_compare_reports_a_failed_scenario_and_exits_2(tmp_path, capsys, beam_a, error):
    doc = dict(BASE, beam_a=beam_a)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["compare", "--config", str(path)]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"compare failed: {error}")


@pytest.mark.parametrize("resolution", [1e-200, 1e-161])
def test_a_resolution_whose_rate_overflows_trips_the_guard(tmp_path, capsys, resolution):
    # delta^2 underflows: the config is valid, and the guard fails its row,
    # or the compared scenario, with exit 2 rather than a traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beam_a": {"trajectory": {"kind": "constant", "value": 0.1},
                                           "resolution": resolution}}))
    text = (f"StabilityError: stability guard tripped: resolution delta_c={resolution:g} "
            f"gives |Im(wT)|*sqrt(2)=inf > 60")
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--output", str(out)]) == EXIT_GUARD
    assert capsys.readouterr().err == f"row swept_value=0.5 mode=derived: {text}\n"
    assert main(["compare", "--config", str(path)]) == EXIT_GUARD
    assert capsys.readouterr().err == f"compare failed: {text}\n"


@pytest.mark.parametrize("params", [{"tau_end": 1e300}, {"m": 1e30, "tau_end": 1e-300}])
@pytest.mark.parametrize("command", ["validate", "simulate", "compare"])
def test_params_whose_internal_units_cannot_be_formed_are_a_config_error(
        tmp_path, capsys, params, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": params}))
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "config invalid:" and len(lines) == 2
    assert lines[1].startswith("  /params: the internal units cannot be formed")


@pytest.mark.parametrize("config, path", [
    # omega*T and the slope times T overflow
    ({"params": {"tau_end": 10.0},
      "beam_a": {"trajectory": {"kind": "sinusoid", "omega": 1e308}, "resolution": 1.0}},
     "/beam_a/trajectory"),
    ({"params": {"tau_end": 10.0},
      "frame_profile": {"kind": "linear", "slope": 1e308, "intercept": 0}}, "/frame_profile"),
])
@pytest.mark.parametrize("command", ["validate", "simulate", "compare"])
def test_a_function_that_overflows_in_internal_units_is_a_config_error(
        tmp_path, capsys, config, path, command):
    file = tmp_path / "cfg.json"
    file.write_text(json.dumps(config))
    assert main([command, "--config", str(file)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "config invalid:",
        f"  {path}: not every field is finite in internal units (time in units of "
        f"tau_end - tau_start, lengths in sqrt(hbar*T/m))"]


def test_simulate_fails_the_rows_of_a_record_near_the_double_range(tmp_path, capsys):
    # the triangle's sums overflow: each row fails, with no warning
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beam_a": {"trajectory": {"kind": "constant", "value": 1e160},
                                           "resolution": 1.0}}))
    assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "o.csv")]) \
        == EXIT_GUARD
    assert capsys.readouterr().err == (
        "row swept_value=0.5 mode=derived: QuadratureError: non-finite estimate over [0, 1]\n")


def test_simulate_fails_the_rows_of_a_record_past_its_node_budget(tmp_path, capsys):
    # a sinusoid record at omega = 30 000: its triangle integrals need more
    # nodes than their budget, and the message names both
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beam_a": {"trajectory": {
        "kind": "sinusoid", "amplitude": 0.3, "omega": 30000.0, "phase": 0.0},
        "resolution": 1.0}}))
    assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "o.csv")]) \
        == EXIT_GUARD
    assert capsys.readouterr().err == (
        "row swept_value=0.5 mode=derived: QuadratureError: triangle integral over [0, 1] "
        "at rate 60004 needs 64960 nodes per axis, more than its budget of 4096\n")


@pytest.mark.parametrize("trajectory, violation", [
    # a tabulated record short of the window
    ({"kind": "tabulated", "times": [0.2, 1.0], "values": [0.0, 1.0]},
     "/beam_a/trajectory/times: samples [0.2, 1] do not cover the interval [0, 1]"),
    # a record value that is a string
    ({"kind": "constant", "value": "0.25"},
     "/beam_a/trajectory/value: expected a number, got '0.25'"),
])
def test_validate_refuses_a_record_that_only_parses(tmp_path, capsys, trajectory, violation):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beam_a": {"trajectory": trajectory, "resolution": 1.0}}))
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["config invalid:", f"  {violation}"]


@pytest.mark.parametrize("params, violations", [
    # a dot in a number stays a dot
    ('{"tau_start": 2.0, "tau_end": 1.0}',
     ["/params: time ordering violated, need tau_end > tau_start (got [2.0, 1.0])"]),
    # each bound past the float range at its own path
    ('{"tau_end": 1e400}', ["/params/tau_end: must be finite, got inf"]),
    ('{"tau_start": -1e400, "tau_end": 1e400}', ["/params/tau_start: must be finite, got -inf",
                                                 "/params/tau_end: must be finite, got inf"]),
])
def test_a_config_error_names_its_field_and_numbers_as_given(tmp_path, capsys, params,
                                                             violations):
    path = tmp_path / "cfg.json"
    path.write_text('{"params": %s}' % params)
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["config invalid:"] + [
        f"  {v}" for v in violations]


def _coarse_config(tmp_path):
    """BASE with beam a at a resolution whose square overflows."""
    return _config_file(tmp_path, mode="both", beam_a=dict(BASE["beam_a"], resolution=1e200))


COARSE_ERROR = "RpifError: resolution 1e+200: 4*hbar/(m*T*delta^2) cannot be formed"


def test_simulate_reports_a_resolution_too_coarse_to_square(tmp_path, capsys):
    path = _coarse_config(tmp_path)
    assert main(["validate", "--config", path]) == EXIT_OK
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", path, "--output", str(out)]) == EXIT_GUARD
    assert len(out.read_text().strip().split("\n")) == 7
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 6 and all(COARSE_ERROR in line for line in lines)


def test_compare_reports_a_resolution_too_coarse_to_square(tmp_path, capsys):
    assert main(["compare", "--config", _coarse_config(tmp_path)]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"compare failed: {COARSE_ERROR}")


PRINTED_ERROR = "mode=paper-literal: RpifError: paper-literal: the printed denominator"


@pytest.mark.parametrize("resolution", [1e10, 1e15])
@pytest.mark.parametrize("mode", ["literal", "both"])
def test_simulate_fails_the_literal_rows_where_the_printed_denominator_is_zero(
        tmp_path, capsys, mode, resolution):
    beam_a = dict(BASE["beam_a"], resolution=resolution)
    out, derived = tmp_path / "rows.csv", tmp_path / "derived.csv"
    assert main(["simulate", "--config", _config_file(tmp_path, mode=mode, beam_a=beam_a),
                 "--output", str(out)]) == EXIT_GUARD
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3 and all(PRINTED_ERROR in line for line in lines)
    # the derived rows beside them are those of a derived run
    assert main(["simulate", "--config", _config_file(tmp_path, beam_a=beam_a),
                 "--output", str(derived)]) == EXIT_OK
    rows = out.read_text().splitlines()
    assert [line for line in rows if ",derived," in line] == (
        derived.read_text().splitlines()[1:] if mode == "both" else [])


def test_simulate_fails_a_literal_row_whose_printed_term_is_not_finite(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {"g": 5e154}, "sweep": {
        "parameter": "z2", "start": 0.5, "stop": 0.5, "steps": 1, "mode": "literal"}}))
    assert main(["simulate", "--config", str(path)]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "row swept_value=0.5 mode=paper-literal: RpifError: paper-literal: "
        "i5 is not finite (nan)"]
    assert captured.out.splitlines()[1].startswith("0.5,paper-literal,nan,")


def test_simulate_rejects_zero_jobs(config_path, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", config_path, "--output", str(out),
                 "--jobs", "0"]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["config invalid:", "  --jobs: must be >= 1"]
    assert not out.exists()


def test_simulate_reports_an_output_it_cannot_write(config_path, tmp_path, capsys):
    out = tmp_path / "missing" / "rows.csv"
    assert main(["simulate", "--config", config_path, "--output", str(out)]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot write output: ")
    assert str(out) in lines[0]


def test_compare_reports_an_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"params": {"m": -1}}))
    assert main(["compare", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config invalid:", "  /params/m: must be a positive finite number, got -1.0"]


def test_simulate_record_far_from_the_path_matches_the_lattice(tmp_path):
    # a record 25 resolutions from the origin: |exp(i S/hbar)| alone is past
    # the double range and the measurement weight alone underflows, but
    # their product, the amplitude, is finite and matches the lattice
    delta = 2.0 / 55.0
    doc = dict(BASE)
    doc["beam_a"] = {"trajectory": {"kind": "constant", "value": 25.0 * delta},
                     "resolution": delta}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--output", str(out),
                 "--oracle", "1024,2048,4096"]) == EXIT_OK
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 3
    for row in rows:
        assert float(row.split(",")[-1]) <= 1e-6


def test_simulate_lattice_underflow_fails_the_row_not_the_run(tmp_path, capsys):
    # a record 200 resolutions out: the lattice amplitude underflows to 0.0
    # at every level, so the oracle deviation has nothing to divide by; the
    # rows fail with a LatticeError naming the beam, and the output is written
    delta = 2.0 / 55.0
    doc = dict(BASE)
    doc["beam_a"] = {"trajectory": {"kind": "constant", "value": 200.0 * delta},
                     "resolution": delta}
    doc["sweep"] = {"parameter": "z2", "start": 0.0, "stop": 0.5, "steps": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--output", str(out),
                 "--oracle", "256,512,1024"]) == EXIT_GUARD
    assert len(out.read_text().strip().split("\n")) == 3
    err = capsys.readouterr().err
    assert err.count("LatticeError: beam_a: the lattice amplitude underflows") == 2


def _strictly(argv, capsys) -> tuple[int, str]:
    """``main(argv)`` with every warning an error, and its stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err


def test_a_record_whose_rate_overflows_fails_its_rows(tmp_path, capsys):
    # omega = 1e308 is finite in internal units, so the config is valid; the
    # triangle rate 2*(|1/2 - sqrt2 - i/sqrt2| omega + omega) overflows, and
    # quadrature refuses the rows by their budget rather than ending in an
    # OverflowError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "params": {"g": 0.9}, "z1": 0.1, "z2": 0.6,
        "frame_profile": {"kind": "constant", "value": 1.0},
        "beam_a": {"trajectory": {"kind": "sinusoid", "amplitude": 0.2, "omega": 1e308,
                                  "phase": 0.3}, "resolution": 0.5},
        "beam_b": {"trajectory": {"kind": "constant", "value": -0.1}, "resolution": 1.0},
        "sweep": {"parameter": "delta_a", "start": 0.5, "stop": 0.6, "steps": 2}}))
    assert _strictly(["validate", "--config", str(path)], capsys)[0] == EXIT_OK
    refused = ("QuadratureError: triangle integral over [0, 1] at rate inf needs inf nodes "
               "per axis, more than its budget of 4096")
    code, err = _strictly(["simulate", "--config", str(path)], capsys)
    assert code == EXIT_GUARD
    assert err == "".join(f"row swept_value={delta} mode=derived: {refused}\n"
                          for delta in (0.5, 0.6))
    code, err = _strictly(["compare", "--config", str(path)], capsys)
    assert (code, err) == (EXIT_GUARD, f"compare failed: {refused}\n")


def test_a_lattice_amplitude_that_overflows_fails_every_row(tmp_path, capsys):
    # a window of 1e-30 with a frame of amplitude 1000: in internal units the
    # lattice exponent's real part is about 7e13, and its exponential
    # overflows; each row fails with a LatticeError naming the level, with
    # no numpy warning, rather than printing an oracle_dev of 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "params": {"tau_end": 1e-30}, "z1": -0.1, "z2": 0.4,
        "frame_profile": {"kind": "sinusoid", "amplitude": 1000.0, "omega": 2.0,
                          "phase": 1.0},
        "beam_a": {"trajectory": {"kind": "constant", "value": 0.12}, "resolution": 1.2},
        "beam_b": {"trajectory": {"kind": "sinusoid", "amplitude": 0.08, "omega": 5.0},
                   "resolution": 0.7},
        "sweep": {"parameter": "delta_b", "start": 0.7, "stop": 2.2, "steps": 6}}))
    out = tmp_path / "rows.csv"
    code, err = _strictly(["simulate", "--config", str(path), "--output", str(out),
                           "--oracle", "256,512,1024"], capsys)
    assert code == EXIT_GUARD
    assert all(row.endswith(",") for row in out.read_text().splitlines()[1:])
    lines = err.splitlines()
    assert len(lines) == 6
    assert all("LatticeError: the lattice level N=256 is not finite" in line
               for line in lines)


def test_main_calls_in_one_process_are_independent(config_path, tmp_path, monkeypatch):
    # the parser is built once per process; options of one call must not
    # leak into the next
    first, second = tmp_path / "first.json", tmp_path / "second.csv"
    assert main(["simulate", "--config", config_path, "--output", str(first),
                 "--format", "json", "--oracle", "64,128,256"]) == EXIT_OK
    assert main(["simulate", "--config", config_path, "--output", str(second)]) == EXIT_OK
    first_rows = json.loads(first.read_text())
    second_rows = second.read_text().strip().split("\n")[1:]
    assert len(first_rows) == 3 and len(second_rows) == 3
    assert all(row["oracle_dev"] is not None for row in first_rows)
    assert all(row.split(",")[1] == "derived" and row.endswith(",")
               for row in second_rows)
    # the same call on a newly built parser writes the same bytes
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser.__wrapped__))
    fresh = tmp_path / "fresh.csv"
    assert main(["simulate", "--config", config_path, "--output", str(fresh)]) == EXIT_OK
    assert fresh.read_bytes() == second.read_bytes()


def test_simulate_off_dyadic_tabulated_records_gives_finite_rows(tmp_path):
    # kinks off the dyadic grid in the record and in the frame profile, in
    # physical units; every row of both modes comes back finite
    doc = dict(BASE)
    doc["params"] = {"m": 3.0, "g": 0.2, "hbar": 0.5, "tau_start": 2.0, "tau_end": 5.0}
    doc["frame_profile"] = {"kind": "tabulated", "times": [2.0, 2.69, 4.31, 5.0],
                            "values": [1.0, 1.2, 0.8, 1.0]}
    doc["beam_a"] = {"trajectory": {"kind": "tabulated",
                                    "times": [2.0, 3.11, 3.83, 5.0],
                                    "values": [0.07, 0.21, -0.14, 0.035]},
                     "resolution": 0.57}
    doc["sweep"] = dict(BASE["sweep"], mode="both")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--output", str(out)]) == EXIT_OK
    header, *rows = out.read_text().strip().split("\n")
    assert len(rows) == 6
    for row in rows:
        swept, mode, *cells = row.split(",")
        assert mode in ("derived", "paper-literal")
        assert all(math.isfinite(float(v)) for v in [swept] + cells[:-1])
        assert cells[-1] == ""  # no oracle column requested


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; it costs about 0.3 s of import time
    src = os.path.dirname(os.path.dirname(os.path.abspath(rpif.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, rpif, rpif.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
