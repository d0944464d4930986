import functools
import json
import math
import os
import subprocess
import sys

import pytest

import rpif
from rpif import cli
from rpif.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_MODES, EXIT_OK, main

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


def test_simulate_jobs_do_not_change_bytes(config_path, tmp_path):
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "threaded.csv"
    assert main(["simulate", "--config", config_path, "--mode", "both",
                 "--output", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", config_path, "--mode", "both",
                 "--jobs", "4", "--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_mode_override(config_path, tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", config_path, "--mode", "both",
                 "--output", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 7  # header + 3 points x 2 modes


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


def test_simulate_strict_modes_exit_code(config_path, tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", config_path, "--mode", "both",
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


def _coarse_config(tmp_path):
    """BASE with beam a at a resolution whose square overflows."""
    doc = dict(BASE, beam_a=dict(BASE["beam_a"], resolution=1e200))
    doc["sweep"] = dict(BASE["sweep"], mode="both")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


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
    doc = dict(BASE, beam_a=dict(BASE["beam_a"], resolution=resolution))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out, derived = tmp_path / "rows.csv", tmp_path / "derived.csv"
    assert main(["simulate", "--config", str(path), "--mode", mode,
                 "--output", str(out)]) == EXIT_GUARD
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3 and all(PRINTED_ERROR in line for line in lines)
    # the derived rows beside them are those of a derived run
    assert main(["simulate", "--config", str(path), "--mode", "derived",
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


def test_main_calls_in_one_process_are_independent(config_path, tmp_path, monkeypatch):
    # the parser is built once per process; options of one call must not
    # leak into the next
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["simulate", "--config", config_path, "--output", str(first),
                 "--mode", "both", "--oracle", "64,128,256"]) == EXIT_OK
    assert main(["simulate", "--config", config_path, "--output", str(second)]) == EXIT_OK
    first_rows = first.read_text().strip().split("\n")[1:]
    second_rows = second.read_text().strip().split("\n")[1:]
    assert len(first_rows) == 6 and len(second_rows) == 3
    assert all(row.split(",")[-1] != "" for row in first_rows)
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
