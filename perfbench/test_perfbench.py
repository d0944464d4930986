"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import check, probe, trace, workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_byte_identical_configs(workload, tmp_path):
    first = workloads.write_configs(workloads.generate(workload, 7, 20), str(tmp_path / "a"))
    second = workloads.write_configs(workloads.generate(workload, 7, 20), str(tmp_path / "b"))
    assert len(first) >= workloads.MIN_REQUESTS
    for a, b in zip(first, second):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
    other = workloads.generate(workload, 8, 20)
    assert [workloads.config_text(r) for r in other] != [
        workloads.config_text(r) for r in workloads.generate(workload, 7, 20)]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_composition_does_not_depend_on_seed(workload):
    def shape(seed):
        return sorted((r.rows, r.fmt, r.oracle or "") for r in
                      workloads.generate(workload, seed, 20))
    assert shape(1) == shape(2)


def test_generator_never_imports_rpif():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from perfbench import workloads; "
            "[workloads.generate(w, 3, 20) for w in workloads.GENERATORS]; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'rpif'))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")  # importable, yet never imported
    out = subprocess.run([sys.executable, "-c", code, ROOT], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_probe_scaling_arithmetic():
    raw = [1.0, 2.0, 3.0]
    assert probe.scale(raw, [[0.5]] * 4, reference_s=0.5) == raw
    assert probe.scale(raw, [[1.0]] * 4, reference_s=0.5) == [0.5, 1.0, 1.5]
    # interval i is scaled by the median of the probes in gaps i and i + 1;
    # one slow probe among them is outvoted
    gaps = [[1.0, 1.0, 9.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [2.0, 4.0, 4.0]]
    assert probe.scale(raw, gaps, reference_s=1.0) == [1.0, 2.0 / 1.5, 3.0 / 2.0]
    with pytest.raises(ValueError):
        probe.scale(raw, gaps[:3])


def test_self_time_on_synthetic_span_tree():
    spans = [["cli.main", 0.0, 10.0, -1, 0, False, None],
             ["sweep.run_sweep", 1.0, 4.0, 0, 0, False, None],
             ["quadrature.integrate", 2.0, 3.0, 1, 0, False, None],
             ["lattice.oracle_propagator", 5.0, 9.0, 0, 0, False, None]]
    assert trace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    tracer = trace.Tracer()
    tracer.spans = spans
    tracer.installed = {"cli.main", "sweep.run_sweep", "quadrature.integrate",
                        "lattice.oracle_propagator"}
    metrics = trace.layer_metrics(tracer, [0.5])
    assert metrics["cli.self_ms"] == (1500.0, "ms")
    assert metrics["quadrature.line_ms"] == (500.0, "ms")
    assert metrics["lattice.self_ms"] == (2000.0, "ms")
    assert "interference.self_ms" not in metrics  # that layer was not installed
    assert sum(v for k, (v, _) in metrics.items() if k.count(".") == 1
               and k.endswith(".self_ms")) == 5000.0


def test_scipy_import_time_counts_only_outermost_scipy_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       400 |        500 |   scipy",
        "import time:       300 |        300 |     scipy.linalg._flapack",
        "import time:       200 |        500 |   scipy.linalg",
        "import time:        50 |       1050 | rpif.lattice",
        "import time:        70 |         70 | scipy.special",
    ])
    assert trace.scipy_import_s(text) == pytest.approx(1070e-6)


def test_tracer_installs_everywhere_and_restores():
    import rpif.interference
    import rpif.sweep

    original = rpif.sweep.decompose
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert rpif.sweep.decompose is rpif.interference.decompose
        assert rpif.sweep.decompose is not original
        scenario, _ = rpif.sweep.parse_config("{}")
        rpif.sweep.decompose(scenario, "derived")
    finally:
        tracer.uninstall()
    assert rpif.sweep.decompose is original
    names = {span[trace.NAME] for span in tracer.spans}
    assert {"interference.decompose", "actions.classical_action",
            "quadrature.integrate", "quadrature.integrate_triangle"} <= names
    assert tracer.counts["quadrature.line_nodes"] > 0
    for span in tracer.spans:
        if span[trace.PARENT] >= 0:
            parent = tracer.spans[span[trace.PARENT]]
            assert parent[trace.START] <= span[trace.START] <= span[trace.END] <= parent[trace.END]


@pytest.fixture()
def csv_output(tmp_path):
    from rpif import cli

    request = workloads.Request("r", {"sweep": {"parameter": "z2", "start": 0.0, "stop": 1.0,
                                                "steps": 3, "mode": "both"}}, "csv", None)
    config = tmp_path / "r.json"
    config.write_text(workloads.config_text(request))
    output = tmp_path / "r.csv"
    assert cli.main(request.argv(str(config), str(output))) == 0
    return request, output


def _causes(request, output):
    rows = check.read_rows(str(output), request.fmt)
    check.check_structure(rows, request.config["sweep"], request.modes)
    return check.row_causes(rows, request.modes, [])


def test_check_passes_untouched_output(csv_output):
    assert _causes(*csv_output) == [None] * 6


@pytest.mark.parametrize("column, cause", [("i3", "residual"),
                                           ("intensity", "modes_disagree"),
                                           ("phase_difference", "reduced_i")])
def test_check_flags_a_tampered_csv_value(csv_output, column, cause):
    request, output = csv_output
    lines = output.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[4].split(",")  # the derived row of the second point
    index = header.index(column)
    cells[index] = repr(float(cells[index]) * (1.0 + 1e-6) + 1e-6)
    lines[4] = ",".join(cells)
    output.write_text("\n".join(lines) + "\n")
    assert _causes(request, output) == [None] * 3 + [cause] + [None] * 2


@pytest.mark.parametrize("cut", ["last_row", "mid_row"])
def test_check_flags_a_truncated_file(csv_output, cut):
    request, output = csv_output
    text = output.read_text()
    text = text[:text.rstrip("\n").rfind("\n") + 1] if cut == "last_row" else text[:-40]
    output.write_text(text)
    with pytest.raises(check.StructureError):
        _causes(request, output)


def test_check_names_error_rows_by_type():
    rows = [{"swept_value": 0.0, "mode": "derived", "oracle_dev": None, "error": None,
             **{key: float("nan") for key in check.VALUES}}]
    assert check.row_causes(rows, ("derived",), ["QuadratureError"]) == [
        "error:QuadratureError"]
    text = "row swept_value=0.5 mode=derived: QuadratureError: did not converge\n"
    assert check.error_types(text) == ["QuadratureError"]


def test_point_config_applies_each_sweep_parameter():
    base = {"params": {"m": 1.0, "g": 1.0, "hbar": 1.0}, "z2": 0.1,
            "beam_a": {"resolution": 1.0}, "beam_b": {"resolution": 2.0},
            "sweep": {"parameter": "m_over_hbar_scale"}}
    doc = check.point_config(base, 3.0)
    assert "sweep" not in doc and doc["params"]["m"] == 3.0 and doc["params"]["hbar"] == 3.0
    assert base["params"]["m"] == 1.0
    base["sweep"]["parameter"] = "delta_b"
    assert check.point_config(base, 0.3)["beam_b"]["resolution"] == 0.3
    assert json.dumps(base)  # untouched and still serializable


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert set(workloads.WHY) == set(workloads.GENERATORS)
    tracer = trace.Tracer()
    tracer.install()
    tracer.uninstall()
    produced = set(trace.layer_metrics(tracer, [])) | {
        "cli.import_ms", "lattice.scipy_import_ms", "trace.overhead_frac",
        "trace.request_ms"}
    assert {m["name"] for m in spec["per_layer"]} == produced
