"""Benchmark of ``rpif simulate``: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client in one process: each request is an
in-process ``rpif.cli.main(["simulate", ...])`` call on a config generated
from the seed, and the next starts when the previous one returns.  The
request list depends only on workload, seed and ``--seconds``, which sets
the request count (``perfbench/workloads.py``); a run does the same work
however fast the machine is.

Every timing is in reference-speed seconds: speed probes run before each
request and after the last, and each request's wall time is scaled by
``REFERENCE_PROBE_S`` over the median of the probes just before and just
after it (``perfbench/probe.py``).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: ``import rpif.cli`` plus parsing the first config, in a
  fresh interpreter; median of several spawns, each scaled by probes run
  in the same interpreter right after;
* ``rows_per_s``: rows that pass the output check per second of request time;
* ``sweep_ms_p50``, ``sweep_ms_p90``: median and 90th percentile of the
  request time (every run has at least 100 requests, so at least ten lie
  beyond the 90th percentile);
* ``peak_rss_mb``: peak resident set of the benchmark process;
* ``failed_frac``: rows that carry an error or fail the output check,
  over rows attempted.

``--trace 1`` runs the same requests untraced, then again with spans on
every public function of each layer (``perfbench/trace.py``), and reports
the per-layer metrics and ``trace.overhead_frac``.  It also checks that
the self times of all spans add up to the traced request time within
``SELF_SUM_TOLERANCE``.

Outputs are checked after the clock stops (``perfbench/check.py``).
``attempted`` and ``failed`` in the result count requests; a request fails
when it raises, exits with a code other than 0 or 2, or leaves output of
the wrong shape, and then the run is not ``correct``.  Rows the program
reports as failed, or that fail a value check, count in ``failed_frac``.

Python, numpy and scipy versions, ``nproc``, the raw wall times and every
probe time are written beside the metrics to
``.bench_work/<workload>-<seed>-<trace>/record.json``; a traced run also
writes its spans there.  The last line of standard output is the result.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _variable in THREAD_VARIABLES:  # before numpy loads, here and in every child
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from perfbench import check, workloads  # noqa: E402
from perfbench.probe import REFERENCE_PROBE_S, probe, scale  # noqa: E402
from perfbench.trace import SELF_SUM_TOLERANCE, Tracer, layer_metrics, scipy_import_s  # noqa: E402

SETUP_SPAWNS = 5
PROBES_PER_GAP = 3
TRACE_IMPORT_SPAWNS = 3
CHILD_TIMEOUT_S = 120
WARMUP_CONFIG = {"sweep": {"parameter": "z2", "start": 0.0, "stop": 1.0, "steps": 3,
                           "mode": "both"}}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn_setup(config_path: str, importtime: bool = False) -> dict:
    """One fresh interpreter's import and parse times, with its probes."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.join(ROOT, "perfbench", "setup_child.py"), config_path]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up child failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["speed"] = statistics.fmean(REFERENCE_PROBE_S / p for p in result["probes"])
    if importtime:
        result["scipy_import_s"] = scipy_import_s(proc.stderr)
    return result


def run_pass(cli, requests, configs, outputs, tracer: Tracer | None = None) -> dict:
    """Run every request once, with probes before each and after the last."""
    raw, codes, stderr = [], [], []
    gaps = [[probe() for _ in range(PROBES_PER_GAP)]]
    for i, (request, config, output) in enumerate(zip(requests, configs, outputs)):
        argv = request.argv(config, output)
        if tracer is not None:
            tracer.request = i
        captured = io.StringIO()
        with contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash fails this request, not the run
                code = f"{type(exc).__name__}: {exc}"
            raw.append(time.perf_counter() - start)
        codes.append(code)
        stderr.append(captured.getvalue())
        gaps.append([probe() for _ in range(PROBES_PER_GAP)])
    return {"raw_s": raw, "probes_s": gaps, "codes": codes, "stderr": stderr,
            "scaled_s": scale(raw, gaps)}


def check_outputs(requests, outputs, timed: dict) -> dict:
    """Structure and row checks of every request's output."""
    causes = collections.Counter()
    request_failures = []
    for i, (request, output) in enumerate(zip(requests, outputs)):
        try:
            row_causes = check.check_request(request, output, timed["codes"][i],
                                             timed["stderr"][i])
        except check.StructureError as exc:
            request_failures.append(f"{request.name}: {exc}")
            causes["structure"] += request.rows
            continue
        causes.update(c for c in row_causes if c is not None)
    return {"causes": dict(sorted(causes.items())), "rows_failed": sum(causes.values()),
            "request_failures": request_failures}


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in THREAD_VARIABLES},
            "reference_probe_s": REFERENCE_PROBE_S}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(requests, spawns, timed: dict, checked: dict, record: dict) -> dict:
    """The end-to-end metrics of an untraced run; raw wall values go to ``record``."""
    times = timed["scaled_s"]
    rows = sum(r.rows for r in requests)
    setup = [(c["import_s"] + c["parse_s"]) * c["speed"] for c in spawns]
    p90 = statistics.quantiles(times, n=10)[8]
    record["raw"] = {
        "setup_s": statistics.median(c["import_s"] + c["parse_s"] for c in spawns),
        "request_s_total": sum(timed["raw_s"]),
        "sweep_ms_p50": 1e3 * statistics.median(timed["raw_s"]),
        "sweep_ms_p90": 1e3 * statistics.quantiles(timed["raw_s"], n=10)[8]}
    record["requests_beyond_p90"] = sum(t > p90 for t in times)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "rows_per_s": metric((rows - checked["rows_failed"]) / sum(times), "rows/s"),
        "sweep_ms_p50": metric(1e3 * statistics.median(times), "ms"),
        "sweep_ms_p90": metric(1e3 * p90, "ms"),
        "peak_rss_mb": metric(record["peak_rss_mb"], "MB"),
        "failed_frac": metric(checked["rows_failed"] / rows, "1"),
    }


def traced_metrics(cli, requests, configs, outputs, spawns, timed: dict,
                   record: dict, work: str) -> dict:
    """Per-layer metrics from a traced pass over the same requests."""
    importtime = spawn_setup(configs[0], importtime=True)
    record["importtime_child"] = importtime
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, requests, configs, [o + ".traced" for o in outputs], tracer)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer, [s / r for s, r in zip(traced["scaled_s"],
                                                         traced["raw_s"])])
    metrics = {name: metric(v, u) for name, (v, u) in sorted(layers.items())}
    metrics["cli.import_ms"] = metric(
        1e3 * statistics.median(c["import_s"] * c["speed"] for c in spawns), "ms")
    metrics["lattice.scipy_import_ms"] = metric(
        1e3 * importtime["scipy_import_s"] * importtime["speed"], "ms")
    metrics["trace.overhead_frac"] = metric(
        sum(traced["scaled_s"]) / sum(timed["scaled_s"]) - 1.0, "1")
    metrics["trace.request_ms"] = metric(1e3 * sum(traced["scaled_s"]), "ms")
    layer_self_ms = sum(v for name, (v, _) in layers.items()
                        if name.endswith(".self_ms") and name.count(".") == 1)
    record["self_sum_frac"] = layer_self_ms / metrics["trace.request_ms"]["value"]
    record["traced"] = {k: traced[k] for k in ("raw_s", "probes_s", "scaled_s")}
    with gzip.open(os.path.join(work, "spans.json.gz"), "wt",
                   encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request", "raised", "tag"],
                   "spans": tracer.spans}, fh)
    return metrics


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "rpif", "cli.py")):
        raise BenchmarkError(f"no rpif sources under {SRC}")
    requests = workloads.generate(args.workload, args.seed, args.seconds)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    request_dir = os.path.join(work, "requests")
    configs = workloads.write_configs(requests, request_dir)
    outputs = [os.path.join(request_dir, f"{r.name}.out.{r.fmt}") for r in requests]

    sys.path.insert(0, SRC)
    try:
        import rpif.cli as cli  # also compiles the bytecode the set-up children load
    except ImportError as exc:
        raise BenchmarkError(f"cannot import rpif.cli: {exc}") from None

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "requests": len(requests), "rows": sum(r.rows for r in requests)}
    spawns = [spawn_setup(configs[0])
              for _ in range(TRACE_IMPORT_SPAWNS if args.trace else SETUP_SPAWNS)]
    record["setup_children"] = spawns

    warmup = os.path.join(work, "warmup.json")
    with open(warmup, "w", encoding="utf-8") as fh:
        json.dump(WARMUP_CONFIG, fh)
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(["simulate", "--config", warmup, "--output", warmup + ".out",
                  "--oracle", "256,512,1024", "--format", requests[0].fmt])

    timed = run_pass(cli, requests, configs, outputs)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = check_outputs(requests, outputs, timed)
    record["timed"] = {k: timed[k] for k in ("raw_s", "probes_s", "scaled_s", "codes")}
    record["check"] = checked
    failures = list(checked["request_failures"])
    if args.trace:
        metrics = traced_metrics(cli, requests, configs, outputs, spawns, timed, record,
                                 work)
        if abs(record["self_sum_frac"] - 1.0) > SELF_SUM_TOLERANCE:
            failures.append(f"layer self times sum to {record['self_sum_frac']:.4f} "
                            f"of the traced request time")
    else:
        metrics = end_to_end_metrics(requests, spawns, timed, checked, record)
    shutil.rmtree(request_dir, ignore_errors=True)
    record["metrics"] = metrics
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("environment:", json.dumps(record["environment"], sort_keys=True))
    print(f"requests: {len(requests)}, rows: {record['rows']}, "
          f"rows failed by cause: {json.dumps(checked['causes'])}")
    if "raw" in record:
        print(f"sweep_ms_p90 over {len(requests)} requests, "
              f"{record['requests_beyond_p90']} beyond it")
        print("raw wall values:", json.dumps(record["raw"]))
    else:
        print(f"layer self times sum to {record['self_sum_frac']:.4f} of the traced "
              f"request time (allowed: 1 +- {SELF_SUM_TOLERANCE})")
        request_ms = metrics["trace.request_ms"]["value"]
        print("self-time shares of the traced request time:", json.dumps(
            {name: round(m["value"] / request_ms, 4) for name, m in metrics.items()
             if name.endswith("self_ms")}))
    for failure in failures[:10]:
        print("failed:", failure)
    probes = [p for gap in timed["probes_s"] for p in gap]
    print(f"probe: median {1e3 * statistics.median(probes):.4f} ms, "
          f"reference {1e3 * REFERENCE_PROBE_S:.4f} ms; record: {work}/record.json")
    return {"correct": not failures, "attempted": len(requests),
            "failed": len(checked["request_failures"]), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        result = run(args)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
