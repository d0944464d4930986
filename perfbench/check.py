"""Output check of ``rpif simulate`` results, run after the clock stops.

Structure (``StructureError``, the request counts as failed and the run as
incorrect): the output exists and parses, has the fixed CSV header or JSON
keys, one row per sweep point and mode in order, and the requested swept
values.

Rows (each failing row counts in ``failed_frac`` under the first cause
found):

* ``error:<type>``: the program reported an error for the row;
* ``non_finite``: a row without an error has a non-finite value;
* ``reduced_i``: reduced_i is not cos(phase_difference) (internal units,
  hbar = 1);
* ``modes_disagree``: intensity, reduced_i or phase_difference differ
  between the literal and derived rows of one point, though neither
  depends on the mode;
* ``residual``: a derived row's residual, as printed or recomputed from
  its own i1..i5 and phase_difference, exceeds 1e-8;
* ``oracle_dev``: oracle_dev is present and exceeds 1e-6;
* ``intensity_recheck``: at a seeded sample of points, intensity differs
  from |U_a + U_b|^2 of the lattice oracle by more than 1e-6 of
  (|U_a| + |U_b|)^2.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

CSV_HEADER = ("swept_value", "mode", "intensity", "reduced_i", "i1", "i2", "i3",
              "i4", "i5", "phase_difference", "residual", "oracle_dev")
VALUES = CSV_HEADER[2:11]  # every numeric column except swept_value and oracle_dev

RESIDUAL_TOL = 1e-8
ORACLE_DEV_TOL = 1e-6
RECHECK_TOL = 1e-6
RECHECK_SCHEDULE = (512, 1024, 2048)
SAME_TOL = 1e-9  # relative, for values that must not depend on the mode


class StructureError(Exception):
    """The output file is missing, malformed, or has the wrong rows."""


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise StructureError(f"not a number: {text!r}") from None


def read_rows(path: str, fmt: str) -> list[dict]:
    """Rows as dicts of floats; a missing oracle_dev is None.

    A JSON row's ``error`` is kept; a CSV row has no error column, so its
    ``error`` is None and an error row shows as NaN values.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructureError(f"cannot read output: {exc}") from None
    if fmt == "csv":
        lines = list(csv.reader(text.splitlines()))
        if not lines or tuple(lines[0]) != CSV_HEADER:
            raise StructureError("missing or wrong CSV header")
        rows = []
        for cells in lines[1:]:
            if len(cells) != len(CSV_HEADER):
                raise StructureError(f"CSV row has {len(cells)} fields")
            row = {key: _number(cell) for key, cell in zip(CSV_HEADER, cells)
                   if key not in ("mode", "oracle_dev")}
            row["mode"] = cells[1]
            row["oracle_dev"] = _number(cells[-1]) if cells[-1] else None
            row["error"] = None
            rows.append(row)
        return rows
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"malformed JSON: {exc.msg}") from None
    if not isinstance(payload, list):
        raise StructureError("JSON output is not a list")
    rows = []
    for entry in payload:
        if not isinstance(entry, dict) or not set(CSV_HEADER) <= set(entry):
            raise StructureError("JSON row lacks columns")
        row = {}
        for key in CSV_HEADER:
            value = entry[key]
            if key == "mode":
                row[key] = value
            elif value is None:
                row[key] = None if key == "oracle_dev" else math.nan
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                row[key] = float(value)
            else:
                raise StructureError(f"JSON {key} is not a number: {value!r}")
        row["error"] = entry.get("error")
        rows.append(row)
    return rows


def expected_points(sweep: dict) -> np.ndarray:
    return np.linspace(sweep["start"], sweep["stop"], sweep["steps"])


def check_structure(rows: list[dict], sweep: dict, modes: tuple[str, ...]) -> None:
    points = expected_points(sweep)
    if len(rows) != len(points) * len(modes):
        raise StructureError(f"{len(rows)} rows, expected {len(points) * len(modes)}")
    for k, row in enumerate(rows):
        point, mode = points[k // len(modes)], modes[k % len(modes)]
        if row["mode"] != mode:
            raise StructureError(f"row {k}: mode {row['mode']!r}, expected {mode!r}")
        if not abs(row["swept_value"] - point) <= 1e-12 * max(1.0, abs(point)):
            raise StructureError(f"row {k}: swept_value {row['swept_value']!r}, "
                                 f"expected {point!r}")


def _is_error_row(row: dict) -> bool:
    if row["error"] is not None:
        return True
    return all(math.isnan(row[key]) for key in VALUES) and row["oracle_dev"] is None


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= SAME_TOL * max(abs(a), abs(b), 1e-300)


def row_causes(rows: list[dict], modes: tuple[str, ...],
               error_names: list[str]) -> list[str | None]:
    """First failing cause of each row, None for a row that passes.

    ``error_names`` names the exception type of each error row in order, as
    the program reported them.
    """
    causes: list[str | None] = []
    errors = iter(error_names)
    for k, row in enumerate(rows):
        if _is_error_row(row):
            causes.append(f"error:{next(errors, '') or 'unknown'}")
            continue
        values = [row[key] for key in VALUES]
        if row["oracle_dev"] is not None:
            values.append(row["oracle_dev"])
        if not all(math.isfinite(v) for v in values):
            causes.append("non_finite")
            continue
        if abs(row["reduced_i"] - math.cos(row["phase_difference"])) > SAME_TOL:
            causes.append("reduced_i")
            continue
        first = rows[k - k % len(modes)]
        if first is not row and not _is_error_row(first) and not all(
                _same(row[key], first[key])
                for key in ("intensity", "reduced_i", "phase_difference")):
            causes.append("modes_disagree")
            continue
        if row["mode"] == "derived":
            recomputed = abs(row["i1"] + row["i2"] + row["i3"] + row["i4"] + row["i5"]
                             - row["phase_difference"])
            if row["residual"] > RESIDUAL_TOL or recomputed > RESIDUAL_TOL:
                causes.append("residual")
                continue
        if row["oracle_dev"] is not None and row["oracle_dev"] > ORACLE_DEV_TOL:
            causes.append("oracle_dev")
            continue
        causes.append(None)
    return causes


def error_types(stderr_text: str) -> list[str]:
    """Exception type of each failed row, from ``rpif simulate``'s stderr.

    The program prints ``row swept_value=V mode=M: Type: message`` per
    failed row, in row order.
    """
    out = []
    for line in stderr_text.splitlines():
        if line.startswith("row swept_value=") and ": " in line:
            out.append(line.split(": ", 2)[1].strip())
    return out


def point_config(config: dict, value: float) -> dict:
    """The request's scenario with its sweep parameter set to ``value``."""
    doc = json.loads(json.dumps(config))
    parameter = doc.pop("sweep")["parameter"]
    if parameter == "z2":
        doc["z2"] = value
    elif parameter == "g":
        doc["params"]["g"] = value
    elif parameter == "delta_a":
        doc["beam_a"]["resolution"] = value
    elif parameter == "delta_b":
        doc["beam_b"]["resolution"] = value
    else:  # m_over_hbar_scale multiplies m and hbar together
        doc["params"]["m"] *= value
        doc["params"]["hbar"] *= value
    return doc


def oracle_intensity(config: dict, value: float) -> tuple[float, float]:
    """|U_a + U_b|^2 from the lattice oracle, and its scale (|U_a| + |U_b|)^2."""
    from rpif import oracle_propagator, parse_config

    scenario, _ = parse_config(json.dumps(point_config(config, value)))
    nd = scenario.nondimensionalized()
    ua = oracle_propagator(nd, "a", RECHECK_SCHEDULE).value
    ub = oracle_propagator(nd, "b", RECHECK_SCHEDULE).value
    return abs(ua + ub) ** 2, (abs(ua) + abs(ub)) ** 2


def check_request(request, output: str, code, stderr_text: str) -> list[str | None]:
    """Failing cause of each row of one request's output, None where it passes.

    Raises StructureError when the request exited with a code other than 0
    or 2 (a crash passes the exception text) or its output has the wrong
    shape.
    """
    from rpif import RpifError

    if code not in (0, 2):
        raise StructureError(f"exit {code!r}")
    rows = read_rows(output, request.fmt)
    sweep = request.config["sweep"]
    check_structure(rows, sweep, request.modes)
    causes = row_causes(rows, request.modes, error_types(stderr_text))
    points = expected_points(sweep)
    width = len(request.modes)
    for j in request.recheck:
        try:
            expected, size = oracle_intensity(request.config, float(points[j]))
        except RpifError as exc:  # the oracle refused this point
            expected, size = None, type(exc).__name__
        for k in range(j * width, (j + 1) * width):
            if causes[k] is not None:
                continue
            if expected is None:
                causes[k] = f"intensity_recheck:{size}"
            elif abs(rows[k]["intensity"] - expected) > RECHECK_TOL * size:
                causes[k] = "intensity_recheck"
    return causes
