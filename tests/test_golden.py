"""Byte-for-byte regression of ``rpif simulate`` output.

One config per sweep parameter, each in ``both`` mode; ``golden_delta_a``
carries a beam at resolution 300 (|wT| < 1e-2), the z2 run adds the
lattice oracle column, and ``golden_tabulated`` sweeps delta_a of a
tabulated record beside a sinusoid, under a tabulated frame profile whose
breakpoint the record's samples miss.  The expected CSVs were written by

    python -m rpif simulate --config tests/data/golden_<name>.json \\
        --output tests/data/golden_<name>.csv [--oracle 256,512,1024]

and must only change together with a deliberate, documented change of
the numbers.  The same configs in JSON, and in one mode alone, carry the
same numbers.
"""

import csv
import json
import os

import pytest

from rpif.cli import EXIT_MODES, EXIT_OK, main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

CASES = {
    "z2": ["--oracle", "256,512,1024"],
    "delta_a": [],
    "delta_b": [],
    "g": [],
    "m_over_hbar_scale": [],
    "tabulated": [],
}


def _golden(name: str, suffix: str) -> str:
    return os.path.join(DATA, f"golden_{name}.{suffix}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_output_bytes_are_pinned(name, tmp_path):
    assert main(["validate", "--config", _golden(name, "json")]) == EXIT_OK
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", _golden(name, "json"), "--output", str(out),
                 *CASES[name]]) == EXIT_OK
    with open(_golden(name, "csv"), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


def _refuse(token):
    raise AssertionError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_rows_carry_the_bits_of_the_csv_cells(name, tmp_path):
    # parsed strictly (a NaN or Infinity token fails), each row has the CSV
    # columns in order, each number has the bits of its CSV cell (so -0.0
    # and 0.0 stay apart), and an empty cell reads null
    out = tmp_path / "rows.json"
    assert main(["simulate", "--config", _golden(name, "json"), "--format", "json",
                 "--output", str(out), *CASES[name]]) == EXIT_OK
    with open(out, encoding="utf-8") as fh:
        rows = json.load(fh, parse_constant=_refuse)
    with open(_golden(name, "csv"), encoding="utf-8", newline="") as fh:
        cells = list(csv.DictReader(fh))
    assert len(rows) == len(cells), (len(rows), len(cells))
    for i, (row, cell) in enumerate(zip(rows, cells)):
        assert list(row) == list(cell), (i, list(row))
        for key, text in cell.items():
            value = row[key]
            if key == "mode":
                same = value == text
            elif text == "":
                same = value is None
            else:
                same = (type(value) in (int, float)
                        and float(value).hex() == float(text).hex())
            assert same, (i, key, value, text)


@pytest.mark.parametrize("mode, label", [("literal", "paper-literal"),
                                         ("derived", "derived")])
@pytest.mark.parametrize("name", sorted(CASES))
def test_one_mode_writes_that_modes_lines_of_the_golden(name, mode, label, tmp_path):
    # the header and exactly the lines of the both-mode golden whose mode
    # column is this mode's
    with open(_golden(name, "json"), encoding="utf-8") as fh:
        config = json.load(fh)
    config["sweep"]["mode"] = mode
    path = tmp_path / f"{mode}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", str(path), "--output", str(out),
                 *CASES[name]]) == EXIT_OK
    with open(_golden(name, "csv"), "rb") as fh:
        header, *lines = fh.read().splitlines(keepends=True)
    want = [header] + [line for line in lines if line.split(b",")[1] == label.encode()]
    assert out.read_bytes() == b"".join(want)


def test_compare_reports_the_literal_discrepancy_on_a_golden_config():
    # the literal mode's documented discrepancy
    assert main(["compare", "--config", _golden("g", "json")]) == EXIT_MODES
