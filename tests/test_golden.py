"""Byte-for-byte regression of ``rpif simulate`` output.

One config per sweep parameter, each in ``both`` mode; ``golden_delta_a``
carries a beam at resolution 300 (|wT| < 1e-2), the z2 run adds the
lattice oracle column, and ``golden_tabulated`` sweeps delta_a of a
tabulated record beside a sinusoid, under a tabulated frame profile whose
breakpoint the record's samples miss.  The expected CSVs were written by

    python -m rpif simulate --config tests/data/golden_<name>.json \\
        --output tests/data/golden_<name>.csv [--oracle 256,512,1024]

and must only change together with a deliberate, documented change of
the numbers.
"""

import os

import pytest

from rpif.cli import EXIT_OK, main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

CASES = {
    "z2": ["--oracle", "256,512,1024"],
    "delta_a": [],
    "delta_b": [],
    "g": [],
    "m_over_hbar_scale": [],
    "tabulated": [],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_output_bytes_are_pinned(name, tmp_path):
    out = tmp_path / "rows.csv"
    config = os.path.join(DATA, f"golden_{name}.json")
    assert main(["simulate", "--config", config, "--output", str(out),
                 *CASES[name]]) == EXIT_OK
    with open(os.path.join(DATA, f"golden_{name}.csv"), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected
