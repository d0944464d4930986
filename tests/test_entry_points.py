"""What only a fresh interpreter shows: ``python -m rpif`` writes a
golden's bytes, the runtime writes them with every import of scipy
refused, and the README's library example runs as printed.

Each runs ``sys.executable -W error``, so every warning is an error, with
this checkout's ``src`` as ``PYTHONPATH``, so no installed ``rpif`` is
imported, in the test's own directory, where its outputs go.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")


def _python(args, cwd, stdin=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-W", "error", *args], env=env, cwd=cwd,
                          input=stdin, capture_output=True, text=True, timeout=120)


def test_the_module_entry_point_writes_the_golden_bytes(tmp_path):
    # the z2 config runs the lattice oracle too
    out = tmp_path / "z2.csv"
    run = _python(["-m", "rpif", "simulate", "--config",
                   os.path.join(DATA, "golden_z2.json"), "--oracle", "256,512,1024",
                   "--output", str(out)], tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    with open(os.path.join(DATA, "golden_z2.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


NO_SCIPY = """
import filecmp, os, sys
sys.modules["scipy"] = None
from rpif.cli import EXIT_OK, main
out_dir, data = sys.argv[1:]
for name, extra in (("z2", ["--oracle", "256,512,1024"]), ("g", [])):
    out = os.path.join(out_dir, f"no_scipy_{name}.csv")
    golden = os.path.join(data, f"golden_{name}")
    assert main(["simulate", "--config", golden + ".json", "--output", out,
                 *extra]) == EXIT_OK, name
    assert filecmp.cmp(out, golden + ".csv", shallow=False), name
"""


def test_the_runtime_needs_no_scipy(tmp_path):
    # with every import of scipy refused, the CLI writes the bytes of the z2
    # golden with the lattice oracle, and of the g golden
    run = _python(["-c", NO_SCIPY, str(tmp_path), DATA], tmp_path)
    assert run.returncode == 0, run.stderr


def _library_example() -> str:
    """The README's first ``python`` block under "## Library example", as
    ``awk '/^## Library example/{f=1} f&&/^```python/{g=1;next}
    g&&/^```/{exit} g{print}'`` extracts it."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = iter(fh.read().splitlines())
    for line in lines:
        if line.startswith("## Library example"):
            break
    for line in lines:
        if line.startswith("```python"):
            break
    code = []
    for line in lines:
        if line.startswith("```"):
            break
        code.append(line)
    return "".join(f"{line}\n" for line in code)


def test_the_readme_library_example_runs_as_printed(tmp_path):
    code = _library_example()
    assert "decompose(" in code
    run = _python(["-"], tmp_path, stdin=code)
    assert run.returncode == 0, run.stderr
