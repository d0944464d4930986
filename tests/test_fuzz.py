"""A seeded config fuzzer: every config ends in numbers or named errors.

Each case takes a golden config, replaces one to three of its leaves with
an extreme value (0, -0.0, the smallest subnormal, 1e+-160, 1e300, 1.7e308,
2^63, 10^400, non-finite numbers, negatives, the leaf scaled far up or
down, and values of another kind), and runs ``validate``, ``simulate``
and ``compare`` on it in process, with every warning an error.  A quarter
of the simulations run the lattice oracle.  Each command must exit with a
documented code and let no exception escape ``cli.main``; every number
that a command prints must be finite, or the row that holds it must carry
an error, and every printed ``oracle_dev`` must be finite.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import random
import warnings

from rpif import cli
from rpif.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_MODES, EXIT_OK

CASES = 300
DATA = pathlib.Path(__file__).parent / "data"
GOLDENS = [json.loads(path.read_text()) for path in sorted(DATA.glob("golden_*.json"))]
NUMBERS = (0, 0.0, -0.0, 5e-324, 1e-160, -1e-160, 1e-30, 1e160, 1e300, -1e300, 1.7e308,
           -1.7e308, -1.0, 2 ** 63, 10 ** 400, -10 ** 400, math.inf, -math.inf, math.nan)
OTHERS = (True, None, "0.5", [], {})
# The step count is capped, and the oracle runs on one small schedule, only
# to bound the test's time: 300 cases run in about half a second.  Step
# counts and schedules past their bounds are tested on their own
# (test_cli.py), and the caps hide no defect: a sweep's rows are evaluated
# one by one, the same way at any count.
MAX_STEPS = 16
ORACLE = "256,512,1024"


def _leaves(node, path=()):
    """The paths of the scalar leaves of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _extreme(rng: random.Random, value):
    """An extreme in place of a leaf: half the time, a number leaf scaled
    by 10^+-30, 10^+-160 or 10^+-300, or moved to the largest or smallest
    double of its sign, which keeps its sign and so more often its
    validity; else one of NUMBERS, or a value of another kind."""
    if type(value) is float and value and rng.random() < 0.5:
        scale = rng.choice((-300, -160, -30, 30, 160, 300, "max", "min"))
        if isinstance(scale, str):
            return math.copysign(1.7e308 if scale == "max" else 5e-324, value)
        return value * 10.0 ** scale
    return rng.choice(NUMBERS if rng.random() < 0.9 else OTHERS)


def _mutated(rng: random.Random) -> dict:
    config = copy.deepcopy(rng.choice(GOLDENS))
    leaves = list(_leaves(config))
    for path in rng.sample(leaves, rng.randint(1, 3)):
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _extreme(rng, node[path[-1]])
    steps = config["sweep"].get("steps")
    if type(steps) is int and steps > MAX_STEPS:
        config["sweep"]["steps"] = MAX_STEPS
    return config


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_csv(text: str, err: str) -> None:
    """Every row with a number that is not finite carries an error, which
    ``simulate`` prints by its swept value and mode, and every printed
    oracle deviation is finite."""
    failed = {line.split(":")[0] for line in err.splitlines() if line.startswith("row ")}
    header, *rows = text.splitlines()
    oracle = header.endswith(",oracle_dev")
    for line in rows:
        swept, mode, *cells = line.split(",")
        if oracle and cells[-1]:
            assert math.isfinite(float(cells[-1])), line
        if not all(math.isfinite(float(cell)) for cell in cells if cell):
            assert f"row swept_value={float(swept):g} mode={mode}" in failed, line


def _check_json(text: str) -> None:
    """JSON prints a number that is not finite as null: only a row with an
    error may hold one, and then every number it holds is null."""
    for row in json.loads(text):
        numbers = {key: value for key, value in row.items()
                   if key not in ("mode", "error", "oracle_dev")}
        if "error" in row:
            assert row["oracle_dev"] is None, row
        else:
            assert all(isinstance(value, float) and math.isfinite(value)
                       for value in numbers.values()), row
            assert row["oracle_dev"] is None or math.isfinite(row["oracle_dev"]), row


def _check_case(config: dict, oracle: bool, fmt: str, path: pathlib.Path) -> None:
    path.write_text(json.dumps(config))
    documented = {EXIT_OK, EXIT_CONFIG, EXIT_GUARD, EXIT_MODES}
    valid, _, _ = _run(["validate", "--config", str(path)])
    assert valid in (EXIT_OK, EXIT_CONFIG)

    argv = ["simulate", "--config", str(path), "--format", fmt]
    code, out, err = _run(argv + (["--oracle", ORACLE] if oracle else []))
    assert code in documented
    assert (code == EXIT_CONFIG) == (valid == EXIT_CONFIG), err
    assert "Traceback" not in err
    if code != EXIT_CONFIG:
        (_check_csv(out, err) if fmt == "csv" else _check_json(out))

    code, out, err = _run(["compare", "--config", str(path)])
    assert code in documented
    assert (code == EXIT_CONFIG) == (valid == EXIT_CONFIG), err
    if code in (EXIT_OK, EXIT_MODES):
        for line in out.splitlines()[1:11]:
            assert all(math.isfinite(float(x)) for x in line.split()[1:]), line


def test_mutated_goldens_end_in_numbers_or_named_errors(property_seed, tmp_path):
    rng = random.Random(property_seed)
    for case in range(CASES):
        config = _mutated(rng)
        oracle, fmt = rng.random() < 0.25, rng.choice(("csv", "json"))
        try:
            _check_case(config, oracle, fmt, tmp_path / "case.json")
        except Exception as exc:
            raise AssertionError(f"case {case} (oracle {oracle}, {fmt}): "
                                 f"{json.dumps(config)}") from exc
