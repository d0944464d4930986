"""A seeded config fuzzer: every config ends in numbers or named errors.

Each case takes a golden config, replaces one to three of its leaves with
an extreme value (0, -0.0, the smallest subnormal, 1e+-160, 1e300, 1.7e308,
2^63, 10^400, non-finite numbers, negatives, the leaf scaled far up or
down, and values of another kind), and runs ``validate``, ``simulate``
and ``compare`` on it in process, with every warning an error.  A quarter
of the simulations run the lattice oracle, and a third of those a flag with
one bad size (a float, a string token, 0, a size past ``MAX_LEVEL``) or
sizes that do not double, which must be a config error.  Each command must
exit with a documented code and let no exception escape ``cli.main``;
every number that a command prints must be finite, or the row that holds
it must carry an error, and every printed ``oracle_dev`` must be finite.
A quarter of the cases whose config is valid also run ``run_sweep`` on its
SweepSpec with ``steps``, ``mode`` or ``oracle_schedule`` replaced, as a
library caller may build it: it must return rows held to the same rule,
or raise an RpifError.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import pathlib
import random
import warnings

import numpy as np

from rpif import ConfigError, RpifError, cli, parse_config, run_sweep
from rpif.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_MODES, EXIT_OK
from rpif.lattice import MAX_LEVEL

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
#: what replaces one size of ORACLE in a bad flag
BAD_SIZES = ("256.5", "'256'", "0", str(2 * MAX_LEVEL))
#: what a library caller may put in each field of a SweepSpec
SPEC_VALUES = {
    "steps": NUMBERS + OTHERS + (3, np.int64(3)),
    "mode": OTHERS + (1.0, "literal", "derived", "both", "fast", "paper-literal"),
    "oracle_schedule": ((256, 512, 1024), np.array([256, 512, 1024]), (256.5, 512, 1024),
                        ("256", 512, 1024), (True, 512, 1024), (0, 512, 1024),
                        (256, 500, 1000), (2 * MAX_LEVEL, 512, 1024), (256, 512), (), 256,
                        math.nan, ORACLE, None),
}


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


def _oracle(rng: random.Random) -> tuple[str, bool]:
    """ORACLE, or a third of the time a flag that is refused: one size
    replaced by one of BAD_SIZES, or sizes that do not double; and whether
    it is refused."""
    sizes = ORACLE.split(",")
    if rng.random() < 2 / 3:
        return ORACLE, False
    if rng.random() < 0.2:
        sizes[1] = "500"
    else:
        sizes[rng.randrange(3)] = rng.choice(BAD_SIZES)
    return ",".join(sizes), True


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


def _check_library(config: dict, rng: random.Random) -> None:
    """``run_sweep`` on the config's SweepSpec with one field replaced by a
    value of SPEC_VALUES: rows whose numbers are finite, or carry an error,
    or an RpifError.  An invalid config has no SweepSpec, and is skipped."""
    try:
        scenario, spec = parse_config(json.dumps(config))
    except ConfigError:
        return
    field = rng.choice(tuple(SPEC_VALUES))
    spec = dataclasses.replace(spec, **{field: rng.choice(SPEC_VALUES[field])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = run_sweep(scenario, spec)
        except RpifError:
            return
        except Exception as exc:
            raise AssertionError(f"run_sweep on {spec}") from exc
    for row in rows:
        numbers = row[2:11]
        if row.error is None:
            assert all(math.isfinite(value) for value in numbers), (spec, row)
            assert row.oracle_dev is None or math.isfinite(row.oracle_dev), (spec, row)
        else:
            assert all(math.isnan(value) for value in numbers) and row.oracle_dev is None


def _check_case(config: dict, oracle: tuple[str, bool] | None, fmt: str,
                path: pathlib.Path) -> None:
    path.write_text(json.dumps(config))
    documented = {EXIT_OK, EXIT_CONFIG, EXIT_GUARD, EXIT_MODES}
    valid, _, _ = _run(["validate", "--config", str(path)])
    assert valid in (EXIT_OK, EXIT_CONFIG)

    argv = ["simulate", "--config", str(path), "--format", fmt]
    flag, refused = oracle or (None, False)
    code, out, err = _run(argv + (["--oracle", flag] if oracle else []))
    assert code in documented
    assert (code == EXIT_CONFIG) == (valid == EXIT_CONFIG or refused), err
    assert not refused or valid == EXIT_CONFIG or "  --oracle" in err, err
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
        oracle = _oracle(rng) if rng.random() < 0.25 else None
        fmt = rng.choice(("csv", "json"))
        try:
            _check_case(config, oracle, fmt, tmp_path / "case.json")
            if rng.random() < 0.25:
                _check_library(config, rng)
        except Exception as exc:
            raise AssertionError(f"case {case} (oracle {oracle}, {fmt}): "
                                 f"{json.dumps(config)}") from exc
