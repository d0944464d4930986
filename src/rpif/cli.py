"""Command-line interface.

Subcommands:
  simulate   run a parameter sweep from a JSON config, emit CSV or JSON
  compare    evaluate one scenario in both modes and print the comparison
  validate   check a config document and report every violation

Exit codes: 0 success, 1 config error (params whose internal units
cannot be formed included), 2 at least one row (or, for compare, the
scenario) failed with an RpifError: a tripped stability guard (a
resolution so fine that 4*hbar/(m*T*delta^2) is not finite included), a
refused quadrature, a refused lattice extrapolation, a non-finite term or
a zero printed denominator; 3 mode disagreement beyond tolerance when
--strict-modes is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .errors import ConfigError, RpifError, ValidationError
from .interference import MODE_LITERAL
from .sweep import (
    MODE_TOLERANCE,
    compare_modes,
    emit_results,
    parse_config,
    parse_oracle_schedule,
    render_comparison,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GUARD = 2
EXIT_MODES = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="rpif",
        description="Gravity-induced interference of continuously monitored beams.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a sweep and emit rows")
    sim.add_argument("--config", required=True, help="path to the JSON config")
    sim.add_argument("--output", default=None, help="output path (default: stdout)")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--oracle", default=None, metavar="N1,N2,N3",
                     help="lattice oracle schedule (doubling sizes, at least 3)")
    sim.add_argument("--jobs", type=int, default=1, metavar="K",
                     help="accepted for compatibility and ignored: sweeps run "
                          "serially")
    sim.add_argument("--strict-modes", action="store_true",
                     help="exit 3 if any paper-literal residual exceeds "
                          f"{MODE_TOLERANCE:g}")

    cmp_p = sub.add_parser("compare", help="side-by-side mode comparison")
    cmp_p.add_argument("--config", required=True)

    val = sub.add_parser("validate", help="validate a config document")
    val.add_argument("--config", required=True)
    return parser


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"/: cannot read config {path!r} ({exc})"]) from None
    return parse_config(text)


def _report_violations(exc: ValidationError) -> None:
    print("config invalid:", file=sys.stderr)
    for violation in exc.violations:
        print(f"  {violation}", file=sys.stderr)


def _cmd_simulate(args) -> int:
    try:
        scenario, spec = _load_config(args.config)
        if args.oracle is not None:
            schedule, problems = parse_oracle_schedule(args.oracle, "--oracle")
            if problems:
                raise ConfigError(problems)
            spec = dataclasses.replace(spec, oracle_schedule=schedule)
        if args.jobs < 1:
            raise ConfigError(["--jobs: must be >= 1"])
    except ValidationError as exc:
        _report_violations(exc)
        return EXIT_CONFIG

    rows = run_sweep(scenario, spec)
    try:
        emit_results(rows, args.format, args.output if args.output else sys.stdout)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    failed = [row for row in rows if row.error is not None]
    for row in failed:
        print(f"row swept_value={row.swept_value:g} mode={row.mode}: {row.error}",
              file=sys.stderr)
    if failed:
        return EXIT_GUARD
    if args.strict_modes:
        worst = max((row.residual for row in rows if row.mode == MODE_LITERAL),
                    default=0.0)
        if worst > MODE_TOLERANCE:
            print(f"paper-literal residual {worst:.3e} exceeds tolerance "
                  f"{MODE_TOLERANCE:g}", file=sys.stderr)
            return EXIT_MODES
    return EXIT_OK


def _cmd_compare(args) -> int:
    try:
        scenario, _ = _load_config(args.config)
    except ValidationError as exc:
        _report_violations(exc)
        return EXIT_CONFIG
    try:
        comparison = compare_modes(scenario)
    except RpifError as exc:
        print(f"compare failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_GUARD
    render_comparison(comparison, stream=sys.stdout)
    return EXIT_MODES if comparison.exceeds_tolerance() else EXIT_OK


def _cmd_validate(args) -> int:
    try:
        scenario, spec = _load_config(args.config)
    except ValidationError as exc:
        _report_violations(exc)
        return EXIT_CONFIG
    p = scenario.params
    print("config OK")
    print(f"  params: m={p.m:g} g={p.g:g} hbar={p.hbar:g} "
          f"tau=[{p.tau_start:g}, {p.tau_end:g}]")
    print(f"  endpoints: z1={scenario.z1:g} z2={scenario.z2:g}")
    print(f"  beam_a: {scenario.beam_a.trajectory.kind} record, "
          f"resolution {scenario.beam_a.resolution:g}")
    print(f"  beam_b: {scenario.beam_b.trajectory.kind} record, "
          f"resolution {scenario.beam_b.resolution:g}")
    print(f"  sweep: {spec.parameter} from {spec.start:g} to {spec.stop:g} "
          f"in {spec.steps} step(s), mode {spec.mode}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    raise SystemExit(main())
