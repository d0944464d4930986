"""Seeded, fixed request lists for the benchmark workloads.

A request is one ``rpif simulate`` call on one generated config file.  The
list depends only on the workload name, the seed and the run length in
seconds, and the run length sets the request count, never a clock: every
run of a workload does the same mix of work.

This module imports nothing from ``rpif`` and draws numbers only from the
standard library's ``random.Random``, so a change to the program (its
``rpif.sampling`` module included) or to numpy cannot change the inputs.
The program sees only the config files written by ``write_configs``.

All configs are in internal units (m = hbar = T = 1, time on [0, 1]),
where a resolution delta gives |wT| = 2/delta.  Every share that decides
cost or failure (sweep parameter, beam class, point count, mode, oracle
schedule) is dealt from a balanced deck, so different seeds give the same
composition and only the drawn values differ.
"""

from __future__ import annotations

import collections
import json
import math
import os
import random
from dataclasses import dataclass

WHY = {
    "sweep_smooth": (
        "long closed-form sweeps of all five parameters on smooth records: "
        "consecutive rows share almost everything, so cross-row reuse shows; "
        "the lattice does no work"),
    "oracle_points": (
        "many 1-3 point requests with the lattice oracle: lattice time dominates, "
        "little is shared across rows, and per-request parse/validate/render cost shows"),
    "hard_records": (
        "single points on tabulated records, omega 40/150/400 sinusoids and resolutions "
        "near the guard: triangle quadrature and its memory dominate, about half the rows fail"),
}

SWEEP_PARAMETERS = ("z2", "g", "delta_a", "delta_b", "m_over_hbar_scale")
SMOOTH_FAMILIES = ("polynomial", "linear", "constant", "sinusoid")
RECORD_PAIRS = tuple((a, b) for i, a in enumerate(SMOOTH_FAMILIES)
                     for b in SMOOTH_FAMILIES[i:])

# Beam resolution classes.  |wT| = 2/delta.  "far" beams sit past the
# principal-branch crossing of the propagator prefactor at |wT| ~ 3.35
# (delta ~ 0.597); their closed-form amplitude flips sign against the
# lattice, a known defect whose rows are meant to fail.  The gap between
# 0.55 and 0.65 keeps every beam clearly on one side of that crossing, so
# the failing share is fixed by the deck, not by where draws happen to land.
DELTA_NEAR = (0.65, 4.0)       # |wT| 0.5 .. 3.08
DELTA_FAR = (0.25, 0.55)       # |wT| 3.64 .. 8
DELTA_SERIES = (250.0, 1000.0)  # |wT| < 1e-2, the series branch
DELTA_TABULATED = (0.65, 1.0)  # strong record term: kinks dominate the integrands
GUARD_WT = (50.0, 59.0)        # stability guard trips above |wT| = 60
# A near-guard beam's record is drawn within a few resolutions of zero.
# Records ~25 resolutions out overflow exp(i*S/hbar) in
# propagator_from_action with an uncaught OverflowError that aborts the
# whole request, and the benchmark runs only requests that complete.
GUARD_RECORD_SCALE = 4.0

# Requests per second of requested run length, and the deck each workload
# is dealt from; counts are rounded up to whole decks.
RATE = {"sweep_smooth": 5.0, "oracle_points": 21.0, "hard_records": 10.0}
MIN_REQUESTS = 100

# Beam-class pairs, dealt evenly: 1 in 5 requests has one far beam and 1 in
# 5 one series beam.
BEAM_PAIRS = ("near/near", "near/near", "near/near", "far/near", "series/near")
SMOOTH_STEPS = 32  # one length for every request, so the median request is steady
SMOOTH_RECHECK = 2  # sweep points per request whose intensity is rechecked

ORACLE_POINTS = (1, 2, 3)
ORACLE_MODES = ("both", "derived")
ORACLE_SCHEDULES = ("512,1024,2048", "1024,2048,4096")

# hard_records classes per deck of 100 requests.  Half are tabulated, so
# about half the rows fail, and the median request is a tabulated one,
# whose cost barely varies.  One omega = 400 request takes seconds and
# half a gigabyte, and its cost swings with its parameters, so it is the
# same scenario in every deck: the reference scenario with beam a's record
# replaced by OMEGA400_RECORD.
HARD_DECK = (("tabulated", 50), ("guard", 20), ("sinusoid40", 16),
             ("sinusoid150", 13), ("sinusoid400", 1))
OMEGA400_RECORD = {"kind": "sinusoid", "amplitude": 0.3, "omega": 400.0, "phase": 0.0}


@dataclass(frozen=True)
class Request:
    """One ``rpif simulate`` call: its config and its command-line options."""

    name: str
    config: dict
    fmt: str
    oracle: str | None
    recheck: tuple[int, ...] = ()

    @property
    def steps(self) -> int:
        return self.config["sweep"]["steps"]

    @property
    def modes(self) -> tuple[str, ...]:
        if self.config["sweep"]["mode"] == "both":
            return ("paper-literal", "derived")
        return ("derived",)

    @property
    def rows(self) -> int:
        return self.steps * len(self.modes)

    def argv(self, config_path: str, output_path: str) -> list[str]:
        argv = ["simulate", "--config", config_path, "--output", output_path,
                "--format", self.fmt, "--jobs", "1"]
        if self.oracle is not None:
            argv += ["--oracle", self.oracle]
        return argv


def request_count(workload: str, seconds: int, deck: int) -> int:
    wanted = max(MIN_REQUESTS, math.ceil(seconds * RATE[workload]))
    return deck * math.ceil(wanted / deck)


def deal(rng: random.Random, items, count: int) -> list:
    """``count`` items cycling through ``items`` in equal shares, shuffled."""
    items = list(items)
    hand = [items[i % len(items)] for i in range(count)]
    rng.shuffle(hand)
    return hand


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def spread(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` values covering [lo, hi] evenly: one draw per equal slice, shuffled."""
    values = [round(lo + (hi - lo) * (k + rng.random()) / count, 6) for k in range(count)]
    rng.shuffle(values)
    return values


def smooth_function(rng: random.Random, family: str) -> dict:
    if family == "polynomial":
        return {"kind": "polynomial",
                "coefficients": [_u(rng, -1.0, 1.0) for _ in range(4)]}
    if family == "linear":
        return {"kind": "linear", "slope": _u(rng, -1.0, 1.0),
                "intercept": _u(rng, -1.0, 1.0)}
    if family == "constant":
        return {"kind": "constant", "value": _u(rng, -1.0, 1.0)}
    return {"kind": "sinusoid", "amplitude": _u(rng, 0.1, 1.0),
            "omega": _u(rng, 0.5, 3.0), "phase": _u(rng, 0.0, 2.0 * math.pi)}


def scaled(fn: dict, factor: float) -> dict:
    """The time function ``fn`` multiplied by ``factor``."""
    fn = dict(fn)
    if fn["kind"] == "polynomial":
        fn["coefficients"] = [round(c * factor, 9) for c in fn["coefficients"]]
    elif fn["kind"] == "linear":
        fn["slope"] = round(fn["slope"] * factor, 9)
        fn["intercept"] = round(fn["intercept"] * factor, 9)
    elif fn["kind"] == "constant":
        fn["value"] = round(fn["value"] * factor, 9)
    else:
        fn["amplitude"] = round(fn["amplitude"] * factor, 9)
    return fn


def resolution_range(beam_class: str) -> tuple[float, float]:
    return {"near": DELTA_NEAR, "far": DELTA_FAR, "series": DELTA_SERIES}[beam_class]


class Resolutions:
    """Beam resolutions per class, spread evenly over each class's range.

    Cost depends strongly on the resolution, so every seed draws the same
    spread of resolutions for the beam-class pairs it is built for.
    """

    def __init__(self, rng: random.Random, pairs):
        needed = collections.Counter(c for pair in pairs for c in pair.split("/"))
        self._pools = {c: spread(rng, *resolution_range(c), n) for c, n in needed.items()}

    def take(self, beam_class: str) -> float:
        return self._pools[beam_class].pop()


def _scenario(rng: random.Random, pair: str, families, resolutions: Resolutions) -> dict:
    """Scenario fields with beam classes ``pair`` ("x/y", one beam each).

    The beam that gets the first class is drawn, so "far/near" puts the far
    beam on a or on b with equal odds.
    """
    first, second = pair.split("/")
    classes = (first, second) if rng.random() < 0.5 else (second, first)
    frame, rec_a, rec_b = families
    return {
        "params": {"m": 1.0, "g": _u(rng, 0.2, 2.0), "hbar": 1.0,
                   "tau_start": 0.0, "tau_end": 1.0},
        "z1": _u(rng, -1.0, 1.0),
        "z2": _u(rng, -1.0, 1.0),
        "frame_profile": smooth_function(rng, frame),
        "beam_a": {"trajectory": smooth_function(rng, rec_a),
                   "resolution": resolutions.take(classes[0])},
        "beam_b": {"trajectory": smooth_function(rng, rec_b),
                   "resolution": resolutions.take(classes[1])},
    }, classes


def _sweep(rng: random.Random, classes, parameter: str,
           steps: int, mode: str) -> dict:
    """A sweep whose swept resolution stays inside that beam's class."""
    if parameter in ("delta_a", "delta_b"):
        lo, hi = resolution_range(classes[0 if parameter == "delta_a" else 1])
        start, stop = sorted((_u(rng, lo, hi), _u(rng, lo, hi)))
    elif parameter == "z2":
        start = _u(rng, -1.0, 0.0)
        stop = round(start + rng.uniform(0.25, 1.0), 6)
    elif parameter == "g":
        start = _u(rng, 0.0, 1.0)
        stop = round(start + rng.uniform(0.25, 1.0), 6)
    else:
        start = _u(rng, 0.5, 1.0)
        stop = round(start + rng.uniform(0.25, 1.0), 6)
    if steps == 1:
        stop = start
    return {"parameter": parameter, "start": start, "stop": stop,
            "steps": steps, "mode": mode}


def _families(rng: random.Random, count: int) -> list[tuple[str, str, str]]:
    """Frame and record families; the two records' families are dealt as a pair."""
    frames = deal(rng, SMOOTH_FAMILIES, count)
    records = deal(rng, RECORD_PAIRS, count)
    return [(frame, *(pair if rng.random() < 0.5 else pair[::-1]))
            for frame, pair in zip(frames, records)]


def sweep_smooth(rng: random.Random, seconds: int) -> list[Request]:
    combos = [(p, pair) for p in SWEEP_PARAMETERS for pair in BEAM_PAIRS]
    count = request_count("sweep_smooth", seconds, len(combos))
    cells = deal(rng, combos, count)
    families = _families(rng, count)
    resolutions = Resolutions(rng, [pair for _, pair in cells])
    out = []
    for i in range(count):
        parameter, pair = cells[i]
        config, classes = _scenario(rng, pair, families[i], resolutions)
        config["sweep"] = _sweep(rng, classes, parameter, SMOOTH_STEPS, "both")
        recheck = tuple(sorted(rng.sample(range(SMOOTH_STEPS), SMOOTH_RECHECK)))
        out.append(Request(f"r{i:04d}", config, "csv", None, recheck))
    return out


def oracle_points(rng: random.Random, seconds: int) -> list[Request]:
    combos = [(pair, n, mode, sched) for pair in BEAM_PAIRS for n in ORACLE_POINTS
              for mode in ORACLE_MODES for sched in ORACLE_SCHEDULES]
    count = request_count("oracle_points", seconds, len(combos))
    cells = deal(rng, combos, count)
    parameters = deal(rng, SWEEP_PARAMETERS, count)
    families = _families(rng, count)
    resolutions = Resolutions(rng, [cell[0] for cell in cells])
    out = []
    for i in range(count):
        pair, n, mode, schedule = cells[i]
        config, classes = _scenario(rng, pair, families[i], resolutions)
        config["sweep"] = _sweep(rng, classes, parameters[i], n, mode)
        out.append(Request(f"r{i:04d}", config, "json", schedule))
    return out


def _tabulated(rng: random.Random) -> dict:
    """A zig-zag record with four interior samples on the dyadic grid and four off it.

    Any interior sample defeats today's quadrature.  A record whose line
    integrals happen to converge reaches the triangle rule, which then takes
    seconds and 1.8 GB before it fails too; zig-zag values with large slope
    changes fail in the line rule, so every tabulated request costs the same.
    """
    dyadic = rng.sample([k / 16.0 for k in range(1, 16)], 4)
    off: set[float] = set()
    while len(off) < 4:
        t = _u(rng, 0.02, 0.98)
        if (t * 1024.0) % 1.0 != 0.0:
            off.add(t)
    times = [0.0] + sorted(set(dyadic) | off) + [1.0]
    return {"kind": "tabulated", "times": times,
            "values": [(-1) ** k * _u(rng, 0.5, 1.0) for k in range(len(times))]}


def hard_records(rng: random.Random, seconds: int) -> list[Request]:
    deck = [name for name, n in HARD_DECK for _ in range(n)]
    count = request_count("hard_records", seconds, len(deck))
    cells = deal(rng, deck, count)
    families = _families(rng, count)
    resolutions = Resolutions(rng, ["near/near"] * count)
    tabulated = spread(rng, *DELTA_TABULATED, cells.count("tabulated"))
    guard = spread(rng, *GUARD_WT, cells.count("guard"))
    out = []
    for i in range(count):
        kind = cells[i]
        config, _ = _scenario(rng, "near/near", families[i], resolutions)
        beam = "beam_a" if rng.random() < 0.5 else "beam_b"
        if kind == "tabulated":
            config[beam]["trajectory"] = _tabulated(rng)
            config[beam]["resolution"] = tabulated.pop()
        elif kind == "sinusoid400":
            config = {"beam_a": {"trajectory": dict(OMEGA400_RECORD), "resolution": 1.0},
                      "z2": 0.5}
        elif kind == "guard":
            delta = round(2.0 / guard.pop(), 6)
            config[beam]["resolution"] = delta
            config[beam]["trajectory"] = scaled(config[beam]["trajectory"],
                                                GUARD_RECORD_SCALE * delta)
        else:
            config[beam]["trajectory"] = {
                "kind": "sinusoid", "amplitude": _u(rng, 0.1, 0.5),
                "omega": float(kind[len("sinusoid"):]),
                "phase": _u(rng, 0.0, 2.0 * math.pi)}
        config["sweep"] = {"parameter": "z2", "start": config["z2"],
                           "stop": config["z2"], "steps": 1, "mode": "both"}
        out.append(Request(f"r{i:04d}", config, "csv", None))
    return out


GENERATORS = {"sweep_smooth": sweep_smooth, "oracle_points": oracle_points,
              "hard_records": hard_records}


def generate(workload: str, seed: int, seconds: int) -> list[Request]:
    """The request list of one run; the same arguments give the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, seconds)


def config_text(request: Request) -> str:
    return json.dumps(request.config, sort_keys=True, indent=1) + "\n"


def write_configs(requests: list[Request], directory: str) -> list[str]:
    """Write one config file per request; return their paths in order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for request in requests:
        path = os.path.join(directory, request.name + ".json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(config_text(request))
        paths.append(path)
    return paths
