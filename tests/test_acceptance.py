"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``
to see them).  The baseline case throughout is the nondimensional scenario
m = hbar = T = 1, g = 1, f = 1, a = 0.1, b = -0.1, da = 1, db = 2,
z1 = 0, z2 = 0.5.
"""

import json
import time

import numpy as np

from rpif import (
    MODE_DERIVED,
    MODE_LITERAL,
    classical_action,
    decompose,
    oracle_propagator,
    restricted_propagator,
)
from rpif.cli import EXIT_OK, main
from sampling import random_scenario
from rpif.timefunctions import ConstantFunction
from util import lattice_values, linear_potential_action, make_scenario


def _check(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] acceptance {number}: {label}{suffix}")
    assert ok, f"acceptance {number}: {label}{suffix}"


def test_criterion_01_oracle_equivalence():
    scenario = make_scenario()
    worst = 0.0
    elapsed = []
    for label in ("a", "b"):
        start = time.perf_counter()
        ext = oracle_propagator(scenario, label, (256, 512, 1024))
        closed = restricted_propagator(scenario.beam(label), scenario.frame_profile,
                                       scenario.params, scenario.z1, scenario.z2)
        elapsed.append(time.perf_counter() - start)
        worst = max(worst, abs(closed.amplitude - ext.value) / abs(ext.value))
    ok = worst <= 1e-6 and max(elapsed) <= 10.0
    _check(1, "closed form vs Richardson-extrapolated lattice (N=256,512,1024)",
           ok, f"rel dev {worst:.3e}, slowest beam {max(elapsed):.2f}s")


def test_criterion_02_free_particle_limit():
    scenario = make_scenario(g=0.0, z1=0.0, z2=1.0, delta_a=1e6,
                             a=ConstantFunction(0.0))
    s = classical_action(scenario.beam_a, scenario.frame_profile,
                         scenario.params, 0.0, 1.0)
    expect = 0.5
    ok = abs(s.real - expect) <= 1e-6 * expect and abs(s.imag) <= 1e-6
    _check(2, "free-particle limit of the action",
           ok, f"S = {s.real:.9f} + {s.imag:.2e}i, expected {expect}")


def test_criterion_03_linear_potential_limit():
    scenario = make_scenario(g=1.0, z1=0.0, z2=1.0, delta_a=1e6,
                             a=ConstantFunction(0.0))
    s = classical_action(scenario.beam_a, scenario.frame_profile,
                         scenario.params, 0.0, 1.0)
    oracle = linear_potential_action(m=1.0, g=1.0, T=1.0, z1=0.0, z2=1.0)
    ok = abs(s.real - oracle) <= 1e-6 * abs(oracle)
    _check(3, "uniform-force limit vs classical-trajectory oracle",
           ok, f"S1 = {s.real:.12f}, oracle {oracle:.12f}")


def test_criterion_04_decomposition_identity(property_seed):
    rng = np.random.default_rng(property_seed)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        scenario = random_scenario(rng)
        br = decompose(scenario, MODE_DERIVED)
        worst = max(worst, br.residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 60.0
    _check(4, "i1+...+i5 = phase difference on 20 seeded random scenarios",
           ok, f"worst residual {worst:.3e}, {elapsed:.1f}s, seed {property_seed}")


def test_criterion_05_symmetric_beam_null():
    scenario = make_scenario(delta_a=1.5, delta_b=1.5,
                             a=ConstantFunction(0.12), b=ConstantFunction(0.12))
    worst_term = 0.0
    worst_reduced = 0.0
    for mode in (MODE_LITERAL, MODE_DERIVED):
        br = decompose(scenario, mode)
        worst_term = max(worst_term, *(abs(t) for t in
                                       (br.i1, br.i2, br.i3, br.i4, br.i5)))
        worst_reduced = max(worst_reduced, abs(br.reduced_i - 1.0))
    ok = worst_term <= 1e-12 and worst_reduced <= 1e-12
    _check(5, "identical beams: every term vanishes, reduced interference is 1",
           ok, f"max |term| {worst_term:.2e}, |reduced - 1| {worst_reduced:.2e}")


def test_criterion_06_mass_hbar_scaling():
    base = decompose(make_scenario()).reduced_i
    worst = max(abs(decompose(make_scenario(m=lam, hbar=lam)).reduced_i - base)
                for lam in (0.5, 2.0, 10.0))
    ok = worst <= 1e-9
    _check(6, "reduced interference invariant under (m, hbar) -> (lam*m, lam*hbar)",
           ok, f"max deviation {worst:.2e}")


def test_criterion_07_equivalence_principle():
    outputs = []
    for g in (0.0, 9.8):
        scenario = make_scenario(g=g, f=ConstantFunction(0.0), z1=0.2, z2=0.7)
        der = decompose(scenario, MODE_DERIVED)
        lit = decompose(scenario, MODE_LITERAL)
        outputs.append([der.i1, der.i2, der.i3, der.i4, der.i5,
                        der.phase_difference, der.reduced_i, der.intensity,
                        lit.i1, lit.i2, lit.i3, lit.i4, lit.i5, lit.residual])
    worst = max(abs(x - y) for x, y in zip(*outputs))
    ok = worst <= 1e-10
    _check(7, "with f = 0 every output is independent of g",
           ok, f"max |g=0 vs g=9.8| {worst:.2e}")


def test_criterion_08_resolution_difference_as_source():
    scenario = make_scenario(z1=0.0, z2=1.0, a=ConstantFunction(0.2),
                             b=ConstantFunction(0.2), delta_a=1.0, delta_b=2.0)
    sums = {}
    for mode in (MODE_LITERAL, MODE_DERIVED):
        br = decompose(scenario, mode)
        sums[mode] = abs(br.i1) + abs(br.i2)
    ok = all(v > 1e-6 for v in sums.values())
    _check(8, "identical records, different resolutions still interfere",
           ok, f"|i1|+|i2| literal {sums[MODE_LITERAL]:.3e}, "
               f"derived {sums[MODE_DERIVED]:.3e}")


def test_criterion_09_beam_swap_antisymmetry():
    scenario = make_scenario(z1=0.3, z2=0.8)
    worst_sum = 0.0
    worst_intensity = 0.0
    for mode in (MODE_LITERAL, MODE_DERIVED):
        fwd = decompose(scenario, mode)
        rev = decompose(scenario.swapped(), mode)
        for k in ("i1", "i2", "i3", "i4", "i5", "phase_difference"):
            worst_sum = max(worst_sum, abs(getattr(fwd, k) + getattr(rev, k)))
        worst_intensity = max(worst_intensity,
                              abs(fwd.intensity - rev.intensity) / fwd.intensity)
    ok = worst_sum <= 1e-12 and worst_intensity <= 1e-12
    _check(9, "beam swap negates every term and preserves the intensity",
           ok, f"max |fwd+rev| {worst_sum:.2e}, intensity rel {worst_intensity:.2e}")


def test_criterion_10_lattice_convergence_order():
    scenario = make_scenario()
    vals = lattice_values(scenario, "a", (128, 256, 512, 1024))
    r1 = abs(vals[128] - vals[256]) / abs(vals[256] - vals[512])
    r2 = abs(vals[256] - vals[512]) / abs(vals[512] - vals[1024])
    ok = 3.6 <= r1 <= 4.4 and 3.6 <= r2 <= 4.4
    _check(10, "observed lattice error ratios confirm O(h^2)",
           ok, f"ratios {r1:.3f}, {r2:.3f}")


def test_criterion_11_cli_determinism(tmp_path):
    config = {
        "params": {"m": 1.0, "g": 1.0, "hbar": 1.0, "tau_start": 0.0,
                   "tau_end": 1.0},
        "z1": 0.0, "z2": 0.5,
        "frame_profile": {"kind": "constant", "value": 1.0},
        "beam_a": {"trajectory": {"kind": "constant", "value": 0.1},
                   "resolution": 1.0},
        "beam_b": {"trajectory": {"kind": "constant", "value": -0.1},
                   "resolution": 2.0},
        "sweep": {"parameter": "z2", "start": 0.0, "stop": 1.0, "steps": 4,
                  "mode": "both"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code = main(["simulate", "--config", str(path), "--output", str(out)])
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    _check(11, "two identical simulate runs emit byte-identical CSV",
           ok, f"{len(outs[0])} bytes")
