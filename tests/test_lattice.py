import ast
import cmath
import pathlib

import numpy as np
import pytest

from rpif import (
    LatticeError,
    ValidationError,
    classical_action,
    oracle_propagator,
    restricted_propagator,
    richardson_extrapolate,
    scenario_from_dict,
    stationary_action,
)
from rpif.lattice import (
    QuadraticForm,
    _log_det,
    _rows,
    _toeplitz_reduce,
    assemble_quadratic_form,
    gaussian_reduce,
)
from rpif.timefunctions import ConstantFunction, SinusoidFunction
from util import (
    gaussian_exponent_terms,
    lattice_values,
    make_scenario,
    reference_gaussian_reduce,
    reference_tridiag_logdet,
    reference_tridiag_solve,
)


def _free_scenario(**kw):
    return make_scenario(g=0.0, a=ConstantFunction(0.0), b=ConstantFunction(0.0),
                         delta_a=1e8, delta_b=1e8, **kw)


def _level_logdet(scenario, label, n):
    """The package's log det A at N slices, from the beam's parameters."""
    p = scenario.params
    h = p.duration / n
    lam = 2.0 * h / (p.duration * scenario.beam(label).resolution ** 2)
    return _log_det(n, lam, p.m / (p.hbar * h))


def _level_quad(scenario, label, n):
    """The package's 1/2 r^T A^(-1) r at N slices: the stationary exponent
    less the assembled s0 - weight_const."""
    form = assemble_quadratic_form(scenario, label, n)
    p = scenario.params
    stationary = _rows(scenario, label, (n,)).stationary(p.g, scenario.z1,
                                                         scenario.z2)[0]
    return stationary - (form.offset - form.weight_const), form


def _free_exact(m, hbar, T, z1, z2):
    return cmath.sqrt(m / (2j * np.pi * hbar * T)) * cmath.exp(
        1j * m * (z2 - z1) ** 2 / (2.0 * hbar * T))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_lattice_spec_validation():
    # a level is N >= 1 slices; every entry point refuses the rest
    scenario = make_scenario()
    for n in (0, -1):
        with pytest.raises(ValidationError, match="n_steps"):
            assemble_quadratic_form(scenario, "a", n)
        with pytest.raises(ValidationError, match="n_steps"):
            stationary_action(scenario, "a", n)
        with pytest.raises(ValidationError, match="n_steps"):
            oracle_propagator(scenario, "a", (n, 2 * n, 4 * n))


def test_the_lattice_imports_nothing_from_the_closed_form():
    import rpif.lattice
    tree = ast.parse(pathlib.Path(rpif.lattice.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module
                            else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rpif."):
            imported.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[1] for alias in node.names
                            if alias.name.startswith("rpif."))
    assert "scenario" in imported
    assert not imported & {"actions", "interference", "quadrature"}, imported


def test_single_step_free_exponent():
    scenario = _free_scenario(z1=0.0, z2=1.0)
    form = assemble_quadratic_form(scenario, "a", 1)
    # one slice, no interior points: whole exponent is the free action phase
    assert form.diag.shape == (0,)
    assert form.offset == pytest.approx(0.5j, abs=1e-10)


def test_interior_dimension_and_tridiagonality():
    scenario = make_scenario()
    form = assemble_quadratic_form(scenario, "a", 4)
    assert form.diag.shape == (3,)
    assert form.off.shape == (2,)
    assert form.linear.shape == (3,)


def test_assembled_exponent_matches_direct_sum(rng):
    """-1/2 z^T A z + r^T z + s0 must equal the slice-by-slice exponent."""
    scenario = make_scenario(f=None, a=None)
    n = 7
    form = assemble_quadratic_form(scenario, "a", n)
    p = scenario.params
    beam = scenario.beam_a
    h = form.step
    lam = 2.0 * h / (p.duration * beam.resolution ** 2)
    kap = 1j * p.m / (p.hbar * h)
    gq = 1j * p.m * p.g * h / (2.0 * p.hbar)
    t_mid = p.tau_start + h * (np.arange(n) + 0.5)
    f_mid = np.asarray(scenario.frame_profile(t_mid))
    c_mid = np.asarray(beam.trajectory(t_mid))

    for _ in range(5):
        interior = rng.normal(size=n - 1)
        z = np.concatenate([[scenario.z1], interior, [scenario.z2]])
        direct = 0.0 + 0.0j
        for k in range(n):
            direct += kap / 2.0 * (z[k + 1] - z[k]) ** 2
            direct += -lam / 2.0 * ((z[k] - c_mid[k]) ** 2 + (z[k + 1] - c_mid[k]) ** 2)
            direct += -gq * f_mid[k] * (z[k] + z[k + 1])
        quad = (np.sum(form.diag * interior ** 2)
                + 2.0 * np.sum(form.off * interior[:-1] * interior[1:]))
        via_form = -0.5 * quad + np.dot(form.linear, interior) + form.offset
        assert abs(via_form - direct) <= 1e-12 * max(abs(direct), 1.0)


# ---------------------------------------------------------------------------
# exact Gaussian reduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 8, 33])
def test_free_particle_exact_at_any_resolution(n):
    scenario = _free_scenario(z1=0.0, z2=1.0)
    form = assemble_quadratic_form(scenario, "a", n)
    exact = _free_exact(1.0, 1.0, 1.0, 0.0, 1.0)
    for value in (lattice_values(scenario, "a", (n,))[n], gaussian_reduce(form)):
        assert abs(value - exact) <= 1e-12 * abs(exact)


def test_determinant_against_dense_matrix():
    scenario = make_scenario()
    form = assemble_quadratic_form(scenario, "a", 8)
    dense = np.diag(form.diag) + np.diag(form.off, 1) + np.diag(form.off, -1)
    sign, logabs = np.linalg.slogdet(dense)
    dense_logdet = logabs + 1j * np.angle(sign)
    reference = reference_tridiag_logdet(form.diag, form.off)
    closed = _toeplitz_reduce(form.diag, form.off, form.linear)[0]
    ours = _level_logdet(scenario, "a", 8)
    for logdet in (reference, closed, ours):
        assert logdet.real == pytest.approx(dense_logdet.real, rel=1e-12)
        # phases agree modulo 2*pi (both keep the continuous value)
        assert cmath.exp(1j * logdet.imag) == pytest.approx(
            cmath.exp(1j * dense_logdet.imag), rel=1e-12)


def test_reduction_orders_agree():
    scenario = make_scenario()
    for n in (16, 64, 256):
        form = assemble_quadratic_form(scenario, "a", n)
        forward = reference_gaussian_reduce(form, order="forward")
        backward = reference_gaussian_reduce(form, order="backward")
        assert abs(forward - backward) <= 1e-12 * abs(forward)
        assert abs(gaussian_reduce(form) - forward) <= 1e-12 * abs(forward)
        ours = lattice_values(scenario, "a", (n,))[n]
        assert abs(ours - forward) <= 1e-12 * abs(forward)


#: |wT| = 2/delta in internal units: |wT| < 1e-2 (with the delta = 684 beam
#: of a perfbench oracle_points scenario), |wT| inside and outside the
#: prefactor's bands, and the guard's edge
_WT_GRID = (1e-6, 2.0 / 684.046242, 5e-3, 0.5, 2.0, 5.0, 17.0, 33.0, 59.9)


@pytest.mark.parametrize("wt", _WT_GRID)
def test_closed_reduction_matches_reference(wt):
    scenario = make_scenario(delta_a=2.0 / wt, z1=0.1, z2=0.6,
                             a=SinusoidFunction(0.3, 7.0, 0.2))
    for n in (2, 3, 16, 256, 1024, 4096):
        logdet = _level_logdet(scenario, "a", n)
        quad, form = _level_quad(scenario, "a", n)
        # the unwrapped phase itself, not only modulo 2*pi
        expect_logdet = reference_tridiag_logdet(form.diag, form.off)
        expect_quad = 0.5 * np.dot(form.linear, reference_tridiag_solve(
            form.diag, form.off, form.linear))
        assert abs(logdet - expect_logdet) <= 1e-12 * abs(expect_logdet)
        assert abs(quad - expect_quad) <= 1e-12 * abs(expect_quad)


#: endpoint pairs for the rows: off the origin, at it, and one beyond z2 = 1
_ENDPOINTS = ((0.1, 0.6), (0.0, 0.0), (-0.4, 1.3))


@pytest.mark.parametrize("wt", _WT_GRID)
def test_rows_match_the_per_form_reference_at_every_level(wt):
    # one reduction per level, free of g and the endpoints, against the
    # per-form reference assembled and reduced at each (g, z1, z2) on its
    # own; the bound is the rounding scale of the exponent's terms, and
    # N = 1 has no interior points
    schedule = (1, 2, 3, 16, 256, 1024, 4096)
    record = SinusoidFunction(0.3, 7.0, 0.2)
    frame = SinusoidFunction(0.5, 3.0, 1.1)
    rows = _rows(make_scenario(delta_a=2.0 / wt, a=record, f=frame), "a", schedule)
    for g in (0.0, 0.37, 2.0):
        for z1, z2 in _ENDPOINTS:
            scenario = make_scenario(g=g, z1=z1, z2=z2, delta_a=2.0 / wt,
                                     a=record, f=frame)
            again = _rows(scenario, "a", schedule)
            assert (again.const.tobytes(), again.quad.tobytes()) == (
                rows.const.tobytes(), rows.quad.tobytes())
            for n, value in zip(schedule, rows.log_values(g, z1, z2)):
                form = assemble_quadratic_form(scenario, "a", n)
                terms = gaussian_exponent_terms(form)
                assert abs(value - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)


@pytest.mark.parametrize("wt", [5e-3, 2.0, 59.9])
def test_log_det_against_mpmath(wt):
    # the eigenvalue sum at 40 digits; the real-arithmetic log1p keeps the
    # error within two units in the last place of log det A
    mpmath = pytest.importorskip("mpmath")
    n = 4096
    h = 1.0 / n
    lam = 2.0 * h * (wt / 2.0) ** 2
    with mpmath.workdps(40):
        expect = complex(mpmath.fsum(
            mpmath.log(mpmath.mpc(2 * lam, -4 * mpmath.sin(j * mpmath.pi / (2 * n)) ** 2 / h))
            for j in range(1, n)))
    got = _log_det(n, lam, 1.0 / h)
    assert abs(got - expect) <= 2.0 * np.spacing(abs(expect))


def test_overflowing_level_reported():
    # far past the stability guard, |wT| = 2e4, sinh(k*psi) overflows
    scenario = make_scenario(delta_a=1e-4)
    with pytest.raises(LatticeError, match="overflowing"), \
            np.errstate(over="ignore", invalid="ignore"):
        oracle_propagator(scenario, "a", (1024, 2048, 4096))


def test_single_level_reduction_within_discretization_error():
    scenario = make_scenario()
    closed = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                   scenario.params, scenario.z1, scenario.z2)
    value = lattice_values(scenario, "a", (64,))[64]
    # O(h^2) discretization error at N=64, no extrapolation
    assert abs(value - closed.amplitude) <= 1e-3 * abs(closed.amplitude)


def test_pure_measurement_converges_to_closed_form():
    scenario = make_scenario(g=0.0, a=ConstantFunction(0.0), delta_a=1.0)
    closed = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                   scenario.params, scenario.z1, scenario.z2)
    ext = oracle_propagator(scenario, "a", (128, 256, 512, 1024))
    assert abs(ext.value - closed.amplitude) <= 1e-8 * abs(closed.amplitude)


def test_near_singular_form_reported():
    bad = QuadraticForm(diag=np.zeros(3, dtype=complex),
                        off=np.zeros(2, dtype=complex),
                        linear=np.zeros(3, dtype=complex),
                        offset=0j, weight_const=0j, slice_norm=1.0 + 0j,
                        n_steps=4, step=0.25)
    with pytest.raises(LatticeError):
        gaussian_reduce(bad)


def test_form_outside_the_closed_form_reported():
    scenario = make_scenario()
    form = assemble_quadratic_form(scenario, "a", 8)
    uneven = form.diag.copy()
    uneven[3] += 1.0
    with pytest.raises(LatticeError, match="constant-coefficient"):
        _toeplitz_reduce(uneven, form.off, form.linear)
    # Re(A) = 2*lam*I needs lam >= 0
    with pytest.raises(LatticeError, match="lam >= 0"):
        _toeplitz_reduce(form.diag - 10.0, form.off, form.linear)


def test_tridiag_solve_matches_dense():
    rng = np.random.default_rng(5)
    n = 12
    diag = rng.normal(size=n) + 1j * rng.normal(size=n) + 4.0
    off = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    expect = np.linalg.solve(dense, rhs)
    got = reference_tridiag_solve(diag, off, rhs)
    assert np.allclose(got, expect, rtol=1e-11, atol=1e-12)

    scenario = make_scenario()
    quad, form = _level_quad(scenario, "a", n + 1)
    dense = np.diag(form.diag) + np.diag(form.off, 1) + np.diag(form.off, -1)
    expect = 0.5 * np.dot(form.linear, np.linalg.solve(dense, form.linear))
    assert abs(quad - expect) <= 1e-12 * abs(expect)


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------

def test_richardson_constant_sequence():
    res = richardson_extrapolate([(64, 1.5 + 0.5j), (128, 1.5 + 0.5j), (256, 1.5 + 0.5j)])
    assert res.value == 1.5 + 0.5j
    assert res.error_estimate == 0.0


def test_richardson_recovers_h2_model():
    target = 0.8 - 0.3j
    coeff = 2.0 + 1.0j
    seq = [(n, target + coeff * (1.0 / n) ** 2) for n in (64, 128, 256)]
    res = richardson_extrapolate(seq)
    assert abs(res.value - target) <= 1e-12


def test_richardson_requires_three_doubling_levels():
    with pytest.raises(LatticeError, match="at least 3"):
        richardson_extrapolate([(64, 1.0), (128, 1.0)])
    with pytest.raises(LatticeError, match="double"):
        richardson_extrapolate([(64, 1.0), (96, 1.0), (192, 1.0)])


def test_richardson_refuses_non_monotone():
    seq = [(64, 1.0 + 0j), (128, 1.1 + 0j), (256, 1.4 + 0j)]
    with pytest.raises(LatticeError, match="non-monotone"):
        richardson_extrapolate(seq)


def test_richardson_floor_forgives_only_differences_below_it():
    # differences 1e-13 then 2e-13: non-monotone, and rounding-sized
    seq = [(64, 1.0 + 0j), (128, 1.0 + 1e-13 + 0j), (256, 1.0 - 1e-13 + 0j)]
    with pytest.raises(LatticeError, match="non-monotone"):
        richardson_extrapolate(seq)
    with pytest.raises(LatticeError, match="non-monotone"):
        richardson_extrapolate(seq, floor=1.5e-13)
    res = richardson_extrapolate(seq, floor=2e-13)
    assert res.levels == 3 and res.error_estimate >= 2e-13
    assert abs(res.value - 1.0) <= 1e-12
    # the floor is reported for a sequence that converges above it too
    target, coeff = 0.8 - 0.3j, 2.0 + 1.0j
    res = richardson_extrapolate([(n, target + coeff / n ** 2) for n in (64, 128, 256)],
                                 floor=1e-9)
    assert res.error_estimate == 1e-9


# ---------------------------------------------------------------------------
# stationary action
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_stationary_action_free_case_exact(n):
    scenario = _free_scenario(z1=0.0, z2=1.0)
    s = stationary_action(scenario, "a", n)
    assert s.real == pytest.approx(0.5, rel=1e-12)
    assert s.imag == pytest.approx(0.0, abs=1e-12)


def test_stationary_action_linear_potential_h2():
    scenario = make_scenario(g=1.0, z1=0.0, z2=1.0, delta_a=1e9,
                             a=ConstantFunction(0.0))
    expect = 0.5 - 0.5 - 1.0 / 24.0
    errors = []
    for n in (64, 128, 256):
        s = stationary_action(scenario, "a", n)
        errors.append(abs(s.real - expect))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)
    seq = [(n, stationary_action(scenario, "a", n)) for n in (256, 512, 1024)]
    res = richardson_extrapolate(seq)
    assert res.value.real == pytest.approx(expect, rel=1e-9)


def test_stationary_action_baseline_matches_closed_form():
    scenario = make_scenario()
    closed = classical_action(scenario.beam_a, scenario.frame_profile,
                              scenario.params, scenario.z1, scenario.z2)
    seq = [(n, stationary_action(scenario, "a", n)) for n in (256, 512, 1024)]
    res = richardson_extrapolate(seq)
    assert abs(res.value - closed) <= 1e-6 * abs(closed)


# ---------------------------------------------------------------------------
# oracle equivalence and convergence order
# ---------------------------------------------------------------------------

def test_oracle_matches_closed_propagator_on_baseline():
    scenario = make_scenario()
    for label in ("a", "b"):
        closed = restricted_propagator(scenario.beam(label), scenario.frame_profile,
                                       scenario.params, scenario.z1, scenario.z2)
        ext = oracle_propagator(scenario, label, (256, 512, 1024))
        assert abs(closed.amplitude - ext.value) <= 1e-6 * abs(ext.value)


def test_oracle_matches_closed_propagator_randomized(rng):
    from sampling import random_scenario
    for _ in range(10):
        scenario = random_scenario(rng)
        closed = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                       scenario.params, scenario.z1, scenario.z2)
        ext = oracle_propagator(scenario, "a", (128, 256, 512))
        assert abs(closed.amplitude - ext.value) <= 1e-6 * abs(ext.value)


def test_convergence_order_is_h2():
    scenario = make_scenario()
    vals = lattice_values(scenario, "a", (128, 256, 512, 1024))
    r1 = abs(vals[128] - vals[256]) / abs(vals[256] - vals[512])
    r2 = abs(vals[256] - vals[512]) / abs(vals[512] - vals[1024])
    assert 3.6 <= r1 <= 4.4
    assert 3.6 <= r2 <= 4.4


@pytest.mark.parametrize("wt", [1e-3, 0.5, 2.0, 3.45, 5.0, 8.0, 11.5, 13.0, 20.5, 22.0,
                                27.0, 31.0, 40.0, 45.0, 50.0, 58.0, 59.9])
def test_oracle_matches_closed_propagator_across_the_guarded_range(wt):
    # the prefactor root's principal branch is wrong where
    # |wT|/sqrt(2) mod 4*pi lies in (3*pi/4, 11*pi/4): |wT| in about
    # (3.35, 12.2), (21.1, 30.0), (38.9, 47.8) and (56.7, 60)
    scenario = make_scenario(delta_a=2.0 / wt, z1=0.1, z2=0.6)
    closed = restricted_propagator(scenario.beam_a, scenario.frame_profile,
                                   scenario.params, scenario.z1, scenario.z2)
    ext = oracle_propagator(scenario, "a", (512, 1024, 2048))
    assert abs(closed.amplitude - ext.value) <= 1e-6 * abs(ext.value)


def test_series_beam_extrapolates_at_fine_levels():
    # a perfbench oracle_points request (seed 601, r0062): beam b has
    # |wT| < 1e-2, and its level differences at N = 1024..4096 are about
    # 1e-12, so rounding in the reduction alone can make them non-monotone
    scenario = scenario_from_dict({
        "params": {"m": 1.0, "g": 0.036477, "hbar": 1.0,
                   "tau_start": 0.0, "tau_end": 1.0},
        "z1": 0.046934, "z2": 0.036601,
        "frame_profile": {"kind": "constant", "value": 0.357102},
        "beam_a": {"trajectory": {"kind": "polynomial",
                                  "coefficients": [0.847285, 0.268377, -0.595568, 0.085753]},
                   "resolution": 2.17748},
        "beam_b": {"trajectory": {"kind": "polynomial",
                                  "coefficients": [-0.022007, -0.497947, 0.456246, -0.760483]},
                   "resolution": 684.046242}}).nondimensionalized()
    for label in ("a", "b"):
        closed = restricted_propagator(scenario.beam(label), scenario.frame_profile,
                                       scenario.params, scenario.z1, scenario.z2)
        ext = oracle_propagator(scenario, label, (1024, 2048, 4096))
        assert abs(closed.amplitude - ext.value) <= 1e-6 * abs(ext.value)


R0259 = {
    "params": {"m": 1.0, "g": 0.910498, "hbar": 1.0, "tau_start": 0.0, "tau_end": 1.0},
    "z1": -0.887964, "z2": -0.313759,
    "frame_profile": {"kind": "constant", "value": 0.009149},
    "beam_a": {"trajectory": {"kind": "linear", "intercept": -0.085623, "slope": -0.71735},
               "resolution": 751.485637},
    "beam_b": {"trajectory": {"kind": "constant", "value": 0.162203},
               "resolution": 1.987839},
    "sweep": {"parameter": "g", "start": 0.634918, "stop": 1.543278, "steps": 2,
              "mode": "both"}}


def test_level_differences_at_the_rounding_floor_extrapolate():
    # a perfbench oracle_points request (seed 1301, r0259): beam a has
    # |wT| < 1e-2, |U| = 0.399, and at g = 0.634918 its level differences at
    # N = 1024..4096 are 6.35e-13 then 6.81e-13, about 1.7e-12 relative:
    # rounding in an exponent whose terms add up to about 3.5e4 at N = 4096,
    # below the floor of about 6e-12
    import dataclasses
    import json

    from rpif import parse_config, run_sweep
    scenario, spec = parse_config(json.dumps(R0259))
    schedule = (1024, 2048, 4096)
    rows = run_sweep(scenario, dataclasses.replace(spec, oracle_schedule=schedule))
    assert len(rows) == 4
    assert all(row.error is None and row.oracle_dev <= 1e-6 for row in rows)
    nd = dataclasses.replace(scenario, params=dataclasses.replace(
        scenario.params, g=0.634918)).nondimensionalized()
    ext = oracle_propagator(nd, "a", schedule)
    values = lattice_values(nd, "a", schedule)
    diffs = [abs(values[2048] - values[1024]), abs(values[4096] - values[2048])]
    assert diffs[1] > diffs[0]  # non-monotone, as the request found
    assert 5e-12 <= ext.error_estimate <= 1e-11 and ext.levels == 3
