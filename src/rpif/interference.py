"""Interference of the two monitored beams and its five-term breakdown.

Recombining the beams at z2 gives the intensity |U_a + U_b|^2.  Dropping
the damping factors leaves the reduced interference

    I = cos((Re S_a - Re S_b)/hbar),

and the real action difference splits into five contributions i1..i5,
grouped by endpoint dependence: quadratic (i1), cross (i2), linear in z1
(i3) and z2 (i4), and endpoint-free (i5).  Both modes form them by one
formula (``_terms``) from five parts a_k of beam a and b_k of beam b and
three factors: i1 = (z1^2+z2^2) s1 Re(a_0 - b_0), i2 = s2 z1 z2
Re(a_1 - b_1), i3 = z1 Re(a_2 - b_2), i4 = z2 Re(a_3 - b_3) and
i5 = s5 Re(a_4 - b_4).  The two modes, reported side by side, differ
only in the parts and the factors:

``paper-literal``
    The published closed-form expressions evaluated exactly as printed,
    including theta = sqrt(2*pi*hbar*T/(m*delta^2)) in the hyperbolic
    prefactors.  The printed i3/i4 integrals are the action's q1 and q2
    times sin(wT) (``_printed``); only the printed i5 is integrated apart.
    The parts are the i1 and i2 brackets, W*q1, W*q2 and the i5 block at
    g (``_Printed.parts``), and the factors ``_literal_scales``.

``derived``
    The same five groups recomputed directly from the driven-oscillator
    action, where the angle implied by the complex frequency is
    |Re(wT)| = sqrt(2*hbar*T/(m*delta^2)), a factor sqrt(pi) smaller.
    The parts are the action blocks b1, b2, q1, q2 and -q12/m, and the
    factors 1, -2 and 1; the action difference is read off the same
    blocks, so i1+...+i5 reproduces it to rounding, which checks only the
    assembly arithmetic: the lattice oracle checks the blocks.

The discrepancy between the modes is reported, never silently resolved.
Everything here nondimensionalizes its input first, so outputs are in
internal units (hbar = m = T = 1); the reduced interference and the mode
residual are invariant under that rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import quadrature
from .actions import (
    ActionBlocks,
    _amplitude,
    _batch_action_rows,
    _sines,
    classical_action,
    ensure_stable,
)
from .errors import LatticeError, RpifError
from .lattice import _batch_lattice_rows, _check_schedule, oracle_propagator
from .scenario import BeamRecord, PhysicalParams, Scenario, nondimensional
from .timefunctions import TimeFunction

MODE_LITERAL = "paper-literal"
MODE_DERIVED = "derived"
_MODES = (MODE_LITERAL, MODE_DERIVED)


@dataclass(frozen=True)
class InterferenceBreakdown:
    i1: float
    i2: float
    i3: float
    i4: float
    i5: float
    phase_difference: float
    reduced_i: float
    intensity: float
    mode: str
    residual: float

    @property
    def terms_sum(self) -> float:
        return self.i1 + self.i2 + self.i3 + self.i4 + self.i5


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise RpifError(f"unknown mode {mode!r}, expected one of {_MODES}")
    return mode


def _paper_angle(params: PhysicalParams, delta: float) -> float:
    """The printed angle theta = sqrt(2*pi*hbar*T/(m*delta^2))."""
    return math.sqrt(2.0 * math.pi * params.hbar * params.duration / (params.m * delta ** 2))


def _literal_scales(p: PhysicalParams) -> tuple[float, float, float]:
    """The printed factors of i1, i2 and i5: sqrt(m/(2*hbar*T)),
    -sqrt(8*m/(hbar*T)) and m/hbar."""
    return (math.sqrt(p.m / (2.0 * p.hbar * p.duration)),
            -math.sqrt(8.0 * p.m / (p.hbar * p.duration)), p.m / p.hbar)


def _differences(a: Sequence[complex], b: Sequence[complex]) -> tuple[float, ...]:
    """Re(a_k - b_k) of the beams' parts ``a`` and ``b``: what ``_terms``
    scales, which depends on the point only through g."""
    return tuple((x - y).real for x, y in zip(a, b))


def _terms(z1: float, z2: float, scales: tuple[float, float, float],
           d: Sequence[float]) -> tuple[float, ...]:
    """i1..i5 of either mode from the part differences ``d``
    (``_differences``) and the ``scales`` s1, s2 and s5 of i1, i2 and i5
    (module docstring)."""
    s1, s2, s5 = scales
    return ((z1 * z1 + z2 * z2) * s1 * d[0], s2 * z1 * z2 * d[1], z1 * d[2], z2 * d[3],
            s5 * d[4])


# ---------------------------------------------------------------------------
# paper-literal closed forms
# ---------------------------------------------------------------------------

def _batch_literal_rows(beams: tuple[BeamRecord, ...], frame_profile: TimeFunction,
                        params: PhysicalParams) -> list[np.ndarray | RpifError]:
    """The g-free rows of the printed i5 integral of beams under one frame
    profile and ``params`` (whose g is not read): one triangle pass for all
    of them, which samples each distinct record once per call.  Independent
    of the endpoints and of g, so an evaluation computes them once per beam,
    and a resolution sweep once for all its resolutions.  Returns each
    beam's rows, or the RpifError that it raises on its own.

    The printed kernels combine g^2*(f(t)+f(s)), the record sum, and the
    mixed g*[f(t)c(s)+f(s)c(t)] term under exp((sigma+epsilon)/2), with
    sigma = omega*(s-t0) and epsilon = omega*(t1-t).  By angle addition the
    second kernel plus i times the first is

        -(i/2) e^{epsilon/2} hs(epsilon) e^{sigma/2} hs(sigma) (G + iH),
        hs(x) = e^{ix/sqrt2} - e^{-sqrt2 x} e^{-ix/sqrt2},
        G + iH = A(t) + A(s) + i*omega^2*g*(f(t)c(s) + c(t)f(s)),
        A = g^2 f - omega^4 c.

    G + iH is a quadratic in g whose coefficients pair an outer factor in t
    with one of the inner factors [1, f(s), c(s)] times e^{sigma/2} hs(sigma).
    Splitting each inner factor into its real and imaginary parts gives six
    real inner rows, and the rows of a beam are indexed
    [j1 (imaginary part), j2 (real part)] x [g^0, g^1, g^2].

    Each factor is e^{x/2} hs(x), whose faster exponential has the rate
    |1/2 - sqrt2 - i/sqrt2| omega, times f or c: the triangle's rate is
    twice that plus twice the faster of f and c, its degree twice their
    higher degree, plus one, and its breakpoints those of f and c.
    """
    t0, t1 = params.tau_start, params.tau_end
    f = frame_profile.sampler()
    samples = quadrature.Samples([beam.trajectory for beam in beams])
    rt2 = math.sqrt(2.0)
    grow, decay = 0.5 + 1j / rt2, 0.5 - rt2 - 1j / rt2
    coefs = [4.0 * params.hbar / (params.m * (t1 - t0) * beam.resolution ** 2)
             for beam in beams]
    omega2 = np.array(coefs)
    omega = np.sqrt(omega2)
    batch = quadrature.Batch(len(beams))

    def side(x):
        # e^{x/2} hs(x) for x = epsilon or sigma
        return np.exp(grow * x) - np.exp(decay * x)

    def factors(t, s):
        n = t.size
        both = np.concatenate((t, s))
        fv, cv = f(both), samples.take(batch.index, both)
        k, w = quadrature._per_set(batch.index, omega2, omega)
        base = -0.5j * side(w * (t1 - t))
        one = np.ones(n)
        # rows g^0, g^1, g^2 against the inner factors [1, f(s), c(s)]:
        # A(t) + A(s) + the mixed term
        table = np.zeros(base.shape[:-1] + (3, 3, n), complex)
        table[..., 0, 0, :], table[..., 0, 2, :] = -k * k * cv[..., :n], -k * k * one
        table[..., 1, 1, :], table[..., 1, 2, :] = 1j * k * cv[..., :n], 1j * k * fv[:n]
        table[..., 2, 0, :], table[..., 2, 1, :] = fv[:n], one
        outer = base[..., None, None, :] * table
        inner = (side(w * (s - t0))[..., None, :]
                 * np.stack(np.broadcast_arrays(one[:1], fv[n:], cv[..., n:]), axis=-2))
        outer = np.concatenate((outer, 1j * outer), axis=-2)
        return (np.stack((outer.imag, outer.real), axis=-4),
                np.concatenate((inner.real, inner.imag), axis=-2))

    breaks = [frame_profile.breakpoints + beam.trajectory.breakpoints for beam in beams]
    rate = [2.0 * (abs(decay) * math.sqrt(k) + max(frame_profile.rate, beam.trajectory.rate))
            for k, beam in zip(coefs, beams)]
    degree = [2 * max(frame_profile.degree, beam.trajectory.degree) + 1 for beam in beams]
    triangles = quadrature.integrate_triangle(factors, t0, t1, rate=rate, degree=degree,
                                              breaks=breaks, batch=batch)
    if triangles is None:  # every beam refused, before any node
        return [batch.failed[j] for j in range(len(beams))]
    return [batch.failed.get(j, triangles[j].real) for j in range(len(beams))]


class _Printed(NamedTuple):
    """One beam's printed-form numbers at the angle theta that depend on
    neither g nor the endpoints: its i1 and i2 brackets over delta, the
    complex weight W of its i3/i4 blocks (``_printed``), the hyperbolic
    weights of its i5 block and its i5 rows: per-beam numbers only.
    """

    i1: float
    i2: float
    weight: complex
    double: float           # T exp(-theta) / (theta denom(theta))
    w1: float
    w2: float
    # the triangle rows j1 and j2, at g^0, g^1 and g^2
    j1_0: float
    j1_1: float
    j1_2: float
    j2_0: float
    j2_1: float
    j2_2: float

    def parts(self, g: float, blocks: ActionBlocks) -> tuple:
        """The beam's five parts for ``_differences`` at g, from its action
        ``blocks`` at g: the i1 and i2 brackets, W*q1, W*q2 and the i5
        block."""
        j1 = self.j1_0 + g * (self.j1_1 + g * self.j1_2)
        j2 = self.j2_0 + g * (self.j2_1 + g * self.j2_2)
        return (self.i1, self.i2, self.weight * blocks.q1, self.weight * blocks.q2,
                self.double * (-self.w1 * j1 + self.w2 * j2))


def _printed(rows: np.ndarray, w: complex, p: PhysicalParams, delta: float,
             th: float) -> _Printed:
    """The printed-form numbers of a beam at resolution ``delta`` and
    complex frequency ``w`` with literal rows ``rows``, at the angle
    ``th``, with

        denom = 1 + e^{-4 theta} - 2 e^{-2 theta} cos(2 theta).

    The printed i3/i4 integrands of a beam are e^x (1 + e^{-2x}) sin x and
    e^x (1 - e^{-2x}) cos x at x = q*u, with w = q*(1 - i): that is
    2 Re sin(wu) and -2 Im sin(wu).  So its printed pair of single integrals
    is sin(wT) times its action's q1 (anchored at the end) or q2 (at the
    start), and in internal units its printed i3/i4 blocks are Re(W*q1) and
    Re(W*q2), with

        W = 2 e^{-theta} [(1 + e^{-2 theta}) sin theta
                          + i (1 - e^{-2 theta}) cos theta] sin(wT) / denom,

    which is 1 at theta = |Re(wT)|.  denom is about 8 theta^2 at small
    theta, and as printed it rounds to 0 once theta is near 1e-9 or below
    (resolution 1e10 in internal units); the printed forms are then
    undefined, and that raises an RpifError.
    """
    e2, e4 = math.exp(-2.0 * th), math.exp(-4.0 * th)
    denom = 1.0 + e4 - 2.0 * e2 * math.cos(2.0 * th)
    if not denom > 0.0:
        raise RpifError(f"paper-literal: the printed denominator "
                        f"1 + e^(-4 theta) - 2 e^(-2 theta) cos(2 theta) is {denom:g} "
                        f"at resolution {delta:g} (theta {th:.6g})")
    w_cos, w_sin = (1.0 - e2) * math.cos(th), (1.0 + e2) * math.sin(th)
    return _Printed(
        (1.0 - e4 + 2.0 * e2 * math.sin(2.0 * th)) / denom / delta,
        (w_cos + w_sin) / (math.exp(th) * denom) / delta,
        2.0 * math.exp(-th) * complex(w_sin, w_cos) * _sines(w, p.duration)[1] / denom,
        p.duration * math.exp(-th) / (th * denom),
        w_cos - w_sin, w_cos + w_sin,
        *rows.ravel().tolist())


# ---------------------------------------------------------------------------
# evaluation of points
# ---------------------------------------------------------------------------

class _Beam:
    """What every point of an evaluation that has this beam reads, computed
    once: the frequency (or the stability error), and what the evaluation
    fills in for a stable beam: ``action``, its ``ActionRows``, which carry
    the prefactor and the weight exponent -2<c^2>/delta^2; ``printed``, its
    printed-form numbers (in the literal mode); and its lattice rows (with
    the oracle).  A part whose rows fail holds the RpifError instead."""

    __slots__ = ("beam", "w", "error", "action", "printed", "lattice_rows")

    def __init__(self, beam: BeamRecord, params: PhysicalParams):
        self.beam = beam
        self.w, self.error = None, None
        self.action = self.printed = self.lattice_rows = None
        try:
            self.w = ensure_stable(params, beam.resolution)
        except RpifError as exc:
            self.error = exc


def _fill(beams: Sequence[_Beam], compute: Callable, *args) -> list:
    """Each beam's entry of ``compute(records, *args)``: its rows, or the
    RpifError that it raises.  ``compute`` runs once for all the beams, and
    not at all for none; a call that raises fails every beam with that
    error."""
    if not beams:
        return []
    try:
        entries = compute(tuple(beam.beam for beam in beams), *args)
    except RpifError as exc:
        entries = [exc] * len(beams)
    return [entry.with_traceback(None) if isinstance(entry, RpifError) else entry
            for entry in entries]


def _beams(points: Sequence[Scenario], modes: Sequence[str], frame_profile: TimeFunction,
           params: PhysicalParams) -> list[tuple[_Beam, _Beam]]:
    """Each point's two beams, one ``_Beam`` per distinct beam, with the
    ``action`` and, in the literal mode, the ``printed`` part of every
    stable one filled in: for all the beams at all the resolutions the
    points visit, under the points' shared ``frame_profile`` and ``params``
    (``_evaluate``), the action rows come from one line pass and one
    triangle pass, and the printed rows from one triangle pass."""
    by_value: dict = {}
    seen: dict = {}   # by object identity first, so a shared beam is hashed once
    pairs = []
    for nd in points:
        pair = []
        for beam in (nd.beam_a, nd.beam_b):
            found = seen.get(id(beam))
            if found is None:
                found = by_value.get(beam)
                if found is None:
                    found = by_value[beam] = _Beam(beam, params)
                seen[id(beam)] = found
            pair.append(found)
        pairs.append(tuple(pair))
    stable = [beam for beam in by_value.values() if beam.error is None]
    for beam, rows in zip(stable, _fill(stable, _batch_action_rows, frame_profile, params)):
        beam.action = rows
    if MODE_LITERAL in modes:
        literal = _fill(stable, _batch_literal_rows, frame_profile, params)
        for beam, rows in zip(stable, literal):
            delta = beam.beam.resolution
            try:
                beam.printed = rows if isinstance(rows, RpifError) else _printed(
                    rows, beam.w, params, delta, _paper_angle(params, delta))
            except RpifError as exc:
                beam.printed = exc
    return pairs


def _oracle_deviation(nd: Scenario, pair: tuple[_Beam, _Beam],
                      amplitudes: tuple[complex, complex], schedule: Sequence[int]) -> float:
    """Max over beams of |closed - extrapolated| / |extrapolated| for a
    point in internal units, from its beams' lattice rows and its
    closed-form amplitudes (U_a, U_b).  A beam whose lattice amplitude
    underflows to 0, or whose deviation is not finite, raises LatticeError.
    """
    worst = 0.0
    for label, beam, closed in zip("ab", pair, amplitudes):
        if isinstance(beam.lattice_rows, RpifError):
            raise beam.lattice_rows.with_traceback(None)
        extr = oracle_propagator(nd, label, schedule, rows=beam.lattice_rows)
        if extr.value == 0:
            raise LatticeError(
                f"beam_{label}: the lattice amplitude underflows to 0 on the "
                f"schedule {','.join(map(str, schedule))}, so the oracle "
                f"deviation is undefined")
        deviation = abs(closed - extr.value) / abs(extr.value)
        if not math.isfinite(deviation):
            raise LatticeError(f"beam_{label}: the oracle deviation is not finite ({deviation})")
        worst = max(worst, deviation)
    return worst


def _fail(row: dict, part, modes: Sequence[str] | None = None) -> None:
    """Fail a point's ``row`` with ``part`` if it is an RpifError: it fills
    each of ``modes`` (all of the row's by default) that is still open,
    that is, holds no RpifError yet, so each mode keeps its first failure.
    Anything else is no failure and leaves the row as it is."""
    if isinstance(part, RpifError):
        for mode in row if modes is None else modes:
            if not isinstance(row[mode], RpifError):
                row[mode] = part


def _open(row: dict) -> bool:
    """Whether any mode of a point's row is still open."""
    return not all(isinstance(entry, RpifError) for entry in row.values())


def _evaluate(points: Sequence[Scenario], modes: Sequence[str],
              schedule: Sequence[int] | None = None
              ) -> list[tuple[list[tuple | RpifError], float | None]]:
    """Points in internal units, each in every mode of ``modes``, with the
    lattice oracle on ``schedule`` when one is given.  The points are those
    of one scenario (``decompose``, ``compare_modes``, ``sweep.run_sweep``):
    they share its frame profile, by value, and its units, which no sweep
    parameter changes in internal units.

    For each point returns each mode's numbers (``_ROW_NUMBERS``), or the
    RpifError that failed it, and the oracle deviation, or None without a
    schedule or once every mode failed.  Each piece of work is done once at
    the level it depends on:

    - per distinct beam (``_Beam``), held until the evaluation returns:
      everything that depends on neither g nor the endpoints, that is,
      stability, action rows and printed numbers;
    - per run of consecutive points with one pair of beams: the row the
      beams' failures leave, which each of those points starts from;
    - per run of consecutive points with one pair and one g, by the exact
      bits of g: both beams' action blocks (``ActionRows.at``) and the part
      differences (``_differences``) of each mode the pair leaves open.  A
      sweep's points come in order, so a z2 sweep computes them once, and
      a g or resolution sweep once per point; only the last are held;
    - per point with an open mode, in Python complex and float arithmetic:
      its two actions (``classical_action`` from the blocks), amplitudes,
      intensity and reduced_i, and each open mode's terms (``_terms``).

    Every level does the operations of a point evaluated alone, in the same
    order, so ``classical_action`` and ``restricted_propagator`` on a
    point's scenario give its phase difference, intensity and reduced_i bit
    for bit.  A number that overflows comes out non-finite, with no
    warning, and fails the point or its mode.

    A table holds each point's entry in each mode, and every stage fails
    points by one rule (``_fail``): its error fills the modes of the point
    that are still open, beam a's error before beam b's.  The stages run in
    the order stability guard, printed i5 rows (the literal mode's alone),
    action rows, actions and amplitudes, each mode's terms, and oracle.  A
    stage runs only for the points with an open mode, and a mode's terms
    only where it is open.  A schedule that ``lattice._check_schedule``
    refuses fails those points before any level is reduced; otherwise the
    oracle reduces the beams of those points, each distinct beam once per
    level, in one batch (``lattice._batch_lattice_rows``); its deviation is
    shared by the open modes of a point, and its error replaces their
    numbers.
    """
    if not points:
        return []
    frame_profile, params = points[0].frame_profile, points[0].params
    pairs = _beams(points, modes, frame_profile, params)
    literal = [MODE_LITERAL] if MODE_LITERAL in modes else []
    m, hbar = float(params.m), params.hbar
    scales = {MODE_LITERAL: _literal_scales(params), MODE_DERIVED: (1.0, -2.0, 1.0)}
    table, amplitudes = [], {}
    last_pair = None
    for i, (nd, pair) in enumerate(zip(points, pairs)):
        a, b = pair
        if pair != last_pair:   # by identity: one _Beam per distinct beam
            template = dict.fromkeys(modes)   # per mode: None, numbers or RpifError
            for part, among in ((a.error, None), (b.error, None), (a.printed, literal),
                                (b.printed, literal), (a.action, None), (b.action, None)):
                _fail(template, part, among)
            open_modes = [mode for mode in modes if template[mode] is None]
            last_pair, last_g = pair, None
        row = template.copy()
        table.append(row)
        if not open_modes:
            continue
        # as Python floats, like m, which overflow without a warning where
        # numpy scalars from a library caller would warn
        g, z1, z2 = float(nd.params.g), float(nd.z1), float(nd.z2)
        if g.hex() != last_g:   # by its bits: 0.0 and -0.0 apart
            last_g = g.hex()
            (block_a, block_b), differences = _at_g(pair, g, open_modes, m)
        try:
            sa = classical_action(a.beam, frame_profile, params, z1, z2, blocks=block_a)
            sb = classical_action(b.beam, frame_profile, params, z1, z2, blocks=block_b)
        except RpifError as exc:
            _fail(row, exc)
            continue
        try:
            ua = _amplitude(a.beam, a.action.prefactor, a.action.weight_exponent,
                            1j * sa / hbar)
        except RpifError as exc:
            _fail(row, RpifError(f"beam_a: {exc}"))
            continue
        try:
            ub = _amplitude(b.beam, b.action.prefactor, b.action.weight_exponent,
                            1j * sb / hbar)
        except RpifError as exc:
            _fail(row, RpifError(f"beam_b: {exc}"))
            continue
        amplitudes[i] = ua, ub
        pd = sa.real - sb.real
        intensity, reduced_i = abs(ua + ub) ** 2, math.cos(pd / hbar)
        for mode, d in differences:
            row[mode] = _numbers(mode, pd, intensity, reduced_i, _terms(z1, z2, scales[mode], d))
    devs: dict[int, float] = {}
    if schedule is not None:
        reached = [i for i, row in enumerate(table) if _open(row)]
        try:
            schedule = _check_schedule(schedule)
        except RpifError as exc:
            for i in reached:
                _fail(table[i], exc.with_traceback(None))
        else:
            beams = list(dict.fromkeys(beam for i in reached for beam in pairs[i]))
            for beam, rows in zip(beams, _fill(beams, _batch_lattice_rows, frame_profile,
                                               params, schedule)):
                beam.lattice_rows = rows
            for i in reached:
                try:
                    devs[i] = _oracle_deviation(points[i], pairs[i], amplitudes[i],
                                                schedule)
                except RpifError as exc:
                    _fail(table[i], exc)
    return [(list(row.values()), devs.get(i)) for i, row in enumerate(table)]


def _at_g(pair: tuple[_Beam, _Beam], g: float, modes: Sequence[str], m: float) -> tuple:
    """What every point of a pair of stable beams at g shares: both beams'
    action blocks at g, and the part differences of each of ``modes``."""
    blocks = tuple(beam.action.at(g) for beam in pair)
    differences = []
    for mode in modes:
        if mode == MODE_LITERAL:
            parts = [beam.printed.parts(g, x) for beam, x in zip(pair, blocks)]
        else:  # the factors of ``ActionBlocks.action``
            parts = [(x.b1, x.b2, x.q1, x.q2, -x.q12 / m) for x in blocks]
        differences.append((mode, _differences(*parts)))
    return blocks, differences


def _numbers(mode: str, pd: float, intensity: float, reduced_i: float,
             terms: tuple[float, ...]) -> tuple[float, ...] | RpifError:
    """A mode's ``_ROW_NUMBERS`` at a point from its i1..i5 ``terms`` and
    their residual against the phase difference ``pd``, or an RpifError
    naming the first of these that is not finite: a term that overflows
    where the actions do not fails its mode.  The residual is finite only
    if every term is."""
    i1, i2, i3, i4, i5 = terms
    residual = abs(i1 + i2 + i3 + i4 + i5 - pd)
    if not math.isfinite(residual):
        for name, value in zip(("i1", "i2", "i3", "i4", "i5", "residual"),
                               (*terms, residual)):
            if not math.isfinite(value):
                return RpifError(f"{mode}: {name} is not finite ({value})")
    return (intensity, reduced_i, *terms, pd, residual)


#: what ``_evaluate`` gives for each mode of a point, in the order of the
#: CSV columns
_ROW_NUMBERS = ("intensity", "reduced_i", "i1", "i2", "i3", "i4", "i5",
                "phase_difference", "residual")


def _breakdown(mode: str, numbers: Sequence[float]) -> InterferenceBreakdown:
    """The breakdown of one mode from its ``_ROW_NUMBERS``."""
    return InterferenceBreakdown(mode=mode, **dict(zip(_ROW_NUMBERS, numbers)))


def decompose(scenario: Scenario, mode: str = MODE_DERIVED) -> InterferenceBreakdown:
    """Full breakdown: the five terms, phase difference, intensity, residual.

    In derived mode the terms and the phase difference come from the same
    per-beam action blocks, so the residual |i1+...+i5 - phase_difference|
    checks only the assembly arithmetic (it is a few ulps); the lattice
    oracle is the independent check.  In paper-literal mode the residual
    measures the printed formulas against the action difference and is
    reported as-is.
    """
    _check_mode(mode)
    [((result,), _)] = _evaluate([nondimensional(scenario)], (mode,))
    if isinstance(result, RpifError):
        raise result
    return _breakdown(mode, result)
