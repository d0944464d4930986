"""Interference of the two monitored beams and its five-term breakdown.

Recombining the beams at z2 gives the intensity |U_a + U_b|^2.  Dropping
the damping factors leaves the reduced interference

    I = cos((Re S_a - Re S_b)/hbar),

and the real action difference splits into five contributions i1..i5,
grouped by endpoint dependence: quadratic (i1), cross (i2), linear in z1
(i3) and z2 (i4), and endpoint-free (i5).

Two evaluation modes are provided and reported side by side:

``paper-literal``
    The published closed-form expressions evaluated exactly as printed,
    including theta = sqrt(2*pi*hbar*T/(m*delta^2)) in the hyperbolic
    prefactors.  The printed i3/i4 integrals are the action's q1 and q2
    times sin(wT) (``_printed``); only the printed i5 is integrated apart.

``derived``
    The same five groups recomputed directly from the driven-oscillator
    action, where the angle implied by the complex frequency is
    |Re(wT)| = sqrt(2*hbar*T/(m*delta^2)), a factor sqrt(pi) smaller.
    The terms and the action difference are read off the same per-beam
    action blocks, so i1+...+i5 reproduces the action difference to
    rounding: the decomposition identity checks the assembly arithmetic,
    and the lattice oracle is the independent check of the blocks.

The discrepancy between the modes is reported, never silently resolved.
Everything here nondimensionalizes its input first, so outputs are in
internal units (hbar = m = T = 1); the reduced interference and the mode
residual are invariant under that rescaling.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import quadrature
from .actions import (
    ActionBlocks,
    ActionRows,
    _amplitude,
    _batch_action_rows,
    _ensure_finite,
    _prefactor,
    _samplers,
    _sines,
    classical_action,
    ensure_stable,
)
from .errors import LatticeError, RpifError
from .lattice import _batch_lattice_rows, oracle_propagator
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


# ---------------------------------------------------------------------------
# paper-literal closed forms
# ---------------------------------------------------------------------------

def _batch_literal_rows(beams: tuple[BeamRecord, ...], frame_profile: TimeFunction,
                        m: float, hbar: float, tau_start: float, tau_end: float
                        ) -> list[np.ndarray | RpifError]:
    """The g-free rows of the printed i5 integral of beams that share a
    panel layout: one triangle pass for all of them, which samples each
    distinct record once per call.  Independent of the endpoints and of g,
    so an evaluation computes them once per beam, and a resolution sweep
    once for all its resolutions.  Returns each beam's rows, or the
    RpifError that it raises on its own.

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
    """
    t0, t1 = tau_start, tau_end
    out: list = [None] * len(beams)
    f, records = _samplers(beams, frame_profile, t0, t1, out)
    live = [i for i, entry in enumerate(out) if entry is None]
    if not live:
        return out
    samples = quadrature.Samples([records[beams[i].trajectory] for i in live])
    rt2 = math.sqrt(2.0)
    grow, decay = 0.5 + 1j / rt2, 0.5 - rt2 - 1j / rt2
    coefs = [4.0 * hbar / (m * (t1 - t0) * beams[i].resolution ** 2) for i in live]
    rates = quadrature.Coefficients([(k, math.sqrt(k)) for k in coefs])  # omega^2, omega
    batch = quadrature.Batch(len(live))

    def side(x):
        # e^{x/2} hs(x) for x = epsilon or sigma
        return np.exp(grow * x) - np.exp(decay * x)

    def factors(t, s):
        n = t.size
        both = np.concatenate((t, s))
        fv, cv = f(both), samples.take(batch.index, both)
        k, w = rates.take(batch.index)
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

    breaks = frame_profile.breakpoints + beams[0].trajectory.breakpoints
    triangles = quadrature.integrate_triangle(factors, t0, t1, breaks=breaks, batch=batch)
    for j, i in enumerate(live):
        out[i] = batch.failed.get(j, triangles[j].real)
    return out


class _Printed(NamedTuple):
    """One beam's printed-form numbers at the angle theta that depend on
    neither g nor the endpoints: its i1 and i2 brackets over delta, the
    weight W of its i3/i4 blocks (``_printed``), the hyperbolic weights of
    its i5 block and its i5 rows, and the params' factors ``c1``, ``c2``
    and ``mh`` of i1, i2 and i5.  Each field is a number, or an array with
    one entry per point of a group.
    """

    i1: float
    i2: float
    weight_re: float        # W = weight_re + i*weight_im
    weight_im: float
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
    c1: float
    c2: float
    mh: float


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
    weight = 2.0 * math.exp(-th) * complex(w_sin, w_cos) * _sines(w, p.duration)[1] / denom
    return _Printed(
        (1.0 - e4 + 2.0 * e2 * math.sin(2.0 * th)) / denom / delta,
        (w_cos + w_sin) / (math.exp(th) * denom) / delta,
        weight.real, weight.imag,
        p.duration * math.exp(-th) / (th * denom),
        w_cos - w_sin, w_cos + w_sin,
        *rows.ravel().tolist(),
        math.sqrt(p.m / (2.0 * p.hbar * p.duration)),
        -math.sqrt(8.0 * p.m / (p.hbar * p.duration)), p.m / p.hbar)


def _printed_terms(z1: float, z2: float, g: float, a: _Printed, b: _Printed,
                   action_a: ActionBlocks, action_b: ActionBlocks) -> tuple[float, ...]:
    """i1..i5 exactly as printed, from the two beams' printed-form numbers
    and, for i3 and i4, their action blocks at g."""
    def weighted(printed, q):  # Re(W*q), in real arithmetic, as ``_Complex``
        return printed.weight_re * q.real - printed.weight_im * q.imag

    def double(printed):
        j1 = printed.j1_0 + g * (printed.j1_1 + g * printed.j1_2)
        j2 = printed.j2_0 + g * (printed.j2_1 + g * printed.j2_2)
        return printed.double * (-printed.w1 * j1 + printed.w2 * j2)

    i1 = (z1 * z1 + z2 * z2) * a.c1 * (a.i1 - b.i1)
    i2 = a.c2 * z1 * z2 * (a.i2 - b.i2)
    i3 = z1 * (weighted(a, action_a.q1) - weighted(b, action_b.q1))
    i4 = z2 * (weighted(a, action_a.q2) - weighted(b, action_b.q2))
    i5 = a.mh * (double(a) - double(b))
    return i1, i2, i3, i4, i5


# ---------------------------------------------------------------------------
# derived mode: the same grouping read off the oscillator action itself
# ---------------------------------------------------------------------------

def _derived_terms(z1: float, z2: float, m: float, a: ActionBlocks,
                   b: ActionBlocks) -> tuple[float, ...]:
    i1 = (z1 * z1 + z2 * z2) * (a.b1 - b.b1).real
    i2 = -2.0 * z1 * z2 * (a.b2 - b.b2).real
    i3 = z1 * (a.q1 - b.q1).real
    i4 = z2 * (a.q2 - b.q2).real
    free_a, free_b = -a.q12 / m, -b.q12 / m
    i5 = (free_a - free_b).real
    return i1, i2, i3, i4, i5


# ---------------------------------------------------------------------------
# evaluation of points
# ---------------------------------------------------------------------------

#: the fewest points that ``_evaluate`` computes as arrays rather than one
#: by one
VECTOR_POINTS = 8


class _Complex:
    """Complex numbers held as a real and an imaginary part, each an array
    over the points of a group, with the arithmetic of a numpy or Python
    complex scalar: a real operand x counts as x + 0j, so a product keeps
    its 0*im terms, and a quotient by x (nonzero: a mass) is multiplied by
    1/(x + 0*(0/x)).  Every operation is real arithmetic, which arrays do
    with the bits of scalars, so each point of a group gets the bits it
    gets alone.  Only the operations the action blocks use are defined."""

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # so that ndarray * _Complex calls __rmul__

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, other: "_Complex") -> "_Complex":
        return _Complex(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other: "_Complex") -> "_Complex":
        return _Complex(self.real - other.real, self.imag - other.imag)

    def __neg__(self) -> "_Complex":
        return _Complex(-self.real, -self.imag)

    def __mul__(self, x) -> "_Complex":
        return _Complex(x * self.real - 0.0 * self.imag, x * self.imag + 0.0 * self.real)

    __rmul__ = __mul__

    def __truediv__(self, x) -> "_Complex":
        ratio = 0.0 / x
        scale = 1.0 / (x + 0.0 * ratio)
        return _Complex((self.real + self.imag * ratio) * scale,
                        (self.imag - self.real * ratio) * scale)


class _Beam:
    """What every point of an evaluation that has this beam, frame profile
    and units reads, computed once: the frequency (or the stability
    error), and what the evaluation fills in for a stable beam: ``action``,
    its action rows with the prefactor and the weight exponent
    -2<c^2>/delta^2; ``printed``, its printed-form numbers (in the literal
    mode); and its lattice rows (with the oracle).  A part whose rows fail
    holds the RpifError instead."""

    __slots__ = ("beam", "frame_profile", "params", "w", "error", "action", "printed",
                 "lattice_rows")

    def __init__(self, beam: BeamRecord, frame_profile: TimeFunction,
                 params: PhysicalParams):
        self.beam, self.frame_profile, self.params = beam, frame_profile, params
        self.w, self.error = None, None
        self.action = self.printed = self.lattice_rows = None
        try:
            self.w = ensure_stable(params, beam.resolution)
        except RpifError as exc:
            self.error = exc


def _fill(beams: Sequence[_Beam], compute: Callable, *extra, by_layout: bool = True) -> list:
    """Each beam's entry of ``compute(records, frame_profile, m, hbar,
    tau_start, tau_end, *extra)``: its rows, or the RpifError that it
    raises.  ``compute`` runs once per group of beams that share the frame
    profile, the units and, with ``by_layout``, the panel layout
    (``quadrature._segments`` of their breakpoints); a call that raises
    fails every beam of its group with that error."""
    groups: dict = {}
    for i, beam in enumerate(beams):
        p, f = beam.params, beam.frame_profile
        layout = (quadrature._segments(p.tau_start, p.tau_end,
                                       f.breakpoints + beam.beam.trajectory.breakpoints)
                  if by_layout else None)
        groups.setdefault(((f, p.m, p.hbar, p.tau_start, p.tau_end), layout), []).append(i)
    out: list = [None] * len(beams)
    for (args, _), index in groups.items():
        try:
            entries = compute(tuple(beams[i].beam for i in index), *args, *extra)
        except RpifError as exc:
            entries = [exc] * len(index)
        for i, entry in zip(index, entries):
            out[i] = entry.with_traceback(None) if isinstance(entry, RpifError) else entry
    return out


def _beams(points: Sequence[Scenario], modes: Sequence[str]) -> list[tuple[_Beam, _Beam]]:
    """Each point's two beams, one ``_Beam`` per distinct (beam, frame
    profile, units), with the ``action`` and, in the literal mode, the
    ``printed`` part of every stable one filled in: for every beam that
    shares a panel layout, at all the resolutions the points visit, the
    action rows come from one line pass and one triangle pass, and the
    printed rows from one triangle pass."""
    by_key: dict = {}
    seen: dict = {}   # by object identity first, so a shared beam is hashed once
    pairs = []
    for nd in points:
        p, f = nd.params, nd.frame_profile
        units = (p.m, p.hbar, p.tau_start, p.tau_end)
        pair = []
        for beam in (nd.beam_a, nd.beam_b):
            ident = (id(beam), id(f), *units)
            found = seen.get(ident)
            if found is None:
                key = (beam, f, *units)
                found = by_key.get(key)
                if found is None:
                    found = by_key[key] = _Beam(beam, f, p)
                seen[ident] = found
            pair.append(found)
        pairs.append(tuple(pair))
    stable = [beam for beam in by_key.values() if beam.error is None]
    for beam, rows in zip(stable, _fill(stable, _batch_action_rows)):
        delta = beam.beam.resolution
        beam.action = rows if isinstance(rows, RpifError) else (
            rows, _prefactor(beam.w, beam.params), -2.0 * rows.mean_square / delta ** 2)
    if MODE_LITERAL in modes:
        for beam, rows in zip(stable, _fill(stable, _batch_literal_rows)):
            delta = beam.beam.resolution
            try:
                beam.printed = rows if isinstance(rows, RpifError) else _printed(
                    rows, beam.w, beam.params, delta, _paper_angle(beam.params, delta))
            except RpifError as exc:
                beam.printed = exc
    return pairs


def _pair(first, second):
    """The same part of a point's two beams, ``first`` of beam a and
    ``second`` of beam b, or the first of them that is an RpifError."""
    for part in (first, second):
        if isinstance(part, RpifError):
            return part
    return first, second


def _named_amplitude(label: str, beam: BeamRecord, prefactor: complex,
                     weight_exponent: float, action: complex, hbar: float) -> complex:
    """The amplitude of beam ``label`` from its action; a failure names the
    beam."""
    try:
        return _amplitude(beam, prefactor, weight_exponent, 1j * action / hbar)
    except RpifError as exc:
        raise RpifError(f"beam_{label}: {exc}") from None


class _Group:
    """Points evaluated together: g, z1, z2 and m, and each beam's action
    rows and printed-form numbers, as numbers for a group of one point and
    as arrays over the points otherwise."""

    def __init__(self, points: Sequence[Scenario], pairs: Sequence[tuple[_Beam, _Beam]]):
        self.points, self.pairs = points, pairs
        self.g, self.z1, self.z2, self.m = (
            _grouped(column) for column in
            zip(*[(nd.params.g, nd.z1, nd.z2, nd.params.m) for nd in points]))

    def _rows(self, side: int) -> ActionRows:
        rows = [pair[side].action[0] for pair in self.pairs]
        if len(rows) == 1:
            return rows[0]
        table = np.array([[r.b1, r.b2, r.q1_f, r.q1_c, r.q2_f, r.q2_c, r.q12_ff, r.q12_fc,
                           r.q12_cc] for r in rows])
        return ActionRows(*(_Complex(column.real, column.imag) for column in table.T),
                          mean_square=None)

    def _printed(self, side: int) -> _Printed:
        printed = [pair[side].printed for pair in self.pairs]
        return printed[0] if len(printed) == 1 else _Printed(*np.array(printed).T)

    def blocks(self) -> tuple[ActionBlocks, ActionBlocks]:
        """Each beam's action blocks at the points' g."""
        return self._rows(0).at(self.g), self._rows(1).at(self.g)

    def actions(self, blocks: tuple[ActionBlocks, ActionBlocks]
                ) -> list[tuple[complex, complex] | RpifError]:
        """Each point's two actions, as Python complex numbers, or the
        RpifError of the first that is not finite.  A point alone gets them
        from ``classical_action``."""
        if len(self.points) == 1:
            (nd,), (pair,) = self.points, self.pairs
            try:
                return [tuple(classical_action(beam.beam, nd.frame_profile, nd.params,
                                               nd.z1, nd.z2, blocks=block)
                              for beam, block in zip(pair, blocks))]
            except RpifError as exc:
                return [exc]
        values = [block.action(self.m, self.z1, self.z2) for block in blocks]
        out: list = []
        for point in zip(*(map(complex, value.real.tolist(), value.imag.tolist())
                           for value in values)):
            try:
                for value in point:
                    if not cmath.isfinite(value):
                        _ensure_finite(np.complex128(value), "classical_action")
            except RpifError as exc:
                point = exc
            out.append(point)
        return out

    def terms(self, mode: str, blocks: tuple[ActionBlocks, ActionBlocks]) -> tuple:
        """i1..i5 of ``mode`` from each beam's action blocks at g."""
        if mode == MODE_LITERAL:
            return _printed_terms(self.z1, self.z2, self.g, self._printed(0),
                                  self._printed(1), *blocks)
        return _derived_terms(self.z1, self.z2, self.m, *blocks)


def _grouped(values: Sequence[float]):
    """Numbers of the points of a group: the number of a group of one, else
    an array."""
    return values[0] if len(values) == 1 else np.array(values)


def _listed(value) -> list[float]:
    """A group's numbers, one per point."""
    return value.tolist() if isinstance(value, np.ndarray) else [value]


def _failure(modes: Sequence[str], error: RpifError,
             literal_error: RpifError | None) -> list[RpifError]:
    """Every mode's result of a point that failed with ``error``: the
    literal mode keeps its own earlier failure, if it had one."""
    return [literal_error or error if mode == MODE_LITERAL else error for mode in modes]


def _amplitudes(nd: Scenario, a: _Beam, b: _Beam, actions: Sequence[complex]
                ) -> tuple[complex, complex]:
    """U_a and U_b of a point from its two actions."""
    (_, prefactor_a, weight_a), (_, prefactor_b, weight_b) = a.action, b.action
    return (_named_amplitude("a", a.beam, prefactor_a, weight_a, actions[0], nd.params.hbar),
            _named_amplitude("b", b.beam, prefactor_b, weight_b, actions[1], nd.params.hbar))


def _oracle_deviation(nd: Scenario, pair: tuple[_Beam, _Beam],
                      amplitudes: tuple[complex, complex], schedule: Sequence[int]) -> float:
    """Max over beams of |closed - extrapolated| / |extrapolated| for a
    point in internal units, from its beams' lattice rows and its
    closed-form amplitudes (U_a, U_b).  A beam whose lattice amplitude
    underflows to 0 raises LatticeError.
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
        worst = max(worst, abs(closed - extr.value) / abs(extr.value))
    return worst


def _evaluate(points: Sequence[Scenario], modes: Sequence[str],
              schedule: Sequence[int] | None = None
              ) -> list[tuple[list[tuple | RpifError], float | None]]:
    """Points in internal units, each in every mode of ``modes``, with the
    lattice oracle on ``schedule`` when one is given.

    For each point returns each mode's numbers (``_ROW_NUMBERS``), or the
    RpifError that failed it, and the oracle deviation, or None without a
    schedule or when every mode failed.  Everything that depends on neither
    g nor the endpoints is computed once per distinct beam (``_Beam``), and
    held only until the evaluation returns.  The points are then evaluated
    together: their rows at g, actions and terms as array arithmetic that
    gives each point the bits it gets alone (``_Complex``), and per point
    only the two amplitudes, the intensity and reduced_i.  The modes share
    the stability check, the actions and the amplitudes; only the printed
    i5 rows are the literal mode's own, so their failure fails that mode
    alone, and it is reported ahead of a failure of the shared part.

    The oracle reduces the beams of every point that reached its
    amplitudes, each distinct beam once per level, one batch per frame
    profile and units (``lattice._batch_lattice_rows``); its deviation is
    shared by every mode of a point, and an oracle error fails each mode
    that had not failed on its own.
    """
    pairs = _beams(points, modes)
    out: list = [None] * len(points)
    failed: dict[int, RpifError] = {}   # a point's literal-mode failure
    live = []                           # the points that reach their actions
    for i, (a, b) in enumerate(pairs):
        error = a.error or b.error
        if error is None and MODE_LITERAL in modes:
            printed = _pair(a.printed, b.printed)
            if isinstance(printed, RpifError):
                failed[i] = printed
                if len(modes) == 1:
                    error = printed
        if error is None:
            actions = _pair(a.action, b.action)
            if isinstance(actions, RpifError):
                error = actions
        if error is None:
            live.append(i)
        else:
            out[i] = (_failure(modes, error, failed.get(i)), None)
    # a few points cost less one by one than as arrays
    groups = [live] if len(live) >= VECTOR_POINTS else [[i] for i in live]
    for indices in groups:
        _evaluate_group(points, pairs, indices, modes, failed, out)
    devs: dict[int, float] = {}
    if schedule:
        reached = [i for i, (_, amplitudes) in enumerate(out) if amplitudes is not None]
        beams = list(dict.fromkeys(beam for i in reached for beam in pairs[i]))
        for beam, rows in zip(beams, _fill(beams, _batch_lattice_rows, tuple(schedule),
                                           by_layout=False)):
            beam.lattice_rows = rows
        for i in reached:
            results, amplitudes = out[i]
            try:
                devs[i] = _oracle_deviation(points[i], pairs[i], amplitudes, schedule)
            except RpifError as exc:
                out[i] = ([r if isinstance(r, RpifError) else exc for r in results], None)
    return [(results, devs.get(i)) for i, (results, _) in enumerate(out)]


def _evaluate_group(points: Sequence[Scenario], pairs: Sequence[tuple[_Beam, _Beam]],
                    members: list[int], modes: Sequence[str], failed: dict[int, RpifError],
                    out: list) -> None:
    """The points ``members`` of ``_evaluate`` as one group: their actions,
    amplitudes and terms, written into ``out``."""
    def group(indices):
        return _Group([points[i] for i in indices], [pairs[i] for i in indices])

    whole = group(members)
    blocks = whole.blocks()
    shared = {}   # pd, intensity, reduced_i and the amplitudes of each point
    for i, actions in zip(members, whole.actions(blocks)):
        nd = points[i]
        if not isinstance(actions, RpifError):
            try:
                ua, ub = _amplitudes(nd, *pairs[i], actions)
            except RpifError as exc:
                actions = exc
        if isinstance(actions, RpifError):
            out[i] = (_failure(modes, actions, failed.get(i)), None)
            continue
        pd = actions[0].real - actions[1].real
        shared[i] = (pd, abs(ua + ub) ** 2, math.cos(pd / nd.params.hbar), (ua, ub))

    # each mode's terms and residual, over the points it has; a term that
    # overflows where the actions do not fails its mode (``_finite_terms``),
    # with no numpy warning
    terms = {}
    for mode in modes:
        indices = [i for i in shared if mode != MODE_LITERAL or i not in failed]
        if not indices:
            continue
        subgroup = whole if indices == members else group(indices)
        at_g = blocks if subgroup is whole else subgroup.blocks()
        with np.errstate(over="ignore", invalid="ignore"):
            i1, i2, i3, i4, i5 = subgroup.terms(mode, at_g)
            residual = abs(i1 + i2 + i3 + i4 + i5 - _grouped([shared[i][0] for i in indices]))
        terms[mode] = {i: _finite_terms(mode, row) for i, row in
                       zip(indices, zip(*map(_listed, (i1, i2, i3, i4, i5, residual))))}
    for i, (pd, intensity, reduced_i, amplitudes) in shared.items():
        results = []
        for mode in modes:
            row = terms[mode][i] if mode in terms and i in terms[mode] else failed[i]
            results.append(row if isinstance(row, RpifError)
                           else (intensity, reduced_i, *row[:5], pd, row[5]))
        failed_all = all(isinstance(result, RpifError) for result in results)
        out[i] = (results, None if failed_all else amplitudes)


def _finite_terms(mode: str, row: tuple[float, ...]) -> tuple[float, ...] | RpifError:
    """A mode's i1..i5 and residual at a point, or an RpifError naming the
    first of them that is not finite."""
    for name, value in zip(("i1", "i2", "i3", "i4", "i5", "residual"), row):
        if not math.isfinite(value):
            return RpifError(f"{mode}: {name} is not finite ({float(value)})")
    return row


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
