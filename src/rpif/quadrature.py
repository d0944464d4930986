"""Panel-doubling composite Gauss-Legendre quadrature.

One shared convergence policy for every integral in the package: a fixed
Gauss order per panel, panel count doubled until two successive estimates
agree to a relative tolerance, with a hard node budget.  The integrands
here are smooth between known breakpoints (the sample times of tabulated
records, where they have kinks), so [a, b] is first split at the
breakpoints strictly inside it and every segment gets the same number of
panels, doubled together (the QUADPACK QAGP idea, Piessens et al. 1983).
No panel straddles a kink, so convergence is as fast as on a smooth
integrand, and fully deterministic.  The budgets count nodes over all
segments and grow with the segment count, so a split of any length can
run at least three levels.

Both rules also integrate a ``Batch``: independent sets of integrands
over the same interval and panel layout (the rows of every beam of a
sweep whose breakpoints split the window alike), evaluated together.
Each set stops at the first level where all of its own entries pass, and
later levels no longer evaluate it, so a set gets the level and the bits
it would get on its own.  A set that does not converge fails alone, with
the error it would raise alone, and the others go on.  An evaluation
covers as many sets as fit in ``BATCH_POINTS`` points (at least one), so
the memory of a batch does not grow with its size.

Double integrals over the triangle s <= t have separable kernels (a
finite sum of products g(t)*h(s)), so ``integrate_triangle`` takes the
factors rather than the kernel and integrates the inner factor
cumulatively from its values at each panel's ``2*order`` Gauss nodes: a
level with n nodes per axis evaluates the factors at 3n points, not n^2,
in chunks of at most ``BATCH_POINTS`` points: at order 16 a panel has 32
inner nodes and 48 points, and the 2048-point bound gives chunks of 32
panels, 512 outer nodes.

The order is 16 because the hard rows are analytic: the error of an
n-point panel falls like (omega*h)^(2n), so 16 nodes per panel reach the
tolerance in fewer doublings than 8 on oscillatory records and beams
near the stability guard, while smooth rows still settle in two levels.
Both modes of the omega = 400 record in ``tests/test_cost.py`` take 2048
nodes per axis and 24 480 triangle points, about 8 ms and 1.6 MiB of
traced allocations on a 2-core VM with one BLAS thread; 8-node panels
took 4096 nodes per axis for its action rows, 36 816 points and 13 ms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-15
GAUSS_ORDER = 16
LINE_NODE_BUDGET = 2 ** 16   # single integrals
AXIS_NODE_BUDGET = 2 ** 12   # per axis of nested double integrals
BATCH_POINTS = 2 ** 11       # points per evaluation of an integrand, summed over its sets


@lru_cache(maxsize=64)
def _segments(a: float, b: float, breaks: tuple) -> tuple[float, ...]:
    """Segment edges on [0, 1]: the breakpoints strictly inside (a, b),
    mapped by t -> (t - a)/(b - a), between 0 and 1.

    Cached: every integral of a scenario asks with the same breakpoints.
    """
    width = b - a
    inside = sorted({float(x) for x in breaks if a < x < b})
    return (0.0, *((x - a) / width for x in inside), 1.0)


class Batch:
    """The sets of a batched integral, those a rule evaluates now, and
    those that have failed.

    The rule sets ``index`` before each call of the integrand, which
    returns the rows of those sets only: an integer names one set, whose
    rows come without a set axis, and a slice or an integer array names
    several, whose rows carry one in front.  The integrand keeps its plain
    signature, so a wrapper around it sees an ordinary integrand.

    A set that fails an integral gets NaN values and goes into ``failed``,
    with the QuadratureError it raises on its own, and later integrals over
    the batch leave it out.
    """

    def __init__(self, size: int):
        self.size = size
        self.index = slice(None)
        self.failed: dict[int, QuadratureError] = {}


class Coefficients:
    """Per-set coefficients of a batched integrand: one tuple of numbers
    per set."""

    def __init__(self, sets: list):
        self.sets = sets
        self.columns = None

    def take(self, index) -> tuple:
        """The coefficients of the sets ``index`` (a ``Batch`` index),
        shaped to meet a row of nodes: one set's numbers for an integer, so
        that a call evaluating one set costs what the scalar arithmetic of
        one set costs, and a column per set for a slice or an index
        array."""
        if isinstance(index, int):
            return self.sets[index]
        if self.columns is None:
            self.columns = [np.array(column) for column in zip(*self.sets)]
        return tuple(column[index, None] for column in self.columns)


class Samples:
    """Per-set records of a batched integrand, one ``TimeFunction`` per
    set: equal records share one sampler, and each distinct one is sampled
    once per call."""

    def __init__(self, records: list):
        slot: dict = {}
        self.which = np.array([slot.setdefault(record, len(slot)) for record in records])
        self.functions = [record.sampler() for record in slot]

    def take(self, index, t: np.ndarray) -> np.ndarray:
        """The values at ``t`` of the sets ``index`` (a ``Batch`` index):
        shape (len(t),) where those sets share one function, else one row
        per set in front."""
        if len(self.functions) == 1:
            return self.functions[0](t)
        if isinstance(index, int):
            return self.functions[self.which[index]](t)
        which = self.which[index]
        if (which == which[0]).all():
            return self.functions[which[0]](t)
        rows = np.empty((len(self.functions), t.size))
        for j in set(which.tolist()):
            rows[j] = self.functions[j](t)
        return rows[which]


class _Doubling:
    """Doubling state of the sets of a batch: each set stops at the first
    level where all of its entries pass, and keeps that level's value, or
    fails with the error it would raise on its own."""

    def __init__(self, batch: Batch):
        self.count = batch.size
        self.running = np.array([i for i in range(batch.size) if i not in batch.failed], int)
        self.value = self.prev = None    # prev: the running sets' last level
        self.shape = None                # the shape of one set's value
        self.deltas = None               # the running sets' last differences
        self.failed: dict[int, QuadratureError] = {}

    def groups(self, size: int) -> list:
        """The running sets in groups of at most ``size``: an integer for a
        group of one, else a slice while every set runs and an index array
        once some have stopped."""
        count = len(self.running)
        if size == 1 or count == 1:
            return self.running.tolist()
        if count == self.count:
            return [slice(i, min(i + size, count)) for i in range(0, count, size)]
        return [self.running[i:i + size] for i in range(0, count, size)]

    def settle(self, est: np.ndarray, nonfinite) -> bool:
        """Take this level's estimates of the running sets; True once no set
        runs.  An entry passes when it agrees with the last level's to
        ``DEFAULT_RTOL``/``DEFAULT_ATOL``.  A set with a non-finite estimate
        fails with ``nonfinite()``.  ``deltas`` becomes each running set's
        largest difference between levels."""
        self.shape = est.shape[1:]
        if not np.isfinite(est).all():
            finite = np.isfinite(est).reshape(len(est), -1).all(axis=1)
            for i in self.running[~finite].tolist():
                self.failed[i] = nonfinite()
            self.running, est = self.running[finite], est[finite]
            if self.prev is not None:
                self.prev = self.prev[finite]
            if not len(est):
                return True
        prev, self.prev = self.prev, est
        if prev is None:
            return False
        delta = np.abs(est - prev)
        passed = delta <= DEFAULT_RTOL * np.abs(est) + DEFAULT_ATOL
        if passed.all():
            self._keep(self.running, est)
            return True
        if len(est) > 1:
            ok = passed.reshape(len(est), -1).all(axis=1)
            if ok.any():
                self._keep(self.running[ok], est[ok])
                self.running, self.prev, delta = self.running[~ok], est[~ok], delta[~ok]
        self.deltas = delta.reshape(len(delta), -1).max(axis=1)
        return False

    def stall(self, error) -> None:
        """The budget is spent: each running set fails with ``error(its
        last delta)``."""
        deltas = [math.nan] * len(self.running) if self.deltas is None else self.deltas
        for i, delta in zip(self.running.tolist(), deltas):
            self.failed[i] = error(float(delta))

    def _keep(self, sets: np.ndarray, est: np.ndarray) -> None:
        if self.value is None:
            if len(sets) == self.count:  # every set at once
                self.value = np.asarray(est, complex)
                return
            self.value = np.full((self.count,) + est.shape[1:], math.nan, complex)
        self.value[sets] = est

    def result(self, batch: Batch):
        """Every set's value, NaN for the sets that failed, which go into
        ``batch.failed`` with their own errors."""
        value = self.value
        if value is None and self.shape is not None:
            value = np.full((self.count,) + self.shape, math.nan, complex)
        batch.failed.update(self.failed)
        return value


@lru_cache(maxsize=None)
def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``order``-point Gauss-Legendre nodes and weights on [-1, 1],
    derived once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_edges(panels: int, edges: tuple[float, ...]) -> np.ndarray:
    """``panels`` equal panels in each segment between ``edges``: one
    ``np.linspace`` over the arrays of segment ends, which gives each
    segment the bits of its own ``np.linspace``."""
    ends = np.array(edges)
    if ((ends[1:] - ends[:-1]) / panels == 0.0).any():
        # a step that underflows to 0 sends np.linspace down another path,
        # which one call would take for every segment
        cuts = [np.linspace(lo, hi, panels + 1)[:-1] for lo, hi in zip(edges, edges[1:])]
        return np.concatenate(cuts + [ends[-1:]])
    cuts = np.linspace(ends[:-1], ends[1:], panels + 1, axis=-1)[:, :-1]
    return np.append(cuts.ravel(), ends[-1])


@lru_cache(maxsize=64)
def _reference_rule(panels: int, order: int, edges: tuple[float, ...] = (0.0, 1.0)):
    """One level's points on [0, 1], ``panels`` panels per segment: the
    composite Gauss-Legendre nodes and weights (n of each), the inner
    points of the nested rule, which are the ``2*order`` Gauss nodes of
    each panel in turn (2n), and each panel's half-width."""
    x, w = _gauss(order)
    y, _ = _gauss(2 * order)
    cuts = _panel_edges(panels, edges)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    half = 0.5 * np.diff(cuts)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    points = (mid[:, None] + half[:, None] * y[None, :]).ravel()
    for arr in (nodes, weights, points, half):
        arr.setflags(write=False)
    return nodes, weights, points, half


@np.errstate(all="ignore")
def _doubling_loop(level, fn, a: float, b: float, breaks: tuple, batch: Batch | None,
                   budget: int, spread: int, stalled: str):
    """The doubling loop of both rules, over [a, b] split at ``breaks``.
    A level takes the running sets in groups of at most ``BATCH_POINTS``
    points, ``spread`` per node, and ``level(fn, t, a, width, rule, group)``
    returns the estimates of the sets ``group``, a set axis in front, from
    the level's nodes ``t`` and ``_reference_rule``.  A set that stalls
    fails with ``stalled``, formatted with a, b, budget and its last delta.
    A lone integral (``batch`` None) is a batch of one: its value is
    returned, or its error raised.  numpy reports no floating-point error
    here: an integrand or a sum that overflows gives a non-finite estimate,
    which fails its set."""
    order, width = GAUSS_ORDER, b - a
    edges = _segments(a, b, breaks)
    segments = len(edges) - 1
    budget = max(budget, 4 * segments * order)  # three levels of a longer split
    lone = batch is None
    batch = Batch(1) if lone else batch
    state = _Doubling(batch)
    nonfinite = lambda: QuadratureError(f"non-finite estimate over [{a:g}, {b:g}]")
    panels = 1
    while len(state.running) and segments * panels * order <= budget:
        rule = _reference_rule(panels, order, edges)
        t = a + width * rule[0]
        est = []
        for group in state.groups(max(1, BATCH_POINTS // (spread * t.size))):
            batch.index = group
            est.append(level(fn, t, a, width, rule, group))
        if state.settle(est[0] if len(est) == 1 else np.concatenate(est), nonfinite):
            break
        panels *= 2
    else:
        state.stall(lambda delta: QuadratureError(
            stalled.format(a=a, b=b, budget=budget, delta=delta), last_delta=delta))
    value = state.result(batch)
    if not lone:
        return value
    if batch.failed:
        raise batch.failed[0]
    return complex(value[0]) if value.ndim == 1 else value[0]


def _line_level(fn, t, a, width, rule, group):
    """The line rule's estimates for the sets ``group``: weighted sums."""
    values = np.asarray(fn(t))
    if isinstance(group, int):
        values = values[None]
    return width * np.sum(rule[1] * values, axis=-1)


def integrate(fn, a: float, b: float, *, breaks: tuple = (),
              batch: Batch | None = None) -> complex:
    """Integrate a vectorized callable over [a, b].

    ``fn`` receives a 1-D ndarray of n nodes and returns values of shape
    (n,) or, for several integrands over the same nodes, rows of shape
    (..., n) (real or complex).  The result is a complex scalar, or a
    complex array of shape (...) whose entries converge together.
    ``breaks`` is a tuple of the times where ``fn`` may have a kink; those
    strictly inside (a, b) become panel edges.

    With a ``batch``, ``fn(t)`` returns the rows of the sets that
    ``batch.index`` names, shape (..., n) with a set axis in front unless
    the index is an integer, and the result has shape (batch.size, ...);
    each set converges on its own, and the sets in ``batch.failed`` are
    left out.

    A lone integral raises QuadratureError if the doubling loop exhausts
    the node budget (``LINE_NODE_BUDGET``, or the three levels of a longer
    split) without two successive estimates agreeing to
    ``DEFAULT_RTOL``/``DEFAULT_ATOL``, or if an estimate is not finite.  A
    set of a batch that fails so gets NaN values, and the error in
    ``batch.failed``.
    """
    return _doubling_loop(_line_level, fn, a, b, breaks, batch, LINE_NODE_BUDGET, 1,
                          "integral over [{a:g}, {b:g}] did not converge within {budget} nodes "
                          "(last delta {delta:.3e})")


@lru_cache(maxsize=None)
def _partial_weights(order: int) -> np.ndarray:
    """The weights of a panel's inner integrals from its ``2*order`` Gauss
    values, derived once per order: the first ``order`` rows are
    C[i, j] = Int_{-1}^{x_i} l_j, from -1 to each ``order``-point node
    x_i, and the last row is the whole panel's Gauss weights.

    l_j is the Lagrange basis of the ``2*order`` nodes y_j, so row i
    integrates every polynomial of degree below ``2*order`` exactly, as a
    Gauss rule of ``order`` points on [-1, x_i] does.  Built without a
    linear solve: l_j(y) = v_j * sum_k (k + 1/2) P_k(y_j) P_k(y) over
    k < 2*order, and Int_{-1}^x P_k = (P_{k+1}(x) - P_{k-1}(x))/(2k + 1)
    (x + 1 for k = 0).
    """
    x, _ = _gauss(order)
    y, v = _gauss(2 * order)
    size = 2 * order
    legvander = np.polynomial.legendre.legvander
    px = legvander(x, size).T  # P_0 .. P_size at the nodes x_i
    k = np.arange(1, size)[:, None]
    antiderivative = np.vstack((x + 1.0, (px[2:] - px[:-2]) / (2 * k + 1)))
    basis = (np.arange(size) + 0.5)[:, None] * legvander(y, size - 1).T * v
    weights = np.vstack((antiderivative.T @ basis, v))
    weights.setflags(write=False)
    return weights


def _products(outer: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    """Each set's outer rows, shape (G, ..., k, n), against its weighted
    inner integrals, shape (k, n) or (G, k, n): one matrix-vector product
    per matrix of the result's last axis, as for a set on its own, so that
    no set's bits depend on the others of its batch."""
    sets = outer.shape[:-2]
    matrices = sets if len(sets) > 1 else sets + (1,)
    if weighted.ndim == 2:
        return (outer.reshape(matrices + (-1,)) @ weighted.ravel()).reshape(sets)
    span = weighted.shape[-2] * weighted.shape[-1]
    vector = weighted.shape[:1] + (1,) * (len(matrices) - 2) + (span, 1)
    return (outer.reshape(matrices + (span,)) @ weighted.reshape(vector)).reshape(sets)


def _triangle_level(factors, t, a, width, rule, group):
    """The nested rule's estimates for the sets ``group``, chunk by chunk."""
    order = GAUSS_ORDER
    _, wu, points, half = rule
    weights = _partial_weights(order).T
    chunk = 1 << (max(1, BATCH_POINTS // (3 * order)).bit_length() - 1)  # panels per call
    total, carry = None, 0.0
    for lo in range(0, half.size, chunk):
        hi = min(lo + chunk, half.size)
        nodes = slice(lo * order, hi * order)
        outer, inner = factors(t[nodes], a + width * points[2 * lo * order:2 * hi * order])
        outer, inner = np.asarray(outer), np.asarray(inner)
        if isinstance(group, int):
            outer = outer[None]  # one set: its inner rows stay shared
        k = inner.shape[:-1]  # (k,), or (sets, k) for rows that differ
        # each panel's integrals from its start to its outer nodes,
        # then over the whole panel, scaled by its half-width
        sums = (inner.reshape(k + (hi - lo, 2 * order)) @ weights) * half[lo:hi, None]
        # the whole panels before each panel: one running sum, carried from
        # chunk to chunk, carries the totals of the earlier segments into each segment
        run = np.cumsum(np.concatenate((np.broadcast_to(carry, k + (1,)),
                                        sums[..., -1]), axis=-1), axis=-1)
        before, carry = run[..., :-1], run[..., -1:]
        cumulative = (before[..., None] + sums[..., :-1]).reshape(k + (-1,))
        part = _products(outer, cumulative * wu[nodes])
        total = part if total is None else total + part
    return np.asarray(width * width * total, dtype=complex)


def integrate_triangle(factors, a: float, b: float, *, breaks: tuple = (),
                       batch: Batch | None = None):
    """Integrate a separable kernel over the triangle a <= s <= t <= b.

    ``factors(t, s)`` receives outer nodes ``t`` and inner points ``s``
    (1-D arrays) and returns a pair: the outer rows at ``t``, shape
    (..., k, len(t)), and the inner rows at ``s``, shape (k, len(s)).  The
    result is the sum over k of
    Int_a^b outer_k(t) Int_a^t inner_k(s) ds dt,
    a complex scalar, or an array of shape (...) when the outer rows carry
    leading axes; its entries converge together.  ``breaks`` are the
    times where the factors may have kinks, as for ``integrate``.

    With a ``batch``, ``factors(t, s)`` returns the rows of the sets that
    ``batch.index`` names, with a set axis in front unless the index is an
    integer: outer rows of shape (..., k, len(t)), and inner rows of shape
    (k, len(s)), shared by the sets, or with a set axis of their own.  The
    result has shape (batch.size, ...), each set converges on its own, and
    failures are reported as by ``integrate``.

    Nested rule: the outer integral uses the composite rule of
    ``integrate``; the inner rows are evaluated at the ``2*order`` Gauss
    nodes of each panel.  The inner integral up to outer node t_i is the
    sum of the whole panels before t_i, each by its ``2*order``-point
    Gauss rule, plus the integral from t_i's panel start to t_i of the
    polynomial through that panel's inner values (``_partial_weights``),
    which is exact to degree ``2*order - 1`` as an ``order``-point Gauss
    rule on [edge, t_i] is.  Each panel's sums are scaled by its own
    half-width, and the whole panels are summed in one running sum across
    segments, so the inner integral carries the totals of the earlier
    segments and no panel reaches across a breakpoint.  A level therefore
    evaluates n outer and 2n inner points and costs O(k*order*n); no
    n x n array is built.  ``factors`` is called on consecutive chunks of
    panels, the most, a power of two, whose ``3*order`` points each fit in
    ``BATCH_POINTS`` (32 panels, 512 outer nodes, at order 16), with the
    running sum carried across chunks, so the memory of a level stays
    bounded however far the panels double (1.6 MiB of traced allocations
    for the 24 480 points, 2048 nodes per axis, of both modes of the
    omega = 400 record in ``tests/test_cost.py``).  Panels double until
    successive estimates agree, at most ``AXIS_NODE_BUDGET`` outer nodes,
    or the three levels of a longer split.
    """
    return _doubling_loop(_triangle_level, factors, a, b, breaks, batch, AXIS_NODE_BUDGET, 3,
                          "triangle integral over [{a:g}, {b:g}] did not converge within "
                          "{budget} nodes per axis (last delta {delta:.3e})")
