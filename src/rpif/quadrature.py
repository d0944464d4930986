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
in chunks of bounded size.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-15
GAUSS_ORDER = 8
LINE_NODE_BUDGET = 2 ** 16   # single integrals
AXIS_NODE_BUDGET = 2 ** 12   # per axis of nested double integrals
CHUNK_NODES = 2 ** 9         # outer nodes per evaluation of a double integral's factors
BATCH_POINTS = 2 ** 11        # points per evaluation of a batch, summed over its sets


@lru_cache(maxsize=64)
def _segments(a: float, b: float, breaks: tuple) -> tuple[float, ...]:
    """Segment edges on [0, 1]: the breakpoints strictly inside (a, b),
    mapped by t -> (t - a)/(b - a), between 0 and 1.

    Cached: every integral of a scenario asks with the same breakpoints.
    """
    width = b - a
    inside = sorted({float(x) for x in breaks if a < x < b})
    return (0.0, *((x - a) / width for x in inside), 1.0)


def _budget(budget: int, segments: int, order: int) -> int:
    """The node budget, grown where needed so that a split into
    ``segments`` can run three levels (1, 2 and 4 panels per segment)."""
    return max(budget, 4 * segments * order)


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
    """Per-set real functions of time of a batched integrand, one callable
    per set; sets that share a function pass the same callable object, and
    each distinct one is sampled once per call."""

    def __init__(self, functions: list):
        slot: dict[int, int] = {}
        self.which = np.array([slot.setdefault(id(fn), len(slot)) for fn in functions])
        self.functions = list({id(fn): fn for fn in functions}.values())

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

    def __init__(self, batch: Batch | None):
        self.count = 1 if batch is None else batch.size
        self.running = np.arange(self.count)  # the sets still running
        if batch is not None and batch.failed:
            self.running = np.array([i for i in range(self.count) if i not in batch.failed],
                                    dtype=int)
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

    def result(self, batch: Batch | None):
        """The value: a lone integral's, which raises its error if it
        failed, or every set's, NaN for the sets that failed, which go into
        ``batch.failed`` with their own errors."""
        value = self.value
        if value is None and self.shape is not None:
            value = np.full((self.count,) + self.shape, math.nan, complex)
        if batch is None:
            if self.failed:
                raise self.failed[0]
            value = value[0]
            return complex(value) if value.ndim == 0 else value
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
    """Composite Gauss-Legendre nodes and weights on [0, 1], ``panels``
    panels per segment."""
    x, w = _gauss(order)
    cuts = _panel_edges(panels, edges)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    half = 0.5 * np.diff(cuts)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
    order = GAUSS_ORDER
    width = b - a
    edges = _segments(a, b, breaks)
    segments = len(edges) - 1
    budget = _budget(LINE_NODE_BUDGET, segments, order)
    state = _Doubling(batch)
    panels = 1
    while len(state.running) and segments * panels * order <= budget:
        u, wu = _reference_rule(panels, order, edges)
        nodes = a + width * u
        est = []
        for group in state.groups(max(1, BATCH_POINTS // nodes.size)):
            if batch is not None:
                batch.index = group
            values = np.asarray(fn(nodes))
            if isinstance(group, int):
                values = values[None]
            est.append(width * np.sum(wu * values, axis=-1))
        est = est[0] if len(est) == 1 else np.concatenate(est)
        if state.settle(est, lambda: QuadratureError(
                f"non-finite integrand values over [{a:g}, {b:g}]")):
            break
        panels *= 2
    else:
        state.stall(lambda delta: QuadratureError(
            f"integral over [{a:g}, {b:g}] did not converge within {budget} nodes "
            f"(last delta {delta:.3e})", last_delta=delta))
    return state.result(batch)


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


@lru_cache(maxsize=64)
def _nested_rule(panels: int, order: int, edges: tuple[float, ...]):
    """The points and weights of one level of the nested rule on [0, 1].

    Returns the composite nodes and weights (n of each), the inner points,
    which are the ``2*order`` Gauss nodes of each panel in turn (2n), and
    each panel's half-width.
    """
    u, wu = _reference_rule(panels, order, edges)
    y, _ = _gauss(2 * order)
    cuts = _panel_edges(panels, edges)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    half = 0.5 * np.diff(cuts)
    points = (mid[:, None] + half[:, None] * y[None, :]).ravel()
    for arr in (points, half):
        arr.setflags(write=False)
    return u, wu, points, half


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
    at most ``CHUNK_NODES`` outer nodes and their panels' inner points,
    with the running sum carried across chunks, so the memory of a level
    stays bounded however far the panels double.  Panels double until
    successive estimates agree, at most ``AXIS_NODE_BUDGET`` outer nodes,
    or the three levels of a longer split.
    """
    order = GAUSS_ORDER
    width = b - a
    edges = _segments(a, b, breaks)
    segments = len(edges) - 1
    budget = _budget(AXIS_NODE_BUDGET, segments, order)
    chunk = max(1, CHUNK_NODES // order)  # panels per call of ``factors``
    weights = _partial_weights(order).T
    state = _Doubling(batch)
    panels = 1
    while len(state.running) and segments * panels * order <= budget:
        u, wu, points, half = _nested_rule(panels, order, edges)
        m = segments * panels
        est = []
        per_set = min(chunk, m) * 3 * order  # points of a call
        for group in state.groups(max(1, BATCH_POINTS // per_set)):
            if batch is not None:
                batch.index = group
            total, carry = None, 0.0
            for lo in range(0, m, chunk):
                hi = min(lo + chunk, m)
                nodes = slice(lo * order, hi * order)
                outer, inner = factors(a + width * u[nodes],
                                       a + width * points[2 * lo * order:2 * hi * order])
                outer, inner = np.asarray(outer), np.asarray(inner)
                if isinstance(group, int):
                    outer = outer[None]  # one set: its inner rows stay shared
                k = inner.shape[:-1]  # (k,), or (sets, k) for rows that differ
                # each panel's integrals from its start to its outer nodes,
                # then over the whole panel, scaled by its half-width
                sums = (inner.reshape(k + (hi - lo, 2 * order)) @ weights) * half[lo:hi, None]
                # the whole panels before each panel: one running sum,
                # carried from chunk to chunk, carries the totals of the
                # earlier segments into each segment
                run = np.cumsum(np.concatenate((np.broadcast_to(carry, k + (1,)),
                                                sums[..., -1]), axis=-1), axis=-1)
                before, carry = run[..., :-1], run[..., -1:]
                cumulative = (before[..., None] + sums[..., :-1]).reshape(k + (-1,))
                part = _products(outer, cumulative * wu[nodes])
                total = part if total is None else total + part
            est.append(total)
        est = np.asarray(width * width * (est[0] if len(est) == 1 else np.concatenate(est)),
                         dtype=complex)
        if state.settle(est, lambda: QuadratureError(
                f"non-finite integrand values over [{a:g}, {b:g}]")):
            break
        panels *= 2
    else:
        state.stall(lambda delta: QuadratureError(
            f"triangle integral over [{a:g}, {b:g}] did not converge within "
            f"{budget} nodes per axis (last delta {delta:.3e})", last_delta=delta))
    return state.result(batch)
