"""One-level composite Gauss-Legendre quadrature, its panels sized from
the integrand's known rates.

Every integrand in the package is, on each segment between breakpoints
(the sample times of tabulated records, where they have kinks), a sum of
terms p(t)*e^(alpha*t): a polynomial of known degree D times an
exponential whose rate |alpha| is known before any node is evaluated
(the complex frequency w, a sinusoid's omega, the printed kernels'
omega).  So each integral is evaluated at one level: [a, b] is split at
the breakpoints strictly inside it (the QUADPACK QAGP idea, Piessens et
al. 1983), so that no panel straddles a kink, and each segment gets the
fewest ``GAUSS_ORDER``-node panels at which the rule's truncation bound
is at most the unit roundoff of the integrand's scale.  The caller
passes the total rate and degree of its integrand.

The bound is the classical one for Gauss rules on analytic integrands
(Davis & Rabinowitz, *Methods of Numerical Integration*; Trefethen,
SIAM Review 50, 2008, whose n + 1 nodes are the N here).  If f is
analytic inside the Bernstein ellipse E_rho of a panel of half-width r
(foci at the panel's ends, semi-axes r*(rho +- 1/rho)/2) and |f| <= M
there, the N-node Gauss error is at most
r * (64/15) * M * rho^(2 - 2N)/(rho^2 - 1).  For p(t)*e^(alpha*t)
with beta = |alpha|*r, Bernstein's inequality bounds |p| on E_rho by
rho^D times its largest value on the panel, and |e^(alpha*z)| is at most
e^(beta*(rho - 1/rho)/2) times its own; so relative to the product of
those largest values the error is at most r * B(beta, D), with

    B(beta, D) = min over rho > 1 of
                 (64/15) rho^(D + 2 - 2N) e^(beta (rho - 1/rho)/2) / (rho^2 - 1).

``_panel_rate(D)`` is beta*(D), the largest beta with B(beta, D) <= 2^-52.
At 16 nodes it is 7.39 for D = 0, 5.92 for D = 3 and 4.13 for D = 7, and
0 from D = 28 on, where one panel cannot take the polynomial at any rate.
A polynomial of degree D in powers of (t - a)/(b - a) is also at most the
sum S of its coefficients' magnitudes times e^(D*d/(b - a)) at distance d
from [a, b]: relative to S, the scale at which its values round, it
counts as degree 0 and rate D/(b - a).  A segment of width h gets the
fewer panels of the two views: the fewest P with

    rate * h/(2P) <= beta*(D),   or   (rate + D/(b - a)) * h/(2P) <= beta*(0).

The budgets count nodes over all segments, and grow with the segment
count so that four panels per segment always fit.  An integral whose
panels would exceed its budget is refused before any node is evaluated,
with a QuadratureError that names the nodes it needs, the budget and its
rate.

Both rules also integrate a ``Batch``: independent sets of integrands
over the same interval (the rows of every beam of an evaluation), each
with its own rate, degree and breakpoints, passed as one entry per set.
The sets that get the same segment edges and panels are evaluated
together, one set as an integer index and several as an index array, so
a set gets the panels and the bits it would get on its own.  An
integrand reads its per-set numbers with ``_per_set``.
A set that its budget refuses, or whose estimate is not finite, fails
alone, with the error it would raise alone, and the others go on.  An
evaluation covers as many sets as fit in ``BATCH_POINTS`` points (at
least one), so the memory of a batch does not grow with its size.  A
line integral of more nodes than that is evaluated in chunks of
``BATCH_POINTS`` nodes, whose weighted sums are added in order; one of at
most ``BATCH_POINTS`` nodes is a single chunk.

Double integrals over the triangle s <= t have separable kernels (a
finite sum of products g(t)*h(s)), so ``integrate_triangle`` takes the
factors rather than the kernel and integrates the inner factor
cumulatively from its values at each panel's ``2*order`` Gauss nodes:
with n nodes per axis it evaluates the factors at 3n points, not n^2, in
chunks of at most ``BATCH_POINTS`` points: at order 16 a panel has 32
inner nodes and 48 points, and the 2048-point bound gives chunks of 32
panels, 512 outer nodes.  Its rate is the sum of the outer and inner
rates, and its degree D_outer + D_inner + 1: the inner integral up to t
adds one.

The order is 16 because the hard rows are analytic: beta*(0) is 7.39 at
16 nodes and 1.13 at 8, so 16-node panels take oscillatory records and
beams near the stability guard in about a third of the nodes.  Both
modes of the omega = 400 record in ``tests/test_cost.py`` take 5 376
triangle points, 880 nodes per axis for its beam.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

GAUSS_ORDER = 16
LINE_NODE_BUDGET = 2 ** 16   # single integrals
AXIS_NODE_BUDGET = 2 ** 12   # per axis of nested double integrals
BATCH_POINTS = 2 ** 11       # points per evaluation of an integrand, summed over its sets


#: the largest composite rule, in nodes, and the longest split, in
#: breakpoints, that stay cached: every rule within a triangle's budget,
#: and every split of no more breakpoints than such a rule has panels.  A
#: long record's are built per call, so the 64 rules and 64 splits cached
#: hold about 10 MiB at most, however long the records.
CACHED_RULE_NODES = AXIS_NODE_BUDGET
CACHED_BREAKS = CACHED_RULE_NODES // GAUSS_ORDER


def _split(a: float, b: float, breaks) -> tuple[float, ...]:
    """Segment edges on [0, 1]: the breakpoints strictly inside (a, b),
    mapped by t -> (t - a)/(b - a), between 0 and 1."""
    width = b - a
    inside = sorted({float(x) for x in breaks if a < x < b})
    return (0.0, *((x - a) / width for x in inside), 1.0)


# every integral of a scenario asks with the same breakpoints
_cached_split = lru_cache(maxsize=64)(_split)


def _segments(a: float, b: float, breaks) -> tuple[float, ...]:
    """``_split`` of a sequence of breakpoints, cached up to
    ``CACHED_BREAKS`` of them, so that a long record's are never hashed."""
    if len(breaks) > CACHED_BREAKS:
        return _split(a, b, breaks)
    return _cached_split(a, b, tuple(breaks))


@lru_cache(maxsize=None)
def _panel_rate(degree: int, order: int) -> float:
    """beta*(D): the largest rate times half-width of an ``order``-node
    panel at which the bound B(beta, D) of the module docstring is at most
    2^-52, or 0 if none is.  At each rho of a fine grid the bound holds for
    every beta up to (log 2^-52 - log of the rest of B)/((rho - 1/rho)/2),
    so beta*(D) is the largest of those."""
    rho = np.exp(np.linspace(1e-3, 10.0, 10_000))
    rest = (math.log(64.0 / 15.0) + (degree + 2 - 2 * order) * np.log(rho)
            - np.log(rho * rho - 1.0))
    beta = (math.log(np.finfo(float).eps) - rest) / (0.5 * (rho - 1.0 / rho))
    return max(0.0, float(beta.max()))


def _panels(edges: tuple[float, ...], width: float, rate: float, degree: int,
            order: int) -> tuple[int | float, ...]:
    """The panel count of each segment between ``edges`` (on [0, 1]) of an
    interval of ``width``, for an integrand of total ``rate`` and
    ``degree`` on ``order``-node panels: the fewer of the two views of the
    module docstring.  A need that is not finite, from a rate that
    overflows, counts as inf panels, which no budget takes."""
    plain, flat = _panel_rate(degree, order), _panel_rate(0, order)
    size = abs(width)
    spread = rate + degree / size if size else rate
    counts = []
    for lo, hi in zip(edges, edges[1:]):
        half = 0.5 * size * (hi - lo)
        need = half * spread / flat
        if plain > 0.0:
            need = min(need, half * rate / plain)
        counts.append(max(1, math.ceil(need)) if need < math.inf else math.inf)
    return tuple(counts)


class Batch:
    """The sets of a batched integral, those a rule evaluates now, and
    those that have failed.

    The rule sets ``index`` before each call of the integrand, which
    returns the rows of those sets only: an integer names one set, whose
    rows come without a set axis, and an integer array names several,
    whose rows carry one in front.  The integrand keeps its plain
    signature, so a wrapper around it sees an ordinary integrand.

    A set that fails an integral gets NaN values and goes into ``failed``,
    with the QuadratureError it raises on its own, and later integrals over
    the batch leave it out.
    """

    def __init__(self, size: int):
        self.size = size
        self.index = np.arange(size)
        self.failed: dict[int, QuadratureError] = {}


def _per_set(index, *columns) -> list:
    """Each of ``columns``, an array of one number per set of a batch, at
    the sets ``index`` (a ``Batch`` index), shaped to meet a row of nodes:
    one set's number as a Python scalar for an integer, so that a call
    evaluating one set costs what the scalar arithmetic of one set costs,
    and a column for an index array."""
    if isinstance(index, int):
        return [column.item(index) for column in columns]
    return [column[index, None] for column in columns]


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
        shape (len(t),) for an integer, else one row per set in front."""
        if isinstance(index, int):
            return self.functions[self.which[index]](t)
        which = self.which[index]
        rows = np.empty((len(self.functions), t.size))
        for j in set(which.tolist()):
            rows[j] = self.functions[j](t)
        return rows[which]


@lru_cache(maxsize=None)
def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``order``-point Gauss-Legendre nodes and weights on [-1, 1],
    derived once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_edges(counts: tuple[int, ...], edges: tuple[float, ...]) -> np.ndarray:
    """``counts[i]`` equal panels in the i-th segment between ``edges``:
    every segment's cuts at once, with the bits of its own ``np.linspace``,
    k*step + lo, or (k/count)*delta + lo where the step underflows to 0."""
    counts, bounds = np.array(counts), np.array(edges)
    segment = np.repeat(np.arange(counts.size), counts)
    k = (np.arange(segment.size) - (np.cumsum(counts) - counts)[segment]).astype(float)
    count, lo, delta = counts[segment], bounds[:-1][segment], np.diff(bounds)[segment]
    step = delta / count
    cuts = np.where(step == 0.0, k / count * delta, k * step) + lo
    return np.append(cuts, bounds[-1])


def _rule(counts: tuple[int, ...], order: int, edges: tuple[float, ...] = (0.0, 1.0)):
    """The points on [0, 1] of ``counts[i]`` panels in the i-th segment:
    the composite Gauss-Legendre nodes and weights (n of each), the inner
    points of the nested rule, which are the ``2*order`` Gauss nodes of
    each panel in turn (2n), and each panel's half-width."""
    x, w = _gauss(order)
    y, _ = _gauss(2 * order)
    cuts = _panel_edges(counts, edges)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    half = 0.5 * np.diff(cuts)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    points = (mid[:, None] + half[:, None] * y[None, :]).ravel()
    for arr in (nodes, weights, points, half):
        arr.setflags(write=False)
    return nodes, weights, points, half


_cached_rule = lru_cache(maxsize=64)(_rule)


def _reference_rule(counts: tuple[int, ...], order: int, edges: tuple[float, ...] = (0.0, 1.0)):
    """``_rule``, cached up to ``CACHED_RULE_NODES`` nodes."""
    if order * sum(counts) > CACHED_RULE_NODES:
        return _rule(counts, order, edges)
    return _cached_rule(counts, order, edges)


def _groups(sets: list[int], size: int) -> list:
    """``sets``, the sets of a batch that share a rule, in groups of at
    most ``size``: an integer for a group of one, else an index array."""
    if size == 1 or len(sets) == 1:
        return sets
    chunks = [sets[i:i + size] for i in range(0, len(sets), size)]
    return [chunk[0] if len(chunk) == 1 else np.array(chunk) for chunk in chunks]


@np.errstate(all="ignore")
def _one_level(level, fn, a: float, b: float, rate, degree, breaks,
               batch: Batch | None, budget: int, spread: int, refused: str):
    """One level of either rule over [a, b], for each set of ``batch`` on
    the segments its own ``breaks`` split and the panels its own ``rate``
    and ``degree`` ask: with a batch, each is a sequence of one entry per
    set, and without one a number, a number and a sequence.  The
    sets that share edges and panels are evaluated in groups of at most
    ``BATCH_POINTS`` points, ``spread`` per node, and
    ``level(fn, t, a, width, rule, group)`` returns the estimates of the
    sets ``group``, a set axis in front, from the nodes ``t`` and
    ``_reference_rule``.  A set whose nodes exceed ``budget`` (or four
    panels per segment of its split) fails with ``refused``, formatted with
    a, b, its rate, its nodes and its budget, and one whose estimate is not
    finite with its own error.  A lone integral (``batch`` None) is a batch
    of one: its value is returned, or its error raised.  numpy reports no
    floating-point error here: an integrand or a sum that overflows gives a
    non-finite estimate, which fails its set."""
    order, width = GAUSS_ORDER, b - a
    lone = batch is None
    if lone:
        batch, rate, degree, breaks = Batch(1), (rate,), (degree,), (breaks,)
    count = batch.size
    shared: dict[tuple, list[int]] = {}
    for i in range(count):
        if i in batch.failed:
            continue
        edges = _segments(a, b, breaks[i])
        counts = _panels(edges, width, rate[i], degree[i], order)
        nodes = order * sum(counts)
        cap = max(budget, 4 * (len(edges) - 1) * order)  # four panels per segment
        if nodes > cap:
            batch.failed[i] = QuadratureError(refused.format(
                a=a, b=b, rate=rate[i], nodes=nodes, budget=cap))
        else:
            shared.setdefault((edges, counts), []).append(i)
    value = None
    for (edges, counts), sets in shared.items():
        rule = _reference_rule(counts, order, edges)
        t = a + width * rule[0]
        for group in _groups(sets, max(1, BATCH_POINTS // (spread * t.size))):
            batch.index = group
            est = np.asarray(level(fn, t, a, width, rule, group), complex)
            if value is None:
                if len(est) == count:  # every set at once
                    value = est
                    continue
                value = np.full((count,) + est.shape[1:], math.nan, complex)
            value[group] = est[0] if isinstance(group, int) else est
    if value is not None:
        finite = np.isfinite(value).reshape(count, -1).all(axis=1)
        for i in np.flatnonzero(~finite).tolist():
            if i not in batch.failed:
                batch.failed[i] = QuadratureError(f"non-finite estimate over [{a:g}, {b:g}]")
    if not lone:
        return value
    if batch.failed:
        raise batch.failed[0]
    return complex(value[0]) if value.ndim == 1 else value[0]


def _line_level(fn, t, a, width, rule, group):
    """The line rule's estimates for the sets ``group``: weighted sums over
    chunks of at most ``BATCH_POINTS`` nodes, added in order, so the memory
    stays bounded however many nodes the rate asks."""
    total = None
    for lo in range(0, t.size, BATCH_POINTS):
        nodes = slice(lo, lo + BATCH_POINTS)
        values = np.asarray(fn(t[nodes]))
        if isinstance(group, int):
            values = values[None]
        part = np.sum(rule[1][nodes] * values, axis=-1)
        total = part if total is None else total + part
    return width * total


def integrate(fn, a: float, b: float, *, rate, degree, breaks=(),
              batch: Batch | None = None) -> complex:
    """Integrate a vectorized callable over [a, b] at one level.

    ``fn`` receives a 1-D ndarray of n nodes and returns values of shape
    (n,) or, for several integrands over the same nodes, rows of shape
    (..., n) (real or complex).  The result is a complex scalar, or a
    complex array of shape (...).  ``rate`` and ``degree`` are the total
    exponential rate and polynomial degree of the integrand, which size
    the panels (module docstring).  ``breaks`` is a sequence of the times
    where ``fn`` may have a kink; those strictly inside (a, b) become
    panel edges.

    With a ``batch``, ``rate``, ``degree`` and ``breaks`` give one entry
    per set: a number, a number and a sequence of times.  ``fn(t)`` returns
    the rows of the sets that ``batch.index`` names, shape (..., n) with a
    set axis in front unless the index is an integer, and the result has
    shape (batch.size, ...), or is None if every set had failed before;
    the sets in ``batch.failed`` are left out.

    A lone integral raises QuadratureError if its panels would take more
    than ``LINE_NODE_BUDGET`` nodes (or four panels per segment of a
    longer split), or if its estimate is not finite.  A set of a batch
    that fails so gets NaN values, and the error in ``batch.failed``.
    """
    return _one_level(_line_level, fn, a, b, rate, degree, breaks, batch,
                      LINE_NODE_BUDGET, 1,
                      "integral over [{a:g}, {b:g}] at rate {rate:.6g} needs {nodes} nodes, "
                      "more than its budget of {budget}")


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


def integrate_triangle(factors, a: float, b: float, *, rate, degree, breaks=(),
                       batch: Batch | None = None):
    """Integrate a separable kernel over the triangle a <= s <= t <= b at
    one level.

    ``factors(t, s)`` receives outer nodes ``t`` and inner points ``s``
    (1-D arrays) and returns a pair: the outer rows at ``t``, shape
    (..., k, len(t)), and the inner rows at ``s``, shape (k, len(s)).  The
    result is the sum over k of
    Int_a^b outer_k(t) Int_a^t inner_k(s) ds dt,
    a complex scalar, or an array of shape (...) when the outer rows carry
    leading axes.  ``rate`` is the sum of the outer and inner rates, and
    ``degree`` D_outer + D_inner + 1; ``breaks`` are as for ``integrate``.

    With a ``batch``, each of the three gives one entry per set, and
    ``factors(t, s)`` returns the rows of the sets that ``batch.index``
    names, with a set axis in front unless the index is an integer: outer
    rows of shape (..., k, len(t)), and inner rows of shape (k, len(s)),
    shared by the sets, or with a set axis of their own.  The result, and
    failures, are as for ``integrate``, with ``AXIS_NODE_BUDGET`` nodes
    per axis.

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
    segments and no panel reaches across a breakpoint.  So n nodes per
    axis take n outer and 2n inner points and cost O(k*order*n); no
    n x n array is built.  ``factors`` is called on consecutive chunks of
    panels, the most, a power of two, whose ``3*order`` points each fit in
    ``BATCH_POINTS`` (32 panels, 512 outer nodes, at order 16), with the
    running sum carried across chunks, so the memory stays bounded
    however many panels the rate asks.
    """
    return _one_level(_triangle_level, factors, a, b, rate, degree, breaks, batch,
                      AXIS_NODE_BUDGET, 3,
                      "triangle integral over [{a:g}, {b:g}] at rate {rate:.6g} needs "
                      "{nodes} nodes per axis, more than its budget of {budget}")
