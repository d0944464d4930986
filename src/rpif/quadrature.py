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
segments; a split that cannot run two levels within its budget is
refused up front.

Double integrals over the triangle s <= t have separable kernels (a
finite sum of products g(t)*h(s)), so ``integrate_triangle`` takes the
factors rather than the kernel and integrates the inner factor
cumulatively: a level with n nodes per axis costs O(order*n) evaluations,
not n^2, and evaluates them in chunks of bounded size.
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


@lru_cache(maxsize=64)
def _segments(a: float, b: float, breaks: tuple, what: str, budget: int,
              order: int) -> tuple[float, ...]:
    """Segment edges on [0, 1]: the breakpoints strictly inside (a, b),
    mapped by t -> (t - a)/(b - a), between 0 and 1.

    Raises QuadratureError when the budget cannot hold the two levels that
    a convergence test needs.  Cached: every integral of a scenario asks
    with the same breakpoints.
    """
    width = b - a
    inside = sorted({float(x) for x in breaks if a < x < b})
    edges = (0.0, *((x - a) / width for x in inside), 1.0)
    segments = len(edges) - 1
    if 2 * segments * order > budget:
        raise QuadratureError(
            f"{what} over [{a:g}, {b:g}] has {segments} segments between "
            f"breakpoints; two levels need {2 * segments * order} nodes, over "
            f"the budget of {budget}")
    return edges


def _panel_edges(panels: int, edges: tuple[float, ...]) -> np.ndarray:
    """``panels`` equal panels in each segment between ``edges``."""
    cuts = [np.linspace(lo, hi, panels + 1)[:-1] for lo, hi in zip(edges, edges[1:])]
    return np.concatenate(cuts + [np.array(edges[-1:])])


@lru_cache(maxsize=64)
def _reference_rule(panels: int, order: int, edges: tuple[float, ...] = (0.0, 1.0)):
    """Composite Gauss-Legendre nodes and weights on [0, 1], ``panels``
    panels per segment."""
    x, w = np.polynomial.legendre.leggauss(order)
    cuts = _panel_edges(panels, edges)
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    half = 0.5 * np.diff(cuts)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def integrate(fn, a: float, b: float, *, breaks: tuple = (),
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
              node_budget: int = LINE_NODE_BUDGET,
              order: int = GAUSS_ORDER) -> complex:
    """Integrate a vectorized callable over [a, b].

    ``fn`` receives a 1-D ndarray of n nodes and returns values of shape
    (n,) or, for several integrands over the same nodes, rows of shape
    (..., n) (real or complex).  The result is a complex scalar, or a
    complex array of shape (...) whose entries each converge on their
    own.  ``breaks`` is a tuple of the times where ``fn`` may have a kink;
    those strictly inside (a, b) become panel edges.
    Raises QuadratureError if the doubling loop exhausts ``node_budget``
    nodes without two successive estimates agreeing to ``rtol``/``atol``.
    """
    width = b - a
    if width == 0.0:
        return 0.0 + 0.0j
    edges = _segments(a, b, breaks, "integral", node_budget, order)
    segments = len(edges) - 1
    prev, delta = None, math.nan
    panels = 1
    while segments * panels * order <= node_budget:
        u, wu = _reference_rule(panels, order, edges)
        est = width * np.sum(wu * np.asarray(fn(a + width * u)), axis=-1)
        if not np.all(np.isfinite(est)):
            raise QuadratureError(f"non-finite integrand values over [{a:g}, {b:g}]")
        if prev is not None:
            delta = np.abs(est - prev)
            if np.all(delta <= rtol * np.abs(est) + atol):
                return complex(est) if est.ndim == 0 else est.astype(complex)
            delta = float(np.max(delta))
        prev = est
        panels *= 2
    raise QuadratureError(
        f"integral over [{a:g}, {b:g}] did not converge within {node_budget} nodes "
        f"(last delta {delta:.3e})",
        last_delta=delta,
    )


@lru_cache(maxsize=64)
def _nested_rule(panels: int, order: int, edges: tuple[float, ...]):
    """The points and weights of one level of the nested rule on [0, 1].

    Returns the composite nodes and weights (n of each); the inner points,
    which are the n nodes followed by, for each node u_i, the ``order``
    Gauss nodes of the partial panel [edge, u_i]; the Gauss weights on
    [-1, 1]; the half-length of each partial panel; the half-panel width
    of the widest segment; and each whole panel's half-width relative to
    it (all ones for a single segment).
    """
    u, wu = _reference_rule(panels, order, edges)
    x, w = np.polynomial.legendre.leggauss(order)
    edge = np.repeat(_panel_edges(panels, edges)[:-1], order)
    half = 0.5 * (u - edge)
    partial = (edge[:, None] + half[:, None] * (x + 1.0)[None, :]).ravel()
    points = np.concatenate((u, partial))
    widths = np.diff(edges)
    widest = widths.max()
    ratio = np.repeat(widths / widest, panels)
    for arr in (points, w, half, ratio):
        arr.setflags(write=False)
    return u, wu, points, w, half, widest * (0.5 / panels), ratio


def integrate_triangle(factors, a: float, b: float, *, breaks: tuple = (),
                       rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                       axis_budget: int = AXIS_NODE_BUDGET,
                       order: int = GAUSS_ORDER):
    """Integrate a separable kernel over the triangle a <= s <= t <= b.

    ``factors(t, s)`` receives outer nodes ``t`` and inner points ``s``
    (1-D arrays) and returns a pair: the outer rows at ``t``, shape
    (..., k, len(t)), and the inner rows at ``s``, shape (k, len(s)).  The
    result is the sum over k of
    Int_a^b outer_k(t) Int_a^t inner_k(s) ds dt,
    a complex scalar, or an array of shape (...) when the outer rows carry
    leading axes; each entry must converge on its own.  ``breaks`` are
    the times where the factors may have kinks, as for ``integrate``.

    Nested rule: the outer integral uses the composite rule of
    ``integrate``; the inner integral up to outer node t_i is the sum of
    the whole panels before t_i plus an ``order``-point Gauss rule on the
    partial panel [edge, t_i].  The whole panels are summed in one running
    sum across segments, each weighted by its segment's half-panel width,
    so the inner integral carries the totals of the earlier segments and
    no partial panel reaches across a breakpoint.  A level
    therefore evaluates n outer and (order+1)*n inner points and costs
    O(k*order*n); no n x n array is built.  ``factors`` is called on
    consecutive chunks of at most ``CHUNK_NODES`` outer nodes and their
    inner points, with the running sum carried across chunks, so the
    memory of a level stays bounded however far the panels double.
    Panels double until successive estimates agree, at most
    ``axis_budget`` outer nodes.
    """
    width = b - a
    edges = _segments(a, b, breaks, "triangle integral", axis_budget, order)
    segments = len(edges) - 1
    chunk = max(1, CHUNK_NODES // order)  # panels per call of ``factors``
    prev, delta = None, math.nan
    panels = 1
    while segments * panels * order <= axis_budget:
        u, wu, points, w, half, half_panel, ratio = _nested_rule(panels, order, edges)
        m = segments * panels
        n = m * order
        total, carry = None, 0.0
        for lo in range(0, m, chunk):
            hi = min(lo + chunk, m)
            nodes = slice(lo * order, hi * order)
            partial = points[n + lo * order * order:n + hi * order * order]
            outer, inner = factors(a + width * u[nodes],
                                   a + width * np.concatenate((u[nodes], partial)))
            outer, inner = np.asarray(outer), np.asarray(inner)
            k = inner.shape[0]
            # Gauss sums over the chunk's whole panels, then over its
            # partial panels
            sums = inner.reshape(k, -1, order) @ w
            # the whole panels before each panel, each weighted by its
            # half-width relative to the widest segment's: one running sum,
            # carried from chunk to chunk, carries the totals of the earlier
            # segments into each segment
            whole = sums[:, :hi - lo] * ratio[lo:hi]
            run = np.cumsum(np.concatenate((np.broadcast_to(carry, (k, 1)), whole),
                                           axis=1), axis=1)
            before, carry = run[:, :-1], run[:, -1:]
            cumulative = (np.repeat(before, order, axis=1) * half_panel
                          + sums[:, hi - lo:] * half[nodes])
            part = (outer.reshape(outer.shape[:-2] + (-1,))
                    @ (cumulative * wu[nodes]).ravel())
            total = part if total is None else total + part
        est = np.asarray(width * width * total, dtype=complex)
        if not np.all(np.isfinite(est)):
            raise QuadratureError(f"non-finite integrand values over [{a:g}, {b:g}]")
        if prev is not None:
            delta = np.abs(est - prev)
            if np.all(delta <= rtol * np.abs(est) + atol):
                return complex(est) if est.ndim == 0 else est
            delta = float(np.max(delta))
        prev = est
        panels *= 2
    raise QuadratureError(
        f"triangle integral over [{a:g}, {b:g}] did not converge within "
        f"{axis_budget} nodes per axis (last delta {delta:.3e})",
        last_delta=delta,
    )
