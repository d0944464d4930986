"""Panel-doubling composite Gauss-Legendre quadrature.

One shared convergence policy for every integral in the package: a fixed
Gauss order per panel, panel count doubled until two successive estimates
agree to a relative tolerance, with a hard node budget.  The integrands
here are smooth (piecewise-linear at worst), so this converges fast and is
fully deterministic.
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


@lru_cache(maxsize=64)
def _reference_rule(panels: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def integrate(fn, a: float, b: float, *, rtol: float = DEFAULT_RTOL,
              atol: float = DEFAULT_ATOL, node_budget: int = LINE_NODE_BUDGET,
              order: int = GAUSS_ORDER) -> complex:
    """Integrate a vectorized callable over [a, b].

    ``fn`` receives a 1-D ndarray of nodes and must return values of the
    same shape (real or complex).  Raises QuadratureError if the doubling
    loop exhausts ``node_budget`` nodes without two successive estimates
    agreeing to ``rtol``/``atol``.
    """
    width = b - a
    if width == 0.0:
        return 0.0 + 0.0j
    prev, delta = None, math.nan
    panels = 1
    while panels * order <= node_budget:
        u, wu = _reference_rule(panels, order)
        est = complex(width * np.sum(wu * np.asarray(fn(a + width * u))))
        if not (np.isfinite(est.real) and np.isfinite(est.imag)):
            raise QuadratureError(f"non-finite integrand values over [{a:g}, {b:g}]")
        if prev is not None:
            delta = abs(est - prev)
            if delta <= rtol * abs(est) + atol:
                return est
        prev = est
        panels *= 2
    raise QuadratureError(
        f"integral over [{a:g}, {b:g}] did not converge within {node_budget} nodes "
        f"(last delta {delta:.3e})",
        last_delta=delta,
    )


def integrate_triangle(fn, a: float, b: float, *, rtol: float = DEFAULT_RTOL,
                       atol: float = DEFAULT_ATOL,
                       axis_budget: int = AXIS_NODE_BUDGET,
                       order: int = GAUSS_ORDER) -> complex:
    """Integrate fn(t, s) over the triangle a <= s <= t <= b.

    Iterated rule, outer in t and inner in s on [a, t], with the same
    composite grid on both axes.  ``fn`` must broadcast: it is called with
    t of shape (n, 1) and s of shape (n, n).
    """
    width = b - a
    if width == 0.0:
        return 0.0 + 0.0j
    prev, delta = None, math.nan
    panels = 1
    while panels * order <= axis_budget:
        u, wu = _reference_rule(panels, order)
        t = a + width * u
        inner_width = t - a
        s = a + inner_width[:, None] * u[None, :]
        vals = np.asarray(fn(t[:, None], s))
        inner = inner_width * (vals @ wu)
        est = complex(width * np.sum(wu * inner))
        if not (np.isfinite(est.real) and np.isfinite(est.imag)):
            raise QuadratureError(f"non-finite integrand values over [{a:g}, {b:g}]")
        if prev is not None:
            delta = abs(est - prev)
            if delta <= rtol * abs(est) + atol:
                return est
        prev = est
        panels *= 2
    raise QuadratureError(
        f"triangle integral over [{a:g}, {b:g}] did not converge within "
        f"{axis_budget} nodes per axis (last delta {delta:.3e})",
        last_delta=delta,
    )
