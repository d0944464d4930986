"""The one-level rule's panel bound, against 40-digit mpmath.

``quadrature._panel_rate(D)`` is beta*(D), the largest rate times
half-width of a 16-node panel at which the rule's bound B(beta, D) is at
most 2^-52 of the integrand's scale (``rpif.quadrature``).  Here the
truncation error of the 16-node Gauss rule, with its nodes and weights
to 40 digits so that no rounding of theirs shows, is computed against
the exact integral:

* on x^k e^(beta x) over [-1, 1], and on T_k(x) e^(beta x), whose
  Chebyshev polynomial is the extremal one of Bernstein's inequality,
  relative to max|x^k| max|e^(beta x)|, for every k with beta*(k) > 0 and
  |beta| up to beta*(k), along the directions the kernels take: arg -pi/4,
  +-i and real;
* on the panels the rule gives a degree-40 polynomial times e^(alpha t),
  whose degree is past every beta*, so that only the rule's second view
  (degree D as a rate D/(b - a), relative to the sum S of the
  coefficients' magnitudes) sizes them;
* on the 256 segments of a 255-sample tabulated record times e^(alpha t).

Each error must stay within 2^-52 of its scale (per unit of half-width,
summed over the panels for the last two).  Raising beta* by half fails
the first check.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from rpif import quadrature
from rpif.quadrature import GAUSS_ORDER, integrate

EPS = 2.0 ** -52
DIGITS = 40
DIRECTIONS = {"real": 1.0, "+i": 1j, "-i": -1j, "arg -pi/4": complex(1.0, -1.0) / math.sqrt(2.0)}
DEGREES = [k for k in range(2 * GAUSS_ORDER) if quadrature._panel_rate(k, GAUSS_ORDER) > 0.0]


def _gauss():
    """The 16-node Gauss-Legendre nodes and weights to 40 digits, by Newton
    steps on P_16 from numpy's nodes."""
    n = GAUSS_ORDER
    nodes, weights = [], []
    for seed in np.polynomial.legendre.leggauss(n)[0]:
        x = mp.mpf(seed)
        for _ in range(8):
            p0, p1 = mp.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            slope = n * (x * p1 - p0) / (x * x - 1)
            x -= p1 / slope
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * slope * slope))
    return nodes, weights


with mp.workdps(DIGITS):
    NODES, WEIGHTS = _gauss()


def _panel_sum(f, lo, hi):
    """The 16-node rule's sum of f over [lo, hi], in mpmath."""
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return half * mp.fsum(w * f(mid + half * x) for x, w in zip(NODES, WEIGHTS))


def _moment(coefficients, beta, lo=-1):
    """Int_lo^1 sum_k c_k x^k e^(beta x) dx for lo = -1 or 0, from the
    series of e^(beta x): sum_n beta^n/n! Int x^(k+n), to about 40 digits
    less those of e^|beta|."""
    total = mp.mpf(0)
    for k, c in enumerate(coefficients):
        if c == 0:
            continue
        term, n = mp.mpf(1), 0
        while True:
            total += c * term * (1 - lo ** (k + n + 1)) / (k + n + 1)
            n += 1
            term *= beta / n
            if n > abs(beta) and abs(term) < mp.mpf(10) ** (-DIGITS - 5):
                break
    return total


def _chebyshev(k):
    """The monomial coefficients of T_k, exact."""
    coefficients = np.polynomial.chebyshev.cheb2poly([0] * k + [1])
    return [mp.mpf(int(round(c))) for c in coefficients]


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
@pytest.mark.parametrize("family", ["monomial", "chebyshev"])
def test_a_panel_keeps_its_bound_up_to_the_panel_rate(family, direction):
    worst = {}
    with mp.workdps(DIGITS):
        for k in DEGREES:
            coefficients = [0] * k + [1] if family == "monomial" else _chebyshev(k)
            for fraction in (0.5, 1.0):
                beta = fraction * quadrature._panel_rate(k, GAUSS_ORDER) * DIRECTIONS[direction]
                beta = mp.mpc(beta.real, beta.imag)

                def f(x):
                    return mp.polyval(coefficients[::-1], x) * mp.exp(beta * x)
                error = abs(_panel_sum(f, -1, 1) - _moment(coefficients, beta))
                scale = mp.exp(abs(beta.real))  # max|p| = 1, times max|e^(beta x)|
                worst[(k, fraction)] = float(error / scale)
    assert max(worst.values()) <= EPS, {key: value for key, value in worst.items()
                                        if value > EPS}


def _sum_over_panels(f, edges, counts):
    """The rule's sum of f over panels ``counts`` per segment between
    ``edges``, in mpmath."""
    total = mp.mpf(0)
    for count, lo, hi in zip(counts, edges, edges[1:]):
        cuts = [lo + (hi - lo) * mp.mpf(i) / count for i in range(count + 1)]
        total += mp.fsum(_panel_sum(f, a, b) for a, b in zip(cuts, cuts[1:]))
    return total


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
@pytest.mark.parametrize("coefficients", ["random", "ones"])
def test_a_degree_40_polynomial_keeps_its_bound(direction, coefficients):
    # on [0, 1] at rate 30: beta*(40) is 0, so the degree counts as a rate of
    # 40, and the panels come from the rate 70 at degree 0; the all-ones
    # polynomial grows the fastest off [0, 1] for its S
    rng = np.random.default_rng(40)
    coefs = rng.uniform(-1.0, 1.0, 41) if coefficients == "random" else np.ones(41)
    alpha = 30.0 * DIRECTIONS[direction]
    counts = quadrature._panels((0.0, 1.0), 1.0, 30.0, 40, GAUSS_ORDER)
    assert quadrature._panel_rate(40, GAUSS_ORDER) == 0.0
    assert counts == (math.ceil(0.5 * 70.0 / quadrature._panel_rate(0, GAUSS_ORDER)),)
    with mp.workdps(DIGITS):
        a = mp.mpc(alpha.real, alpha.imag)
        poly = [mp.mpf(c) for c in coefs[::-1]]

        def f(t):
            return mp.polyval(poly, t) * mp.exp(a * t)
        exact = _moment(poly[::-1], a, lo=0)
        error = abs(_sum_over_panels(f, (mp.mpf(0), mp.mpf(1)), counts) - exact)
        scale = mp.fsum(abs(c) for c in poly) * mp.exp(max(a.real, 0))
        assert float(error / scale) <= EPS * 0.5
        # the package's own sum, in doubles, to rounding
        got = integrate(lambda t: np.polynomial.polynomial.polyval(t, coefs) * np.exp(alpha * t),
                        0.0, 1.0, rate=30.0, degree=40)
        assert float(abs(got - exact) / scale) <= 1e-14


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
def test_a_255_sample_tabulated_record_keeps_its_bound(direction):
    # a zig-zag of 255 interior samples off the grid, at rate 400: each of
    # the 256 segments of width about 1/256 gets its own panels
    rng = np.random.default_rng(255)
    times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 255)), [1.0]))
    values = rng.uniform(-1.0, 1.0, 257)
    alpha = 400.0 * DIRECTIONS[direction]
    edges = quadrature._segments(0.0, 1.0, tuple(times[1:-1]))
    counts = quadrature._panels(edges, 1.0, 400.0, 1, GAUSS_ORDER)
    assert len(counts) == 256
    with mp.workdps(DIGITS):
        a = mp.mpc(alpha.real, alpha.imag)
        exact = got = mp.mpf(0)
        scale = max(abs(values)) * math.exp(max(alpha.real, 0.0))
        for i, count in enumerate(counts):
            t0, t1 = mp.mpf(times[i]), mp.mpf(times[i + 1])
            v0, v1 = mp.mpf(values[i]), mp.mpf(values[i + 1])
            slope = (v1 - v0) / (t1 - t0)

            def f(t):
                return (v0 + slope * (t - t0)) * mp.exp(a * t)

            def antiderivative(t):
                return mp.exp(a * t) * ((v0 + slope * (t - t0)) / a - slope / (a * a))
            exact += antiderivative(t1) - antiderivative(t0)
            got += _sum_over_panels(f, (t0, t1), (count,))
        assert float(abs(got - exact)) <= EPS * 0.5 * scale
        record = lambda t: np.interp(t, times, values)
        value = integrate(lambda t: record(t) * np.exp(alpha * t), 0.0, 1.0, rate=400.0,
                          degree=1, breaks=tuple(times[1:-1]))
        assert float(abs(value - exact)) <= 1e-14 * scale
