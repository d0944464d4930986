import numpy as np
import pytest

from rpif import QuadratureError
from rpif.quadrature import GAUSS_ORDER, integrate, integrate_triangle


def test_polynomial_exact():
    val = integrate(lambda t: t ** 3, 0.0, 1.0)
    assert val.real == pytest.approx(0.25, rel=1e-13)
    assert val.imag == 0.0


def test_exponential():
    val = integrate(lambda t: np.exp(t), 0.0, 1.0)
    assert val.real == pytest.approx(np.e - 1.0, rel=1e-12)


def test_oscillatory_complex():
    # integral of exp(i k t) over [0, 2] = (exp(2ik) - 1)/(ik)
    k = 23.0
    val = integrate(lambda t: np.exp(1j * k * t), 0.0, 2.0)
    expect = (np.exp(2j * k) - 1.0) / (1j * k)
    assert abs(val - expect) <= 1e-10 * abs(expect) + 1e-12


def test_empty_interval_is_zero():
    assert integrate(lambda t: t, 0.7, 0.7) == 0.0


def test_discontinuity_exhausts_budget():
    with pytest.raises(QuadratureError):
        integrate(lambda t: np.where(t < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0)


def test_triangle_area():
    val = integrate_triangle(lambda t, s: ([np.ones_like(t)], [np.ones_like(s)]),
                             0.0, 1.0)
    assert val.real == pytest.approx(0.5, rel=1e-12)


def test_triangle_product_moment():
    # int_0^1 dt int_0^t ds t*s = 1/8
    val = integrate_triangle(lambda t, s: ([t], [s]), 0.0, 1.0)
    assert val.real == pytest.approx(0.125, rel=1e-12)


def test_triangle_asymmetric_kernel():
    # int_0^1 dt int_0^t ds exp(t - s) = e - 2
    val = integrate_triangle(lambda t, s: ([np.exp(t)], [np.exp(-s)]), 0.0, 1.0)
    assert val.real == pytest.approx(np.e - 2.0, rel=1e-11)


def test_triangle_complex_oscillator():
    # int_0^1 dt int_0^t ds exp(i(t+s)) = -(1 + exp(2i) - 2 exp(i))/2
    val = integrate_triangle(lambda t, s: ([np.exp(1j * t)], [np.exp(1j * s)]),
                             0.0, 1.0)
    expect = -(1.0 + np.exp(2j) - 2.0 * np.exp(1j)) / 2.0
    assert abs(val - expect) <= 1e-10 * abs(expect) + 1e-13


def test_triangle_sums_rows_and_keeps_leading_axes():
    # rows t*s and t^2*1 give 1/8 + 1/4; a leading axis of two scales them
    def factors(t, s):
        rows = np.stack((t, t * t))
        return np.stack((rows, 2.0 * rows)), np.stack((s, np.ones_like(s)))
    val = integrate_triangle(factors, 0.0, 1.0)
    assert val.shape == (2,)
    assert val == pytest.approx([0.375, 0.75], rel=1e-12)


def test_triangle_level_sees_n_outer_and_at_most_order_plus_one_n_inner_points():
    seen = []

    def factors(t, s):
        seen.append((t.size, s.size))
        return [np.exp(t)], [np.cos(s)]
    integrate_triangle(factors, 0.0, 1.0)
    assert [n for n, _ in seen] == [GAUSS_ORDER * 2 ** i for i in range(len(seen))]
    assert all(m <= (GAUSS_ORDER + 1) * n for n, m in seen)


def test_determinism():
    fn = lambda t: np.sin(3.7 * t) * np.exp(-t)
    assert integrate(fn, 0.0, 2.0) == integrate(fn, 0.0, 2.0)


def test_stalled_integral_reports_its_last_delta():
    # a kink at an irrational-looking point converges only like h^2
    with pytest.raises(QuadratureError) as info:
        integrate(lambda t: np.abs(t - 0.37) + 0j, 0.0, 1.0, node_budget=64)
    exc = info.value
    assert exc.last_delta > 0
    assert f"last delta {exc.last_delta:.3e}" in str(exc)


def test_stalled_triangle_reports_its_last_delta():
    with pytest.raises(QuadratureError) as info:
        integrate_triangle(lambda t, s: ([np.abs(t - 0.37) + 0j], [np.ones_like(s)]),
                           0.0, 1.0, axis_budget=64)
    exc = info.value
    assert exc.last_delta > 0
    assert f"last delta {exc.last_delta:.3e}" in str(exc)
