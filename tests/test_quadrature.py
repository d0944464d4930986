import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpif import QuadratureError, quadrature
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


def test_triangle_level_sees_n_outer_and_2n_inner_points():
    seen = []

    def factors(t, s):
        seen.append((t.size, s.size))
        return [np.exp(t)], [np.cos(s)]
    integrate_triangle(factors, 0.0, 1.0)
    assert [n for n, _ in seen] == [GAUSS_ORDER * 2 ** i for i in range(len(seen))]
    assert all(m == 2 * n for n, m in seen)


@pytest.mark.parametrize("order", [8, 5])
def test_partial_weights_integrate_polynomials_to_each_outer_node(order):
    # from -1 to each order-point Gauss node, the rows integrate y^d from
    # the 2*order inner nodes exactly up to d = 2*order - 1, to a few ulp
    # of the reference panel [-1, 1]; the last row is the whole panel
    weights = quadrature._partial_weights(order)
    x, _ = quadrature._gauss(order)
    y, v = quadrature._gauss(2 * order)
    assert weights.shape == (order + 1, 2 * order)
    assert weights[-1].tobytes() == v.tobytes()
    for d in range(2 * order):
        got = weights[:-1] @ y ** d
        want = [float((Fraction(xi) ** (d + 1) - (-1) ** (d + 1)) / (d + 1)) for xi in x]
        assert np.abs(got - want).max() <= 4 * np.spacing(1.0), d


@pytest.mark.parametrize("breaks", [(), (0.37,)])
@pytest.mark.parametrize("omega", [150.0, 400.0])
def test_triangle_oscillator_matches_its_closed_form(omega, breaks):
    # int_0^1 dt exp(i w t) int_0^t ds cos(w s) = int_0^1 (exp(2iwt) - 1)/(2iw) dt
    val = integrate_triangle(lambda t, s: ([np.exp(1j * omega * t)], [np.cos(omega * s)]),
                             0.0, 1.0, breaks=breaks)
    expect = ((np.exp(2j * omega) - 1.0) / (2j * omega) - 1.0) / (2j * omega)
    assert abs(val - expect) <= 1e-12 * abs(expect)


def test_line_rows_keep_leading_axes_and_each_converge():
    # a polynomial row converges at the second level, the oscillatory row
    # later; each entry must still match its own integral
    def fn(t):
        rows = np.stack((t * t, np.cos(40.0 * t)))
        return np.stack((rows, 3.0 * rows))
    val = integrate(fn, 0.0, 1.0)
    assert val.shape == (2, 2)
    for scale, row in zip((1.0, 3.0), val):
        assert row[0] == pytest.approx(scale / 3.0, rel=1e-12)
        assert row[1] == pytest.approx(scale * np.sin(40.0) / 40.0, rel=1e-10)


@pytest.mark.parametrize("breaks", [(), (0.37, 0.61)])
def test_triangle_chunks_bound_each_call_and_keep_the_sum(monkeypatch, breaks):
    # chunks of two panels carry the running inner sum across chunk and
    # segment edges; the result matches one call per level to rounding
    def factors(t, s):
        seen.append(t.size)
        rows = np.stack((np.exp(1j * 30.0 * t), t * t + 0j))
        return rows, np.stack((np.cos(30.0 * s), s))
    seen = []
    whole = integrate_triangle(factors, 0.0, 1.0, breaks=breaks)
    assert max(seen) > 2 * GAUSS_ORDER
    seen = []
    monkeypatch.setattr(quadrature, "CHUNK_NODES", 2 * GAUSS_ORDER)
    chunked = integrate_triangle(factors, 0.0, 1.0, breaks=breaks)
    assert max(seen) == 2 * GAUSS_ORDER
    assert abs(chunked - whole) <= 1e-14 * abs(whole)


def test_determinism():
    fn = lambda t: np.sin(3.7 * t) * np.exp(-t)
    assert integrate(fn, 0.0, 2.0) == integrate(fn, 0.0, 2.0)


def test_stalled_integral_reports_its_last_delta(monkeypatch):
    # a kink at an irrational-looking point converges only like h^2
    monkeypatch.setattr(quadrature, "LINE_NODE_BUDGET", 64)
    with pytest.raises(QuadratureError) as info:
        integrate(lambda t: np.abs(t - 0.37) + 0j, 0.0, 1.0)
    exc = info.value
    assert exc.last_delta > 0
    assert f"last delta {exc.last_delta:.3e}" in str(exc)


def test_stalled_triangle_reports_its_last_delta(monkeypatch):
    monkeypatch.setattr(quadrature, "AXIS_NODE_BUDGET", 64)
    with pytest.raises(QuadratureError) as info:
        integrate_triangle(lambda t, s: ([np.abs(t - 0.37) + 0j], [np.ones_like(s)]),
                           0.0, 1.0)
    exc = info.value
    assert exc.last_delta > 0
    assert f"last delta {exc.last_delta:.3e}" in str(exc)


# ---------------------------------------------------------------------------
# breakpoints: panel edges at the kinks
# ---------------------------------------------------------------------------

def test_kink_on_a_breakpoint_is_integrated_exactly():
    # int_0^1 |t - 0.37| dt = (0.37^2 + 0.63^2)/2
    val = integrate(lambda t: np.abs(t - 0.37) + 0j, 0.0, 1.0, breaks=(0.37,))
    assert abs(val - 0.2669) <= 1e-14


def test_triangle_kink_on_a_breakpoint_converges():
    # with g = |t - 0.37| on both axes the triangle integral is (int g)^2/2
    def factors(t, s):
        return [np.abs(t - 0.37) + 0j], [np.abs(s - 0.37)]
    val = integrate_triangle(factors, 0.0, 1.0, breaks=(0.37,))
    assert abs(val - 0.2669 ** 2 / 2.0) <= 1e-14


def _seen_nodes(run):
    seen = []

    def fn(t):
        seen.append(np.array(t))
        return np.cos(3.0 * t) + 0j
    value = run(fn)
    return value, seen


def test_breakpoints_outside_or_on_the_ends_add_no_segment():
    plain = _seen_nodes(lambda fn: integrate(fn, 0.2, 1.3))
    for breaks in ((-1.0, 0.2), (1.3, 2.0), (0.2, 1.3, 7.0)):
        value, seen = _seen_nodes(lambda fn: integrate(fn, 0.2, 1.3, breaks=breaks))
        assert value == plain[0]
        assert len(seen) == len(plain[1])
        for got, want in zip(seen, plain[1]):
            np.testing.assert_array_equal(got, want)


def test_repeated_breakpoints_count_once():
    once = _seen_nodes(lambda fn: integrate(fn, 0.0, 1.0, breaks=(0.37,)))
    twice = _seen_nodes(lambda fn: integrate(fn, 0.0, 1.0, breaks=(0.37, 0.37)))
    assert once[0] == twice[0]
    assert [t.size for t in once[1]] == [t.size for t in twice[1]]


def test_every_segment_doubles_together_and_no_panel_straddles_a_breakpoint():
    breaks = (0.1, 0.37, 0.61)
    seen = []

    def factors(t, s):
        seen.append((t, s))
        return [np.exp(t)], [np.cos(s)]
    integrate_triangle(factors, 0.0, 1.0, breaks=breaks)
    edges = np.array((0.0, *breaks, 1.0))
    for level, (t, s) in enumerate(seen):
        counts = np.histogram(t, edges)[0]
        assert list(counts) == [GAUSS_ORDER * 2 ** level] * 4
        # each panel's inner points lie in the same segment as its outer
        # nodes
        segment_t = np.searchsorted(edges, t.reshape(-1, GAUSS_ORDER))
        segment_s = np.searchsorted(edges, s.reshape(len(segment_t), -1))
        assert np.all(segment_s == segment_t[:, :1])
        assert np.all(segment_t == segment_t[:, :1])


def test_the_largest_split_that_fits_converges():
    # 256 segments run two levels in exactly 4096 nodes per axis; the kink
    # at 0.5 is one of the 255 breakpoints
    breaks = tuple(np.linspace(0.0, 1.0, 257)[1:-1])

    def factors(t, s):
        return [np.abs(t - 0.5) + 0j], [np.abs(s - 0.5)]
    val = integrate_triangle(factors, 0.0, 1.0, breaks=breaks)
    assert abs(val - 0.25 ** 2 / 2.0) <= 1e-14


def test_a_long_split_grows_the_budget_to_three_levels(monkeypatch):
    # 299 interior breakpoints: 300 segments take 2400 nodes per axis at one
    # panel each, so two levels would overrun the budget of 4096; the budget
    # grows to the three levels of 1, 2 and 4 panels per segment, and the
    # kink at 0.5 is one of the breakpoints
    breaks = tuple(np.linspace(0.0, 1.0, 301)[1:-1])

    def factors(t, s):
        return [np.abs(t - 0.5) + 0j], [np.abs(s - 0.5)]
    val = integrate_triangle(factors, 0.0, 1.0, breaks=breaks)
    assert abs(val - 0.25 ** 2 / 2.0) <= 1e-14
    monkeypatch.setattr(quadrature, "LINE_NODE_BUDGET", 4096)
    val = integrate(lambda t: np.abs(t - 0.5) + 0j, 0.0, 1.0, breaks=breaks)
    assert abs(val - 0.25) <= 1e-14


def test_a_stalled_long_split_names_the_grown_budget():
    # 40 radians per panel at the last level: the rule cannot resolve the
    # oscillation within the grown budget of 4 * 300 segments * 8 nodes
    breaks = tuple(np.linspace(0.0, 1.0, 301)[1:-1])
    seen = []

    def factors(t, s):
        seen.append(t.size)
        return [np.exp(5e4j * t)], [np.ones_like(s)]
    with pytest.raises(QuadratureError, match="within 9600 nodes per axis") as info:
        integrate_triangle(factors, 0.0, 1.0, breaks=breaks)
    assert "nan" not in str(info.value)
    assert sum(seen) == 300 * GAUSS_ORDER * (1 + 2 + 4)


@pytest.mark.parametrize("rule", ["line", "triangle"])
def test_each_set_of_a_batch_converges_on_its_own(rule):
    # sets of increasing difficulty: each stops at the level it reaches
    # alone, with the same bits, and later levels no longer evaluate it
    rates = np.array([1.0, 30.0, 90.0])
    batch = quadrature.Batch(len(rates))
    evaluated = []

    def rows(t, rate):
        # two entries per set: an oscillation at the set's rate, and t
        return np.stack(np.broadcast_arrays(np.exp(1j * np.multiply.outer(rate, t)), t),
                        axis=-2)

    def line(t):
        evaluated.append(np.atleast_1d(np.arange(len(rates))[batch.index]))
        return rows(t, rates[batch.index])

    def factors(t, s):
        evaluated.append(np.atleast_1d(np.arange(len(rates))[batch.index]))
        return rows(t, rates[batch.index])[..., None, :], np.cos(s)[None, :]

    if rule == "line":
        together = integrate(line, 0.0, 1.0, batch=batch)
        alone = [integrate(lambda t, r=r: rows(t, r), 0.0, 1.0) for r in rates]
    else:
        together = integrate_triangle(factors, 0.0, 1.0, batch=batch)
        alone = [integrate_triangle(lambda t, s, r=r: (rows(t, r)[..., None, :],
                                                       np.cos(s)[None, :]), 0.0, 1.0)
                 for r in rates]
    assert together.shape == (3, 2)
    for got, want in zip(together, alone):
        assert got.tobytes() == np.asarray(want, complex).tobytes()
    levels = [sum(i in sets for sets in evaluated) for i in range(len(rates))]
    assert levels[0] < levels[1] < levels[2]


# ---------------------------------------------------------------------------
# failed sets of a batch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule", ["line", "triangle"])
@pytest.mark.parametrize("failure", ["stall", "nonfinite"])
def test_a_failed_set_fails_alone_with_its_lone_error(monkeypatch, rule, failure):
    # set 1 has a kink off every panel edge (it stalls) or NaN values (not
    # finite): the batch call returns, with set 1's lone error in
    # batch.failed and NaN values; sets 0 and 2 converge with their lone
    # bits, and a later integral over the batch no longer evaluates set 1
    def one(t, i):
        if i != 1:
            return np.exp(1j * (i + 1.0) * t)
        return (np.abs(t - 0.37) if failure == "stall" else np.full_like(t, np.nan)) + 0j

    def rows(t):
        sets = np.arange(3)[batch.index]
        seen.append(np.atleast_1d(sets).tolist())
        if np.ndim(sets) == 0:
            return one(t, int(sets))
        return np.stack([one(t, i) for i in sets.tolist()])

    batch = quadrature.Batch(3)
    seen = []

    def line(t):
        return rows(t)

    def factors(t, s):
        return rows(t)[..., None, :], np.cos(s)[None, :]

    def alone(i):
        if rule == "line":
            return integrate(lambda t: one(t, i), 0.0, 1.0)
        return integrate_triangle(lambda t, s: (one(t, i)[None, :], np.cos(s)[None, :]),
                                  0.0, 1.0)

    def run():
        if rule == "line":
            return integrate(line, 0.0, 1.0, batch=batch)
        return integrate_triangle(factors, 0.0, 1.0, batch=batch)

    monkeypatch.setattr(quadrature, "LINE_NODE_BUDGET", 256)
    monkeypatch.setattr(quadrature, "AXIS_NODE_BUDGET", 256)
    value = run()
    with pytest.raises(QuadratureError) as lone:
        alone(1)
    assert list(batch.failed) == [1]
    assert str(batch.failed[1]) == str(lone.value)
    assert batch.failed[1].last_delta == lone.value.last_delta
    for i in (0, 2):
        assert value[i].tobytes() == np.complex128(alone(i)).tobytes()
    assert np.isnan(value[1])
    # set 1 is left out of the next integral over the batch
    seen.clear()
    again = run()
    assert all(1 not in sets for sets in seen)
    assert again[0] == value[0] and np.isnan(again[1])


# ---------------------------------------------------------------------------
# the rule of a level
# ---------------------------------------------------------------------------

@given(inside=st.lists(st.floats(-50.0, 50.0), max_size=12, unique=True),
       ends=st.tuples(st.floats(-100.0, -60.0), st.floats(60.0, 100.0)),
       panels=st.sampled_from([1, 2, 3, 4, 8, 64, 512]))
@example(inside=[0.0, 5e-324], ends=(-100.0, 60.0), panels=3)  # a step underflows
@example(inside=[1e-300, 1e-300 + 1e-316], ends=(0.0, 1.0), panels=4096)
@settings(max_examples=200, deadline=None)
def test_panel_edges_are_each_segments_linspace_bit_for_bit(inside, ends, panels):
    edges = (ends[0], *sorted(inside), ends[1])
    want = np.concatenate([np.linspace(lo, hi, panels + 1)[:-1]
                           for lo, hi in zip(edges, edges[1:])] + [np.array(edges[-1:])])
    got = quadrature._panel_edges(panels, edges)
    assert got.tobytes() == want.tobytes()


def test_leggauss_runs_once_per_order(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(order):
        calls.append(order)
        return leggauss(order)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    # empty rule tables of their own, which the test leaves behind
    for name in ("_gauss", "_reference_rule", "_partial_weights", "_nested_rule"):
        table = getattr(quadrature, name)
        monkeypatch.setattr(quadrature, name,
                            functools.lru_cache(table.cache_parameters()["maxsize"])(
                                table.__wrapped__))
    for order in (8, 5):
        monkeypatch.setattr(quadrature, "GAUSS_ORDER", order)
        for k in range(1, 6):  # new panel edges, so new rules, every time
            breaks = tuple(np.linspace(0.0, 1.0, k + 2)[1:-1] + 0.01)
            integrate(lambda t: np.exp(t), 0.0, 1.0, breaks=breaks)
            integrate_triangle(lambda t, s: ([np.exp(t)], [np.exp(-s)]), 0.0, 1.0,
                               breaks=breaks)
    # the triangle's inner points are the Gauss nodes of twice the order
    assert calls == [8, 16, 5, 10]
