import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpif import QuadratureError, quadrature
from rpif.quadrature import GAUSS_ORDER, integrate, integrate_triangle
from util import doubling_integrate, doubling_triangle


def test_polynomial_exact():
    val = integrate(lambda t: t ** 3, 0.0, 1.0, rate=0.0, degree=3)
    assert val.real == pytest.approx(0.25, rel=1e-13)
    assert val.imag == 0.0


def test_exponential():
    val = integrate(lambda t: np.exp(t), 0.0, 1.0, rate=1.0, degree=0)
    assert val.real == pytest.approx(np.e - 1.0, rel=1e-12)


def test_oscillatory_complex():
    # integral of exp(i k t) over [0, 2] = (exp(2ik) - 1)/(ik)
    k = 23.0
    val = integrate(lambda t: np.exp(1j * k * t), 0.0, 2.0, rate=k, degree=0)
    expect = (np.exp(2j * k) - 1.0) / (1j * k)
    assert abs(val - expect) <= 1e-10 * abs(expect) + 1e-12


def test_empty_interval_is_zero():
    assert integrate(lambda t: t, 0.7, 0.7, rate=0.0, degree=1) == 0.0


def test_discontinuity_exhausts_budget():
    # a jump off every breakpoint is no exponential of any rate; resolving
    # it to rounding on 16-node panels would take a rate of 1e6, whose
    # panels the budget refuses before any node is evaluated
    def step(t):
        raise AssertionError("a node of a refused integral was evaluated")
    with pytest.raises(QuadratureError, match="more than its budget of 65536$"):
        integrate(step, 0.0, 1.0, rate=1e6, degree=0)


def test_triangle_area():
    val = integrate_triangle(lambda t, s: ([np.ones_like(t)], [np.ones_like(s)]),
                             0.0, 1.0, rate=0.0, degree=1)
    assert val.real == pytest.approx(0.5, rel=1e-12)


def test_triangle_product_moment():
    # int_0^1 dt int_0^t ds t*s = 1/8
    val = integrate_triangle(lambda t, s: ([t], [s]), 0.0, 1.0, rate=0.0, degree=3)
    assert val.real == pytest.approx(0.125, rel=1e-12)


def test_triangle_asymmetric_kernel():
    # int_0^1 dt int_0^t ds exp(t - s) = e - 2
    val = integrate_triangle(lambda t, s: ([np.exp(t)], [np.exp(-s)]), 0.0, 1.0,
                             rate=2.0, degree=1)
    assert val.real == pytest.approx(np.e - 2.0, rel=1e-11)


def test_triangle_complex_oscillator():
    # int_0^1 dt int_0^t ds exp(i(t+s)) = -(1 + exp(2i) - 2 exp(i))/2
    val = integrate_triangle(lambda t, s: ([np.exp(1j * t)], [np.exp(1j * s)]),
                             0.0, 1.0, rate=2.0, degree=1)
    expect = -(1.0 + np.exp(2j) - 2.0 * np.exp(1j)) / 2.0
    assert abs(val - expect) <= 1e-10 * abs(expect) + 1e-13


def test_triangle_sums_rows_and_keeps_leading_axes():
    # rows t*s and t^2*1 give 1/8 + 1/4; a leading axis of two scales them
    def factors(t, s):
        rows = np.stack((t, t * t))
        return np.stack((rows, 2.0 * rows)), np.stack((s, np.ones_like(s)))
    val = integrate_triangle(factors, 0.0, 1.0, rate=0.0, degree=3)
    assert val.shape == (2,)
    assert val == pytest.approx([0.375, 0.75], rel=1e-12)


def test_triangle_level_sees_n_outer_and_2n_inner_points():
    # one level: at rate 40, 40/2 = 20 is 3 panels of beta*(1) = 6.89
    seen = []

    def factors(t, s):
        seen.append((t.size, s.size))
        return [np.exp(20.0j * t)], [np.cos(20.0 * s)]
    integrate_triangle(factors, 0.0, 1.0, rate=40.0, degree=1)
    assert seen == [(3 * GAUSS_ORDER, 6 * GAUSS_ORDER)]


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
                             0.0, 1.0, rate=2.0 * omega, degree=1, breaks=breaks)
    expect = ((np.exp(2j * omega) - 1.0) / (2j * omega) - 1.0) / (2j * omega)
    assert abs(val - expect) <= 1e-12 * abs(expect)


def test_line_rows_keep_leading_axes_and_each_converge():
    # the rows share the panels of the fastest, and each entry must match
    # its own integral
    def fn(t):
        rows = np.stack((t * t, np.cos(40.0 * t)))
        return np.stack((rows, 3.0 * rows))
    val = integrate(fn, 0.0, 1.0, rate=40.0, degree=2)
    assert val.shape == (2, 2)
    for scale, row in zip((1.0, 3.0), val):
        assert row[0] == pytest.approx(scale / 3.0, rel=1e-12)
        assert row[1] == pytest.approx(scale * np.sin(40.0) / 40.0, rel=1e-10)


@pytest.mark.parametrize("breaks", [(), (0.37, 0.61)])
def test_triangle_chunks_bound_each_call_and_keep_the_sum(monkeypatch, breaks):
    # room for three panels' 3*order points gives chunks of two panels,
    # the largest power of two that fits; they carry the running inner sum
    # across chunk and segment edges, and the result matches one call to
    # rounding
    def factors(t, s):
        seen.append(t.size)
        rows = np.stack((np.exp(1j * 30.0 * t), t * t + 0j))
        return rows, np.stack((np.cos(30.0 * s), s))
    seen = []
    whole = integrate_triangle(factors, 0.0, 1.0, rate=60.0, degree=5, breaks=breaks)
    assert max(seen) > 2 * GAUSS_ORDER
    seen = []
    monkeypatch.setattr(quadrature, "BATCH_POINTS", 3 * 3 * GAUSS_ORDER)
    chunked = integrate_triangle(factors, 0.0, 1.0, rate=60.0, degree=5, breaks=breaks)
    assert max(seen) == 2 * GAUSS_ORDER
    assert abs(chunked - whole) <= 1e-14 * abs(whole)


def test_triangle_calls_stay_within_batch_points():
    # rate 1500 asks 102 panels; each call sees at most the largest power of
    # two of panels whose 3*order points each fit in BATCH_POINTS (32
    # panels, 512 outer nodes at order 16)
    def factors(t, s):
        seen.append((t.size, s.size))
        return [np.exp(750.0j * t)], [np.exp(750.0j * s)]
    seen = []
    integrate_triangle(factors, 0.0, 1.0, rate=1500.0, degree=1)
    assert sum(n for n, _ in seen) == 102 * GAUSS_ORDER
    panels = 1
    while 2 * panels * 3 * GAUSS_ORDER <= quadrature.BATCH_POINTS:
        panels *= 2
    assert max(n for n, _ in seen) == panels * GAUSS_ORDER
    assert all(n + m <= quadrature.BATCH_POINTS for n, m in seen)


def test_determinism():
    fn = lambda t: np.sin(3.7 * t) * np.exp(-t)
    assert (integrate(fn, 0.0, 2.0, rate=4.7, degree=0)
            == integrate(fn, 0.0, 2.0, rate=4.7, degree=0))


def _unevaluated(*args):
    raise AssertionError("a node of a refused integral was evaluated")


def test_a_refused_integral_names_its_nodes_budget_and_rate(monkeypatch):
    # rate 1000 on [0, 1] asks ceil(500/7.39) = 68 panels, 1088 nodes
    monkeypatch.setattr(quadrature, "LINE_NODE_BUDGET", 1024)
    with pytest.raises(QuadratureError) as info:
        integrate(_unevaluated, 0.0, 1.0, rate=1000.0, degree=0)
    assert str(info.value) == ("integral over [0, 1] at rate 1000 needs 1088 nodes, "
                               "more than its budget of 1024")
    # the budget fits: one level, nodes as named
    seen = []
    monkeypatch.setattr(quadrature, "LINE_NODE_BUDGET", 1088)
    integrate(lambda t: seen.append(t.size) or np.cos(1000.0 * t), 0.0, 1.0, rate=1000.0,
              degree=0)
    assert seen == [1088]


def test_a_refused_triangle_names_its_nodes_budget_and_rate(monkeypatch):
    monkeypatch.setattr(quadrature, "AXIS_NODE_BUDGET", 64)
    with pytest.raises(QuadratureError) as info:
        integrate_triangle(_unevaluated, 0.0, 1.0, rate=100.0, degree=1)
    assert str(info.value) == ("triangle integral over [0, 1] at rate 100 needs 112 nodes "
                               "per axis, more than its budget of 64")


@pytest.mark.parametrize("rate", [np.inf, np.nan])
def test_a_rate_that_overflows_is_refused_by_its_budget(rate):
    # a sinusoid of omega = 1e308 doubles its rate past the float range: its
    # panel need is not finite, so it is refused as any need over the budget
    # is, before any node, and alone in a batch
    with pytest.raises(QuadratureError) as info:
        integrate(_unevaluated, 0.0, 1.0, rate=rate, degree=0)
    assert str(info.value) == (f"integral over [0, 1] at rate {rate} needs inf nodes, "
                               f"more than its budget of 65536")
    batch = quadrature.Batch(2)
    value = integrate_triangle(lambda t, s: (np.ones((1, 1, t.size)), np.ones((1, s.size))),
                               0.0, 1.0, rate=[rate, 1.0], degree=[1, 1], breaks=[(), ()],
                               batch=batch)
    assert str(batch.failed[0]) == (f"triangle integral over [0, 1] at rate {rate} needs inf "
                                    f"nodes per axis, more than its budget of 4096")
    assert list(batch.failed) == [0] and value[1] == pytest.approx(0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# breakpoints: panel edges at the kinks
# ---------------------------------------------------------------------------

def test_kink_on_a_breakpoint_is_integrated_exactly():
    # int_0^1 |t - 0.37| dt = (0.37^2 + 0.63^2)/2
    val = integrate(lambda t: np.abs(t - 0.37) + 0j, 0.0, 1.0, rate=0.0, degree=1,
                    breaks=(0.37,))
    assert abs(val - 0.2669) <= 1e-14


def test_triangle_kink_on_a_breakpoint_converges():
    # with g = |t - 0.37| on both axes the triangle integral is (int g)^2/2
    def factors(t, s):
        return [np.abs(t - 0.37) + 0j], [np.abs(s - 0.37)]
    val = integrate_triangle(factors, 0.0, 1.0, rate=0.0, degree=3, breaks=(0.37,))
    assert abs(val - 0.2669 ** 2 / 2.0) <= 1e-14


def _seen_nodes(run):
    seen = []

    def fn(t):
        seen.append(np.array(t))
        return np.cos(3.0 * t) + 0j
    value = run(fn)
    return value, seen


def test_breakpoints_outside_or_on_the_ends_add_no_segment():
    plain = _seen_nodes(lambda fn: integrate(fn, 0.2, 1.3, rate=3.0, degree=0))
    for breaks in ((-1.0, 0.2), (1.3, 2.0), (0.2, 1.3, 7.0)):
        value, seen = _seen_nodes(lambda fn: integrate(fn, 0.2, 1.3, rate=3.0, degree=0,
                                                       breaks=breaks))
        assert value == plain[0]
        assert len(seen) == len(plain[1])
        for got, want in zip(seen, plain[1]):
            np.testing.assert_array_equal(got, want)


def test_repeated_breakpoints_count_once():
    once = _seen_nodes(lambda fn: integrate(fn, 0.0, 1.0, rate=3.0, degree=0,
                                            breaks=(0.37,)))
    twice = _seen_nodes(lambda fn: integrate(fn, 0.0, 1.0, rate=3.0, degree=0,
                                             breaks=(0.37, 0.37)))
    assert once[0] == twice[0]
    assert [t.size for t in once[1]] == [t.size for t in twice[1]]


@pytest.mark.parametrize("inside", [(0.5,), (0.25, 0.5)])
def test_a_lone_integral_takes_any_sequence_of_breakpoints(inside):
    # a tuple, a list and a numpy array of the same breakpoints give the
    # same bits, on the line and on the triangle, by the package's rules
    # and by the tests' doubling reference
    def line(rule, breaks):
        return rule(lambda t: np.abs(t - 0.5) + 0j, 0.0, 1.0, rate=0.0, degree=1,
                    breaks=breaks)

    def triangle(rule, breaks):
        return rule(lambda t, s: ([np.abs(t - 0.25) + 0j], [np.abs(s - 0.5)]),
                    0.0, 1.0, rate=0.0, degree=3, breaks=breaks)

    for form, rule in ((line, integrate), (triangle, integrate_triangle),
                       (line, doubling_integrate), (triangle, doubling_triangle)):
        want = np.complex128(form(rule, inside)).tobytes()
        for breaks in (list(inside), np.array(inside)):
            assert np.complex128(form(rule, breaks)).tobytes() == want


def test_each_segment_gets_its_own_panels_and_none_straddles_a_breakpoint():
    # at rate 60 and degree 1 a segment of width h takes the fewer of
    # ceil(30 h/6.89) and ceil(30.5 h/7.39) panels: 1, 2, 1 and 2 for widths
    # 0.1, 0.27, 0.24 and 0.39
    breaks = (0.1, 0.37, 0.61)
    seen = []

    def factors(t, s):
        seen.append((t, s))
        return [np.exp(30.0j * t)], [np.exp(30.0j * s)]
    integrate_triangle(factors, 0.0, 1.0, rate=60.0, degree=1, breaks=breaks)
    edges = np.array((0.0, *breaks, 1.0))
    (t, s), = seen
    assert list(np.histogram(t, edges)[0]) == [GAUSS_ORDER * k for k in (1, 2, 1, 2)]
    # each panel's inner points lie in the same segment as its outer nodes
    segment_t = np.searchsorted(edges, t.reshape(-1, GAUSS_ORDER))
    segment_s = np.searchsorted(edges, s.reshape(len(segment_t), -1))
    assert np.all(segment_s == segment_t[:, :1])
    assert np.all(segment_t == segment_t[:, :1])


def test_the_largest_split_that_fits_converges():
    # 256 segments take 4096 nodes per axis at one panel each, and at rate
    # 12 000 four panels each, 16 384, the budget grown to four panels per
    # segment; the kink at 0.5 is one of the 255 breakpoints
    breaks = tuple(np.linspace(0.0, 1.0, 257)[1:-1])

    def factors(t, s):
        return [np.abs(t - 0.5) + 0j], [np.abs(s - 0.5)]
    val = integrate_triangle(factors, 0.0, 1.0, rate=0.0, degree=3, breaks=breaks)
    assert abs(val - 0.25 ** 2 / 2.0) <= 1e-14
    val = integrate_triangle(factors, 0.0, 1.0, rate=12000.0, degree=3, breaks=breaks)
    assert abs(val - 0.25 ** 2 / 2.0) <= 1e-14


def test_a_long_split_grows_the_budget_to_three_levels(monkeypatch):
    # 299 interior breakpoints: 300 segments take 4800 nodes per axis at one
    # panel each, past the budget of 4096; the budget grows to four panels
    # per segment, what the third level of a doubling loop reached, and the
    # kink at 0.5 is one of the breakpoints
    breaks = tuple(np.linspace(0.0, 1.0, 301)[1:-1])

    def factors(t, s):
        return [np.abs(t - 0.5) + 0j], [np.abs(s - 0.5)]
    val = integrate_triangle(factors, 0.0, 1.0, rate=0.0, degree=3, breaks=breaks)
    assert abs(val - 0.25 ** 2 / 2.0) <= 1e-14
    monkeypatch.setattr(quadrature, "LINE_NODE_BUDGET", 4096)
    val = integrate(lambda t: np.abs(t - 0.5) + 0j, 0.0, 1.0, rate=0.0, degree=1,
                    breaks=breaks)
    assert abs(val - 0.25) <= 1e-14


def test_a_stalled_long_split_names_the_grown_budget():
    # at rate 5e4 each of the 300 segments asks 12 panels, past the grown
    # budget of 4 panels per segment: refused before any node
    breaks = tuple(np.linspace(0.0, 1.0, 301)[1:-1])
    budget = 4 * 300 * GAUSS_ORDER
    with pytest.raises(QuadratureError) as info:
        integrate_triangle(_unevaluated, 0.0, 1.0, rate=5e4, degree=1, breaks=breaks)
    assert str(info.value).endswith(
        f"needs {300 * 12 * GAUSS_ORDER} nodes per axis, more than its budget of {budget}")


@pytest.mark.parametrize("rule", ["line", "triangle"])
def test_each_set_of_a_batch_converges_on_its_own(rule):
    # sets of increasing rate, then sets whose breakpoints differ: each gets
    # the segments and panels it gets alone, with the same bits; sets that
    # share edges and panels are evaluated together, in one call, and those
    # with more panels see more nodes
    def rows(t, rate):
        # two entries per set: an oscillation at the set's rate, and t
        return np.stack(np.broadcast_arrays(np.exp(1j * np.multiply.outer(rate, t)), t),
                        axis=-2)

    def calls(rates, breaks):
        """The calls of the batched integral, each as (its sets, its nodes),
        after checking every set against its lone integral."""
        batch = quadrature.Batch(len(rates))
        splits = [breaks] * len(rates) if isinstance(breaks, tuple) else breaks
        evaluated = []

        def line(t):
            evaluated.append((tuple(np.atleast_1d(np.arange(len(rates))[batch.index])), t.size))
            return rows(t, rates[batch.index])

        def factors(t, s):
            return line(t)[..., None, :], np.cos(s)[None, :]

        if rule == "line":
            together = integrate(line, 0.0, 1.0, rate=rates, degree=[1] * len(rates),
                                 breaks=splits, batch=batch)
            alone = [integrate(lambda t, r=r: rows(t, r), 0.0, 1.0, rate=r, degree=1,
                               breaks=split)
                     for r, split in zip(rates, splits)]
        else:
            together = integrate_triangle(factors, 0.0, 1.0, rate=rates,
                                          degree=[2] * len(rates), breaks=splits, batch=batch)
            alone = [integrate_triangle(lambda t, s, r=r: (rows(t, r)[..., None, :],
                                                           np.cos(s)[None, :]), 0.0, 1.0,
                                        rate=r, degree=2, breaks=split)
                     for r, split in zip(rates, splits)]
        assert together.shape == (len(rates), 2)
        for got, want in zip(together, alone):
            assert got.tobytes() == np.asarray(want, complex).tobytes()
        return sorted(evaluated)

    evaluated = calls(np.array([1.0, 30.0, 90.0, 1.5]), ())
    nodes = {i: size for sets, size in evaluated for i in sets}
    assert len(evaluated) == 3 and nodes[0] == nodes[3] < nodes[1] < nodes[2]
    # no, one and two interior breakpoints, and the same edges again from
    # breakpoints in another order or outside the interval: one panel per
    # segment at rate 1, one call per split
    splits = [(), (0.37,), (0.37, 0.61), (0.37,), (0.61, 0.37, 1.5), (-0.2,)]
    evaluated = calls(np.ones(len(splits)), splits)
    assert evaluated == [((0, 5), GAUSS_ORDER), ((1, 3), 2 * GAUSS_ORDER),
                         ((2, 4), 3 * GAUSS_ORDER)]


# ---------------------------------------------------------------------------
# failed sets of a batch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule", ["line", "triangle"])
@pytest.mark.parametrize("failure", ["stall", "nonfinite"])
def test_a_failed_set_fails_alone_with_its_lone_error(monkeypatch, rule, failure):
    # set 1 stalls (its rate asks more nodes than the budget, and it is
    # refused before any node) or has NaN values (not finite): the batch
    # call returns, with set 1's lone error in batch.failed and NaN values;
    # sets 0 and 2 keep their lone bits, and a later integral over the
    # batch no longer evaluates set 1.  Set 2 is split at 0.37, and set 3
    # at 20 points, which grow its budget to four panels per segment: it
    # still refuses set 3's rate, and set 3 carries its lone refusal, with
    # its own budget
    rates = [1.0, 1e4 if failure == "stall" else 2.0, 3.0, 1e4]
    splits = [(), (), (0.37,), tuple(np.linspace(0.0, 1.0, 22)[1:-1])]

    def one(t, i):
        if i == 1 and failure == "nonfinite":
            return np.full_like(t, np.nan) + 0j
        return np.exp(1j * rates[i] * t)

    def rows(t):
        sets = np.arange(4)[batch.index]
        seen.append(np.atleast_1d(sets).tolist())
        if np.ndim(sets) == 0:
            return one(t, int(sets))
        return np.stack([one(t, i) for i in sets.tolist()])

    batch = quadrature.Batch(4)
    seen = []

    def line(t):
        return rows(t)

    def factors(t, s):
        return rows(t)[..., None, :], np.cos(s)[None, :]

    def alone(i):
        if rule == "line":
            return integrate(lambda t: one(t, i), 0.0, 1.0, rate=rates[i], degree=0,
                             breaks=splits[i])
        return integrate_triangle(lambda t, s: (one(t, i)[None, :], np.cos(s)[None, :]),
                                  0.0, 1.0, rate=rates[i], degree=1, breaks=splits[i])

    def run():
        if rule == "line":
            return integrate(line, 0.0, 1.0, rate=rates, degree=[0] * 4, breaks=splits,
                             batch=batch)
        return integrate_triangle(factors, 0.0, 1.0, rate=rates, degree=[1] * 4, breaks=splits,
                                  batch=batch)

    monkeypatch.setattr(quadrature, "LINE_NODE_BUDGET", 256)
    monkeypatch.setattr(quadrature, "AXIS_NODE_BUDGET", 256)
    value = run()
    assert all(3 not in sets for sets in seen)
    if failure == "stall":
        assert all(1 not in sets for sets in seen)
    assert sorted(batch.failed) == [1, 3]
    for i in (1, 3):
        with pytest.raises(QuadratureError) as lone:
            alone(i)
        assert str(batch.failed[i]) == str(lone.value)
    assert str(batch.failed[3]).endswith(f"more than its budget of {4 * 21 * GAUSS_ORDER}")
    for i in (0, 2):
        assert value[i].tobytes() == np.complex128(alone(i)).tobytes()
    assert np.isnan(value[1]) and np.isnan(value[3])
    # sets 1 and 3 are left out of the next integral over the batch
    seen.clear()
    again = run()
    assert all(1 not in sets and 3 not in sets for sets in seen)
    assert again[0] == value[0] and np.isnan(again[1])


@pytest.mark.parametrize("rule", ["line", "triangle"])
def test_a_set_that_turns_non_finite_after_the_first_level_fails_alone(rule):
    # set 1 is finite on one panel's nodes and infinite on more; its rate
    # asks two panels, so it fails with its lone error; set 0, smooth, takes
    # one panel, as it does alone, with its lone bits
    seen = []
    rates = [1.0, 20.0]

    def one(t, i):
        if i == 0:
            seen.append(t.size)
            return np.exp(1j * t)
        return np.full_like(t, np.inf if t.size > GAUSS_ORDER else 1.0) + 0j

    def rows(t):
        sets = np.arange(2)[batch.index]
        if np.ndim(sets) == 0:
            return one(t, int(sets))
        return np.stack([one(t, i) for i in sets.tolist()])

    def alone(i):
        if rule == "line":
            return integrate(lambda t: one(t, i), 0.0, 1.0, rate=rates[i], degree=0)
        return integrate_triangle(lambda t, s: (one(t, i)[None, :], np.cos(s)[None, :]),
                                  0.0, 1.0, rate=rates[i], degree=1)

    batch = quadrature.Batch(2)
    if rule == "line":
        value = integrate(rows, 0.0, 1.0, rate=rates, degree=[0, 0], breaks=[(), ()],
                          batch=batch)
    else:
        value = integrate_triangle(lambda t, s: (rows(t)[..., None, :], np.cos(s)[None, :]),
                                   0.0, 1.0, rate=rates, degree=[1, 1], breaks=[(), ()],
                                   batch=batch)
    with pytest.raises(QuadratureError, match="^non-finite estimate over ") as lone:
        alone(1)
    assert list(batch.failed) == [1]
    assert str(batch.failed[1]) == str(lone.value)
    together, seen[:] = seen[:], []
    assert value[0].tobytes() == np.complex128(alone(0)).tobytes()
    assert together == seen == [GAUSS_ORDER]
    assert np.isnan(value[1])


# ---------------------------------------------------------------------------
# the rule of a level
# ---------------------------------------------------------------------------

@given(inside=st.lists(st.floats(-50.0, 50.0), max_size=12, unique=True),
       ends=st.tuples(st.floats(-100.0, -60.0), st.floats(60.0, 100.0)),
       panels=st.lists(st.sampled_from([1, 2, 3, 4, 8, 64, 512]), min_size=13, max_size=13))
@example(inside=[0.0, 5e-324], ends=(-100.0, 60.0), panels=[3] * 13)  # a step underflows
@example(inside=[1e-300, 1e-300 + 1e-316], ends=(0.0, 1.0), panels=[4096] * 13)
@settings(max_examples=200, deadline=None)
def test_panel_edges_are_each_segments_linspace_bit_for_bit(inside, ends, panels):
    edges = (ends[0], *sorted(inside), ends[1])
    counts = tuple(panels[:len(edges) - 1])
    want = np.concatenate([np.linspace(lo, hi, count + 1)[:-1]
                           for count, lo, hi in zip(counts, edges, edges[1:])]
                          + [np.array(edges[-1:])])
    got = quadrature._panel_edges(counts, edges)
    assert got.tobytes() == want.tobytes()


def test_leggauss_runs_once_per_order(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(order):
        calls.append(order)
        return leggauss(order)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    # empty rule tables of their own, which the test leaves behind
    for name in ("_gauss", "_cached_rule", "_partial_weights"):
        table = getattr(quadrature, name)
        monkeypatch.setattr(quadrature, name,
                            functools.lru_cache(table.cache_parameters()["maxsize"])(
                                table.__wrapped__))
    for order in (8, 5):
        monkeypatch.setattr(quadrature, "GAUSS_ORDER", order)
        for k in range(1, 6):  # new panel edges, so new rules, every time
            breaks = tuple(np.linspace(0.0, 1.0, k + 2)[1:-1] + 0.01)
            integrate(lambda t: np.exp(t), 0.0, 1.0, rate=1.0, degree=0, breaks=breaks)
            integrate_triangle(lambda t, s: ([np.exp(t)], [np.exp(-s)]), 0.0, 1.0,
                               rate=2.0, degree=1, breaks=breaks)
    # the triangle's inner points are the Gauss nodes of twice the order
    assert calls == [8, 16, 5, 10]
