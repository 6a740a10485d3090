"""Threshold digitization tests with closed-form and brute-force oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import conftest
from hybridgates.modes import (
    AffineSegment,
    RelaxationSegment,
    ScalarAffineSegment,
    StateSpace,
    Trajectory,
    affine_mode,
    solve_mode,
)
from hybridgates.signals import BinarySignal
from hybridgates.threshold import (
    ThresholdSpec,
    digitize,
    find_crossings,
)

from conftest import FunctionSegment, sampled_crossings, term_scale

BOX = StateSpace(((-100.0, 100.0),))


def _affine_traj(a, b, x0, t1):
    mode = affine_mode("m", [[a]], [b], BOX)
    return Trajectory([solve_mode(mode, [x0], 0.0, t1, BOX)])


def _wave_traj(fn, t1):
    return Trajectory([FunctionSegment(0.0, t1, fn)])


def _sampled_digitize(traj, spec):
    """``digitize`` of a trajectory that the sampled reference crosses."""
    initial = 1 if traj.value(traj.t0)[spec.component - 1] > spec.xi else 0
    crossings = sampled_crossings(traj, spec.xi, spec.component)
    return BinarySignal(initial, tuple((t, int(rising)) for t, rising in crossings), traj.horizon)


class TestConstantsAndInitialValue:
    def test_constant_above_threshold(self):
        sig = digitize(_affine_traj(0.0, 0.0, 0.8, 5.0), ThresholdSpec(0.5))
        assert sig.initial_value == 1
        assert sig.times == ()

    def test_constant_below_threshold(self):
        sig = digitize(_affine_traj(0.0, 0.0, 0.2, 5.0), ThresholdSpec(0.5))
        assert sig.initial_value == 0
        assert sig.times == ()

    def test_exactly_at_threshold_maps_to_zero(self):
        # comparator rule: x <= xi reads 0, so the boundary itself is low
        with pytest.warns(RuntimeWarning):
            sig = digitize(_affine_traj(0.0, 0.0, 0.5, 5.0), ThresholdSpec(0.5))
        assert sig.initial_value == 0
        assert sig.times == ()

    def test_digitize_rejects_offset_start(self):
        traj = Trajectory([ScalarAffineSegment(1.0, 2.0, 0.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            digitize(traj, ThresholdSpec(0.5))


class TestClosedFormCrossings:
    def test_exponential_decay_crossing_at_log_two(self):
        # x(t) = e^{-t} crosses 0.5 exactly at ln 2
        sig = digitize(_affine_traj(-1.0, 0.0, 1.0, 5.0), ThresholdSpec(0.5))
        assert sig.initial_value == 1
        assert len(sig.times) == 1
        assert sig.times[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert sig.value_at(5.0) == 0

    def test_saturating_rise_crossing(self):
        # x(t) = 50(1 - e^{-t/10}) reaches 19 at 10 ln(50/31)
        sig = digitize(_affine_traj(-0.1, 5.0, 0.0, 20.0), ThresholdSpec(19.0))
        assert sig.initial_value == 0
        assert len(sig.times) == 1
        assert sig.times[0] == pytest.approx(10.0 * math.log(50.0 / 31.0), abs=1e-12)

    def test_sine_crossings_at_arcsin_values(self):
        sig = _sampled_digitize(_wave_traj(np.sin, 2.0 * math.pi), ThresholdSpec(0.5))
        assert sig.initial_value == 0
        assert len(sig.times) == 2
        assert sig.times[0] == pytest.approx(math.pi / 6.0, abs=1e-11)
        assert sig.times[1] == pytest.approx(5.0 * math.pi / 6.0, abs=1e-11)

    def test_numeric_solution_matches_closed_form_crossing(self):
        # an RK45 solution of the heating mode, crossed by the sampled
        # reference, against the closed form's exact time
        mode = affine_mode("heat", [[-0.1]], [5.0], BOX)
        sol = solve_ivp(mode.rhs, (0.0, 20.0), [0.0], method="RK45", rtol=1e-9, atol=1e-12, dense_output=True)
        traj = Trajectory([FunctionSegment(0.0, 20.0, lambda ts: sol.sol(ts)[0])])
        sig = _sampled_digitize(traj, ThresholdSpec(19.0))
        assert len(sig.times) == 1
        assert sig.times[0] == pytest.approx(10.0 * math.log(50.0 / 31.0), abs=1e-7)
        closed = digitize(_affine_traj(-0.1, 5.0, 0.0, 20.0), ThresholdSpec(19.0))
        assert sig.times[0] == pytest.approx(closed.times[0], abs=1e-7)


def _grid_oracle_crossings(fn, xi, t1, n=1_000_001):
    """Brute-force crossing locator on a uniform grid (accuracy ~ t1/n)."""
    ts = np.linspace(0.0, t1, n)
    pred = fn(ts) > xi
    flips = np.nonzero(pred[:-1] != pred[1:])[0]
    return [(0.5 * (ts[i] + ts[i + 1]), bool(pred[i + 1])) for i in flips]


class TestAgainstBruteForceGrid:
    """The sampled reference that the closed forms are checked against."""

    def test_damped_sine_matches_fine_grid(self):
        fn = lambda t: np.exp(-0.3 * t) * np.sin(3.0 * t)
        got = sampled_crossings(_wave_traj(fn, 6.0), 0.2)
        want = _grid_oracle_crossings(fn, 0.2, 6.0)
        assert len(got) == len(want) == 6
        for (tg, rg), (tw, rw) in zip(got, want):
            assert rg == rw
            assert tg == pytest.approx(tw, abs=1e-5)

    def test_probe_count_does_not_change_result(self, monkeypatch):
        fn = lambda t: np.exp(-0.3 * t) * np.sin(3.0 * t)
        traj = _wave_traj(fn, 6.0)
        runs = []
        for p in (47, 64, 128):
            monkeypatch.setattr(conftest, "_PROBE_POINTS", p)
            runs.append(sampled_crossings(traj, 0.2))
        assert all(len(r) == len(runs[0]) for r in runs)
        for other in runs[1:]:
            for (ta, ra), (tb, rb) in zip(runs[0], other):
                assert ra == rb
                assert ta == pytest.approx(tb, abs=1e-9)


def _sampled(segment):
    """The same values as a FunctionSegment, which the sampled reference crosses."""
    return FunctionSegment(segment.t0, segment.t1, segment.values)


def _crossings_and_warnings(traj, xi, component=1, crossings=find_crossings):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = crossings(traj, xi, component)
    return got, [w.category for w in caught]


def _assert_same_crossings(fast, slow, tol=1e-12):
    assert [rising for _, rising in fast] == [rising for _, rising in slow]
    for (t_fast, _), (t_slow, _) in zip(fast, slow):
        assert abs(t_fast - t_slow) <= tol


class TestClosedFormAgainstSampledPath:
    # The slope at the threshold, a (xi - x_inf) or b when a = 0, is kept
    # away from zero: where it vanishes the crossing time is ill-conditioned
    # and the two paths agree only to the rounding of the values themselves.
    @settings(max_examples=400, deadline=None)
    @given(
        a=st.one_of(st.just(0.0), st.floats(-20.0, -0.05), st.floats(0.05, 5.0)),
        lean=st.floats(0.1, 10.0),
        lean_sign=st.sampled_from([-1.0, 1.0]),
        xi=st.floats(-5.0, 5.0),
        offset=st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-10.0, 10.0)),
        t0=st.floats(0.0, 10.0),
        span=st.one_of(st.floats(1e-9, 1e-3), st.floats(0.1, 20.0)),
    )
    def test_single_segment(self, a, lean, lean_sign, xi, offset, t0, span):
        if a == 0.0:
            b = lean_sign * lean
        else:
            b = -a * (xi + lean_sign * lean)  # x_inf = xi +- lean
        seg = ScalarAffineSegment(t0, t0 + span, xi + offset, a, b)
        fast, fast_warned = _crossings_and_warnings(Trajectory([seg]), xi)
        slow, slow_warned = _crossings_and_warnings(Trajectory([_sampled(seg)]), xi, 1, sampled_crossings)
        assert len(fast) <= 1
        _assert_same_crossings(fast, slow)
        assert fast_warned == slow_warned

    def test_multi_segment_junctions(self):
        segs = [ScalarAffineSegment(0.0, 1.0, 0.4, 0.0, 0.0)]
        # jump above at t=1, then decay toward 0.2 through 0.5
        segs.append(ScalarAffineSegment(1.0, 2.0, 0.7, -1.0, 0.2))
        # continue from the end state, rising toward 1 through 0.5
        segs.append(ScalarAffineSegment(2.0, 4.0, segs[-1].value(segs[-1].t1)[0], -2.0, 2.0))
        # jump onto the threshold itself, then rise off it at once
        segs.append(ScalarAffineSegment(4.0, 5.0, 0.5, 0.0, 1.0))
        # continue from the end state, ramping down through 0.5
        segs.append(ScalarAffineSegment(5.0, 6.0, segs[-1].value(segs[-1].t1)[0], 0.0, -2.0))
        fast = find_crossings(Trajectory(segs), 0.5)
        slow = sampled_crossings(Trajectory([_sampled(s) for s in segs]), 0.5)
        _assert_same_crossings(fast, slow)
        x2 = 0.2 + 0.5 * math.exp(-1.0)
        want = [
            (1.0, True),
            (1.0 + math.log(0.5 / 0.3), False),
            (2.0 + 0.5 * math.log((1.0 - x2) / 0.5), True),
            (4.0, False),
            (4.0, True),
            (5.5, False),
        ]
        _assert_same_crossings(fast, want)


def _entry(hi):
    """0 or a magnitude in [0.01, hi]: a state or coefficient far below the
    others would sit inside the rounding of the closed form's terms."""
    return st.one_of(st.just(0.0), st.floats(0.01, hi), st.floats(-hi, -0.01))


# (a, b) of a 2-state network with a real spectrum
_REAL_NETWORKS = st.one_of(
    # generic: an off-diagonal product q r >= 0 keeps the spectrum real
    st.tuples(
        _entry(5.0), _entry(5.0), _entry(3.0), st.floats(0.01, 3.0), _entry(3.0), _entry(3.0)
    ).map(lambda p: ([[p[0], p[2]], [math.copysign(p[3], p[2]), p[1]]], [p[4], p[5]])),
    # a zero eigenvalue: x1 is frozen and drives x2, as in the NOR's (1,1) network
    st.tuples(_entry(3.0), st.floats(0.1, 5.0), _entry(3.0)).map(
        lambda p: ([[0.0, 0.0], [p[0], -p[1]]], [0.0, p[2]])
    ),
    # a repeated eigenvalue, as in the NOR's (0,1) network with k1 = g4
    st.tuples(st.floats(0.1, 5.0), _entry(3.0), _entry(3.0)).map(
        lambda p: ([[-p[0], 0.0], [0.0, -p[0]]], [p[1], p[2]])
    ),
)
_STATES = st.tuples(_entry(2.0), _entry(2.0))


@st.composite
def _with_extremum(draw):
    """(segment, component, t_star): a 2-state segment whose component has an
    interior extremum at t_star, built from its eigenvalues, eigenvectors
    (columns (1, q) and (p, 1)), equilibrium and one term's coefficient."""
    lam1 = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    lam2 = -draw(st.floats(0.1, 3.0))
    assume(abs(lam1 - lam2) > 0.05)
    p = draw(st.floats(0.2, 0.8)) * draw(st.sampled_from([-1.0, 1.0]))
    q = draw(st.floats(0.2, 0.8)) * draw(st.sampled_from([-1.0, 1.0]))
    vecs = np.array([[1.0, p], [q, 1.0]])
    x_eq = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
    k = draw(st.sampled_from([1, 2]))
    # the extremum sits at s_star, where c1 lam1 e^{lam1 s} + c2 lam2 e^{lam2 s} = 0
    s_star = draw(st.floats(0.05, 1.0)) * min(5.0, 4.0 / abs(lam1 - lam2))
    c1 = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    c2 = -c1 * lam1 / lam2 * math.exp((lam1 - lam2) * s_star)
    d = np.array([c1, c2]) / vecs[k - 1]  # eigenbasis coordinates of x0 - x_eq
    a = vecs @ np.diag([lam1, lam2]) @ np.linalg.inv(vecs)
    t0 = draw(st.floats(0.0, 5.0))
    span = s_star + draw(st.floats(0.1, 5.0))
    seg = AffineSegment(t0, t0 + span, x_eq + vecs @ d, a, -a @ x_eq)
    t_star = _extremum(seg, k)
    assume(t_star is not None)
    return seg, k, t_star


def _extremum(seg, k):
    """Interior zero of d x_k/dt = (a x + b)_k, found from the values alone."""
    slope = lambda t: float((seg.kind.a @ seg.value(t) + seg.kind.b)[k - 1])  # noqa: E731
    lo, hi = slope(seg.t0), slope(seg.t1)
    if lo == 0.0 or hi == 0.0 or (lo > 0.0) == (hi > 0.0):
        return None
    return brentq(slope, seg.t0, seg.t1, xtol=1e-15)


def _rounding(seg, k):
    """How far the values of component k may round: 1e-15 of its terms."""
    return 1e-15 * term_scale(seg, k)


def _half_width(seg, k, t_star, depth):
    """Half the width of the parabola x_star + x''(t_star) (t - t_star)^2 / 2
    at ``depth`` from its vertex."""
    a, b = seg.kind.a, seg.kind.b
    curvature = abs(float((a @ (a @ seg.value(t_star) + b))[k - 1]))
    return math.sqrt(2.0 * depth / curvature)


def _assert_matches_sampled(seg, xi, k):
    """Same crossings as the sampled path, to the conditioning of each time:
    values that round by 1e-14 of the largest term move a crossing by that
    over the slope.  The on-threshold warnings are not compared: where the
    values round onto xi (a frozen component, an exp that underflows) the
    sampled path sees three samples on it and the piece ends may not."""
    fast, _ = _crossings_and_warnings(Trajectory([seg]), xi, k)
    slow, _ = _crossings_and_warnings(Trajectory([_sampled(seg)]), xi, k, sampled_crossings)
    assert [rising for _, rising in fast] == [rising for _, rising in slow]
    scale = term_scale(seg, k)
    for (t_fast, _), (t_slow, _) in zip(fast, slow):
        slope = abs(float((seg.kind.a @ seg.value(t_fast) + seg.kind.b)[k - 1]))
        assert abs(t_fast - t_slow) <= 1e-12 + 1e-14 * scale / max(slope, 1e-300)
    return fast


class TestExponentialSumAgainstSampledPath:
    """2-state affine segments with a real spectrum: c + p e^{l1 s} + q e^{l2 s}
    split at its extremum, a bracketed root per monotone piece."""

    @settings(max_examples=300, deadline=None)
    @given(
        net=_REAL_NETWORKS,
        x0=_STATES,
        k=st.sampled_from([1, 2]),
        at=st.floats(0.0, 1.0),
        offset=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
        t0=st.floats(0.0, 10.0),
        span=st.floats(0.1, 10.0),
    )
    def test_single_segment(self, net, x0, k, at, offset, t0, span):
        a, b = net
        seg = AffineSegment(t0, t0 + span, x0, a, b)
        xi = float(seg.value(t0 + at * span)[k - 1]) + offset
        if not np.any(np.asarray(a) @ x0 + b):
            # at rest, so no edge (and a plateau warning when xi is the
            # resting value); the sampled path would read the terms'
            # rounding as edges there
            assert _crossings_and_warnings(Trajectory([seg]), xi, k)[0] == []
            return
        t_star = _extremum(seg, k)
        # the sampled grid resolves a dip of the extremum past xi only when
        # it is not too shallow
        assume(t_star is None or abs(seg.value(t_star)[k - 1] - xi) > 1e-3)
        assert len(_assert_matches_sampled(seg, xi, k)) <= 2

    @settings(max_examples=200, deadline=None)
    @given(seg_k_star=_with_extremum(), depth=st.floats(0.05, 0.95))
    def test_two_crossings_around_the_extremum(self, seg_k_star, depth):
        seg, k, t_star = seg_k_star
        x_star = float(seg.value(t_star)[k - 1])
        ends = seg.values([seg.t0, seg.t1])[:, k - 1]
        near = ends[np.argmin(np.abs(ends - x_star))]  # the end nearer the extremum
        assume(abs(x_star - near) > 1e-2)
        xi = x_star + depth * (near - x_star)  # strictly between: two crossings
        # the sampled path sees the pulse only if its grid does
        span = seg.t1 - seg.t0
        assume(2.0 * _half_width(seg, k, t_star, abs(x_star - xi)) > 3.0 * span / 63)
        fast = _assert_matches_sampled(seg, xi, k)
        assert len(fast) == 2
        assert fast[0][0] < t_star < fast[1][0]

    @settings(max_examples=200, deadline=None)
    @given(
        seg_k_star=_with_extremum(),
        offset=st.floats(1e-12, 1e-9),
        side=st.sampled_from([-1.0, 1.0]),
    )
    def test_tangency_within_1e9_of_the_threshold(self, seg_k_star, offset, side):
        # the sampled path can miss a dip this shallow, so the oracle is the
        # value at the extremum
        seg, k, t_star = seg_k_star
        x_star = float(seg.value(t_star)[k - 1])
        ends = seg.values([seg.t0, seg.t1])[:, k - 1]
        assume(np.min(np.abs(ends - x_star)) > 1e-6)
        xi = x_star + side * offset
        got = find_crossings(Trajectory([seg]), xi, component=k)
        pred_ends = bool(ends[0] > xi)
        if (x_star > xi) == pred_ends:  # the extremum stays on the ends' side
            assert got == []
        else:  # it pokes through: out and back, around t_star
            assert [rising for _, rising in got] == [not pred_ends, pred_ends]
            assert got[0][0] < t_star < got[1][0]
            # as wide as the parabola is at the offset, to the rounding of
            # the terms against the offset
            width = 2.0 * _half_width(seg, k, t_star, abs(x_star - xi))
            rounding = _rounding(seg, k) / abs(x_star - xi)
            assert got[1][0] - got[0][0] == pytest.approx(width, rel=1e-2 + rounding)

    @settings(max_examples=100, deadline=None)
    @given(seg_k_star=_with_extremum())
    def test_double_root_is_at_most_a_glitch_at_the_extremum(self, seg_k_star):
        # xi is the extremum value itself: a root of multiplicity two, which
        # rounding resolves into no edge or an out-and-back pair at t_star
        seg, k, t_star = seg_k_star
        xi = float(seg.value(t_star)[k - 1])
        ends = seg.values([seg.t0, seg.t1])[:, k - 1]
        assume(np.min(np.abs(ends - xi)) > 1e-6)
        got = find_crossings(Trajectory([seg]), xi, component=k)
        assert len(got) in (0, 2)
        if got:
            assert got[0][1] != got[1][1]
            reach = 2.0 * _half_width(seg, k, t_star, _rounding(seg, k)) + 1e-12
            assert abs(got[0][0] - t_star) <= reach and abs(got[1][0] - t_star) <= reach

    def test_complex_spectrum_is_never_sampled(self):
        # a damped rotation, x1 = e^{-t/10} cos t, which turns every pi
        a, b, box = [[-0.1, -1.0], [1.0, -0.1]], [0.0, 0.0], StateSpace(((-2.0, 2.0),) * 2)
        seg = AffineSegment(0.0, 10.0, [1.0, 0.0], a, b)
        slow = sampled_crossings(Trajectory([_sampled(seg)]), 0.5)
        seg = solve_mode(affine_mode("rotate", a, b, box), [1.0, 0.0], 0.0, 10.0, box)
        assert len(seg.pieces(1)[0]) == 5  # t0, three turns, t1
        got = find_crossings(Trajectory([seg]), 0.5)
        assert len(got) == 3
        _assert_same_crossings(got, slow)
        for t, _ in got:
            assert math.exp(-t / 10.0) * math.cos(t) == pytest.approx(0.5, abs=1e-13)


_ONE_SEGMENT = {
    "scalar_affine": ScalarAffineSegment(0.0, 5.0, 0.0, -1.0, 1.0),
    "relaxation": RelaxationSegment(0.0, 5.0, 1.0, 0.0, lambda t: (t * t, 2.0 * t)),
    "affine_real": AffineSegment(0.0, 5.0, [1.0, 0.0], [[-1.0, 1.0], [1.0, -2.0]], [0.0, 0.5]),
    "affine_repeated": AffineSegment(0.0, 5.0, [0.25, 0.75], [[-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0]),
    "affine_complex": AffineSegment(0.0, 10.0, [1.0, 0.0], [[-0.1, -1.0], [1.0, -0.1]], [0.0, 0.0]),
    "affine_quadratic": AffineSegment(0.0, 3.0, [0.6, -1.0], [[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0]),
    "function": FunctionSegment(0.0, 6.0, np.sin),
}


class TestCrossingInput:
    """``find_crossings`` reads any iterable of segments; a circuit run hands
    it the live segment in a tuple, with no ``Trajectory`` around it."""

    @pytest.mark.parametrize("kind", sorted(_ONE_SEGMENT))
    def test_a_segment_in_a_tuple_crosses_as_its_trajectory(self, kind):
        seg = _ONE_SEGMENT[kind]
        # the sampled reference reads its input as find_crossings does
        crossings = sampled_crossings if isinstance(seg, FunctionSegment) else find_crossings
        crossed = 0
        for k in range(1, seg.dimension + 1):
            for xi in (-0.3, 0.2, 0.5):
                got = crossings((seg,), xi, k)
                assert got == crossings(Trajectory([seg]), xi, k), (k, xi)
                crossed += len(got)
        assert crossed  # each kind crosses some level

    def test_a_junction_crosses_once_from_a_tuple(self):
        lo = ScalarAffineSegment(0.0, 1.0, 0.4, 0.0, 0.0)
        hi = ScalarAffineSegment(1.0, 2.0, 0.7, 0.0, 0.0)
        assert find_crossings((lo, hi), 0.5) == find_crossings(Trajectory([lo, hi]), 0.5) == [(1.0, True)]

    @given(
        pieces=st.lists(
            st.tuples(
                st.floats(0.01, 2.0),  # span
                st.floats(0.0, 1.0),  # x0
                st.sampled_from([-3.0, -1.0, 0.0, 1.0]),  # a
                st.floats(-1.0, 1.0),  # b
            ),
            min_size=1,
            max_size=6,
        ),
        xi=st.sampled_from([0.0, 0.25, 0.5]),
    )
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:trajectory runs exactly on the threshold")
    def test_crossings_alternate_across_junctions(self, pieces, xi):
        # each pair flips the predicate it follows, junction pairs included,
        # so no edge can be reported twice
        segments, t = [], 0.0
        for span, x0, a, b in pieces:
            segments.append(ScalarAffineSegment(t, t + span, x0, a, b))
            t += span
        got = find_crossings(segments, xi)
        start = segments[0].x0 > xi
        assert [rising for _, rising in got] == [not start if i % 2 == 0 else start for i in range(len(got))]
        assert [t for t, _ in got] == sorted(t for t, _ in got)


class TestTangentialAndDegenerate:
    def test_touch_from_above_keeps_high(self):
        # parabola grazes the threshold at one instant; predicate never flips
        # on any sample that misses the exact tangency point
        fn = lambda t: 0.5 + (t - 1.0) ** 2 + 1e-9
        sig = _sampled_digitize(_wave_traj(fn, 2.0), ThresholdSpec(0.5))
        assert sig.initial_value == 1
        assert sig.times == ()

    def test_touch_from_below_stays_low(self):
        fn = lambda t: 0.5 - (t - 1.0) ** 2
        sig = _sampled_digitize(_wave_traj(fn, 2.0), ThresholdSpec(0.5))
        assert sig.initial_value == 0
        assert sig.times == ()

    def test_jump_at_segment_junction_is_pinned_to_junction(self):
        lo = ScalarAffineSegment(0.0, 1.0, 0.4, 0.0, 0.0)
        hi = ScalarAffineSegment(1.0, 2.0, 0.7, 0.0, 0.0)
        got = find_crossings(Trajectory([lo, hi]), 0.5)
        assert got == [(1.0, True)]

    def test_underflow_onto_the_asymptote_is_not_an_edge(self):
        # e^{-t} never reaches 0, although exp underflows to it at t ~ 745;
        # 0.5 + 0.5 e^{-t} rounds onto 0.5 from t ~ 37.
        assert find_crossings(_affine_traj(-1.0, 0.0, 1.0, 1000.0), 0.0) == []
        assert find_crossings(_affine_traj(-1.0, 0.5, 1.0, 1000.0), 0.5) == []

    def test_component_selection(self):
        fn = lambda t: np.stack([np.zeros_like(t), np.exp(-t)], axis=1)
        traj = _wave_traj(fn, 3.0)
        assert sampled_crossings(traj, 0.5, component=1) == []
        falls = sampled_crossings(traj, 0.5, component=2)
        assert len(falls) == 1
        assert falls[0][0] == pytest.approx(math.log(2.0), abs=1e-11)


class TestContinuityTrend:
    def test_output_distance_shrinks_with_perturbation(self):
        # small sup-norm perturbations of the trajectory produce small
        # one-norm changes in the digitized output
        from hybridgates.signals import one_norm_distance

        base = _affine_traj(-1.0, 0.0, 1.0, 5.0)
        ref = digitize(base, ThresholdSpec(0.5))
        dists = []
        for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            fn = lambda t, d=delta: np.exp(-t) + d * np.sin(1.3 * t)
            out = _sampled_digitize(_wave_traj(fn, 5.0), ThresholdSpec(0.5))
            dists.append(one_norm_distance(ref, out))
        assert all(a >= b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-4
