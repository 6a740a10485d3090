"""Threshold digitization tests with closed-form and brute-force oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgates.modes import (
    AffineSegment,
    FunctionSegment,
    SolverConfig,
    StateSpace,
    Trajectory,
    affine_mode,
    solve_mode,
)
from hybridgates.threshold import (
    CrossingCapExceeded,
    ThresholdSpec,
    digitize,
    find_crossings,
)

BOX = StateSpace(((-100.0, 100.0),))


def _affine_traj(a, b, x0, t1):
    mode = affine_mode("m", [[a]], [b], BOX)
    return Trajectory([solve_mode(mode, [x0], 0.0, t1, BOX)])


def _wave_traj(fn, t1):
    return Trajectory([FunctionSegment(0.0, t1, fn)])


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
        traj = Trajectory([AffineSegment(1.0, 2.0, [0.0], [[0.0]], [0.0])])
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
        sig = digitize(_wave_traj(np.sin, 2.0 * math.pi), ThresholdSpec(0.5))
        assert sig.initial_value == 0
        assert len(sig.times) == 2
        assert sig.times[0] == pytest.approx(math.pi / 6.0, abs=1e-11)
        assert sig.times[1] == pytest.approx(5.0 * math.pi / 6.0, abs=1e-11)

    def test_numeric_solution_matches_closed_form_crossing(self):
        from hybridgates.modes import GeneralNumeric, ModeFunction

        mode = affine_mode("heat", [[-0.1]], [5.0], BOX)
        numeric = ModeFunction(
            "heat_num", mode.rhs, GeneralNumeric(), mode.lipschitz_k, mode.rhs_bound_m
        )
        config = SolverConfig(rel_tol=1e-11, abs_tol=1e-13)
        traj = Trajectory([solve_mode(numeric, [0.0], 0.0, 20.0, BOX, config)])
        sig = digitize(traj, ThresholdSpec(19.0), config)
        assert len(sig.times) == 1
        assert sig.times[0] == pytest.approx(10.0 * math.log(50.0 / 31.0), abs=1e-7)


def _grid_oracle_crossings(fn, xi, t1, n=1_000_001):
    """Brute-force crossing locator on a uniform grid (accuracy ~ t1/n)."""
    ts = np.linspace(0.0, t1, n)
    pred = fn(ts) > xi
    flips = np.nonzero(pred[:-1] != pred[1:])[0]
    return [(0.5 * (ts[i] + ts[i + 1]), bool(pred[i + 1])) for i in flips]


class TestAgainstBruteForceGrid:
    def test_damped_sine_matches_fine_grid(self):
        fn = lambda t: np.exp(-0.3 * t) * np.sin(3.0 * t)
        got = find_crossings(_wave_traj(fn, 6.0), 0.2)
        want = _grid_oracle_crossings(fn, 0.2, 6.0)
        assert len(got) == len(want) == 6
        for (tg, rg), (tw, rw) in zip(got, want):
            assert rg == rw
            assert tg == pytest.approx(tw, abs=1e-5)

    def test_probe_count_does_not_change_result(self):
        fn = lambda t: np.exp(-0.3 * t) * np.sin(3.0 * t)
        traj = _wave_traj(fn, 6.0)
        runs = [
            find_crossings(traj, 0.2, config=SolverConfig(probe_points=p))
            for p in (47, 64, 128)
        ]
        assert all(len(r) == len(runs[0]) for r in runs)
        for other in runs[1:]:
            for (ta, ra), (tb, rb) in zip(runs[0], other):
                assert ra == rb
                assert ta == pytest.approx(tb, abs=1e-9)


def _sampled(segment):
    """The same values as a FunctionSegment, which takes the sampled path."""
    return FunctionSegment(segment.t0, segment.t1, segment.values)


def _crossings_and_warnings(traj, xi):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = find_crossings(traj, xi)
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
        seg = AffineSegment(t0, t0 + span, [xi + offset], [[a]], [b])
        fast, fast_warned = _crossings_and_warnings(Trajectory([seg]), xi)
        slow, slow_warned = _crossings_and_warnings(Trajectory([_sampled(seg)]), xi)
        assert len(fast) <= 1
        _assert_same_crossings(fast, slow)
        assert fast_warned == slow_warned

    def test_multi_segment_junctions(self):
        segs = [AffineSegment(0.0, 1.0, [0.4], [[0.0]], [0.0])]
        # jump above at t=1, then decay toward 0.2 through 0.5
        segs.append(AffineSegment(1.0, 2.0, [0.7], [[-1.0]], [0.2]))
        # continue from the end state, rising toward 1 through 0.5
        segs.append(AffineSegment(2.0, 4.0, segs[-1].end_state, [[-2.0]], [2.0]))
        # jump onto the threshold itself, then rise off it at once
        segs.append(AffineSegment(4.0, 5.0, [0.5], [[0.0]], [1.0]))
        # continue from the end state, ramping down through 0.5
        segs.append(AffineSegment(5.0, 6.0, segs[-1].end_state, [[0.0]], [-2.0]))
        fast = find_crossings(Trajectory(segs), 0.5)
        slow = find_crossings(Trajectory([_sampled(s) for s in segs]), 0.5)
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


class TestTangentialAndDegenerate:
    def test_touch_from_above_keeps_high(self):
        # parabola grazes the threshold at one instant; predicate never flips
        # on any sample that misses the exact tangency point
        fn = lambda t: 0.5 + (t - 1.0) ** 2 + 1e-9
        sig = digitize(_wave_traj(fn, 2.0), ThresholdSpec(0.5))
        assert sig.initial_value == 1
        assert sig.times == ()

    def test_touch_from_below_stays_low(self):
        fn = lambda t: 0.5 - (t - 1.0) ** 2
        sig = digitize(_wave_traj(fn, 2.0), ThresholdSpec(0.5))
        assert sig.initial_value == 0
        assert sig.times == ()

    def test_jump_at_segment_junction_is_pinned_to_junction(self):
        lo = AffineSegment(0.0, 1.0, [0.4], [[0.0]], [0.0])
        hi = AffineSegment(1.0, 2.0, [0.7], [[0.0]], [0.0])
        got = find_crossings(Trajectory([lo, hi]), 0.5)
        assert got == [(1.0, True)]

    def test_underflow_onto_the_asymptote_is_not_an_edge(self):
        # e^{-t} never reaches 0, although exp underflows to it at t ~ 745;
        # 0.5 + 0.5 e^{-t} rounds onto 0.5 from t ~ 37.
        assert find_crossings(_affine_traj(-1.0, 0.0, 1.0, 1000.0), 0.0) == []
        assert find_crossings(_affine_traj(-1.0, 0.5, 1.0, 1000.0), 0.5) == []

    def test_crossing_cap(self):
        fn = lambda t: np.sin(40.0 * t)
        with pytest.raises(CrossingCapExceeded):
            find_crossings(_wave_traj(fn, 20.0), 0.0, max_crossings=5)

    def test_component_selection(self):
        fn = lambda t: np.stack([np.zeros_like(t), np.exp(-t)], axis=1)
        traj = _wave_traj(fn, 3.0)
        assert find_crossings(traj, 0.5, component=1) == []
        falls = find_crossings(traj, 0.5, component=2)
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
            out = digitize(_wave_traj(fn, 5.0), ThresholdSpec(0.5))
            dists.append(one_norm_distance(ref, out))
        assert all(a >= b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-4
