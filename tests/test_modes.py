"""Mode solving: closed forms, invariant boxes, pasting, and the sup metric."""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

import hybridgates
from hybridgates.modes import (
    BOX_SLACK,
    AffineConstant,
    AffineSegment,
    ModeFunction,
    RelaxationSegment,
    ScalarAffineSegment,
    ScalarRelaxation,
    StateSpace,
    StateSpaceExit,
    Trajectory,
    affine_mode,
    matching_output_signal,
    solve_mode,
    sup_distance,
    write_trajectory_csv,
)
from hybridgates import modes
from hybridgates.gates import (
    AdvancedNorParams,
    _charging_exponent,
    make_advanced_nor,
    make_simple_nor,
    mis_delay_sweep,
)
from hybridgates.modes import _newton, _SegmentBase
from hybridgates.signals import ModeSwitchSignal
from hybridgates.threshold import find_crossings

from conftest import FunctionSegment, reference_component, term_scale

BOX = StateSpace(((-100.0, 100.0),))
PLANT_BOX = StateSpace(((-1.0, 51.0),))

# Heater-style plant: cooling dx = -0.1 x, heating dx = 5 - 0.1 x.
COOL = affine_mode("cool", [[-0.1]], [0.0], PLANT_BOX)
HEAT = affine_mode("heat", [[-0.1]], [5.0], PLANT_BOX)


# -- closed-form scalar segments ----------------------------------------------


def test_scalar_decay_closed_form():
    mode = affine_mode("decay", [[-1.0]], [0.0], BOX)
    seg = solve_mode(mode, [1.0], 0.0, 5.0, BOX)
    assert seg.value(2.0)[0] == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert seg.value(seg.t1)[0] == pytest.approx(math.exp(-5.0), rel=1e-12)


def test_heating_mode_matches_exponential_approach():
    # closed form: x(t) = 50 - (50 - x0) exp(-t/10)
    seg = solve_mode(HEAT, [20.0], 0.0, 10.0, PLANT_BOX)
    for t in (0.0, 0.5, 3.0, 10.0):
        expected = 50.0 - 30.0 * math.exp(-t / 10.0)
        assert seg.value(t)[0] == pytest.approx(expected, rel=1e-12)


def test_heating_from_19_reaches_21_at_log_ratio_time():
    t_cross = 10.0 * math.log(31.0 / 29.0)  # = 0.66712...
    seg = solve_mode(HEAT, [19.0], 0.0, 2.0, PLANT_BOX)
    assert seg.value(t_cross)[0] == pytest.approx(21.0, abs=1e-9)


def test_cooling_from_21_reaches_19_at_log_ratio_time():
    t_cross = 10.0 * math.log(21.0 / 19.0)  # = 1.00083...
    seg = solve_mode(COOL, [21.0], 0.0, 2.0, PLANT_BOX)
    assert seg.value(t_cross)[0] == pytest.approx(19.0, abs=1e-9)


def test_zero_rate_mode_is_linear_in_time():
    seg = ScalarAffineSegment(0.0, 3.0, 1.0, 0.0, 2.0)
    assert seg.value(1.5)[0] == pytest.approx(4.0, rel=1e-14)
    # a ramp keeps no box, so its mode is refused
    with pytest.raises(ValueError, match="through the face x1 = 100.000000000001$"):
        solve_mode(affine_mode("ramp", [[0.0]], [2.0], BOX), [1.0], 0.0, 3.0, BOX)


# -- the float segment of 1-state affine modes ------------------------------------

_rates = st.one_of(st.just(0.0), st.floats(-20.0, -0.05), st.floats(0.05, 5.0))
_levels = st.floats(-5.0, 5.0)
_spans = st.one_of(st.floats(1e-9, 1e-3), st.floats(0.1, 20.0))


@given(a=_rates, b=_levels, x0=_levels, t0=st.floats(0.0, 10.0), span=_spans, u=st.floats(0.0, 1.0))
def test_float_segment_evaluates_its_array_api_float_for_float(a, b, x0, t0, span, u):
    seg = ScalarAffineSegment(t0, t0 + span, x0, a, b)
    t = t0 + u * span
    assert seg.at(t) == seg.values([t])[0][0]
    assert seg.at(t0) == seg.values([t0, t])[0][0] == x0
    assert seg.state_at(t) == seg.at(t)


@given(
    a=_rates, b=_levels, x0=_levels, t0=st.floats(0.0, 10.0), span=_spans, u=st.floats(0.0, 1.0)
)
# xi = 3.1e-316 is met at t = 1.8e-316, both subnormal
@example(a=0.0, b=1.75, x0=0.0, t0=0.0, span=0.0007980157373336698, u=2.2250738585e-313)
def test_float_segment_meets_xi_inside_the_piece(a, b, x0, t0, span, u):
    seg = ScalarAffineSegment(t0, t0 + span, x0, a, b)
    lo, hi = seg.t0, seg.t1
    x_lo, x_hi = seg.at(lo), seg.at(hi)
    xi = x_lo + u * (x_hi - x_lo)
    assume(min(x_lo, x_hi) < xi < max(x_lo, x_hi))
    ts, xs, meet = seg.pieces(1)
    assert ts == (lo, hi) and xs == (x_lo, x_hi)
    t = meet(xi, lo, hi)
    assert lo <= t <= hi
    # the state is x_inf + (x0 - x_inf) e^{a (t - t0)}, and a time rounded
    # to its last bit moves it by its slope times that
    x_inf = seg.asymptote if a != 0.0 else 0.0
    slope = a * (xi - x_inf) if a != 0.0 else b
    scale = max(abs(x0), abs(xi), abs(x_inf)) + abs(slope) * abs(t)
    # below the normal range floats are ulp(0) apart, so each rounding of
    # the state, and of the time times the slope, is off by up to ulp(0)/2
    # there rather than by eps of the magnitude
    underflow = 8.0 * math.ulp(0.0) * (1.0 + abs(slope))
    assert abs(seg.at(t) - xi) <= 8.0 * np.finfo(float).eps * scale + underflow


@given(a=st.floats(-20.0, -0.05), b=_levels, offset=st.floats(-5.0, 5.0).filter(bool))
def test_float_segment_never_crosses_its_asymptote(a, b, offset):
    xi = -b / a
    seg = ScalarAffineSegment(0.0, 800.0 / -a, xi + offset, a, b)
    assume(seg.x0 != xi)
    assert seg.asymptote == xi
    assert seg.at(seg.t1) == xi  # exp underflows: the end value lands on xi
    assert find_crossings(Trajectory([seg]), xi) == []


def test_a_scalar_segment_resting_on_an_unstable_equilibrium_stays_there():
    # x_inf = -b/a = x0 = 2: (x0 - x_inf) e^{a s} is 0 * inf once exp overflows
    seg = ScalarAffineSegment(0, 1000, 2.0, a=1.0, b=-2.0)
    assert seg.at(1000.0) == 2.0
    assert seg.x1 == seg.state_at(1000.0) == 2.0
    assert find_crossings([seg], 1.0) == []
    # every other start leaves, so the mode is refused
    with pytest.raises(ValueError, match="not invariant"):
        solve_mode(affine_mode("unstable", [[1.0]], [-2.0], BOX), 2.0, 0.0, 1000.0, BOX)


@pytest.mark.parametrize(
    "a,b",
    [
        ([[1.0, 0.0], [0.0, 2.0]], [-1.0, -2.0]),
        ([[1.0, 1.0], [0.0, 1.0]], [-2.0, -1.0]),
        ([[1.0, -1.0], [1.0, 1.0]], [0.0, -2.0]),
    ],
    ids=["real", "repeated", "complex"],
)
def test_a_plane_segment_resting_on_an_unstable_equilibrium_stays_there(a, b):
    # c = (1, 1) = x0, so every coefficient is 0 and each exp overflows
    seg = AffineSegment(0, 1000, (1.0, 1.0), a, b)
    assert seg.x1 == seg.state_at(1000.0) == (1.0, 1.0)
    # meet's excess: each constant less xi = 0.5, and a zero slope
    assert seg._at(1000.0, 0.5, 0.5, seg._exp) == (0.5, 0.5, 0.0, 0.0)
    # every other start leaves, so the mode is refused
    box = StateSpace(((0.0, 2.0), (0.0, 2.0)))
    with pytest.raises(ValueError, match="not invariant"):
        solve_mode(affine_mode("unstable", a, b, box), (1.0, 1.0), 0.0, 1000.0, box)


def test_a_plane_segment_whose_exp_overflows_reads_inf_and_crosses_once():
    # x1 = 0.1 e^s and x2 = 0.1 e^{2s}: each component has one exp term and a
    # zero coefficient on the other, which overflows too
    seg = AffineSegment(0, 1000, (0.1, 0.1), [[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0])
    assert seg.x1 == (math.inf, math.inf)
    assert seg.pieces(1)[1] == (0.1, math.inf)
    # one rising crossing at ln 5, as the 1-state x1 = 0.1 e^s has
    for found in (find_crossings((seg,), 0.5, 1), find_crossings((ScalarAffineSegment(0, 1000, 0.1, 1, 0),), 0.5)):
        [(t, rising)] = found
        assert rising and abs(t - math.log(5.0)) <= 1e-13


def test_a_plane_segment_read_outside_its_span_reads_inf_past_the_floats():
    # no exp overflows on [0, 1], so the segment reads there with math.exp;
    # Trajectory.value reads a time past the horizon, or before t0, by the
    # segment at that end, where each exp overflows
    grows = Trajectory([AffineSegment(0, 1, (0.1, 0.1), [[1.0, 0.0], [0.0, 2.0]], [0.0, 0.0])])
    assert grows.value(400.0) == (0.1 * math.exp(400.0), math.inf)
    assert grows.value(5000.0) == (math.inf, math.inf)
    decays = Trajectory([AffineSegment(0, 1, (0.1, 0.1), [[-1.0, 0.0], [0.0, -2.0]], [0.0, 0.0])])
    assert decays.value(-1000.0) == (math.inf, math.inf)


def test_a_plane_mode_entry_reads_its_end_state_once(monkeypatch):
    # the crossing search reads the end state that the segment read when
    # it was built; every evaluation goes through _at, and a state read
    # passes the segment's own constants (meet's pass them less xi)
    calls, times = [], []
    at, state_at = AffineSegment._at, AffineSegment.state_at

    def read(self, t, c1, c2, exp):
        if (c1, c2) == self._c:
            times.append(t)
        return at(self, t, c1, c2, exp)

    monkeypatch.setattr(AffineSegment, "_at", read)
    monkeypatch.setattr(AffineSegment, "state_at", lambda self, t: calls.append(t) or state_at(self, t))
    gate = make_simple_nor(initial_inputs=(1, 1))
    for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        calls.clear(), times.clear()
        seg = solve_mode(gate.choice(bits, None, None), (0.3, 0.4), 0.0, 28.0, gate.state_space)
        find_crossings((seg,), gate.threshold.xi, gate.threshold.component)
        assert calls == [28.0] and times.count(28.0) == 1


def test_a_one_state_affine_segment_is_refused():
    with pytest.raises(ValueError, match="ScalarAffineSegment"):
        AffineSegment(0.0, 1.0, [0.5], [[-1.0]], [0.0])


_WIDE_PLANE = StateSpace(((-1e300, 1e300),) * 2)


@given(a=_rates, b=_levels, x0=st.floats(-50.0, 50.0), span=_spans)
def test_solve_mode_takes_a_float_or_a_sequence_alike(a, b, x0, span):
    mode = affine_mode("m", [[a]], [b], BOX)
    forms = (x0, np.float64(x0), np.array(x0), (x0,), np.array([x0]))
    try:
        want = solve_mode(mode, [x0], 1.0, 1.0 + span, BOX)
    except ValueError as exc:  # a mode that points out of BOX, refused from every form
        for form in forms:
            with pytest.raises(ValueError) as got:
                solve_mode(mode, form, 1.0, 1.0 + span, BOX)
            assert str(got.value) == str(exc)
        return
    fields = lambda s: (s.t0, s.t1, s.x0, s.a, s.b)  # noqa: E731
    for form in forms:
        got = solve_mode(mode, form, 1.0, 1.0 + span, BOX)
        assert type(got) is type(want) is ScalarAffineSegment
        assert fields(got) == fields(want)
        assert type(got.state_at(got.t1)) is float
    # a 2-state mode carries a tuple of the floats its values read
    plane = affine_mode("p", [[-abs(a) - 1.0, 0.5], [0.5, -abs(a) - 2.0]], [b, -b], _WIDE_PLANE)
    for form in ((x0, -x0), [x0, -x0], np.array([x0, -x0])):
        seg = solve_mode(plane, form, 1.0, 1.0 + span, _WIDE_PLANE)
        for t in (seg.t0, (seg.t0 + seg.t1) / 2, seg.t1):
            state = seg.state_at(t)
            assert type(state) is tuple and [type(v) for v in state] == [float, float]
            assert [v.hex() for v in state] == [v.hex() for v in seg.values([t])[0]]


def test_solve_mode_takes_an_int_and_names_a_wrong_dimension():
    mode = affine_mode("m", [[-1.0]], [0.5], BOX)
    assert solve_mode(mode, 3, 0.0, 1.0, BOX).x0 == 3.0
    plane = affine_mode("p", [[-1.0, 0.0], [0.0, -2.0]], [0.0, 0.0], _PLANE)
    assert solve_mode(plane, [1, 2], 0.0, 1.0, _PLANE).x0 == (1.0, 2.0)
    wrong = ((mode, [1.0, 2.0], BOX, 2, 1), (plane, 1.0, _PLANE, 1, 2), (plane, [1.0], _PLANE, 1, 2))
    for m, x0, space, k, n in wrong:
        with pytest.raises(ValueError) as exc:
            solve_mode(m, x0, 0.0, 1.0, space)
        assert str(exc.value) == f"state dimension {k} != space dimension {n}"


# -- matrix closed forms ---------------------------------------------------------


def test_planar_affine_matches_matrix_exponential_oracle():
    from scipy.linalg import expm

    a = np.array([[-1.0, 1.0], [1.0, -2.0]])
    b = np.array([0.3, 0.1])
    x0 = np.array([0.2, 0.9])
    seg = AffineSegment(0.0, 4.0, x0, a, b)
    for t in (0.1, 1.0, 2.5, 4.0):
        aug = np.zeros((3, 3))
        aug[:2, :2] = a
        aug[:2, 2] = b
        expected = (expm(aug * t) @ np.array([*x0, 1.0]))[:2]
        assert np.allclose(seg.value(t), expected, rtol=1e-10, atol=1e-12)


def test_nilpotent_matrix_with_b_outside_its_range_is_quadratic():
    # dx1 = x2, dx2 = 1: a is nilpotent and b is not in its range
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([0.0, 1.0])
    seg = AffineSegment(0.0, 4.0, [0.0, 0.0], a, b)
    assert seg.kind.plane.form == "quadratic"
    assert seg.value(2.0) == pytest.approx([2.0, 2.0], rel=1e-12)  # x1 = t^2/2
    assert seg.value(4.0) == pytest.approx([8.0, 4.0], rel=1e-12)


@pytest.mark.parametrize(
    "a,b,x0",
    [
        ([[-0.1]], [5.0], [15.559676186291409]),  # 50 + (x0 - 50) rounds to x0 + 3e-15
        ([[-1.0, 1.0], [1.0, -2.0]], [0.3, 0.1], [0.2, 0.9]),  # eigendecomposition
        ([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [0.1, 0.7]),  # matrix exponential
    ],
)
def test_closed_form_reads_its_start_state_exactly(a, b, x0):
    if len(x0) == 1:
        seg = ScalarAffineSegment(1.5, 4.0, x0[0], a[0][0], b[0])
    else:
        seg = AffineSegment(1.5, 4.0, x0, a, b)
    assert np.array_equal(seg.value(1.5), x0)
    assert np.array_equal(seg.values([1.5, 4.0])[0], x0)


def test_a_mode_decomposes_once_for_all_its_segments(monkeypatch):
    # the equilibrium is (0.7, 0.4), and a box around it with half-widths
    # between h2 and 2 h2 is invariant
    box = StateSpace(((-0.8, 2.2), (-0.6, 1.4)))
    mode = affine_mode("planar", [[-1.0, 1.0], [1.0, -2.0]], [0.3, 0.1], box)
    calls = []

    class Counted(modes._Plane):
        def __init__(self, a, b):
            calls.append(a)
            super().__init__(a, b)

    monkeypatch.setattr(modes, "_Plane", Counted)
    seg = solve_mode(mode, [0.2, 0.9], 0.0, 4.0, box)
    shorter = solve_mode(mode, [0.2, 0.9], 0.0, 2.0, box)
    assert calls == [] and seg.kind is shorter.kind is mode.kind
    rebuilt = AffineSegment(0.0, 4.0, [0.2, 0.9], mode.kind.a, mode.kind.b)
    assert len(calls) == 1  # a directly built segment derives its own constants
    ts = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(shorter.values(ts), rebuilt.values(ts))
    assert np.array_equal(shorter.values(ts), seg.values(ts))


def test_exponential_terms_merge_zero_and_repeated_eigenvalues():
    # the simple NOR's (0,1) network with k1 = g4 = 1: x1 -> 1 and x2 -> 0
    # at the same rate, so each component is one exponential
    seg = AffineSegment(0.0, 5.0, [0.25, 0.75], [[-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0])
    plane = seg.kind.plane
    assert (plane.form, plane.rates, plane.c) == ("repeated", (-1.0,), (1.0, 0.0))
    assert seg._pq == (-0.75, 0.0, 0.75, 0.0)  # (p1, q1, p2, q2) of c + e^{-s} (p + q s)
    assert seg.pieces(1)[0] == seg.pieces(2)[0] == (0.0, 5.0)
    # the (1,1) network: x1 is frozen, so its zero eigenvalue joins the constant
    seg = AffineSegment(0.0, 5.0, [0.25, 0.75], [[0.0, 0.0], [0.0, -2.0]], [0.0, 0.0])
    plane = seg.kind.plane
    assert (plane.form, plane.rates[:2]) == ("real", (-2.0, 0.0))
    assert plane.c == plane.m == (0.0, 0.0)
    assert seg._pq == (0.0, 0.25, 0.75, 0.0)  # c + m s + p e^{-2s} + q
    ts = np.linspace(0.0, 5.0, 11)
    assert np.array_equal(np.array(seg.values(ts))[:, 0], np.full(11, 0.25))
    assert np.array(seg.values(ts))[1:, 1].tolist() == [0.75 * math.exp(-2.0 * t) for t in ts[1:]]
    # complex and defective segments have forms of their own
    for x0, a, b, form in [
        ([1.0, 0.0], [[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0], "complex"),
        ([0.0, 0.0], [[-1.0, 1.0], [0.0, -1.0]], [0.0, 1.0], "repeated"),
        ([0.0, 0.0], [[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], "quadratic"),
    ]:
        assert AffineSegment(0.0, 1.0, x0, a, b).kind.plane.form == form


def _dyadic():
    """Quarters in [-2, 2]: their products are exact, so a matrix built from
    them can be exactly singular or nilpotent."""
    return st.integers(-8, 8).map(lambda n: n / 4.0)


_entries = st.floats(-3.0, 3.0)
_MATRICES = st.one_of(
    # generic: real distinct or complex eigenvalues
    st.lists(_entries, min_size=4, max_size=4).map(lambda v: [v[:2], v[2:]]),
    # a complex pair
    st.tuples(_entries, st.floats(0.05, 3.0), st.floats(0.05, 3.0)).map(
        lambda p: [[p[0], -p[1]], [p[2], p[0]]]
    ),
    # a repeated eigenvalue: scalar, or defective either way
    st.tuples(_entries, _entries, st.booleans()).map(
        lambda p: [[p[0], p[1]], [0.0, p[0]]] if p[2] else [[p[0], 0.0], [p[1], p[0]]]
    ),
    # singular: rank one
    st.tuples(_dyadic(), _dyadic(), _dyadic()).map(
        lambda p: [[p[0], p[2] * p[0]], [p[1], p[2] * p[1]]]
    ),
    # nilpotent
    st.tuples(_dyadic(), _dyadic()).map(
        lambda p: [[p[0] * p[1], -p[0] * p[0]], [p[1] * p[1], -p[0] * p[1]]]
    ),
)


@st.composite
def _affine_cases(draw):
    """(a, b, x0), with b sometimes in the range of a (a multiple of a
    column, exact for the dyadic matrices) and sometimes anywhere."""
    a = np.array(draw(_MATRICES))
    if draw(st.booleans()):
        b = draw(_dyadic()) * a[:, draw(st.sampled_from([0, 1]))]
    else:
        b = np.array([draw(_entries), draw(_entries)])
    return a, b, np.array([draw(_entries), draw(_entries)])


@settings(max_examples=400, deadline=None)
@given(case=_affine_cases(), span=st.floats(0.1, 5.0))
# spectra whose disc, and det(a) or a12 a21, are subnormal floats
@example(case=(np.diag([0.0, 1.55149271e-161]), np.zeros(2), np.array([0.0, 1.0])), span=1.0)
@example(case=(np.array([[0.0, 4.678067e-157], [4.678067e-157, 0.0]]), np.array([0.0, 1.0]), np.zeros(2)), span=1.0)
def test_two_state_closed_form_matches_a_tight_integrator(case, span):
    # every spectrum: real, repeated (scalar and defective), complex,
    # singular with b inside and outside the range of a, and nilpotent
    a, b, x0 = case
    seg = AffineSegment(1.0, 1.0 + span, x0, a, b)
    ts = np.linspace(1.0, 1.0 + span, 11)
    ref = solve_ivp(
        lambda t, x: a @ x + b, (1.0, 1.0 + span), x0, method="DOP853",
        rtol=1e-12, atol=1e-14, t_eval=ts,
    )
    # DOP853 squares its error estimate, which underflows to 0/0 on states
    # near 1e-160; such a draw has no reference
    assume(ref.success)
    got = np.array(seg.values(ts))
    assert np.array_equal(got[0], x0)
    for k in (1, 2):
        # the integrator's error, and the closed form's rounding of its terms
        tol = 1e-9 * np.maximum(1.0, np.abs(ref.y[k - 1])) + 1e-14 * term_scale(seg, k)
        assert np.all(np.abs(got[:, k - 1] - ref.y[k - 1]) <= tol)


@st.composite
def _plane_segments(draw):
    """2-state segments of every spectrum, some of them of zero span."""
    a, b, x0 = draw(_affine_cases())
    t0, span = draw(st.floats(-5.0, 5.0)), draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    return AffineSegment(t0, t0 + span, x0, a, b)


@settings(max_examples=300, deadline=None)
@given(seg=_plane_segments(), u=st.floats(0.0, 1.0))
# t == t0 reads x0
@example(seg=AffineSegment(1.0, 3.0, (0.25, -0.5), [[-1.0, 0.5], [0.25, -2.0]], [0.1, 0.0]), u=0.0)
# exps that overflow, each with a nonzero coefficient: real, repeated, complex
@example(seg=AffineSegment(0.0, 1000.0, (0.1, 0.2), [[1.0, 1.0], [1.0, 2.0]], [0.0, 0.0]), u=0.9)
@example(seg=AffineSegment(0.0, 1000.0, (0.1, 0.2), [[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0]), u=0.9)
@example(seg=AffineSegment(0.0, 1000.0, (0.1, 0.2), [[1.0, -1.0], [1.0, 1.0]], [0.0, 0.0]), u=0.9)
# the nor workload's bracket: the simple NOR's (0, 0) network charging V_out
@example(
    seg=AffineSegment(2.358242409585118, 28.0, (0.0, 0.0), [[-2.0, 1.0], [1.0, -1.0]], [1.0, 0.0]),
    u=0.5,
)
def test_two_state_states_are_each_components_own_closed_form(seg, u):
    # every reader of the segment sees the floats of each component's own
    # closed form: state_at, values and the values at every piece end
    def want(t):
        return [reference_component(seg, k, t).hex() for k in (1, 2)]

    t = seg.t0 + u * (seg.t1 - seg.t0)
    ts = [seg.t0, t, seg.t1, *np.linspace(seg.t0, seg.t1, 7).tolist()]
    assert [x.hex() for x in seg.x1] == want(seg.t1)
    for s in ts:
        assert [x.hex() for x in seg.state_at(s)] == want(s)
    assert [[x.hex() for x in row] for row in seg.values(ts)] == [want(s) for s in ts]
    for k in (1, 2):
        ends, xs, _ = seg.pieces(k)
        assert [x.hex() for x in xs] == [reference_component(seg, k, s).hex() for s in ends]


def test_a_three_state_affine_mode_is_refused():
    # only one and two states have a closed form, and the refusal names the mode
    a = [[-1.0, 0.5, 0.0], [0.2, -2.0, 0.3], [0.0, 0.4, -0.5]]
    b = [0.1, 0.0, 0.2]
    with pytest.raises(ValueError) as exc:
        affine_mode("three", a, b, StateSpace(((-5.0, 5.0),) * 3))
    assert str(exc.value) == f"mode 'three': affine mode a={a}, b={b} has 3 states; only 1 or 2 have a closed form"


def test_a_mode_of_any_other_kind_is_refused():
    class Numeric:
        pass

    with pytest.raises(ValueError) as exc:
        ModeFunction("heat", HEAT.rhs, Numeric(), 0.1, 5.1)
    assert str(exc.value) == "mode 'heat': a Numeric has no closed form; a mode is an AffineConstant or a ScalarRelaxation"


# -- Newton steps on 2-state pieces -------------------------------------------------


@st.composite
def _meet_cases(draw):
    """(segment, component, xi), with xi between the end values of one of
    the segment's pieces."""
    a, b, x0 = draw(_affine_cases())
    seg = AffineSegment(1.0, 1.0 + draw(st.floats(0.1, 5.0)), x0, a, b)
    k = draw(st.sampled_from([1, 2]))
    ts, xs, _ = seg.pieces(k)
    j = draw(st.integers(0, len(ts) - 2))
    return seg, k, xs[j] + draw(st.floats(0.0, 1.0)) * (xs[j + 1] - xs[j])


_EPS = sys.float_info.epsilon


def _terms_at(seg, k: int, t: float) -> float:
    """The magnitudes that the closed form of component ``k`` adds up at
    ``t``; its rounding there is relative to this."""
    plane, (p, q), s = seg.kind.plane, seg._pq[2 * k - 2 : 2 * k], t - seg.t0
    c = abs((seg.x0 if plane.form == "quadratic" else plane.c)[k - 1])
    if plane.form == "quadratic":
        return c + (abs(p) + abs(q) * s) * s
    if plane.form == "real":
        l1, l2, _ = plane.rates
        return c + abs(plane.m[k - 1]) * s + abs(p) * math.exp(l1 * s) + abs(q) * math.exp(l2 * s)
    return c + math.exp(plane.rates[0] * s) * (abs(p) + abs(q) * (s if plane.form == "repeated" else 1.0))


@settings(max_examples=300, deadline=None)
@given(case=_meet_cases())
# the nor workload's bracket: the simple NOR's (0, 0) network charging V_out
@example(case=(
    AffineSegment(2.358242409585118, 28.0, (0.0, 0.0), [[-2.0, 1.0], [1.0, -1.0]], [1.0, 0.0]), 2, 0.5
))
# the ends' values straddle xi, but rounding leaves both of meet's excesses below 0
@example(case=(
    AffineSegment(
        1.0, 1.852126641551222, (-2.920992050670755, 2.02481449257876),
        [[-1.5722122374486518, 0.26537535177571137], [-0.7802690007115247, 0.6235202315771669]],
        [0.7543218246483239, -2.6068268445611213],
    ),
    1, -0.16355789853759725,
))
# x1 = 0.5 + s + s^2/2 starts exactly on xi
@example(case=(AffineSegment(1.0, 3.0, (0.5, 1.0), [[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0]), 1, 0.5))
# a stiff real pair: x1 rises within ~2e-11 and decays at rate 8e-7
@example(case=(AffineSegment(0.0, 1e7, (0.0, 1.0), [[-2.5e8, 2.5e8], [0.0, -8e-7]], [0.0, 0.0]), 1, 0.01))
# disc = 1e-400 and tr(a)/2 read 0, so the form is repeated at rate 0.0 and
# each component is linear: no turn, no one-exponential estimate
@example(case=(AffineSegment(0.0, 2.0, (1.0, 1.0), [[0.0, 1e-200], [1e-200, 0.0]], [0.0, 0.0]), 1, 1.0))
@example(case=(AffineSegment(0.0, 2.0, (1e-200, 1.0), [[0.0, 1e-200], [1e-200, 0.0]], [0.0, 0.0]), 1, 2e-200))
def test_newton_meet_agrees_with_brentq(case):
    # every spectrum, every piece that crosses xi: the time meet gives lies
    # in the piece and within meet's tolerance of the root brentq finds
    seg, k, xi = case
    ts, xs, meet = seg.pieces(k)
    a, b = np.array(seg.kind.a), np.array(seg.kind.b)

    def excess(t: float) -> float:
        return seg.state_at(t)[k - 1] - xi

    for lo, hi, x_lo, x_hi in zip(ts, ts[1:], xs, xs[1:]):
        if (x_lo > xi) == (x_hi > xi):
            continue
        t = meet(xi, lo, hi)
        want = brentq(excess, lo, hi, xtol=1e-15)
        # meet and the reference each round by eps times the terms and xi,
        # or by ulp(0) below the normal range, which over the slope moves a
        # root by more than the tolerance where the component barely moves;
        # such roots are left out
        tol = 1e-13 + 4.0 * _EPS * abs(want)
        slope = (a @ np.array(seg.state_at(want)) + b)[k - 1]
        rounding = _EPS * (_terms_at(seg, k, want) + abs(xi)) + math.ulp(0.0)
        assume(8.0 * rounding <= tol * abs(slope))
        assert lo <= t <= hi
        assert abs(t - want) <= tol


def _plane_example(a, b, x0):
    return dict(case=(np.array(a), np.array(b), np.array(x0)), span=3.0, u=0.7, xi=0.5)


@given(case=_affine_cases(), span=st.floats(0.1, 5.0), u=st.floats(0.0, 1.0), xi=_entries)
# each form: real, real with a ramp (singular a), repeated, complex, quadratic
@example(**_plane_example([[-1.0, 0.5], [0.25, -2.0]], [0.5, 0.25], [0.3, 0.4]))
@example(**_plane_example([[0.0, 0.0], [0.0, -1.0]], [1.0, 0.0], [0.3, 0.4]))
@example(**_plane_example([[-1.0, 1.0], [0.0, -1.0]], [1.0, 0.0], [0.0, 1.0]))
@example(**_plane_example([[-0.5, -2.0], [2.0, -0.5]], [1.0, 0.0], [0.0, 1.0]))
@example(**_plane_example([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [0.5, -0.5]))
# at rest on an unstable equilibrium: every coefficient is 0
@example(**_plane_example([[1.0, 0.0], [0.0, 2.0]], [-1.0, -2.0], [1.0, 1.0]))
def test_newton_reads_the_mode_rhs_as_the_slope(case, span, u, xi):
    # meet's Newton steps read component k minus xi and its slope, which is
    # (a x + b)_k at the state
    a, b, x0 = case
    seg = AffineSegment(1.0, 1.0 + span, x0, a, b)
    t = 1.0 + u * span
    x = np.array(seg.state_at(t))
    at = seg._at(t, *(c - xi for c in seg._c), seg._exp)
    for k in (1, 2):
        f, df = at[k - 1], at[k + 1]
        scale = term_scale(seg, k)
        rate = np.abs(a).sum() + sum(map(abs, seg.kind.plane.rates))
        # below the normal range each rounding is off by up to ulp(0)
        underflow = 8.0 * math.ulp(0.0) * (1.0 + rate)
        assert abs(f - (x[k - 1] - xi)) <= 8.0 * _EPS * (scale + abs(xi)) + underflow
        assert abs(df - (a @ x + b)[k - 1]) <= 64.0 * _EPS * (1.0 + rate) * (scale + abs(b[k - 1])) + underflow


def test_newton_meet_takes_few_evaluations_per_root(monkeypatch):
    # the simple NOR's MIS sweep at gaps 0:5:6 meets xi once per gap; a
    # meet's reads of _at pass the segment's constants less xi, and a
    # state read passes them as they are
    counts, last = [], [None]
    at = AffineSegment._at

    def counted(self, t, c1, c2, exp):
        if (c1, c2) != self._c:
            if last[0] != (self, c1, c2):
                last[0] = (self, c1, c2)
                counts.append([0])
            counts[-1][0] += 1
        return at(self, t, c1, c2, exp)

    monkeypatch.setattr(AffineSegment, "_at", counted)
    mis_delay_sweep(lambda: make_simple_nor(initial_inputs=(1, 1)), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert len(counts) == 6
    assert max(n for (n,) in counts) <= 8  # the two ends included; Brent took 13


@pytest.mark.parametrize("lo,hi", [(1.0, 3.0), (-2.0, 1.0)])
def test_newton_returns_an_exact_zero_at_an_end(lo, hi):
    # f(1) is exactly 0, so that end comes back without a step
    got = _newton(lambda t: pytest.fail("stepped"), lo, hi, lo - 1.0, hi - 1.0, None, 1e-13)
    assert got == 1.0


@pytest.mark.parametrize(
    "f,message",
    [
        (lambda t: math.nan if 0.0 < t < 3.0 else t - 1.0, "NaN at t=1.0"),
        (lambda t: math.nan if t == 3.0 else t - 1.0, r"NaN at an end of the bracket \[0\.0, 3\.0\]"),
    ],
    ids=["inside", "end"],
)
def test_newton_refuses_a_nan(f, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _newton(lambda t: (f(t), 1.0), 0.0, 3.0, f(0.0), f(3.0), None, 1e-13)


def test_newton_bisects_steps_that_crawl():
    # a slope claimed 1e10 times too steep moves t by about 5e-11 a step,
    # more than half the step before, so it bisects; Newton's own step test
    # then resolves the root only to 1e10 times the tolerance
    got = _newton(lambda t: (t - 1.0, 1e10), 0.0, 3.0, -1.0, 2.0, 0.5, 1e-13)
    assert abs(got - 1.0) <= 1e10 * 1e-13
    # 100 bisections cannot narrow a bracket 1e300 wide to 1e-13
    with pytest.raises(RuntimeError, match="^no root within 1e-13 after 100 iterations$"):
        _newton(lambda t: (t - 1.0, 1e10), 0.0, 1e300, -1.0, 1e300, 0.5, 1e-13)


def test_a_meet_on_a_component_that_reads_flat_converges():
    # x2 = e^{1e-15 s} (less a term below 1e-300) reads exactly 1.0 until
    # 1e-15 s passes half an ulp of 1.0, 2^-53, so Newton's steps from the
    # flat stretch are each about 7e-13 long: 100 of them stay in it
    a = [[-1.5656892580588518e-266, 0.0], [-1.1125369292536007e-308, 1e-15]]
    seg = AffineSegment(1.0, 2.0, (0.0, 1.0), a, [1.0, 0.0])
    [(t, rising)] = find_crossings((seg,), 1.0, 2)
    assert rising and abs(t - (1.0 + 2.0**-53 / 1e-15)) <= 1e-13


# -- Newton steps on relaxation pieces -----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    params=st.builds(
        AdvancedNorParams, *(st.floats(0.1, 3.0) for _ in range(6)), v_dd=st.floats(0.5, 2.0)
    ),
    gap=st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(0.0, 10.0), st.just(math.inf)),
    t_on=st.floats(0.0, 10.0),
    lag=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    span=st.floats(1e-3, 20.0),
    u=st.floats(0.0, 1.0),
)
@example(params=AdvancedNorParams(), gap=0.0, t_on=1.0, lag=0.0, span=5.0, u=0.5)
@example(params=AdvancedNorParams(), gap=math.inf, t_on=1.0, lag=0.5, span=5.0, u=0.5)
# the small pole's weight underflows to 0, leaving one pole
@example(params=AdvancedNorParams(alpha1=1.0, alpha2=1.0), gap=1e-310, t_on=0.0, lag=0.0, span=3.0, u=0.3)
# xi is the end value itself, so the root is the piece end
@example(params=AdvancedNorParams(), gap=0.5, t_on=2.0, lag=0.25, span=4.0, u=1.0)
def test_relaxation_meet_agrees_with_brentq(params, gap, t_on, lag, span, u):
    # x = e^{-(phi(t) - phi(t0))} falls from 1 toward 0 and meets xi where
    # phi(t) - phi(t0) = rise: the time meet gives lies in the piece and
    # within meet's tolerance of the root brentq finds
    phi = _charging_exponent(params, t_on, gap, params.alpha1)
    lo, hi = t_on + lag, t_on + lag + span
    seg = RelaxationSegment(lo, hi, 1.0, 0.0, phi)
    phi0 = seg._phi0
    xi = math.exp(-u * (phi(hi)[0] - phi0))
    (_, _), (x_lo, x_hi), meet = seg.pieces(1)
    assume(x_hi <= xi < x_lo)
    rise = math.log1p((1.0 - xi) / xi)

    def excess(t: float) -> float:
        return phi(t)[0] - phi0 - rise

    # where rounding leaves both ends at or below the rise, the piece end
    want = brentq(excess, lo, hi, xtol=1e-15) if excess(hi) > 0.0 else hi
    t = meet(xi, lo, hi)
    assert lo <= t <= hi
    assert abs(t - want) <= 1e-13 + 4.0 * _EPS * abs(want)


def test_relaxation_meet_takes_few_evaluations_per_root(monkeypatch):
    # the advanced NOR's MIS sweep at gaps 0:5:6 meets xi once per gap
    counts = []
    meet = RelaxationSegment._meet

    def counted(self, xi, lo, hi):
        phi, calls = self.exponent, [0]
        counts.append(calls)

        def read(t):
            calls[0] += 1
            return phi(t)

        self.exponent = read
        try:
            return meet(self, xi, lo, hi)
        finally:
            self.exponent = phi

    monkeypatch.setattr(RelaxationSegment, "_meet", counted)
    mis_delay_sweep(lambda: make_advanced_nor(initial_inputs=(1, 1)), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert len(counts) == 6
    assert max(n for (n,) in counts) <= 6  # the end read included; Brent took 10


def test_a_relaxation_whose_exponent_reads_nan_at_its_end_is_refused():
    # x falls from 1 toward 0, and x1 = nan reads as below xi, so meet runs
    seg = RelaxationSegment(0.0, 2.0, 1.0, 0.0, lambda t: (math.nan, math.nan) if t == 2.0 else (t, 1.0))
    with pytest.raises(ValueError, match=r"^NaN at an end of the bracket \[0\.0, 2\.0\]$"):
        find_crossings((seg,), 0.5)


# -- an integrator vs the closed form ------------------------------------------------


_PLANE = StateSpace(((-100.0, 100.0), (-100.0, 100.0)))


@pytest.mark.parametrize(
    "mode, x0, space",
    [(COOL, 20.0, PLANT_BOX),
     (affine_mode("pair", [[-1.0, 0.5], [0.0, -2.0]], [0.0, 1.0], _PLANE), [1.0, 0.0], _PLANE),
     (ModeFunction("relax", HEAT.rhs, ScalarRelaxation(50.0, lambda t: (0.1 * t, 0.1)), 0.1, 5.1),
      20.0, PLANT_BOX)],
    ids=["affine1", "affine_n", "relaxation"],
)
def test_every_segment_kind_refuses_a_backward_span(mode, x0, space):
    with pytest.raises(ValueError) as exc:
        solve_mode(mode, x0, 2.0, 1.0, space)
    assert str(exc.value) == "segment must run forward: [2.0, 1.0]"


@pytest.mark.parametrize(
    "mode, x0, space, message",
    [(affine_mode("pair", [[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], _PLANE), 0.5, BOX,
      "mode 'pair': a 2-state mode in a 1-state space"),
     (COOL, (20.0, 20.0), _PLANE, "mode 'cool': a 1-state mode in a 2-state space"),
     (ModeFunction("relax", HEAT.rhs, ScalarRelaxation(50.0, lambda t: (0.1 * t, 0.1)), 0.1, 5.1),
      (20.0, 20.0), _PLANE, "mode 'relax': a 1-state mode in a 2-state space")],
    ids=["affine_n_in_one_state", "affine1_in_two_states", "relaxation_in_two_states"],
)
def test_a_mode_whose_state_count_is_not_the_boxs_is_refused(mode, x0, space, message):
    with pytest.raises(ValueError) as exc:
        solve_mode(mode, x0, 0.0, 1.0, space)
    assert str(exc.value) == message


def test_affine_mode_data_are_tuples_that_compare_and_hash_by_their_entries():
    one = AffineConstant([[-1, 0], [0, -1]], [0.5, 0])
    other = AffineConstant(((-1.0, 0.0), (0.0, -1.0)), (0.5, 0.0))
    assert (one.a, one.b) == (((-1.0, 0.0), (0.0, -1.0)), (0.5, 0.0))
    assert one == other and hash(one) == hash(other)
    assert one != AffineConstant([[-1.0, 0.0], [0.0, -2.0]], [0.5, 0.0])
    assert AffineConstant([[-2]], [1]) == AffineConstant(((-2.0,),), (1.0,))
    for a, b, shapes in (([[1.0, 2.0]], [0.0], "(1, 2) / (1,)"),
                         ([[1.0, 0.0], [0.0, 1.0]], [0.0], "(2, 2) / (1,)")):
        with pytest.raises(ValueError) as exc:
            AffineConstant(a, b)
        assert str(exc.value) == f"inconsistent affine shapes {shapes}"


def test_an_affine_rhs_is_a_x_plus_b_as_a_tuple():
    mode = affine_mode("pair", [[-1.0, 0.5], [0.25, -2.0]], [0.1, 0.0], _PLANE)
    assert mode.rhs(0.0, (2.0, 4.0)) == (-2.0 + 2.0 + 0.1, 0.5 - 8.0 + 0.0)
    assert COOL.rhs(0.0, [20.0]) == (-2.0,)


@pytest.mark.parametrize("mode,x0", [(HEAT, [20.0]), (COOL, [45.0])])
def test_adaptive_integrator_agrees_with_closed_form(mode, x0):
    closed = solve_mode(mode, x0, 0.0, 10.0, PLANT_BOX)
    numeric = solve_ivp(mode.rhs, (0.0, 10.0), x0, method="RK45", rtol=1e-9, atol=1e-12, dense_output=True)
    ts = np.linspace(0.0, 10.0, 400)
    ref = np.array(closed.values(ts))
    err = np.max(np.abs(numeric.sol(ts).T - ref))
    scale = np.max(np.abs(ref))
    assert err / scale < 1e-8, f"relative disagreement {err / scale}"


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # bench/spans.py wraps package attributes by name, modes.solve_ivp and
    # DenseSegment.values among them, which nothing else in the package uses;
    # gates imports digitize and matching_output_signal only for it to wrap
    path = Path(__file__).parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import hybridgates.cli  # noqa: F401  (the tracer wraps cli.load_circuit)

    before = {name: getattr(modes, name) for name in ("solve_mode", "solve_ivp")}
    before_values = vars(modes.DenseSegment)["values"]
    uninstall = spans.install(spans.Tracer(), hybridgates)
    assert modes.solve_ivp is not before["solve_ivp"]
    uninstall()
    assert {name: getattr(modes, name) for name in before} == before
    assert vars(modes.DenseSegment)["values"] is before_values


# -- invariant boxes -------------------------------------------------------------


def test_trajectory_leaving_box_raises_with_first_exit_time():
    # x(t) = 50 - 30 exp(-t/10) would leave (0, 30) at 10 ln(3/2), so in
    # that box the mode is refused on its first solve, naming the face
    tight = StateSpace(((0.0, 30.0),))
    grow = affine_mode("grow", [[-0.1]], [5.0], StateSpace(((-1.0, 51.0),)))
    with pytest.raises(ValueError) as err:
        solve_mode(grow, [20.0], 0.0, 20.0, tight)
    assert str(err.value) == (
        "mode 'grow': the state space is not invariant: at the corner (30.000000000001,),"
        " dx1/dt = 1.9999999999999 points out through the face x1 = 30.000000000001"
    )


@pytest.mark.parametrize(
    "a,b,x0,box,time,bound",
    [
        # 50 - 30 exp(-t/10) reaches 30 at 10 ln(3/2)
        (-0.1, 5.0, 20.0, StateSpace(((0.0, 30.0),)), 10.0 * math.log(1.5), 30.0),
        # 20 - 3 t reaches 0 at 20/3
        (0.0, -3.0, 20.0, StateSpace(((0.0, 30.0),)), 20.0 / 3.0, 0.0),
    ],
    ids=["decay", "ramp"],
)
def test_scalar_exit_is_exact(a, b, x0, box, time, bound):
    # the segment meets the bound at the exact time, and the mode, whose
    # field points out through that bound, is refused, naming its face
    ts, xs, meet = ScalarAffineSegment(0.0, 20.0, x0, a, b).pieces(1)
    assert meet(bound, *ts) == pytest.approx(time, rel=1e-15)
    [(lo, hi)] = box.bounds
    face = lo - BOX_SLACK if bound == lo else hi + BOX_SLACK
    with pytest.raises(ValueError) as exc:
        solve_mode(affine_mode("m", [[a]], [b], box), [x0], 0.0, 20.0, box)
    assert str(exc.value).startswith("mode 'm': the state space is not invariant: ")
    assert str(exc.value).endswith(f" points out through the face x1 = {face!r}")


@pytest.mark.parametrize(
    "a,b,x0,t1",
    [
        (-0.1, 5.0, 20.0, 1000.0),  # settles onto the upper bound 50
        (-1.0, 0.0, 0.9, 50.0),  # decays to 1.7e-22 above the lower bound 0
        (0.0, 1.0, 0.0, 50.0 - 1e-12),  # ramps to 1e-12 below the upper bound
    ],
)
def test_scalar_mode_just_inside_a_bound_is_accepted(a, b, x0, t1):
    box = StateSpace(((0.0, 50.0),))
    seg = ScalarAffineSegment(0.0, t1, x0, a, b)
    assert 0.0 < seg.value(seg.t1)[0] <= 50.0
    mode = affine_mode("m", [[a]], [b], box)
    if a:  # a lag toward a bound keeps the box, however near it comes
        assert solve_mode(mode, [x0], 0.0, t1, box).x1 == seg.x1
    else:  # the ramp would leave after t1, so it is refused
        with pytest.raises(ValueError, match="through the face x1 = 50.000000000001$"):
            solve_mode(mode, [x0], 0.0, t1, box)


# Two networks of the simple NOR with unit parameters, state (V_int, V_out):
# (A=1, B=0) shares a charged internal node with the output, whose voltage
# rises to a peak and falls back; (A=0, B=0) charges both nodes to V_DD = 1.
NOR_SHARE = ([[-1.0, 1.0], [1.0, -2.0]], [0.0, 0.0])
NOR_CHARGE = ([[-2.0, 1.0], [1.0, -1.0]], [1.0, 0.0])


def _share_peak() -> float:
    """Peak of V_out under NOR_SHARE from (1, 0), found without ``pieces``."""
    seg = AffineSegment(0.0, 20.0, [1.0, 0.0], *NOR_SHARE)
    best = minimize_scalar(
        lambda t: -seg.value(t)[1], bounds=(0.0, 5.0), method="bounded", options={"xatol": 1e-12}
    )
    return -best.fun


SHARE_PEAK = _share_peak()


@pytest.mark.parametrize(
    "net,x0,box",
    [
        # V_out peaks above the box
        (NOR_SHARE, [1.0, 0.0], StateSpace(((-0.01, 1.01), (-0.01, SHARE_PEAK - 0.05)))),
        # V_int rises through 0.6
        (NOR_CHARGE, [0.0, 0.0], StateSpace(((-0.01, 0.6), (-0.01, 1.01)))),
    ],
)
def test_two_state_exit_is_exact(net, x0, box):
    # the run from x0 leaves the box: the earliest time a component meets a
    # bound is each component's first grid step past one, narrowed by
    # brentq on the closed form, and the segment's own meet agrees.  The
    # mode is refused, naming the face the run leaves through, the only one
    # its field points out of.
    seg = AffineSegment(0.0, 20.0, x0, *net)
    ts = np.linspace(0.0, 20.0, 20_001)
    vals, exits = np.array(seg.values(ts)), []
    for k, (lo, hi) in enumerate(box.bounds):
        out = (vals[:, k] <= lo) | (vals[:, k] >= hi)
        if out.any():
            j = int(np.argmax(out))
            bound = lo if vals[j, k] <= lo else hi
            t = brentq(lambda t: seg.value(t)[k] - bound, ts[j - 1], ts[j], xtol=1e-15)
            exits.append((t, k, bound))
    want, k, bound = min(exits)
    ends, _, meet = seg.pieces(k + 1)
    assert meet(bound, ends[0], ends[1]) == pytest.approx(want, abs=1e-12)
    face = box.bounds[k][0] - BOX_SLACK if bound == box.bounds[k][0] else box.bounds[k][1] + BOX_SLACK
    with pytest.raises(ValueError) as exc:
        solve_mode(affine_mode("m", *net, box), x0, 0.0, 20.0, box)
    assert str(exc.value).startswith("mode 'm': the state space is not invariant: ")
    assert str(exc.value).endswith(f" points out through the face x{k + 1} = {float(face)!r}")


def test_two_state_exit_is_the_earliest_over_components():
    # x = (1.5 t, 3 t) meets x2 = 1 at t = 1/3, before x1 = 1 at 2/3; the
    # field points out of both upper faces, and the refusal names the first
    # in corner order, x2's at (lo, hi)
    seg = AffineSegment(0.0, 2.0, (0.0, 0.0), [[0.0, 0.0], [0.0, 0.0]], [1.5, 3.0])
    for k, time in ((1, 2.0 / 3.0), (2, 1.0 / 3.0)):
        assert seg.pieces(k)[2](1.0, 0.0, 2.0) == pytest.approx(time, rel=1e-15)
    box = StateSpace(((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError) as exc:
        solve_mode(affine_mode("m", [[0.0, 0.0], [0.0, 0.0]], [1.5, 3.0], box), (0.0, 0.0), 0.0, 2.0, box)
    assert str(exc.value) == (
        "mode 'm': the state space is not invariant: at the corner (-1.000000000001, 1.000000000001),"
        " dx2/dt = 3.0 points out through the face x2 = 1.000000000001"
    )


@pytest.mark.parametrize(
    "net,x0,t1,box",
    [
        # V_out peaks 1e-9 below the box
        (NOR_SHARE, [1.0, 0.0], 20.0, StateSpace(((-0.01, 1.01), (-0.01, SHARE_PEAK + 1e-9)))),
        # both nodes settle onto the top
        (NOR_CHARGE, [0.0, 0.0], 1000.0, StateSpace(((-0.01, 1.0), (-0.01, 1.0)))),
    ],
)
def test_two_state_mode_just_inside_a_bound_is_accepted(net, x0, t1, box):
    seg = AffineSegment(0.0, t1, x0, *net)
    assert all(box.contains(row) for row in seg.values(np.linspace(0.0, t1, 64)))  # samples agree
    assert all(lo < x <= hi + 1e-12 for x, (lo, hi) in zip(seg.value(seg.t1), box.bounds))
    mode = affine_mode("m", *net, box)
    if net is NOR_CHARGE:  # both nodes settle onto the top, which the box keeps
        assert solve_mode(mode, x0, 0.0, t1, box).x1 == seg.x1
    else:  # the run from x0 stays inside, but one from (1.01, peak) would not
        with pytest.raises(ValueError, match="through the face x2 = "):
            solve_mode(mode, x0, 0.0, t1, box)


class _NanEndSegment(_SegmentBase):
    """Two pieces on [0, 1], split at 1/2, whose end values are (0.0, mid,
    nan); the state reads them at the ends and ``mid`` inside the second."""

    __slots__ = ("t0", "t1", "mid")
    dimension = 1

    def __init__(self, mid: float):
        self.t0, self.t1, self.mid = 0.0, 1.0, mid

    def state_at(self, t):
        return math.nan if t >= 1.0 else self.mid if t >= 0.5 else 0.0

    def pieces(self, component):
        return (0.0, 0.5, 1.0), (0.0, self.mid, math.nan), None


@pytest.mark.parametrize("fill, time", [(0.0, 1.0), (math.nan, 0.5)])
def test_a_nan_piece_end_is_an_exit(fill, time):
    # no segment is scanned, so a NaN a segment reads at a piece end is
    # caught where a run next solves from it: a NaN meets no comparison
    # with the box, so that solve exits at its start.  A run that switches
    # at every piece end exits at the first NaN end.
    box = StateSpace(((-1.0, 1.0),))
    seg, decay = _NanEndSegment(fill), affine_mode("decay", [[-1.0]], [0.0], box)
    with pytest.raises(StateSpaceExit) as exc:
        for t in seg.pieces(1)[0]:
            solve_mode(decay, seg.state_at(t), t, 2.0, box)
    assert exc.value.time == time


def test_a_growing_scalar_mode_exits_where_its_exponential_overflows():
    # e^{t} passes the largest float long before t1, so the end reads inf,
    # as numpy's exp gives, and the piece meets 51 at ln 51.  A growing mode
    # keeps no box around its equilibrium, so it is refused, at the first
    # face in corner order.
    seg = ScalarAffineSegment(0.0, 1000.0, 1.0, 1.0, 0.0)
    ts, xs, meet = seg.pieces(1)
    assert xs == (1.0, math.inf)
    assert meet(51.0, *ts) == pytest.approx(math.log(51.0), rel=1e-15)
    box = StateSpace(((-1.0, 51.0),))
    with pytest.raises(ValueError) as err:
        solve_mode(affine_mode("grow", [[1.0]], [0.0], box), 1.0, 0.0, 1000.0, box)
    assert str(err.value) == (
        "mode 'grow': the state space is not invariant: at the corner (-1.000000000001,),"
        " dx1/dt = -1.000000000001 points out through the face x1 = -1.000000000001"
    )


@st.composite
def _scalar_fields(draw):
    """(a, b, lo, width): a rate, 0 or not, and b either drawn or put so
    that the equilibrium -b/a lies near the box (lo, lo + width)."""
    a = draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)))
    lo, width = draw(st.floats(-10.0, 10.0)), draw(st.floats(1e-3, 20.0))
    b = draw(st.one_of(st.floats(-1e3, 1e3), st.floats(-5.0, 25.0).map(lambda e: -a * (lo + e))))
    return a, b, lo, width


@given(fields=_scalar_fields())
# the equilibrium sits on the widened lower bound, 1e-12 - BOX_SLACK = 0.0
@example(fields=(-1.0, 0.0, 1e-12, 1.0))
# a zero field, and one that is zero at the widened upper bound alone
@example(fields=(0.0, 0.0, -1.0, 2.0))
@example(fields=(-1.0, 1.0 + BOX_SLACK, -1.0, 2.0))
def test_a_scalar_mode_is_refused_exactly_when_its_field_points_out_at_a_bound(fields):
    # with lo' and hi' the bounds widened by BOX_SLACK, dx/dt = a x + b is
    # refused exactly when a lo' + b < 0 or a hi' + b > 0, in exact arithmetic
    a, b, lo, width = fields
    hi = lo + width
    space = StateSpace(((lo, hi),))
    low, high = Fraction(lo - BOX_SLACK), Fraction(hi + BOX_SLACK)
    out = Fraction(a) * low + Fraction(b) < 0 or Fraction(a) * high + Fraction(b) > 0
    mode = affine_mode("m", [[a]], [b], space)
    x0 = (lo + hi) / 2
    if out:
        with pytest.raises(ValueError, match="^mode 'm': the state space is not invariant: "):
            solve_mode(mode, x0, 0.0, 1.0, space)
    else:
        assert solve_mode(mode, x0, 0.0, 1.0, space).x0 == x0


@pytest.mark.parametrize(
    "a, b, x0, why",
    [
        # disc and tr(a)/2 read 0: a repeated form at rate 0.0
        ([[0.0, 1e-200], [1e-200, 0.0]], [0.0, 0.0], (1.0, 1.0), "not invariant"),
        # det(a) != 0, but c lies beyond the floats and tr(a) = 0
        ([[0.0, 5e-324], [1.0, 0.0]], [1.0, 0.0], (0.0, 0.0), "beyond the floats"),
        # the singular fallback's huge c and m cancel to NaN past t0
        ([[9.8e-289, 1.0], [2.2e-309, 0.0]], [0.0, 1.0], (0.0, 0.0), "not invariant"),
        ([[1.2e-227, -1.0], [-2.2e-309, 0.0]], [0.0, 1.0], (0.0, 0.0), "not invariant"),
    ],
    ids=["zero_rate", "beyond_the_floats", "nan", "nan_negative"],
)
def test_a_mode_whose_closed_form_breaks_on_tiny_entries_is_refused_around_its_start(a, b, x0, why):
    # no run can reach these forms: each mode is refused in a box around
    # the start that breaks its closed form
    box = StateSpace(tuple((x - 0.5, x + 0.5) for x in x0))
    with pytest.raises(ValueError, match=why):
        solve_mode(affine_mode("tiny", a, b, box), x0, 0.0, 2.0, box)


def test_a_relaxation_is_refused_unless_its_target_lies_in_the_box():
    exponent = lambda t: (t, 1.0)  # noqa: E731
    for target, face in ((2.0, 1.010000000001), (-0.5, -0.010000000001), (math.nan, -0.010000000001)):
        mode = ModeFunction("relax", HEAT.rhs, ScalarRelaxation(target, exponent), 1.0, 3.0)
        with pytest.raises(ValueError) as exc:
            solve_mode(mode, 0.5, 0.0, 1.0, StateSpace(((-0.01, 1.01),)))
        assert str(exc.value) == (
            f"mode 'relax': the state space is not invariant: its target {target!r} lies beyond the face x1 = {face!r}"
        )
    for target in (1.0, 1):  # a target of any number type
        mode = ModeFunction("relax", HEAT.rhs, ScalarRelaxation(target, exponent), 1.0, 3.0)
        assert solve_mode(mode, 0.5, 0.0, 1.0, StateSpace(((-0.01, 1.01),))).x1 == 1.0 - 0.5 * math.exp(-1.0)


def test_an_affine_kind_is_proven_once_per_box(monkeypatch):
    # a kind keeps the last box it was proven to keep, and a solve in that
    # same box object proves nothing; any other box object is proven anew
    calls = []
    prove = modes._prove_invariant
    monkeypatch.setattr(modes, "_prove_invariant", lambda mode, space: calls.append(space) or prove(mode, space))
    box, other = StateSpace(((-0.8, 2.2), (-0.6, 1.4))), StateSpace(((-0.8, 2.2), (-0.6, 1.4)))
    mode = affine_mode("planar", [[-1.0, 1.0], [1.0, -2.0]], [0.3, 0.1], box)
    for space in (box, box, other, other, box):
        solve_mode(mode, (0.2, 0.9), 0.0, 1.0, space)
    assert [space is box for space in calls] == [True, False, True] and mode.kind.box is box


def test_initial_state_outside_box_rejected():
    with pytest.raises(StateSpaceExit):
        solve_mode(HEAT, [60.0], 0.0, 1.0, PLANT_BOX)


def test_a_box_bound_that_is_not_finite_is_refused():
    # 1.01 * v_dd overflows, so the NOR's box would reach inf, which the
    # exact invariant proof cannot take
    with pytest.raises(
        ValueError,
        match=r"^state-space interval \(-1\.7800000000000002e\+306, inf\) has a bound that is not finite$",
    ):
        make_advanced_nor(AdvancedNorParams(v_dd=1.78e308))
    for bounds in ((-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="not finite"):
            StateSpace(((0.0, 1.0), bounds))


# -- pasted trajectories -------------------------------------------------------------


def test_two_mode_plant_cycle_piecewise_closed_form():
    family = {"heat": HEAT, "cool": COOL}
    switching = ModeSwitchSignal("heat", ((2.0, "cool"),), 5.0)
    traj = matching_output_signal(family, switching, [20.0], PLANT_BOX)
    x_at_2 = 50.0 - 30.0 * math.exp(-0.2)
    assert traj.value(2.0)[0] == pytest.approx(x_at_2, rel=1e-12)
    # afterwards pure decay from x_at_2
    assert traj.value(4.0)[0] == pytest.approx(x_at_2 * math.exp(-0.2), rel=1e-12)
    assert traj.horizon == 5.0


def test_junctions_are_continuous():
    family = {"heat": HEAT, "cool": COOL}
    switching = ModeSwitchSignal(
        "heat", ((0.7, "cool"), (1.1, "heat"), (3.0, "cool")), 6.0
    )
    traj = matching_output_signal(family, switching, [20.0], PLANT_BOX)
    for prev, cur in zip(traj.segments, traj.segments[1:]):
        assert abs(prev.value(prev.t1)[0] - cur.value(cur.t0)[0]) <= 1e-9


def test_trajectory_values_keep_the_callers_order(rng):
    # times in any order, junctions and both ends included, read the same
    # floats as each segment reads them one by one
    family = {"heat": HEAT, "cool": COOL}
    switching = ModeSwitchSignal("heat", ((0.7, "cool"), (1.1, "heat"), (3.0, "cool")), 6.0)
    traj = matching_output_signal(family, switching, [20.0], PLANT_BOX)
    ts = [-1.0, 0.0, 0.7, 1.1, 3.0, 6.0, 7.0] + [rng.uniform(0.0, 6.0) for _ in range(50)]
    rng.shuffle(ts)
    got = traj.values(ts)
    assert np.array(got).shape == (len(ts), 1)
    assert [row[0].hex() for row in got] == [traj.value(t)[0].hex() for t in ts]


def test_mode_refinement_noop_is_identity():
    family = {"heat": HEAT, "cool": COOL}
    base = ModeSwitchSignal("heat", ((2.0, "cool"),), 5.0)
    refined = ModeSwitchSignal("heat", ((1.0, "heat"), (2.0, "cool")), 5.0)
    a = matching_output_signal(family, base, [20.0], PLANT_BOX)
    b = matching_output_signal(family, refined, [20.0], PLANT_BOX)
    assert sup_distance(a, b, samples=4000) <= 1e-9


def test_unknown_mode_id_rejected():
    switching = ModeSwitchSignal("heat", ((1.0, "warp"),), 5.0)
    with pytest.raises(KeyError, match="warp"):
        matching_output_signal({"heat": HEAT}, switching, [20.0], PLANT_BOX)


# -- sup distance ----------------------------------------------------------------------


def test_sup_distance_of_two_decays_hits_calculus_maximum():
    # max over t of exp(-t) - exp(-2t) is 1/4, attained at ln 2
    slow = affine_mode("slow", [[-1.0]], [0.0], BOX)
    fast = affine_mode("fast", [[-2.0]], [0.0], BOX)
    x = Trajectory([solve_mode(slow, [1.0], 0.0, 10.0, BOX)])
    y = Trajectory([solve_mode(fast, [1.0], 0.0, 10.0, BOX)])
    assert sup_distance(x, y) == pytest.approx(0.25, abs=1e-7)


def test_sup_distance_is_a_lower_bound_of_truth():
    slow = affine_mode("slow", [[-1.0]], [0.0], BOX)
    fast = affine_mode("fast", [[-2.0]], [0.0], BOX)
    x = Trajectory([solve_mode(slow, [1.0], 0.0, 10.0, BOX)])
    y = Trajectory([solve_mode(fast, [1.0], 0.0, 10.0, BOX)])
    assert sup_distance(x, y, samples=50) <= 0.25 + 1e-12


# -- initial-value sensitivity ------------------------------------------------------------


def test_nearby_initial_states_stay_within_exponential_envelope(rng):
    a = np.array([[-1.0, 1.0], [1.0, -2.0]])
    box = StateSpace(((-50.0, 50.0), (-50.0, 50.0)))
    mode = affine_mode("planar", a, [0.0, 0.0], box)
    k = mode.lipschitz_k
    horizon = 2.0
    for _ in range(25):
        x0 = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        y0 = x0 + np.array([rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3)])
        x = Trajectory([solve_mode(mode, x0, 0.0, horizon, box)])
        y = Trajectory([solve_mode(mode, y0, 0.0, horizon, box)])
        gap0 = float(np.linalg.norm(x0 - y0))
        bound = math.exp(horizon * k) * gap0
        assert sup_distance(x, y, samples=2000) <= bound + 1e-9


def test_mode_switch_continuity_envelope_small_sample(rng):
    # Jittering a switch time changes the trajectory by at most
    # 2 M exp(T K) * (time spent in differing modes), up to sampling slack.
    family = {"heat": HEAT, "cool": COOL}
    k = max(m.lipschitz_k for m in family.values())
    m_bound = max(m.rhs_bound_m for m in family.values())
    horizon = 3.0
    from hybridgates.signals import mode_distance

    for _ in range(30):
        t_switch = rng.uniform(0.5, 2.0)
        jitter = rng.choice([1e-1, 1e-2, 1e-3]) * rng.uniform(0.5, 1.0)
        a = ModeSwitchSignal("heat", ((t_switch, "cool"),), horizon)
        b = ModeSwitchSignal("heat", ((t_switch + jitter, "cool"),), horizon)
        xa = matching_output_signal(family, a, [20.0], PLANT_BOX)
        xb = matching_output_signal(family, b, [20.0], PLANT_BOX)
        envelope = 2.0 * m_bound * math.exp(horizon * k) * mode_distance(a, b)
        assert sup_distance(xa, xb, samples=2000) <= envelope + 1e-6


# -- declared regularity bounds --------------------------------------------------------------


def test_affine_mode_constants():
    mode = affine_mode("cool", [[-0.1]], [0.0], PLANT_BOX)
    assert mode.lipschitz_k == pytest.approx(0.1)
    # |f| maximal at the lower corner x = -1: |-0.1 * -1| = 0.1... and at 51: 5.1
    assert mode.rhs_bound_m == pytest.approx(5.1)


def test_heat_mode_bound_at_corners():
    assert HEAT.rhs_bound_m == pytest.approx(5.1)  # |5 - 0.1*(-1)| = 5.1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "a, b",
    [
        ([[-math.inf]], [0.0]),
        ([[-1e4]], [math.inf]),
        ([[-1.0, 0.0], [0.0, math.nan]], [0.0, 0.0]),
        ([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]], [0.0, -math.inf, 0.0]),
    ],
)
def test_an_affine_mode_with_non_finite_constants_is_refused(a, b):
    space = StateSpace(((-1.0, 1.0),) * len(b))
    with pytest.raises(ValueError) as exc:
        affine_mode("m", a, b, space)
    assert str(exc.value) == f"mode 'm': affine mode a={a}, b={b} has non-finite constants"


def test_an_equilibrium_beyond_the_floats_with_zero_trace_is_refused():
    # det(a) = -5e-324 != 0, but c = -a^-1 b lies beyond the floats, so the
    # singular fallback divided by tr(a) = 0: a bare ZeroDivisionError
    a, b = [[0.0, -1.0], [-5e-324, 0.0]], [0.0, 1.0]
    with pytest.raises(ValueError) as exc:
        affine_mode("m", a, b, StateSpace(((-1.0, 1.0),) * 2))
    assert str(exc.value) == f"mode 'm': affine mode a={a}, b={b} has constants beyond the floats"


@pytest.mark.filterwarnings("error")
def test_a_corner_beyond_the_floats_bounds_the_rhs_by_infinity():
    mode = affine_mode("m", [[-1e4]], [0.0], StateSpace(((-1e306, 1.01e308),)))
    assert mode.rhs_bound_m == math.inf


# floats of magnitude 1e-300 to 1e300, of either sign, or zero
_WIDE = st.one_of(
    st.just(0.0),
    st.builds(lambda s, m, e: s * m * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(1.0, 10.0), st.integers(-300, 299)),
)


def _wide_box(n: int):
    """A box of ``n`` intervals whose ends are drawn from ``_WIDE``."""
    ends = st.lists(_WIDE, min_size=2, max_size=2, unique=True).map(sorted).map(tuple)
    return st.lists(ends, min_size=n, max_size=n).map(lambda b: StateSpace(tuple(b)))


def _numpy_k_and_m(a, b, space):
    """K and M as numpy computes them: the test-side reference."""
    a, b = np.array(a), np.array(b)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [float(np.linalg.norm(a @ np.array(c) + b)) for c in space.corners()]
    return float(np.linalg.norm(a, 2)), max(norms)


def _ulps(x: float, y: float) -> float:
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


@settings(max_examples=400, deadline=None)
@given(a=_WIDE, b=_WIDE, space=_wide_box(1))
@example(a=1e300, b=0.0, space=StateSpace(((-1.0, 1e10),)))  # a corner beyond the floats
@example(a=-3e-300, b=1e-300, space=StateSpace(((-1e-20, 5.0),)))  # products below the normals
def test_one_state_k_and_m_are_numpys_on_floats(a, b, space):
    mode = affine_mode("m", [[a]], [b], space)
    k, m = _numpy_k_and_m([[a]], [b], space)
    assert mode.lipschitz_k == abs(a)  # exact; numpy's SVD may read 1 ulp below
    assert _ulps(mode.lipschitz_k, k) <= 1
    assert mode.rhs_bound_m == m  # the same floats: |x| as sqrt(x * x)


@settings(max_examples=400, deadline=None)
@given(a=st.lists(_WIDE, min_size=4, max_size=4), b=st.lists(_WIDE, min_size=2, max_size=2), space=_wide_box(2))
@example(a=[1.0, -1e-300, 2.5e-300, 1.0], b=[0.0, 1e-300], space=StateSpace(((-1.0, 1.0), (0.0, 3.0))))
@example(a=[-1.0, 1.0, 1.0, -2.0], b=[0.0, 0.0], space=StateSpace(((-0.01, 1.01),) * 2))  # NOR_SHARE
def test_two_state_k_and_m_on_floats_match_numpys(a, b, space):
    a = [a[:2], a[2:]]
    try:
        mode = affine_mode("m", a, b, space)
    except ValueError as exc:  # constants the closed form cannot hold, or M cancelling to NaN
        assert str(exc).endswith("has constants beyond the floats") or "M=nan" in str(exc)
        return
    k, m = _numpy_k_and_m(a, b, space)
    assert _ulps(mode.lipschitz_k, k) <= 8
    corners = list(space.corners())
    if any(math.isinf(r[j] * c[j]) for c in corners for r in a for j in (0, 1)):
        # a product beyond the floats makes a component infinite (M is) or
        # NaN (refused above); numpy's fused matmul may read either
        assert mode.rhs_bound_m == math.inf
        return
    # numpy's matmul may fuse a multiply and an add, so each component can
    # round differently by a few eps of its terms, which cancel to less
    terms = max(math.hypot(*(abs(r[0] * c[0]) + abs(r[1] * c[1]) + abs(v) for r, v in zip(a, b))) for c in corners)
    tol = 8 * math.ulp(m) + 4 * sys.float_info.epsilon * terms
    assert mode.rhs_bound_m == m or abs(mode.rhs_bound_m - m) <= tol  # == for a square beyond the floats


@pytest.mark.parametrize("k, m", [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0), (1.0, -1.0)])
def test_a_mode_with_negative_or_nan_bounds_is_refused(k, m):
    with pytest.raises(ValueError) as exc:
        ModeFunction("m", lambda t, x: x, AffineConstant([[1.0]], [0.0]), k, m)
    assert str(exc.value) == f"regularity bounds must be nonnegative, got K={k!r}, M={m!r}"


# -- function segments and CSV dumps ------------------------------------------------------------


def test_function_segment_wraps_known_waveform():
    seg = FunctionSegment(0.0, 5.0, lambda ts: np.exp(-np.asarray(ts)))
    traj = Trajectory([seg])
    assert traj.value(1.0)[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert traj.dimension == 1


def test_trajectory_csv_dump(tmp_path):
    family = {"heat": HEAT, "cool": COOL}
    switching = ModeSwitchSignal("heat", ((1.0, "cool"),), 2.0)
    traj = matching_output_signal(family, switching, [20.0], PLANT_BOX)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(traj, out, samples=21, metadata={"rel_tol": 1e-9})
    text = out.read_text().splitlines()
    assert text[0] == "# rel_tol=1e-09"
    assert text[1].startswith("# switch_times=[1.0]")
    assert text[2] == "time,x1"
    assert len(text) == 3 + 21
    # byte-identical rerun
    out2 = tmp_path / "traj2.csv"
    write_trajectory_csv(traj, out2, samples=21, metadata={"rel_tol": 1e-9})
    assert out.read_bytes() == out2.read_bytes()
