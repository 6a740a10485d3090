"""Mode solving: closed forms, dense output, pasting, and the sup metric."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from hybridgates.modes import (
    AffineSegment,
    GeneralNumeric,
    ModeFunction,
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
from hybridgates.gates import AdvancedNorParams, _charging_exponent
from hybridgates.modes import _brent, _containment_scan, _SegmentBase
from hybridgates.signals import ModeSwitchSignal
from hybridgates.threshold import find_crossings

from conftest import FunctionSegment, run_fresh_python, term_scale

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
    mode = affine_mode("ramp", [[0.0]], [2.0], BOX)
    seg = solve_mode(mode, [1.0], 0.0, 3.0, BOX)
    assert seg.value(1.5)[0] == pytest.approx(4.0, rel=1e-14)


# -- the float segment of 1-state affine modes ------------------------------------

_rates = st.one_of(st.just(0.0), st.floats(-20.0, -0.05), st.floats(0.05, 5.0))
_levels = st.floats(-5.0, 5.0)
_spans = st.one_of(st.floats(1e-9, 1e-3), st.floats(0.1, 20.0))


@given(a=_rates, b=_levels, x0=_levels, t0=st.floats(0.0, 10.0), span=_spans, u=st.floats(0.0, 1.0))
def test_float_segment_evaluates_its_array_api_float_for_float(a, b, x0, t0, span, u):
    seg = ScalarAffineSegment(t0, t0 + span, x0, a, b)
    t = t0 + u * span
    assert seg.at(t) == seg.values([t])[0, 0]
    assert seg.at(t0) == seg.values([t0, t])[0, 0] == x0
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


def test_a_one_state_affine_segment_is_refused():
    with pytest.raises(ValueError, match="ScalarAffineSegment"):
        AffineSegment(0.0, 1.0, [0.5], [[-1.0]], [0.0])


@given(a=_rates, b=_levels, x0=st.floats(-50.0, 50.0), span=_spans)
def test_solve_mode_takes_a_float_or_a_sequence_alike(a, b, x0, span):
    mode = affine_mode("m", [[a]], [b], BOX)
    try:
        want = solve_mode(mode, [x0], 1.0, 1.0 + span, BOX)
    except StateSpaceExit as exc:
        with pytest.raises(StateSpaceExit) as got:
            solve_mode(mode, x0, 1.0, 1.0 + span, BOX)
        assert (got.value.time, str(got.value)) == (exc.time, str(exc))
        return
    got = solve_mode(mode, x0, 1.0, 1.0 + span, BOX)
    assert type(got) is type(want) is ScalarAffineSegment
    fields = lambda s: (s.t0, s.t1, s.x0, s.a, s.b)  # noqa: E731
    assert fields(got) == fields(want)
    assert type(got.state_at(got.t1)) is float


# -- matrix closed forms ---------------------------------------------------------


def test_planar_affine_matches_matrix_exponential_oracle():
    from scipy.linalg import expm

    a = np.array([[-1.0, 1.0], [1.0, -2.0]])
    b = np.array([0.3, 0.1])
    box = StateSpace(((-50.0, 50.0), (-50.0, 50.0)))
    mode = affine_mode("planar", a, b, box)
    x0 = np.array([0.2, 0.9])
    seg = solve_mode(mode, x0, 0.0, 4.0, box)
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
    box = StateSpace(((-50.0, 50.0), (-50.0, 50.0)))
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
    assert np.array_equal(seg.values(ts)[:, 0], np.full(11, 0.25))
    assert seg.values(ts)[1:, 1].tolist() == [0.75 * math.exp(-2.0 * t) for t in ts[1:]]
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
    got = seg.values(ts)
    assert np.array_equal(got[0], x0)
    for k in (1, 2):
        # the integrator's error, and the closed form's rounding of its terms
        tol = 1e-9 * np.maximum(1.0, np.abs(ref.y[k - 1])) + 1e-14 * term_scale(seg, k)
        assert np.all(np.abs(got[:, k - 1] - ref.y[k - 1]) <= tol)


def test_a_three_state_affine_mode_is_integrated():
    from scipy.linalg import expm

    a = np.array([[-1.0, 0.5, 0.0], [0.2, -2.0, 0.3], [0.0, 0.4, -0.5]])
    b = np.array([0.1, 0.0, 0.2])
    box = StateSpace(((-5.0, 5.0),) * 3)
    mode = affine_mode("three", a, b, box)
    assert mode.kind.plane is None
    x0 = np.array([0.2, 0.9, -0.3])
    seg = solve_mode(mode, x0, 0.0, 4.0, box)
    assert type(seg) is modes.DenseSegment
    aug = np.zeros((4, 4))
    aug[:3, :3], aug[:3, 3] = a, b
    ts = np.linspace(0.0, 4.0, 17)
    want = np.array([(expm(aug * t) @ np.append(x0, 1.0))[:3] for t in ts])
    # RK45 at rtol 1e-9 and atol 1e-12 accumulates a few of them
    assert np.allclose(seg.values(ts), want, rtol=1e-8, atol=1e-10)
    # a degenerate span stands still, without the integrator
    still = solve_mode(mode, x0, 4.0, 4.0, box)
    assert np.array_equal(still.values([4.0])[0], x0)


# -- the bracketed root finder ----------------------------------------------------

# Exponents as in 2-state segments: decays up to rate 100, growth up to ~3.
_exponents = st.one_of(
    st.floats(-3.0, 2.0).map(lambda e: -(10.0**e)), st.floats(-3.0, 0.5).map(lambda e: 10.0**e)
)


@given(
    c1=st.floats(-3.0, 3.0),
    c2=st.floats(-3.0, 3.0),
    l1=_exponents,
    l2=_exponents,
    t0=st.floats(0.0, 10.0),
    span=st.one_of(st.floats(1e-6, 1e-2), st.floats(0.01, 20.0)),
    u=st.floats(0.0, 1.0),
)
def test_brent_returns_brentqs_float_on_exponential_sums(c1, c2, l1, l2, t0, span, u):
    # c0 puts a root at t0 + u span; the crossing search brackets excesses
    # c0 - xi + c1 e^{l1 s} + c2 e^{l2 s} of this form
    c0 = -(c1 * math.exp(l1 * u * span) + c2 * math.exp(l2 * u * span))

    def excess(t: float) -> float:
        s = t - t0
        return c0 + c1 * math.exp(l1 * s) + c2 * math.exp(l2 * s)

    lo, hi = t0, t0 + span
    assume(excess(lo) * excess(hi) < 0.0)
    assert _brent(excess, lo, hi, 1e-13) == brentq(excess, lo, hi, xtol=1e-13)


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
def test_brent_returns_brentqs_float_on_charging_exponents(params, gap, t_on, lag, span, u):
    # RelaxationSegment._meet solves phi(t) - phi(t0) = rise
    phi = _charging_exponent(params, t_on, gap, params.alpha1)
    lo, hi = t_on + lag, t_on + lag + span
    phi0 = phi(lo)
    rise = u * (phi(hi) - phi0)

    def excess(t: float) -> float:
        return phi(t) - phi0 - rise

    assume(excess(lo) * excess(hi) < 0.0)
    assert _brent(excess, lo, hi, 1e-13) == brentq(excess, lo, hi, xtol=1e-13)


@pytest.mark.parametrize("lo,hi", [(1.0, 3.0), (-2.0, 1.0)])
def test_brent_returns_an_exact_zero_at_an_end(lo, hi):
    # f(1) is exactly 0, so that end comes back without a step
    assert _brent(lambda t: t - 1.0, lo, hi, 1e-13) == 1.0


@pytest.mark.parametrize(
    "f,lo,hi,error",
    [
        (lambda t: t - 5.0, 1.0, 3.0, ValueError),  # both ends below the root
        (lambda t: math.nan if 0.0 < t < 3.0 else t - 1.0, 0.0, 3.0, ValueError),
        # a step at 0 defeats interpolation; bisecting 4 down to 1e-300 takes ~1000 steps
        (lambda t: math.copysign(1.0, t), -1.0, 3.0, RuntimeError),
    ],
)
def test_brent_fails_where_brentq_does(f, lo, hi, error):
    with pytest.raises(error):
        brentq(f, lo, hi, xtol=1e-300)
    with pytest.raises(error):
        _brent(f, lo, hi, 1e-300)


# -- numeric vs closed form -------------------------------------------------------


def _as_numeric(mode: ModeFunction) -> ModeFunction:
    return ModeFunction(
        mode.id + "_numeric",
        mode.rhs,
        GeneralNumeric(),
        mode.lipschitz_k,
        mode.rhs_bound_m,
    )


_PLANE = StateSpace(((-100.0, 100.0), (-100.0, 100.0)))


@pytest.mark.parametrize(
    "mode, x0, space",
    [(COOL, 20.0, PLANT_BOX),
     (affine_mode("pair", [[-1.0, 0.5], [0.0, -2.0]], [0.0, 1.0], _PLANE), [1.0, 0.0], _PLANE),
     (ModeFunction("relax", HEAT.rhs, ScalarRelaxation(50.0, lambda t: 0.1 * t), 0.1, 5.1),
      20.0, PLANT_BOX),
     (_as_numeric(COOL), [20.0], PLANT_BOX)],
    ids=["affine1", "affine_n", "relaxation", "numeric"],
)
def test_every_segment_kind_refuses_a_backward_span(mode, x0, space):
    with pytest.raises(ValueError) as exc:
        solve_mode(mode, x0, 2.0, 1.0, space)
    assert str(exc.value) == "segment must run forward: [2.0, 1.0]"


@pytest.mark.parametrize("mode,x0", [(HEAT, [20.0]), (COOL, [45.0])])
def test_adaptive_integrator_agrees_with_closed_form(mode, x0):
    closed = solve_mode(mode, x0, 0.0, 10.0, PLANT_BOX)
    numeric = solve_mode(_as_numeric(mode), x0, 0.0, 10.0, PLANT_BOX)
    ts = np.linspace(0.0, 10.0, 400)
    ref = closed.values(ts)
    err = np.max(np.abs(numeric.values(ts) - ref))
    scale = np.max(np.abs(ref))
    assert err / scale < 1e-8, f"relative disagreement {err / scale}"


def test_a_numeric_mode_imports_its_integrator_on_first_use():
    # a fresh interpreter, because this module imports scipy itself
    out = run_fresh_python(
        "import json, sys\n"
        "from hybridgates import modes\n"
        "heat = modes.affine_mode('heat', [[-0.1]], [5.0], modes.StateSpace(((-1.0, 51.0),)))\n"
        "numeric = modes.ModeFunction('heat', heat.rhs, modes.GeneralNumeric(), 0.1, 5.1)\n"
        "before = 'scipy.integrate' in sys.modules\n"
        "seg = modes.solve_mode(numeric, [20.0], 0.0, 10.0, modes.StateSpace(((-1.0, 51.0),)))\n"
        "ts = [10.0 * i / 40 for i in range(41)]\n"
        "print(json.dumps([before, type(seg).__name__, seg.values(ts)[:, 0].tolist()]))\n"
    )
    before, kind, values = json.loads(out)
    assert (before, kind) == (False, "DenseSegment")
    ref = solve_ivp(
        HEAT.rhs, (0.0, 10.0), [20.0], method="RK45",
        rtol=modes._RK45_RTOL, atol=modes._RK45_ATOL, dense_output=True,
    )
    assert values == ref.sol(np.linspace(0.0, 10.0, 41))[0].tolist()
    # the benchmark's tracer wraps the module attribute
    assert "solve_ivp" in vars(modes)


# -- state-space exit ---------------------------------------------------------------


def test_trajectory_leaving_box_raises_with_first_exit_time():
    tight = StateSpace(((0.0, 30.0),))
    grow = affine_mode("grow", [[-0.1]], [5.0], StateSpace(((-1.0, 51.0),)))
    with pytest.raises(StateSpaceExit) as err:
        solve_mode(grow, [20.0], 0.0, 20.0, tight)
    # x(t) = 50 - 30 exp(-t/10) crosses 30 at 10 ln(3/2) = 4.05
    assert 3.5 < err.value.time < 5.0


@pytest.mark.parametrize(
    "a,b,x0,box,sample",
    [
        # 50 - 30 exp(-t/10) passes 30 at 4.05, first seen at sample 13
        (-0.1, 5.0, 20.0, StateSpace(((0.0, 30.0),)), 13),
        # 20 - 3 t passes 0 at 6.67, first seen at sample 22
        (0.0, -3.0, 20.0, StateSpace(((0.0, 30.0),)), 22),
    ],
)
def test_scalar_exit_reports_the_sampled_scan_time_and_state(a, b, x0, box, sample):
    mode = affine_mode("m", [[a]], [b], box)
    with pytest.raises(StateSpaceExit) as closed:
        solve_mode(mode, [x0], 0.0, 20.0, box)
    seg = ScalarAffineSegment(0.0, 20.0, x0, a, b)
    with pytest.raises(StateSpaceExit) as sampled:
        _containment_scan(FunctionSegment(0.0, 20.0, seg.values), box)
    assert closed.value.time == sampled.value.time == np.linspace(0.0, 20.0, 64)[sample]
    assert np.array_equal(closed.value.state, sampled.value.state)


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
    seg = solve_mode(affine_mode("m", [[a]], [b], box), [x0], 0.0, t1, box)
    assert 0.0 < seg.value(seg.t1)[0] <= 50.0


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
def test_two_state_exit_reports_the_sampled_scan_time_and_state(net, x0, box):
    with pytest.raises(StateSpaceExit) as closed:
        solve_mode(affine_mode("m", *net, box), x0, 0.0, 20.0, box)
    seg = AffineSegment(0.0, 20.0, x0, *net)
    with pytest.raises(StateSpaceExit) as sampled:
        _containment_scan(FunctionSegment(0.0, 20.0, seg.values), box)
    assert closed.value.time == sampled.value.time
    assert np.array_equal(closed.value.state, sampled.value.state)


@pytest.mark.parametrize(
    "net,x0,t1,box",
    [
        # V_out peaks 1e-9 below the box
        (NOR_SHARE, [1.0, 0.0], 20.0, StateSpace(((-0.01, 1.01), (-0.01, SHARE_PEAK + 1e-9)))),
        # both nodes settle onto the top
        (NOR_CHARGE, [0.0, 0.0], 1000.0, StateSpace(((-0.01, 1.0), (-0.01, 1.0)))),
    ],
)
def test_two_state_mode_just_inside_a_bound_is_accepted(net, x0, t1, box, monkeypatch):
    seg = AffineSegment(0.0, t1, x0, *net)
    _containment_scan(FunctionSegment(0.0, t1, seg.values), box)  # the sampled scan agrees
    # the piece ends decide it: no sample is taken
    monkeypatch.setattr(_SegmentBase, "sample_times", lambda self, n: pytest.fail("sampled"))
    got = solve_mode(affine_mode("m", *net, box), x0, 0.0, t1, box)
    assert all(lo < x <= hi + 1e-12 for x, (lo, hi) in zip(got.value(got.t1), box.bounds))


def test_a_growing_scalar_mode_exits_where_its_exponential_overflows():
    # e^{a t} passes the largest float long before t1; the state reads inf
    # there, as numpy's exp gives, and the scan reports the first sample out
    box = StateSpace(((-1.0, 51.0),))
    with pytest.raises(StateSpaceExit) as err:
        solve_mode(affine_mode("grow", [[1.0]], [0.0], box), 1.0, 0.0, 1000.0, box)
    assert err.value.time == np.linspace(0.0, 1000.0, 64)[1]
    assert err.value.state[0] > 51.0


def test_initial_state_outside_box_rejected():
    with pytest.raises(StateSpaceExit):
        solve_mode(HEAT, [60.0], 0.0, 1.0, PLANT_BOX)


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
    assert str(exc.value) == f"affine mode a={a}, b={b} has non-finite constants"


@pytest.mark.filterwarnings("error")
def test_a_corner_beyond_the_floats_bounds_the_rhs_by_infinity():
    mode = affine_mode("m", [[-1e4]], [0.0], StateSpace(((-1e306, 1.01e308),)))
    assert mode.rhs_bound_m == math.inf


@pytest.mark.parametrize("k, m", [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0), (1.0, -1.0)])
def test_a_mode_with_negative_or_nan_bounds_is_refused(k, m):
    with pytest.raises(ValueError) as exc:
        ModeFunction("m", lambda t, x: x, GeneralNumeric(), k, m)
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
