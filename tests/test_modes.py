"""Mode solving: closed forms, dense output, pasting, and the sup metric."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hybridgates.modes import (
    AffineSegment,
    DEFAULT_CONFIG,
    FunctionSegment,
    GeneralNumeric,
    ModeFunction,
    SolverConfig,
    StateSpace,
    StateSpaceExit,
    Trajectory,
    affine_mode,
    matching_output_signal,
    solve_mode,
    sup_distance,
    write_trajectory_csv,
)
from hybridgates.modes import _containment_scan
from hybridgates.signals import ModeSwitchSignal

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
    assert seg.end_state[0] == pytest.approx(math.exp(-5.0), rel=1e-12)


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


def test_defective_augmented_matrix_falls_back_to_expm():
    # dx1 = x2, dx2 = 1: nilpotent augmented matrix, not diagonalizable.
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([0.0, 1.0])
    seg = AffineSegment(0.0, 4.0, [0.0, 0.0], a, b)
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
    seg = AffineSegment(1.5, 4.0, x0, a, b)
    assert np.array_equal(seg.value(1.5), x0)
    assert np.array_equal(seg.values([1.5, 4.0])[0], x0)


def test_with_end_keeps_the_values_of_a_rebuilt_segment():
    a = np.array([[-1.0, 1.0], [1.0, -2.0]])
    b = np.array([0.3, 0.1])
    seg = AffineSegment(0.5, 4.0, [0.2, 0.9], a, b)
    cut = seg.with_end(2.0)
    rebuilt = AffineSegment(0.5, 2.0, [0.2, 0.9], a, b)
    ts = np.linspace(0.5, 2.0, 7)
    assert (cut.t0, cut.t1) == (0.5, 2.0)
    assert np.array_equal(cut.values(ts), rebuilt.values(ts))
    assert np.array_equal(cut.end_state, rebuilt.end_state)
    assert seg.t1 == 4.0
    with pytest.raises(ValueError):
        seg.with_end(0.25)


# -- numeric vs closed form -------------------------------------------------------


def _as_numeric(mode: ModeFunction) -> ModeFunction:
    return ModeFunction(
        mode.id + "_numeric",
        mode.rhs,
        GeneralNumeric(),
        mode.lipschitz_k,
        mode.rhs_bound_m,
    )


@pytest.mark.parametrize("mode,x0", [(HEAT, [20.0]), (COOL, [45.0])])
def test_adaptive_integrator_agrees_with_closed_form(mode, x0):
    closed = solve_mode(mode, x0, 0.0, 10.0, PLANT_BOX)
    numeric = solve_mode(_as_numeric(mode), x0, 0.0, 10.0, PLANT_BOX)
    ts = np.linspace(0.0, 10.0, 400)
    ref = closed.values(ts)
    err = np.max(np.abs(numeric.values(ts) - ref))
    scale = np.max(np.abs(ref))
    assert err / scale < 1e-8, f"relative disagreement {err / scale}"


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
    seg = AffineSegment(0.0, 20.0, [x0], [[a]], [b])
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
    assert 0.0 < seg.end_state[0] <= 50.0


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
    assert traj.max_junction_mismatch() <= 1e-9


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
