"""Signal algebra: construction, delay, metrics, pulse widths, CSV."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridgates.signals import (
    BinarySignal,
    ModeSwitchSignal,
    Transition,
    delay,
    min_pulse_width,
    mode_distance,
    one_norm_distance,
    read_signal_csv,
    write_signal_csv,
)

from conftest import binary_signals, random_mode_signal, reference_signal_transitions


# -- construction and canonicalization -----------------------------------


def test_alternation_enforced():
    with pytest.raises(ValueError, match="alternate"):
        BinarySignal(0, ((1.0, 1), (2.0, 1)), 10.0)
    with pytest.raises(ValueError, match="alternate"):
        BinarySignal(1, ((1.0, 1),), 10.0)


def test_sorted_times_enforced():
    with pytest.raises(ValueError, match="sorted"):
        BinarySignal(0, ((2.0, 1), (1.0, 0)), 10.0)


def test_out_of_range_transition_rejected():
    with pytest.raises(ValueError, match="outside"):
        BinarySignal(0, ((11.0, 1),), 10.0)
    with pytest.raises(ValueError, match="outside"):
        BinarySignal(0, ((-1.0, 1),), 10.0)


@pytest.mark.parametrize(
    "item, message",
    [((math.nan, 1), "transition time must be finite, got nan"),
     ((math.inf, 1), "transition time must be finite, got inf"),
     ((1.0, 2), "transition value must be 0 or 1, got 2"),
     (Transition(1.0, 2), "transition value must be 0 or 1, got 2"),
     (Transition(1.0, 1.5), "transition value must be 0 or 1, got 1.5")],
)
def test_each_transition_is_checked_once_by_its_signal(item, message):
    with pytest.raises(ValueError) as exc:
        BinarySignal(0, (item,), 10.0)
    assert str(exc.value) == message


@st.composite
def signal_constructions(draw):
    """``(initial value, transitions, horizon)`` to build a BinarySignal
    from: chains of times within TIME_EPS of each other (cancel chains),
    times just outside 0 and the horizon, unsorted times, values that are
    not bits, and NaN or infinite times."""
    horizon = draw(st.sampled_from([1.0, 10.0, 10]))
    initial = draw(st.sampled_from([0, 1]))
    ends = [-2e-12, -1e-12, -5e-13, -0.0, 0.0, horizon - 5e-13, horizon, horizon + 5e-13, horizon + 2e-12]
    near = [0.0, 1e-13, 5e-13, 5e-13, 1e-12, 1e-12, 1.5e-12, -1e-13, -5e-13, -1.5e-12]
    odd = draw(st.booleans())  # whether values that are not bits and times that are not finite may appear
    steps = ["near"] * 6 + ["on"] * 3 + ["back", "end"] + ["not finite"] * odd
    t, v, items = draw(st.sampled_from([0.0, -5e-13, horizon / 2, horizon / 2])), 1 - initial, []
    for _ in range(draw(st.integers(0, 8))):
        step = draw(st.sampled_from(steps))
        if step == "near":
            t += draw(st.sampled_from(near))
        elif step == "on":
            t += draw(st.floats(1e-6, horizon / 16))
        elif step == "back":
            t -= draw(st.floats(1e-11, horizon / 16))
        elif step == "end":
            t = draw(st.sampled_from(ends))
        else:
            t = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        value = draw(st.sampled_from([v] * 8 + [1 - v, float(v), bool(v)] + [2, -1, 0.5, math.nan] * odd))
        items.append(draw(st.sampled_from([(t, value), Transition(t, value)])))
        v = 1 - v
    return initial, tuple(items), horizon


@settings(max_examples=1000, deadline=None)
@given(case=signal_constructions())
@example(case=(0, ((10 + 5e-13, 1),), 10))  # clamped to the int horizon itself
@example(case=(0, ((-0.0, 1),), 1.0))  # kept as -0.0
@example(case=(0, ((1.0, 1), (2.0, 1), (2.0 + 5e-13, 0)), 10.0))  # a repeat that a cancellation takes back
@example(case=(1, ((1.0, 0), (2.0, 1), (3.0, 0), (3.0 + 5e-13, 1), (2.0 + 5e-13, 0)), 10.0))  # a cancel chain
@example(case=(0, ((0.0, 1), (1e-12, 0), (10.0, 1)), 10.0))  # a gap of exactly TIME_EPS
@example(case=(1.0, ((0.0, 0), (5, True)), 10))  # a float bit, an int time and a bool value
def test_construction_in_one_pass_matches_the_two_pass_reference(case):
    try:
        expected = reference_signal_transitions(*case)
    except Exception as exc:  # the same exception, with the same message
        with pytest.raises(type(exc)) as got:
            BinarySignal(*case)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        # repr tells -0.0 from 0.0 and an int time from a float one
        signal = BinarySignal(*case)
        assert repr(signal.transitions) == repr(expected)
        assert repr(signal._times) == repr(tuple(tr.time for tr in expected))
        assert repr(signal._levels) == repr((case[0], *(tr.value for tr in expected)))


def test_an_int_pulse_start_is_stored_as_a_float():
    (rise, fall) = BinarySignal.pulse(1, 0.5, 30).transitions
    assert type(rise.time) is float and rise.time == 1.0
    assert fall == (1.5, 0)


def test_transitions_and_pairs_build_equal_signals():
    pairs = BinarySignal(1, ((0.0, 0), (2.5, 1), (7, 0)), 10.0)
    records = BinarySignal(1, (Transition(0.0, 0), Transition(2.5, 1), Transition(7, 0)), 10.0)
    assert pairs == records
    assert pairs.transitions == (Transition(0.0, 0), Transition(2.5, 1), Transition(7.0, 0))
    assert all(type(tr.time) is float for tr in records.transitions)


def test_zero_width_pulse_canonicalized_away():
    t = 3.0
    s = BinarySignal(0, ((1.0, 1), (2.0, 0), (t, 1), (t + 1e-13, 0)), 10.0)
    assert s.times == (1.0, 2.0)


def test_transition_at_zero_encodes_jump():
    s = BinarySignal(0, ((0.0, 1),), 5.0)
    assert s.initial_value == 0
    assert s.value_at(0.0) == 1


def test_value_at_right_continuous():
    s = BinarySignal(0, ((1.0, 1), (3.0, 0)), 10.0)
    assert s.value_at(0.5) == 0
    assert s.value_at(1.0) == 1  # right-continuity at the edge
    assert s.value_at(2.999) == 1
    assert s.value_at(3.0) == 0
    assert s.value_at(10.0) == 0


def test_intervals_partition_horizon():
    s = BinarySignal(1, ((2.0, 0), (7.5, 1)), 10.0)
    assert s.intervals() == [(0.0, 2.0, 1), (2.0, 7.5, 0), (7.5, 10.0, 1)]


@pytest.mark.parametrize(
    "start, width, message",
    [(math.nan, 1.0, "pulse start must be finite, got nan"),
     (math.inf, 1.0, "pulse start must be finite, got inf"),
     (1.0, math.nan, "pulse width must be finite and positive, got nan"),
     (1.0, math.inf, "pulse width must be finite and positive, got inf"),
     (1.0, 0.0, "pulse width must be finite and positive, got 0.0")],
)
def test_pulse_needs_finite_start_and_width(start, width, message):
    with pytest.raises(ValueError) as exc:
        BinarySignal.pulse(start, width, 10.0)
    assert str(exc.value) == message


def test_pulse_constructor_truncates_at_horizon():
    s = BinarySignal.pulse(8.0, 5.0, 10.0)
    assert s.times == (8.0,)
    assert s.final_value == 1


# -- delay ----------------------------------------------------------------


def test_delay_shifts_and_drops_past_horizon():
    s = BinarySignal(0, ((1.0, 1), (9.5, 0)), 10.0)
    d = delay(s, 1.0)
    assert d.times == (2.0,)
    assert d.initial_value == 0


def test_delay_of_jump_at_zero():
    # initial 1 with an immediate drop, delayed by 0.3
    s = BinarySignal(1, ((0.0, 0),), 10.0)
    d = delay(s, 0.3)
    assert d.initial_value == 1
    assert d.times == (0.3,)
    assert d.value_at(0.1) == 1


def test_delay_composes():
    s = BinarySignal(0, ((1.0, 1), (4.0, 0)), 20.0)
    assert delay(delay(s, 0.5), 0.25).times == delay(s, 0.75).times


# -- one-norm distance -----------------------------------------------------


def test_one_norm_of_overlapping_pulses():
    # high on [1,3) vs high on [2,4): symmetric difference has measure 2
    s1 = BinarySignal.pulse(1.0, 2.0, 10.0)
    s2 = BinarySignal.pulse(2.0, 2.0, 10.0)
    assert one_norm_distance(s1, s2) == pytest.approx(2.0, abs=1e-12)


def test_one_norm_differing_initial_values():
    s1 = BinarySignal.constant(0, 7.0)
    s2 = BinarySignal.constant(1, 7.0)
    assert one_norm_distance(s1, s2) == pytest.approx(7.0, abs=1e-12)


def test_one_norm_horizon_mismatch_rejected():
    with pytest.raises(ValueError, match="horizon"):
        one_norm_distance(BinarySignal.constant(0, 5.0), BinarySignal.constant(0, 6.0))


def _one_norm_oracle(s1: BinarySignal, s2: BinarySignal, n: int = 200_001) -> float:
    # Riemann-style midpoint scan; independent of the interval merge.
    total = 0.0
    dt = s1.horizon / n
    for i in range(n):
        t = (i + 0.5) * dt
        if s1.value_at(t) != s2.value_at(t):
            total += dt
    return total


@settings(max_examples=25, deadline=None)
@given(binary_signals(), binary_signals())
def test_one_norm_matches_grid_oracle(s1, s2):
    exact = one_norm_distance(s1, s2)
    approx = _one_norm_oracle(s1, s2, n=20_001)
    assert abs(exact - approx) < 2 * 6 * (10.0 / 20_001) + 1e-9, (
        f"merged-scan 1-norm {exact} vs grid oracle {approx}"
    )


@settings(max_examples=40, deadline=None)
@given(binary_signals(), binary_signals(), binary_signals())
def test_one_norm_triangle_inequality(a, b, c):
    dab = one_norm_distance(a, b)
    dbc = one_norm_distance(b, c)
    dac = one_norm_distance(a, c)
    assert dac <= dab + dbc + 1e-9, f"{dac} > {dab} + {dbc}"


# -- mode-switch signals ----------------------------------------------------


def test_mode_signal_drops_noop_switches():
    a = ModeSwitchSignal("up", ((1.0, "up"), (2.0, "down")), 5.0)
    assert a.switches == ((2.0, "down"),)


def test_mode_signal_coincident_switches_last_wins():
    a = ModeSwitchSignal("a", ((1.0, "b"), (1.0 + 1e-13, "c")), 5.0)
    assert a.switches == ((1.0, "c"),)


def test_mode_at_right_continuous():
    a = ModeSwitchSignal("a", ((2.0, "b"),), 5.0)
    assert a.mode_at(2.0) == "b"
    assert a.mode_at(1.999) == "a"


def _mode_distance_oracle(a: ModeSwitchSignal, b: ModeSwitchSignal) -> float:
    # per-interval accumulation over each signal's own partition refined
    # by the other's switch times
    total = 0.0
    for lo, hi, mode in a.intervals():
        cuts = sorted({lo, hi} | {t for t in b.switch_times if lo < t < hi})
        for x, y in zip(cuts, cuts[1:]):
            if b.mode_at(x) != mode:
                total += y - x
    return total


def test_mode_distance_two_ways_agree(rng):
    modes = ["m0", "m1", "m2"]
    for _ in range(60):
        a = random_mode_signal(rng, 8.0, modes)
        b = random_mode_signal(rng, 8.0, modes)
        d1 = mode_distance(a, b)
        d2 = _mode_distance_oracle(a, b)
        assert abs(d1 - d2) <= 1e-12, f"{d1} vs {d2}"


def test_mode_distance_pseudometric(rng):
    modes = ["x", "y"]
    for _ in range(40):
        a = random_mode_signal(rng, 4.0, modes)
        b = random_mode_signal(rng, 4.0, modes)
        c = random_mode_signal(rng, 4.0, modes)
        assert mode_distance(a, a) == 0.0
        assert abs(mode_distance(a, b) - mode_distance(b, a)) <= 1e-12
        assert mode_distance(a, c) <= mode_distance(a, b) + mode_distance(b, c) + 1e-12


def test_mode_distance_single_shifted_switch():
    a = ModeSwitchSignal("off", ((1.0, "on"),), 10.0)
    b = ModeSwitchSignal("off", ((1.25, "on"),), 10.0)
    assert mode_distance(a, b) == pytest.approx(0.25, abs=1e-12)


# -- pulse widths ------------------------------------------------------------


def test_min_pulse_width_counts_only_complete_high_pulses():
    s = BinarySignal(1, ((2.0, 0), (3.0, 1), (4.0, 0)), 10.0)
    assert min_pulse_width(s) == pytest.approx(1.0)


def test_min_pulse_width_none_when_no_pulse():
    assert min_pulse_width(BinarySignal.constant(1, 5.0)) is None
    # rises and stays high
    assert min_pulse_width(BinarySignal(0, ((1.0, 1),), 5.0)) is None


def test_min_pulse_width_picks_shortest():
    s = BinarySignal(0, ((1.0, 1), (1.2, 0), (3.0, 1), (3.05, 0)), 10.0)
    assert min_pulse_width(s) == pytest.approx(0.05)


# -- CSV round trip -----------------------------------------------------------


def test_signal_csv_roundtrip(tmp_path):
    s = BinarySignal(1, ((0.5, 0), (2.0 / 3.0, 1), (5.0, 0)), 12.5)
    path = tmp_path / "sig.csv"
    write_signal_csv(s, path, metadata={"tool": "hybridgates"})
    back = read_signal_csv(path)
    assert back.initial_value == s.initial_value
    assert back.horizon == s.horizon
    assert back.times == s.times  # exact float round trip via repr
    assert [tr.value for tr in back.transitions] == [tr.value for tr in s.transitions]


def test_signal_csv_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n1.0,1\n")
    with pytest.raises(ValueError, match="initial"):
        read_signal_csv(path)
