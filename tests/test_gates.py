"""Gate model tests: frozen closed-form delays and analytic charging oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from hybridgates.gates import (
    AdvancedNorParams,
    GateSpec,
    ModeEntry,
    SimpleNorParams,
    boolean_table,
    gate_output,
    initial_output_bit,
    make_advanced_nor,
    make_boolean_gate,
    make_const_gate,
    make_heater_plant,
    make_idm_channel,
    make_simple_nor,
    measure_idm_delays,
    mis_delay_sweep,
)
from hybridgates.modes import matching_output_signal
from hybridgates.signals import TIME_EPS, BinarySignal, ModeSwitchSignal, delay
from hybridgates.threshold import digitize

from conftest import binary_signals

LN2 = math.log(2.0)


class TestBooleanGates:
    def test_truth_table_lookup(self):
        t = boolean_table("nor2")
        assert t == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}
        t = boolean_table(lambda a, b: a and not b, arity=2)
        assert t[(1, 0)] == 1 and t[(1, 1)] == 0

    def test_nor_pulse_response(self):
        gate = make_boolean_gate("nor2", (0.1, 0.1))
        a = BinarySignal.pulse(1.0, 1.0, 5.0)
        b = BinarySignal.constant(0, 5.0)
        run = gate_output(gate, [a, b])
        # fast lag tau_f = 1e-4, so edges land delta + tau_f ln 2 after input
        tau_f = 1e-4
        assert run.output.initial_value == 1
        assert len(run.output.times) == 2
        assert run.output.times[0] == pytest.approx(1.1 + tau_f * LN2, abs=1e-12)
        assert run.output.times[1] == pytest.approx(2.1 + tau_f * LN2, abs=1e-12)

    def test_no_switch_when_target_unchanged(self):
        gate = make_boolean_gate("or2", (0.1, 0.1))
        a = BinarySignal(0, ((1.0, 1),), 5.0)
        b = BinarySignal(0, ((2.0, 1),), 5.0)
        run = gate_output(gate, [a, b])
        # B's rise does not change OR's target; only one mode switch happens
        assert run.switching.switch_times == (1.1,)
        assert len(run.output.times) == 1

    def test_initial_flight_produces_transition(self):
        gate = make_boolean_gate("not", (0.1,), initial_inputs=(0,), initial_output=0)
        run = gate_output(gate, [BinarySignal.constant(0, 1.0)])
        assert initial_output_bit(gate) == 0
        assert run.output.initial_value == 0
        assert len(run.output.times) == 1
        assert run.output.times[0] == pytest.approx(1e-4 * LN2, abs=1e-12)

    def test_declared_initial_inputs_enforced(self):
        gate = make_boolean_gate("nor2", (0.1, 0.1), initial_inputs=(0, 0))
        with pytest.raises(ValueError):
            gate_output(gate, [BinarySignal.constant(1, 5.0), BinarySignal.constant(0, 5.0)])

    @given(a=binary_signals(), b=binary_signals())
    @settings(max_examples=40, deadline=None)
    def test_settled_output_matches_table(self, a, b):
        gate = make_boolean_gate(
            "or2",
            (0.1, 0.2),
            initial_inputs=(a.initial_value, b.initial_value),
        )
        run = gate_output(gate, [a, b])
        last_event = max(
            [t + d for s, d in ((a, 0.1), (b, 0.2)) for t in s.times],
            default=0.0,
        )
        assume(a.horizon - last_event > 1e-2)
        want = run.output.final_value
        have = a.final_value | b.final_value
        assert want == have


class TestConstGate:
    def test_constant_one(self):
        run = gate_output(make_const_gate(1), [], horizon=5.0)
        assert run.output.initial_value == 1
        assert run.output.times == ()

    def test_requires_horizon(self):
        with pytest.raises(ValueError):
            gate_output(make_const_gate(0), [])


class TestIdmChannel:
    def test_step_rise_time(self):
        gate = make_idm_channel(tau=1.0, delta_min=0.1)
        run = gate_output(gate, [BinarySignal(0, ((1.0, 1),), 10.0)])
        assert run.output.times == pytest.approx((1.0 + 0.1 + LN2,), abs=1e-10)
        assert run.switching.switch_times == (1.1,)
        assert set(run.family) == {"up", "down"}

    def test_falling_delay_matches_closed_form(self):
        # input falls T after the measured output rise; the falling delay is
        # delta_min + tau ln(2 - exp(-(T + delta_min)/tau))
        tau, dm = 1.0, 0.1
        for T in (0.0, 0.5, 2.0):
            m = measure_idm_delays(T, tau=tau, delta_min=dm)
            want = dm + tau * math.log(2.0 - math.exp(-(T + dm) / tau))
            assert m.delta_down == pytest.approx(want, abs=1e-9)

    def test_delay_roundtrip_is_identity(self):
        for T in (0.0, 0.25, 1.0, 3.0, 5.0):
            m = measure_idm_delays(T)
            assert m.roundtrip_error <= 1e-6
            assert m.t_prime == pytest.approx(-m.delta_down, abs=1e-15)

    def test_cancelling_rise_removes_output_edge(self):
        # the rising input lands before the output would fall, so the output
        # pulse is swallowed entirely
        tau, dm = 1.0, 0.1
        gate = make_idm_channel(tau, dm, initial_input=1)
        o_ref = 1.0 + dm + tau * LN2
        sig = BinarySignal(1, ((1.0, 0), (o_ref - 0.3, 1)), 10.0)
        run = gate_output(gate, [sig])
        assert run.output.initial_value == 1
        assert run.output.times == ()


class TestHeaterPlant:
    def test_heating_crossing(self):
        gate = make_heater_plant(delta=0.01, xi=21.0, initial_input=1, initial_state=20.0)
        run = gate_output(gate, [BinarySignal.constant(1, 10.0)], horizon=10.0)
        # T(t) = 50 - 30 e^{-t/10} reaches 21 at 10 ln(30/29)
        assert run.output.initial_value == 0
        assert run.output.times == pytest.approx((10.0 * math.log(30.0 / 29.0),), abs=1e-9)

    def test_start_on_the_threshold_rises_at_zero(self):
        # T(0) == xi reads 0, and heating lifts T above xi at once
        xi = 15.559676186291409
        gate = make_heater_plant(delta=0.001, xi=xi, initial_input=1, initial_state=xi)
        run = gate_output(gate, [BinarySignal.constant(1, 5.0)])
        assert run.output.initial_value == 0
        assert run.output.times == (0.0,)

    def test_cooling_crossing(self):
        gate = make_heater_plant(delta=0.01, xi=19.0, initial_input=0, initial_state=20.0)
        run = gate_output(gate, [BinarySignal.constant(0, 10.0)])
        # T(t) = 20 e^{-t/10} falls to 19 at 10 ln(20/19)
        assert run.output.initial_value == 1
        assert run.output.times == pytest.approx((10.0 * math.log(20.0 / 19.0),), abs=1e-9)


def _simple_nor_rise_oracle():
    """Crossing of V_out for the (0,0) network from (0,0), via expm + brentq."""
    aug = np.array([[-2.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    y0 = np.array([0.0, 0.0, 1.0])

    def vout(s):
        return (expm(aug * s) @ y0)[1] - 0.5

    return brentq(vout, 0.05, 20.0, xtol=1e-13)


class TestSimpleNor:
    def test_initial_state_is_network_equilibrium(self):
        assert make_simple_nor().initial_state == pytest.approx((1.0, 1.0))
        assert make_simple_nor(initial_inputs=(0, 1)).initial_state == pytest.approx((1.0, 0.0))
        assert make_simple_nor(initial_inputs=(1, 1)).initial_state == pytest.approx((0.0, 0.0))

    def test_simultaneous_rise_discharges_through_both(self):
        gate = make_simple_nor()
        h = 5.0
        a = BinarySignal(0, ((1.0, 1),), h)
        b = BinarySignal(0, ((1.0, 1),), h)
        run = gate_output(gate, [a, b])
        # atomic double edge selects the (1,1) network directly
        assert [m for _, m in run.switching.switches] == ["s11"]
        assert run.output.times == pytest.approx((1.1 + LN2 / 2.0,), abs=1e-10)

    def test_start_on_the_threshold_rises_at_once(self):
        # V_out == xi reads 0, and the (0,0) network charges it at once
        gate = make_simple_nor(initial_inputs=(0, 0), initial_state=(1.0, 0.5))
        run = gate_output(gate, [BinarySignal.constant(0, 5.0)] * 2)
        assert run.output.initial_value == 0
        assert len(run.output.times) == 1
        assert run.output.times[0] == pytest.approx(0.0, abs=1e-12)

    def test_rise_delay_matches_expm_oracle(self):
        delays = mis_delay_sweep(
            lambda: make_simple_nor(initial_inputs=(1, 1)), [0.7]
        )
        assert delays[0] == pytest.approx(0.1 + _simple_nor_rise_oracle(), abs=1e-7)

    def test_rising_mis_is_flat(self):
        # the (1,0) interlude freezes the discharged state, so the gap
        # between the falling inputs cannot influence the rise
        delays = mis_delay_sweep(
            lambda: make_simple_nor(initial_inputs=(1, 1)), [0.0, 0.3, 1.0, 3.0]
        )
        assert max(delays) - min(delays) < 1e-9


def _f5_crossing_oracle():
    # dV = (1-V) t/(2t+1): 1 - V = (2t+1)^{1/4} e^{-t/2}
    f = lambda s: 0.25 * math.log(2.0 * s + 1.0) - 0.5 * s - math.log(0.5)
    return brentq(f, 0.05, 30.0, xtol=1e-13)


def _f3_inf_crossing_oracle():
    # dV = (1-V) t/(2t+1/2): 1 - V = (1+4t)^{1/8} e^{-t/2}
    f = lambda s: 0.125 * math.log(1.0 + 4.0 * s) - 0.5 * s - math.log(0.5)
    return brentq(f, 0.05, 30.0, xtol=1e-13)


class TestAdvancedNor:
    def test_simultaneous_fall_matches_closed_form(self):
        delays = mis_delay_sweep(
            lambda: make_advanced_nor(initial_inputs=(1, 1)), [0.0]
        )
        assert delays[0] == pytest.approx(0.1 + _f5_crossing_oracle(), abs=1e-6)

    def test_never_fallen_companion_matches_closed_form(self):
        gate = make_advanced_nor(initial_inputs=(1, 0))
        h = 25.0
        a = BinarySignal(1, ((1.0, 0),), h)
        b = BinarySignal.constant(0, h)
        run = gate_output(gate, [a, b])
        rises = [tr.time for tr in run.output.transitions if tr.value == 1]
        assert rises[0] - 1.0 == pytest.approx(0.1 + _f3_inf_crossing_oracle(), abs=1e-6)

    def test_tiny_gap_approaches_simultaneous_case(self):
        base = mis_delay_sweep(lambda: make_advanced_nor(initial_inputs=(1, 1)), [0.0])
        near = mis_delay_sweep(lambda: make_advanced_nor(initial_inputs=(1, 1)), [1e-8])
        assert near[0] == pytest.approx(base[0], abs=1e-5)

    def test_large_gap_approaches_never_fallen_limit(self):
        far = mis_delay_sweep(lambda: make_advanced_nor(initial_inputs=(1, 1)), [20.0], settle=25.0)
        inf_delay = 0.1 + _f3_inf_crossing_oracle()
        assert far[0] > inf_delay
        assert far[0] - inf_delay < 0.05 * inf_delay

    def test_rising_mis_is_monotone_with_real_spread(self):
        gaps = [0.0, 0.2, 0.5, 1.0, 2.0, 5.0]
        delays = mis_delay_sweep(
            lambda: make_advanced_nor(initial_inputs=(1, 1)), gaps, settle=25.0
        )
        assert all(a > b for a, b in zip(delays, delays[1:]))
        assert (delays[0] - delays[-1]) / delays[0] > 0.05

    def test_fresh_charging_modes_per_entry(self):
        gate = make_advanced_nor(initial_inputs=(0, 0))
        h = 40.0
        a = BinarySignal(0, ((1.0, 1), (2.0, 0), (15.0, 1), (16.0, 0)), h)
        b = BinarySignal.constant(0, h)
        run = gate_output(gate, [a, b])
        chg = [mid for mid in run.family if str(mid).startswith("chg")]
        assert len(chg) == 2  # one per (0,0) entry, each with its own clock


class TestGateSpecValidation:
    def test_wrong_delay_count(self):
        with pytest.raises(ValueError):
            make_boolean_gate("nor2", (0.1,))

    def test_initial_state_outside_box(self):
        gate = make_idm_channel()
        with pytest.raises(ValueError):
            GateSpec(
                name="bad",
                arity=1,
                input_delays=(0.1,),
                choice=gate.choice,
                initial_inputs=(0,),
                initial_state=(5.0,),
                threshold=gate.threshold,
                state_space=gate.state_space,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_delay(self, bad):
        gate = make_idm_channel()
        with pytest.raises(ValueError, match="finite"):
            GateSpec(
                name="bad",
                arity=1,
                input_delays=(bad,),
                choice=gate.choice,
                initial_inputs=(0,),
                initial_state=(0.0,),
                threshold=gate.threshold,
                state_space=gate.state_space,
            )

    def test_zero_delay_is_rejected(self):
        # gate_output is a circuit run, and circuits need positive delays
        gate = make_idm_channel(delta_min=0.0)
        with pytest.raises(ValueError, match="nonpositive-delay"):
            gate_output(gate, [BinarySignal(0, ((1.0, 1),), 5.0)])

    def test_input_count_mismatch(self):
        gate = make_idm_channel()
        with pytest.raises(ValueError):
            gate_output(gate, [])


# -- oracle: the run equals its own mode-switch signal, solved and digitized --

_ORACLE_HORIZON = 5.0
_BOOLEAN_FUNCTIONS = ("buf", "not", "and2", "or2", "nand2", "nor2", "xor2", "xnor2")


@st.composite
def _grid_signal(draw, grid: float):
    """Edges on a time grid, so delayed edges of different inputs coincide."""
    steps = draw(
        st.lists(
            st.integers(1, int(_ORACLE_HORIZON / grid) - 1), max_size=6, unique=True
        )
    )
    init = draw(st.integers(0, 1))
    times = sorted(k * grid for k in steps)
    return BinarySignal(
        init, tuple((t, (init + i + 1) % 2) for i, t in enumerate(times)), _ORACLE_HORIZON
    )


@st.composite
def _gates_and_inputs(draw):
    """A random gate of one of the five factory kinds, with matching inputs."""
    kind = draw(st.sampled_from(("boolean", "idm", "heater", "snor", "anor")))
    grid = draw(st.sampled_from((1e-3, 0.05, 0.1)))
    unit = st.floats(0.5, 2.0)
    arity = 2 if kind in ("snor", "anor") else 1
    if kind == "boolean":
        function = draw(st.sampled_from(_BOOLEAN_FUNCTIONS))
        arity = 1 if function in ("buf", "not") else 2
    inputs = [draw(_grid_signal(grid)) for _ in range(arity)]
    bits = tuple(s.initial_value for s in inputs)
    delays = tuple(grid * draw(st.integers(1, 5)) for _ in range(arity))
    if kind == "boolean":
        gate = make_boolean_gate(
            function, delays, initial_inputs=bits, initial_output=draw(st.integers(0, 1))
        )
    elif kind == "idm":
        gate = make_idm_channel(
            draw(unit), delays[0], draw(st.floats(0.1, 0.9)), initial_input=bits[0]
        )
    elif kind == "heater":
        gate = make_heater_plant(
            delays[0], draw(st.floats(15.0, 25.0)), bits[0], draw(st.floats(10.0, 30.0))
        )
    elif kind == "snor":
        params = SimpleNorParams(*(draw(unit) for _ in range(6)))
        gate = make_simple_nor(params, delays, bits)
    else:
        params = AdvancedNorParams(*(draw(unit) for _ in range(6)))
        gate = make_advanced_nor(params, delays, bits)
    return kind, gate, inputs


def _walked_switching(gate: GateSpec, inputs) -> ModeSwitchSignal:
    """Mode-switch signal of a memoryless gate from its delayed, coalesced edges."""
    edges = sorted(
        (tr.time, i, tr.value)
        for i, s in enumerate(inputs)
        for tr in delay(s, gate.input_delays[i]).transitions
    )
    no_history = ModeEntry(None, (None,) * gate.arity)
    bits = gate.initial_inputs
    initial = gate.choice(bits, None, no_history).id
    switches = []
    k = 0
    while k < len(edges):
        t0, prev, new = edges[k][0], bits, list(bits)
        while k < len(edges) and edges[k][0] - t0 <= TIME_EPS:
            new[edges[k][1]] = edges[k][2]
            k += 1
        bits = tuple(new)
        switches.append((t0, gate.choice(bits, prev, no_history).id))
    return ModeSwitchSignal(initial, tuple(switches), _ORACLE_HORIZON)


class TestGateOutputOracle:
    @given(case=_gates_and_inputs())
    @settings(max_examples=120, deadline=None)
    def test_output_is_the_digitized_matching_trajectory(self, case):
        kind, gate, inputs = case
        run = gate_output(gate, inputs)
        want = digitize(
            matching_output_signal(
                run.family, run.switching, gate.initial_state, gate.state_space
            ),
            gate.threshold,
        )
        assert run.output.initial_value == want.initial_value
        assert [tr.value for tr in run.output.transitions] == [
            tr.value for tr in want.transitions
        ]
        tol = 1e-7 if kind == "anor" else 1e-11
        assert run.output.times == pytest.approx(want.times, abs=tol, rel=0)
        if kind != "anor":  # memoryless: the choice depends on the bits alone
            assert run.switching == _walked_switching(gate, inputs)
