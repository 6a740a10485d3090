"""Gate model tests: frozen closed-form delays and analytic charging oracles."""

import dataclasses
import gc
import itertools
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
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
from hybridgates import modes
from hybridgates.circuit import Circuit, InputPort, InvalidCircuitError, OutputPort, execute
from hybridgates.cli import _preset_names
from hybridgates.modes import (
    RelaxationSegment,
    Trajectory,
    matching_output_signal,
    solve_mode,
)
from hybridgates.signals import TIME_EPS, BinarySignal, ModeSwitchSignal, delay
from hybridgates.threshold import digitize, find_crossings

from conftest import (
    FunctionSegment,
    binary_signals,
    preset_stimulus,
    reference_charging_exponent,
    run_every_shipped_gate,
    run_fresh_python,
    sampled_crossings,
)

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

    @pytest.mark.parametrize("bad", [2, -1])
    def test_initial_output_must_be_a_bit(self, bad):
        with pytest.raises(ValueError) as exc:
            make_boolean_gate("buf", (0.1,), initial_output=bad)
        assert str(exc.value) == f"initial_output must be a bit, got {bad}"

    def test_initial_inputs_that_are_not_bits_are_named(self):
        # checked before the truth table is read, so not a bare KeyError: (2,)
        with pytest.raises(ValueError) as exc:
            make_boolean_gate("buf", (0.1,), initial_inputs=(2,))
        assert str(exc.value) == "initial_inputs[0] must be a bit, got 2"
        with pytest.raises(ValueError) as exc:
            make_boolean_gate("nor2", (0.1, 0.1), initial_inputs=(0,))
        assert str(exc.value) == "need 2 initial input bits"

    def test_declared_initial_inputs_enforced(self):
        gate = make_boolean_gate("nor2", (0.1, 0.1), initial_inputs=(0, 0))
        bad = [BinarySignal.constant(1, 5.0), BinarySignal.constant(0, 5.0)]
        # the same whole message on every call, before and after a good one
        for inputs in (bad, bad, [BinarySignal.constant(0, 5.0)] * 2, bad):
            if inputs is not bad:
                gate_output(gate, inputs)
                continue
            with pytest.raises(InvalidCircuitError) as exc:
                gate_output(gate, inputs)
            assert str(exc.value) == (
                "circuit failed validation: initial-input-mismatch[gate]: "
                "slot 0 declared 0 but 'in0' starts at 1"
            )

    def test_repeated_runs_of_one_gate_are_equal(self):
        gate = make_advanced_nor()
        inputs = [BinarySignal(0, ((1.0, 1), (3.0, 0)), 8.0), BinarySignal(0, ((1.5, 1),), 8.0)]
        first = gate_output(gate, inputs)
        assert gate_output(gate, inputs) == first
        # a circuit built for other initial bits leaves this one alone
        with pytest.raises(InvalidCircuitError):
            gate_output(gate, [BinarySignal.constant(1, 8.0)] * 2)
        again = gate_output(gate, inputs)
        assert again == first
        assert gate_output(make_advanced_nor(), inputs).output == first.output

    def test_a_gate_that_has_run_is_collected(self):
        gate = make_simple_nor(initial_inputs=(1, 1))
        mis_delay_sweep(lambda: gate, [0.0, 1.0])
        gate_output(gate, [BinarySignal.constant(1, 5.0)] * 2)
        ref = weakref.ref(gate)
        del gate
        gc.collect()
        assert ref() is None

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

    @settings(max_examples=60, deadline=None)
    @given(
        tau=st.floats(0.1, 10.0),
        lag=st.floats(1e-3, 2.0),
        separation=st.floats(0.0, 13.0),
    )
    def test_delay_roundtrip_is_identity_over_drawn_channels(self, tau, lag, separation):
        # delta_min and T in time constants, 15 at most together: a zero
        # delta_min is refused by the factory, past ~25 the cancelling edge is
        # refused as unresolvable, and in between delta_up loses precision
        # (pinned below)
        T, dm = separation * tau, lag * tau
        m = measure_idm_delays(T, tau=tau, delta_min=dm)
        assert m.roundtrip_error <= 1e-6
        assert m.t_prime == -m.delta_down

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="delta_up is read off a state within 1e-9 of 1")
    def test_delay_roundtrip_twenty_time_constants_out(self):
        # not refused (the cancelling edge comes 9.3e-10 after the falling
        # one), but 1 - x_sw keeps ~7 digits, so the round trip misses by 2.1e-6
        m = measure_idm_delays(20.0, tau=1.0, delta_min=0.1)
        assert m.roundtrip_error <= 1e-6

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

    @pytest.mark.parametrize("bad", [0.5, 2, -1])
    def test_initial_input_must_be_a_bit(self, bad):
        # the channel starts at its input's level, so 0.5 is no bit to round
        with pytest.raises(ValueError) as exc:
            make_idm_channel(initial_input=bad)
        assert str(exc.value) == f"initial_input must be a bit, got {bad!r}"


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "factory, field", [(make_idm_channel, "delta_min"), (make_heater_plant, "delta")]
)
def test_a_single_delay_factory_refuses_a_delay_no_run_can_use(factory, field, bad):
    # circuits need positive delays, so the factory refuses as validation would
    with pytest.raises(ValueError) as exc:
        factory(**{field: bad})
    assert str(exc.value) == f"{field} must be finite and positive, got {bad!r}"


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


_MEMORYLESS = {
    "boolean": lambda: make_boolean_gate("xor2", (0.1, 0.2)),
    "const": lambda: make_const_gate(1),
    "idm": make_idm_channel,
    "heater": make_heater_plant,
    "simple_nor": make_simple_nor,
}


def _lag(mode):
    return mode.kind.a.tolist(), mode.kind.b.tolist()


class TestMemorylessGates:
    @pytest.mark.parametrize("factory", _MEMORYLESS.values(), ids=_MEMORYLESS)
    def test_choice_reads_the_current_bits_alone(self, factory):
        gate = factory()
        every_bits = list(itertools.product((0, 1), repeat=gate.arity))
        contexts = [ModeEntry(None, (None,) * gate.arity), ModeEntry(3.5, (1.0,) * gate.arity)]
        for bits in every_bits:
            mode = gate.choice(bits, None, contexts[0])
            for prev, ctx in itertools.product(every_bits, contexts):
                assert gate.choice(bits, prev, ctx) is mode

    def test_lag_constants_keep_their_floats(self):
        ctx = ModeEntry(None, (None,))
        off, on = (make_heater_plant().choice((b,), None, ctx) for b in (0, 1))
        assert (off.id, _lag(off)) == ("off", ([[-0.1]], [0.0]))
        assert (on.id, _lag(on)) == ("on", ([[-0.1]], [5.0]))
        tau = 0.3
        down, up = (make_idm_channel(tau=tau).choice((b,), None, ctx) for b in (0, 1))
        assert (down.id, _lag(down)) == ("down", ([[-1.0 / tau]], [0.0]))
        assert (up.id, _lag(up)) == ("up", ([[-1.0 / tau]], [1.0 / tau]))
        tau_fast, v_dd = 3e-4, 1.2
        gate = make_boolean_gate("buf", (0.1,), tau_fast=tau_fast, v_dd=v_dd)
        low, high = (gate.choice((b,), None, ctx) for b in (0, 1))
        assert (low.id, _lag(low)) == ("low", ([[-1.0 / tau_fast]], [0.0]))
        assert (high.id, _lag(high)) == ("high", ([[-1.0 / tau_fast]], [v_dd / tau_fast]))


def _simple_nor_rise_oracle():
    """Crossing of V_out for the (0,0) network from (0,0), via expm + brentq."""
    aug = np.array([[-2.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    y0 = np.array([0.0, 0.0, 1.0])

    def vout(s):
        return (expm(aug * s) @ y0)[1] - 0.5

    return brentq(vout, 0.05, 20.0, xtol=1e-13)


class TestSimpleNor:
    def test_initial_inputs_that_are_not_bits_are_named(self):
        # checked before the networks are read, so not a bare KeyError: (2, 0)
        with pytest.raises(ValueError) as exc:
            make_simple_nor(initial_inputs=(2, 0))
        assert str(exc.value) == "initial_inputs[0] must be a bit, got 2"

    def test_initial_state_is_network_equilibrium(self):
        assert make_simple_nor().initial_state == pytest.approx((1.0, 1.0))
        assert make_simple_nor(initial_inputs=(0, 1)).initial_state == pytest.approx((1.0, 0.0))
        assert make_simple_nor(initial_inputs=(1, 1)).initial_state == pytest.approx((0.0, 0.0))
        # exactly: the (0, 0) network rests with both nodes at v_dd
        params = SimpleNorParams(r1=0.3, r2=0.7, c_int=0.9, v_dd=0.1)
        assert make_simple_nor(params, initial_inputs=(0, 0)).initial_state == (0.1, 0.1)

    @pytest.mark.parametrize("field, value", [("c", 1e-155), ("r2", 1e-160)])
    def test_constants_beyond_the_floats_are_a_value_error(self, field, value):
        # the exact discriminant of a network, some 1e310, has no float
        with pytest.raises(ValueError, match="has constants beyond the floats"):
            make_simple_nor(SimpleNorParams(**{field: value}))

    @pytest.mark.parametrize("cap, res", [("c_int", "r1"), ("c_int", "r2"), ("c", "r2"), ("c", "r3"), ("c", "r4")])
    def test_a_branch_whose_rc_product_underflows_is_named(self, cap, res):
        # 1/(cap res) of a product that underflows to 0 was a bare
        # ZeroDivisionError
        with pytest.raises(ValueError) as exc:
            make_simple_nor(SimpleNorParams(**{cap: 1e-160, res: 1e-310}))
        assert str(exc.value) == f"{cap} * {res} underflows to 0 ({cap}=1e-160, {res}=1e-310)"

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

    def test_a_stiff_network_keeps_its_slow_rate(self):
        # The (0,0) network's eigenvalues lie ~1e19 apart.  Its determinant,
        # taken as a plain a11 a22 - a12 a21, is off by 2.2e-7 relative, which
        # moves the delay by 1e-7 relative; a matrix exponential per time
        # overflowed over this 2.5e8-long rise and left the box at t ~ 1.6e8.
        # The reference is the 60-digit solution of the same float matrix.
        params = SimpleNorParams(
            r1=8574.679175575215, r2=1.4079295815241755e-06, r3=110.90207406164666,
            r4=1.2594979686632813e-05, c=2.4056363702333365e-05,
            c_int=41756.18802907596, v_dd=3.02191637968425e-06,
        )
        delays = mis_delay_sweep(
            lambda: make_simple_nor(params, initial_inputs=(1, 1)), [1.1981668243375465],
            settle=1e10,
        )
        assert delays[0] == pytest.approx(248178500.1155, rel=1e-9)


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


def _charging_mode(params: AdvancedNorParams, t_on: float, gap: float, first_fell: int):
    """The charging mode the gate enters at ``t_on``, ``gap`` after input
    ``first_fell`` fell (a gap of 0 is a simultaneous fall)."""
    gate = make_advanced_nor(params, initial_inputs=(1, 1))
    if gap == 0.0:
        prev_bits, last = (1, 1), (None, None)
    else:
        when = None if math.isinf(gap) else t_on - gap
        prev_bits = (1, 0) if first_fell == 1 else (0, 1)
        last = (None, when) if first_fell == 1 else (when, None)
    return gate, gate.choice((0, 0), prev_bits, ModeEntry(t_on, last))


_charging_cases = dict(
    params=st.builds(
        AdvancedNorParams, *(st.floats(0.1, 3.0) for _ in range(6)), v_dd=st.floats(0.5, 2.0)
    ),
    gap=st.one_of(
        st.just(0.0),
        st.floats(1e-12, 1e-6),
        st.floats(0.0, 10.0, exclude_min=True),
        st.just(math.inf),
    ),
    first_fell=st.sampled_from((0, 1)),
    t_on=st.floats(0.0, 10.0),
    lag=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    span=st.floats(1e-3, 20.0),
)


class TestChargingClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(x0=st.floats(-0.01, 1.0), **_charging_cases)
    def test_matches_the_integrated_rhs(self, params, gap, first_fell, t_on, lag, span, x0):
        gate, mode = _charging_mode(params, t_on, gap, first_fell)
        t0 = t_on + lag
        x0 *= params.v_dd
        seg = solve_mode(mode, [x0], t0, t0 + span, gate.state_space)
        assert isinstance(seg, RelaxationSegment)
        ts = np.linspace(t0, t0 + span, 41)
        ref = solve_ivp(
            mode.rhs, (t0, t0 + span), [x0], method="DOP853",
            rtol=1e-12, atol=1e-14, t_eval=ts,
        )
        assert ref.success
        assert np.max(np.abs(seg.values(ts)[:, 0] - ref.y[0])) < 1e-9 * params.v_dd
        assert seg.value(t0)[0] == x0

    @settings(max_examples=150, deadline=None)
    @given(x0=st.floats(-0.01, 1.0), xi=st.floats(0.05, 0.95), **_charging_cases)
    def test_crossings_match_the_sampled_path(
        self, params, gap, first_fell, t_on, lag, span, x0, xi
    ):
        # xi stays off x0: the charging rate starts at zero, so a crossing
        # right after entry is ill-conditioned in time
        assume(abs(xi - x0) >= 0.02)
        gate, mode = _charging_mode(params, t_on, gap, first_fell)
        t0 = t_on + lag
        seg = solve_mode(mode, [x0 * params.v_dd], t0, t0 + span, gate.state_space)
        sampled = FunctionSegment(seg.t0, seg.t1, seg.values)
        fast = find_crossings(Trajectory([seg]), xi * params.v_dd)
        slow = sampled_crossings(Trajectory([sampled]), xi * params.v_dd)
        assert len(fast) <= 1
        assert [rising for _, rising in fast] == [rising for _, rising in slow]
        for (t_fast, _), (t_slow, _) in zip(fast, slow):
            assert abs(t_fast - t_slow) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        params=_charging_cases["params"],
        gap=_charging_cases["gap"],
        first_fell=_charging_cases["first_fell"],
        t_on=_charging_cases["t_on"],
        lag=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        x=st.floats(-0.01, 0.99),
    )
    def test_exponent_is_the_partial_fraction_integral(self, params, gap, first_fell, t_on, lag, x):
        # phi is the reference's float, and phi' is the charging rate rho/C
        # that the mode's rhs multiplies V_DD - x by
        _, mode = _charging_mode(params, t_on, gap, first_fell)
        # the gap and the first fall as the gate reads them off its inputs
        if gap == 0.0:
            alpha_first = params.alpha1
        else:
            gap = gap if math.isinf(gap) else t_on - (t_on - gap)
            alpha_first = params.alpha1 if first_fell == 1 else params.alpha2
        t, x = t_on + lag, x * params.v_dd
        phi, slope = mode.kind.exponent(t)
        assert phi == reference_charging_exponent(params, t_on, gap, alpha_first)(t)
        # the two sums cancel to 0 at t_on, so their rounding is relative to
        # the settled rate 1/(2RC)
        rate = mode.rhs(t, x) / (params.v_dd - x)
        assert abs(slope - rate) <= 8.0 * sys.float_info.epsilon / (2.0 * params.r * params.c)

    def test_underflow_onto_the_rail_is_not_an_edge(self):
        # from just above V_DD the state decays onto it; exp underflows at
        # the end, and the computed end value reads exactly V_DD = xi
        params = AdvancedNorParams(c=1e-3)
        gate, mode = _charging_mode(params, 1.0, 0.5, 1)
        seg = solve_mode(mode, [1.005], 1.0, 21.0, gate.state_space)
        assert seg.value(seg.t1)[0] == 1.0
        assert find_crossings(Trajectory([seg]), 1.0) == []

    @pytest.mark.parametrize("gap", [1e-323, 1e-310])
    def test_subnormal_gap_matches_a_simultaneous_fall(self, gap):
        # the small pole's weight underflows to 0 while tau/r1 overflows
        params = AdvancedNorParams(alpha1=1.0, alpha2=1.0)
        gate, mode = _charging_mode(params, 0.0, gap, 0)
        _, at_zero = _charging_mode(params, 0.0, 0.0, 0)
        got = solve_mode(mode, [0.0], 0.0, 1.0, gate.state_space).values([0.5, 1.0])
        want = solve_mode(at_zero, [0.0], 0.0, 1.0, gate.state_space).values([0.5, 1.0])
        assert np.allclose(got, want, rtol=0.0, atol=1e-15)

    def test_no_shipped_gate_integrates_numerically(self, monkeypatch):
        monkeypatch.setattr(modes, "solve_ivp", _refuse("solve_ivp"))
        run_every_shipped_gate()

    def test_no_shipped_gate_imports_scipy(self):
        # a fresh interpreter, because this module imports scipy itself
        out = run_fresh_python(
            "import sys\n"
            "import hybridgates.cli\n"
            "from conftest import run_every_shipped_gate\n"
            "run_every_shipped_gate()\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        assert out == "[]\n"

    def test_no_shipped_gate_evaluates_a_scalar_state_on_arrays(self, monkeypatch):
        # execute carries a 1-state gate's state as a float from entry to entry
        for kind in (modes.ScalarAffineSegment, modes.RelaxationSegment):
            monkeypatch.setattr(kind, "values", _refuse(f"{kind.__name__}.values"))
        run_every_shipped_gate()

    @pytest.mark.parametrize("preset", _preset_names())
    def test_no_shipped_gate_calls_numpy_during_a_run(self, monkeypatch, preset):
        # the state is a float or a tuple of floats from the initial entry to
        # every mode switch, so a run calls no numpy; the build calls it only
        # to hold each affine mode's a and b as arrays
        circuit, inputs, horizon = preset_stimulus(preset)

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} during a run")

        monkeypatch.setattr(modes, "np", NoNumpy())
        execute(circuit, inputs, horizon)

    @settings(max_examples=100, deadline=None)
    @given(params=st.builds(
        SimpleNorParams,
        **{f.name: st.floats(-3.0, 3.0).map(lambda e: 10.0**e) for f in dataclasses.fields(SimpleNorParams)},
    ))
    def test_a_simple_nor_with_random_parameters_never_samples(self, params):
        # Every network has a closed form.  The rise from discharged nodes
        # is an RC ladder's step response, a distribution whose mean is the
        # Elmore delay, so it passes its half-way point within twice that
        # delay.
        elmore = params.r1 * (params.c_int + params.c) + params.r2 * params.c
        delays = mis_delay_sweep(
            lambda: make_simple_nor(params, initial_inputs=(1, 1)),
            [0.0, 1e-9, 0.5, 3.0],
            settle=4.0 * elmore + 1.0,
        )
        assert all(0.0 < d <= 2.0 * elmore + 0.1 for d in delays)


_LOG_PARAM = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


@st.composite
def _factory_modes(draw):
    """A factory's gate at its default or at random parameters, every mode
    it can enter (for the advanced NOR, one charging mode at a drawn entry
    time and gap), and a time at or after that entry."""
    kind = draw(st.sampled_from(("boolean", "const", "idm", "heater", "snor", "anor")))
    rand = draw(st.booleans())

    def params(*names):
        return {name: draw(_LOG_PARAM) for name in names} if rand else {}

    if kind == "boolean":
        fn = draw(st.sampled_from(("not", "nand2", "xor2")))
        gate = make_boolean_gate(fn, (0.1,) if fn == "not" else (0.1, 0.1), **params("tau_fast", "v_dd"))
    elif kind == "const":
        gate = make_const_gate(draw(st.sampled_from((0, 1))), **params("v_dd"))
    elif kind == "idm":
        gate = make_idm_channel(**params("tau"))
    elif kind == "heater":
        gate = make_heater_plant()  # its two modes take no parameter
    elif kind == "snor":
        gate = make_simple_nor(SimpleNorParams(**params(*(f.name for f in dataclasses.fields(SimpleNorParams)))))
    else:
        nor = AdvancedNorParams(**params(*(f.name for f in dataclasses.fields(AdvancedNorParams))))
        gate = make_advanced_nor(nor)
    entry = ModeEntry(None, (None,) * gate.arity)
    modes = [gate.choice(bits, None, entry) for bits in itertools.product((0, 1), repeat=gate.arity)]
    t_on = draw(st.floats(0.0, 100.0))
    if kind == "anor":
        gap, first_fell = draw(_charging_cases["gap"]), draw(_charging_cases["first_fell"])
        modes.append(_charging_mode(nor, t_on, gap, first_fell)[1])
    return gate.state_space, modes, t_on + draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3)))


class TestDeclaredRegularity:
    @given(case=_factory_modes(), u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
           v=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    @settings(max_examples=400, deadline=None)
    def test_every_mode_keeps_its_declared_bounds(self, case, u, v):
        # the mode-switch envelope 2 M exp(T K) d rests on |rhs| <= M over
        # the box and on rhs being K-Lipschitz in the state
        space, modes, t = case
        lo, hi = np.array(space.bounds).T
        x, y = (lo + np.array(w[: space.dimension]) * (hi - lo) for w in (u, v))
        for mode in modes:
            m, k = mode.rhs_bound_m, mode.lipschitz_k
            fx, fy = (np.atleast_1d(mode.rhs(t, z)) for z in (x, y))
            assert max(np.linalg.norm(fx), np.linalg.norm(fy)) <= m * (1 + 1e-12)
            # each evaluation rounds by a few ulps of its terms, at most ~3 M
            # on this box, which no Lipschitz bound covers for points ulps apart
            rounding = 16 * np.finfo(float).eps * m
            assert np.linalg.norm(fx - fy) <= k * np.linalg.norm(x - y) * (1 + 1e-12) + rounding


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return refuse


class TestGateSpecValidation:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: make_const_gate(0.5), "value must be a bit, got 0.5"),
            (lambda: make_boolean_gate("not", (0.1,), initial_inputs=(0.5,)), "initial_inputs[0] must be a bit, got 0.5"),
            (lambda: make_simple_nor(initial_inputs=(0.5, 1)), "initial_inputs[0] must be a bit, got 0.5"),
            (lambda: make_advanced_nor(initial_inputs=(1, 0.5)), "initial_inputs[1] must be a bit, got 0.5"),
            (lambda: InputPort(0.5), "port initial value must be a bit, got 0.5"),
        ],
        ids=["const", "boolean", "simple_nor", "advanced_nor", "port"],
    )
    def test_a_bit_field_is_checked_not_truncated(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_bit_fields_are_stored_as_ints(self):
        assert type(InputPort(1.0).initial_value) is int
        gates = (
            make_const_gate(True), make_advanced_nor(initial_inputs=(1.0, 0)), make_idm_channel(initial_input=1.0)
        )
        assert [g.initial_inputs for g in gates] == [(), (1, 0), (1,)]
        assert [type(b) for g in gates for b in g.initial_inputs] == [int, int, int]
        assert make_const_gate(True).name == "const1"

    def test_wrong_delay_count(self):
        with pytest.raises(ValueError):
            make_boolean_gate("nor2", (0.1,))

    def test_arity_is_read_from_the_delays(self):
        assert "arity" not in {f.name for f in dataclasses.fields(GateSpec)}
        gates = (make_const_gate(0), make_idm_channel(), make_boolean_gate("nor2", (0.1, 0.2)), make_advanced_nor())
        assert [g.arity for g in gates] == [len(g.input_delays) for g in gates] == [0, 1, 2, 2]

    def test_initial_inputs_must_match_the_delays(self):
        gate = make_idm_channel()
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(gate, initial_inputs=(0, 0))
        assert str(exc.value) == "need 1 initial input bits"

    def test_initial_state_outside_box(self):
        gate = make_idm_channel()
        with pytest.raises(ValueError):
            GateSpec(
                name="bad",
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
                input_delays=(bad,),
                choice=gate.choice,
                initial_inputs=(0,),
                initial_state=(0.0,),
                threshold=gate.threshold,
                state_space=gate.state_space,
            )

    def test_zero_delay_is_rejected(self):
        # gate_output is a circuit run, and circuits need positive delays
        gate = make_boolean_gate("buf", (0.0,), tau_fast=1e-4, initial_inputs=(0,))
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
        assert run.output.times == pytest.approx(want.times, abs=1e-11, rel=0)
        if kind != "anor":  # memoryless: the choice depends on the bits alone
            assert run.switching == _walked_switching(gate, inputs)


@st.composite
def _mixed_circuits(draw):
    """A random circuit of boolean, IDM and NOR gates on grid-aligned delays.

    With feedback, only boolean gates take edges from later gates (or
    themselves): their initial output is free, so every loop has declared
    bits.  IDM and NOR gates read ports and earlier gates, and their
    initial output follows from those bits.
    """
    feedback = draw(st.booleans())
    grid = draw(st.sampled_from((0.05, 0.1)))
    unit = st.floats(0.5, 2.0)
    ports = [f"in{i}" for i in range(draw(st.integers(1, 2)))]
    inputs = {p: draw(_grid_signal(grid)) for p in ports}
    bits = {p: s.initial_value for p, s in inputs.items()}
    names = [f"g{i}" for i in range(draw(st.integers(1, 5)))]
    kinds, drivers = {}, {}
    for i, name in enumerate(names):
        kinds[name] = kind = draw(st.sampled_from(("boolean", "idm", "snor", "anor")))
        if kind == "boolean":
            kinds[name] = draw(st.sampled_from(_BOOLEAN_FUNCTIONS))
            bits[name] = draw(st.integers(0, 1))
        arity = 1 if kinds[name] in ("idm", "buf", "not") else 2
        pool = ports + (names if feedback and kind == "boolean" else names[:i])
        drivers[name] = [draw(st.sampled_from(pool)) for _ in range(arity)]
    gates = {}
    for name in sorted(names, key=lambda n: kinds[n] in _BOOLEAN_FUNCTIONS):
        kind, in_bits = kinds[name], tuple(bits[d] for d in drivers[name])
        delays = tuple(grid * draw(st.integers(1, 5)) for _ in in_bits)
        if kind in _BOOLEAN_FUNCTIONS:
            gates[name] = make_boolean_gate(
                kind, delays, initial_inputs=in_bits, initial_output=bits[name], name=name
            )
            continue
        if kind == "idm":
            gate = make_idm_channel(
                draw(unit), delays[0], draw(st.floats(0.1, 0.9)), in_bits[0], name=name
            )
        elif kind == "snor":
            params = SimpleNorParams(*(draw(unit) for _ in range(6)))
            gate = make_simple_nor(params, delays, in_bits, name=name)
        else:
            params = AdvancedNorParams(*(draw(unit) for _ in range(6)))
            gate = make_advanced_nor(params, delays, in_bits, name=name)
        gates[name] = gate
        bits[name] = initial_output_bit(gate)
    edges = [(d, name, slot) for name in names for slot, d in enumerate(drivers[name])]
    vertices = {**{p: InputPort(s.initial_value) for p, s in inputs.items()}, **gates}
    circuit = Circuit({**vertices, "out": OutputPort()}, [*edges, (names[-1], "out", 0)])
    return circuit, inputs


class TestCircuitOracle:
    @given(case=_mixed_circuits())
    @settings(max_examples=100, deadline=None)
    def test_every_gate_matches_its_one_gate_run(self, case):
        # batching, fan-out and cancellation inside the circuit give each
        # gate the same output as a run of that gate alone on its drivers
        circuit, inputs = case
        ex = execute(circuit, inputs, _ORACLE_HORIZON)
        for name, gate in circuit.gates().items():
            slots = sorted(circuit.incoming(name), key=lambda e: e.slot)
            run = gate_output(gate, [ex.signals[e.src] for e in slots])
            want = ex.signals[name]
            assert run.output.initial_value == want.initial_value, name
            assert [tr.value for tr in run.output.transitions] == [
                tr.value for tr in want.transitions
            ], name
            assert run.output.times == pytest.approx(want.times, abs=1e-11, rel=0), name
