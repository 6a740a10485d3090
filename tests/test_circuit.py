"""Circuit wiring, event-driven execution, unrolling, pulse filtration."""

import gc
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridgates.circuit as circuit_module
from hybridgates.circuit import (
    Circuit,
    Edge,
    EventCapExceeded,
    InputPort,
    InvalidCircuitError,
    OutputPort,
    bisect_pulse_norm,
    check_simulation_equivalence,
    check_spf,
    execute,
    random_boolean_circuit,
    reach_times,
    shuffled_copy,
    unroll,
    validate,
)
from hybridgates.cli import _parse_grid, _preset_names, load_circuit
from hybridgates.gates import (
    GateSpec,
    gate_output,
    make_advanced_nor,
    make_boolean_gate,
    make_const_gate,
    make_idm_channel,
    make_simple_nor,
    mis_delay_sweep,
)
import hybridgates.modes as modes_module
from hybridgates.modes import StateSpace, affine_mode
from hybridgates.signals import TIME_EPS, BinarySignal, one_norm_distance
from hybridgates.threshold import ThresholdSpec, digitize

from conftest import preset_stimulus, shipped_preset_runs

LN2 = math.log(2.0)


def two_not_pipeline():
    n1 = make_boolean_gate("not", (0.2,), initial_inputs=(0,), name="n1")
    n2 = make_boolean_gate("not", (0.3,), initial_inputs=(1,), name="n2")
    return Circuit(
        {"in": InputPort(0), "n1": n1, "n2": n2, "out": OutputPort()},
        [("in", "n1", 0), ("n1", "n2", 0), ("n2", "out", 0)],
    )


def fig_feedback_circuit():
    # A buffers the input; B sits on a pure self-loop; C merges both
    a = make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="A")
    b = make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="B")
    c = make_boolean_gate("or2", (0.1, 0.1), initial_inputs=(0, 0), name="C")
    return Circuit(
        {"I": InputPort(0), "A": a, "B": b, "C": c, "O": OutputPort()},
        [("I", "A", 0), ("B", "B", 0), ("B", "C", 0), ("A", "C", 1), ("C", "O", 0)],
    )


def or_latch_circuit():
    # like fig_feedback_circuit, but B latches the buffered input through an OR
    a = make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="A")
    b = make_boolean_gate("or2", (0.1, 0.1), initial_inputs=(0, 0), name="B")
    c = make_boolean_gate("or2", (0.1, 0.1), initial_inputs=(0, 0), name="C")
    return Circuit(
        {"I": InputPort(0), "A": a, "B": b, "C": c, "O": OutputPort()},
        [("I", "A", 0), ("A", "B", 0), ("B", "B", 1), ("B", "C", 0), ("A", "C", 1), ("C", "O", 0)],
    )


def ring_oscillator(delta=0.5, horizon_gate_name="osc"):
    # inconsistent initial output, so the loop starts in flight and oscillates
    g = make_boolean_gate(
        "not", (delta,), initial_inputs=(0,), initial_output=0, name=horizon_gate_name
    )
    return Circuit(
        {horizon_gate_name: g, "out": OutputPort()},
        [(horizon_gate_name, horizon_gate_name, 0), (horizon_gate_name, "out", 0)],
    )


class TestValidation:
    def test_clean_pipeline(self):
        report = validate(two_not_pipeline())
        assert report.ok
        assert report.delta_min == 0.2

    def test_unknown_vertex(self):
        c = Circuit({"in": InputPort(0)}, [("in", "ghost", 0)])
        report = validate(c)
        assert [v[0] for v in report.violations] == ["unknown-vertex"]

    def test_driven_input_port(self):
        g = make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="g")
        c = Circuit({"a": InputPort(0), "b": InputPort(0), "g": g}, [("a", "b", 0), ("a", "g", 0)])
        assert ("input-port-driven", "b") in [(r, v) for r, v, _ in validate(c).violations]

    def test_output_port_fanin_and_fanout(self):
        g = make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="g")
        c = Circuit(
            {"in": InputPort(0), "g": g, "out": OutputPort()},
            [("in", "g", 0), ("g", "out", 0), ("in", "out", 0)],
        )
        assert any(r == "output-port-fanin" for r, _, _ in validate(c).violations)
        c2 = Circuit(
            {"in": InputPort(0), "g": g, "out": OutputPort()},
            [("in", "g", 0), ("out", "g", 0)],
        )
        rules = [r for r, _, _ in validate(c2).violations]
        assert "output-port-fanout" in rules

    def test_slot_coverage(self):
        g = make_boolean_gate("or2", (0.1, 0.1), initial_inputs=(0, 0), name="g")
        c = Circuit({"in": InputPort(0), "g": g}, [("in", "g", 0)])
        assert any(r == "slot-unfilled" for r, _, _ in validate(c).violations)
        c2 = Circuit(
            {"a": InputPort(0), "b": InputPort(0), "g": g},
            [("a", "g", 0), ("b", "g", 0), ("a", "g", 1)],
        )
        assert any(r == "slot-multiply-driven" for r, _, _ in validate(c2).violations)

    def test_bad_slot_index(self):
        g = make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="g")
        c = Circuit({"in": InputPort(0), "g": g}, [("in", "g", 3)])
        assert validate(c).violations[0][0] == "bad-slot"

    def test_nonpositive_delay(self):
        g = make_boolean_gate("buf", (0.0,), tau_fast=1e-4, initial_inputs=(0,), name="g")
        c = Circuit({"in": InputPort(0), "g": g}, [("in", "g", 0)])
        assert any(r == "nonpositive-delay" for r, _, _ in validate(c).violations)

    def test_initial_input_mismatch(self):
        g = make_boolean_gate("buf", (0.1,), initial_inputs=(1,), name="g")
        c = Circuit({"in": InputPort(0), "g": g}, [("in", "g", 0)])
        assert any(r == "initial-input-mismatch" for r, _, _ in validate(c).violations)


class TestExecution:
    def test_pipeline_closed_form_times(self):
        c = two_not_pipeline()
        sig = BinarySignal(0, ((1.0, 1), (3.0, 0)), 8.0)
        ex = execute(c, {"in": sig}, 8.0)
        c1 = 2e-4 * LN2  # first inverter's threshold lag
        c2 = 3e-4 * LN2
        n1 = ex.signals["n1"]
        assert n1.initial_value == 1
        assert n1.times == pytest.approx((1.2 + c1, 3.2 + c1), abs=1e-9)
        out = ex.signals["out"]
        assert out.initial_value == 0
        assert out.times == pytest.approx((1.5 + c1 + c2, 3.5 + c1 + c2), abs=1e-9)
        # the second edge of each gate chains causally through its first
        assert [r.depth for r in ex.records["n1"]] == [1, 2]
        assert [r.depth for r in ex.records["n2"]] == [2, 3]
        for name in ("n1", "n2"):
            for r in ex.records[name]:
                assert r.depth <= r.iteration

    def test_output_port_mirrors_driver(self):
        c = two_not_pipeline()
        ex = execute(c, {"in": BinarySignal(0, ((1.0, 1),), 4.0)}, 4.0)
        assert ex.signals["out"] == ex.signals["n2"]
        assert ex.records["out"] == ex.records["n2"]

    def test_fanout_shares_one_signal(self):
        src = make_boolean_gate("not", (0.1,), initial_inputs=(0,), name="src")
        b1 = make_boolean_gate("buf", (0.2,), initial_inputs=(1,), name="b1")
        b2 = make_boolean_gate("buf", (0.4,), initial_inputs=(1,), name="b2")
        c = Circuit(
            {"in": InputPort(0), "src": src, "b1": b1, "b2": b2},
            [("in", "src", 0), ("src", "b1", 0), ("src", "b2", 0)],
        )
        ex = execute(c, {"in": BinarySignal(0, ((1.0, 1),), 5.0)}, 5.0)
        (t_src,) = ex.signals["src"].times
        assert ex.signals["b1"].times == pytest.approx((t_src + 0.2 + 2e-4 * LN2,), abs=1e-9)
        assert ex.signals["b2"].times == pytest.approx((t_src + 0.4 + 4e-4 * LN2,), abs=1e-9)

    def test_ring_oscillator_period_and_depths(self):
        c = ring_oscillator(delta=0.5)
        ex = execute(c, None, 5.0)
        lag = 5e-4 * LN2
        period = 0.5 + lag
        recs = ex.records["osc"]
        assert len(recs) >= 8
        for k, r in enumerate(recs):
            assert r.time == pytest.approx(lag + k * period, abs=1e-6)
            assert r.value == (k + 1) % 2
            assert r.depth == k
            assert r.depth <= r.iteration
        depths = [r.depth for r in recs]
        assert depths == sorted(depths)

    def test_coincident_arrivals_are_atomic(self):
        x = make_boolean_gate("xor2", (0.1, 0.1), initial_inputs=(0, 0), name="x")
        c = Circuit(
            {"a": InputPort(0), "b": InputPort(0), "x": x, "out": OutputPort()},
            [("a", "x", 0), ("b", "x", 1), ("x", "out", 0)],
        )
        rise = BinarySignal(0, ((1.0, 1),), 3.0)
        ex = execute(c, {"a": rise, "b": rise}, 3.0)
        assert ex.signals["out"].transitions == ()

    def test_staggered_arrivals_glitch(self):
        x = make_boolean_gate("xor2", (0.1, 0.25), initial_inputs=(0, 0), name="x")
        c = Circuit(
            {"a": InputPort(0), "b": InputPort(0), "x": x, "out": OutputPort()},
            [("a", "x", 0), ("b", "x", 1), ("x", "out", 0)],
        )
        rise = BinarySignal(0, ((1.0, 1),), 3.0)
        ex = execute(c, {"a": rise, "b": rise}, 3.0)
        lag = 1e-4 * LN2
        assert ex.signals["out"].times == pytest.approx((1.1 + lag, 1.25 + lag), abs=1e-9)

    def test_sr_latch_holds_state(self):
        nq = make_boolean_gate("nor2", (0.05, 0.05), initial_inputs=(0, 0), name="nq")
        nqb = make_boolean_gate("nor2", (0.05, 0.05), initial_inputs=(0, 1), name="nqb")
        c = Circuit(
            {
                "S": InputPort(0),
                "R": InputPort(0),
                "nq": nq,
                "nqb": nqb,
                "Q": OutputPort(),
                "Qb": OutputPort(),
            },
            [
                ("R", "nq", 0),
                ("nqb", "nq", 1),
                ("S", "nqb", 0),
                ("nq", "nqb", 1),
                ("nq", "Q", 0),
                ("nqb", "Qb", 0),
            ],
        )
        s = BinarySignal(0, ((3.0, 1), (3.5, 0)), 6.0)
        r = BinarySignal(0, ((1.0, 1), (1.5, 0)), 6.0)
        ex = execute(c, {"S": s, "R": r}, 6.0)
        lag = 5e-5 * LN2
        q = ex.signals["Q"]
        assert q.initial_value == 1 and q.final_value == 1
        assert q.times == pytest.approx((1.05 + lag, 3.1 + 2 * lag), abs=1e-6)
        qb = ex.signals["Qb"]
        assert qb.initial_value == 0 and qb.final_value == 0
        assert qb.times == pytest.approx((1.1 + 2 * lag, 3.05 + lag), abs=1e-6)

    def test_autonomous_circuit_runs_without_signals(self):
        src = make_const_gate(1, name="one")
        inv = make_boolean_gate("not", (0.1,), initial_inputs=(1,), initial_output=1, name="inv")
        c = Circuit(
            {"one": src, "inv": inv, "out": OutputPort()},
            [("one", "inv", 0), ("inv", "out", 0)],
        )
        ex = execute(c, None, 1.0)
        assert ex.signals["out"].times == pytest.approx((1e-4 * LN2,), abs=1e-9)
        assert ex.records["inv"][0].depth == 0

    def test_a_circuit_is_validated_once_when_built(self, monkeypatch):
        calls = []

        def counting_validate(circuit):
            calls.append(circuit)
            return validate(circuit)

        monkeypatch.setattr(circuit_module, "validate", counting_validate)
        c = fig_feedback_circuit()
        for width in (0.05, 0.5, 2.0):
            execute(c, {"I": BinarySignal.pulse(1.0, width, 5.0)}, 5.0)
        unroll(c, "O", 2)
        assert sum(1 for seen in calls if seen is c) == 1

    def test_a_gate_run_alone_is_validated_once_per_initial_bits(self, monkeypatch):
        calls = []

        def counting_validate(circuit):
            calls.append(circuit)
            return validate(circuit)

        monkeypatch.setattr(circuit_module, "validate", counting_validate)
        gate = make_simple_nor(initial_inputs=(1, 1))
        mis_delay_sweep(lambda: gate, [0.0, 0.5, 1.0])
        gate_output(gate, [BinarySignal.constant(1, 5.0)] * 2)
        assert len(calls) == 1
        for _ in range(2):
            with pytest.raises(InvalidCircuitError):
                gate_output(gate, [BinarySignal.constant(0, 5.0)] * 2)
        assert len(calls) == 2

    def test_what_the_accessors_return_is_the_callers(self):
        c = two_not_pipeline()
        ins = {"in": BinarySignal(0, ((1.0, 1), (2.0, 0)), 4.0)}
        before = execute(c, ins, 4.0)
        c.input_ports().clear()
        c.gates().clear()
        c.output_ports().clear()
        c.input_ports()["extra"] = InputPort(1)
        c.gates()["n3"] = make_boolean_gate("not", (0.2,), initial_inputs=(0,), name="n3")
        c.output_ports()["extra_out"] = OutputPort()
        assert list(c.input_ports()) == ["in"]
        assert list(c.gates()) == ["n1", "n2"]
        assert list(c.output_ports()) == ["out"]
        after = execute(c, ins, 4.0)
        assert after.signals == before.signals
        assert after.records == before.records

    def test_a_cancelled_pulse_leaves_the_gate_undisturbed(self):
        # g fed back into both inputs commits a zero-width pulse: its records
        # keep both edges, its signal drops them, and both edges reach the
        # NOR's slot 1 in one batch, leaving its bits as they were
        g = make_boolean_gate("xor2", (0.05, 0.15), initial_inputs=(1, 1),
                              initial_output=1, name="g")
        nor = make_advanced_nor(delays=(0.05, 0.05), initial_inputs=(0, 1))
        c = Circuit(
            {"zero": make_const_gate(0, name="zero"), "g": g, "nor": nor, "O": OutputPort()},
            [("g", "g", 0), ("g", "g", 1), ("zero", "nor", 0), ("g", "nor", 1), ("nor", "O", 0)],
        )
        ex = execute(c, None, 5.0)
        alone = gate_output(nor, [ex.signals["zero"], ex.signals["g"]])
        assert ex.signals["nor"] == alone.output

    def test_signal_contract_errors(self):
        c = two_not_pipeline()
        with pytest.raises(ValueError, match="do not match ports"):
            execute(c, {}, 4.0)
        with pytest.raises(ValueError, match="horizon"):
            execute(c, {"in": BinarySignal.constant(0, 3.0)}, 4.0)
        with pytest.raises(ValueError, match="starts at"):
            execute(c, {"in": BinarySignal.constant(1, 4.0)}, 4.0)

    def test_event_cap(self):
        c = ring_oscillator(delta=0.05)
        with pytest.raises(EventCapExceeded):
            execute(c, None, 50.0, event_cap=20)

    def test_processing_order_does_not_matter(self):
        master = random.Random(977)
        for _ in range(5):
            c = random_boolean_circuit(master, feedback=True, allow_flight=True)
            ins = {
                name: BinarySignal(0, ((1.3, 1), (4.7, 0), (6.1, 1), (8.9, 0)), 10.0)
                for name in c.input_ports()
            }
            base = execute(c, ins, 10.0)
            for seed in range(4):
                permuted = shuffled_copy(c, random.Random(seed))
                again = execute(permuted, ins, 10.0, _shuffle=random.Random(1000 + seed))
                assert again.signals == base.signals
                assert again.records == base.records

    def test_depth_iteration_bounds_on_random_circuits(self):
        master = random.Random(31338)
        for _ in range(8):
            c = random_boolean_circuit(master, feedback=True, allow_flight=True)
            ins = {
                name: BinarySignal(0, ((1.0, 1), (5.5, 0)), 9.0) for name in c.input_ports()
            }
            ex = execute(c, ins, 9.0)
            for name in c.gates():
                depths = [r.depth for r in ex.records[name]]
                assert depths == sorted(depths)
                for r in ex.records[name]:
                    assert r.depth <= r.iteration


def twin_mode_gate(delay, tau):
    """Two-input gate that charges while slot 0 is high, in one of two modes
    with identical dynamics picked by slot 1, and discharges otherwise."""
    box = StateSpace(((-0.01, 1.01),))
    low = affine_mode("low", [[-1.0 / tau]], [0.0], box)
    high_a = affine_mode("high_a", [[-1.0 / tau]], [1.0 / tau], box)
    high_b = affine_mode("high_b", [[-1.0 / tau]], [1.0 / tau], box)

    def choice(bits, prev_bits, ctx):
        if not bits[0]:
            return low
        return high_b if bits[1] else high_a

    return GateSpec(
        name="twin",
        input_delays=(delay, delay),
        choice=choice,
        initial_inputs=(0, 0),
        initial_state=(0.0,),
        threshold=ThresholdSpec(0.5),
        state_space=box,
    )


def _random_edges(r, horizon, count):
    times = sorted(r.uniform(0.2, horizon - 0.5) for _ in range(count))
    return BinarySignal(0, tuple((t, (i + 1) % 2) for i, t in enumerate(times)), horizon)


class TestModeEntries:
    """A run keeps each gate's mode entries and pastes its trajectory on demand."""

    @staticmethod
    def _assert_trajectories_digitize_to_the_signals(circuit, ex):
        for name, spec in circuit.gates().items():
            got, want = digitize(ex.trajectory(name), spec.threshold), ex.signals[name]
            assert got.initial_value == want.initial_value, name
            assert [tr.value for tr in got.transitions] == [tr.value for tr in want.transitions], name
            assert got.times == pytest.approx(want.times, abs=TIME_EPS, rel=0), name

    def test_shipped_gates_paste_what_they_ran(self):
        for circuit, ex in shipped_preset_runs():
            assert all(ex.modes[name][0][0] == 0.0 for name in circuit.gates())
            self._assert_trajectories_digitize_to_the_signals(circuit, ex)

    def test_random_circuits_paste_what_they_ran(self):
        master = random.Random(1217)
        for _ in range(60):
            c = random_boolean_circuit(master, feedback=True, allow_flight=master.random() < 0.5)
            ins = {name: _random_edges(master, 8.0, 6) for name in c.input_ports()}
            self._assert_trajectories_digitize_to_the_signals(c, execute(c, ins, 8.0))

    @pytest.mark.parametrize("factory", [make_advanced_nor, make_simple_nor])
    def test_a_mis_sweep_solves_each_mode_entry_once(self, factory, monkeypatch):
        # 2 entries at gap 0 (both inputs fall together) and 3 at each other
        # gap; GateRun.trajectory, which nothing here reads, pastes nothing
        calls = {"circuit": 0, "modes": 0}

        def counted(module, key):
            solve = module.solve_mode

            def wrapper(*args):
                calls[key] += 1
                return solve(*args)

            monkeypatch.setattr(module, "solve_mode", wrapper)

        counted(circuit_module, "circuit")
        counted(modes_module, "modes")
        mis_delay_sweep(lambda: factory(initial_inputs=(1, 1)), [0.0, 1e-9, 0.5, 3.0])
        assert calls == {"circuit": 11, "modes": 0}

    def test_a_run_builds_no_trajectory(self, monkeypatch):
        # each mode entry crosses its live segment as it is; a Trajectory is
        # built only when Execution.trajectory is asked for one
        built = []
        for module in (circuit_module, modes_module):
            cls = module.Trajectory
            monkeypatch.setattr(module, "Trajectory", lambda segments, _cls=cls: built.append(1) or _cls(segments))
        runs = list(shipped_preset_runs())
        assert runs and built == []
        circuit, ex = runs[0]
        ex.trajectory(next(iter(circuit.gates())))
        assert built == [1]  # the counter sees the one pasted on demand

    @pytest.mark.parametrize("preset", _preset_names())
    def test_a_run_leaves_no_reference_cycle(self, preset):
        # a cycle, such as a segment that keeps a closure over itself, holds
        # a run's memory until the collector runs, and raises its peak
        circuit, inputs, horizon = preset_stimulus(preset)
        gc.collect()
        gc.disable()
        try:
            execute(circuit, inputs, horizon)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestScheduler:
    """Lazy cancellation of pending transitions and executor invariants."""

    @pytest.mark.parametrize("alone", [True, False])
    def test_cancelled_transition_never_commits(self, alone):
        # x rises on a at 1.1, then b cancels it 3e-5 later, before the
        # pending edge at 1.1 + tau ln 2.  `late` takes an arrival at 1.10005
        # and, unless the stale entry surfaces alone, a second one 5e-13
        # before the stale time, so the stale entry lies inside that batch.
        # The ring keeps events flowing past it.
        stale = 1.1 + 1e-4 * LN2
        x = make_boolean_gate("xor2", (0.1, 0.1), initial_inputs=(0, 0), name="x")
        late = make_boolean_gate("or2", (0.10005, 0.1), initial_inputs=(0, 0), name="late")
        osc = make_boolean_gate("not", (0.03,), initial_inputs=(0,), initial_output=0, name="osc")
        c = Circuit(
            {
                "a": InputPort(0), "b": InputPort(0), "c": InputPort(0),
                "x": x, "late": late, "osc": osc, "out": OutputPort(),
            },
            [
                ("a", "x", 0), ("b", "x", 1), ("a", "late", 0), ("c", "late", 1),
                ("osc", "osc", 0), ("x", "out", 0),
            ],
        )
        horizon = 2.0
        c_edges = () if alone else ((stale - 0.1 - 5e-13, 1),)
        ins = {
            "a": BinarySignal(0, ((1.0, 1),), horizon),
            "b": BinarySignal(0, ((1.0 + 3e-5, 1),), horizon),
            "c": BinarySignal(0, c_edges, horizon),
        }
        ex = execute(c, ins, horizon)
        assert ex.records["x"] == ()
        assert len(ex.modes["x"]) == 3  # two mode switches
        near = [t for t in ex.iteration_times if abs(t - stale) <= TIME_EPS]
        assert near == ([] if alone else [pytest.approx(stale - 5e-13, abs=1e-15)])
        (r_late,) = ex.records["late"]
        assert r_late.time == pytest.approx(1.10005 + 1.0e-4 * LN2, abs=1e-9)
        assert stale < r_late.time
        assert len(ex.records["osc"]) > 30
        for seed in range(3):
            again = execute(c, ins, horizon, _shuffle=random.Random(seed))
            assert again.records == ex.records

    def test_reentered_mode_commits_once(self):
        # slot 1 flips the gate high_a -> high_b -> high_a while it charges;
        # the three modes' crossings coincide to rounding, and only the last
        # one, which re-enters the first mode, may commit.
        tau = 1e-4
        twin = twin_mode_gate(0.1, tau)
        osc = make_boolean_gate("not", (0.03,), initial_inputs=(0,), initial_output=0, name="osc")
        c = Circuit(
            {"a": InputPort(0), "b": InputPort(0), "twin": twin, "osc": osc, "out": OutputPort()},
            [("a", "twin", 0), ("b", "twin", 1), ("osc", "osc", 0), ("twin", "out", 0)],
        )
        horizon = 2.0
        ins = {
            "a": BinarySignal(0, ((1.0, 1),), horizon),
            "b": BinarySignal(0, ((1.0 + 2e-5, 1), (1.0 + 4e-5, 0)), horizon),
        }
        ex = execute(c, ins, horizon)
        assert len(ex.trajectory("twin").segments) == 4  # initial low, high_a, high_b, high_a again
        (rec,) = ex.records["twin"]
        assert rec.value == 1
        assert rec.time == pytest.approx(1.1 + tau * LN2, abs=TIME_EPS)
        assert rec.depth == 1
        for seed in range(3):
            again = execute(c, ins, horizon, _shuffle=random.Random(seed))
            assert again.records == ex.records

    def test_equal_time_commits_arrive_in_causal_order(self):
        # an xor2 fed back into both inputs commits 1 and then 0 at the same
        # time, in two iterations; both edges reach slot 0 together 0.05 later
        g = make_boolean_gate("xor2", (0.05, 0.15000000000000002), initial_inputs=(1, 1),
                              initial_output=1, name="g")
        c = Circuit(
            {"I": InputPort(0), "g": g, "O": OutputPort()},
            [("g", "g", 0), ("g", "g", 1), ("I", "O", 0)],
        )
        ex = execute(c, {"I": BinarySignal.constant(0, 5.0)}, 5.0)
        records = ex.records["g"]
        tie = next(i for i, (a, b) in enumerate(zip(records, records[1:])) if a.time == b.time)
        assert (records[tie].value, records[tie + 1].value) == (1, 0)
        assert records[tie].time == 1.0004401636991256
        assert records[tie].depth < records[tie + 1].depth
        for seed in range(3):
            assert execute(c, {"I": BinarySignal.constant(0, 5.0)}, 5.0,
                           _shuffle=random.Random(seed)).records == ex.records

    def test_arrivals_sent_into_the_window_join_the_batch(self):
        # g2 and g3's slot 0 are 5e-13 behind their drivers, less than
        # TIME_EPS, so each firing of g1 and g2 sends an arrival into the
        # window of its own batch, where the gate enters its new mode
        g1 = make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="g1")
        g2 = make_boolean_gate("buf", (5e-13,), initial_inputs=(0,), name="g2")
        g3 = make_boolean_gate("or2", (5e-13, 0.2), initial_inputs=(0, 0), name="g3")
        c = Circuit(
            {"I": InputPort(0), "g1": g1, "g2": g2, "g3": g3, "O": OutputPort()},
            [("I", "g1", 0), ("g1", "g2", 0), ("g2", "g3", 0), ("g1", "g3", 1), ("g3", "O", 0)],
        )
        ins = {"I": BinarySignal.pulse(1.0, 0.5, 5.0)}
        ex = execute(c, ins, 5.0)
        assert (ex.event_count, len(ex.iteration_times)) == (14, 11)
        # the rise of g1 and g2 each enters the next gate's mode in its batch
        for driver, name in (("g1", "g2"), ("g2", "g3")):
            entered = ex.modes[name][1][0]
            assert entered == pytest.approx(ex.records[driver][0].time + 5e-13, abs=1e-15)
            assert entered not in ex.iteration_times
        for name in c.gates():
            recs = ex.records[name]
            values = [ex.signals[name].initial_value] + [r.value for r in recs]
            assert all(u != v for u, v in zip(values, values[1:]))
            assert [r.depth for r in recs] == sorted(r.depth for r in recs)
            assert all(r.depth <= r.iteration for r in recs)
        for seed in range(20):
            assert execute(c, ins, 5.0, _shuffle=random.Random(seed)).records == ex.records

    @pytest.mark.slow
    def test_invariants_on_large_random_circuits(self):
        master = random.Random(4099)
        horizon = 5.0
        cases = [(50, False, False), (200, False, False), (60, True, True),
                 (120, True, False), (200, True, True), (200, True, False)]
        for n_gates, feedback, flight in cases:
            c = random_boolean_circuit(
                master, n_gates=n_gates, feedback=feedback, allow_flight=flight, n_inputs=4
            )
            ins = {name: _random_edges(master, horizon, 6) for name in c.input_ports()}
            base = execute(c, ins, horizon, event_cap=200_000)
            assert base.event_count > n_gates
            for seed in range(3):
                shuffled = execute(c, ins, horizon, event_cap=200_000, _shuffle=random.Random(seed))
                assert shuffled.records == base.records
                permuted = shuffled_copy(c, random.Random(100 + seed))
                again = execute(permuted, ins, horizon, event_cap=200_000,
                                _shuffle=random.Random(200 + seed))
                assert again.records == base.records
                assert again.signals == base.signals
            for name in c.gates():
                recs = base.records[name]
                values = [base.signals[name].initial_value] + [r.value for r in recs]
                assert all(u != v for u, v in zip(values, values[1:]))
                depths = [r.depth for r in recs]
                assert depths == sorted(depths)
                assert all(r.depth <= r.iteration for r in recs)


class TestUnroll:
    def test_feedback_example_copies(self):
        un = unroll(fig_feedback_circuit(), "O", 3)
        assert un.sink == "O^(3)"
        # shared port, one constant, and one copy per unrolled gate level
        assert set(un.circuit.vertices) == {"I", "X_0", "A^(2)", "B^(1)", "B^(2)", "C^(3)", "O^(3)"}
        assert validate(un.circuit).ok

    def test_deep_unrolling_and_its_reach_times_need_no_recursion(self):
        # one copy of B per level; a recursive walk overflowed near k = 1000
        c = fig_feedback_circuit()
        un = unroll(c, "O", 3000)
        assert un.sink == "O^(3000)"
        assert len(un.circuit.vertices) == 2999 + 5  # B^(1..2999), I, X_0, A, C, O
        assert validate(un.circuit).ok
        original = execute(c, {"I": BinarySignal.pulse(1.0, 0.5, 8.0)}, 8.0)
        reach = reach_times(c, un, original)
        assert set(reach) == set(un.copy_map)
        # B idles, so the constant standing for it is never reached
        assert reach[("B", 0)] == reach[("O", 3000)] == math.inf

    def test_reach_time_grows_with_level(self):
        # a copy at level L is at least L input delays from any cut gate,
        # and no cut gate switches before the first commit of the run
        rng = random.Random(4242)
        reached = 0
        # most draws leave every cut gate idle; 50 give the bound a few dozen
        # reached copies to check
        for _ in range(50):
            c = random_boolean_circuit(rng, feedback=True, allow_flight=False)
            k = rng.randint(1, 4)
            ins = {name: BinarySignal(0, ((0.7, 1), (2.9, 0), (4.0, 1)), 9.0) for name in c.input_ports()}
            original = execute(c, ins, 9.0)
            un = unroll(c, "out", k)
            reach = reach_times(c, un, original)
            t_cut = min((original.records[g][0].time for g in c.gates() if original.records[g]),
                        default=math.inf)
            # t_cut + L * delta_min, summed the way reach times are, so
            # rounding cannot put a reach time below it
            bound = [t_cut]
            for _level in range(k):
                bound.append(bound[-1] + c.report.delta_min)
            for v, level in un.copy_map:
                if v in c.gates():
                    assert reach[(v, level)] >= bound[level]
                    reached += math.isfinite(reach[(v, level)])
        assert reached > 0

    def test_unroll_argument_errors(self):
        c = fig_feedback_circuit()
        with pytest.raises(ValueError, match="not an output port"):
            unroll(c, "B", 2)
        with pytest.raises(ValueError, match="nonnegative"):
            unroll(c, "O", -1)
        # a level that is not an integer would step down past 0 forever
        for level in (1.5, float("nan"), "2"):
            with pytest.raises(ValueError, match="must be an integer"):
                unroll(c, "O", level)

    @pytest.mark.parametrize(
        "port, k, copy",
        [
            # the constant standing for the cut g would be named X_0
            ("X_0", 1, "X_0_2"),
            # the copy of g at level 1 would be named after the port
            ("g^(1)", 2, "g^(1)_2"),
        ],
    )
    def test_made_up_names_avoid_input_ports(self, port, k, copy):
        g = make_boolean_gate("or2", (0.1, 0.1), initial_inputs=(0, 0), name="g")
        c = Circuit(
            {port: InputPort(0), "g": g, "O": OutputPort()},
            [("g", "g", 0), (port, "g", 1), ("g", "O", 0)],
        )
        un = unroll(c, "O", k)
        assert set(un.circuit.input_ports()) == {port}
        assert copy in un.circuit.vertices
        assert all(e.src != e.dst for e in un.circuit.edges)
        assert Edge(port, f"g^({k})", 1) in un.circuit.edges
        ins = {port: BinarySignal(0, ((0.5, 1), (2.0, 0)), 4.0)}
        report = check_simulation_equivalence(c, "O", k, ins, 4.0)
        assert report.ok, report.reach_mismatches
        assert report.reach_compared > 0

    def test_level_zero_collapses_to_constant(self):
        un = unroll(fig_feedback_circuit(), "O", 0)
        assert un.sink == "O^(0)"
        assert set(un.circuit.vertices) == {"X_0", "O^(0)"}
        # the constant cuts the recursion, so no input port survives
        assert not un.circuit.input_ports()
        ex = execute(un.circuit, None, 2.0)
        assert ex.signals["O^(0)"].is_zero()

    def test_equivalence_on_feedback_example(self):
        c = fig_feedback_circuit()
        ins = {"I": BinarySignal(0, ((0.5, 1), (2.0, 0), (3.0, 1), (3.4, 0)), 8.0)}
        for k in (1, 2, 3, 4):
            report = check_simulation_equivalence(c, "O", k, ins, 8.0)
            assert report.ok, report.reach_mismatches
            assert report.checked >= 3

    def test_equivalence_on_random_circuits(self):
        rng = random.Random(220816)
        for _ in range(10):
            c = random_boolean_circuit(rng, feedback=True, allow_flight=False)
            ins = {
                name: BinarySignal(0, ((0.7, 1), (2.9, 0), (4.0, 1), (6.2, 0)), 9.0)
                for name in c.input_ports()
            }
            k = rng.randint(1, 3)
            report = check_simulation_equivalence(c, "out", k, ins, 9.0)
            assert report.ok, report.reach_mismatches

    def test_mismatches_are_reported(self):
        # A shallow replica diverges when a constant stub erases the cause
        # of a latched value while a shared port stays live: the replica
        # then re-arms at small depth and emits transitions the original
        # never produces.  It does so only after its reach time, so the
        # executor is not at fault and the report is ok.
        g3 = make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="g3")
        g2 = make_boolean_gate("and2", (0.1, 0.1), initial_inputs=(0, 0), name="g2")
        g1 = make_boolean_gate("or2", (0.1, 0.1), initial_inputs=(0, 0), name="g1")
        c = Circuit(
            {"P": InputPort(0), "Q": InputPort(0), "R": InputPort(0),
             "g3": g3, "g2": g2, "g1": g1, "O": OutputPort()},
            [("R", "g3", 0), ("Q", "g2", 0), ("g3", "g2", 1),
             ("P", "g1", 0), ("g2", "g1", 1), ("g1", "O", 0)],
        )
        ins = {
            "P": BinarySignal(0, ((5.0, 1), (7.0, 0)), 9.0),
            "Q": BinarySignal(0, ((0.5, 1),), 9.0),
            "R": BinarySignal(0, ((0.1, 1),), 9.0),
        }
        original = execute(c, ins, 9.0)
        un = unroll(c, "O", 2)
        # R drives only the cut g3, so the unrolling has no port for it
        kept = {n: ins[n] for n in un.circuit.input_ports()}
        copy = execute(un.circuit, kept, 9.0).records["g1^(2)"]
        assert [(r.value, r.depth) for r in original.records["g1"]] == [(1, 3)]
        assert [(r.value, r.depth) for r in copy] == [(1, 1), (0, 2)]
        # the divergence starts only once the stubbed g2 could have switched
        t_reach = reach_times(c, un, original)[("g1", 2)]
        assert min(r.time for r in original.records["g1"] + copy) >= t_reach

        report = check_simulation_equivalence(c, "O", 2, ins, 9.0)
        assert report.ok
        assert report.reach_mismatches == []
        assert report.reach_compared > 0

    def test_masking_by_cut_gate_witness(self):
        # Random circuit 49 of random.Random(8260507) in the acceptance suite.
        # The loop g0 -> g2 -> g0 latches g0 high once in0 rises, so the
        # original ignores in0's later falling edge.  In the k=4 unrolling
        # g0^(2) sees g2 only through g2^(1), which hangs off a constant, so
        # the copy falls at depth 2 and the extra edges run on to
        # g2^(3), g1^(4) and out^(4).  All of it happens after the copies'
        # reach times, so the executor is not at fault and the report is ok.
        g0 = make_boolean_gate(
            "or2", (0.2575825223303738, 0.16819126639773208), initial_inputs=(0, 0), name="g0"
        )
        g1 = make_boolean_gate("not", (0.11625141030896281,), initial_inputs=(0,), name="g1")
        g2 = make_boolean_gate(
            "and2", (0.1474261148394379, 0.10548290458026534), initial_inputs=(0, 0), name="g2"
        )
        c = Circuit(
            {"in0": InputPort(0), "g0": g0, "g1": g1, "g2": g2, "out": OutputPort()},
            [("g2", "g0", 0), ("in0", "g0", 1), ("g2", "g1", 0),
             ("g0", "g2", 0), ("g0", "g2", 1), ("g1", "out", 0)],
        )
        edges = ((6.397468966766904, 1), (6.986818546577332, 0), (7.075029000067526, 1))
        ins = {"in0": BinarySignal(0, edges, 9.0)}

        report = check_simulation_equivalence(c, "out", 4, ins, 9.0)
        assert report.ok
        assert report.reach_mismatches == []
        assert report.reach_compared > 0

        original = execute(c, ins, 9.0)
        assert [(r.value, r.depth) for r in original.records["g0"]] == [(1, 1)]
        un = unroll(c, "out", 4)
        reach = reach_times(c, un, original)
        assert reach[("g0", 0)] == original.records["g0"][0].time
        assert reach[("g0", 2)] == pytest.approx(
            reach[("g0", 0)] + 0.10548290458026534 + 0.2575825223303738
        )
        copies = execute(un.circuit, ins, 9.0).records
        assert [(r.value, r.depth) for r in copies["g0^(2)"]] == [(1, 1), (0, 2), (1, 3)]
        # the constant standing for g0 and the g2 copy hanging off it never
        # switch; the other four repeat the original's one transition and
        # add two of their own after their reach time
        differ = {name for key, name in un.copy_map.items() if copies[name] != original.records[key[0]]}
        assert differ == {"X_0", "g2^(1)", "g0^(2)", "g2^(3)", "g1^(4)", "out^(4)"}
        for key in (("g0", 2), ("g2", 3), ("g1", 4), ("out", 4)):
            orig, copy = original.records[key[0]], copies[un.copy_map[key]]
            assert copy[:1] == orig and len(copy) == 3
            assert copy[1].time > reach[key]


def storage_loop():
    # an OR gate feeding itself back latches any pulse it manages to swallow
    g = make_boolean_gate("or2", (0.05, 0.05), tau_fast=0.02, initial_inputs=(0, 0), name="keep")
    return Circuit(
        {"I": InputPort(0), "keep": g, "O": OutputPort()},
        [("I", "keep", 0), ("keep", "keep", 1), ("keep", "O", 0)],
    )


def idm_pipe():
    g = make_idm_channel(tau=1.0, delta_min=0.1, xi=0.5, name="d")
    return Circuit(
        {"I": InputPort(0), "d": g, "O": OutputPort()},
        [("I", "d", 0), ("d", "O", 0)],
    )


@pytest.fixture(scope="module")
def idm_norm_ends():
    """The IDM channel with its output norms at pulse widths 0.5 and 1.2."""
    circuit = idm_pipe()

    def norm_at(width):
        out = execute(circuit, {"I": BinarySignal.pulse(1.0, width, 12.0)}, 12.0).signals["O"]
        return one_norm_distance(out, BinarySignal.constant(0, 12.0))

    low, high = norm_at(0.5), norm_at(1.2)
    assert low == 0.0 and high == pytest.approx(0.8416, abs=1e-4)
    return circuit, low, high


class TestShortPulseFiltration:
    def test_storage_loop_filters_on_grid(self):
        widths = [0.01 + i * (1.0 - 0.01) / 19 for i in range(20)]
        report = check_spf(storage_loop(), widths, 30.0, epsilon=0.005, stabilization_bound=2.0)
        assert report.single_io
        assert report.no_generation
        assert report.nontrivial
        assert report.no_short_outputs, report.violations
        assert report.bounded_stabilization, report.violations
        assert report.ok
        norms = [r.norm for r in report.results]
        assert norms[0] == 0.0  # too short: swallowed entirely
        assert norms[-1] > 20.0  # long: latched until the horizon

    def test_storage_loop_passes_only_the_grid_it_is_given(self):
        # Witness: check_spf certifies the widths on its grid and no others.
        # The storage loop rings near its latch boundary, and CI's 20-width
        # grid steps over the band where a finer grid finds a short output.
        loop = load_circuit("preset:storage_loop").circuit
        reports = {
            grid: check_spf(loop, _parse_grid(grid, "--widths"), 30.0, epsilon=0.005, stabilization_bound=2.0)
            for grid in ("0.01:0.99:20", "0.01:0.06:21")
        }
        assert reports["0.01:0.99:20"].ok, reports["0.01:0.99:20"].violations
        fine = reports["0.01:0.06:21"]
        assert not fine.no_short_outputs and fine.bounded_stabilization
        short = [(r.width, r.norm) for r in fine.results if 0.0 < r.norm < 0.005]
        assert short == [(0.015, pytest.approx(0.0022129306991927056, rel=1e-9))]

    def test_idm_channel_has_short_outputs(self):
        # the output pulse can be made arbitrarily small, violating filtration
        width, norm = bisect_pulse_norm(idm_pipe(), 0.05, lo=0.5, hi=1.2, horizon=12.0)
        assert abs(norm - 0.05) <= 1e-6
        # closed form: a width-w input yields a pulse of length
        # w + ln(1 - e^{-w}) whenever that is positive
        assert norm == pytest.approx(width + math.log(1.0 - math.exp(-width)), abs=1e-9)
        grid = [0.2, 0.4, width, 1.0, 2.0]
        report = check_spf(idm_pipe(), grid, 12.0, epsilon=0.3, stabilization_bound=3.0)
        assert not report.no_short_outputs
        assert not report.ok

    def test_spf_needs_single_io(self):
        c = two_not_pipeline()
        report = check_spf(c, [0.5], 6.0, epsilon=0.01, stabilization_bound=1.0)
        assert report.ok  # one in, one out: structurally fine
        nq = make_boolean_gate("nor2", (0.1, 0.1), initial_inputs=(0, 0), name="g")
        c2 = Circuit(
            {"a": InputPort(0), "b": InputPort(0), "g": nq, "out": OutputPort()},
            [("a", "g", 0), ("b", "g", 1), ("g", "out", 0)],
        )
        report2 = check_spf(c2, [0.5], 6.0, epsilon=0.01, stabilization_bound=1.0)
        assert not report2.single_io
        assert not report2.ok

    @pytest.mark.parametrize(
        "epsilon, bound, message",
        [(math.nan, 1.0, "epsilon must be finite and positive, got nan"),
         (math.inf, 1.0, "epsilon must be finite and positive, got inf"),
         (0.0, 1.0, "epsilon must be finite and positive, got 0.0"),
         (0.01, math.nan, "stabilization_bound must be finite and nonnegative, got nan"),
         (0.01, math.inf, "stabilization_bound must be finite and nonnegative, got inf"),
         (0.01, -1.0, "stabilization_bound must be finite and nonnegative, got -1.0")],
    )
    def test_bounds_must_be_finite(self, epsilon, bound, message):
        with pytest.raises(ValueError) as exc:
            check_spf(idm_pipe(), [0.5], 12.0, epsilon=epsilon, stabilization_bound=bound)
        assert str(exc.value) == message

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bisection_reaches_every_norm_between_its_ends(self, idm_norm_ends, data):
        # the output norm is continuous in the width, so by the intermediate
        # value theorem every norm between those at widths 0.5 and 1.2 is hit
        circuit, low, high = idm_norm_ends
        target = data.draw(st.floats(low, high, exclude_min=True, exclude_max=True), label="target_norm")
        width, norm = bisect_pulse_norm(circuit, target, lo=0.5, hi=1.2, horizon=12.0, tol=1e-9)
        assert 0.5 < width < 1.2
        assert abs(norm - target) <= 1e-9

    def test_storage_loop_norm_jumps_between_adjacent_widths(self):
        # Witness: the exact width-to-norm map is continuous, its ringing
        # growing like log(1/delta) toward the latch boundary, but at
        # horizon 30 no float width reaches a norm between 2.31 and 26.63,
        # so a bisection toward 10 runs out of floats.
        w = 0.03395391806096948
        assert math.nextafter(w, 1.0) == 0.033953918060969486
        below = circuit_module._pulse_response(storage_loop(), "I", "O", w, 30.0, 1.0)
        above = circuit_module._pulse_response(storage_loop(), "I", "O", math.nextafter(w, 1.0), 30.0, 1.0)
        assert (below[0].final_value, below[1]) == (0, pytest.approx(2.3095716931484027, rel=1e-12))
        assert (above[0].final_value, above[1]) == (1, pytest.approx(26.626598058786723, rel=1e-12))
        with pytest.raises(RuntimeError, match="^bisection did not reach the requested norm tolerance$"):
            bisect_pulse_norm(storage_loop(), 10.0, lo=0.01, hi=0.06, horizon=30.0)

    def test_bisect_requires_bracket(self):
        with pytest.raises(ValueError, match="not bracketed"):
            bisect_pulse_norm(idm_pipe(), 50.0, lo=0.5, hi=1.2, horizon=12.0)


class TestRandomCircuits:
    def test_flightless_circuits_start_settled(self):
        rng = random.Random(5)
        for _ in range(10):
            c = random_boolean_circuit(rng, feedback=True, allow_flight=False)
            ins = {name: BinarySignal.constant(0, 3.0) for name in c.input_ports()}
            ex = execute(c, ins, 3.0)
            for name in c.gates():
                assert ex.records[name] == ()

    def test_generated_circuits_validate(self):
        rng = random.Random(6)
        for _ in range(20):
            c = random_boolean_circuit(rng)
            assert validate(c).ok
            assert "out" in c.output_ports()
