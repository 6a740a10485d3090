"""Circuits of hybrid gates: wiring rules, event-driven execution, unrolling.

A circuit is a named set of vertices (input ports, output ports, gate specs)
plus directed edges feeding gate input slots.  Execution is an iterative
event simulation over one priority queue: committed output transitions
propagate along edges with the receiving gate's per-slot delay, arrivals
switch gate modes, and mode switches discard that gate's not-yet-fired
output transitions and recompute them from the new trajectory.  Strictly
positive delays make the schedule causally well founded, so the run cannot
depend on the order of the steps in a batch of simultaneous events.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Hashable, Mapping, NamedTuple, Sequence

from .gates import GateSpec, ModeEntry, _bit, initial_output_bit, make_const_gate
from .modes import ModeFunction, Trajectory, _paste, solve_mode
from .signals import TIME_EPS, BinarySignal, ModeSwitchSignal, one_norm_distance
from .threshold import find_crossings

__all__ = [
    "InputPort",
    "OutputPort",
    "Edge",
    "Circuit",
    "ValidationReport",
    "validate",
    "InvalidCircuitError",
    "EventCapExceeded",
    "TransitionRecord",
    "Execution",
    "execute",
    "UnrolledCircuit",
    "unroll",
    "reach_times",
    "EquivalenceReport",
    "check_simulation_equivalence",
    "SpfWidthResult",
    "SpfReport",
    "check_spf",
    "bisect_pulse_norm",
]


@dataclass(frozen=True)
class InputPort:
    """Externally driven vertex; its signal is supplied at execution time."""

    initial_value: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_value", _bit(self.initial_value, "port initial value"))


@dataclass(frozen=True)
class OutputPort:
    """Observation vertex: relays its single driver's signal unchanged."""


class Edge(NamedTuple):
    src: str
    dst: str
    slot: int = 0


Vertex = InputPort | OutputPort | GateSpec


class Circuit:
    """Vertices by name plus edges into gate input slots (0-based).

    The wiring is checked and indexed once, when the circuit is built, so
    ``vertices`` and ``edges`` must not change afterwards.  ``report`` is
    :func:`validate`'s result; building never raises on bad wiring.  The
    input ports, the gates, each output port's driver and each source's
    fan-out are derived then too, and every ``execute`` reads them; the
    accessors return fresh dicts, so a caller may change what they return.
    """

    def __init__(self, vertices: Mapping[str, Vertex], edges: Sequence) -> None:
        self.vertices: Mapping[str, Vertex] = MappingProxyType(dict(vertices))
        self.edges: tuple[Edge, ...] = tuple(Edge(*e) for e in edges)
        self._in: dict[str, list[Edge]] = {name: [] for name in self.vertices}
        for e in sorted(self.edges, key=lambda e: e.slot):  # stable: ties keep edge order
            if e.dst in self._in:
                self._in[e.dst].append(e)
        self._inputs = {n: v for n, v in self.vertices.items() if isinstance(v, InputPort)}
        self._outputs = {n: v for n, v in self.vertices.items() if isinstance(v, OutputPort)}
        self._gates = {n: v for n, v in self.vertices.items() if isinstance(v, GateSpec)}
        self.report = validate(self)
        # per source: (dst, slot, delay) of every edge into a gate; and
        # (output port, driver) pairs, each port having exactly one
        self._fanout: dict[str, list] = {name: [] for name in self.vertices}
        self._drivers: list[tuple[str, str]] = []
        if self.report.ok:
            for e in self.edges:
                dst = self.vertices[e.dst]
                if isinstance(dst, GateSpec):
                    self._fanout[e.src].append((e.dst, e.slot, dst.input_delays[e.slot]))
            self._drivers = [(n, self._in[n][0].src) for n in self._outputs]

    def incoming(self, name: str) -> list[Edge]:
        return list(self._in.get(name, ()))

    def input_ports(self) -> dict[str, InputPort]:
        return dict(self._inputs)

    def output_ports(self) -> dict[str, OutputPort]:
        return dict(self._outputs)

    def gates(self) -> dict[str, GateSpec]:
        return dict(self._gates)


@dataclass
class ValidationReport:
    """Structural check results; ``ok`` means the circuit may be executed."""

    violations: list[tuple[str, str, str]] = field(default_factory=list)
    delta_min: float = math.inf

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, vertex: str, message: str) -> None:
        self.violations.append((rule, vertex, message))


class InvalidCircuitError(ValueError):
    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(f"{r}[{v}]: {m}" for r, v, m in report.violations)
        super().__init__(f"circuit failed validation: {lines}")


class EventCapExceeded(RuntimeError):
    """The execution produced more events than the configured cap."""


def validate(circuit: Circuit) -> ValidationReport:
    """Check the wiring rules; never raises, collects violations instead.

    A circuit runs this once, when it is built, as ``circuit.report``.

    Rules: edges reference known vertices and valid slots; input ports are
    never driven; output ports have exactly one driver and drive nothing;
    every gate slot is fed exactly once; every gate delay is strictly
    positive (the circuit-wide minimum delay anchors causality); declared
    gate initial inputs agree with each driver's initial output bit.
    """
    report = ValidationReport()
    for e in circuit.edges:
        if e.src not in circuit.vertices:
            report.add("unknown-vertex", e.src, f"edge source {e.src!r} does not exist")
            continue
        if e.dst not in circuit.vertices:
            report.add("unknown-vertex", e.dst, f"edge target {e.dst!r} does not exist")
            continue
        src_v = circuit.vertices[e.src]
        dst_v = circuit.vertices[e.dst]
        if isinstance(src_v, OutputPort):
            report.add("output-port-fanout", e.src, "output ports cannot drive edges")
        if isinstance(dst_v, InputPort):
            report.add("input-port-driven", e.dst, "input ports cannot be driven")
        if isinstance(dst_v, GateSpec) and not (0 <= e.slot < dst_v.arity):
            report.add("bad-slot", e.dst, f"slot {e.slot} out of range for arity {dst_v.arity}")
        if isinstance(dst_v, OutputPort) and e.slot != 0:
            report.add("bad-slot", e.dst, "output ports have a single slot 0")

    if not report.ok:
        return report

    for name, v in circuit.vertices.items():
        inc = circuit._in[name]  # read, not copied as incoming() does
        if isinstance(v, OutputPort):
            if len(inc) != 1:
                report.add("output-port-fanin", name, f"needs exactly one driver, has {len(inc)}")
        elif isinstance(v, GateSpec):
            feeds = [0] * v.arity
            for e in inc:
                feeds[e.slot] += 1
            for slot, n in enumerate(feeds):
                if not n:
                    report.add("slot-unfilled", name, f"input slot {slot} has no driver")
                elif n > 1:
                    report.add("slot-multiply-driven", name, f"input slot {slot} has {n} drivers")
            for slot, d in enumerate(v.input_delays):
                if d <= 0:
                    report.add("nonpositive-delay", name, f"slot {slot} delay {d} must be > 0")
                else:
                    report.delta_min = min(report.delta_min, d)

    if not report.ok:
        return report

    # read once; after the first pass every source is an input port or a gate
    drivers = {e.src: circuit.vertices[e.src] for e in circuit.edges}
    bits = {n: v.initial_value if isinstance(v, InputPort) else initial_output_bit(v) for n, v in drivers.items()}
    for name, v in circuit.vertices.items():
        if not isinstance(v, GateSpec):
            continue
        for e in circuit._in[name]:
            declared = v.initial_inputs[e.slot]
            actual = bits[e.src]
            if declared != actual:
                report.add(
                    "initial-input-mismatch",
                    name,
                    f"slot {e.slot} declared {declared} but {e.src!r} starts at {actual}",
                )
    return report


# -- execution ---------------------------------------------------------------


class TransitionRecord(NamedTuple):
    """A committed output transition with its causal bookkeeping.

    Unchecked: the executor builds one per commit.
    """

    time: float
    value: int
    depth: int
    iteration: int


@dataclass
class Execution:
    """Everything produced by one circuit run.

    ``records`` holds each vertex's committed transitions.  ``signals`` is
    their view as ``BinarySignal``s, ``inputs`` as given, then each gate's,
    then each output port's (its driver's object); it is built from the
    records on first read and kept, and takes no part in equality.  The
    build raises nothing the run did not: ``execute`` asserts that a gate's
    records alternate, and they leave one heap in time order, clamped to
    the horizon, so construction can only cancel sub-``TIME_EPS`` pulses.

    A run keeps no trajectory: ``modes[g]`` lists gate ``g``'s mode
    entries, ``(entry time, mode)`` with the first at 0, from which
    ``trajectory`` re-solves its analog state when asked.
    """

    circuit: Circuit
    horizon: float
    inputs: dict[str, BinarySignal]
    records: dict[str, tuple[TransitionRecord, ...]]
    modes: dict[str, tuple[tuple[float, ModeFunction], ...]]
    iteration_times: list[float]
    event_count: int
    delta_min: float
    _signals: dict[str, BinarySignal] | None = field(default=None, init=False, repr=False, compare=False)

    # not functools.cached_property, whose lock a one-gate run pays on its one read
    @property
    def signals(self) -> dict[str, BinarySignal]:
        signals = self._signals
        if signals is None:
            signals, records, horizon = dict(self.inputs), self.records, self.horizon
            for name, spec in self.circuit._gates.items():
                signals[name] = BinarySignal(
                    initial_output_bit(spec), [(r.time, r.value) for r in records[name]], horizon
                )
            for name, src in self.circuit._drivers:
                signals[name] = signals[src]
            self._signals = signals
        return signals

    def switching(self, name: str) -> tuple[ModeSwitchSignal, dict[Hashable, ModeFunction]]:
        """Gate ``name``'s modes over the run, by id, and the modes by id."""
        (_, initial), *switches = self.modes[name]
        signal = ModeSwitchSignal(initial.id, tuple((t, mode.id) for t, mode in switches), self.horizon)
        return signal, {mode.id: mode for _, mode in self.modes[name]}

    def trajectory(self, name: str) -> Trajectory:
        """Gate ``name``'s analog state, pasted from the run's own mode
        entries, each solved up to the next one or the horizon; each call
        solves them again."""
        spec, entries = self.circuit.vertices[name], self.modes[name]
        ends = [t for t, _ in entries[1:]] + [self.horizon]
        pieces = [(t, end, mode) for (t, mode), end in zip(entries, ends)]
        return _paste(pieces, spec.initial_state, spec.state_space)


class _GateState:
    __slots__ = (
        "spec", "bits", "last_change", "max_arr_depth", "modes",
        "live", "generation", "records", "out_bit",
    )

    def __init__(self, spec: GateSpec):
        self.spec = spec
        # validate() guarantees each driver starts at the declared bit
        self.bits: tuple[int, ...] = spec.initial_inputs
        self.last_change: list[float | None] = [None] * spec.arity
        self.max_arr_depth = -1
        self.modes: list[tuple[float, ModeFunction]] = []  # (entry time, mode)
        self.live = None  # the active mode's segment, solved to the horizon
        # bumped by every mode switch; queued transitions of older
        # generations are cancelled and skipped when they surface
        self.generation = 0
        self.records: list[TransitionRecord] = []
        self.out_bit = initial_output_bit(spec)


# Queue entry kinds: (time, kind, name, generation or slot, depth, value).
# A pending output transition of gate ``name`` carries the generation it was
# computed in; an input arrival at gate ``name`` carries its slot.  Depth
# comes before value so that two arrivals on one slot at the same time keep
# their causal order: the later of two equal-time commits of a gate belongs
# to a newer trajectory, whose depth is strictly greater.  Kind comes
# before name so that a commit leaves the queue before the arrivals it
# sends, even one whose delay rounds away in ``t + delay``.
_FIRE, _ARRIVE = 0, 1


def execute(
    circuit: Circuit,
    input_signals: Mapping[str, BinarySignal] | None,
    horizon: float,
    event_cap: int = 1_000_000,
    _shuffle: random.Random | None = None,
) -> Execution:
    """Run the circuit on the given input signals over ``[0, horizon]``.

    One priority queue holds both kinds of event: input arrivals and every
    gate's pending output transitions.  A mode switch bumps the gate's
    generation and queues the new trajectory's transitions; entries of an
    older generation are cancelled lazily, skipped when they reach the head
    of the queue, so each event costs O(log n) however many gates there are.
    A gate holds only its live segment, solved to the horizon and crossed
    without a ``Trajectory`` around it, and the run records its mode entries
    (``Execution.modes``).  Live segments are released when the queue is,
    before the results are built.  No ``BinarySignal`` is built: the run's
    ``records`` are its product, and ``Execution.signals`` views them.

    Events closer than ``TIME_EPS`` to the queue head form a batch, read in
    one pass in queue order: a live output transition is committed as it
    leaves the queue (arrivals it sends into the window join the batch),
    then each gate's arrivals are applied together, at its first one.  The
    result is unique: all delays are strictly positive, and a commit or a
    group changes only its own gate and pushes to the queue, which orders
    entries by key, so no commit or group depends on another's order.
    ``_shuffle`` permutes the order of the groups and must not change any
    result; it exists so tests can prove that.

    The wiring was checked when the circuit was built: a circuit whose
    ``report`` is not ok raises ``InvalidCircuitError``.  Each gate proved
    its mode family keeps its box when it was built, so a run proves
    nothing.
    """
    report = circuit.report
    if not report.ok:
        raise InvalidCircuitError(report)
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if event_cap < 1:
        raise ValueError(f"event_cap must be at least 1, got {event_cap!r}")

    input_signals = dict(input_signals or {})
    ports = circuit._inputs
    if set(input_signals) != set(ports):
        raise ValueError(f"input signals {sorted(input_signals)} do not match ports {sorted(ports)}")
    for name, sig in input_signals.items():
        if abs(sig.horizon - horizon) > TIME_EPS:
            raise ValueError(f"signal for {name!r} has horizon {sig.horizon}, expected {horizon}")
        if sig.initial_value != ports[name].initial_value:
            raise ValueError(
                f"signal for {name!r} starts at {sig.initial_value}, "
                f"port declares {ports[name].initial_value}"
            )

    states = {name: _GateState(spec) for name, spec in circuit._gates.items()}
    fanout = circuit._fanout

    queue: list[tuple[float, int, str, int, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    event_count = 0

    def enter(name: str, st: _GateState, mode, x, t: float, depth: int) -> None:
        # solve the mode from (t, x) to the horizon and queue its crossings,
        # alternating from the output bit; a leading one to the output's own
        # value, from a state exactly on the threshold, is dropped
        spec = st.spec
        st.modes.append((t, mode))
        st.live = solve_mode(mode, x, t, horizon, spec.state_space)
        generation, value, leading = st.generation, st.out_bit, True
        for t_c, rising in find_crossings((st.live,), spec.threshold.xi, spec.threshold.component):
            if rising == value:
                if leading:
                    continue
                raise AssertionError("crossing sequence lost alternation")
            value, leading = 1 - value, False
            push(queue, (t_c, _FIRE, name, generation, depth, value))

    # iteration 1: initial modes from declared initial bits, input edges queued
    for name, sig in input_signals.items():
        for t, value in sig.transitions:
            for dst, slot, delay in fanout[name]:
                push(queue, (t + delay, _ARRIVE, dst, slot, 0, value))
    for name, st in states.items():
        spec = st.spec
        mode = spec.choice(st.bits, None, ModeEntry(None, tuple(st.last_change)))
        enter(name, st, mode, spec.initial_state, 0.0, 0)

    iteration = 1
    iteration_times = [0.0]
    while True:
        # cancelled transitions surface here and are dropped
        while queue and queue[0][1] == _FIRE and queue[0][3] != states[queue[0][2]].generation:
            pop(queue)
        if not queue or queue[0][0] > horizon + TIME_EPS:
            break
        t_next = queue[0][0]
        iteration += 1
        iteration_times.append(t_next)
        window = t_next + TIME_EPS

        # the arrivals a commit sends into the window have later keys, so
        # they leave the queue later in this pass; each gate's in time order
        groups: dict[str, list[tuple[float, int, str, int, int, int]]] = {}
        while queue and queue[0][0] <= window:
            entry = pop(queue)
            t, kind, name, tag, depth, value = entry
            if kind == _ARRIVE:
                groups.setdefault(name, []).append(entry)
            else:
                st = states[name]
                if tag != st.generation:
                    continue
                if value == st.out_bit:
                    raise AssertionError(f"{name}: non-alternating commit at t={t}")
                if depth > iteration:
                    raise AssertionError(f"{name}: depth {depth} exceeds iteration {iteration}")
                if st.records and depth < st.records[-1].depth:
                    raise AssertionError(f"{name}: depth decreased at t={t}")
                st.records.append(TransitionRecord(horizon if horizon < t else t, value, depth, iteration))
                st.out_bit = value
                for dst, slot, delay in fanout[name]:
                    push(queue, (t + delay, _ARRIVE, dst, slot, depth, value))
            event_count += 1
            if event_count > event_cap:
                raise EventCapExceeded(f"more than {event_cap} events before t={t}")

        # then apply each gate's arrivals atomically
        order = groups
        if _shuffle is not None:
            order = list(groups)
            _shuffle.shuffle(order)
        for name in order:
            st = states[name]
            arrivals = groups[name]
            t_star = horizon if horizon < arrivals[0][0] else arrivals[0][0]
            prev_bits = st.bits
            ctx = ModeEntry(t_star, tuple(st.last_change))
            new_bits = list(st.bits)
            for t_a, _kind, _name, slot, _depth, value in arrivals:
                if new_bits[slot] == value:
                    raise AssertionError(f"{name}: duplicate arrival on slot {slot} at t={t_a}")
                new_bits[slot] = value
            if tuple(new_bits) == prev_bits:
                continue  # both edges of a zero-width pulse: the inputs never changed
            st.bits = tuple(new_bits)
            for t_a, _kind, _name, slot, depth, _value in arrivals:
                st.last_change[slot] = t_a
                if depth > st.max_arr_depth:
                    st.max_arr_depth = depth
            new_mode = st.spec.choice(st.bits, prev_bits, ctx)
            if new_mode is st.modes[-1][1]:
                continue  # no-op switch: retained transitions keep their depths
            x_star = st.live.state_at(t_star)
            # Transitions born in the new mode sit one causal step past
            # everything the gate's state carries: the deepest transition seen
            # on any input pin (per-signal depths never decrease, so the
            # running maximum over arrivals equals the maximum over each pin's
            # latest transition) and the gate's own last committed transition,
            # whose timing the continuing trajectory remembers.
            deepest = st.records[-1].depth if st.records else -1
            if deepest < st.max_arr_depth:
                deepest = st.max_arr_depth
            st.generation += 1  # cancels every transition still queued
            enter(name, st, new_mode, x_star, t_star, 1 + deepest)

    # memory peaks while the results are built; neither the queue's entries
    # past the horizon nor the live segments are needed for them, and each
    # gate's lists are dropped once copied; signals are built on first read
    queue.clear()
    for st in states.values():
        st.live = None

    records: dict[str, tuple[TransitionRecord, ...]] = {}
    modes: dict[str, tuple[tuple[float, ModeFunction], ...]] = {}
    for name, sig in input_signals.items():
        records[name] = tuple(
            TransitionRecord(tr.time, tr.value, 0, 1) for tr in sig.transitions
        )
    for name, st in states.items():
        records[name] = tuple(st.records)
        modes[name] = tuple(st.modes)
        st.records = st.modes = None
    for name, src in circuit._drivers:
        records[name] = records[src]

    return Execution(
        circuit=circuit,
        horizon=horizon,
        inputs=input_signals,
        records=records,
        modes=modes,
        iteration_times=iteration_times,
        event_count=event_count,
        delta_min=report.delta_min,
    )


# -- unrolling ----------------------------------------------------------------


@dataclass
class UnrolledCircuit:
    """Feedback-free expansion of a circuit toward one output port.

    ``copy_map`` maps (original vertex, level) to the copy's name, each key
    after the keys its copy's predecessors come from; input ports are
    shared, level-0 gates collapse to constants holding their initial
    output bit.  Each copy reproduces every record of its original vertex
    before the copy's reach time, the earliest time a switch of a gate cut
    at level 0 can arrive at it (see ``reach_times``).
    """

    circuit: Circuit
    copy_map: dict[tuple[str, int], str]
    sink: str


def unroll(circuit: Circuit, output_port: str, k: int) -> UnrolledCircuit:
    """The level-``k`` unrolling of ``circuit`` toward ``output_port``.

    The output port observes its driver at level ``k``, and a gate copy at
    level L >= 1 reads the copies at level L - 1 of its predecessors, so the
    unrolling has no feedback.  A gate copy is named ``g^(L)`` and shares its
    original's spec, the output port's copy is the sink ``O^(k)``, and input
    ports keep their names and are shared by every level.  Gates reached at
    level 0 are cut: one constant stub ``X_b`` per initial output bit b
    stands for every one of them.  A made-up name that would take an input
    port's name gets a suffix ``_2``, ``_3``, ...

    Copies are built bottom up, from level 0 to the sink, so the unrolled
    circuit's vertices and ``copy_map`` list each copy after its
    predecessors, which ``reach_times`` relies on.  An invalid circuit raises
    InvalidCircuitError; a name that is not an output port, or a level that
    is not a nonnegative integer, raises ValueError.
    """
    if not circuit.report.ok:
        raise InvalidCircuitError(circuit.report)
    if output_port not in circuit.vertices or not isinstance(
        circuit.vertices[output_port], OutputPort
    ):
        raise ValueError(f"{output_port!r} is not an output port")
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"the unrolling level must be an integer, got {k!r}") from None
    if k < 0:
        raise ValueError("the unrolling level must be nonnegative")

    new_vertices: dict[str, Vertex] = {}
    new_edges: list[Edge] = []
    copy_map: dict[tuple[str, int], str] = {}
    const_names: dict[int, str] = {}

    # input ports keep their names, so a made-up name avoids them too
    def fresh(base: str) -> str:
        name = base
        n = 2
        while name in new_vertices or name in circuit._inputs:
            name = f"{base}_{n}"
            n += 1
        return name

    # top down, the vertices each level needs (input ports have no in-edges)
    (driver,) = circuit.incoming(output_port)
    needed = [dict.fromkeys([driver.src])]
    for _ in range(k):
        needed.append(dict.fromkeys(e.src for v in needed[-1] for e in circuit.incoming(v)))
    needed.reverse()

    # bottom up, so every copy's predecessors are copied before it
    for level, v_names in enumerate(needed):
        for v_name in v_names:
            v = circuit.vertices[v_name]
            if isinstance(v, InputPort):
                name = v_name
                new_vertices[name] = v
            elif level == 0:
                # constants are interchangeable, so one stub per value serves
                # every gate cut at this level
                bit = initial_output_bit(v)
                if bit not in const_names:
                    const_names[bit] = fresh(f"X_{bit}")
                    new_vertices[const_names[bit]] = make_const_gate(bit, name=const_names[bit])
                name = const_names[bit]
            else:
                name = fresh(f"{v_name}^({level})")
                new_vertices[name] = v  # specs are stateless and shareable
                for e in circuit.incoming(v_name):
                    new_edges.append(Edge(copy_map[(e.src, level - 1)], name, e.slot))
            copy_map[(v_name, level)] = name
    # observation keeps the level
    sink = fresh(f"{output_port}^({k})")
    new_vertices[sink] = OutputPort()
    new_edges.append(Edge(copy_map[(driver.src, k)], sink, driver.slot))
    copy_map[(output_port, k)] = sink
    unrolled = Circuit(new_vertices, new_edges)
    if not unrolled.report.ok:  # construction bug, not user error
        raise AssertionError(f"unrolled circuit is invalid: {unrolled.report.violations}")
    return UnrolledCircuit(unrolled, copy_map, sink)


def reach_times(
    circuit: Circuit, unrolled: UnrolledCircuit, original: Execution
) -> dict[tuple[str, int], float]:
    """Earliest time a switch of a gate cut at level 0 can arrive at each copy.

    Keyed like ``unrolled.copy_map``; ``original`` is the run of ``circuit``
    the copies are compared against.  An input port is never reached, a
    level-0 constant standing for gate u is reached when u first commits a
    transition in ``original``, a gate copy at the least reach time of a
    predecessor copy plus that input's delay, and an output port copy when
    its driver is.  Keys, not copy names, carry the times because one
    constant stands for every gate cut with the same initial bit.

    Before its reach time a copy sees exactly the inputs the original vertex
    sees, so by induction over levels (execution is deterministic and causal
    with positive delays) its records equal the original's up to then.
    """
    reach: dict[tuple[str, int], float] = {}
    for key in unrolled.copy_map:  # each key after its predecessors' keys
        v_name, level = key
        v = circuit.vertices[v_name]
        if isinstance(v, InputPort):
            t = math.inf
        elif isinstance(v, OutputPort):
            (drv,) = circuit.incoming(v_name)
            t = reach[(drv.src, level)]
        elif level == 0:
            first = original.records[v_name][:1]
            t = first[0].time if first else math.inf
        else:
            t = min(
                (reach[(e.src, level - 1)] + v.input_delays[e.slot] for e in circuit.incoming(v_name)),
                default=math.inf,
            )
        reach[key] = t
    return reach


@dataclass
class EquivalenceReport:
    """Outcome of ``check_simulation_equivalence``.

    ``checked`` counts copies.  ``reach_mismatches`` are copies whose
    records differ from the original's before the copy's reach time, each
    one an executor fault, and ``reach_compared`` counts the original
    transitions that comparison saw.  ``ok`` holds when there are none.
    """

    checked: int
    reach_mismatches: list[str]
    reach_compared: int

    @property
    def ok(self) -> bool:
        return not self.reach_mismatches


def _records_mismatch(
    copy_name: str,
    a: list[TransitionRecord],
    b: list[TransitionRecord],
    scope: str,
) -> str | None:
    if len(a) != len(b):
        return f"{copy_name}: {len(b)} transitions {scope}, original has {len(a)}"
    for ra, rb in zip(a, b):
        if abs(ra.time - rb.time) > TIME_EPS or ra.value != rb.value or ra.depth != rb.depth:
            return (
                f"{copy_name}: ({rb.time}, {rb.value}, d={rb.depth}) "
                f"vs original ({ra.time}, {ra.value}, d={ra.depth})"
            )
    return None


def check_simulation_equivalence(
    circuit: Circuit,
    output_port: str,
    k: int,
    input_signals: Mapping[str, BinarySignal] | None,
    horizon: float,
) -> EquivalenceReport:
    """Compare every copy of the k-unrolling against its original vertex.

    The records strictly before each copy's reach time (see
    ``reach_times``) must agree in count, value, depth, and time (to
    ``TIME_EPS``).  This holds for a correct executor; failures go to
    ``reach_mismatches``.  After its reach time a copy may diverge, because
    a cut gate can mask an input edge the copy then answers, so nothing
    later is compared.
    """
    un = unroll(circuit, output_port, k)
    ex_orig = execute(circuit, input_signals, horizon)
    # shallow unrollings may cut every path to a port before reaching it
    kept = set(un.circuit.input_ports())
    ex_unr = execute(
        un.circuit,
        {n: s for n, s in (input_signals or {}).items() if n in kept},
        horizon,
    )
    reach = reach_times(circuit, un, ex_orig)
    reach_mismatches: list[str] = []
    reach_compared = 0
    for key, copy_name in sorted(un.copy_map.items()):
        t_reach = reach[key]
        before = [r for r in ex_orig.records[key[0]] if r.time < t_reach]
        reach_compared += len(before)
        found = _records_mismatch(
            copy_name,
            before,
            [r for r in ex_unr.records[copy_name] if r.time < t_reach],
            f"before t={t_reach}",
        )
        if found:
            reach_mismatches.append(found)
    return EquivalenceReport(len(un.copy_map), reach_mismatches, reach_compared)


# -- short-pulse filtration ----------------------------------------------------


@dataclass(frozen=True)
class SpfWidthResult:
    width: float
    norm: float
    last_input_edge: float
    last_output_edge: float | None
    settled: bool


@dataclass
class SpfReport:
    """Filtration profile of a single-input single-output circuit.

    The conditions are evaluated only on the supplied width grid; a clean
    report certifies the grid, not the continuum in between.
    """

    epsilon: float
    stabilization_bound: float
    single_io: bool
    no_generation: bool
    nontrivial: bool
    no_short_outputs: bool
    bounded_stabilization: bool
    results: list[SpfWidthResult] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.single_io
            and self.no_generation
            and self.nontrivial
            and self.no_short_outputs
            and self.bounded_stabilization
        )


def _single_io(circuit: Circuit) -> tuple[str, str] | None:
    ins = list(circuit.input_ports())
    outs = list(circuit.output_ports())
    if len(ins) == 1 and len(outs) == 1:
        return ins[0], outs[0]
    return None


def _pulse_response(
    circuit: Circuit,
    in_name: str,
    out_name: str,
    width: float,
    horizon: float,
    pulse_start: float,
) -> tuple[BinarySignal, float]:
    sig = BinarySignal.pulse(pulse_start, width, horizon)
    ex = execute(circuit, {in_name: sig}, horizon)
    out = ex.signals[out_name]
    return out, one_norm_distance(out, BinarySignal.constant(0, horizon))


def check_spf(
    circuit: Circuit,
    widths: Sequence[float],
    horizon: float,
    epsilon: float,
    stabilization_bound: float,
    pulse_start: float = 1.0,
) -> SpfReport:
    """Probe a candidate short-pulse filter over a grid of pulse widths.

    Checks: single input and output; a zero input yields a zero output; some
    width produces output; every produced output has one-norm at least
    ``epsilon``; and outputs settle within ``stabilization_bound`` of the
    last input edge.  ``epsilon`` must be finite and positive and
    ``stabilization_bound`` finite and nonnegative, else ``ValueError``.

    The verdicts certify only the widths on the grid: a width between two
    grid points may still give an output of norm inside (0, epsilon), or
    one that settles later.  On the storage loop (horizon 30, epsilon
    0.005, bound 2), 20 widths evenly from 0.01 to 0.99 pass, while 21 from
    0.01 to 0.06 find norm 0.0022 at width 0.015.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    if not (math.isfinite(stabilization_bound) and stabilization_bound >= 0):
        raise ValueError(
            f"stabilization_bound must be finite and nonnegative, got {stabilization_bound!r}"
        )
    io = _single_io(circuit)
    report = SpfReport(
        epsilon=epsilon,
        stabilization_bound=stabilization_bound,
        single_io=io is not None,
        no_generation=True,
        nontrivial=False,
        no_short_outputs=True,
        bounded_stabilization=True,
    )
    if io is None:
        report.violations.append("circuit is not single-input single-output")
        return report
    in_name, out_name = io
    if circuit.vertices[in_name].initial_value != 0:
        report.single_io = False
        report.violations.append("the input port must rest at 0")
        return report

    ex0 = execute(circuit, {in_name: BinarySignal.constant(0, horizon)}, horizon)
    if not ex0.signals[out_name].is_zero():
        report.no_generation = False
        report.violations.append("a zero input produced output transitions")

    for width in widths:
        out, norm = _pulse_response(circuit, in_name, out_name, width, horizon, pulse_start)
        last_in = min(pulse_start + width, horizon)
        last_out = out.times[-1] if out.times else None
        settled = last_out is None or last_out <= last_in + stabilization_bound
        report.results.append(SpfWidthResult(width, norm, last_in, last_out, settled))
        if norm > 1e-15:
            report.nontrivial = True
            if norm < epsilon:
                report.no_short_outputs = False
                report.violations.append(
                    f"width {width}: output norm {norm} is inside (0, {epsilon})"
                )
        if not settled:
            report.bounded_stabilization = False
            report.violations.append(
                f"width {width}: output still switching {last_out - last_in} after the input"
            )
    if not report.nontrivial:
        report.violations.append("no width on the grid produced any output")
    return report


def bisect_pulse_norm(
    circuit: Circuit,
    target_norm: float,
    lo: float,
    hi: float,
    horizon: float,
    pulse_start: float = 1.0,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Find an input width whose output one-norm hits ``target_norm``.

    Output norms vary continuously with the width wherever the output does
    not latch, so between a width producing less than the target and one
    producing more there is a width producing any value in between; this
    locates it by bisection and returns (width, norm).  ``tol`` bounds
    ``|norm - target_norm|`` and must be finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    io = _single_io(circuit)
    if io is None:
        raise ValueError("pulse-norm bisection needs a single-input single-output circuit")
    in_name, out_name = io

    def norm_at(w: float) -> float:
        return _pulse_response(circuit, in_name, out_name, w, horizon, pulse_start)[1]

    n_lo, n_hi = norm_at(lo), norm_at(hi)
    if not (n_lo < target_norm < n_hi):
        raise ValueError(
            f"target {target_norm} not bracketed: norm({lo})={n_lo}, norm({hi})={n_hi}"
        )
    for _ in range(200):  # the bracket reaches 1e-15 long before this
        mid = 0.5 * (lo + hi)
        n_mid = norm_at(mid)
        if abs(n_mid - target_norm) <= tol:
            return mid, n_mid
        if n_mid < target_norm:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    raise RuntimeError("bisection did not reach the requested norm tolerance")
