"""Hybrid gate models: digitized analog channels driven by delayed inputs.

A gate owns per-input pure delays, a family of internal ODE modes, and a
threshold comparator on one state component.  Each delayed input edge may
switch the active mode; the comparator digitizes the resulting continuous
state back into a binary output.  ``circuit.execute`` is the one
implementation of these semantics; ``gate_output`` runs one gate on known
input signals as a one-gate circuit, so its delays must be positive, and
the ``GateRun`` it returns is a view of that circuit's ``Execution``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .modes import ModeFunction, ScalarRelaxation, StateSpace, Trajectory, affine_mode
from .modes import matching_output_signal  # unused; bench/spans.py wraps it by name
from .signals import TIME_EPS, BinarySignal, ModeSwitchSignal
from .threshold import ThresholdSpec, digitize  # digitize: unused; bench/spans.py wraps it by name

if TYPE_CHECKING:
    from .circuit import Execution

__all__ = [
    "ModeEntry",
    "ChoiceFunction",
    "GateSpec",
    "GateRun",
    "gate_output",
    "initial_output_bit",
    "boolean_table",
    "make_boolean_gate",
    "make_const_gate",
    "make_idm_channel",
    "make_heater_plant",
    "SimpleNorParams",
    "make_simple_nor",
    "AdvancedNorParams",
    "make_advanced_nor",
    "IdmDelayMeasurement",
    "measure_idm_delays",
    "mis_delay_sweep",
]


class ModeEntry(NamedTuple):
    """Context handed to a choice function at a mode decision point.

    ``time`` is None for the initial selection.  ``last_input_change[i]`` is
    the time input ``i`` last changed BEFORE the current event (None if it
    never has), so a choice function can recover inter-edge gaps.
    Unchecked: the executor builds one per arrival group.
    """

    time: float | None
    last_input_change: tuple[float | None, ...]


ChoiceFunction = Callable[
    [tuple[int, ...], "tuple[int, ...] | None", ModeEntry], ModeFunction
]


@dataclass(frozen=True, eq=False)
class GateSpec:
    """A digitized hybrid gate: delays, mode choice, comparator, state box.

    The gate has one input per entry of ``input_delays``; ``arity`` is read
    from them.  ``initial_inputs`` declares the input bits the gate is built
    for at time zero; runs whose (delayed) inputs start elsewhere are
    rejected so the initial mode and ``initial_state`` stay consistent.
    ``choice`` picks the mode at each change of the input bits.  A
    memoryless gate's is one table from input bits to modes (``_table_gate``);
    the history-aware NOR's also reads the previous bits and the context.
    """

    name: str
    input_delays: tuple[float, ...]
    choice: ChoiceFunction
    initial_inputs: tuple[int, ...]
    initial_state: tuple[float, ...]
    threshold: ThresholdSpec
    state_space: StateSpace

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_delays", tuple(float(d) for d in self.input_delays))
        object.__setattr__(self, "initial_inputs", _input_bits(self.initial_inputs, self.arity))
        object.__setattr__(
            self, "initial_state", tuple(float(v) for v in self.initial_state)
        )
        if not all(math.isfinite(d) and d >= 0 for d in self.input_delays):
            raise ValueError("input delays must be finite and nonnegative")
        if len(self.initial_state) != self.state_space.dimension:
            raise ValueError("initial state dimension mismatch")
        if not self.state_space.contains(self.initial_state):
            raise ValueError("initial state outside the state space")
        if self.threshold.component > self.state_space.dimension:
            raise ValueError("threshold component out of range")

    @property
    def arity(self) -> int:
        return len(self.input_delays)

    @functools.cached_property
    def _circuits(self) -> dict:
        """This gate's one-gate circuits by input initial bits, built on
        first use by ``gate_output``; held here, not in a table keyed by the
        gate, so they go when the gate does (each refers back to the gate,
        so the cyclic collector frees the pair)."""
        return {}


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _bit(value, field: str) -> int:
    """``value`` as an int if it equals 0 or 1, else a ValueError naming
    ``field``; checked before converting, so 0.5 is refused, not truncated."""
    if value not in (0, 1):
        raise ValueError(f"{field} must be a bit, got {value!r}")
    return int(value)


def _input_bits(values: Sequence[int], arity: int) -> tuple[int, ...]:
    """``values`` as ``arity`` input bits; a factory checks them before it
    looks them up in a table, so a bad one is named, not a ``KeyError``."""
    if len(values) != arity:
        raise ValueError(f"need {arity} initial input bits")
    return tuple(_bit(b, f"initial_inputs[{i}]") for i, b in enumerate(values))


def initial_output_bit(gate: GateSpec) -> int:
    """Digitized output at time zero, before any mode has acted."""
    x = gate.initial_state[gate.threshold.component - 1]
    return 1 if x > gate.threshold.xi else 0


@dataclass(frozen=True)
class GateRun:
    """One standalone gate run: a view of its one-gate ``execution``, each
    attribute read from it when asked; ``switching`` and ``family`` are
    ``execution.switching("gate")``, the paper API's merged view."""

    execution: Execution

    @property
    def gate(self) -> GateSpec:
        return self.execution.circuit.vertices["gate"]

    @property
    def output(self) -> BinarySignal:
        return self.execution.signals["gate"]

    @property
    def trajectory(self) -> Trajectory:
        return self.execution.trajectory("gate")

    @property
    def switching(self) -> ModeSwitchSignal:
        return self.execution.switching("gate")[0]

    @property
    def family(self) -> dict:
        return self.execution.switching("gate")[1]


def gate_output(
    gate: GateSpec,
    inputs: Sequence[BinarySignal],
    horizon: float | None = None,
) -> GateRun:
    """Run one gate on known input signals over their shared horizon.

    This is ``execute`` of a one-gate circuit whose vertex is ``"gate"``:
    input ``i`` drives slot ``i`` through the gate's pure delay, so every
    delay must be strictly positive, as in any circuit (a zero delay raises
    ``InvalidCircuitError``, a ValueError).  The circuit is built and
    validated once per gate and tuple of input initial bits, and kept on
    the gate: a later call with the same bits only runs it, and one whose
    bits do not match the gate's raises the same ``InvalidCircuitError``
    each time.  A source gate needs an explicit ``horizon``.
    """
    from .circuit import Circuit, InputPort, OutputPort, execute  # circuit imports gates

    if len(inputs) != gate.arity:
        raise ValueError(f"{gate.name}: expected {gate.arity} inputs, got {len(inputs)}")
    if inputs:
        horizon = inputs[0].horizon
    elif horizon is None:
        raise ValueError(f"{gate.name}: a horizon is required for a source gate")

    ports = [f"in{i}" for i in range(gate.arity)]
    bits = tuple(s.initial_value for s in inputs)
    circuit = gate._circuits.get(bits)
    if circuit is None:
        circuit = Circuit(
            {**{p: InputPort(b) for p, b in zip(ports, bits)}, "gate": gate, "out": OutputPort()},
            [(p, "gate", slot) for slot, p in enumerate(ports)] + [("gate", "out", 0)],
        )
        gate._circuits[bits] = circuit
    return GateRun(execute(circuit, dict(zip(ports, inputs)), horizon))


# -- memoryless gates ------------------------------------------------------


def _table_gate(
    name: str,
    delays: Sequence[float],
    modes: dict[tuple[int, ...], ModeFunction],
    initial_inputs: Sequence[int],
    initial_state: Sequence[float],
    threshold: ThresholdSpec,
    space: StateSpace,
) -> GateSpec:
    """A gate whose mode is ``modes[bits]`` for the current input bits alone."""

    def choice(bits, prev_bits, ctx, _modes=modes):
        return _modes[bits]

    return GateSpec(name, delays, choice, initial_inputs, initial_state, threshold, space)


def _lag_modes(
    ids: Sequence[str], tau: float, levels: Sequence[float], space: StateSpace
) -> list[ModeFunction]:
    """First-order lags dx/dt = (level - x)/tau, one mode per id and level."""
    return [affine_mode(i, [[-1.0 / tau]], [level / tau], space) for i, level in zip(ids, levels)]


# -- boolean gates ---------------------------------------------------------

_NAMED_TABLES: dict[str, tuple[int, Callable[[tuple[int, ...]], int]]] = {
    "buf": (1, lambda b: b[0]),
    "not": (1, lambda b: 1 - b[0]),
    "inv": (1, lambda b: 1 - b[0]),
    "and2": (2, lambda b: b[0] & b[1]),
    "or2": (2, lambda b: b[0] | b[1]),
    "nand2": (2, lambda b: 1 - (b[0] & b[1])),
    "nor2": (2, lambda b: 1 - (b[0] | b[1])),
    "xor2": (2, lambda b: b[0] ^ b[1]),
    "xnor2": (2, lambda b: 1 - (b[0] ^ b[1])),
}


def boolean_table(function, arity: int | None = None) -> dict[tuple[int, ...], int]:
    """Full truth table for a named function, mapping, or callable."""
    if isinstance(function, str):
        if function not in _NAMED_TABLES:
            raise ValueError(f"unknown boolean function {function!r}")
        n, fn = _NAMED_TABLES[function]
        if arity is not None and arity != n:
            raise ValueError(f"{function!r} has arity {n}, not {arity}")
        return {bits: fn(bits) for bits in itertools.product((0, 1), repeat=n)}
    if callable(function):
        if arity is None:
            raise ValueError("arity is required with a callable")
        return {
            bits: int(bool(function(*bits)))
            for bits in itertools.product((0, 1), repeat=arity)
        }
    table = {tuple(int(b) for b in k): int(v) for k, v in dict(function).items()}
    arities = {len(k) for k in table}
    if len(arities) != 1:
        raise ValueError("truth table keys have mixed arity")
    n = arities.pop()
    if arity is not None and arity != n:
        raise ValueError(f"table arity {n} != requested {arity}")
    missing = [b for b in itertools.product((0, 1), repeat=n) if b not in table]
    if missing:
        raise ValueError(f"truth table is missing entries: {missing}")
    return table


def make_boolean_gate(
    function,
    delays: Sequence[float],
    tau_fast: float | None = None,
    initial_inputs: Sequence[int] | None = None,
    initial_output: int | None = None,
    v_dd: float = 1.0,
    name: str | None = None,
) -> GateSpec:
    """Idealized boolean gate: a fast first-order lag toward the table value.

    The internal node relaxes toward 0 or ``v_dd`` with time constant
    ``tau_fast`` (default one thousandth of the smallest input delay), so
    the analog response is negligible next to the declared delays.  If
    ``initial_output`` disagrees with the table at ``initial_inputs`` the
    gate starts in flight and produces an initial transition on its own.
    """
    arity = len(delays)
    table = boolean_table(function, arity)
    gate_name = name or (function if isinstance(function, str) else "bool")
    if not all(math.isfinite(d) for d in delays):  # before tau_fast is derived from them
        raise ValueError("input delays must be finite and nonnegative")
    initial_inputs = _input_bits((0,) * arity if initial_inputs is None else initial_inputs, arity)
    if tau_fast is None:
        if not delays or min(delays) <= 0:
            raise ValueError("tau_fast must be given when a delay is zero")
        tau_fast = 1e-3 * min(delays)
    _require_positive("tau_fast", tau_fast)
    if initial_output is None:
        initial_output = table[initial_inputs]
    initial_output = _bit(initial_output, "initial_output")

    box = StateSpace(((-0.01 * v_dd, 1.01 * v_dd),))
    lag = _lag_modes(("low", "high"), tau_fast, (0.0, v_dd), box)
    modes = {bits: lag[out] for bits, out in table.items()}
    x0 = (v_dd * float(initial_output),)
    return _table_gate(gate_name, delays, modes, initial_inputs, x0, ThresholdSpec(v_dd / 2.0), box)


def make_const_gate(value: int, v_dd: float = 1.0, name: str | None = None) -> GateSpec:
    """Zero-input gate holding a constant digitized output."""
    value = _bit(value, "value")
    box = StateSpace(((-0.01 * v_dd, 1.01 * v_dd),))
    modes = {(): affine_mode("hold", [[0.0]], [0.0], box)}
    x0 = (v_dd * float(value),)
    return _table_gate(name or f"const{value}", (), modes, (), x0, ThresholdSpec(v_dd / 2.0), box)


# -- single-input exponential channel ---------------------------------------


def make_idm_channel(
    tau: float = 1.0,
    delta_min: float = 0.1,
    xi: float = 0.5,
    initial_input: int = 0,
    name: str = "idm",
) -> GateSpec:
    """Pure delay ``delta_min`` into a first-order RC lag, then a comparator.

    This is the classic single-input channel whose measured up/down delays
    are mutual negative inverses, so cancelled-pulse behaviour extrapolates
    consistently to negative input-to-output separations.
    """
    _require_positive("tau", tau)
    _require_positive("delta_min", delta_min)
    if not 0.0 < xi < 1.0:
        raise ValueError(f"threshold must sit strictly inside (0, 1), got {xi}")
    initial_input = _bit(initial_input, "initial_input")  # it is the initial state too
    box = StateSpace(((-0.01, 1.01),))
    down, up = _lag_modes(("down", "up"), tau, (0.0, 1.0), box)
    modes = {(0,): down, (1,): up}
    x0 = (float(initial_input),)
    return _table_gate(name, (delta_min,), modes, (initial_input,), x0, ThresholdSpec(xi), box)


def make_heater_plant(
    delta: float = 0.01,
    xi: float = 19.0,
    initial_input: int = 1,
    initial_state: float = 20.0,
    name: str = "plant",
) -> GateSpec:
    """Thermal plant: dT/dt = -0.1 T (heater off) or 5 - 0.1 T (heater on).

    The comparator reports whether the temperature exceeds ``xi``; two copies
    with different levels give the band sensors of a thermostat loop.
    """
    _require_positive("delta", delta)
    initial_input = _bit(initial_input, "initial_input")
    box = StateSpace(((-1.0, 51.0),))
    off, on = _lag_modes(("off", "on"), 10.0, (0.0, 50.0), box)  # a = -0.1, b = 5.0 exactly
    modes = {(0,): off, (1,): on}
    x0 = (float(initial_state),)
    return _table_gate(name, (delta,), modes, (initial_input,), x0, ThresholdSpec(xi), box)


# -- two-transistor NOR models ----------------------------------------------


def _require_finite_positive(params) -> None:
    for f in fields(params):
        _require_positive(f.name, getattr(params, f.name))


@dataclass(frozen=True)
class SimpleNorParams:
    """Per-branch resistances, node capacitances, and the supply rail.

    Every field must be finite and positive, and no branch's capacitance
    times resistance may underflow to 0 (``make_simple_nor`` checks).  That
    keeps every network's spectrum real (the off-diagonal product k2 g2 is
    positive).  Each network is solved in closed form from its exact
    determinant, so a stiff one, with eigenvalues many decades apart, keeps
    its slow rate.
    """

    r1: float = 1.0
    r2: float = 1.0
    r3: float = 1.0
    r4: float = 1.0
    c: float = 1.0
    c_int: float = 1.0
    v_dd: float = 1.0

    def __post_init__(self) -> None:
        _require_finite_positive(self)


def make_simple_nor(
    params: SimpleNorParams | None = None,
    delays: Sequence[float] = (0.1, 0.1),
    initial_inputs: Sequence[int] = (0, 0),
    initial_state: Sequence[float] | None = None,
    name: str = "snor",
) -> GateSpec:
    """First-order RC NOR with an internal node between the series pull-ups.

    State is (V_int, V_out); the comparator watches V_out.  Each input pair
    selects a fixed affine network.  The model is deliberately memoryless
    about how long ago the first input fell: with both nodes discharged the
    (A=1, B=0) network holds the state frozen, so rising-output delay shows
    no multi-input switching dependence at all.
    """
    p = params or SimpleNorParams()
    box = StateSpace(
        ((-0.01 * p.v_dd, 1.01 * p.v_dd), (-0.01 * p.v_dd, 1.01 * p.v_dd))
    )

    def rate(cap: str, res: str) -> float:  # of one RC branch
        c, r = getattr(p, cap), getattr(p, res)
        if c * r == 0.0:
            raise ValueError(f"{cap} * {res} underflows to 0 ({cap}={c!r}, {res}={r!r})")
        return 1.0 / (c * r)

    k1, k2 = rate("c_int", "r1"), rate("c_int", "r2")
    g2, g3, g4 = rate("c", "r2"), rate("c", "r3"), rate("c", "r4")
    nets = {
        (1, 1): ([[0.0, 0.0], [0.0, -(g3 + g4)]], [0.0, 0.0]),
        (1, 0): ([[-k2, k2], [g2, -(g2 + g3)]], [0.0, 0.0]),
        (0, 1): ([[-k1, 0.0], [0.0, -g4]], [p.v_dd * k1, 0.0]),
        (0, 0): ([[-(k1 + k2), k2], [g2, -g2]], [p.v_dd * k1, 0.0]),
    }
    modes = {
        bits: affine_mode(f"s{bits[0]}{bits[1]}", a, b, box) for bits, (a, b) in nets.items()
    }
    initial_inputs = _input_bits(initial_inputs, len(delays))
    if initial_state is None:
        # the exact rest state its mode derives; for positive parameters only
        # (1, 1) is singular, with b = 0, so m = (0, 0) and c = (0.0, 0.0)
        initial_state = modes[initial_inputs].kind.plane.c
    threshold = ThresholdSpec(p.v_dd / 2.0, component=2)
    return _table_gate(name, delays, modes, initial_inputs, initial_state, threshold, box)


@dataclass(frozen=True)
class AdvancedNorParams:
    """Charging-path shape constants, channel resistances, and the rail.

    Every field must be finite and positive.  alpha1, alpha2 > 0 keeps the
    discriminant of the charging profile's denominator positive, so its two
    roots are real, distinct and at most zero (see ``_charging_exponent``).
    """

    alpha1: float = 0.5
    alpha2: float = 0.5
    r: float = 1.0
    r_na: float = 1.0
    r_nb: float = 1.0
    c: float = 1.0
    v_dd: float = 1.0

    def __post_init__(self) -> None:
        _require_finite_positive(self)


def _charging_exponent(p: AdvancedNorParams, t_on: float, gap: float, alpha_first: float):
    """Exponent phi(t) = (integral of rho from t_on to t) / C of a charging
    mode, and its slope phi'(t) = rho(t) / C.

    rho = num/den with den = 2R (tau + r1)(tau + r2), tau = t - t_on, where
    b = alpha1 + alpha2 + 2 gap R, c = alpha_first gap, D = b^2 - 8 R c and
    the small root is r1 = 2c/(b + sqrt D), the large one r2 = (b + sqrt D)/(4R).
    Then rho = 1/(2R) - (A/(tau + r1) + B/(tau + r2))/(4R^2) and

        phi = (tau/(2R) - (A log1p(tau/r1) + B log1p(tau/r2))/(4R^2)) / C.

    A = 2R r1 (gap - r1)/(r2 - r1) follows from r1 being a root, so it is
    not the cancelling difference c - (alpha1 + alpha2) r1; A log1p(tau/r1)
    shrinks like gap log(1/gap) as the gap closes, and B = alpha1 + alpha2 - A.
    A gap of 0 (r1 = 0), one so small that A underflows to 0 (tau/r1 would
    overflow), or of infinity leaves one pole:
    phi = (tau/(2R) - alpha/(4R^2) log1p(2R tau/alpha)) / C with alpha =
    alpha1 + alpha2 or alpha_first.  Defined for t >= t_on; it takes a float
    t and returns the pair (phi, phi'), computed with ``math`` in one pass
    over the poles.
    """
    two_r, alpha = 2.0 * p.r, p.alpha1 + p.alpha2
    if math.isinf(gap):
        poles = ((alpha_first, alpha_first / two_r),)
    else:
        b = alpha + two_r * gap
        root = b + math.sqrt(b * b - 4.0 * two_r * alpha_first * gap)
        r1 = 2.0 * alpha_first * gap / root
        r2 = root / (2.0 * two_r)
        a = two_r * r1 * (gap - r1) / (r2 - r1)
        poles = ((a, r1), (alpha - a, r2)) if a != 0.0 else ((alpha, r2),)
    terms = tuple((w / (two_r * two_r), r) for w, r in poles)

    def exponent(t, _t_on=t_on, _terms=terms):
        tau = t - _t_on
        phi, rate = tau / two_r, 1.0 / two_r
        for w, r in _terms:
            phi = phi - w * math.log1p(tau / r)
            rate = rate - w / (r + tau)
        return phi / p.c, rate / p.c

    return exponent


def make_advanced_nor(
    params: AdvancedNorParams | None = None,
    delays: Sequence[float] = (0.1, 0.1),
    initial_inputs: Sequence[int] = (0, 0),
    name: str = "anor",
) -> GateSpec:
    """Single-state NOR whose pull-up strength remembers the input history.

    Discharge modes are plain exponentials through one or both nMOS paths.
    The charging mode entered at (0, 0) depends on how the gate got there:
    its conductance ramps up from zero with a rational profile in the time
    since entry, parameterized by the gap between the two falling inputs
    (zero for a simultaneous fall, unbounded if the other input never fell).
    All variants share the settled charging rate (V_DD - V) / (2 R C).
    Every mode is solved in closed form: a charging mode is a
    :class:`ScalarRelaxation` toward V_DD whose exponent integrates the
    profile by partial fractions (``_charging_exponent``).
    """
    p = params or AdvancedNorParams()
    box = StateSpace(((-0.01 * p.v_dd, 1.01 * p.v_dd),))
    discharge = {  # memoryless: one or both nMOS paths conduct
        (1, 0): affine_mode("f1", [[-1.0 / (p.c * p.r_na)]], [0.0], box),
        (0, 1): affine_mode("f2", [[-1.0 / (p.c * p.r_nb)]], [0.0], box),
        (1, 1): affine_mode("f6", [[-(1.0 / p.r_na + 1.0 / p.r_nb) / p.c]], [0.0], box),
    }
    settled = affine_mode(
        "f0", [[-1.0 / (2.0 * p.r * p.c)]], [p.v_dd / (2.0 * p.r * p.c)], box
    )
    fresh = itertools.count()
    k_chg = 1.0 / (2.0 * p.r * p.c)
    m_chg = 1.01 * p.v_dd * k_chg

    def charging(t_on: float, gap: float, alpha_first: float) -> ModeFunction:
        # conductance ramp: num/den stays in [0, 1/(2R)] for all t >= t_on
        def rhs(t, x, _t0=t_on, _gap=gap, _af=alpha_first):
            tt = t - _t0
            if tt < 0.0:
                tt = 0.0
            if math.isinf(_gap):
                num = tt
                den = 2.0 * p.r * tt + _af
            else:
                num = tt * (tt + _gap)
                den = (
                    2.0 * p.r * tt * tt
                    + (p.alpha1 + p.alpha2 + 2.0 * _gap * p.r) * tt
                    + _af * _gap
                )
            rho = num / den if den > 0.0 else 0.0
            return (p.v_dd - x) * (rho / p.c)

        kind = ScalarRelaxation(p.v_dd, _charging_exponent(p, t_on, gap, alpha_first))
        return ModeFunction(f"chg{next(fresh)}", rhs, kind, k_chg, m_chg)

    def choice(bits, prev_bits, ctx, _discharge=discharge):
        if bits in _discharge:
            return _discharge[bits]
        if prev_bits is None:
            return settled
        if prev_bits == (1, 1):
            return charging(ctx.time, 0.0, p.alpha1)
        if prev_bits == (1, 0):  # B fell first, A falls now
            last = ctx.last_input_change[1]
            gap = math.inf if last is None else ctx.time - last
            return charging(ctx.time, gap, p.alpha1)
        if prev_bits == (0, 1):  # A fell first, B falls now
            last = ctx.last_input_change[0]
            gap = math.inf if last is None else ctx.time - last
            return charging(ctx.time, gap, p.alpha2)
        raise AssertionError(f"unreachable mode decision: {prev_bits} -> {bits}")

    initial_inputs = _input_bits(initial_inputs, len(delays))
    x0 = p.v_dd if initial_inputs == (0, 0) else 0.0
    threshold = ThresholdSpec(p.v_dd / 2.0)
    return GateSpec(name, delays, choice, initial_inputs, (x0,), threshold, box)


# -- delay measurements ------------------------------------------------------


@dataclass(frozen=True)
class IdmDelayMeasurement:
    """Round trip through the falling and rising delay maps of a channel."""

    t_after_output: float
    delta_down: float
    t_prime: float
    delta_up: float
    roundtrip_error: float


def measure_idm_delays(
    t_after_output: float,
    tau: float = 1.0,
    delta_min: float = 0.1,
    xi: float = 0.5,
) -> IdmDelayMeasurement:
    """Measure delta_down(T), then delta_up at T' = -delta_down(T).

    delta_down is read off a digitized run: the input falls T after the
    output rose, and the falling output delay is measured directly.  The
    matching rising measurement needs a negative separation (the input
    rises before the output would fall), where no output edge exists, so
    delta_up is recovered from the analog state at the mode switch by
    solving the rising exponential for its threshold crossing; that solve
    is exact for this channel.  A perfect round trip has -delta_up == T.
    """
    T = float(t_after_output)
    if T < 0:
        raise ValueError("the input-after-output separation must be nonnegative")
    horizon = 2.0 + 2.0 * delta_min + 10.0 * tau + T

    gate_lo = make_idm_channel(tau, delta_min, xi, initial_input=0)
    r0 = 1.0
    run_step = gate_output(gate_lo, [BinarySignal(0, ((r0, 1),), horizon)])
    if len(run_step.output.times) != 1:
        raise RuntimeError("step input produced an unexpected output shape")
    o1 = run_step.output.times[0]

    u = o1 + T
    run_pulse = gate_output(gate_lo, [BinarySignal(0, ((r0, 1), (u, 0)), horizon)])
    if len(run_pulse.output.times) != 2:
        raise RuntimeError("pulse input did not produce a rise and a fall")
    delta_down = run_pulse.output.times[1] - u

    t_prime = -delta_down
    gate_hi = make_idm_channel(tau, delta_min, xi, initial_input=1)
    a0 = 1.0
    run_ref = gate_output(gate_hi, [BinarySignal(1, ((a0, 0),), horizon)])
    if len(run_ref.output.times) != 1:
        raise RuntimeError("falling step produced an unexpected output shape")
    o_ref = run_ref.output.times[0]

    u_prime = o_ref + t_prime
    if u_prime - a0 <= 10 * TIME_EPS:
        raise ValueError("separation too large to resolve the cancelling edge")
    run_test = gate_output(gate_hi, [BinarySignal(1, ((a0, 0), (u_prime, 1)), horizon)])
    x_sw = float(run_test.trajectory.value(u_prime + delta_min)[0])
    if x_sw >= 1.0:
        raise RuntimeError("state saturated before the rising switch")
    delta_up = delta_min + tau * math.log((1.0 - x_sw) / (1.0 - xi))
    return IdmDelayMeasurement(T, delta_down, t_prime, delta_up, abs(-delta_up - T))


def mis_delay_sweep(
    gate_factory: Callable[[], GateSpec],
    gaps: Sequence[float],
    lead: float = 1.0,
    settle: float = 20.0,
) -> list[float]:
    """Rising-output delay of a NOR as a function of the falling-input gap.

    Both inputs start high (output low).  Input B falls at ``lead``, input A
    falls ``gap`` later, and the reported delay is from A's fall to the
    output's rise.  Gate factories must declare initial inputs (1, 1).
    ``gate_factory`` is called once per gap, and each gap is one
    ``gate_output`` call read only for its ``output``, so a factory that
    returns one gate builds and validates its circuit once.
    """
    out: list[float] = []
    for gap in gaps:
        if gap < 0:
            raise ValueError("gaps must be nonnegative")
        gate = gate_factory()
        if gate.initial_inputs != (1, 1):
            raise ValueError(f"{gate.name}: sweep needs a gate built for inputs (1, 1)")
        horizon = lead + gap + settle
        sig_a = BinarySignal(1, ((lead + gap, 0),), horizon)
        sig_b = BinarySignal(1, ((lead, 0),), horizon)
        output = gate_output(gate, [sig_a, sig_b]).output
        rises = [tr.time for tr in output.transitions if tr.value == 1]
        if not rises:
            raise RuntimeError(f"{gate.name}: output never rose within the horizon")
        out.append(rises[0] - (lead + gap))
    return out
