"""Shared fixtures and signal-generation strategies."""

from __future__ import annotations

import decimal
import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import hybridgates
from hybridgates.circuit import Circuit, Edge, InputPort, OutputPort, Vertex, execute
from hybridgates.cli import _preset_names, load_circuit
from hybridgates.gates import boolean_table, make_advanced_nor, make_boolean_gate, make_simple_nor, mis_delay_sweep
from hybridgates.signals import TIME_EPS, BinarySignal, ModeSwitchSignal, Transition


@pytest.fixture
def rng():
    return random.Random(20260816)


def random_binary_signal(r: random.Random, horizon: float, max_transitions: int = 8) -> BinarySignal:
    n = r.randint(0, max_transitions)
    times = sorted(r.uniform(0.0, horizon) for _ in range(n))
    # enforce pairwise separation so canonicalization keeps all of them
    times = [t for i, t in enumerate(times) if i == 0 or t - times[i - 1] > 1e-6]
    init = r.randint(0, 1)
    vals = [(init + i + 1) % 2 for i in range(len(times))]
    return BinarySignal(init, tuple(zip(times, vals)), horizon)


def random_mode_signal(r: random.Random, horizon: float, modes, max_switches: int = 6) -> ModeSwitchSignal:
    n = r.randint(0, max_switches)
    times = sorted(r.uniform(0.0, horizon) for _ in range(n))
    times = [t for i, t in enumerate(times) if i == 0 or t - times[i - 1] > 1e-6]
    init = r.choice(modes)
    return ModeSwitchSignal(init, tuple((t, r.choice(modes)) for t in times), horizon)


# -- random circuits -----------------------------------------------------------

_GATE_KINDS = ("nor2", "nand2", "or2", "and2", "not")


def random_boolean_circuit(
    rng: random.Random,
    n_gates: int | None = None,
    feedback: bool = True,
    allow_flight: bool = True,
    n_inputs: int | None = None,
) -> Circuit:
    """Random circuit of small boolean gates, optionally with feedback loops.

    With ``allow_flight`` each gate gets an arbitrary initial output bit, so
    loops may start in flight and oscillate on their own.  Without it, the
    initial bits are solved to a consistent fixed point (regenerating the
    topology if a loop has none), which level-0 unrolling requires.
    """
    n_gates = n_gates if n_gates is not None else rng.randint(2, 6)
    n_inputs = n_inputs if n_inputs is not None else rng.randint(1, 2)
    port_names = [f"in{i}" for i in range(n_inputs)]

    for _attempt in range(64):
        kinds = [rng.choice(_GATE_KINDS) for _ in range(n_gates)]
        gate_names = [f"g{i}" for i in range(n_gates)]
        drivers: dict[str, list[str]] = {}
        for i, name in enumerate(gate_names):
            arity = 1 if kinds[i] == "not" else 2
            pool = port_names + (gate_names if feedback else gate_names[:i])
            drivers[name] = [rng.choice(pool) for _ in range(arity)]

        bits = {p: 0 for p in port_names}
        bits.update({g: rng.randint(0, 1) for g in gate_names})
        if not allow_flight:
            tables = {g: boolean_table(kinds[i]) for i, g in enumerate(gate_names)}
            ok = False
            for _ in range(64):
                new = dict(bits)
                for g in gate_names:
                    new[g] = tables[g][tuple(bits[d] for d in drivers[g])]
                if new == bits:
                    ok = True
                    break
                bits = new
            if not ok:
                continue  # the loop parity admits no consistent start

        vertices: dict[str, Vertex] = {p: InputPort(0) for p in port_names}
        edges: list[Edge] = []
        for i, g in enumerate(gate_names):
            delays = tuple(rng.uniform(0.05, 0.3) for _ in drivers[g])
            vertices[g] = make_boolean_gate(
                kinds[i],
                delays,
                initial_inputs=tuple(bits[d] for d in drivers[g]),
                initial_output=bits[g],
                name=g,
            )
            for slot, d in enumerate(drivers[g]):
                edges.append(Edge(d, g, slot))
        vertices["out"] = OutputPort()
        edges.append(Edge(rng.choice(gate_names), "out", 0))

        c = Circuit(vertices, edges)
        if c.report.ok:
            return c
    raise RuntimeError("could not generate a consistent random circuit")


def shuffled_copy(circuit: Circuit, rng: random.Random) -> Circuit:
    """Same circuit with vertex and edge insertion order permuted."""
    names = list(circuit.vertices)
    rng.shuffle(names)
    edges = list(circuit.edges)
    rng.shuffle(edges)
    return Circuit({n: circuit.vertices[n] for n in names}, edges)


@st.composite
def binary_signals(draw, horizon: float = 10.0, max_transitions: int = 6):
    n = draw(st.integers(min_value=0, max_value=max_transitions))
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=horizon, allow_nan=False),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    times = sorted(times)
    times = [t for i, t in enumerate(times) if i == 0 or t - times[i - 1] > 1e-6]
    init = draw(st.integers(min_value=0, max_value=1))
    vals = [(init + i + 1) % 2 for i in range(len(times))]
    return BinarySignal(init, tuple(zip(times, vals)), horizon)


def reference_signal_transitions(initial_value, transitions, horizon: float) -> tuple[Transition, ...]:
    """What ``BinarySignal(initial_value, transitions, horizon)`` keeps, or
    raises, computed in two passes: one that checks, clamps and cancels,
    reading the last kept transition off the stack, then an alternation
    check of what is left.  The reference that construction's single pass
    is held to."""
    if initial_value not in (0, 1):
        raise ValueError(f"initial value must be 0 or 1, got {initial_value!r}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    stack: list[Transition] = []
    for t, v in transitions:
        if v not in (0, 1):
            raise ValueError(f"transition value must be 0 or 1, got {v!r}")
        t, v = float(t), int(v)
        if not math.isfinite(t):
            raise ValueError(f"transition time must be finite, got {t!r}")
        if t < -TIME_EPS or t > horizon + TIME_EPS:
            raise ValueError(f"transition at t={t} outside [0, {horizon}]")
        t = min(max(t, 0.0), horizon)
        if stack and t < stack[-1].time - TIME_EPS:
            raise ValueError("transition times must be sorted increasing")
        if stack and t - stack[-1].time <= TIME_EPS:
            if v != stack[-1].value:
                stack.pop()
                continue
            raise ValueError(f"two transitions to value {v} at time {t}")
        stack.append(Transition(t, v))
    prev = initial_value
    for tr in stack:
        if tr.value == prev:
            raise ValueError(f"transition at t={tr.time} does not alternate (value {tr.value} repeated)")
        prev = tr.value
    return tuple(stack)


def preset_stimulus(preset: str):
    """A preset's circuit, a staggered pulse on each input, and its horizon."""
    cf = load_circuit(f"preset:{preset}")
    horizon = cf.defaults["horizon"]
    inputs = {}
    for i, (name, port) in enumerate(cf.circuit.input_ports().items()):
        b = port.initial_value  # a pulse away from it, staggered per input
        inputs[name] = BinarySignal(b, ((1.0 + 0.3 * i, 1 - b), (3.0 + 0.7 * i, b)), horizon)
    return cf.circuit, inputs, horizon


def shipped_preset_runs():
    """Each preset run on its ``preset_stimulus``, as (circuit, execution)
    pairs."""
    for preset in _preset_names():
        circuit, inputs, horizon = preset_stimulus(preset)
        yield circuit, execute(circuit, inputs, horizon)


def run_every_shipped_gate():
    """Every preset with a staggered pulse on each input, and both NOR MIS sweeps."""
    for _ in shipped_preset_runs():
        pass
    gaps = [0.0, 1e-9, 0.5, 3.0]
    mis_delay_sweep(lambda: make_advanced_nor(initial_inputs=(1, 1)), gaps)
    mis_delay_sweep(lambda: make_simple_nor(initial_inputs=(1, 1)), gaps)


def run_fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports the same ``hybridgates``
    and this directory's modules; returns its stdout.  For checks of what an
    import loads, which the test process, having imported scipy, cannot make."""
    path = [str(Path(hybridgates.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class FunctionSegment:
    """A known state function ``fn`` of an array of times on [t0, t1].  It
    has no ``crossings``, so the library cannot cross it; :func:`sampled_crossings`
    samples it, the reference that the closed forms are checked against."""

    __slots__ = ("t0", "t1", "fn", "dimension")

    def __init__(self, t0: float, t1: float, fn):
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.fn = fn
        probe = np.atleast_2d(np.asarray(fn(np.asarray([t0]))))
        self.dimension = probe.shape[1] if probe.shape[0] == 1 else probe.shape[0]

    def values(self, ts) -> np.ndarray:
        out = np.asarray(self.fn(np.atleast_1d(np.asarray(ts, dtype=float))), dtype=float)
        return out[:, None] if out.ndim == 1 else out

    def value(self, t: float) -> np.ndarray:
        return self.values([t])[0]


# Per-segment sampling grid of the sampled reference, before refinement.
_PROBE_POINTS = 64


def _refined_samples(segment, xi: float, component: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampling grid for one segment, uniform, then refined twice where the
    state runs close to the threshold relative to its local variation."""
    ts = np.linspace(segment.t0, segment.t1, max(_PROBE_POINTS, 2))
    g = np.array(segment.values(ts))[:, component - 1] - xi
    for _ in range(2):
        extra: list[np.ndarray] = []
        flips = (g[:-1] > 0) != (g[1:] > 0)
        near = np.minimum(np.abs(g[:-1]), np.abs(g[1:])) < 10.0 * np.abs(np.diff(g))
        for i in np.nonzero(flips | near)[0]:
            if ts[i + 1] - ts[i] > 4 * TIME_EPS:
                extra.append(np.linspace(ts[i], ts[i + 1], 18)[1:-1])
        if not extra:
            break
        ts = np.unique(np.concatenate([ts, *extra]))
        g = np.array(segment.values(ts))[:, component - 1] - xi
    return ts, g


def _bisect_crossing(segment, lo: float, hi: float, pred_lo: bool, xi: float, component: int) -> float:
    while hi - lo > TIME_EPS:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float exhaustion
            break
        if (segment.value(mid)[component - 1] > xi) == pred_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sampled_crossings(segments, xi: float, component: int = 1) -> list[tuple[float, bool]]:
    """What ``find_crossings`` returns, found from samples of any segments
    that answer ``values``: each segment's refined grid, each predicate
    change between samples bisected to ``TIME_EPS``, and a junction whose
    predicates differ crossed at the later segment's start.  Tangential
    touches that never change the predicate between samples give no edge.
    Three consecutive samples exactly on ``xi`` warn, as a plateau does."""
    crossings: list[tuple[float, bool]] = []
    carried = None
    for segment in segments:
        ts, g = _refined_samples(segment, xi, component)
        on_line = g == 0.0
        if on_line.size >= 3 and np.any(on_line[:-2] & on_line[1:-1] & on_line[2:]):
            warnings.warn(
                "trajectory runs exactly on the threshold over consecutive samples",
                RuntimeWarning,
                stacklevel=2,
            )
        pred = g > 0.0
        if carried is not None and pred[0] != carried:
            crossings.append((segment.t0, bool(pred[0])))
        for i in np.nonzero(pred[:-1] != pred[1:])[0]:
            lo, hi = float(ts[i]), float(ts[i + 1])
            crossings.append((_bisect_crossing(segment, lo, hi, bool(pred[i]), xi, component), bool(pred[i + 1])))
        carried = pred[-1]
    return crossings


def reference_component(seg, k: int, t: float) -> float:
    """Component ``k`` (1-based) of a 2-state ``AffineSegment`` at ``t``,
    from that component's own closed form with its own exp, cos and sin
    calls: ``x0`` itself at t0, and where an exp overflows, the same form
    with each overflowing exp read as inf (so a zero coefficient times it
    is NaN).  The per-component evaluation that the segment's shared one
    is held to, float for float."""
    plane, t0, (p, q) = seg.kind.plane, seg.t0, seg._pq[2 * k - 2 : 2 * k]
    form, rates = plane.form, plane.rates
    c = (seg.x0 if form == "quadratic" else plane.c)[k - 1]

    def at(exp):
        if form == "quadratic":
            return c + (p + q * (t - t0)) * (t - t0)
        if form == "repeated":
            return c + exp(rates[0] * (t - t0)) * (p + q * (t - t0))
        if form == "complex":
            tau, w = rates
            return c + exp(tau * (t - t0)) * (p * math.cos(w * (t - t0)) + q * math.sin(w * (t - t0)))
        m, (l1, l2, _) = plane.m[k - 1], rates
        return c + m * (t - t0) + p * exp(l1 * (t - t0)) + q * exp(l2 * (t - t0))

    if t == t0:
        return seg.x0[k - 1]
    try:
        return at(math.exp)
    except OverflowError:  # inf where math.exp overflows, as numpy's exp reads
        return at(lambda u: math.exp(u) if u <= math.log(sys.float_info.max) else math.inf)


def reference_charging_exponent(p, t_on: float, gap: float, alpha_first: float):
    """phi alone of the advanced NOR's charging mode, from the same poles and
    with the same operations in the same order as ``gates._charging_exponent``.
    The reference that the exponent's phi is held to, float for float."""
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

    def phi(t: float) -> float:
        tau = t - t_on
        value = tau / two_r
        for w, r in terms:
            value = value - w * math.log1p(tau / r)
        return value / p.c

    return phi


def reference_charging_rate(p, t_on: float, gap: float, alpha_first: float):
    """rho/C of the advanced NOR's charging mode, a function of the time t,
    from the rational conductance profile num/den itself (after Ferdowsi,
    Maier, Öhlinger and Schmid, DATE 2022), clamped to 0 before ``t_on``.
    Not the partial fractions ``gates._charging_exponent`` integrates: the
    independent reference that the exponent's slope phi' is held to."""

    def rate(t: float) -> float:
        tt = t - t_on
        if tt < 0.0:
            tt = 0.0
        if math.isinf(gap):
            num = tt
            den = 2.0 * p.r * tt + alpha_first
        else:
            num = tt * (tt + gap)
            den = (
                2.0 * p.r * tt * tt
                + (p.alpha1 + p.alpha2 + 2.0 * gap * p.r) * tt
                + alpha_first * gap
            )
        rho = num / den if den > 0.0 else 0.0
        return rho / p.c

    return rate


def decimal_affine_values(a, b, x0, t0: float, ts, digits: int = 60) -> list[tuple[float, ...]]:
    """x(t) at each float time t of ``ts``, which runs from ``t0`` in nearly
    equal steps, for dx/dt = a x + b with x(t0) = x0, computed with
    ``decimal`` at ``digits`` digits and rounded to floats.

    One exponential E of the augmented matrix [[a h, b h], [0, 0]], h the
    mean step, maps (x, 1) at t0 + k h to (x, 1) at t0 + (k + 1) h.  It is a
    Taylor series of the matrix halved until its row-sum norm is at most
    1/2, squared back (Higham, "The scaling and squaring method for the
    matrix exponential revisited", SIAM J. Matrix Anal. Appl. 2005).  Each
    sample is moved from t0 + k h to its float time by one Euler step d (a x
    + b), whose error is of order d^2 |a|^2 |x|, with d a few ulps of t.
    The exact reference, free of an integrator's error, that the affine
    closed forms are held to."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        n, t0 = len(x0), D(float(t0))
        a, b = [[D(float(v)) for v in row] for row in a], [D(float(v)) for v in b]
        h = (D(float(ts[-1])) - t0) / (len(ts) - 1)
        m = [[v * h for v in row] + [c * h] for row, c in zip(a, b)] + [[D(0)] * (n + 1)]
        squarings = 0
        while max(sum(map(abs, row)) for row in m) > D("0.5"):
            m = [[v / 2 for v in row] for row in m]
            squarings += 1

        def product(u, v):
            return [[sum(u[i][k] * v[k][j] for k in range(n + 1)) for j in range(n + 1)] for i in range(n + 1)]

        e = term = [[D(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
        for k in itertools.count(1):
            term = [[v / k for v in row] for row in product(term, m)]
            e = [[u + v for u, v in zip(r, s)] for r, s in zip(e, term)]
            if max(abs(v) for row in term for v in row) < D(10) ** -(digits + 5):
                break
        for _ in range(squarings):
            e = product(e, e)
        state, out = [D(float(v)) for v in x0] + [D(1)], []
        for k, t in enumerate(ts):
            d = D(float(t)) - t0 - k * h
            slope = [sum(u * v for u, v in zip(row, state)) + c for row, c in zip(a, b)]
            out.append(tuple(float(v + d * dv) for v, dv in zip(state, slope)))
            state = [sum(u * v for u, v in zip(row, state)) for row in e]
        return out


def term_scale(seg, k: int) -> float:
    """Bound on the magnitudes that the closed form of component ``k`` of a
    2-state ``AffineSegment`` adds up over the segment: its constant and
    coefficients, and the rounding of x0 - c that the coefficients carry,
    times their largest growth.  Its rounding is relative to this."""
    plane, (p, q), span = seg.kind.plane, seg._pq[2 * k - 2 : 2 * k], seg.t1 - seg.t0
    rate = max(plane.rates[:2]) if plane.form == "real" else (plane.rates or (0.0,))[0]
    rows = max(abs(v) for row in plane.rows for v in row[:2])
    y0 = max(map(abs, seg.x0)) + max(map(abs, plane.c))
    terms = abs(seg.x0[k - 1]) + abs(plane.c[k - 1]) + abs(plane.m[k - 1]) + abs(p) + abs(q)
    return (terms + rows * y0) * max(1.0, math.exp(rate * span)) * (1.0 + span) ** 2
