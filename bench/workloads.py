"""Seeded workload generators and builders for the hybridgates benchmark.

A generator turns a seed into plain data (a circuit description plus its
input stimuli, or a list of sweep points), so determinism can be checked by
comparing data.  ``build`` turns that data into hybridgates objects and a
list of requests: zero-argument callables, each one public library call
that the runner times on its own.

Every workload is shaped so that its simulated work does not depend on the
seed: the ring runs a whole number of traversals, and ``wide`` and ``nor``
drive all inputs with skewed copies of one logical pulse train, so every
gate switches a fixed number of times.  Host time per call then moves with
the program, not with the seed.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable

WORKLOADS = ("ring", "wide", "nor", "sweep")
DEFAULT_SEED = 0

# Per-causal-step time tolerance of the output comparator.  Affine modes are
# solved in closed form and crossings bisected to 1e-12, and an analytic
# crossing moves a time by at most ~2e-12, so 1e-11 per step leaves margin.
# Numeric (RK45, rel_tol 1e-9) charging modes are only accurate to ~1e-9 in
# state, which at the NOR's threshold slope is ~1e-8 in time.
AFFINE_STEP_TOL = 1e-11
NUMERIC_STEP_TOL = 1e-7

LN2 = math.log(2.0)

# Workload sizes.  The generators' stimuli and horizons are shaped for these
# sizes: the wide pulse must outlast the largest path skew (WIDE_LAYERS * 0.1
# + 0.2), and the nor horizon and its half-and-half NOR kinds assume an even
# gate count and NOR_PULSES pulses.
RING_GATES, RING_TRAVERSALS = 5, 20
WIDE_LAYERS, WIDE_WIDTH, WIDE_INPUTS = 25, 20, 4
NOR_LAYERS, NOR_WIDTH, NOR_PULSES, NOR_INPUTS = 4, 6, 1, 4


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"hybridgates-bench:{workload}:{seed}")


# -- generators (pure data) ------------------------------------------------------


def gen_ring(seed: int) -> dict:
    """Five inverters in a ring with one gate in flight.

    Gate 0 starts inconsistent with its input, so a single edge circulates.
    The horizon ends halfway between the last commit of RING_TRAVERSALS full
    loops and the arrival it causes, so the event count is exact.
    """
    rng = _rng("ring", seed)
    n = RING_GATES
    delays = [rng.uniform(0.09, 0.11) for _ in range(n)]
    bits = [i % 2 for i in range(n)]  # odd ring: gate 0 is in flight
    gates = []
    for i in range(n):
        drv = f"g{(i - 1) % n}"
        gates.append({
            "name": f"g{i}", "kind": "not", "delays": [delays[i]],
            "initial_inputs": [bits[(i - 1) % n]], "initial_output": bits[i],
            "drivers": [drv],
        })
    commits = ring_commit_times(delays, n * RING_TRAVERSALS + 1)
    horizon = commits[-1] + 0.5 * delays[(len(commits)) % n]
    return {
        "workload": "ring", "seed": seed, "gates": gates, "inputs": {},
        "outputs": {"out": "g0"}, "horizon": horizon,
        "expected_events": 2 * len(commits) - 1, "step_tol": AFFINE_STEP_TOL,
    }


def ring_commit_times(delays: list[float], count: int) -> list[float]:
    """Closed form of the ring: commit k is made by gate ``k mod n``.

    Each inverter relaxes with tau = delay / 1000 from a settled rail, so it
    crosses the mid-rail threshold tau * ln 2 after its input arrives.
    """
    n = len(delays)
    taus = [1e-3 * d for d in delays]
    times = [taus[0] * LN2]
    for k in range(1, count):
        i = k % n
        times.append(times[-1] + delays[i] + taus[i] * LN2)
    return times


def gen_wide(seed: int) -> dict:
    """Feed-forward layers of random 2-input AND/OR or NAND/NOR gates.

    Each layer is all non-inverting or all inverting, and every input carries
    a skewed copy of one pulse, so every gate sees both inputs make the same
    change and switches exactly once per input edge.  The pulse is wider than
    the largest path skew, so nothing is filtered.
    """
    rng = _rng("wide", seed)
    inputs = [f"in{i}" for i in range(WIDE_INPUTS)]
    bits = {name: 0 for name in inputs}
    gates = []
    prev = inputs
    for layer in range(WIDE_LAYERS):
        family = rng.choice((("and2", "or2"), ("nand2", "nor2")))
        cur = []
        for j in range(WIDE_WIDTH):
            name = f"L{layer}_{j}"
            fn = rng.choice(family)
            a, b = rng.sample(prev, 2)
            ib = [bits[a], bits[b]]
            gates.append({
                "name": name, "kind": fn,
                "delays": [rng.uniform(0.05, 0.15), rng.uniform(0.05, 0.15)],
                "initial_inputs": ib, "drivers": [a, b],
            })
            bits[name] = _table(fn, ib)
            cur.append(name)
        prev = cur
    width_p = rng.uniform(4.0, 5.0)
    rise = 0.5
    signals = {}
    for name in inputs:
        skew = rng.uniform(0.0, 0.2)
        signals[name] = [0, [[rise + skew, 1], [rise + width_p + skew, 0]]]
    horizon = rise + 5.0 + 0.2 + WIDE_LAYERS * 0.15 + 1.0  # seed-independent, past the last edge
    return {
        "workload": "wide", "seed": seed, "gates": gates, "inputs": signals,
        "outputs": {f"out{j}": g for j, g in enumerate(prev[:4])},
        "horizon": horizon, "expected_events": 3 * len(gates) * 2,
        "step_tol": AFFINE_STEP_TOL,
    }


def _table(fn: str, bits: list[int]) -> int:
    a, b = bits
    return {"and2": a & b, "or2": a | b, "nand2": 1 - (a & b), "nor2": 1 - (a | b)}[fn]


def gen_nor(seed: int) -> dict:
    """Mesh of history-aware and memoryless NOR gates, half of each.

    Inputs rest high and carry skewed copies of one train of low pulses, so
    both inputs of every gate fall a small seeded gap apart: the advanced
    NOR enters a gap-dependent numeric charging mode on every pulse, and
    every gate switches twice per pulse.
    """
    rng = _rng("nor", seed)
    inputs = [f"in{i}" for i in range(NOR_INPUTS)]
    bits = {name: 1 for name in inputs}
    kinds = ["advanced_nor", "simple_nor"] * (NOR_LAYERS * NOR_WIDTH // 2)
    rng.shuffle(kinds)
    gates = []
    prev = inputs
    for layer in range(NOR_LAYERS):
        cur = []
        for j in range(NOR_WIDTH):
            name = f"n{layer}_{j}"
            a, b = rng.sample(prev, 2)
            ib = [bits[a], bits[b]]
            gates.append({
                "name": name, "kind": kinds[len(gates)],
                "delays": [rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3)],
                "initial_inputs": ib, "drivers": [a, b],
            })
            bits[name] = 1 if ib == [0, 0] else 0
            cur.append(name)
        prev = cur
    edges = []
    t = 2.0
    for _ in range(NOR_PULSES):
        low = rng.uniform(6.0, 8.0)
        edges += [[t, 0], [t + low, 1]]
        t += low + rng.uniform(8.0, 10.0)
    # Every charging mode is solved to the horizon, so it must not move with
    # the seed; it lies at least 8 past the last input edge.
    horizon = 2.0 + 18.0 * NOR_PULSES + 8.0
    signals = {}
    for name in inputs:
        skew = rng.uniform(0.0, 0.3)
        signals[name] = [1, [[et + skew, v] for et, v in edges]]
    per_pulse = len(gates) * (2 + 4)  # two commits and four arrivals per gate
    return {
        "workload": "nor", "seed": seed, "gates": gates, "inputs": signals,
        "outputs": {f"out{j}": g for j, g in enumerate(prev)},
        "horizon": horizon, "expected_events": per_pulse * NOR_PULSES,
        "step_tol": NUMERIC_STEP_TOL,
    }


# Point mix of one sweep round.  Point latencies sort as SPF (~1 ms) < simple
# MIS (~2.5 ms) < advanced MIS (~25 ms), so with 70/10/20 shares the median
# sits inside the SPF block and p95 inside the advanced-MIS block, each well
# away from a boundary between kinds.
SWEEP_MIX = {"spf": 27, "mis_simple": 4, "mis_advanced": 8}
MIS_GAPS = (0.0, 5.0)
# Pulses narrower than ~0.014 are filtered and wider than ~0.052 latch the
# storage loop.  In between the loop rings 1 to 15 times before it settles,
# so a seeded width there would make the events per round depend on the
# seed.  Seeded widths avoid that band; one fixed filtered width joins them.
SPF_WIDTHS = (0.06, 0.99)
SPF_FILTERED_WIDTH = 0.01


def gen_sweep(seed: int) -> dict:
    """Characterization points: SPF pulse widths and MIS gaps, stratified.

    Each kind's parameters are drawn one per equal stratum of its range, so
    every seed covers the whole range with the same number of events.
    """
    rng = _rng("sweep", seed)
    points = [["spf", SPF_FILTERED_WIDTH]]
    for kind, count in SWEEP_MIX.items():
        lo, hi = SPF_WIDTHS if kind == "spf" else MIS_GAPS
        step = (hi - lo) / count
        points += [[kind, lo + (i + rng.random()) * step] for i in range(count)]
    rng.shuffle(points)
    return {
        "workload": "sweep", "seed": seed, "points": points,
        "spf": {"preset": "storage_loop", "pulse_start": 1.0, "horizon": 30.0},
        "mis": {"lead": 1.0, "settle": 20.0},
        "step_tol": NUMERIC_STEP_TOL,
    }


def point_label(index: int, kind: str, param: float) -> str:
    return f"{index:02d}:{kind}:{param!r}"


GENERATORS = {"ring": gen_ring, "wide": gen_wide, "nor": gen_nor, "sweep": gen_sweep}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


# -- builders ---------------------------------------------------------------------


@dataclasses.dataclass
class Request:
    """One timed library call and how to read what it produced."""

    label: str
    call: Callable[[], object]
    observe: Callable[[object], "Outcome"]


@dataclasses.dataclass
class Outcome:
    """What one request produced, reduced to what the checks compare.

    ``signature`` maps a vertex or point name to its transitions as
    ``(time, value, depth)`` triples.  ``depths`` lists the causal depth of
    every committed gate transition.
    """

    signature: dict
    events: int
    iterations: int
    commits: int
    depths: list


def build(spec: dict, hg, wrap_gate: Callable | None = None) -> list[Request]:
    """Build hybridgates objects for ``spec``; returns one round of requests.

    ``hg`` is the namespace of hybridgates modules.  Library functions are
    looked up on their modules at call time, so wrappers installed there by
    the tracer are used.  ``wrap_gate`` maps each GateSpec to a replacement.
    """
    if spec["workload"] == "sweep":
        return _build_sweep(spec, hg, wrap_gate)
    return [_build_execute(spec, hg, wrap_gate)]


def _gate_spec(g: dict, hg):
    gates = hg.gates
    if g["kind"] == "simple_nor":
        return gates.make_simple_nor(delays=g["delays"], initial_inputs=g["initial_inputs"], name=g["name"])
    if g["kind"] == "advanced_nor":
        return gates.make_advanced_nor(delays=g["delays"], initial_inputs=g["initial_inputs"], name=g["name"])
    return gates.make_boolean_gate(
        g["kind"], g["delays"], initial_inputs=g["initial_inputs"],
        initial_output=g.get("initial_output"), name=g["name"],
    )


def _build_execute(spec: dict, hg, wrap_gate) -> Request:
    vertices = {name: hg.circuit.InputPort(sig[0]) for name, sig in spec["inputs"].items()}
    edges = []
    for g in spec["gates"]:
        gate = _gate_spec(g, hg)
        vertices[g["name"]] = wrap_gate(gate) if wrap_gate else gate
        edges += [(drv, g["name"], slot) for slot, drv in enumerate(g["drivers"])]
    for name, drv in spec["outputs"].items():
        vertices[name] = hg.circuit.OutputPort()
        edges.append((drv, name, 0))
    circuit = hg.circuit.Circuit(vertices, edges)
    horizon = spec["horizon"]
    stimuli = {
        name: hg.signals.BinarySignal(sig[0], tuple(map(tuple, sig[1])), horizon)
        for name, sig in spec["inputs"].items()
    }
    gate_names = [g["name"] for g in spec["gates"]]

    def call():
        return hg.circuit.execute(circuit, stimuli, horizon)

    def observe(ex) -> Outcome:
        return execution_outcome(ex, gate_names)

    return Request(spec["workload"], call, observe)


def execution_outcome(ex, gate_names) -> Outcome:
    signature = {
        name: [(r.time, r.value, r.depth) for r in ex.records[name]] for name in gate_names
    }
    depths = [r.depth for name in gate_names for r in ex.records[name]]
    return Outcome(signature, ex.event_count, len(ex.iteration_times), len(depths), depths)


def _build_sweep(spec: dict, hg, wrap_gate) -> list[Request]:
    cli = hg.cli
    wrap = wrap_gate or (lambda g: g)
    loop = cli.load_circuit(f"preset:{spec['spf']['preset']}").circuit
    loop = hg.circuit.Circuit(
        {n: wrap(v) if isinstance(v, hg.gates.GateSpec) else v for n, v in loop.vertices.items()},
        loop.edges,
    )
    (in_name,) = loop.input_ports()
    (out_name,) = loop.output_ports()
    (loop_gate,) = loop.gates()
    nors = {
        "mis_advanced": wrap(cli.load_circuit("preset:advanced_nor").circuit.vertices["nor"]),
        "mis_simple": wrap(cli.load_circuit("preset:simple_nor").circuit.vertices["nor"]),
    }
    pulse_start, horizon = spec["spf"]["pulse_start"], spec["spf"]["horizon"]
    lead, settle = spec["mis"]["lead"], spec["mis"]["settle"]

    requests = []
    for i, (kind, param) in enumerate(spec["points"]):
        label = point_label(i, kind, param)
        if kind == "spf":
            def call(w=param):
                sig = hg.signals.BinarySignal.pulse(pulse_start, w, horizon)
                ex = hg.circuit.execute(loop, {in_name: sig}, horizon)
                zero = hg.signals.BinarySignal.constant(0, horizon)
                return ex, hg.signals.one_norm_distance(ex.signals[out_name], zero)

            def observe(result, label=label) -> Outcome:
                ex, norm = result
                out = execution_outcome(ex, [loop_gate])
                out.signature = {label: out.signature[loop_gate], f"{label}:norm": [(norm, 0, 1)]}
                return out
        else:
            def call(gap=param, gate=nors[kind]):
                return hg.gates.mis_delay_sweep(lambda: gate, [gap], lead=lead, settle=settle)[0]

            def observe(delay, label=label) -> Outcome:
                # two input arrivals and the output rise the delay is read from
                return Outcome({label: [(delay, 1, 1)]}, 3, 0, 1, [])
        requests.append(Request(label, call, observe))
    return requests
