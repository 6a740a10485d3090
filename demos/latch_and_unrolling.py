#!/usr/bin/env python3
"""Feedback circuits: deterministic execution, causal depth, and unrolling.

Two small circuits.  First a NOR latch driven by set/reset pulses: execution
is event driven, and shuffling the internal processing order never changes a
single transition.  Second a one-gate feedback loop unrolled to an acyclic
circuit: each copy matches the cyclic original until a switch of a gate cut at
level 0 can reach it.
"""

import random

from hybridgates import (
    BinarySignal,
    Circuit,
    InputPort,
    OutputPort,
    check_simulation_equivalence,
    execute,
    make_boolean_gate,
    reach_times,
    unroll,
)

latch = Circuit(
    {
        "S": InputPort(0),
        "R": InputPort(0),
        "nq": make_boolean_gate("nor2", (0.05, 0.05), initial_inputs=(0, 1), name="nq"),
        "nqb": make_boolean_gate("nor2", (0.05, 0.05), initial_inputs=(0, 0), name="nqb"),
        "Q": OutputPort(),
    },
    [("R", "nq", 0), ("nqb", "nq", 1), ("S", "nqb", 0), ("nq", "nqb", 1), ("nq", "Q", 0)],
)
ins = {
    "S": BinarySignal(0, ((1.0, 1), (1.5, 0), (4.0, 1), (4.5, 0)), 6.0),
    "R": BinarySignal(0, ((2.5, 1), (3.0, 0)), 6.0),
}
ex = execute(latch, ins, 6.0)
print("latch output Q:", [(round(t.time, 4), t.value) for t in ex.signals["Q"].transitions])
print("per-transition causal depth at nq:", [r.depth for r in ex.records["nq"]])

same = all(
    execute(latch, ins, 6.0, _shuffle=random.Random(seed)).records == ex.records
    for seed in range(5)
)
print("five shuffled replays identical:", same)

# feedback loop: B feeds itself, its output joins the input path at an OR
loop = Circuit(
    {
        "I": InputPort(0),
        "A": make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="A"),
        "B": make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="B"),
        "C": make_boolean_gate("or2", (0.1, 0.1), initial_inputs=(0, 0), name="C"),
        "O": OutputPort(),
    },
    [("I", "A", 0), ("B", "B", 0), ("B", "C", 0), ("A", "C", 1), ("C", "O", 0)],
)
pulse = {"I": BinarySignal.pulse(0.7, 2.2, 8.0)}
un = unroll(loop, "O", 3)
reach = reach_times(loop, un, execute(loop, pulse, 8.0))
# B never switches, so the constant standing for it is never reached, and
# every copy is compared over the whole horizon
print("\nunrolled to depth 3; reach time per copy:")
for key, name in un.copy_map.items():
    print(f"  {name:>8}: {reach[key]}")

rep = check_simulation_equivalence(loop, "O", 3, pulse, 8.0)
print(
    f"equivalence up to each copy's reach time: checked {rep.checked} copies, "
    f"{rep.reach_compared} transitions, mismatches {rep.reach_mismatches}"
)
