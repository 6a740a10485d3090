#!/usr/bin/env python3
"""A heater, two comparator plants, and a NOR latch keep a room near 20 degrees.

The plant integrates dx/dt = 0.1 (50 h - x) where h is the latch output: the
room drifts toward 50 with the heater on and toward 0 with it off.  Two plant
copies thresholded at 19 and 21 watch the same state; the latch turns the
heater on below 19 and off above 21.  The result is a stable limit cycle whose
period follows from the two exponential branches plus the loop's gate delays.

The same circuit ships as a preset: hybridgates simulate preset:heater_loop
"""

import math

from hybridgates import Circuit, OutputPort, execute, make_boolean_gate, make_heater_plant

c = Circuit(
    {
        "plant_low": make_heater_plant(0.01, 19.0, initial_input=1, initial_state=20.0, name="plant_low"),
        "plant_high": make_heater_plant(0.01, 21.0, initial_input=1, initial_state=20.0, name="plant_high"),
        "inv": make_boolean_gate("not", (0.01,), initial_inputs=(1,), name="inv"),
        "nor_qb": make_boolean_gate("nor2", (0.01, 0.01), initial_inputs=(0, 1), name="nor_qb"),
        "nor_q": make_boolean_gate("nor2", (0.01, 0.01), initial_inputs=(0, 0), name="nor_q"),
        "Q": OutputPort(),
    },
    [
        ("nor_q", "plant_low", 0), ("nor_q", "plant_high", 0),
        ("plant_low", "inv", 0), ("inv", "nor_qb", 0), ("nor_q", "nor_qb", 1),
        ("plant_high", "nor_q", 0), ("nor_qb", "nor_q", 1), ("nor_q", "Q", 0),
    ],
)

ex = execute(c, {}, 50.0)
temp = ex.trajectory("plant_high")
switches = [round(t.time, 3) for t in ex.signals["Q"].transitions[:6]]
print("heater command edges (first six):", switches)

samples = [temp.value(0.5 * i)[0] for i in range(101)]
print(f"temperature range after startup: [{min(samples[2:]):.3f}, {max(samples[2:]):.3f}]")

rises = [t.time for t in ex.signals["nor_q"].transitions if t.value == 1]
gaps = [b - a for a, b in zip(rises, rises[1:])]
print(f"cycles observed: {len(gaps)}, mean period {sum(gaps) / len(gaps):.4f}")

bare = 10.0 * math.log(31.0 / 29.0) + 10.0 * math.log(21.0 / 19.0)
print(f"two-branch period with an ideal loop would be {bare:.4f};")
print("the extra ~0.11 is overshoot accumulated during the gate delays")
