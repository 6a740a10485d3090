"""Host speed: run on the quietest CPU, and scale host time to a fixed speed.

The benchmark shares a small host with other tenants, and each of its CPUs
runs the same code at one of two speeds that change from one second to the
next: a probe that takes 0.87 ms on one CPU takes 1.6 ms on the other at the
same moment, and a 5-inverter ring call took 16 ms in one second and 42 ms a
few seconds later.  Such slow phases last from a fraction of a second to
minutes, so medians over a run cannot remove them when a whole run falls
into one.  Two things do:

- ``settle`` times a short fixed probe on each CPU this process may use and
  pins the process to the fastest, before every round of calls and every
  cold start.
- Every timed call is bracketed by the probe, and its time is scaled by
  ``REFERENCE_S`` over the mean of the probe times just before and just
  after it.  Cold starts are bracketed by a second probe, ``setup_probe``,
  and scaled by ``SETUP_REFERENCE_S`` the same way.

The probe is numpy ufunc calls on a tiny array and small-object method
calls, the kind of interpreter work the simulator spends its time on.  It
is benchmark code and never touches the program, so a change to the program
moves the scaled time as it moves the raw time, while a slowdown of the CPU
moves the probe too and cancels out.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

# What the probe took on a quiet 2-core x86-64 host (Python 3.11, numpy 2.4).
# It only fixes the scale: scaled times read as host time at that speed.
# Keep it fixed, or scaled times of different commits stop being comparable.
REFERENCE_S = 1.0e-3

# What setup_probe took there.  Imports slow down by about 1.5 times when
# the call probe slows by 2, so that probe over-corrects cold starts;
# compiling a fixed source tracked them best of the probes tried.
SETUP_REFERENCE_S = 13e-3

# CPUs this process may run on when it starts; settle chooses among them.
CPUS = sorted(os.sched_getaffinity(0))[:8] if hasattr(os, "sched_getaffinity") else []

_ARRAY = np.linspace(0.0, 1.0, 8)

# A fixed Python source of 150 small classes, for setup_probe to compile.
_SOURCE = "\n".join(f"""class C{i}:
    def f(self, a, b=({i}, "x")):
        if a > {i}:
            return [a * k + b[0] for k in range({i}) if k % 3]
        return {{"k": b, "v": self.g(a - 1)}}
""" for i in range(150))


class _Node:
    def __init__(self, v: float):
        self.v = v

    def step(self, x: float) -> "_Node":
        return _Node(self.v * 0.5 + x)


def _kernel() -> float:
    s = 0.0
    for i in range(120):
        s += float(np.exp(-_ARRAY * i).sum())
    node, acc = _Node(1.0), []
    for i in range(1500):
        node = node.step(i * 0.001)
        acc.append(node.v)
    return s + sum(acc)


def probe() -> float:
    """Seconds the fixed probe kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def warm_probe() -> float:
    """``probe`` after one untimed pass, for a cold start or a new CPU.

    The first pass after a process starts or moves runs on cold caches and
    reads slower than the CPU is.
    """
    _kernel()
    return probe()


def setup_probe() -> float:
    """Seconds to compile ``_SOURCE``, after one untimed compile."""
    compile(_SOURCE, "setup_probe", "exec")
    t0 = perf_counter()
    compile(_SOURCE, "setup_probe", "exec")
    return perf_counter() - t0


def settle() -> None:
    """Pin this process to the CPU where the probe runs fastest now.

    Child processes inherit the choice.
    """
    if len(CPUS) < 2:
        return
    times = {}
    try:
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = warm_probe()
        os.sched_setaffinity(0, {min(times, key=times.get)})
    except OSError:  # affinity cannot be set here: run where the scheduler puts us
        return


def scales(probes: list[float], reference: float = REFERENCE_S) -> list[float]:
    """Scale factor of each call from the probes around it.

    ``probes`` holds one probe before each call and one after the last, so
    call ``i`` lies between ``probes[i]`` and ``probes[i + 1]``.
    """
    return [2.0 * reference / (a + b) for a, b in zip(probes, probes[1:])]
