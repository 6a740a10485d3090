"""Shared fixtures and signal-generation strategies."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import hybridgates
from hybridgates.circuit import execute
from hybridgates.cli import _preset_names, load_circuit
from hybridgates.gates import make_advanced_nor, make_simple_nor, mis_delay_sweep
from hybridgates.modes import _SegmentBase
from hybridgates.signals import BinarySignal, ModeSwitchSignal


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


def run_every_shipped_gate():
    """Every preset with a staggered pulse on each input, and both NOR MIS sweeps."""
    for preset in _preset_names():
        cf = load_circuit(f"preset:{preset}")
        horizon = cf.defaults["horizon"]
        inputs = {}
        for i, (name, port) in enumerate(cf.circuit.input_ports().items()):
            b = port.initial_value  # a pulse away from it, staggered per input
            inputs[name] = BinarySignal(b, ((1.0 + 0.3 * i, 1 - b), (3.0 + 0.7 * i, b)), horizon)
        execute(cf.circuit, inputs, horizon)
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


class FunctionSegment(_SegmentBase):
    """A known state function ``fn`` of an array of times on [t0, t1].  It
    has no ``pieces``, so crossings and containment sample it: the reference
    that the closed forms are checked against."""

    __slots__ = ("t0", "t1", "fn", "_dim")

    def __init__(self, t0: float, t1: float, fn):
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.fn = fn
        probe = np.atleast_2d(np.asarray(fn(np.asarray([t0]))))
        self._dim = probe.shape[1] if probe.shape[0] == 1 else probe.shape[0]

    @property
    def dimension(self) -> int:
        return self._dim

    def values(self, ts) -> np.ndarray:
        out = np.asarray(self.fn(np.atleast_1d(np.asarray(ts, dtype=float))), dtype=float)
        return out[:, None] if out.ndim == 1 else out


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
