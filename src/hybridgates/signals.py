"""Binary step signals, mode-switch signals, and the metrics defined on them.

A binary signal is a right-continuous 0/1 step function on a finite horizon
``[0, T]``, stored as an initial value (the left-sided limit at 0) plus a
strictly increasing, strictly alternating transition list.  A transition at
``t = 0`` encodes ``s(0) != s(0-)``.

Mode-switch signals are the piecewise-constant selector functions that drive
a hybrid gate between its ODE modes; they carry opaque hashable mode ids.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, NamedTuple

__all__ = [
    "TIME_EPS",
    "Transition",
    "BinarySignal",
    "ModeSwitchSignal",
    "delay",
    "one_norm_distance",
    "mode_distance",
    "min_pulse_width",
    "read_signal_csv",
    "write_signal_csv",
]

# Two event times closer than this are treated as simultaneous; zero-width
# pulses at or below this scale are canonicalized away at construction.
TIME_EPS = 1e-12


class Transition(NamedTuple):
    """A single 0->1 or 1->0 edge: the signal takes `value` at `time`.

    Unchecked: a ``BinarySignal`` checks each transition it is built from.
    """

    time: float
    value: int


@dataclass(frozen=True)
class BinarySignal:
    """Right-continuous 0/1 step function on ``[0, horizon]``.

    ``initial_value`` is the value "just before" time 0; the value on
    ``[0, horizon]`` is obtained by applying the transitions in order, each
    a ``Transition`` or a ``(time, value)`` pair.  Construction checks each
    value and time, clamps ``TIME_EPS`` jitter at the ends, validates
    monotonicity and alternation, and cancels zero-width pulses (two
    opposite transitions within ``TIME_EPS``).
    """

    initial_value: int
    transitions: tuple[Transition, ...]
    horizon: float

    def __post_init__(self) -> None:
        if self.initial_value not in (0, 1):
            raise ValueError(f"initial value must be 0 or 1, got {self.initial_value!r}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")

        # One pass converts, checks and clamps each item, keeping strict
        # time order and cancelling zero-width pulses: a pair of opposite
        # transitions closer than TIME_EPS annihilates.
        stack: list[Transition] = []
        for t, v in self.transitions:
            if v not in (0, 1):
                raise ValueError(f"transition value must be 0 or 1, got {v!r}")
            t, v = float(t), int(v)
            if not math.isfinite(t):
                raise ValueError(f"transition time must be finite, got {t!r}")
            if t < -TIME_EPS or t > self.horizon + TIME_EPS:
                raise ValueError(f"transition at t={t} outside [0, {self.horizon}]")
            t = min(max(t, 0.0), self.horizon)
            if stack and t < stack[-1].time - TIME_EPS:
                raise ValueError("transition times must be sorted increasing")
            if stack and t - stack[-1].time <= TIME_EPS:
                if v != stack[-1].value:
                    stack.pop()
                    continue
                raise ValueError(f"two transitions to value {v} at time {t}")
            stack.append(Transition(t, v))

        prev = self.initial_value
        for tr in stack:
            if tr.value == prev:
                raise ValueError(
                    f"transition at t={tr.time} does not alternate (value {tr.value} repeated)"
                )
            prev = tr.value

        object.__setattr__(self, "transitions", tuple(stack))
        object.__setattr__(self, "_times", tuple(tr.time for tr in stack))
        object.__setattr__(self, "_levels", (self.initial_value, *(tr.value for tr in stack)))

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value: int, horizon: float) -> "BinarySignal":
        return cls(value, (), horizon)

    @classmethod
    def pulse(cls, start: float, width: float, horizon: float) -> "BinarySignal":
        """Zero signal with a single high pulse ``[start, start+width)``."""
        if not math.isfinite(start):
            raise ValueError(f"pulse start must be finite, got {start!r}")
        if not (math.isfinite(width) and width > 0):
            raise ValueError(f"pulse width must be finite and positive, got {width!r}")
        transitions: list[tuple[float, int]] = []
        if start <= horizon:
            transitions.append((start, 1))
            if start + width <= horizon:
                transitions.append((start + width, 0))
        return cls(0, tuple(transitions), horizon)

    # -- evaluation -----------------------------------------------------

    def value_at(self, t: float) -> int:
        """Signal value at time ``t`` (right-continuous)."""
        return _level_at(self, t)

    @property
    def final_value(self) -> int:
        return self.transitions[-1].value if self.transitions else self.initial_value

    @property
    def times(self) -> tuple[float, ...]:
        return self._times

    def is_zero(self) -> bool:
        return self.initial_value == 0 and not self.transitions

    def intervals(self) -> list[tuple[float, float, int]]:
        """Partition of ``[0, horizon]`` into (start, end, value) pieces."""
        return _intervals(self)


# -- step functions ----------------------------------------------------------
#
# A BinarySignal and a ModeSwitchSignal are both right-continuous step
# functions on [0, horizon]: ``_levels[0]`` before the first of ``_times``,
# and ``_levels[i + 1]`` from ``_times[i]`` on.


def _level_at(s, t: float):
    return s._levels[bisect_right(s._times, t)]


def _intervals(s) -> list[tuple[float, float, Hashable]]:
    out = []
    t_prev, v_prev = 0.0, _level_at(s, 0.0)
    for t, v in zip(s._times, s._levels[1:]):
        if t > t_prev:
            out.append((t_prev, t, v_prev))
        t_prev, v_prev = t, v
    if s.horizon > t_prev or not out:
        out.append((t_prev, s.horizon, v_prev))
    return out


def _disagreement(a, b) -> float:
    """Measure of ``{t in [0, T] : a(t) != b(t)}``."""
    if abs(a.horizon - b.horizon) > TIME_EPS:
        raise ValueError(f"signals have different horizons: {a.horizon} vs {b.horizon}")
    pts = sorted({0.0, a.horizon, *a._times, *b._times})
    pts = [t for t in pts if 0.0 <= t <= a.horizon]
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if _level_at(a, lo) != _level_at(b, lo):
            total += hi - lo
    return total


# -- operations on binary signals ---------------------------------------


def delay(s: BinarySignal, delta: float) -> BinarySignal:
    """Pure delay: value ``s.initial_value`` before ``delta``, then ``s(t - delta)``.

    Transitions shifted past the horizon are dropped.
    """
    if delta < 0:
        raise ValueError(f"delay must be nonnegative, got {delta!r}")
    shifted = tuple(
        Transition(tr.time + delta, tr.value)
        for tr in s.transitions
        if tr.time + delta <= s.horizon + TIME_EPS
    )
    return BinarySignal(s.initial_value, shifted, s.horizon)


def one_norm_distance(s1: BinarySignal, s2: BinarySignal) -> float:
    """L1 distance ``integral |s1 - s2|`` = measure of the disagreement set."""
    return _disagreement(s1, s2)


# -- mode-switch signals -------------------------------------------------


@dataclass(frozen=True)
class ModeSwitchSignal:
    """Piecewise-constant mode selector on ``[0, horizon]``.

    Switch entries are ``(time, mode_id)`` with strictly increasing times.
    Consecutive equal modes are dropped at construction (a switch to the
    mode already active is a no-op); coincident switches merge, last wins.
    """

    initial_mode: Hashable
    switches: tuple[tuple[float, Hashable], ...]
    horizon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        cleaned: list[tuple[float, Hashable]] = []
        for item in self.switches:
            t, mode = float(item[0]), item[1]
            if t < -TIME_EPS or t > self.horizon + TIME_EPS:
                raise ValueError(f"switch at t={t} outside [0, {self.horizon}]")
            t = min(max(t, 0.0), self.horizon)
            if cleaned and t < cleaned[-1][0] - TIME_EPS:
                raise ValueError("switch times must be sorted increasing")
            if cleaned and t - cleaned[-1][0] <= TIME_EPS:
                cleaned[-1] = (cleaned[-1][0], mode)  # coincident: last wins
            else:
                cleaned.append((t, mode))
        # Drop no-op switches.
        result: list[tuple[float, Hashable]] = []
        current = self.initial_mode
        for t, mode in cleaned:
            if mode != current:
                result.append((t, mode))
                current = mode
        object.__setattr__(self, "switches", tuple(result))
        object.__setattr__(self, "_times", tuple(t for t, _ in result))
        object.__setattr__(self, "_levels", (self.initial_mode, *(mode for _, mode in result)))

    @property
    def switch_times(self) -> tuple[float, ...]:
        return self._times

    def mode_at(self, t: float) -> Hashable:
        return _level_at(self, t)

    def intervals(self) -> list[tuple[float, float, Hashable]]:
        """Partition of ``[0, horizon]`` into (start, end, mode) pieces."""
        return _intervals(self)


def mode_distance(a: ModeSwitchSignal, b: ModeSwitchSignal) -> float:
    """Measure of ``{t in [0, T] : a(t) != b(t)}`` (a pseudometric)."""
    return _disagreement(a, b)


def min_pulse_width(s: BinarySignal) -> float | None:
    """Width of the shortest complete high pulse, or None if there is none.

    Only rising->falling pairs count; a leading high interval or a trailing
    rise with no matching fall is not a pulse.
    """
    widths = [
        b.time - a.time
        for a, b in zip(s.transitions, s.transitions[1:])
        if a.value == 1 and b.value == 0
    ]
    return min(widths) if widths else None


# -- CSV interchange -------------------------------------------------------


def write_signal_csv(s: BinarySignal, path: str | Path, metadata: dict | None = None) -> None:
    """Write a transition list as CSV with `# key=value` header comments."""
    lines = [f"# initial={s.initial_value}", f"# horizon={s.horizon!r}"]
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}={value}")
    lines.append("time,value")
    for tr in s.transitions:
        lines.append(f"{tr.time!r},{tr.value}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_signal_csv(path: str | Path) -> BinarySignal:
    """Inverse of :func:`write_signal_csv`; ignores unknown header comments."""
    initial: int | None = None
    horizon: float | None = None
    transitions: list[tuple[float, int]] = []
    saw_header = False
    for raw_line in Path(path).read_text().splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                key = key.strip()
                if key == "initial":
                    initial = int(value)
                elif key == "horizon":
                    horizon = float(value)
            continue
        if not saw_header:
            if line.lower().replace(" ", "") != "time,value":
                raise ValueError(f"expected 'time,value' header, got {line!r}")
            saw_header = True
            continue
        t_str, _, v_str = line.partition(",")
        transitions.append((float(t_str), int(v_str)))
    if initial is None or horizon is None:
        raise ValueError(f"{path}: missing '# initial=' or '# horizon=' header")
    return BinarySignal(initial, tuple(transitions), horizon)
