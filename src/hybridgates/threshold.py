"""Threshold comparators: digitize an analog trajectory into a binary signal.

The comparator maps a state component x_k(t) to 0 where x_k(t) <= xi and to
1 where x_k(t) > xi, so a reported rising edge is the infimum of
``{t : x_k(t) > xi}``.  A scalar affine segment, dx/dt = a x + b, is monotone:
it crosses xi at most once, when its end predicates differ, at the exact time
``t0 + ln((xi - x_inf)/(x0 - x_inf))/a`` with ``x_inf = -b/a`` (or
``t0 + (xi - x0)/b`` when a = 0).  When the asymptote ``x_inf`` is xi
itself the segment never crosses, even where ``exp`` underflows and its
computed end value lands exactly on xi.
Every other segment is sampled on a per-segment grid and each bracketed
predicate change is bisected down to a time tolerance; tangential touches
that never change the predicate between samples produce no transition.
The sampled path reads the predicate off the computed values, so a sampled
trajectory that underflows onto xi does report an edge there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .modes import DEFAULT_CONFIG, AffineSegment, Segment, SolverConfig, Trajectory
from .signals import TIME_EPS, BinarySignal

__all__ = [
    "ThresholdSpec",
    "CrossingCapExceeded",
    "digitize",
    "find_crossings",
]


class CrossingCapExceeded(RuntimeError):
    """A segment produced more threshold crossings than the configured cap."""


@dataclass(frozen=True)
class ThresholdSpec:
    """Comparator parameters: level, 1-based state component, time tolerance."""

    xi: float
    component: int = 1
    time_tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if self.component < 1:
            raise ValueError(f"component index is 1-based, got {self.component}")
        if self.time_tolerance <= 0:
            raise ValueError("time tolerance must be positive")


def _segment_component(segment: Segment, ts: np.ndarray, component: int) -> np.ndarray:
    return segment.values(ts)[:, component - 1]


def _refined_samples(
    segment: Segment,
    xi: float,
    component: int,
    probe_points: int,
    passes: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampling grid for one segment, refined where the state runs close to
    the threshold relative to its local variation."""
    ts = segment.sample_times(probe_points)
    g = _segment_component(segment, ts, component) - xi
    for _ in range(passes):
        extra: list[np.ndarray] = []
        flips = (g[:-1] > 0) != (g[1:] > 0)
        near = np.minimum(np.abs(g[:-1]), np.abs(g[1:])) < 10.0 * np.abs(np.diff(g))
        for i in np.nonzero(flips | near)[0]:
            if ts[i + 1] - ts[i] > 4 * TIME_EPS:
                extra.append(np.linspace(ts[i], ts[i + 1], 18)[1:-1])
        if not extra:
            break
        ts = np.unique(np.concatenate([ts, *extra]))
        g = _segment_component(segment, ts, component) - xi
    return ts, g


def _bisect_crossing(
    segment: Segment,
    lo: float,
    hi: float,
    pred_lo: bool,
    xi: float,
    component: int,
    tol: float,
) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float exhaustion
            break
        pred_mid = segment.value(mid)[component - 1] > xi
        if pred_mid == pred_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _affine_crossing(segment: AffineSegment, xi: float) -> float:
    """Time at which a scalar affine segment whose end predicates differ
    meets ``xi``, clamped to the segment."""
    a, b, x0 = segment._scalar
    if a == 0.0:
        t = segment.t0 + (xi - x0) / b
    else:
        # ln(ratio) as log1p(ratio - 1) keeps precision when x_inf is far away
        rel = (xi - x0) / (x0 + b / a)
        t = segment.t0 + math.log1p(rel) / a if rel > -1.0 else math.inf
    return min(max(t, segment.t0), segment.t1)


def find_crossings(
    traj: Trajectory,
    xi: float,
    component: int = 1,
    time_tolerance: float = 1e-12,
    config: SolverConfig = DEFAULT_CONFIG,
    max_crossings: int = 1_000_000,
) -> list[tuple[float, bool]]:
    """Threshold crossing times of one state component of a trajectory.

    Returns ``(time, rising)`` pairs sorted in time; ``rising`` is True when
    the predicate ``x > xi`` turns on.  A scalar :class:`AffineSegment`
    contributes its closed-form crossing time, and none when its asymptote
    is ``xi``; every other segment is sampled and bisected to
    ``time_tolerance``, its predicate read off the computed values (so an
    ``exp`` that underflows onto ``xi`` there still reads as an edge).  Raises
    :class:`CrossingCapExceeded` if any single segment yields more than
    ``max_crossings`` crossings.
    """
    crossings: list[tuple[float, bool]] = []
    carried: bool | None = None  # predicate at the end of the previous segment
    for segment in traj.segments:
        closed_form = isinstance(segment, AffineSegment) and segment.dimension == 1
        if closed_form:
            # Monotone: it crosses once if its end predicates differ, else never.
            ts = np.array([segment.t0, segment.t1])
            g = segment.values(ts)[:, component - 1] - xi
            a, b, _x0 = segment._scalar
            if a != 0.0 and -b / a == xi:
                # x - xi = (x0 - xi) e^{a (t - t0)} never changes sign; an
                # exp that underflows onto the asymptote is not an edge.
                g[1] = g[0]
            plateau = g[0] == 0.0 and g[1] == 0.0 and segment.t1 > segment.t0
        else:
            ts, g = _refined_samples(segment, xi, component, config.probe_points)
            on_line = np.abs(g) == 0.0
            plateau = on_line.size >= 3 and np.any(on_line[:-2] & on_line[1:-1] & on_line[2:])
        pred = g > 0.0
        # Exact-threshold plateaus digitize to 0 per the <= rule; flag them
        # since they usually indicate a degenerate model.
        if plateau:
            warnings.warn(
                "trajectory runs exactly on the threshold over consecutive samples",
                RuntimeWarning,
                stacklevel=2,
            )
        if carried is not None and bool(pred[0]) != carried:
            # Continuity pins a junction crossing to the segment boundary.
            crossings.append((float(segment.t0), bool(pred[0])))
        seg_count = 0
        for i in np.nonzero(pred[:-1] != pred[1:])[0]:
            if closed_form:
                t_cross = _affine_crossing(segment, xi)
            else:
                t_cross = _bisect_crossing(
                    segment,
                    float(ts[i]),
                    float(ts[i + 1]),
                    bool(pred[i]),
                    xi,
                    component,
                    time_tolerance,
                )
            crossings.append((t_cross, bool(pred[i + 1])))
            seg_count += 1
            if seg_count > max_crossings:
                raise CrossingCapExceeded(
                    f"more than {max_crossings} crossings in segment "
                    f"[{segment.t0}, {segment.t1}]"
                )
        carried = bool(pred[-1])
    # Junction double-detections collapse to one event.
    deduped: list[tuple[float, bool]] = []
    for t, rising in crossings:
        if deduped and t - deduped[-1][0] <= TIME_EPS and rising == deduped[-1][1]:
            continue
        deduped.append((t, rising))
    return deduped


def digitize(
    traj: Trajectory,
    spec: ThresholdSpec,
    config: SolverConfig = DEFAULT_CONFIG,
    max_crossings: int = 1_000_000,
) -> BinarySignal:
    """Binary output signal of a trajectory under a threshold comparator."""
    if traj.t0 > TIME_EPS:
        raise ValueError(f"digitize expects a trajectory starting at 0, got t0={traj.t0}")
    initial = 1 if traj.value(traj.t0)[spec.component - 1] > spec.xi else 0
    crossings = find_crossings(
        traj,
        spec.xi,
        spec.component,
        spec.time_tolerance,
        config,
        max_crossings,
    )
    transitions = [(t, 1 if rising else 0) for t, rising in crossings]
    return BinarySignal(initial, tuple(transitions), traj.horizon)
