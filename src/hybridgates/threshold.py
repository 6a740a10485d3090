"""Threshold comparators: digitize an analog trajectory into a binary signal.

The comparator maps a state component x_k(t) to 0 where x_k(t) <= xi and to
1 where x_k(t) > xi, so a reported rising edge is the infimum of
``{t : x_k(t) > xi}``.  A segment that answers ``pieces`` (scalar and
2-state affine segments, for every spectrum, and relaxation segments) is
crossed piece by piece: its component is monotone between the piece ends,
so a piece whose end predicates differ crosses xi once, at the time the
segment's ``meet`` gives.  The formulas of each kind are documented on its
segment class in ``modes``.

The piece-end predicates are read off the values ``pieces`` returns with
the piece ends, which each closed-form kind evaluates on floats, so they
are the numbers every other reader of the segment sees.  When a scalar
segment's ``asymptote`` is xi itself it never crosses, even where ``exp``
underflows and its computed end value lands exactly on xi.  Every other
segment (the numeric ones of ``GeneralNumeric`` modes and of affine modes
with three or more states) is sampled on a fixed 64-point grid per
segment, refined near xi, and each bracketed predicate change is bisected
to ``TIME_EPS``; tangential touches that never change the predicate
between samples produce no transition.  The sampled path reads the
predicate off the computed values, so a sampled trajectory that underflows
onto xi does report an edge there.

``find_crossings`` reads any sequence of consecutive segments; a circuit
run hands it each live segment alone, with no ``Trajectory`` around it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .modes import Segment, Trajectory
from .signals import TIME_EPS, BinarySignal

__all__ = [
    "ThresholdSpec",
    "CrossingCapExceeded",
    "digitize",
    "find_crossings",
]


class CrossingCapExceeded(RuntimeError):
    """A segment produced more threshold crossings than ``max_crossings``."""


@dataclass(frozen=True)
class ThresholdSpec:
    """Comparator parameters: the level ``xi`` and the 1-based state
    component it watches.  Crossing times are exact where the segment has a
    closed form and bisected to ``TIME_EPS`` where it is sampled."""

    xi: float
    component: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.xi):
            raise ValueError(f"threshold xi must be finite, got {self.xi!r}")
        if self.component < 1:
            raise ValueError(f"component index is 1-based, got {self.component}")


def _segment_component(segment: Segment, ts: np.ndarray, component: int) -> np.ndarray:
    return segment.values(ts)[:, component - 1]


def _refined_samples(segment: Segment, xi: float, component: int) -> tuple[np.ndarray, np.ndarray]:
    """Sampling grid for one segment, refined twice where the state runs
    close to the threshold relative to its local variation."""
    ts = segment.sample_times(_PROBE_POINTS)
    g = _segment_component(segment, ts, component) - xi
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
        g = _segment_component(segment, ts, component) - xi
    return ts, g


def _bisect_crossing(
    segment: Segment,
    lo: float,
    hi: float,
    pred_lo: bool,
    xi: float,
    component: int,
) -> float:
    while hi - lo > TIME_EPS:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float exhaustion
            break
        pred_mid = segment.value(mid)[component - 1] > xi
        if pred_mid == pred_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _monotone_crossings(segment: Segment, xi: float, component: int):
    """Crossings of a segment that answers ``pieces``.

    The piece-end predicates come from the values ``pieces`` returns, and
    each piece whose end predicates differ crosses once, at the time its
    ``meet`` gives.  Returns ``(start predicate, end predicate, crossings,
    plateau)``, or None for a segment that must be sampled.
    """
    form = segment.pieces(component)
    if form is None:
        return None
    ts, xs, meet = form
    preds = [x > xi for x in xs]
    if segment.dimension == 1 and segment.asymptote == xi:
        # x - xi = (x0 - xi) e^{-(phi(t) - phi(t0))} never changes sign; an
        # exp that underflows onto xi is not an edge.
        preds[-1] = preds[0]
    found = [
        (meet(xi, ts[i], ts[i + 1]), preds[i + 1]) for i in range(len(ts) - 1) if preds[i] != preds[i + 1]
    ]
    plateau = xs.count(xi) == len(xs) and segment.t1 > segment.t0
    return preds[0], preds[-1], found, plateau


def _sampled_crossings(segment: Segment, xi: float, component: int, cap: int):
    """Crossings of any segment: a refined sampling grid, each predicate
    change bisected to ``TIME_EPS``, the first ``cap + 1`` of them at most.
    Returns what :func:`_monotone_crossings` does; a plateau is three
    consecutive samples exactly on ``xi``."""
    ts, g = _refined_samples(segment, xi, component)
    on_line = np.abs(g) == 0.0
    plateau = on_line.size >= 3 and bool(np.any(on_line[:-2] & on_line[1:-1] & on_line[2:]))
    pred = g > 0.0
    found = [
        (
            _bisect_crossing(segment, float(ts[i]), float(ts[i + 1]), bool(pred[i]), xi, component),
            bool(pred[i + 1]),
        )
        for i in np.nonzero(pred[:-1] != pred[1:])[0][: cap + 1]
    ]
    return bool(pred[0]), bool(pred[-1]), found, plateau


# Per-segment sampling grid of the sampled crossing path, before refinement.
_PROBE_POINTS = 64


def find_crossings(
    segments: Iterable[Segment],
    xi: float,
    component: int = 1,
    max_crossings: int = 1_000_000,
) -> list[tuple[float, bool]]:
    """Threshold crossing times of one state component along consecutive
    segments: a :class:`Trajectory`, or any iterable of segments that tile
    a span, such as the one live segment a circuit run crosses.

    Returns ``(time, rising)`` pairs sorted in time; ``rising`` is True when
    the predicate ``x > xi`` turns on, and consecutive pairs alternate.  A
    segment that answers ``pieces`` is crossed piece by piece: the
    piece-end predicates are read off the values ``pieces`` returns with
    the piece ends, and each piece whose end predicates differ crosses
    once, at the time of the segment's closed form (documented on each
    segment class).  A scalar segment whose asymptote is ``xi`` never
    crosses.  Every other segment is sampled and bisected to ``TIME_EPS``,
    its predicate read off the computed values (so an ``exp`` that
    underflows onto ``xi`` there still reads as an edge).  A segment whose
    start predicate differs from the previous segment's end predicate
    crosses at its start.  Raises :class:`CrossingCapExceeded` if any single
    segment yields more than ``max_crossings`` crossings.
    """
    crossings: list[tuple[float, bool]] = []
    carried: bool | None = None  # predicate at the end of the previous segment
    for segment in segments:
        pred_start, pred_end, found, plateau = _monotone_crossings(
            segment, xi, component
        ) or _sampled_crossings(segment, xi, component, max_crossings)
        # Exact-threshold plateaus digitize to 0 per the <= rule; flag them
        # since they usually indicate a degenerate model.
        if plateau:
            warnings.warn(
                "trajectory runs exactly on the threshold over consecutive samples",
                RuntimeWarning,
                stacklevel=2,
            )
        if carried is not None and pred_start != carried:
            # Continuity pins a junction crossing to the segment boundary.
            crossings.append((segment.t0, pred_start))
        if len(found) > max_crossings:
            raise CrossingCapExceeded(
                f"more than {max_crossings} crossings in segment [{segment.t0}, {segment.t1}]"
            )
        crossings.extend(found)
        carried = pred_end
    # Each pair flips the predicate it follows, so no two consecutive pairs
    # share a direction and a junction cannot report one edge twice.
    return crossings


def digitize(traj: Trajectory, spec: ThresholdSpec) -> BinarySignal:
    """Binary output signal of a trajectory under a threshold comparator."""
    if traj.t0 > TIME_EPS:
        raise ValueError(f"digitize expects a trajectory starting at 0, got t0={traj.t0}")
    initial = 1 if traj.value(traj.t0)[spec.component - 1] > spec.xi else 0
    crossings = find_crossings(traj, spec.xi, spec.component)
    transitions = [(t, 1 if rising else 0) for t, rising in crossings]
    return BinarySignal(initial, tuple(transitions), traj.horizon)
