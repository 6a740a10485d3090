"""Threshold comparators: digitize an analog trajectory into a binary signal.

The comparator maps a state component x_k(t) to 0 where x_k(t) <= xi and to
1 where x_k(t) > xi, so a reported rising edge is the infimum of
``{t : x_k(t) > xi}``.  Every segment (scalar and 2-state affine segments,
for every spectrum, and relaxation segments) is crossed piece by piece: its
component is monotone between the ends of its ``pieces``, so a piece whose
end predicates differ crosses xi once, at the time the segment's ``meet``
gives: exact for a scalar affine segment, and a Newton root on the
closed-form slope, safeguarded by bisection, for a 2-state one (the
component's slope) and a relaxation (the exponent's slope).  The formulas
of each kind are documented on its segment class in ``modes``.

The piece-end predicates are read off the values ``pieces`` returns with
the piece ends, which each kind evaluates on floats, so they are the
numbers every other reader of the segment sees.  When a scalar segment's
``asymptote`` is xi itself it never crosses, even where ``exp`` underflows
and its computed end value lands exactly on xi.

``find_crossings`` reads any sequence of consecutive segments; a circuit
run hands it each live segment alone, with no ``Trajectory`` around it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

from .modes import Segment, Trajectory
from .signals import TIME_EPS, BinarySignal

__all__ = [
    "ThresholdSpec",
    "digitize",
    "find_crossings",
]


@dataclass(frozen=True)
class ThresholdSpec:
    """Comparator parameters: the level ``xi`` and the 1-based state
    component it watches.  Crossing times are those of each segment's
    closed form."""

    xi: float
    component: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.xi):
            raise ValueError(f"threshold xi must be finite, got {self.xi!r}")
        if self.component < 1:
            raise ValueError(f"component index is 1-based, got {self.component}")


def _monotone_crossings(segment: Segment, xi: float, component: int):
    """Crossings of one segment, piece by piece.

    The piece-end predicates come from the values ``pieces`` returns, and
    each piece whose end predicates differ crosses once, at the time its
    ``meet`` gives.  Returns ``(start predicate, end predicate, crossings,
    plateau)``.
    """
    ts, xs, meet = segment.pieces(component)
    found, start = [], xs[0] > xi
    last, lo = start, ts[0]
    for hi, x in zip(ts, xs):
        pred = x > xi
        if pred != last:
            if segment.dimension == 1 and segment.asymptote == xi:
                # x - xi = (x0 - xi) e^{-(phi(t) - phi(t0))} never changes
                # sign; an exp that underflows onto xi is not an edge.
                pred = start
            else:
                found.append((meet(xi, lo, hi), pred))
        last, lo = pred, hi
    plateau = xs[0] == xi and xs.count(xi) == len(xs) and segment.t1 > segment.t0
    return start, last, found, plateau


def find_crossings(segments: Iterable[Segment], xi: float, component: int = 1) -> list[tuple[float, bool]]:
    """Threshold crossing times of one state component along consecutive
    segments: a :class:`Trajectory`, or any iterable of segments that tile
    a span, such as the one live segment a circuit run crosses.

    Returns ``(time, rising)`` pairs sorted in time; ``rising`` is True when
    the predicate ``x > xi`` turns on, and consecutive pairs alternate.  A
    segment is crossed piece by piece: the piece-end predicates are read
    off the values ``pieces`` returns with the piece ends, and each piece
    whose end predicates differ crosses once, at the time of the segment's
    closed form (documented on each segment class).  A scalar segment whose
    asymptote is ``xi`` never crosses.  A segment whose start predicate
    differs from the previous segment's end predicate crosses at its start.
    """
    crossings: list[tuple[float, bool]] = []
    carried: bool | None = None  # predicate at the end of the previous segment
    for segment in segments:
        pred_start, pred_end, found, plateau = _monotone_crossings(segment, xi, component)
        # Exact-threshold plateaus digitize to 0 per the <= rule; flag them
        # since they usually indicate a degenerate model.
        if plateau:
            warnings.warn(
                "trajectory runs exactly on the threshold over a whole segment",
                RuntimeWarning,
                stacklevel=2,
            )
        if carried is not None and pred_start != carried:
            # Continuity pins a junction crossing to the segment boundary.
            crossings.append((segment.t0, pred_start))
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
