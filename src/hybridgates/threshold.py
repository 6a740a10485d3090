"""Threshold comparators: digitize an analog trajectory into a binary signal.

The comparator maps a state component x_k(t) to 0 where x_k(t) <= xi and to
1 where x_k(t) > xi, so a reported rising edge is the infimum of
``{t : x_k(t) > xi}``.  Three kinds of segment are cut into monotone pieces,
each of which crosses xi at most once, when its end predicates differ:

- a scalar affine segment, dx/dt = a x + b, is one piece and crosses at the
  exact time ``t0 + ln((xi - x_inf)/(x0 - x_inf))/a`` with ``x_inf = -b/a``
  (or ``t0 + (xi - x0)/b`` when a = 0);
- a relaxation segment, x(t) = target + (x0 - target) exp(-(phi(t) - phi(t0))),
  is one piece and crosses where ``phi(t) - phi(t0) = ln((x0 - target)/(xi -
  target))``, a root that ``brentq`` finds to 1e-13;
- a 2-state affine segment with a real spectrum has
  ``x_k(t) = c0 + c1 e^{lam1 (t - t0)} + c2 e^{lam2 (t - t0)}`` (a zero
  eigenvalue joins c0, equal ones merge), whose derivative vanishes at most
  once, at ``t0 + ln(-c1 lam1/(c2 lam2))/(lam2 - lam1)``; it is split there,
  and ``brentq`` finds each piece's crossing to 1e-13.

The piece-end predicates come from one ``values`` call, so they are the
numbers every other reader of the segment sees.  When a scalar segment's
asymptote (``x_inf`` or ``target``) is xi itself it never crosses, even
where ``exp`` underflows and its computed end value lands exactly on xi.
Every other segment (complex or defective spectra, three or more states,
numeric and function segments) is sampled on a fixed 64-point grid per
segment, refined near xi, and each bracketed predicate change is bisected
to ``TIME_EPS``; tangential touches that never change the predicate between
samples produce no transition.  The sampled path reads the predicate off the
computed values, so a sampled trajectory that underflows onto xi does report
an edge there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .modes import AffineSegment, RelaxationSegment, Segment, Trajectory
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


def _affine_crossing(segment: AffineSegment, xi: float, lo: float, hi: float) -> float:
    """Time at which a scalar affine segment whose end predicates differ
    meets ``xi``, clamped to the piece ``[lo, hi]`` (the whole segment)."""
    a, b, x0 = segment._scalar
    if a == 0.0:
        t = segment.t0 + (xi - x0) / b
    else:
        # ln(ratio) as log1p(ratio - 1) keeps precision when x_inf is far away
        rel = (xi - x0) / (x0 + b / a)
        t = segment.t0 + math.log1p(rel) / a if rel > -1.0 else math.inf
    return min(max(t, lo), hi)


def _relaxation_crossing(segment: RelaxationSegment, xi: float, lo: float, hi: float) -> float:
    """Time at which a relaxation segment whose end predicates differ meets
    ``xi``: the root of phi(t) - phi(t0) = ln((x0 - target)/(xi - target)),
    bracketed by the segment and clamped to it where rounding leaves both
    ends on one side."""
    phi, phi0 = segment.exponent, segment._phi0
    rise = math.log1p((segment.x0 - xi) / (xi - segment.target))
    if rise <= 0.0:
        return lo
    if phi(hi) - phi0 <= rise:
        return hi
    return brentq(lambda t: phi(t) - phi0 - rise, lo, hi, xtol=1e-13)


def _exponential_sum_crossing(excess, xi: float, lo: float, hi: float) -> float:
    """Root of ``excess(t, xi) = x_k(t) - xi`` on a piece where it is
    monotone and the piece-end predicates differ; where rounding leaves both
    ends on one side, the end where it is nearer zero."""
    g_lo, g_hi = excess(lo, xi), excess(hi, xi)
    if (g_lo > 0.0) == (g_hi > 0.0):
        return lo if abs(g_lo) <= abs(g_hi) else hi
    return brentq(excess, lo, hi, args=(xi,), xtol=1e-13)


def _exponential_sum(segment: AffineSegment, component: int):
    """Monotone pieces of a 2-state affine segment with a real spectrum.

    Returns ``(breaks, excess)``: the interior break times (the extremum,
    if it lies inside) and ``excess(t, xi) = x_k(t) - xi`` on floats.
    Returns None for a segment that must be sampled.
    """
    form = segment.exponential_terms(component)
    if form is None or len(form[1]) > 2:
        return None
    # x_k - xi = c0 - xi + sum c_j e^{lam_j s}, s = t - t0: with two terms
    # the derivative vanishes at most once, where
    # e^{(lam2 - lam1) s} = -c1 lam1 / (c2 lam2).
    c0, terms = form
    t0 = segment.t0
    breaks: tuple[float, ...] = ()
    if len(terms) == 2:
        (c1, l1), (c2, l2) = terms
        if ((c1 > 0.0) == (l1 > 0.0)) != ((c2 > 0.0) == (l2 > 0.0)):
            # c1 lam1 and c2 lam2 differ in sign; the log of their ratio is
            # taken term by term so that no product under- or overflows
            log_ratio = math.log(abs(c1)) - math.log(abs(c2)) + math.log(abs(l1 / l2))
            t_star = t0 + log_ratio / (l2 - l1)
            # an extremum within TIME_EPS of an end could only add a pulse
            # narrower than TIME_EPS
            if t0 + TIME_EPS < t_star < segment.t1 - TIME_EPS:
                breaks = (t_star,)
    (c1, l1), (c2, l2) = (*terms, (0.0, 0.0), (0.0, 0.0))[:2]
    exp = math.exp

    def excess(t: float, xi: float) -> float:
        s = t - t0
        return c0 - xi + c1 * exp(l1 * s) + c2 * exp(l2 * s)

    return breaks, excess


def _monotone_crossings(segment: Segment, xi: float, component: int):
    """Crossings of a segment that splits into monotone pieces.

    A scalar affine or relaxation segment is one piece; a 2-state affine
    segment with a real spectrum is split at its extremum.  The piece-end
    predicates come from one ``values`` call, and each piece whose end
    predicates differ crosses once.  Returns ``(start predicate, end
    predicate, crossings, plateau)``, or None for a segment that must be
    sampled.
    """
    scalar = segment.dimension == 1
    if scalar:
        crossing = _SCALAR_CROSSING.get(type(segment))
        if crossing is None:
            return None
        breaks: tuple[float, ...] = ()
        subject = segment
    elif type(segment) is AffineSegment and segment.dimension == 2:
        form = _exponential_sum(segment, component)
        if form is None:
            return None
        breaks, subject = form
        crossing = _exponential_sum_crossing
    else:
        return None
    ts = (segment.t0, *breaks, segment.t1)
    g_ends = (segment.values(ts)[:, component - 1] - xi).tolist()
    if scalar and segment.asymptote == xi:
        # x - xi = (x0 - xi) e^{-(phi(t) - phi(t0))} never changes sign; an
        # exp that underflows onto xi is not an edge.
        g_ends[-1] = g_ends[0]
    pred = pred_start = g_ends[0] > 0.0
    found = []
    for i in range(len(breaks) + 1):
        pred_next = g_ends[i + 1] > 0.0
        if pred_next != pred:
            found.append((crossing(subject, xi, ts[i], ts[i + 1]), pred_next))
        pred = pred_next
    plateau = g_ends[0] == 0.0 and not any(g_ends) and segment.t1 > segment.t0
    return pred_start, pred, found, plateau


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


# Crossing time of each monotone scalar segment kind.
_SCALAR_CROSSING = {AffineSegment: _affine_crossing, RelaxationSegment: _relaxation_crossing}

# Per-segment sampling grid of the sampled crossing path, before refinement.
_PROBE_POINTS = 64


def find_crossings(
    traj: Trajectory,
    xi: float,
    component: int = 1,
    max_crossings: int = 1_000_000,
) -> list[tuple[float, bool]]:
    """Threshold crossing times of one state component of a trajectory.

    Returns ``(time, rising)`` pairs sorted in time; ``rising`` is True when
    the predicate ``x > xi`` turns on.  Three segment kinds are cut into
    monotone pieces, whose end predicates are read from one ``values``
    call: a scalar :class:`AffineSegment` (one piece, closed-form crossing
    time), a :class:`RelaxationSegment` (one piece, a bracketed root of its
    exponent), and a 2-state :class:`AffineSegment` with a real spectrum
    (split at the one extremum of its exponential sum, a bracketed root of
    the sum in each piece).  Each piece whose end predicates differ crosses
    once.  A scalar segment whose asymptote is ``xi`` never crosses.  Every
    other segment (complex or defective spectra, three or more states,
    :class:`DenseSegment`, :class:`FunctionSegment`) is sampled and
    bisected to ``TIME_EPS``, its predicate read off the computed
    values (so an ``exp`` that underflows onto ``xi`` there still reads as
    an edge).  Raises :class:`CrossingCapExceeded` if any single segment
    yields more than ``max_crossings`` crossings.
    """
    crossings: list[tuple[float, bool]] = []
    carried: bool | None = None  # predicate at the end of the previous segment
    for segment in traj.segments:
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
    # Junction double-detections collapse to one event.
    deduped: list[tuple[float, bool]] = []
    for t, rising in crossings:
        if deduped and t - deduped[-1][0] <= TIME_EPS and rising == deduped[-1][1]:
            continue
        deduped.append((t, rising))
    return deduped


def digitize(traj: Trajectory, spec: ThresholdSpec) -> BinarySignal:
    """Binary output signal of a trajectory under a threshold comparator."""
    if traj.t0 > TIME_EPS:
        raise ValueError(f"digitize expects a trajectory starting at 0, got t0={traj.t0}")
    initial = 1 if traj.value(traj.t0)[spec.component - 1] > spec.xi else 0
    crossings = find_crossings(traj, spec.xi, spec.component)
    transitions = [(t, 1 if rising else 0) for t, rising in crossings]
    return BinarySignal(initial, tuple(transitions), traj.horizon)
