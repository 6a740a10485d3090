"""Mode families, per-mode ODE solving, and pasted mode-switch trajectories.

Each mode of a hybrid gate is an ODE right-hand side together with declared
regularity constants: a Lipschitz bound K (in the state, uniform over time)
and a bound M on the norm of the vector field over the gate's state space.
Affine constant-coefficient modes of one or two states (for every 2x2
spectrum, from the trace and determinant) and scalar relaxations (a state
pulled toward a fixed target at a time-varying rate, whose exponent is
known in closed form) are solved in closed form on Python floats.  Modes
declared ``GeneralNumeric`` and affine modes of three or more states go
through an adaptive Runge-Kutta integrator with dense output, the only
place scipy is imported, so importing this module loads no scipy module.

A trajectory driven by a mode-switch signal is assembled by solving each
constant-mode interval from the previous segment's end state, so it is
continuous by construction and follows the active mode's ODE between
switches.  A circuit run keeps only each gate's mode entries and pastes its
trajectories this way when they are asked for.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .signals import TIME_EPS, ModeSwitchSignal

__all__ = [
    "StateSpace",
    "AffineConstant",
    "ScalarRelaxation",
    "GeneralNumeric",
    "ModeFunction",
    "affine_mode",
    "AffineSegment",
    "ScalarAffineSegment",
    "RelaxationSegment",
    "DenseSegment",
    "Segment",
    "Trajectory",
    "solve_mode",
    "matching_output_signal",
    "sup_distance",
    "StateSpaceExit",
    "IntegrationError",
    "write_trajectory_csv",
]


class StateSpaceExit(RuntimeError):
    """A trajectory left the gate's open state-space box."""

    def __init__(self, time: float, state):
        self.time = time
        self.state = np.atleast_1d(state)
        super().__init__(f"trajectory left the state space at t={time} (state {self.state})")


class IntegrationError(RuntimeError):
    """The numeric integrator failed to produce a solution."""


@dataclass(frozen=True)
class StateSpace:
    """Open axis-aligned box the analog state must stay inside."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for lo, hi in self.bounds:
            if not (lo < hi):
                raise ValueError(f"empty state-space interval ({lo}, {hi})")

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    def contains(self, x, slack: float = 1e-12) -> bool:
        """Whether ``x``, a float in a 1-state space or else a sequence, lies
        inside the box widened by ``slack``."""
        xs = (x,) if isinstance(x, float) else np.asarray(x, dtype=float)
        for value, (lo, hi) in zip(xs, self.bounds):
            if not (lo - slack < value < hi + slack):
                return False
        return True

    def corners(self):
        return itertools.product(*self.bounds)


# -- mode kinds --------------------------------------------------------------


@dataclass(frozen=True)
class AffineConstant:
    """dx/dt = a x + b with constant coefficients.

    One state solves to a :class:`ScalarAffineSegment` from ``line``, the
    floats (a, b) read once; two to an :class:`AffineSegment` from the
    constants ``plane`` derives once (one beyond the floats raises
    ValueError); and three or more are integrated like ``GeneralNumeric``.
    ``line`` and ``plane`` are None where they do not apply.  A non-finite
    entry of ``a`` or ``b`` raises ValueError for every size.
    """

    a: np.ndarray
    b: np.ndarray
    line: tuple[float, float] | None = field(init=False, repr=False, compare=False)
    plane: _Plane | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent affine shapes {a.shape} / {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not all(map(math.isfinite, [*a.ravel().tolist(), *b.tolist()])):
            raise ValueError(f"affine mode a={a.tolist()}, b={b.tolist()} has non-finite constants")
        try:
            plane = _Plane(a, b) if b.shape[0] == 2 else None
        except OverflowError as exc:  # from float() of a Fraction
            raise ValueError(f"affine mode a={a.tolist()}, b={b.tolist()} has constants beyond the floats") from exc
        object.__setattr__(self, "line", (a.item(), b.item()) if b.shape[0] == 1 else None)
        object.__setattr__(self, "plane", plane)


class _Plane:
    """What every solution of a 2-state mode dx/dt = a x + b shares.

    With tau = tr(a)/2, d = (a11 - a22)/2 and N = a - tau I, so N^2 = disc I
    for disc = d^2 + a12 a21, a component is, in s = t - t0 and with (p, q)
    = ``rows`` applied to y0 = x0 - c:

    - ``c + m s + p e^{l1 s} + q e^{l2 s}`` if disc > 0: l1 = tau + sign(tau)
      disc^1/2, l2 = det(a)/l1, c = -a^-1 b and m = 0, or for a singular a,
      l2 = 0, c = -b/tr(a), m = adj(a) b/tr(a); (p, q) lie on eigenvectors.
    - ``c + e^{tau s} (p + q s)`` if disc = 0 != det(a): (p, q) = (y0, N y0).
    - ``c + e^{tau s} (p cos ws + q sin ws)`` if disc = -w^2: (y0, N y0/w).
    - ``x0 + p s + q s^2`` for a nilpotent a: (a x0 + b, a b/2).

    det(a), disc, c and m are exact in the float entries, rounded once, so
    a stiff mode keeps its slow rate.  An a whose equilibrium c lies beyond
    the floats counts as singular (its dropped terms are below rounding).
    Near a repeated eigenvalue of a non-normal a, or a singular a with b
    outside its range, p and q (or c) grow like disc^-1/2 (or 1/det(a)) and
    cancel.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        (a11, a12), (a21, a22) = a.tolist()
        f11, f12, f21, f22, fb1, fb2 = map(Fraction, (a11, a12, a21, a22, *b.tolist()))
        det, tr = f11 * f22 - f12 * f21, f11 + f22
        disc = float((f11 - f22) ** 2 / 4 + f12 * f21)
        adj_b = (f22 * fb1 - f12 * fb2, f11 * fb2 - f21 * fb1)
        tau, d = float(tr / 2), float((f11 - f22) / 2)
        eq = det and [-v / det for v in adj_b]  # c is None if singular or beyond the floats
        self.c = tuple(map(float, eq)) if eq and max(map(abs, eq)) < sys.float_info.max else None
        self.m, offset = (0.0, 0.0), (0.0, 0.0, 0.0, 0.0)
        if disc > 0.0:
            sr = math.copysign(math.sqrt(disc), tau)
            # (d + sr)(sr - d) = a12 a21 gives the one of them that would cancel
            same = (d >= 0.0) == (sr >= 0.0)
            e11 = d + sr if same else a12 * a21 / (sr - d)
            e22 = a12 * a21 / e11 if same else sr - d
            self.form, den, l1 = "real", 2.0 * sr, tau + sr
            self.rates = (l1, float(det) / l1, den)
            rows = [(u / den, v / den) for u, v in ((e11, a12), (e22, -a12), (a21, e22), (-a21, e11))]
            if self.c is None:
                self.c = (float(-fb1 / tr), float(-fb2 / tr))
                self.m = tuple(float(v / tr) for v in adj_b)
        elif self.c is not None:
            w = math.sqrt(-disc)
            self.form, self.rates = ("complex", (tau, w)) if w else ("repeated", (tau,))
            n = [v / (w or 1.0) for v in (d, a12, a21, -d)]
            rows = [(1.0, 0.0), n[:2], (0.0, 1.0), n[2:]]
        else:
            self.form, self.rates, self.c = "quadratic", (), (0.0, 0.0)
            rows = [(a11, a12), (0.0, 0.0), (a21, a22), (0.0, 0.0)]
            offset = (fb1, (f11 * fb1 + f12 * fb2) / 2, fb2, (f21 * fb1 + f22 * fb2) / 2)
        self.rows = tuple((u, v, float(o)) for (u, v), o in zip(rows, offset))


@dataclass(frozen=True)
class ScalarRelaxation:
    """dx/dt = (target - x) phi'(t) for a scalar x; solved in closed form.

    ``exponent`` is phi, nondecreasing in t, so the solution
    x(t) = target + (x0 - target) exp(-(phi(t) - phi(t0))) moves
    monotonically toward ``target``.  It takes a float time and returns a
    float (computed with ``math``, so a root search over it stays cheap).
    """

    target: float
    exponent: Callable


@dataclass(frozen=True)
class GeneralNumeric:
    """No exploitable structure; integrated numerically from the rhs."""


@dataclass(frozen=True)
class ModeFunction:
    """One mode of a hybrid gate: an ODE rhs plus declared regularity bounds.

    ``lipschitz_k`` bounds the state-Lipschitz constant of the rhs and
    ``rhs_bound_m`` bounds its norm over the state space; both feed the
    mode-switch continuity envelope 2 M exp(T K) d(a, b).
    """

    id: str
    rhs: Callable[[float, np.ndarray], np.ndarray]
    kind: AffineConstant | ScalarRelaxation | GeneralNumeric
    lipschitz_k: float
    rhs_bound_m: float

    def __post_init__(self) -> None:
        if not (self.lipschitz_k >= 0 and self.rhs_bound_m >= 0):  # NaN fails too
            raise ValueError(
                f"regularity bounds must be nonnegative, got K={self.lipschitz_k!r}, M={self.rhs_bound_m!r}"
            )


def affine_mode(mode_id: str, a, b, space: StateSpace) -> ModeFunction:
    """Build an AffineConstant mode with K and M computed from the data.

    K is the spectral norm of ``a``.  ``|a x + b|`` is convex in ``x``, so its
    maximum over the box sits at a corner; M is the corner maximum.  A value
    beyond the floats at a corner makes M infinite, still a bound; one that
    cancels to NaN makes ``ModeFunction`` refuse the mode.
    """
    kind = AffineConstant(a, b)
    a_mat, b_vec = kind.a, kind.b
    k = float(np.linalg.norm(a_mat, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [float(np.linalg.norm(a_mat @ np.asarray(c, dtype=float) + b_vec)) for c in space.corners()]
    m = math.nan if any(map(math.isnan, norms)) else max(norms)
    rhs = lambda t, x, _a=a_mat, _b=b_vec: _a @ x + _b
    return ModeFunction(mode_id, rhs, kind, lipschitz_k=k, rhs_bound_m=m)


# -- root finding ----------------------------------------------------------------

_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brent(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> float:
    """Root of ``f`` in the bracket [lo, hi] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of the C routine behind ``scipy.optimize.brentq``,
    with its relative tolerance 4 eps and its 100 iterations, so it returns
    the same float.  An exact zero at an end returns that end.  Ends whose
    values have one sign, or a NaN value, raise ValueError, and 100
    iterations without convergence raise RuntimeError.
    """
    xpre, xcur = lo, hi
    fpre, fcur = f(xpre), f(xcur)
    if fpre != fpre or fcur != fcur:
        raise ValueError(f"NaN at an end of the bracket [{lo}, {hi}]")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f({lo}) and f({hi}) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or nan, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError(f"NaN at t={xcur}")
    raise RuntimeError(f"no root within {xtol} after {_BRENT_MAXITER} iterations")


# -- trajectory segments -------------------------------------------------------

# Each segment covers [t0, t1] and can evaluate the state at arbitrary times
# inside it.  The next segment starts from the state this one reads at its
# end (``state_at``), so junctions match exactly.
# Kinds with a closed form also cut each component into monotone ``pieces``,
# with its values at the piece ends, which containment and the crossing
# search each read in one call instead of sampling.


class _SegmentBase:
    """What every segment kind derives from ``t0``, ``t1`` and ``values``."""

    __slots__ = ()

    def value(self, t: float) -> np.ndarray:
        return self.values([t])[0]

    def state_at(self, t: float):
        """The state at ``t`` in the form ``solve_mode`` returns it: a float
        for the 1-state kinds that evaluate on floats, an array otherwise."""
        return self.value(t)

    def sample_times(self, n: int) -> np.ndarray:
        return np.linspace(self.t0, self.t1, max(n, 2))

    def pieces(self, component: int):
        """Monotone pieces of one state component (1-based), with the
        component's value at each piece end.

        A segment kind with a closed form returns ``(ts, xs, meet)``: ``ts``
        is ``(t0, *breaks, t1)``, where the breaks are the interior times
        where the component turns, so it is monotone between consecutive
        times; ``xs`` are the component's values at ``ts``, as floats, read
        once for every reader (containment and the crossing search each make
        one call); and ``meet(xi, lo, hi)`` is the time in such a piece
        ``[lo, hi]``, whose end values straddle ``xi``, at which the
        component equals ``xi``.  None, as here, means the segment must be
        sampled.
        """
        return None


class _FloatSegment(_SegmentBase):
    """A 1-state closed form evaluated on floats by ``at(t)``.

    The state is monotone, so the segment is one piece, which meets xi at
    the time its ``_meet`` gives.  ``values`` applies ``at`` time by time,
    so the array API and the float one agree float for float.
    """

    __slots__ = ()

    dimension = 1

    def state_at(self, t: float) -> float:
        return self.at(t)

    def values(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float)).tolist()
        return np.array([self.at(t) for t in ts]).reshape(-1, 1)

    def pieces(self, component: int):
        # at(t0) is x0 itself
        return (self.t0, self.t1), (self.x0, self.at(self.t1)), self._meet


class AffineSegment(_SegmentBase):
    """Closed-form solution of a 2-state mode dx/dt = a x + b from ``x0`` at
    ``t0``, on floats: each component's (p, q) in the form of ``kind.plane``
    (:class:`_Plane`; ``kind`` is built from ``a`` and ``b`` if not given).
    A component turns at most once for a real spectrum and every pi/w for a
    complex one; :func:`_brent` meets xi in each piece to 1e-13.  ``x0`` is
    the state at ``t0``, so a start on the threshold digitizes as its bit.
    """

    __slots__ = ("t0", "t1", "x0", "kind", "_pq")

    dimension = 2

    def __init__(self, t0: float, t1: float, x0, a, b, kind: AffineConstant | None = None):
        if t1 < t0:
            raise ValueError(f"segment must run forward: [{t0}, {t1}]")
        kind = kind or AffineConstant(a, b)
        if kind.plane is None:
            raise ValueError("an affine segment has 2 states; 1 state is a ScalarAffineSegment")
        self.t0, self.t1 = float(t0), float(t1)
        self.x0 = x1, x2 = np.asarray(x0, dtype=float).tolist()
        self.kind = kind
        y1, y2 = x1 - kind.plane.c[0], x2 - kind.plane.c[1]
        self._pq = tuple([u * y1 + v * y2 + o for u, v, o in kind.plane.rows])

    def _component(self, k: int, xi: float = 0.0, exp=math.exp):
        """Component ``k`` (1-based) minus ``xi``, as a function of t."""
        plane, t0, (p, q) = self.kind.plane, self.t0, self._pq[2 * k - 2 : 2 * k]
        form, rates = plane.form, plane.rates
        c = (self.x0 if form == "quadratic" else plane.c)[k - 1] - xi
        if form == "quadratic":
            return lambda t: c + (p + q * (t - t0)) * (t - t0)
        if form == "repeated":
            return lambda t: c + exp(rates[0] * (t - t0)) * (p + q * (t - t0))
        if form == "complex":
            (tau, w), cos, sin = rates, math.cos, math.sin
            return lambda t: c + exp(tau * (t - t0)) * (p * cos(w * (t - t0)) + q * sin(w * (t - t0)))
        m, (l1, l2, _) = plane.m[k - 1], rates
        return lambda t: c + m * (t - t0) + p * exp(l1 * (t - t0)) + q * exp(l2 * (t - t0))

    def _turns(self, k: int) -> tuple[float, ...]:
        """The times where component ``k`` may turn."""
        plane, t0, (p, q) = self.kind.plane, self.t0, self._pq[2 * k - 2 : 2 * k]
        if plane.form == "quadratic":
            return (t0 - p / (2.0 * q),) if q else ()
        if plane.form == "repeated":
            return (t0 - p / q - 1.0 / plane.rates[0],) if q else ()
        if plane.form == "complex":
            # the slope e^{tau s} (A cos ws + B sin ws) vanishes every pi/w
            tau, w = plane.rates
            first = math.atan2(-tau * p - w * q, tau * q - w * p) % math.pi / w
            count = int((self.t1 - t0 - first) * w / math.pi) + 1 if p or q else 0
            return tuple(t0 + first + j * math.pi / w for j in range(max(count, 0)))
        # the slope g1 e^{l1 s} + g2 e^{l2 s} vanishes where its terms cancel
        (l1, l2, den), m = plane.rates, plane.m[k - 1]
        g1, g2 = p * l1, q * l2 + m
        if not g1 or not g2 or (g1 > 0.0) == (g2 > 0.0):
            return ()
        return (t0 + (math.log(abs(g2)) - math.log(abs(g1))) / den,)

    def _component_at(self, ts, component: int) -> list[float]:
        """Component ``component`` (1-based) at the times ``ts``, as floats."""
        t0, x, f = self.t0, self.x0[component - 1], self._component(component)
        try:
            return [x if t == t0 else f(t) for t in ts]
        except OverflowError:  # inf, as numpy's exp gives
            f = self._component(component, exp=lambda u: math.exp(u) if u < 709.78 else math.inf)
            return [x if t == t0 else f(t) for t in ts]

    def values(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float)).tolist()
        return np.array([self._component_at(ts, 1), self._component_at(ts, 2)]).T

    def pieces(self, component: int):
        """Monotone pieces of one state component; see ``_SegmentBase.pieces``."""
        t0, t1 = self.t0, self.t1
        # a turn within TIME_EPS of an end could only add a pulse narrower
        # than TIME_EPS
        ts = (t0, *(t for t in self._turns(component) if t0 + TIME_EPS < t < t1 - TIME_EPS), t1)

        def meet(xi: float, lo: float, hi: float) -> float:
            excess = self._component(component, xi)
            # where rounding leaves both ends on one side, the end nearer xi
            g_lo, g_hi = excess(lo), excess(hi)
            if (g_lo > 0.0) == (g_hi > 0.0):
                return lo if abs(g_lo) <= abs(g_hi) else hi
            return _brent(excess, lo, hi, 1e-13)

        return ts, self._component_at(ts, component), meet


class ScalarAffineSegment(_FloatSegment):
    """Closed-form solution of dx/dt = a x + b for a scalar x from ``x0`` at
    ``t0``, on floats.

    x(t) = x_inf + (x0 - x_inf) e^{a (t - t0)} with ``x_inf = -b/a``, or
    x0 + b (t - t0) when a = 0; x(t0) is ``x0`` itself.  It meets xi at the
    exact time ``t0 + ln((xi - x_inf)/(x0 - x_inf))/a`` (or ``t0 + (xi -
    x0)/b`` when a = 0).
    """

    __slots__ = ("t0", "t1", "x0", "a", "b")

    def __init__(self, t0: float, t1: float, x0: float, a: float, b: float):
        if t1 < t0:
            raise ValueError(f"segment must run forward: [{t0}, {t1}]")
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.x0 = float(x0)
        self.a = float(a)
        self.b = float(b)

    @property
    def asymptote(self) -> float:
        """Value the segment tends to; nan when a = 0 (it has none)."""
        return -self.b / self.a if self.a != 0.0 else math.nan

    def at(self, t: float) -> float:
        dt = t - self.t0
        a, b, x0 = self.a, self.b, self.x0
        if dt == 0.0:
            return x0
        if a == 0.0:
            return x0 + b * dt
        try:
            growth = math.exp(a * dt)
        except OverflowError:  # as numpy's exp, which returns inf
            growth = math.inf
        x_inf = -b / a
        return x_inf + (x0 - x_inf) * growth

    def _meet(self, xi: float, lo: float, hi: float) -> float:
        a, b, x0 = self.a, self.b, self.x0
        if a == 0.0:
            t = self.t0 + (xi - x0) / b
        else:
            # ln(ratio) as log1p(ratio - 1) keeps precision when x_inf is far away
            rel = (xi - x0) / (x0 + b / a)
            t = self.t0 + math.log1p(rel) / a if rel > -1.0 else math.inf
        return min(max(t, lo), hi)


class RelaxationSegment(_FloatSegment):
    """Closed-form solution of dx/dt = (target - x) phi'(t) from ``x0`` at ``t0``.

    x(t) = target + (x0 - target) exp(-(phi(t) - phi(t0))), with phi(t0)
    computed once.  phi is nondecreasing, so the state moves monotonically
    toward ``target``; it meets xi where ``phi(t) - phi(t0) = ln((x0 -
    target)/(xi - target))``, a root that a bracketed Brent search
    (:func:`_brent`) finds to 1e-13.  x(t0) is ``x0`` itself, and times
    before t0 read as t0.
    """

    __slots__ = ("t0", "t1", "x0", "target", "exponent", "_phi0")

    def __init__(self, t0: float, t1: float, x0: float, target: float, exponent: Callable):
        if t1 < t0:
            raise ValueError(f"segment must run forward: [{t0}, {t1}]")
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.x0 = float(x0)
        self.target = float(target)
        self.exponent = exponent
        self._phi0 = exponent(self.t0)

    @property
    def asymptote(self) -> float:
        return self.target

    def at(self, t: float) -> float:
        if t <= self.t0:
            return self.x0
        decay = math.exp(self._phi0 - self.exponent(t))
        return self.target + (self.x0 - self.target) * decay

    def _meet(self, xi: float, lo: float, hi: float) -> float:
        # clamped to the piece where rounding leaves both ends on one side
        phi, phi0 = self.exponent, self._phi0
        rise = math.log1p((self.x0 - xi) / (xi - self.target))
        if rise <= 0.0:
            return lo
        if phi(hi) - phi0 <= rise:
            return hi
        return _brent(lambda t: phi(t) - phi0 - rise, lo, hi, 1e-13)


class DenseSegment(_SegmentBase):
    """Adaptive-integrator solution with dense output on [t0, t1]."""

    __slots__ = ("t0", "t1", "_sol", "_steps")

    def __init__(self, t0: float, t1: float, sol, steps):
        if t1 < t0:
            raise ValueError(f"segment must run forward: [{t0}, {t1}]")
        self.t0 = float(t0)
        self.t1 = float(t1)
        self._sol = sol
        self._steps = np.asarray(steps, dtype=float)

    @property
    def dimension(self) -> int:
        return np.atleast_1d(self._sol(self.t0)).shape[0]

    def values(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        ts = np.clip(ts, self.t0, self.t1)
        out = self._sol(ts)
        return np.atleast_2d(out).T if out.ndim == 1 else out.T

    def sample_times(self, n: int) -> np.ndarray:
        inside = self._steps[(self._steps >= self.t0) & (self._steps <= self.t1)]
        uniform = np.linspace(self.t0, self.t1, max(n, 2))
        return np.unique(np.concatenate([inside, uniform]))


Segment = AffineSegment | ScalarAffineSegment | RelaxationSegment | DenseSegment


class Trajectory:
    """Continuous piecewise solution: consecutive segments tiling [t0, t1].
    Iterating it yields the segments in time order."""

    def __init__(self, segments: Sequence[Segment]):
        if not segments:
            raise ValueError("a trajectory needs at least one segment")
        for prev, cur in zip(segments, segments[1:]):
            if abs(prev.t1 - cur.t0) > TIME_EPS:
                raise ValueError(
                    f"segments must tile the time axis: gap between {prev.t1} and {cur.t0}"
                )
        self.segments = tuple(segments)
        self._starts = [s.t0 for s in self.segments]

    def __iter__(self):
        return iter(self.segments)

    @property
    def t0(self) -> float:
        return self.segments[0].t0

    @property
    def horizon(self) -> float:
        return self.segments[-1].t1

    @property
    def dimension(self) -> int:
        return self.segments[0].dimension

    def breakpoints(self) -> np.ndarray:
        return np.asarray([self.t0] + [s.t1 for s in self.segments])

    def value(self, t: float) -> np.ndarray:
        idx = bisect.bisect_right(self._starts, t) - 1
        return self.segments[max(idx, 0)].value(t)

    def values(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        order = np.argsort(ts, kind="stable")
        sorted_ts = ts[order]
        out = np.empty((len(ts), self.dimension))
        idxs = np.searchsorted(self._starts, sorted_ts, side="right") - 1
        idxs = np.clip(idxs, 0, len(self.segments) - 1)
        pos = 0
        for seg_idx in range(len(self.segments)):
            mask = idxs == seg_idx
            if not mask.any():
                continue
            chunk = sorted_ts[mask]
            out[pos : pos + len(chunk)] = self.segments[seg_idx].values(chunk)
            pos += len(chunk)
        unsorted = np.empty_like(out)
        unsorted[order] = out
        return unsorted


# -- solving -------------------------------------------------------------------

def _containment_scan(segment: Segment, space: StateSpace) -> None:
    # A component that is monotone between its piece ends is inside when
    # they are.  Other segments, and every exit, are sampled.
    for k, (lo, hi) in enumerate(space.bounds, 1):
        form = segment.pieces(k)
        if form is None:
            break
        xs = form[1]
        if not (lo - 1e-12 < min(xs) and max(xs) < hi + 1e-12):
            break
    else:
        return
    ts = segment.sample_times(64)
    vals = segment.values(ts)
    for i, (lo, hi) in enumerate(space.bounds):
        bad = (vals[:, i] <= lo - 1e-12) | (vals[:, i] >= hi + 1e-12)
        if bad.any():
            j = int(np.argmax(bad))
            raise StateSpaceExit(float(ts[j]), vals[j])


# RK45 tolerances of the modes solved numerically: GeneralNumeric ones and
# affine ones of three or more states
_RK45_RTOL, _RK45_ATOL = 1e-9, 1e-12


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    Only ``GeneralNumeric`` modes and affine modes of three or more states
    integrate numerically, and ``scipy.integrate`` would take most of the
    package's import time.
    """
    from scipy.integrate import solve_ivp as integrate

    return integrate(*args, **kwargs)


def solve_mode(
    mode: ModeFunction,
    x0,
    t0: float,
    t1: float,
    space: StateSpace,
) -> Segment:
    """Solve one mode from ``x0`` over ``[t0, t1]``; returns a segment.

    In a 1-state space ``x0`` may be a float or a length-1 sequence, and an
    affine or relaxation mode returns a float segment, whose ``state_at``
    gives the float that the next entry takes; affine modes of three or
    more states are integrated like ``GeneralNumeric`` ones.  Raises
    :class:`StateSpaceExit` if the solution leaves the open box,
    :class:`IntegrationError` if the numeric integrator fails, and
    ``ValueError`` from the segment's constructor if ``t1 < t0``.
    """
    n = space.dimension
    if not (n == 1 and isinstance(x0, float)):
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.shape[0] != n:
            raise ValueError(f"state dimension {x0.shape[0]} != space dimension {n}")
        if n == 1:
            x0 = float(x0[0])
    if not space.contains(x0):
        raise StateSpaceExit(t0, x0)

    kind = mode.kind
    if isinstance(kind, AffineConstant) and n <= 2:
        if n == 1:
            seg: Segment = ScalarAffineSegment(t0, t1, x0, *kind.line)
        else:
            seg = AffineSegment(t0, t1, x0, kind.a, kind.b, kind)
    elif isinstance(kind, ScalarRelaxation):
        seg = RelaxationSegment(t0, t1, x0, kind.target, kind.exponent)
    elif t1 - t0 <= TIME_EPS:  # a degenerate span: the state stands still
        still = lambda ts, _x=x0: np.multiply.outer(_x, np.ones_like(ts))  # noqa: E731
        seg = DenseSegment(t0, t1, still, (t0, t1))
    else:
        sol = solve_ivp(
            mode.rhs,
            (t0, t1),
            np.atleast_1d(x0),
            method="RK45",
            rtol=_RK45_RTOL,
            atol=_RK45_ATOL,
            dense_output=True,
        )
        if not sol.success:
            raise IntegrationError(
                f"integration of mode {mode.id!r} failed on [{t0}, {t1}]: {sol.message}"
            )
        seg = DenseSegment(t0, t1, sol.sol, sol.t)
    _containment_scan(seg, space)
    return seg


def matching_output_signal(
    family: Mapping[Hashable, ModeFunction],
    switching: ModeSwitchSignal,
    x0,
    space: StateSpace,
) -> Trajectory:
    """Trajectory that starts at ``x0``, is continuous, and follows the
    active mode's ODE on every inter-switch interval.  Each interval starts
    from the state the previous segment reads at its end (``state_at``), as
    ``circuit.execute`` carries it, so the closed-form segments of a run
    paste bit for bit (an integrated one stops at its interval's end)."""
    segments: list[Segment] = []
    state = x0
    for start, end, mode_id in switching.intervals():
        if mode_id not in family:
            raise KeyError(f"mode id {mode_id!r} not present in the mode family")
        if end - start <= TIME_EPS and segments:
            continue
        seg = solve_mode(family[mode_id], state, start, end, space)
        segments.append(seg)
        state = seg.state_at(end)
    return Trajectory(segments)


def sup_distance(x: Trajectory, y: Trajectory, samples: int = 10_000) -> float:
    """Sampled sup-norm distance between two trajectories on a shared span.

    The grid is the union of a uniform grid, both trajectories' segment
    boundaries, and a local refinement around the coarse maximum, so the
    reported value is a lower bound within the interpolation error.
    """
    lo = max(x.t0, y.t0)
    hi = min(x.horizon, y.horizon)
    if hi - lo <= 0:
        raise ValueError("trajectories do not overlap in time")
    grid = np.unique(
        np.concatenate(
            [
                np.linspace(lo, hi, max(samples, 16)),
                np.clip(x.breakpoints(), lo, hi),
                np.clip(y.breakpoints(), lo, hi),
            ]
        )
    )
    diff = np.linalg.norm(x.values(grid) - y.values(grid), axis=1)
    best = int(np.argmax(diff))
    coarse = float(diff[best])
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    if b > a:
        fine = np.linspace(a, b, 512)
        refined = float(np.max(np.linalg.norm(x.values(fine) - y.values(fine), axis=1)))
    else:
        refined = coarse
    return max(coarse, refined)


# -- CSV dump --------------------------------------------------------------------


def write_trajectory_csv(
    traj: Trajectory,
    path: str | Path,
    samples: int = 2001,
    metadata: dict | None = None,
) -> None:
    """Sample a trajectory on a uniform grid and dump it as CSV.

    Header comments carry the supplied metadata plus the segment boundary
    (mode-switch) times.
    """
    switch_times = [float(t) for t in traj.breakpoints()[1:-1]]
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(f"# switch_times={switch_times!r}")
    n = traj.dimension
    lines.append("time," + ",".join(f"x{i + 1}" for i in range(n)))
    ts = np.linspace(traj.t0, traj.horizon, samples)
    vals = traj.values(ts)
    for t, row in zip(ts, vals):
        lines.append(f"{float(t)!r}," + ",".join(f"{float(v)!r}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
