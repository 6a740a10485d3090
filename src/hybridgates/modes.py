"""Mode families, per-mode ODE solving, and pasted mode-switch trajectories.

Each mode of a hybrid gate is an ODE right-hand side together with declared
regularity constants: a Lipschitz bound K (in the state, uniform over time)
and a bound M on the norm of the vector field over the gate's state space.
Every mode has a closed form, solved on Python floats: an affine
constant-coefficient mode of one or two states (for every 2x2 spectrum,
from the trace and determinant), or a scalar relaxation (a state pulled
toward a fixed target at a time-varying rate, whose exponent is known in
closed form).  Any other mode is refused when it is built.

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
    "ModeFunction",
    "affine_mode",
    "AffineSegment",
    "ScalarAffineSegment",
    "RelaxationSegment",
    "Segment",
    "Trajectory",
    "solve_mode",
    "matching_output_signal",
    "sup_distance",
    "StateSpaceExit",
    "write_trajectory_csv",
]


class StateSpaceExit(RuntimeError):
    """A trajectory left the gate's open state-space box."""

    def __init__(self, time: float, state):
        self.time = time
        self.state = np.atleast_1d(state)
        super().__init__(f"trajectory left the state space at t={time} (state {self.state})")


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
        """Whether ``x``, a float in a 1-state space or else a sequence of
        floats, lies inside the box widened by ``slack``."""
        for value, (lo, hi) in zip((x,) if isinstance(x, float) else x, self.bounds):
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
    floats (a, b) read once, and two to an :class:`AffineSegment` from the
    constants ``plane`` derives once; ``line`` is None for two states and
    ``plane`` for one.  Three or more states, a non-finite entry of ``a`` or
    ``b``, or a constant of ``plane`` beyond the floats raise ValueError.
    """

    a: np.ndarray
    b: np.ndarray
    line: tuple[float, float] | None = field(init=False, repr=False, compare=False)
    plane: _Plane | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float, ndmin=2)
        b = np.array(self.b, dtype=float, ndmin=1)
        if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent affine shapes {a.shape} / {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        rows, bs = a.tolist(), b.tolist()
        if not all(map(math.isfinite, itertools.chain(*rows, bs))):
            raise ValueError(f"affine mode a={rows}, b={bs} has non-finite constants")
        if len(bs) > 2:
            raise ValueError(f"affine mode a={rows}, b={bs} has {len(bs)} states; only 1 or 2 have a closed form")
        try:
            plane = _Plane(rows, bs) if len(bs) == 2 else None
        except ArithmeticError as exc:  # float() of a Fraction, or a Fraction(0, 0)
            raise ValueError(f"affine mode a={rows}, b={bs} has constants beyond the floats") from exc
        object.__setattr__(self, "line", (rows[0][0], bs[0]) if len(bs) == 1 else None)
        object.__setattr__(self, "plane", plane)


def _root(v: Fraction) -> float:
    """|v|^1/2, rounded from v scaled by a power of 4 into the normal floats,
    so the root of a v whose float is subnormal keeps every bit."""
    k = (v.numerator.bit_length() - v.denominator.bit_length()) // 2
    return math.ldexp(math.sqrt(abs(float(v / Fraction(4) ** k))), k)


def _over(x: Fraction, fx: float, y: float) -> float:
    """x / y from ``fx``, the float of x, or rounded once from x itself where
    fx is subnormal and so keeps few of its bits."""
    return fx / y if abs(fx) >= sys.float_info.min or not x else float(x / Fraction(y))


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
    a stiff mode keeps its slow rate; disc^1/2, l2 and the eigenvectors come
    from the exact disc, det(a) and a12 a21 where their floats are subnormal.
    An a whose equilibrium c lies beyond the floats counts as singular (its
    dropped terms are below rounding).
    Near a repeated eigenvalue of a non-normal a, or a singular a with b
    outside its range, p and q (or c) grow like disc^-1/2 (or 1/det(a)) and
    cancel.
    """

    def __init__(self, a: list[list[float]], b: list[float]):
        (a11, a12), (a21, a22) = a
        f11, f12, f21, f22, fb1, fb2 = map(Fraction, (a11, a12, a21, a22, *b))
        det, tr = f11 * f22 - f12 * f21, f11 + f22
        exact_disc = (f11 - f22) ** 2 / 4 + f12 * f21
        disc = float(exact_disc)
        adj_b = (f22 * fb1 - f12 * fb2, f11 * fb2 - f21 * fb1)
        tau, d = float(tr / 2), float((f11 - f22) / 2)
        eq = det and [-v / det for v in adj_b]  # c is None if singular or beyond the floats
        self.c = tuple(map(float, eq)) if eq and max(map(abs, eq)) < sys.float_info.max else None
        self.m, offset = (0.0, 0.0), (0.0, 0.0, 0.0, 0.0)
        if disc > 0.0:
            sr = math.copysign(_root(exact_disc), tau)
            # (d + sr)(sr - d) = a12 a21 gives the one of them that would cancel
            same = (d >= 0.0) == (sr >= 0.0)
            cross, fcross = f12 * f21, a12 * a21
            e11 = d + sr if same else _over(cross, fcross, sr - d)
            e22 = _over(cross, fcross, e11) if same else sr - d
            self.form, den, l1 = "real", 2.0 * sr, tau + sr
            self.rates = (l1, _over(det, float(det), l1), den)
            rows = [(u / den, v / den) for u, v in ((e11, a12), (e22, -a12), (a21, e22), (-a21, e11))]
            if self.c is None:
                self.c = (float(-fb1 / tr), float(-fb2 / tr))
                self.m = tuple(float(v / tr) for v in adj_b)
        elif self.c is not None:
            w = disc and _root(exact_disc)
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
    monotonically toward ``target``.  It takes a float time and returns the
    pair (phi(t), phi'(t)) of floats (computed with ``math``, so a Newton
    search over it stays cheap).
    """

    target: float
    exponent: Callable


@dataclass(frozen=True)
class ModeFunction:
    """One mode of a hybrid gate: an ODE rhs plus declared regularity bounds.

    ``kind`` is the closed form the mode is solved by: an
    :class:`AffineConstant` or a :class:`ScalarRelaxation`; any other kind
    is refused, naming the mode.  ``lipschitz_k`` bounds the
    state-Lipschitz constant of the rhs and ``rhs_bound_m`` bounds its norm
    over the state space; both feed the mode-switch continuity envelope
    2 M exp(T K) d(a, b).
    """

    id: str
    rhs: Callable[[float, np.ndarray], np.ndarray]
    kind: AffineConstant | ScalarRelaxation
    lipschitz_k: float
    rhs_bound_m: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, (AffineConstant, ScalarRelaxation)):
            raise ValueError(
                f"mode {self.id!r}: a {type(self.kind).__name__} has no closed form;"
                " a mode is an AffineConstant or a ScalarRelaxation"
            )
        if not (self.lipschitz_k >= 0 and self.rhs_bound_m >= 0):  # NaN fails too
            raise ValueError(
                f"regularity bounds must be nonnegative, got K={self.lipschitz_k!r}, M={self.rhs_bound_m!r}"
            )


def affine_mode(mode_id: str, a, b, space: StateSpace) -> ModeFunction:
    """Build an AffineConstant mode with K and M computed from the data.

    K is the spectral norm of ``a``: |a|, or (|(a11 + a22, a21 - a12)| +
    |(a11 - a22, a12 + a21)|)/2 for two states.  ``|a x + b|`` is convex in
    ``x``, so M is its maximum over the box's corners.  Both are floats.  A
    value beyond the floats at a corner makes M infinite, still a bound; one
    that cancels to NaN makes ``ModeFunction`` refuse the mode.  A refusal,
    of three or more states too, names ``mode_id``.
    """
    try:
        kind = AffineConstant(a, b)
    except ValueError as exc:
        raise ValueError(f"mode {mode_id!r}: {exc}") from exc
    a_mat, b_vec = kind.a, kind.b
    if kind.line is not None:
        a1, b1 = kind.line
        k, xs = abs(a1), [(a1 * c + b1,) for (c,) in space.corners()]
    else:
        ((a11, a12), (a21, a22)), (b1, b2) = a_mat.tolist(), b_vec.tolist()
        k = (math.hypot(a11 + a22, a21 - a12) + math.hypot(a11 - a22, a12 + a21)) / 2
        xs = [(a11 * c1 + a12 * c2 + b1, a21 * c1 + a22 * c2 + b2) for c1, c2 in space.corners()]
    norms = [math.sqrt(sum([v * v for v in x])) for x in xs]  # numpy's 2-norm, sqrt(x . x)
    m = math.nan if any(map(math.isnan, norms)) else max(norms)
    rhs = lambda t, x, _a=a_mat, _b=b_vec: _a @ x + _b
    return ModeFunction(mode_id, rhs, kind, lipschitz_k=k, rhs_bound_m=m)


# -- root finding ----------------------------------------------------------------

# _newton's relative tolerance and iteration cap: scipy brentq's defaults
_ROOT_RTOL = 4.0 * sys.float_info.epsilon
_ROOT_MAXITER = 100


def _newton(
    fd: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    g_lo: float,
    g_hi: float,
    t: float | None,
    xtol: float,
) -> float:
    """Root of f in the bracket [lo, hi] by Newton steps, safeguarded by bisection.

    ``fd(t)`` is ``(f(t), f'(t))``, and ``g_lo``, ``g_hi`` are f at the ends,
    which must not have one sign.  An exact zero at an end returns that end.
    The search starts at ``t``, a time inside (lo, hi), or if that is None
    at the secant of the ends, and each value narrows the bracket.  A step
    shorter than half of ``xtol + 4 eps |t|`` ends it, clamped to the
    bracket; a step that leaves the bracket bisects instead.  A NaN value,
    at an end or inside, raises ValueError, and 100 iterations without
    convergence raise RuntimeError.
    """
    if g_lo != g_lo or g_hi != g_hi:
        raise ValueError(f"NaN at an end of the bracket [{lo}, {hi}]")
    if not (g_lo and g_hi):
        return hi if g_lo else lo
    if t is None:
        t = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    rising = g_lo < 0.0
    for _ in range(_ROOT_MAXITER):
        f, df = fd(t)
        if f != f:
            raise ValueError(f"NaN at t={t}")
        if (f < 0.0) == rising:
            lo = t
        else:
            hi = t
        half = (xtol + _ROOT_RTOL * abs(t)) / 2
        if df:
            step = f / df
            if abs(step) <= half:  # before the bracket test: t - step may round onto an end
                return min(max(t - step, lo), hi)
            t -= step
            if lo < t < hi:
                continue
        if hi - lo <= 2.0 * half:
            return (lo + hi) / 2
        t = (lo + hi) / 2
    raise RuntimeError(f"no root within {xtol} after {_ROOT_MAXITER} iterations")


def _exp(u: float) -> float:
    """e^u, or inf past ln of the largest float, where ``math.exp`` raises, as numpy's exp."""
    return math.exp(u) if u <= 709.782712893384 else math.inf


# -- trajectory segments -------------------------------------------------------

# Each segment covers [t0, t1] and can evaluate the state at arbitrary times
# inside it.  The next segment starts from the state this one reads at its
# end (``state_at``), so junctions match exactly.
# Every kind reads its end state ``x1`` once, when built, and cuts each
# component into monotone ``pieces`` with its values at the piece ends, which
# containment and the crossing search each read in one call.


class _SegmentBase:
    """What every segment kind shares.

    ``state_at(t)`` is the state in the one form a run carries between
    modes: a float in a 1-state space, otherwise a tuple of floats.
    ``values(ts)`` is an array with one row per time, and ``value(t)`` one
    such row.  ``pieces(component)`` returns, for one state component
    (1-based), ``(ts, xs, meet)``: ``ts`` is ``(t0, *breaks, t1)``, where the
    breaks are the interior times where the component turns, so it is
    monotone between consecutive times; ``xs`` are the component's values at
    ``ts``, as floats, read once for every reader (containment and the
    crossing search each make one call); and ``meet(xi, lo, hi)`` is the
    time in such a piece ``[lo, hi]``, whose end values straddle ``xi``, at
    which the component equals ``xi``.
    """

    __slots__ = ()

    def value(self, t: float) -> np.ndarray:
        return self.values([t])[0]


class _FloatSegment(_SegmentBase):
    """A 1-state closed form evaluated on floats by ``at(t)``.

    The state is monotone, so the segment is one piece, which meets xi at
    the time its ``_meet`` gives.  Its end value ``x1`` is ``at(t1)``, read
    once when the segment is built.  ``values`` applies ``at`` time by time,
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
        # at(t0) is x0 itself, and x1 is at(t1)
        return (self.t0, self.t1), (self.x0, self.x1), self._meet


class AffineSegment(_SegmentBase):
    """Closed-form solution of a 2-state mode dx/dt = a x + b from ``x0`` at
    ``t0``, on floats: each component's (p, q) in the form of ``kind.plane``
    (:class:`_Plane`; ``kind`` is built from ``a`` and ``b`` if not given).
    Both components come from one set of exp, cos and sin calls per time,
    and the end state ``x1`` is read once, when the segment is built.  A
    component turns at most once for a real spectrum and every pi/w for a
    complex one; :func:`_newton` meets xi in each piece to 1e-13, on the
    component's closed-form slope, from the one-exponential estimate of
    ``_start`` or else the secant of the piece ends.  ``x0`` is the state at
    ``t0``, so a start on the threshold digitizes as its bit.
    """

    __slots__ = ("t0", "t1", "x0", "kind", "_pq", "x1")

    dimension = 2

    def __init__(self, t0: float, t1: float, x0, a, b, kind: AffineConstant | None = None):
        if t1 < t0:
            raise ValueError(f"segment must run forward: [{t0}, {t1}]")
        kind = kind or AffineConstant(a, b)
        if kind.plane is None:
            raise ValueError("an affine segment has 2 states; 1 state is a ScalarAffineSegment")
        self.t0, self.t1 = float(t0), float(t1)
        self.x0 = x1, x2 = tuple(map(float, x0))
        self.kind = kind
        y1, y2 = x1 - kind.plane.c[0], x2 - kind.plane.c[1]
        self._pq = tuple([u * y1 + v * y2 + o for u, v, o in kind.plane.rows])
        self.x1 = self.state_at(self.t1)

    def _states(self, ts, exp=math.exp) -> tuple[list[float], list[float]]:
        """Each component at the times ``ts`` (``x0`` itself at t0).  An exp
        that overflows reads inf, and a zero coefficient times it adds 0."""
        plane, t0, x0, (p1, q1, p2, q2) = self.kind.plane, self.t0, self.x0, self._pq
        form, (m1, m2), (l1, l2) = plane.form, plane.m, (*plane.rates, 0.0, 0.0)[:2]
        (c1, c2), cos, sin = x0 if form == "quadratic" else plane.c, math.cos, math.sin
        xs1, xs2 = out = [], []
        try:
            for t in ts:
                s = t - t0
                if t == t0:
                    a, b = x0
                elif form == "real":
                    e1, e2 = exp(l1 * s), exp(l2 * s)
                    a = c1 + m1 * s + (p1 and p1 * e1) + (q1 and q1 * e2)
                    b = c2 + m2 * s + (p2 and p2 * e1) + (q2 and q2 * e2)
                elif form == "quadratic":
                    a, b = c1 + (p1 + q1 * s) * s, c2 + (p2 + q2 * s) * s
                else:  # c + e^{tau s} (p u + q v): (u, v) = (cos ws, sin ws), or (1, s) if repeated
                    e, u, v = exp(l1 * s), cos(l2 * s) if l2 else 1.0, sin(l2 * s) if l2 else s
                    r1, r2 = p1 * u + q1 * v, p2 * u + q2 * v
                    a, b = c1 + (r1 and e * r1), c2 + (r2 and e * r2)
                xs1.append(a)
                xs2.append(b)
        except OverflowError:
            return self._states(ts, _exp)
        return out

    def _excess(self, k: int, xi: float):
        """Component ``k`` (1-based) minus ``xi``, folded into its constant,
        and its slope: one function of t that returns both from shared exp,
        cos and sin calls.  No exp overflows on [t0, t1] unless one at t1 does;
        then each reads inf, and one at rest (p = q = 0) has no exp term."""
        plane, t0, (p, q) = self.kind.plane, self.t0, self._pq[2 * k - 2 : 2 * k]
        form, rates, span = plane.form, plane.rates, self.t1 - t0
        c = (self.x0 if form == "quadratic" else plane.c)[k - 1] - xi
        if form == "quadratic":

            def excess(t):
                s = t - t0
                return c + (p + q * s) * s, p + 2.0 * q * s

        elif form == "repeated":
            tau = rates[0] if p or q else 0.0
            exp = math.exp if tau * span < 709.0 else _exp

            def excess(t):
                s = t - t0
                e, r = exp(tau * s), p + q * s
                return c + e * r, e * (tau * r + q)

        elif form == "complex":
            (tau, w), cos, sin = rates if p or q else (0.0, 0.0), math.cos, math.sin
            dp, dq, exp = tau * p + w * q, tau * q - w * p, math.exp if tau * span < 709.0 else _exp

            def excess(t):
                s = t - t0
                e, u, v = exp(tau * s), cos(w * s), sin(w * s)
                return c + e * (p * u + q * v), e * (dp * u + dq * v)

        else:
            m, (l1, l2, _) = plane.m[k - 1], rates
            exp = math.exp if max(l1, l2) * span < 709.0 else _exp

            def excess(t):
                s = t - t0
                e1, e2 = p and p * exp(l1 * s), q and q * exp(l2 * s)
                return c + m * s + e1 + e2, m + l1 * e1 + l2 * e2

        return excess

    def _start(self, k: int, xi: float, lo: float, hi: float) -> float | None:
        """Where component ``k`` would meet ``xi`` if one exponential term
        were all it had besides its constant: for a real form with m = 0 the
        slow term, then the fast one (a zero rate belongs to the constant),
        and for a repeated form e^{tau s} p, exact when q = 0.  None unless
        that time lies inside (lo, hi)."""
        plane, (p, q) = self.kind.plane, self._pq[2 * k - 2 : 2 * k]
        if plane.form in ("complex", "quadratic") or plane.m[k - 1]:
            return None
        c = plane.c[k - 1] - xi
        if plane.form == "repeated":
            terms = ((p, plane.rates[0]),)
        else:
            l1, l2, _ = plane.rates
            if not l2:
                c, q = c + q, 0.0
            terms = ((q, l2), (p, l1))
        for w, l in terms:
            if w and -c / w > 0.0:
                t = self.t0 + math.log(-c / w) / l
                if lo < t < hi:
                    return t
        return None

    def _turns(self, k: int) -> Sequence[float]:
        """The times where component ``k`` may turn."""
        plane, t0, (p, q) = self.kind.plane, self.t0, self._pq[2 * k - 2 : 2 * k]
        if plane.form == "quadratic":
            return (t0 - p / (2.0 * q),) if q else ()
        if plane.form == "repeated":
            return (t0 - p / q - 1.0 / plane.rates[0],) if q else ()
        if plane.form == "complex":
            # the slope e^{tau s} (A cos ws + B sin ws) vanishes every pi/w
            (tau, w), pi = plane.rates, math.pi
            first = math.atan2(-tau * p - w * q, tau * q - w * p) % pi / w
            count = int((self.t1 - t0 - first) * w / pi) + 1 if p or q else 0
            return [t0 + first + j * pi / w for j in range(max(count, 0))]
        # the slope g1 e^{l1 s} + g2 e^{l2 s} vanishes where its terms cancel
        (l1, l2, den), m = plane.rates, plane.m[k - 1]
        g1, g2 = p * l1, q * l2 + m
        if not g1 or not g2 or (g1 > 0.0) == (g2 > 0.0):
            return ()
        return (t0 + (math.log(abs(g2)) - math.log(abs(g1))) / den,)

    def state_at(self, t: float) -> tuple[float, float]:
        (a,), (b,) = self._states((t,))
        return a, b

    def values(self, ts) -> np.ndarray:
        return np.array(self._states(np.atleast_1d(np.asarray(ts, dtype=float)).tolist())).T

    def pieces(self, component: int):
        """Monotone pieces of one state component; see ``_SegmentBase.pieces``."""
        # a turn within TIME_EPS of an end could only add a pulse narrower
        # than TIME_EPS
        k, after, before = component - 1, self.t0 + TIME_EPS, self.t1 - TIME_EPS
        turns = [t for t in self._turns(component) if after < t < before]

        def meet(xi: float, lo: float, hi: float) -> float:
            excess = self._excess(component, xi)
            # where rounding leaves both ends on one side, the end nearer xi
            g_lo, g_hi = excess(lo)[0], excess(hi)[0]
            if (g_lo > 0.0) == (g_hi > 0.0):
                return lo if abs(g_lo) <= abs(g_hi) else hi
            return _newton(excess, lo, hi, g_lo, g_hi, self._start(component, xi, lo, hi), 1e-13)

        xs = (self.x0[k], *(self._states(turns)[k] if turns else ()), self.x1[k])
        return (self.t0, *turns, self.t1), xs, meet


class ScalarAffineSegment(_FloatSegment):
    """Closed-form solution of dx/dt = a x + b for a scalar x from ``x0`` at
    ``t0``, on floats.

    x(t) = x_inf + (x0 - x_inf) e^{a (t - t0)} with ``x_inf = -b/a``, or
    x0 + b (t - t0) when a = 0; x(t0) is ``x0`` itself.  It meets xi at the
    exact time ``t0 + ln((xi - x_inf)/(x0 - x_inf))/a`` (or ``t0 + (xi -
    x0)/b`` when a = 0).
    """

    __slots__ = ("t0", "t1", "x0", "a", "b", "x1")

    def __init__(self, t0: float, t1: float, x0: float, a: float, b: float):
        if t1 < t0:
            raise ValueError(f"segment must run forward: [{t0}, {t1}]")
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.x0 = float(x0)
        self.a = float(a)
        self.b = float(b)
        self.x1 = self.at(self.t1)

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
            if x0 == -b / a:  # an unstable equilibrium, where 0 * inf is nan
                return x0
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
    computed once; ``exponent(t)`` returns (phi(t), phi'(t)).  phi is
    nondecreasing, so the state moves monotonically toward ``target``; it
    meets xi where ``phi(t) - phi(t0) = ln((x0 - target)/(xi - target))``, a
    root that :func:`_newton` finds to 1e-13 on the slope phi'.  x(t0) is
    ``x0`` itself, and times before t0 read as t0.
    """

    __slots__ = ("t0", "t1", "x0", "target", "exponent", "_phi0", "x1")

    def __init__(self, t0: float, t1: float, x0: float, target: float, exponent: Callable):
        if t1 < t0:
            raise ValueError(f"segment must run forward: [{t0}, {t1}]")
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.x0 = float(x0)
        self.target = float(target)
        self.exponent = exponent
        self._phi0 = exponent(self.t0)[0]
        self.x1 = self.at(self.t1)

    @property
    def asymptote(self) -> float:
        return self.target

    def at(self, t: float) -> float:
        if t <= self.t0:
            return self.x0
        decay = math.exp(self._phi0 - self.exponent(t)[0])
        return self.target + (self.x0 - self.target) * decay

    def _meet(self, xi: float, lo: float, hi: float) -> float:
        # clamped to the piece where rounding leaves both ends on one side
        phi, phi0 = self.exponent, self._phi0
        rise = math.log1p((self.x0 - xi) / (xi - self.target))
        if rise <= 0.0:
            return lo
        g_hi = phi(hi)[0] - phi0 - rise
        if g_hi <= 0.0:
            return hi

        def excess(t: float) -> tuple[float, float]:
            value, slope = phi(t)
            return value - phi0 - rise, slope

        # lo is t0, where the excess is -rise
        return _newton(excess, lo, hi, -rise, g_hi, None, 1e-13)


# unused; bench/spans.py wraps DenseSegment.values by name
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


Segment = AffineSegment | ScalarAffineSegment | RelaxationSegment


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
        """The state at each of ``ts``, in their order: each segment reads
        the times that fall in it, the first one those before t0 and the
        last one those past the horizon."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((len(ts), self.dimension))
        idxs = np.searchsorted(self._starts, ts, side="right") - 1
        idxs = np.clip(idxs, 0, len(self.segments) - 1)
        for seg_idx, segment in enumerate(self.segments):
            mask = idxs == seg_idx
            if mask.any():
                out[mask] = segment.values(ts[mask])
        return out


# -- solving -------------------------------------------------------------------

def _containment_scan(segment: Segment, space: StateSpace) -> None:
    # A component is monotone between its piece ends, so it is inside while
    # they are: one comparison per end.  Otherwise it leaves in its first
    # piece whose end is outside, where that piece meets the bound, and the
    # segment leaves at the earliest of its components' exits.  A NaN meets
    # no comparison with the box, so a NaN end is an exit, at that end.
    exits = []
    for k, (lo, hi) in enumerate(space.bounds, 1):
        ts, xs, meet = segment.pieces(k)
        inside_lo, inside_hi = lo - 1e-12, hi + 1e-12
        for x in xs:
            if not inside_lo < x < inside_hi:
                # no end before x is outside, so none equals it; a NaN is found as itself
                i = xs.index(x)
                at_end = not i or x != x
                exits.append(ts[i] if at_end else meet(lo if x < lo else hi, ts[i - 1], ts[i]))
                break
    if exits:
        t = min(exits)
        raise StateSpaceExit(t, segment.state_at(t))


# unused; bench/spans.py wraps modes.solve_ivp by name
def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call."""
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

    ``x0`` (an int, float, numpy scalar, 0-d array, or list, tuple or array
    of one entry per state) becomes, without numpy, the one form a run
    carries and ``state_at`` returns: a float in a 1-state space, else a
    tuple of floats.  A relaxation solves to a :class:`RelaxationSegment`,
    an affine mode to a :class:`ScalarAffineSegment` in a 1-state space and
    to an :class:`AffineSegment` in a 2-state one.  Raises
    :class:`StateSpaceExit` if the solution leaves the open box, at the
    earliest time a component reaches a bound, with the state there, and
    ``ValueError`` for a wrong state dimension or ``t1 < t0``.
    """
    n = space.dimension
    if not (n == 1 and isinstance(x0, float)):
        try:
            k = len(x0)
        except TypeError:  # a scalar: an int, a numpy scalar or a 0-d array
            k, x0 = 1, (x0,)
        if k != n:
            raise ValueError(f"state dimension {k} != space dimension {n}")
        x0 = float(x0[0]) if n == 1 else tuple(map(float, x0))
    if not space.contains(x0):
        raise StateSpaceExit(t0, x0)

    kind = mode.kind
    if isinstance(kind, ScalarRelaxation):
        seg: Segment = RelaxationSegment(t0, t1, x0, kind.target, kind.exponent)
    elif n == 1:
        seg = ScalarAffineSegment(t0, t1, x0, *kind.line)
    else:
        seg = AffineSegment(t0, t1, x0, kind.a, kind.b, kind)
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
    ``circuit.execute`` carries it, so the segments of a run paste bit for
    bit."""
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
