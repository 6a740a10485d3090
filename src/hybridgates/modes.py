"""Mode families, per-mode ODE solving, and pasted mode-switch trajectories.

Each mode of a hybrid gate is a closed-form kind, which also gives its ODE
right-hand side, together with declared regularity constants: a Lipschitz
bound K (in the state, uniform over time) and a bound M on the norm of the
vector field over the gate's state space.
Every mode has a closed form, solved on Python floats: an affine
constant-coefficient mode of one or two states (for every 2x2 spectrum,
from the trace and determinant), or a scalar relaxation (a state pulled
toward a fixed target at a time-varying rate, whose exponent is known in
closed form).  Any other mode is refused when it is built, and one that
leaves its gate's box when the gate is, so no segment is scanned for an exit.

A trajectory driven by a mode-switch signal is assembled by solving each
constant-mode interval from the previous segment's end state, so it is
continuous by construction and follows the active mode's ODE between
switches.  A circuit run keeps only each gate's mode entries and pastes its
trajectories from them by the same loop when they are asked for.

A state has one form from a mode's data to a CSV dump: a tuple of floats, or
a bare float where a run carries a 1-state gate.  ``AffineConstant.a`` is a
tuple of row tuples and ``.b`` a tuple; ``value(t)`` of a segment or a
trajectory is one row tuple (a 1-tuple for one state), ``values(ts)`` a list
of them, ``breakpoints()`` a list of times and ``StateSpaceExit.state`` a
tuple.
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

from .signals import TIME_EPS, ModeSwitchSignal, _write_csv

# A state is inside a box widened by this much at every bound.
BOX_SLACK = 1e-12

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
    """A solve starts outside the state-space box at ``time``, from ``state``
    (a tuple of floats): an initial state, or one rounded, overflowed or NaN."""

    def __init__(self, time: float, state):
        self.time = time
        self.state = (state,) if isinstance(state, float) else tuple(state)
        super().__init__(f"a solve at t={time} starts outside the state space (state {self.state})")


@dataclass(frozen=True)
class StateSpace:
    """Open axis-aligned box the analog state must stay inside; a bound that
    is not finite raises ValueError."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"state-space interval ({lo}, {hi}) has a bound that is not finite")
            if not (lo < hi):
                raise ValueError(f"empty state-space interval ({lo}, {hi})")

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    def contains(self, x) -> bool:
        """Whether ``x``, a float in a 1-state space or else a sequence of
        floats, lies inside the box widened by ``BOX_SLACK``."""
        if isinstance(x, float):  # checked against the first bound, as a 1-tuple is
            lo, hi = self.bounds[0]
            return lo - BOX_SLACK < x < hi + BOX_SLACK
        for value, (lo, hi) in zip(x, self.bounds):
            if not (lo - BOX_SLACK < value < hi + BOX_SLACK):
                return False
        return True

    def corners(self):
        return itertools.product(*self.bounds)


# -- mode kinds --------------------------------------------------------------


@dataclass(frozen=True)
class AffineConstant:
    """dx/dt = a x + b with constant coefficients.

    ``a`` is kept as a tuple of row tuples of floats and ``b`` as a tuple of
    floats, so two kinds with equal entries compare and hash equal.  One
    state solves to a :class:`ScalarAffineSegment` from ``line``, the
    floats (a, b) read once, and two to an :class:`AffineSegment` from the
    constants ``plane`` derives once; ``line`` is None for two states and
    ``plane`` for one.  Three or more states, a non-finite entry of ``a`` or
    ``b``, or a constant of ``plane`` beyond the floats raise ValueError.
    ``rhs(t, x)`` is ``a x + b`` on floats, as a tuple, for a sequence ``x``
    of one float per state.
    """

    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    line: tuple[float, float] | None = field(init=False, repr=False, compare=False)
    plane: _Plane | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = tuple(tuple(map(float, row)) for row in self.a)
        b = tuple(map(float, self.b))
        # a's shape, or its row count and distinct row lengths if ragged
        shape = (len(a), *sorted({len(row) for row in a}))
        if shape != (len(b), len(b)):
            raise ValueError(f"inconsistent affine shapes {shape} / {(len(b),)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        def refusal(why: str) -> ValueError:
            return ValueError(f"affine mode a={[list(row) for row in a]}, b={list(b)} {why}")

        if not all(map(math.isfinite, itertools.chain(*a, b))):
            raise refusal("has non-finite constants")
        if len(b) > 2:
            raise refusal(f"has {len(b)} states; only 1 or 2 have a closed form")
        try:
            plane = _Plane(a, b) if len(b) == 2 else None
        except ArithmeticError as exc:  # float() of a Fraction, or a Fraction(0, 0)
            raise refusal("has constants beyond the floats") from exc
        object.__setattr__(self, "line", (a[0][0], b[0]) if len(b) == 1 else None)
        object.__setattr__(self, "plane", plane)

    def rhs(self, t: float, x) -> tuple[float, ...]:
        return tuple([sum([u * v for u, v in zip(row, x)]) + c for row, c in zip(self.a, self.b)])


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

    ``AffineSegment._at`` writes each form, its values and its slopes, once.
    det(a), disc, c and m are exact in the float entries, rounded once, so
    a stiff mode keeps its slow rate; disc^1/2, l2 and the eigenvectors come
    from the exact disc, det(a) and a12 a21 where their floats are subnormal.
    An a whose equilibrium c lies beyond the floats counts as singular (its
    dropped terms are below rounding).
    Near a repeated eigenvalue of a non-normal a, or a singular a with b
    outside its range, p and q (or c) grow like disc^-1/2 (or 1/det(a)) and
    cancel.
    """

    def __init__(self, a: Sequence[Sequence[float]], b: Sequence[float]):
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
    search over it stays cheap).  ``rhs(t, x)`` is ``((target - x[0])
    phi'(t),)`` for a sequence ``x`` of one float; like ``exponent``, it is
    defined at and after the mode's entry time.
    """

    target: float
    exponent: Callable

    def rhs(self, t: float, x) -> tuple[float]:
        return ((self.target - x[0]) * self.exponent(t)[1],)


@dataclass(frozen=True)
class ModeFunction:
    """One mode of a hybrid gate: a closed form plus declared regularity bounds.

    ``kind`` is the closed form the mode is solved by: an
    :class:`AffineConstant` or a :class:`ScalarRelaxation`; any other kind
    is refused, naming the mode.  ``rhs(t, x)`` is the kind's ODE, so the
    bounds are about the ODE the mode solves.  ``lipschitz_k`` bounds the
    state-Lipschitz constant of the rhs and ``rhs_bound_m`` bounds its norm
    over the state space; both feed the mode-switch continuity envelope
    2 M exp(T K) d(a, b).
    """

    id: str
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

    def rhs(self, t: float, x) -> tuple[float, ...]:
        return self.kind.rhs(t, x)


def affine_mode(mode_id: str, a, b, space: StateSpace) -> ModeFunction:
    """Build an AffineConstant mode with K and M computed from the data.

    ``a`` is a sequence of rows and ``b`` a sequence, one entry per state.
    The mode's ``rhs(t, x)`` is its kind's ``a x + b``.  K is the spectral
    norm of ``a``: |a|, or (|(a11 + a22, a21 - a12)| + |(a11 - a22, a12 +
    a21)|)/2 for two states.  ``|a x + b|`` is convex in ``x``, so M is the
    largest norm of the kind's ``rhs`` at the box's corners.  Both are
    floats.  A value beyond the floats at a corner makes M infinite, still a
    bound; one that cancels to NaN makes ``ModeFunction`` refuse the mode.
    A refusal, of three or more states too, names ``mode_id``.
    """
    try:
        kind = AffineConstant(a, b)
    except ValueError as exc:
        raise ValueError(f"mode {mode_id!r}: {exc}") from exc

    if kind.line is not None:
        k = abs(kind.line[0])
    else:
        (a11, a12), (a21, a22) = kind.a
        k = (math.hypot(a11 + a22, a21 - a12) + math.hypot(a11 - a22, a12 + a21)) / 2
    # the 2-norm, sqrt(x . x)
    norms = [math.sqrt(sum([v * v for v in kind.rhs(0.0, c)])) for c in space.corners()]
    m = math.nan if any(map(math.isnan, norms)) else max(norms)
    return ModeFunction(mode_id, kind, lipschitz_k=k, rhs_bound_m=m)


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
    bracket.  A step that leaves the bracket, or is longer than half the
    step before the last one, bisects instead (the rule of Numerical
    Recipes' ``rtsafe``), so steps that shrink too slowly, as where rounding
    leaves f flat, cannot crawl.  A NaN value, at an end or inside, raises ValueError, and 100
    iterations without convergence raise RuntimeError.
    """
    if g_lo != g_lo or g_hi != g_hi:
        raise ValueError(f"NaN at an end of the bracket [{lo}, {hi}]")
    if not (g_lo and g_hi):
        return hi if g_lo else lo
    if t is None:
        t = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    rising, before, last = g_lo < 0.0, hi - lo, hi - lo  # the last two step lengths
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
            if lo < t - step < hi and 2.0 * abs(step) <= before:
                t, before, last = t - step, last, abs(step)
                continue
        if hi - lo <= 2.0 * half:
            return (lo + hi) / 2
        t, before, last = (lo + hi) / 2, last, (hi - lo) / 2
    raise RuntimeError(f"no root within {xtol} after {_ROOT_MAXITER} iterations")


def _exp(u: float) -> float:
    """e^u, or inf past ln of the largest float, where ``math.exp`` raises."""
    return math.exp(u) if u <= 709.782712893384 else math.inf


# -- trajectory segments -------------------------------------------------------

# Each segment covers [t0, t1] and can evaluate the state at arbitrary times
# inside it.  The next segment starts from the state this one reads at its
# end (``state_at``), so junctions match exactly.
# Every kind reads its end state ``x1`` once, when built, and crosses a
# threshold itself (``crossings``).


class _SegmentBase:
    """What every segment kind shares.

    ``state_at(t)`` is the state in the one form a run carries between
    modes: a float in a 1-state space, otherwise a tuple of floats.
    ``value(t)`` is the state as a row tuple (a 1-tuple for one state), and
    ``values(ts)`` a list of such rows, one per time.  ``crossings(xi,
    component)`` crosses one state component (1-based) with the level
    ``xi``; each kind does so itself, and returns ``(start, end, found,
    plateau)``: the predicates ``x > xi`` at t0 and t1, read off the floats
    ``x0`` and ``x1`` (and the turns between), the ``(time, rising)``
    crossings inside the segment, and whether the component sits exactly
    on ``xi`` over a segment longer than an instant.
    """

    __slots__ = ()

    def value(self, t: float) -> tuple[float, ...]:
        return self.values([t])[0]


class _FloatSegment(_SegmentBase):
    """A 1-state closed form evaluated on floats by ``at(t)``.

    The state is monotone, so it crosses xi at most once: where the
    predicates of ``x0`` and ``x1`` differ, at the time its ``_meet(xi, t0,
    t1)`` gives, unless its ``asymptote`` is xi.  Its end value ``x1`` is
    ``at(t1)``, read once when the segment is built.  ``values`` applies
    ``at`` time by time, so its rows and ``state_at`` agree float for float.
    """

    __slots__ = ()

    dimension = 1

    def state_at(self, t: float) -> float:
        return self.at(t)

    def values(self, ts) -> list[tuple[float]]:
        return [(self.at(float(t)),) for t in ts]

    def crossings(self, xi: float, component: int):
        x0, x1 = self.x0, self.x1
        start, end = x0 > xi, x1 > xi
        if start == end:
            return start, end, [], x0 == xi == x1 and self.t1 > self.t0
        if self.asymptote == xi:
            # x - xi = (x0 - xi) e^{-(phi(t) - phi(t0))} never changes sign;
            # an exp that underflows onto xi is not an edge
            return start, start, [], False
        return start, end, [(self._meet(xi, self.t0, self.t1), end)], False


class AffineSegment(_SegmentBase):
    """Closed-form solution of a 2-state mode dx/dt = a x + b from ``x0`` at
    ``t0``, on floats: each component's (p, q) in the form of ``kind.plane``
    (:class:`_Plane`; ``kind`` is built from ``a`` and ``b`` if not given).
    One evaluator, ``_at``, writes each form once: it gives both components
    and both slopes from one set of exp, cos and sin calls, and every read
    goes through it, so the end state ``x1``, read once when the segment is
    built, and the values and slopes that meet xi agree.  The exp it reads
    with on [t0, t1] is chosen once, as ``_exp``: ``math.exp``, or
    :func:`_exp`, which reads inf past the floats, where an exponent there
    could pass 709; a state read outside [t0, t1] takes :func:`_exp`.  A
    component turns at most once for a real spectrum and every pi/w for a
    complex one; :func:`_newton` meets xi in each piece to 1e-13, on the
    component's closed-form slope, from the one-exponential estimate of
    ``_start`` or else the secant of the piece ends.  ``x0`` is the state at
    ``t0``, so a start on the threshold digitizes as its bit.
    """

    __slots__ = ("t0", "t1", "x0", "kind", "_pq", "_c", "_exp", "x1")

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
        self._c = self.x0 if kind.plane.form == "quadratic" else kind.plane.c
        # the largest rate an exp reads: a complex pair's second is w, and a quadratic has none
        rates = kind.plane.rates
        rate = max(rates[:2]) if kind.plane.form == "real" else (rates or (0.0,))[0]
        self._exp = math.exp if rate * (self.t1 - self.t0) < 709.0 else _exp
        self.x1 = self.state_at(self.t1)

    def _at(self, t: float, c1: float, c2: float, exp: Callable) -> tuple[float, float, float, float]:
        """Both components at ``t``, with ``c1`` and ``c2`` as their constants
        (``_c``, or ``_c`` minus a level), and both slopes, from one set of
        ``exp``, cos and sin calls.  A zero coefficient times an exp that
        reads inf adds 0."""
        plane, s, (p1, q1, p2, q2) = self.kind.plane, t - self.t0, self._pq
        form, rates = plane.form, plane.rates
        if form == "real":
            (l1, l2, _), (m1, m2) = rates, plane.m
            e1, e2 = exp(l1 * s), exp(l2 * s)
            u1, v1, u2, v2 = p1 and p1 * e1, q1 and q1 * e2, p2 and p2 * e1, q2 and q2 * e2
            return c1 + m1 * s + u1 + v1, c2 + m2 * s + u2 + v2, m1 + l1 * u1 + l2 * v1, m2 + l1 * u2 + l2 * v2
        if form == "quadratic":
            return c1 + (p1 + q1 * s) * s, c2 + (p2 + q2 * s) * s, p1 + 2.0 * q1 * s, p2 + 2.0 * q2 * s
        if form == "repeated":  # c + e^{tau s} r for r = p + q s
            tau = rates[0]
            e, r1, r2 = exp(tau * s), p1 + q1 * s, p2 + q2 * s
            d1, d2 = tau * r1 + q1, tau * r2 + q2
        else:  # c + e^{tau s} r for r = p cos ws + q sin ws
            (tau, w), cos, sin = rates, math.cos, math.sin
            e, u, v = exp(tau * s), cos(w * s), sin(w * s)
            r1, r2 = p1 * u + q1 * v, p2 * u + q2 * v
            d1 = (tau * p1 + w * q1) * u + (tau * q1 - w * p1) * v
            d2 = (tau * p2 + w * q2) * u + (tau * q2 - w * p2) * v
        return c1 + (r1 and e * r1), c2 + (r2 and e * r2), d1 and e * d1, d2 and e * d2

    def _start(self, k: int, xi: float, lo: float, hi: float) -> float | None:
        """Where component ``k`` would meet ``xi`` if one exponential term
        were all it had besides its constant: for a real form with m = 0 the
        slow term, then the fast one (a zero rate belongs to the constant),
        and for a repeated form e^{tau s} p, exact when q = 0.  None unless
        that time lies inside (lo, hi) and its rate is not 0."""
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
            if w and l and -c / w > 0.0:
                t = self.t0 + math.log(-c / w) / l
                if lo < t < hi:
                    return t
        return None

    def _turns(self, k: int) -> Sequence[float]:
        """The times where component ``k`` may turn."""
        plane, t0, (p, q) = self.kind.plane, self.t0, self._pq[2 * k - 2 : 2 * k]
        if plane.form == "quadratic":
            return (t0 - p / (2.0 * q),) if q else ()
        if plane.form == "repeated":  # linear, and so monotone, at a zero rate
            return (t0 - p / q - 1.0 / plane.rates[0],) if q and plane.rates[0] else ()
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
        if t == self.t0:
            return self.x0
        # Trajectory.value can read past [t0, t1], where an exp may overflow
        exp = self._exp if self.t0 < t <= self.t1 else _exp
        c1, c2 = self._c
        x1, x2, _, _ = self._at(t, c1, c2, exp)
        return x1, x2

    def values(self, ts) -> list[tuple[float, float]]:
        return [self.state_at(float(t)) for t in ts]

    def pieces(self, component: int):
        """Monotone pieces of one state component (1-based): ``(ts, xs,
        meet)``, where ``ts`` is ``(t0, *turns, t1)``, so the component is
        monotone between consecutive times, ``xs`` its values at ``ts``, and
        ``meet(xi, lo, hi)`` the time in a piece ``[lo, hi]`` whose end
        values straddle ``xi`` at which the component equals ``xi``."""
        # a turn within TIME_EPS of an end could only add a pulse narrower
        # than TIME_EPS
        k, after, before = component - 1, self.t0 + TIME_EPS, self.t1 - TIME_EPS
        turns = [t for t in self._turns(component) if after < t < before]

        def meet(xi: float, lo: float, hi: float) -> float:
            # component k minus xi, folded into its constant, and its slope
            at, (c1, c2), exp = self._at, self._c, self._exp
            c1, c2 = (c1 - xi, c2) if k == 0 else (c1, c2 - xi)

            def excess(t: float) -> tuple[float, float]:
                return at(t, c1, c2, exp)[k::2]  # (value, slope) of component k

            # where rounding leaves both ends on one side, the end nearer xi
            g_lo, g_hi = excess(lo)[0], excess(hi)[0]
            if (g_lo > 0.0) == (g_hi > 0.0):
                return lo if abs(g_lo) <= abs(g_hi) else hi
            return _newton(excess, lo, hi, g_lo, g_hi, self._start(component, xi, lo, hi), 1e-13)

        # the turns lie inside (t0, t1), where state_at reads _at with _exp
        xs = (self.x0[k], *[self._at(t, *self._c, self._exp)[k] for t in turns], self.x1[k])
        return (self.t0, *turns, self.t1), xs, meet

    def crossings(self, xi: float, component: int):
        """See ``_SegmentBase``: each of ``pieces`` whose end predicates
        differ crosses once, at the time its ``meet`` gives."""
        ts, xs, meet = self.pieces(component)
        found, start = [], xs[0] > xi
        last, lo = start, ts[0]
        for hi, x in zip(ts, xs):
            pred = x > xi
            if pred != last:
                found.append((meet(xi, lo, hi), pred))
            last, lo = pred, hi
        plateau = xs[0] == xi and xs.count(xi) == len(xs) and self.t1 > self.t0
        return start, last, found, plateau


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
        except OverflowError:  # read as inf
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
    """Adaptive-integrator solution on [t0, t1]: ``sol(t)`` is the state at
    a float time, as a sequence of floats."""

    __slots__ = ("t0", "t1", "_sol")

    def __init__(self, t0: float, t1: float, sol):
        if t1 < t0:
            raise ValueError(f"segment must run forward: [{t0}, {t1}]")
        self.t0 = float(t0)
        self.t1 = float(t1)
        self._sol = sol

    @property
    def dimension(self) -> int:
        return len(self._sol(self.t0))

    def values(self, ts) -> list[tuple[float, ...]]:
        return [tuple(map(float, self._sol(min(max(float(t), self.t0), self.t1)))) for t in ts]


Segment = AffineSegment | ScalarAffineSegment | RelaxationSegment


class Trajectory:
    """Continuous piecewise solution: consecutive segments tiling [t0, t1].
    Iterating it yields the segments in time order.

    ``value(t)`` is the state of the segment that holds ``t`` as a row
    tuple, ``values(ts)`` a list of such rows and ``breakpoints()`` the list
    of segment ends, ``t0`` first.
    """

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

    def breakpoints(self) -> list[float]:
        return [self.t0] + [s.t1 for s in self.segments]

    def value(self, t: float) -> tuple[float, ...]:
        idx = bisect.bisect_right(self._starts, t) - 1
        return self.segments[max(idx, 0)].value(t)

    def values(self, ts) -> list[tuple[float, ...]]:
        """The state at each of ``ts``, in their order: each time is read by
        the segment that holds it, the first one those before t0 and the last
        one those past the horizon."""
        return [self.value(t) for t in ts]


# -- solving -------------------------------------------------------------------

# unused; bench/spans.py wraps modes.solve_ivp by name
def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call."""
    from scipy.integrate import solve_ivp as integrate

    return integrate(*args, **kwargs)


def _require_states(mode: ModeFunction, n: int) -> None:
    states = 1 if isinstance(mode.kind, ScalarRelaxation) else len(mode.kind.b)
    if states != n:
        raise ValueError(f"mode {mode.id!r}: a {states}-state mode in a {n}-state space")


def _prove_invariant(mode: ModeFunction, space: StateSpace) -> None:
    """Refuse ``mode``, naming it and a face, unless it has the box's state
    count and no run of it leaves the box ``space.contains`` accepts: a
    relaxation's target lies in it, and an affine field, affine on a face,
    points out of no face at any corner (Nagumo's condition; a zero rate
    keeps a start inside), each rate exact as an integer over a power of 2."""
    _require_states(mode, space.dimension)
    kind, box = mode.kind, [(float(lo - BOX_SLACK), float(hi + BOX_SLACK)) for lo, hi in space.bounds]
    refusal = f"mode {mode.id!r}: the state space is not invariant:"
    if isinstance(kind, ScalarRelaxation):
        if space.contains((kind.target,)):
            return
        face = box[0][kind.target > box[0][1]]  # above hi, or else below lo; lo for a NaN
        raise ValueError(f"{refusal} its target {kind.target!r} lies beyond the face x1 = {face!r}")
    rows = [[*map(float.as_integer_ratio, (*row, c))] for row, c in zip(kind.a, kind.b)]
    for corner in itertools.product(*box):
        xs = [*map(float.as_integer_ratio, corner), (1, 1)]  # the 1 multiplies b_k
        for k, (row, bound, (lo, _)) in enumerate(zip(rows, corner, box), 1):
            terms = [(p * r, q * s) for (p, q), (r, s) in zip(row, xs)]
            den = max([q for _, q in terms])  # every q is a power of two
            num = sum([p * (den // q) for p, q in terms])
            if num < 0 if bound == lo else num > 0:
                why = f"at the corner {corner}, dx{k}/dt = {num / den!r} points out"
                raise ValueError(f"{refusal} {why} through the face x{k} = {bound!r}")


def solve_mode(
    mode: ModeFunction,
    x0,
    t0: float,
    t1: float,
    space: StateSpace,
) -> Segment:
    """Solve one mode from ``x0`` over ``[t0, t1]``; returns a segment.

    ``x0`` (a number, or a sequence of one number per state) becomes the
    one form a run carries and ``state_at`` returns: a float in a 1-state
    space, else a tuple of floats.  A relaxation solves to a
    :class:`RelaxationSegment`, an affine mode to a
    :class:`ScalarAffineSegment` in a 1-state space and to an
    :class:`AffineSegment` in a 2-state one.  It proves nothing: its gate
    proved the mode keeps ``space`` (:func:`_prove_invariant`).  Raises
    :class:`StateSpaceExit` for an ``x0`` outside the box, and ValueError
    for a mode or an ``x0`` whose state count is not the box's, or t1 < t0.
    """
    n, kind = len(space.bounds), mode.kind
    relaxation = isinstance(kind, ScalarRelaxation)
    if (1 if relaxation else len(kind.b)) != n:
        _require_states(mode, n)
    if not (n == 1 and isinstance(x0, float)):
        try:
            k = len(x0)
        except TypeError:  # a number that is not a float
            k, x0 = 1, (x0,)
        if k != n:
            raise ValueError(f"state dimension {k} != space dimension {n}")
        x0 = float(x0[0]) if n == 1 else tuple(map(float, x0))
    if not space.contains(x0):
        raise StateSpaceExit(t0, x0)

    if relaxation:
        return RelaxationSegment(t0, t1, x0, kind.target, kind.exponent)
    if n == 1:
        return ScalarAffineSegment(t0, t1, x0, *kind.line)
    return AffineSegment(t0, t1, x0, kind.a, kind.b, kind)


def matching_output_signal(
    family: Mapping[Hashable, ModeFunction],
    switching: ModeSwitchSignal,
    x0,
    space: StateSpace,
) -> Trajectory:
    """Trajectory that starts at ``x0``, is continuous, and follows the
    active mode's ODE on every inter-switch interval, pasted by the loop
    ``Execution.trajectory`` uses, each mode proven to keep ``space`` as a
    gate's are.  An interval of ``TIME_EPS`` or less after the first is skipped."""
    pieces = []
    for start, end, mode_id in switching.intervals():
        if mode_id not in family:
            raise KeyError(f"mode id {mode_id!r} not present in the mode family")
        if end - start > TIME_EPS or not pieces:
            pieces.append((start, end, family[mode_id]))
    for _, _, mode in pieces:  # no gate proved a family handed in here
        _prove_invariant(mode, space)
    return _paste(pieces, x0, space)


def _paste(pieces, x0, space: StateSpace) -> Trajectory:
    """Trajectory of ``(start, end, mode)`` pieces in time order.  Each
    piece starts from ``x0`` or from the state the previous segment reads at
    its end (``state_at``), as ``circuit.execute`` carries it, so a run's
    own mode entries paste to the states it solved, bit for bit."""
    segments: list[Segment] = []
    state = x0
    for start, end, mode in pieces:
        seg = solve_mode(mode, state, start, end, space)
        segments.append(seg)
        state = seg.state_at(end)
    return Trajectory(segments)


def _uniform(lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced floats from lo to hi: ``lo + i*step``, the last
    one ``hi`` itself; one is lo alone."""
    if n < 2:
        return [lo][:n]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _distances(x: Trajectory, y: Trajectory, ts: list[float]) -> list[float]:
    """The 2-norm of x - y at each of ``ts``, sqrt of the sum of squares."""
    return [
        math.sqrt(sum([(u - v) * (u - v) for u, v in zip(p, q)]))
        for p, q in zip(x.values(ts), y.values(ts))
    ]


def sup_distance(x: Trajectory, y: Trajectory, samples: int = 10_000) -> float:
    """Sampled sup-norm distance between two trajectories on a shared span.

    The grid is the sorted union of ``max(samples, 16)`` evenly spaced times
    (``lo + i*step``, the last one ``hi``), both trajectories' segment
    boundaries, and 512 evenly spaced times around the coarse maximum, so
    the reported value is a lower bound within the interpolation error.
    States are read as row tuples.
    """
    lo = max(x.t0, y.t0)
    hi = min(x.horizon, y.horizon)
    if hi - lo <= 0:
        raise ValueError("trajectories do not overlap in time")
    ends = [min(max(t, lo), hi) for t in x.breakpoints() + y.breakpoints()]
    grid = sorted({*_uniform(lo, hi, max(samples, 16)), *ends})
    diff = _distances(x, y, grid)
    best = max(range(len(grid)), key=diff.__getitem__)  # the first maximum
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    refined = max(_distances(x, y, _uniform(a, b, 512))) if b > a else diff[best]
    return max(diff[best], refined)


# -- CSV dump --------------------------------------------------------------------


def write_trajectory_csv(
    traj: Trajectory,
    path: str | Path,
    samples: int = 2001,
    metadata: dict | None = None,
) -> None:
    """Sample a trajectory on a uniform grid and dump it as CSV.

    The grid is ``samples`` times ``t0 + i*step``, the last one the horizon
    itself, and each row the state there, read as a row tuple.  Header
    comments carry the supplied metadata plus the segment boundary
    (mode-switch) times.
    """
    meta = [*(metadata or {}).items(), ("switch_times", repr(traj.breakpoints()[1:-1]))]
    header = "time," + ",".join(f"x{i + 1}" for i in range(traj.dimension))
    ts = _uniform(traj.t0, traj.horizon, samples)
    rows = [f"{t!r}," + ",".join(f"{float(v)!r}" for v in row) for t, row in zip(ts, traj.values(ts))]
    _write_csv(path, meta, header, rows)
