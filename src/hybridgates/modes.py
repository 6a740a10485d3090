"""Mode families, per-mode ODE solving, and pasted mode-switch trajectories.

Each mode of a hybrid gate is an ODE right-hand side together with declared
regularity constants: a Lipschitz bound K (in the state, uniform over time)
and a bound M on the norm of the vector field over the gate's state space.
Affine constant-coefficient modes and scalar relaxations (a state pulled
toward a fixed target at a time-varying rate, whose exponent is known in
closed form) are solved in closed form; only modes declared
``GeneralNumeric`` go through an adaptive Runge-Kutta integrator with
dense output.  scipy is imported only there and in the matrix-exponential
fallback of a matrix that is not diagonalizable, so importing this module
loads no scipy module.

A trajectory driven by a mode-switch signal is assembled by solving each
constant-mode interval from the previous endpoint, so it is continuous by
construction and follows the active mode's ODE between switches.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass, field, replace
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
    "FunctionSegment",
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
    """dx/dt = a x + b with constant coefficients; solved in closed form.

    For n >= 2 states the mode decomposes, once, the augmented matrix
    ``aug`` = [[a, b], [0, 0]] of the system for y = (x, 1): ``eig`` is
    (w, v, v^-1) when it is numerically diagonalizable (cond(v) < 1e10) and
    None otherwise, in which case segments take a matrix exponential of
    ``aug`` per evaluation time.  A scalar mode needs neither.
    """

    a: np.ndarray
    b: np.ndarray
    aug: np.ndarray | None = field(init=False, repr=False, compare=False)
    eig: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent affine shapes {a.shape} / {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        n = b.shape[0]
        aug = eig = None
        if n > 1:
            aug = np.zeros((n + 1, n + 1))
            aug[:n, :n] = a
            aug[:n, n] = b
            try:
                w, v = np.linalg.eig(aug)
                cond = np.linalg.cond(v)
                if np.isfinite(cond) and cond < 1e10:
                    eig = (w, v, np.linalg.inv(v))
            except np.linalg.LinAlgError:
                pass
        object.__setattr__(self, "aug", aug)
        object.__setattr__(self, "eig", eig)


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
        if self.lipschitz_k < 0 or self.rhs_bound_m < 0:
            raise ValueError("regularity bounds must be nonnegative")


def affine_mode(mode_id: str, a, b, space: StateSpace) -> ModeFunction:
    """Build an AffineConstant mode with K and M computed from the data.

    K is the spectral norm of ``a``.  ``|a x + b|`` is convex in ``x``, so its
    maximum over the box sits at a corner; M is the corner maximum.
    """
    kind = AffineConstant(a, b)
    a_mat, b_vec = kind.a, kind.b
    k = float(np.linalg.norm(a_mat, 2))
    m = max(
        float(np.linalg.norm(a_mat @ np.asarray(corner, dtype=float) + b_vec))
        for corner in space.corners()
    )
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
# inside it.  Endpoint states are exact in the sense that chaining segments
# reuses the evaluated endpoint, so junctions match to machine precision.
# Kinds with a closed form also cut each component into monotone ``pieces``,
# which containment and the crossing search read instead of sampling.


class _SegmentBase:
    """What every segment kind derives from ``t0``, ``t1`` and ``values``."""

    __slots__ = ()

    def value(self, t: float) -> np.ndarray:
        return self.values([t])[0]

    def state_at(self, t: float):
        """The state at ``t`` in the form ``solve_mode`` returns it: a float
        for the 1-state kinds that evaluate on floats, an array otherwise."""
        return self.value(t)

    def ends(self, ts, component: int) -> list[float]:
        """One state component (1-based) at the times ``ts``, as floats."""
        return self.values(ts)[:, component - 1].tolist()

    @property
    def end_state(self) -> np.ndarray:
        return self.value(self.t1)

    def with_end(self, t1: float):
        """The same solution cut at ``t1``: every slot is shared, so a
        closed form is not rebuilt."""
        if t1 < self.t0:
            raise ValueError(f"segment must run forward: [{self.t0}, {t1}]")
        seg = object.__new__(type(self))
        for name in type(self).__slots__:
            setattr(seg, name, getattr(self, name))
        seg.t1 = float(t1)
        return seg

    def sample_times(self, n: int) -> np.ndarray:
        return np.linspace(self.t0, self.t1, max(n, 2))

    def pieces(self, component: int):
        """Monotone pieces of one state component (1-based).

        A segment kind with a closed form returns ``(breaks, meet)``:
        ``breaks`` are the interior times where the component turns, so it
        is monotone between consecutive times of ``(t0, *breaks, t1)``, and
        ``meet(xi, lo, hi)`` is the time in such a piece ``[lo, hi]``, whose
        end values straddle ``xi``, at which the component equals ``xi``.
        None, as here, means the segment must be sampled.
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

    def ends(self, ts, component: int) -> list[float]:
        return [self.at(t) for t in ts]

    def values(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float)).tolist()
        return np.array([self.at(t) for t in ts]).reshape(-1, 1)

    def pieces(self, component: int):
        return (), self._meet


class AffineSegment(_SegmentBase):
    """Closed-form solution of dx/dt = a x + b for n >= 2 states from ``x0``
    at ``t0``; a scalar mode solves to a :class:`ScalarAffineSegment`.

    Evaluation uses the eigendecomposition of the augmented matrix
    [[a, b], [0, 0]] that the mode's :class:`AffineConstant` holds (``kind``;
    one is built from ``a`` and ``b`` when it is not given), falling back to
    a matrix exponential per evaluation time when that matrix is not
    numerically diagonalizable.  These forms round x(t0), so ``values``
    reads it as ``x0`` (times increase, so t0 comes first): a state that
    starts on the threshold digitizes like its initial bit.
    """

    __slots__ = ("t0", "t1", "x0", "a", "b", "_eig", "_aug")

    def __init__(self, t0: float, t1: float, x0, a, b, kind: AffineConstant | None = None):
        if t1 < t0:
            raise ValueError(f"segment must run forward: [{t0}, {t1}]")
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.x0 = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
        if self.x0.shape[0] == 1:
            raise ValueError("a 1-state affine segment is a ScalarAffineSegment")
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        self._eig = None
        if kind is None:
            kind = AffineConstant(self.a, self.b)
        self._aug = kind.aug
        if kind.eig is not None:
            w, v, vinv = kind.eig
            # eigenvalues, eigenvectors, and y0 = (x0, 1) in the eigenbasis
            self._eig = (w, v, vinv @ np.append(self.x0, 1.0))

    @property
    def dimension(self) -> int:
        return self.x0.shape[0]

    def values(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        dt = ts - self.t0
        n = self.dimension
        if self._eig is not None:
            w, v, coeff = self._eig
            # columns: one evaluation per time
            ys = v @ (coeff[:, None] * np.exp(np.outer(w, dt)))
            out = np.real(ys[:n, :]).T
            if dt[0] == 0.0:
                out[0] = self.x0
            return out
        from scipy.linalg import expm

        out = np.empty((len(ts), n))
        y0 = np.append(self.x0, 1.0)
        for i, d in enumerate(dt):
            out[i] = (expm(self._aug * d) @ y0)[:n]
        return out

    def exponential_terms(
        self, component: int
    ) -> tuple[float, tuple[tuple[float, float], ...]] | None:
        """One state component as ``c0 + sum of c_j exp(lam_j (t - t0))``.

        Returns ``(c0, ((c_j, lam_j), ...))`` with distinct nonzero exponents
        and nonzero coefficients: a zero eigenvalue joins ``c0`` and equal
        eigenvalues merge.  None when the segment has no real
        eigendecomposition (a complex spectrum, or a matrix that is not
        numerically diagonalizable).  ``component`` is 1-based.
        """
        if self._eig is None or np.iscomplexobj(self._eig[0]):
            return None
        w, v, coeff = self._eig
        c0 = 0.0
        merged: dict[float, float] = {}
        for lam, c in zip(w.tolist(), (v[component - 1] * coeff).tolist()):
            if lam == 0.0:
                c0 += c
            else:
                merged[lam] = merged.get(lam, 0.0) + c
        return c0, tuple((c, lam) for lam, c in merged.items() if c != 0.0)

    def pieces(self, component: int):
        """Monotone pieces of one state component; see ``_SegmentBase.pieces``.

        A 2-state segment with a real spectrum has ``x_k(t) = c0 + c1
        e^{lam1 (t - t0)} + c2 e^{lam2 (t - t0)}`` (see
        :meth:`exponential_terms`), whose derivative vanishes at most once,
        at ``t0 + ln(-c1 lam1/(c2 lam2))/(lam2 - lam1)``; it is split there,
        and a bracketed Brent root (:func:`_brent`) finds each piece's
        meeting time to 1e-13.  Three or more states, and spectra that are
        complex or not diagonalizable, are sampled (None).
        """
        if self.x0.shape[0] != 2:
            return None
        form = self.exponential_terms(component)
        if form is None or len(form[1]) > 2:
            return None
        c0, terms = form
        t0 = self.t0
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
                if t0 + TIME_EPS < t_star < self.t1 - TIME_EPS:
                    breaks = (t_star,)
        (c1, l1), (c2, l2) = (*terms, (0.0, 0.0), (0.0, 0.0))[:2]
        exp = math.exp

        def meet(xi: float, lo: float, hi: float) -> float:
            c = c0 - xi

            def excess(t: float) -> float:
                s = t - t0
                return c + c1 * exp(l1 * s) + c2 * exp(l2 * s)

            # where rounding leaves both ends on one side, the end nearer xi
            g_lo, g_hi = excess(lo), excess(hi)
            if (g_lo > 0.0) == (g_hi > 0.0):
                return lo if abs(g_lo) <= abs(g_hi) else hi
            return _brent(excess, lo, hi, 1e-13)

        return breaks, meet


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

    __slots__ = ("t0", "t1", "_sol", "_steps", "_end")

    def __init__(self, t0: float, t1: float, sol, steps, end_state=None):
        self.t0 = float(t0)
        self.t1 = float(t1)
        self._sol = sol
        self._steps = np.asarray(steps, dtype=float)
        if end_state is None:
            end_state = sol(t1)
        self._end = np.atleast_1d(np.asarray(end_state, dtype=float))

    @property
    def dimension(self) -> int:
        return self._end.shape[0]

    def values(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        ts = np.clip(ts, self.t0, self.t1)
        out = self._sol(ts)
        return np.atleast_2d(out).T if out.ndim == 1 else out.T

    @property
    def end_state(self) -> np.ndarray:
        return self._end

    def with_end(self, t1: float) -> "DenseSegment":
        return DenseSegment(self.t0, t1, self._sol, self._steps, end_state=self._sol(t1))

    def sample_times(self, n: int) -> np.ndarray:
        inside = self._steps[(self._steps >= self.t0) & (self._steps <= self.t1)]
        uniform = np.linspace(self.t0, self.t1, max(n, 2))
        return np.unique(np.concatenate([inside, uniform]))


class FunctionSegment(_SegmentBase):
    """A known analytic state function on [t0, t1] (used in experiments)."""

    __slots__ = ("t0", "t1", "fn", "_dim")

    def __init__(self, t0: float, t1: float, fn: Callable[[np.ndarray], np.ndarray]):
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.fn = fn
        probe = np.atleast_2d(np.asarray(fn(np.asarray([t0]))))
        self._dim = probe.shape[1] if probe.shape[0] == 1 else probe.shape[0]

    @property
    def dimension(self) -> int:
        return self._dim

    def values(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.asarray(self.fn(ts), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        return out


Segment = AffineSegment | ScalarAffineSegment | RelaxationSegment | DenseSegment | FunctionSegment


class Trajectory:
    """Continuous piecewise solution: consecutive segments tiling [t0, t1]."""

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

    @property
    def t0(self) -> float:
        return self.segments[0].t0

    @property
    def horizon(self) -> float:
        return self.segments[-1].t1

    @property
    def dimension(self) -> int:
        return self.segments[0].dimension

    @property
    def end_state(self) -> np.ndarray:
        return self.segments[-1].end_state

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

    def max_junction_mismatch(self) -> float:
        worst = 0.0
        for prev, cur in zip(self.segments, self.segments[1:]):
            gap = float(np.max(np.abs(prev.end_state - cur.value(cur.t0))))
            worst = max(worst, gap)
        return worst


# -- solving -------------------------------------------------------------------

def _containment_scan(segment: Segment, space: StateSpace) -> None:
    # A component that is monotone between its piece ends is inside when
    # they are.  Other segments, and every exit, are sampled.
    for k, (lo, hi) in enumerate(space.bounds, 1):
        form = segment.pieces(k)
        if form is None:
            break
        ends = segment.ends((segment.t0, *form[0], segment.t1), k)
        if not (lo - 1e-12 < min(ends) and max(ends) < hi + 1e-12):
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


# RK45 tolerances of a GeneralNumeric mode, the only kind solved numerically
_RK45_RTOL, _RK45_ATOL = 1e-9, 1e-12


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    Only ``GeneralNumeric`` modes integrate numerically, and
    ``scipy.integrate`` would take most of the package's import time.
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
    gives the float that the next entry takes.  Raises
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
    if isinstance(kind, AffineConstant):
        if n == 1:
            seg: Segment = ScalarAffineSegment(t0, t1, x0, kind.a.item(), kind.b.item())
        else:
            seg = AffineSegment(t0, t1, x0, kind.a, kind.b, kind)
    elif isinstance(kind, ScalarRelaxation):
        seg = RelaxationSegment(t0, t1, x0, kind.target, kind.exponent)
    else:
        if t1 - t0 <= TIME_EPS:
            # Degenerate span: represent as a constant closed-form stub.
            if n == 1:
                seg = ScalarAffineSegment(t0, t1, x0, 0.0, 0.0)
            else:
                seg = AffineSegment(t0, t1, x0, np.zeros((n, n)), np.zeros(n))
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
            seg = DenseSegment(t0, t1, sol.sol, sol.t, end_state=sol.y[:, -1])
    _containment_scan(seg, space)
    return seg


def matching_output_signal(
    family: Mapping[Hashable, ModeFunction],
    switching: ModeSwitchSignal,
    x0,
    space: StateSpace,
) -> Trajectory:
    """Trajectory that starts at ``x0``, is continuous, and follows the
    active mode's ODE on every inter-switch interval."""
    segments: list[Segment] = []
    state = np.atleast_1d(np.asarray(x0, dtype=float))
    for start, end, mode_id in switching.intervals():
        if mode_id not in family:
            raise KeyError(f"mode id {mode_id!r} not present in the mode family")
        if end - start <= TIME_EPS and segments:
            continue
        seg = solve_mode(family[mode_id], state, start, end, space)
        segments.append(seg)
        state = seg.end_state
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
