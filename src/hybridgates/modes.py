"""Mode families, per-mode ODE solving, and pasted mode-switch trajectories.

Each mode of a hybrid gate is an ODE right-hand side together with declared
regularity constants: a Lipschitz bound K (in the state, uniform over time)
and a bound M on the norm of the vector field over the gate's state space.
Affine constant-coefficient modes are solved in closed form; everything else
goes through an adaptive Runge-Kutta integrator with dense output.

A trajectory driven by a mode-switch signal is assembled by solving each
constant-mode interval from the previous endpoint, so it is continuous by
construction and follows the active mode's ODE between switches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .signals import TIME_EPS, ModeSwitchSignal

__all__ = [
    "StateSpace",
    "AffineConstant",
    "AffineTimeVarying",
    "GeneralNumeric",
    "ModeFunction",
    "affine_mode",
    "SolverConfig",
    "DEFAULT_CONFIG",
    "AffineSegment",
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
        self.state = np.asarray(state)
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
        x = np.asarray(x, dtype=float)
        for value, (lo, hi) in zip(x, self.bounds):
            if not (lo - slack < value < hi + slack):
                return False
        return True

    def corners(self):
        return itertools.product(*self.bounds)


# -- mode kinds --------------------------------------------------------------


@dataclass(frozen=True)
class AffineConstant:
    """dx/dt = a x + b with constant coefficients; solved in closed form."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent affine shapes {a.shape} / {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class AffineTimeVarying:
    """dx/dt = a(t) x + b(t); affine in the state, integrated numerically."""

    a: Callable[[float], np.ndarray]
    b: Callable[[float], np.ndarray]


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
    kind: AffineConstant | AffineTimeVarying | GeneralNumeric
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


@dataclass(frozen=True)
class SolverConfig:
    """Integrator and sampling tolerances shared across the package."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = math.inf
    probe_points: int = 64  # per-segment sampling of analytic segments
    seed: int | None = None

    def as_metadata(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "max_step": self.max_step,
            "seed": self.seed,
        }


DEFAULT_CONFIG = SolverConfig()


# -- trajectory segments -------------------------------------------------------

# Each segment covers [t0, t1] and can evaluate the state at arbitrary times
# inside it.  Endpoint states are exact in the sense that chaining segments
# reuses the evaluated endpoint, so junctions match to machine precision.


class AffineSegment:
    """Closed-form solution of dx/dt = a x + b from ``x0`` at ``t0``.

    Evaluation uses the eigendecomposition of the augmented matrix
    [[a, b], [0, 0]] when it is numerically diagonalizable, falling back to
    a matrix exponential per evaluation time otherwise.  Scalar modes take a
    direct exponential path.  These forms round x(t0), so ``values`` reads
    it as ``x0`` (times increase, so t0 comes first): a state that starts on
    the threshold digitizes like its initial bit.
    """

    __slots__ = ("t0", "t1", "x0", "a", "b", "_scalar", "_eig", "_aug")

    def __init__(self, t0: float, t1: float, x0, a, b):
        if t1 < t0:
            raise ValueError(f"segment must run forward: [{t0}, {t1}]")
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.x0 = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        n = self.x0.shape[0]
        self._scalar = None
        self._eig = None
        self._aug = None
        if n == 1:
            self._scalar = (float(self.a[0, 0]), float(self.b[0]), float(self.x0[0]))
            return
        # augmented system y = (x, 1), dy = aug y
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = self.a
        aug[:n, n] = self.b
        self._aug = aug
        try:
            w, v = np.linalg.eig(aug)
            cond = np.linalg.cond(v)
            if np.isfinite(cond) and cond < 1e10:
                vinv = np.linalg.inv(v)
                self._eig = (w, v, vinv)
        except np.linalg.LinAlgError:
            pass

    @property
    def dimension(self) -> int:
        return self.x0.shape[0]

    def values(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        dt = ts - self.t0
        if self._scalar is not None:
            a, b, x0 = self._scalar
            if a == 0.0:
                out = x0 + b * dt
            else:
                x_inf = -b / a
                out = x_inf + (x0 - x_inf) * np.exp(a * dt)
                if dt[0] == 0.0:
                    out[0] = x0
            return out[:, None]
        n = self.dimension
        if self._eig is not None:
            w, v, vinv = self._eig
            y0 = np.append(self.x0, 1.0)
            coeff = vinv @ y0
            # columns: one evaluation per time
            ys = v @ (coeff[:, None] * np.exp(np.outer(w, dt)))
            out = np.real(ys[:n, :]).T
            if dt[0] == 0.0:
                out[0] = self.x0
            return out
        out = np.empty((len(ts), n))
        y0 = np.append(self.x0, 1.0)
        for i, d in enumerate(dt):
            out[i] = (expm(self._aug * d) @ y0)[:n]
        return out

    def value(self, t: float) -> np.ndarray:
        return self.values([t])[0]

    @property
    def end_state(self) -> np.ndarray:
        return self.value(self.t1)

    def with_end(self, t1: float) -> "AffineSegment":
        # Same start and matrix: share the decomposition instead of redoing it.
        if t1 < self.t0:
            raise ValueError(f"segment must run forward: [{self.t0}, {t1}]")
        seg = AffineSegment.__new__(AffineSegment)
        for name in AffineSegment.__slots__:
            setattr(seg, name, getattr(self, name))
        seg.t1 = float(t1)
        return seg

    def sample_times(self, n: int) -> np.ndarray:
        return np.linspace(self.t0, self.t1, max(n, 2))


class DenseSegment:
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

    def value(self, t: float) -> np.ndarray:
        return self.values([t])[0]

    @property
    def end_state(self) -> np.ndarray:
        return self._end

    def with_end(self, t1: float) -> "DenseSegment":
        return DenseSegment(self.t0, t1, self._sol, self._steps, end_state=self._sol(t1))

    def sample_times(self, n: int) -> np.ndarray:
        inside = self._steps[(self._steps >= self.t0) & (self._steps <= self.t1)]
        uniform = np.linspace(self.t0, self.t1, max(n, 2))
        return np.unique(np.concatenate([inside, uniform]))


class FunctionSegment:
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

    def value(self, t: float) -> np.ndarray:
        return self.values([t])[0]

    @property
    def end_state(self) -> np.ndarray:
        return self.value(self.t1)

    def with_end(self, t1: float) -> "FunctionSegment":
        return FunctionSegment(self.t0, t1, self.fn)

    def sample_times(self, n: int) -> np.ndarray:
        return np.linspace(self.t0, self.t1, max(n, 2))


Segment = AffineSegment | DenseSegment | FunctionSegment


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
        self._starts = np.asarray([s.t0 for s in segments])

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
        idx = int(np.searchsorted(self._starts, t, side="right")) - 1
        idx = min(max(idx, 0), len(self.segments) - 1)
        return self.segments[idx].value(t)

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

    def component_values(self, ts, component: int) -> np.ndarray:
        """Values of one state component; ``component`` is 1-based."""
        return self.values(ts)[:, component - 1]

    def max_junction_mismatch(self) -> float:
        worst = 0.0
        for prev, cur in zip(self.segments, self.segments[1:]):
            gap = float(np.max(np.abs(prev.end_state - cur.value(cur.t0))))
            worst = max(worst, gap)
        return worst


# -- solving -------------------------------------------------------------------


def _containment_scan(segment: Segment, space: StateSpace) -> None:
    # Monotone scalar affine segment: ends inside means inside; others and exits are sampled.
    if isinstance(segment, AffineSegment) and segment.dimension == 1:
        ((lo, hi),) = space.bounds
        x_start, x_end = segment.values([segment.t0, segment.t1])[:, 0]
        if lo - 1e-12 < min(x_start, x_end) and max(x_start, x_end) < hi + 1e-12:
            return
    ts = segment.sample_times(64)
    vals = segment.values(ts)
    for i, (lo, hi) in enumerate(space.bounds):
        bad = (vals[:, i] <= lo - 1e-12) | (vals[:, i] >= hi + 1e-12)
        if bad.any():
            j = int(np.argmax(bad))
            raise StateSpaceExit(float(ts[j]), vals[j])


def solve_mode(
    mode: ModeFunction,
    x0,
    t0: float,
    t1: float,
    space: StateSpace,
    config: SolverConfig = DEFAULT_CONFIG,
) -> Segment:
    """Solve one mode from ``x0`` over ``[t0, t1]``; returns a segment.

    Raises :class:`StateSpaceExit` if the solution leaves the open box and
    :class:`IntegrationError` if the numeric integrator fails.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape[0] != space.dimension:
        raise ValueError(f"state dimension {x0.shape[0]} != space dimension {space.dimension}")
    if not space.contains(x0):
        raise StateSpaceExit(t0, x0)
    if t1 < t0:
        raise ValueError(f"segment must run forward: [{t0}, {t1}]")

    if isinstance(mode.kind, AffineConstant):
        seg: Segment = AffineSegment(t0, t1, x0, mode.kind.a, mode.kind.b)
    else:
        if t1 - t0 <= TIME_EPS:
            # Degenerate span: represent as a constant closed-form stub.
            seg = AffineSegment(t0, t1, x0, np.zeros((len(x0), len(x0))), np.zeros(len(x0)))
        else:
            sol = solve_ivp(
                mode.rhs,
                (t0, t1),
                x0,
                method="RK45",
                rtol=config.rel_tol,
                atol=config.abs_tol,
                max_step=config.max_step,
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
    config: SolverConfig = DEFAULT_CONFIG,
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
        seg = solve_mode(family[mode_id], state, start, end, space, config)
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
