"""Span tracing of hybridgates from outside, by wrapping public functions.

Wrappers go on the module attributes where callers look names up: circuit.py
does ``from .modes import solve_mode``, so its calls go through
``hybridgates.circuit.solve_mode`` and the wrapper must sit there.  Each
span records its name, start, end, parent span and request id in flat
arrays; spans stay in memory and are written when the run ends.  A span's
self time is its duration minus the durations of its children, which never
overlap because spans nest like calls.
"""

from __future__ import annotations

import dataclasses
import functools
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("circuit", "gates", "modes", "threshold", "signals", "cli")

# Request ids: each timed call gets its own, counting from 0; these two mark
# spans of the traced build and spans outside any timed window.
BUILD, OUTSIDE = -2, -1


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith((".share", "_frac")):
        return "ratio"
    if metric.endswith("_us_per_iteration"):
        return "us"
    if metric.endswith((".s", "_s")) or ".s." in metric or ".self_s." in metric:
        return "s"
    return "count"

# aux values of a choice span
CHOICE_INITIAL, CHOICE_NOOP, CHOICE_SWITCH = 0, 1, 2


class Tracer:
    """Flat in-memory span store plus the stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.aux = array("q")
        self.aux2 = array("q")
        self.stack: list[int] = []
        self.current_request = OUTSIDE

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, aux=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``aux(args, result)`` returns up to two integers kept
        with the span.
        """
        fixed = self.name_id(name) if isinstance(name, str) else None
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.t1)
            tr.name.append(fixed if fixed is not None else tr.name_id(name(args)))
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.request.append(tr.current_request)
            tr.aux.append(0)
            tr.aux2.append(0)
            tr.t1.append(0.0)
            tr.stack.append(idx)
            tr.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.t1[idx] = perf_counter()
                tr.stack.pop()
            if aux is not None:
                a, b = aux(args, result)
                tr.aux[idx] = a
                tr.aux2[idx] = b
            return result

        return wrapper

    def wrap_choice(self, gate):
        """Gate copy whose choice is traced and classified as a no-op or not."""
        last = [None]

        def classify(args, mode):
            prev_bits = args[1]
            kind = CHOICE_INITIAL if prev_bits is None else (CHOICE_NOOP if mode is last[0] else CHOICE_SWITCH)
            last[0] = mode
            return kind, 0

        return dataclasses.replace(gate, choice=self.wrap(gate.choice, "gates.choice", aux=classify))

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "t0": np.frombuffer(self.t0, dtype=np.float64),
            "t1": np.frombuffer(self.t1, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
            "aux2": np.frombuffer(self.aux2, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(t0, t1, parent) -> np.ndarray:
    """Each span's duration minus the total duration of its direct children."""
    dur = np.asarray(t1) - np.asarray(t0)
    parent = np.asarray(parent)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


def install(tracer: Tracer, hg):
    """Wrap the public functions of every layer; returns an undo function."""
    affine = hg.modes.AffineConstant

    def solve_mode_name(args) -> str:
        mode, x0 = args[0], args[1]
        if not isinstance(mode.kind, affine):
            return "modes.solve_mode.numeric"
        return "modes.solve_mode.affine1" if np.size(x0) == 1 else "modes.solve_mode.affine_n"

    count_result = lambda _args, res: (len(res), 0)  # noqa: E731
    points = lambda args, _res: (np.size(args[1]), 0)  # noqa: E731
    ivp = lambda _args, sol: (sol.nfev, len(sol.t))  # noqa: E731
    circuit, gates, modes = hg.circuit, hg.gates, hg.modes
    targets = [
        (circuit, "execute", "circuit.execute", None),
        (circuit, "validate", "circuit.validate", None),
        (circuit, "solve_mode", solve_mode_name, None),
        (circuit, "find_crossings", "threshold.find_crossings", count_result),
        (modes, "solve_mode", solve_mode_name, None),
        (modes, "solve_ivp", "modes.solve_ivp", ivp),
        (gates, "gate_output", "gates.gate_output", None),
        (gates, "mis_delay_sweep", "gates.mis_delay_sweep", None),
        (gates, "matching_output_signal", "modes.matching_output_signal", None),
        (gates, "digitize", "threshold.digitize", None),
        (hg.threshold, "find_crossings", "threshold.find_crossings", count_result),
        (hg.signals, "one_norm_distance", "signals.one_norm_distance", None),
        (hg.cli, "load_circuit", "cli.load_circuit", None),
        (modes.AffineSegment, "__init__", "modes.affine_segment.init", None),
        (modes.AffineSegment, "values", "modes.segment_eval", points),
        (modes.DenseSegment, "values", "modes.segment_eval", points),
        (hg.signals.BinarySignal, "__post_init__", "signals.binary_signal", None),
    ]
    undo = []
    for owner, attr, name, aux in targets:
        original = vars(owner)[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, aux))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(tracer: Tracer, rounds: int, wall_s: float, sim: dict) -> dict:
    """Per-layer metrics: times and counts per traced round, shares of wall.

    Requests 0.. are the timed calls, one id each; BUILD marks the traced
    build and OUTSIDE spans outside any timed window.  ``wall_s`` is the
    wall time of every traced window, build included, and ``sim`` holds the
    simulated counts of one round.
    """
    a = tracer.arrays()
    ids = a["name"].astype(np.int64)
    dur = a["t1"] - a["t0"]
    own = self_times(a["t0"], a["t1"], a["parent"])
    in_round = a["request"] >= 0
    has_parent = a["parent"] >= 0
    parent_id = np.where(has_parent, ids[np.maximum(a["parent"], 0)], -1) if len(ids) else ids

    def nid(name):
        return tracer._ids.get(name, -1)

    def sel(name, extra=None):
        m = in_round & (ids == nid(name))
        return m if extra is None else m & extra

    def per_round(x):
        return float(x) / rounds

    execute_parent = parent_id == nid("circuit.execute")
    m = {}
    exe = sel("circuit.execute")
    m["circuit.execute.self_s"] = per_round(own[exe].sum())
    m["circuit.execute.self_us_per_iteration"] = (
        1e6 * per_round(own[exe].sum()) / sim["iterations"] if sim["iterations"] else 0.0
    )
    m["circuit.validate.s"] = per_round(dur[sel("circuit.validate")].sum())
    crossings_in_execute = per_round(a["aux"][sel("threshold.find_crossings", execute_parent)].sum())
    m["circuit.useful_crossing_frac"] = (
        sim["execute_commits"] / crossings_in_execute if crossings_in_execute else 0.0
    )
    for key in ("events", "iterations", "commits"):
        m[f"circuit.{key}"] = sim[key]

    ch = sel("gates.choice")
    decisions = (a["aux"][ch] != CHOICE_INITIAL).sum()
    m["gates.choice.calls"] = per_round(ch.sum())
    m["gates.choice.s"] = per_round(dur[ch].sum())
    m["gates.noop_switch_frac"] = float((a["aux"][ch] == CHOICE_NOOP).sum() / decisions) if decisions else 0.0
    go = sel("gates.gate_output")
    m["gates.gate_output.calls"] = per_round(go.sum())
    m["gates.gate_output.s"] = per_round(dur[go].sum())

    for kind in ("affine1", "affine_n", "numeric"):
        sm = sel(f"modes.solve_mode.{kind}")
        m[f"modes.solve_mode.calls.{kind}"] = per_round(sm.sum())
        m[f"modes.solve_mode.self_s.{kind}"] = per_round(own[sm].sum())
    ivp = sel("modes.solve_ivp")
    m["modes.solve_ivp.calls"] = per_round(ivp.sum())
    m["modes.solve_ivp.steps"] = per_round(a["aux2"][ivp].sum())
    m["modes.solve_ivp.nfev"] = per_round(a["aux"][ivp].sum())
    m["modes.solve_ivp.s"] = per_round(dur[ivp].sum())
    ev = sel("modes.segment_eval")
    solve_ids = [nid(f"modes.solve_mode.{k}") for k in ("affine1", "affine_n", "numeric")]
    in_solve = np.isin(parent_id, solve_ids)
    in_cross = parent_id == nid("threshold.find_crossings")
    m["modes.segment_eval.calls"] = per_round(ev.sum())
    m["modes.segment_eval.points"] = per_round(a["aux"][ev].sum())
    m["modes.segment_eval.s"] = per_round(dur[ev].sum())
    m["modes.segment_eval.calls.in_solve"] = per_round((ev & in_solve).sum())
    m["modes.segment_eval.s.in_solve"] = per_round(dur[ev & in_solve].sum())
    m["modes.segment_eval.calls.in_crossing"] = per_round((ev & in_cross).sum())
    m["modes.segment_eval.s.in_crossing"] = per_round(dur[ev & in_cross].sum())
    m["modes.affine_segment.builds"] = per_round(sel("modes.affine_segment.init").sum())

    fc = sel("threshold.find_crossings")
    m["threshold.find_crossings.calls"] = per_round(fc.sum())
    m["threshold.find_crossings.s"] = per_round(dur[fc].sum())
    m["threshold.find_crossings.self_s"] = per_round(own[fc].sum())
    m["threshold.crossings"] = per_round(a["aux"][fc].sum())
    m["threshold.evals_per_call"] = float((ev & in_cross).sum() / fc.sum()) if fc.sum() else 0.0

    bs = sel("signals.binary_signal")
    m["signals.binary_signal.builds"] = per_round(bs.sum())
    m["signals.binary_signal.s"] = per_round(dur[bs].sum())
    m["signals.one_norm_distance.s"] = per_round(dur[sel("signals.one_norm_distance")].sum())
    m["cli.load_circuit.s"] = float(dur[(a["request"] == BUILD) & (ids == nid("cli.load_circuit"))].sum())

    layer_of = np.array([name.split(".", 1)[0] for name in tracer.names] or [""])[ids]
    covered = 0.0
    for layer in LAYERS:
        layer_self = float(own[(layer_of == layer) & (a["request"] != OUTSIDE)].sum())
        covered += layer_self
        m[f"{layer}.share"] = layer_self / wall_s
    m["trace.wall_s"] = wall_s
    m["trace.uncovered_s"] = wall_s - covered
    return m
