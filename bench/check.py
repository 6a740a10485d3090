"""Output checks for the benchmark: comparator, closed forms, digests, counts.

Counts and transition values must match exactly; times must match within a
tolerance that grows with causal depth, ``step_tol * (1 + depth)``, because
each causal step can add one crossing-search error.  An exact hash of the
times would reject a correct change that moves a crossing by 1e-12, so the
exact digest covers only per-vertex counts and values.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from workloads import Outcome, point_label, ring_commit_times


def compare(expected: dict, actual: dict, step_tol: float) -> list[str]:
    """Mismatches between two signatures (name -> [(time, value, depth)])."""
    problems = []
    if sorted(expected) != sorted(actual):
        missing = sorted(set(expected) - set(actual))
        extra = sorted(set(actual) - set(expected))
        return [f"vertex sets differ: missing {missing[:5]}, extra {extra[:5]}"]
    for name in sorted(expected):
        exp, act = expected[name], actual[name]
        if len(exp) != len(act):
            problems.append(f"{name}: {len(act)} transitions, expected {len(exp)}")
            continue
        for k, ((te, ve, de), (ta, va, _da)) in enumerate(zip(exp, act)):
            tol = step_tol * (1 + de)
            if va != ve or not abs(ta - te) <= tol:
                problems.append(
                    f"{name}[{k}]: ({ta!r}, {va}) vs expected ({te!r}, {ve}), tolerance {tol:.1e}"
                )
                break
    return problems


def shape_digest(signature: dict) -> str:
    """Exact SHA-256 of per-vertex transition counts and values (not times)."""
    h = hashlib.sha256()
    for name in sorted(signature):
        values = "".join(str(v) for _t, v, _d in signature[name])
        h.update(f"{name}:{len(values)}:{values};".encode())
    return h.hexdigest()


def sim_stats(outcomes: list[Outcome]) -> dict:
    """Simulated statistics of one round; a speed-up must not move them."""
    depths = Counter(d for o in outcomes for d in o.depths)
    return {
        "events": sum(o.events for o in outcomes),
        "iterations": sum(o.iterations for o in outcomes),
        "commits": sum(o.commits for o in outcomes),
        "depth_histogram": {str(d): depths[d] for d in sorted(depths)},
    }


def round_signature(outcomes: list[Outcome]) -> dict:
    merged = {}
    for o in outcomes:
        merged.update(o.signature)
    return merged


def ring_expected(spec: dict) -> dict:
    """Closed-form transitions of every ring gate, with causal depths."""
    delays = [g["delays"][0] for g in spec["gates"]]
    n = len(delays)
    times = ring_commit_times(delays, (spec["expected_events"] + 1) // 2)
    out = {g["name"]: [] for g in spec["gates"]}
    for k, t in enumerate(times):
        g = spec["gates"][k % n]
        trs = out[g["name"]]
        trs.append((t, (1 - g["initial_output"] + len(trs)) % 2, k))
    return out


def seed_checks(spec: dict, outcomes: list[Outcome]) -> list[str]:
    """Checks that hold on any seed: closed forms, exact counts, monotony."""
    problems = []
    signature = round_signature(outcomes)
    expected_events = spec.get("expected_events")
    events = sum(o.events for o in outcomes)
    if expected_events is not None and events != expected_events:
        problems.append(f"{events} events, expected exactly {expected_events}")
    workload = spec["workload"]
    if workload == "ring":
        problems += compare(ring_expected(spec), signature, spec["step_tol"])
    elif workload in ("wide", "nor"):
        per_gate = len(spec["inputs"]["in0"][1])  # every gate follows every input edge
        for name, trs in signature.items():
            if len(trs) != per_gate:
                problems.append(f"{name}: {len(trs)} transitions, expected {per_gate}")
                break
    elif workload == "sweep":
        problems += _sweep_checks(spec, signature)
    return problems


def _sweep_checks(spec: dict, signature: dict) -> list[str]:
    problems = []
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for i, (kind, param) in enumerate(spec["points"]):
        label = point_label(i, kind, param)
        value = signature[f"{label}:norm" if kind == "spf" else label][0][0]
        by_kind.setdefault(kind, []).append((param, value))
    adv = [d for _g, d in sorted(by_kind["mis_advanced"])]
    if any(b > a for a, b in zip(adv, adv[1:])):
        problems.append(f"history-aware NOR delay is not monotone in the gap: {adv}")
    if (max(adv) - min(adv)) / max(adv) <= 0.05:
        problems.append(f"history-aware NOR delay spread is 5% or less: {adv}")
    simple = [d for _g, d in by_kind["mis_simple"]]
    if (max(simple) - min(simple)) / max(simple) >= 0.01:
        problems.append(f"memoryless NOR delay is not flat: {simple}")
    norms = [n for _w, n in sorted(by_kind["spf"])]
    if any(b < a for a, b in zip(norms, norms[1:])):
        problems.append(f"storage-loop output norm is not monotone in the pulse width: {norms}")
    return problems


def reference_entry(spec: dict, outcomes: list[Outcome]) -> dict:
    signature = round_signature(outcomes)
    return {
        "seed": spec["seed"],
        "stats": sim_stats(outcomes),
        "shape_digest": shape_digest(signature),
        "signature": {k: [list(t) for t in v] for k, v in signature.items()},
    }


def reference_checks(spec: dict, outcomes: list[Outcome], reference: dict) -> list[str]:
    """Compare one default-seed round against the stored reference."""
    if reference["seed"] != spec["seed"]:
        return [f"reference is for seed {reference['seed']}, run used {spec['seed']}"]
    signature = round_signature(outcomes)
    problems = []
    stats = sim_stats(outcomes)
    if stats != reference["stats"]:
        problems.append(f"simulated statistics {stats} differ from the reference {reference['stats']}")
    if shape_digest(signature) != reference["shape_digest"]:
        problems.append("per-vertex transition counts or values differ from the reference")
    expected = {k: [tuple(t) for t in v] for k, v in reference["signature"].items()}
    problems += compare(expected, signature, spec["step_tol"])
    return problems
