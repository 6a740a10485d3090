"""Acceptance suite: one verdict line per criterion, then the assertion.

Run with ``pytest -v tests/test_acceptance.py -s`` to see every verdict line;
on failure the line is shown in the captured output either way.  Oracles are
hand-derived closed forms frozen into this file, never the code under test.
"""

import math
import random
import time

import numpy as np
import pytest

from hybridgates.circuit import (
    Circuit,
    InputPort,
    OutputPort,
    bisect_pulse_norm,
    check_simulation_equivalence,
    check_spf,
    execute,
    reach_times,
    unroll,
)
from hybridgates.gates import (
    make_advanced_nor,
    make_boolean_gate,
    make_heater_plant,
    make_idm_channel,
    make_simple_nor,
    measure_idm_delays,
    mis_delay_sweep,
)
from hybridgates.modes import (
    StateSpace,
    Trajectory,
    affine_mode,
    matching_output_signal,
    solve_mode,
    sup_distance,
)
from hybridgates.signals import (
    BinarySignal,
    ModeSwitchSignal,
    min_pulse_width,
    mode_distance,
    one_norm_distance,
)
from hybridgates.threshold import ThresholdSpec, digitize

from conftest import random_boolean_circuit


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'pass' if ok else 'FAIL'}: {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- 1: closed-form agreement of every affine gate mode ---------------------------

# Eigenvalues of both coupled NOR networks (trace -3, determinant 1).
_SQRT5 = math.sqrt(5.0)
_LAM_P = (-3.0 + _SQRT5) / 2.0
_LAM_M = (-3.0 - _SQRT5) / 2.0


def _nor_closed_form(bits, u0, w0, t):
    """Hand-solved trajectories of the four NOR networks at unit parameters."""
    ep, em = np.exp(_LAM_P * t), np.exp(_LAM_M * t)
    if bits == (1, 1):
        # u frozen, w discharges through both pull-downs
        return u0 * np.ones_like(t), w0 * np.exp(-2.0 * t)
    if bits == (1, 0):
        # coupled discharge; eigenvectors (1, 1 + lambda)
        cp = (w0 - u0 * (1.0 + _LAM_M)) / _SQRT5
        cm = u0 - cp
        return cp * ep + cm * em, cp * (1.0 + _LAM_P) * ep + cm * (1.0 + _LAM_M) * em
    if bits == (0, 1):
        # decoupled: internal node charges to the rail, output discharges
        return 1.0 + (u0 - 1.0) * np.exp(-t), w0 * np.exp(-t)
    # (0, 0): charge toward (1, 1); eigenvectors (1, 2 + lambda)
    cp = ((w0 - 1.0) - (u0 - 1.0) * (2.0 + _LAM_M)) / _SQRT5
    cm = (u0 - 1.0) - cp
    u = 1.0 + cp * ep + cm * em
    w = 1.0 + cp * (2.0 + _LAM_P) * ep + cm * (2.0 + _LAM_M) * em
    return u, w


def test_01_affine_modes_match_closed_forms():
    grid = np.linspace(0.0, 10.0, 501)
    worst = 0.0
    slowest = 0.0
    checked = 0

    nor = make_simple_nor()
    for bits in ((1, 1), (1, 0), (0, 1), (0, 0)):
        mode = nor.choice(bits, bits, None)
        for x0 in ((0.3, 0.9), (0.97, 0.04)):
            tic = time.perf_counter()
            traj = Trajectory([solve_mode(mode, x0, 0.0, 10.0, nor.state_space)])
            got = np.array(traj.values(grid))
            slowest = max(slowest, time.perf_counter() - tic)
            u, w = _nor_closed_form(bits, x0[0], x0[1], grid)
            exact = np.column_stack([u, w])
            rel = np.abs(got - exact) / np.maximum(np.abs(exact), 1e-12)
            worst = max(worst, float(rel.max()))
            checked += 1

    plant = make_heater_plant()
    for bit, oracle in ((1, lambda t, T0: 50.0 + (T0 - 50.0) * np.exp(-0.1 * t)),
                        (0, lambda t, T0: T0 * np.exp(-0.1 * t))):
        mode = plant.choice((bit,), (bit,), None)
        for T0 in (20.0, 3.0):
            tic = time.perf_counter()
            traj = Trajectory([solve_mode(mode, [T0], 0.0, 10.0, plant.state_space)])
            got = np.array(traj.values(grid))[:, 0]
            slowest = max(slowest, time.perf_counter() - tic)
            exact = oracle(grid, T0)
            rel = np.abs(got - exact) / np.maximum(np.abs(exact), 1e-12)
            worst = max(worst, float(rel.max()))
            checked += 1

    ok = worst <= 1e-8 and slowest < 1.0
    _report(
        "affine modes vs closed forms",
        ok,
        f"{checked} mode/state runs, worst relative error {worst:.2e}, "
        f"slowest solve {slowest * 1e3:.1f} ms",
    )


# -- 2: mode-switch continuity envelope --------------------------------------------


def test_02_mode_switch_continuity_bound():
    nor = make_simple_nor()
    family = {f"m{a}{b}": nor.choice((a, b), (a, b), None) for a in (0, 1) for b in (0, 1)}
    mode_ids = sorted(family)
    k_const = max(m.lipschitz_k for m in family.values())
    m_const = max(m.rhs_bound_m for m in family.values())
    box = nor.state_space
    horizon = 5.0
    rng = random.Random(8260502)

    def random_signal() -> ModeSwitchSignal:
        times = sorted(rng.uniform(0.0, horizon) for _ in range(rng.randint(0, 6)))
        return ModeSwitchSignal(
            rng.choice(mode_ids), tuple((t, rng.choice(mode_ids)) for t in times), horizon
        )

    violations = 0
    tic = time.perf_counter()
    for _ in range(500):
        a = random_signal()
        if a.switches and rng.random() < 0.6:
            # fine jitter of the same schedule probes the small-d_T regime
            scale = 10.0 ** rng.uniform(-5.0, -1.0)
            moved = sorted(
                (min(max(t + rng.uniform(-scale, scale), 0.0), horizon), m)
                for t, m in a.switches
            )
            b = ModeSwitchSignal(a.initial_mode, tuple(moved), horizon)
        else:
            b = random_signal()
        x0 = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        xa = matching_output_signal(family, a, x0, box)
        xb = matching_output_signal(family, b, x0, box)
        bound = 2.0 * m_const * math.exp(horizon * k_const) * mode_distance(a, b) + 1e-6
        if sup_distance(xa, xb, samples=1500) > bound:
            violations += 1
    elapsed = time.perf_counter() - tic

    ok = violations == 0 and elapsed < 30.0
    _report(
        "mode-switch continuity bound",
        ok,
        f"500 random pairs (K={k_const:.3f}, M={m_const:.3f}), "
        f"{violations} violations, {elapsed:.1f} s",
    )


# -- 3: threshold crossing continuity ----------------------------------------------


def test_03_threshold_crossing_continuity():
    box = StateSpace(((-2.0, 2.0),))
    spec = ThresholdSpec(0.5)
    base_mode = affine_mode("decay", [[-1.0]], [0.0], box)
    base = digitize(Trajectory([solve_mode(base_mode, [1.0], 0.0, 10.0, box)]), spec)

    slope_at_root = 0.5  # |d/dt e^-t| at the crossing t = ln 2
    deltas = [10.0 ** (-k) for k in range(1, 7)]
    dists = []
    bounded = True
    for delta in deltas:
        mode = affine_mode("decay-lifted", [[-1.0]], [delta], box)
        # x(t) = e^-t + delta: same decay rate, offset equilibrium
        traj = Trajectory([solve_mode(mode, [1.0 + delta], 0.0, 10.0, box)])
        dist = one_norm_distance(digitize(traj, spec), base)
        dists.append(dist)
        if not dist < 10.0 * delta / slope_at_root:
            bounded = False

    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    ok = bounded and monotone
    _report(
        "threshold continuity",
        ok,
        f"1-norm gaps {['%.2e' % d for d in dists]} vs bounds 20*delta, "
        f"monotone={monotone}",
    )


# -- 4: delay-map involution of the exponential channel -----------------------------


def test_04_delay_involution_roundtrip():
    grid = [2.0 * i / 49 for i in range(50)]
    worst = max(measure_idm_delays(t).roundtrip_error for t in grid)
    ok = worst <= 1e-6
    _report(
        "delay involution round trip",
        ok,
        f"50 separations in [0, 2], worst |(-delta_up(-delta_down(T))) - T| = {worst:.2e}",
    )


# -- 5 and 6: determinism and causal-depth bookkeeping -------------------------------


def _random_inputs(circuit: Circuit, rng: random.Random, horizon: float):
    ins = {}
    for name in circuit.input_ports():
        times = sorted(rng.uniform(0.2, horizon - 0.5) for _ in range(rng.randint(0, 4)))
        transitions, bit = [], 0
        for t in times:
            bit ^= 1
            transitions.append((t, bit))
        ins[name] = BinarySignal(0, tuple(transitions), horizon)
    return ins


@pytest.fixture(scope="module")
def permuted_runs():
    rng = random.Random(8260505)
    horizon = 8.0
    bundle = []
    for idx in range(20):
        circuit = random_boolean_circuit(rng, feedback=True)
        ins = _random_inputs(circuit, rng, horizon)
        runs = [
            execute(circuit, ins, horizon, _shuffle=random.Random(1000 * idx + j))
            for j in range(5)
        ]
        bundle.append(runs)
    return bundle


def test_05_execution_determinism_under_permutation(permuted_runs):
    mismatched = 0
    for runs in permuted_runs:
        first = runs[0]
        for other in runs[1:]:
            if other.records != first.records or other.signals != first.signals:
                mismatched += 1
    ok = mismatched == 0
    _report(
        "execution determinism",
        ok,
        f"20 feedback circuits x 5 permuted runs, {mismatched} diverging runs",
    )


def test_06_causal_depth_monotone_and_bounded(permuted_runs):
    sequences = 0
    bad_order = 0
    bad_bound = 0
    for runs in permuted_runs:
        for ex in runs:
            for records in ex.records.values():
                sequences += 1
                depths = [r.depth for r in records]
                if any(a > b for a, b in zip(depths, depths[1:])):
                    bad_order += 1
                if any(r.depth > r.iteration for r in records):
                    bad_bound += 1
    ok = bad_order == 0 and bad_bound == 0
    _report(
        "causal depth bookkeeping",
        ok,
        f"{sequences} per-vertex sequences: {bad_order} non-monotone, "
        f"{bad_bound} with depth above the iteration index",
    )


# -- 7: unrolling equivalence --------------------------------------------------------


def _feedback_example() -> Circuit:
    a = make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="A")
    b = make_boolean_gate("buf", (0.1,), initial_inputs=(0,), name="B")
    c = make_boolean_gate("or2", (0.1, 0.1), initial_inputs=(0, 0), name="C")
    return Circuit(
        {"I": InputPort(0), "A": a, "B": b, "C": c, "O": OutputPort()},
        [("I", "A", 0), ("B", "B", 0), ("B", "C", 0), ("A", "C", 1), ("C", "O", 0)],
    )


def test_07_unrolling_equivalence():
    example = _feedback_example()
    ins = {"I": BinarySignal(0, ((0.7, 1), (2.9, 0), (4.0, 1), (6.2, 0)), 8.0)}
    example_ok = all(
        check_simulation_equivalence(example, "O", k, ins, 8.0).ok for k in (1, 2, 3, 4)
    )
    # from k=2 on no copy hangs off a gate that ever switches, so every copy
    # is compared over the whole horizon
    original = execute(example, ins, 8.0)
    example_unreached = all(
        math.isinf(t)
        for k in (2, 3, 4)
        for t in reach_times(example, unroll(example, "O", k), original).values()
    )

    # Copies must reproduce the original until a switch of a gate cut at
    # level 0 can reach them; after that a cut gate can mask an input edge
    # the copy then answers, so nothing later is compared.
    rng = random.Random(8260507)
    faults = []
    compared = 0
    for idx in range(50):
        circuit = random_boolean_circuit(rng, feedback=True, allow_flight=False)
        ins = _random_inputs(circuit, rng, 9.0)
        for k in (1, 2, 3, 4):
            report = check_simulation_equivalence(circuit, "out", k, ins, 9.0)
            compared += report.reach_compared
            if not report.ok:
                faults.append((idx, k))

    ok = example_ok and example_unreached and not faults and compared > 0
    _report(
        "unrolling equivalence",
        ok,
        f"bundled example k=1..4 {'ok' if example_ok else 'mismatch'}, k=2..4 "
        f"{'never reached' if example_unreached else 'REACHED'}; random feedback circuits: "
        f"{len(faults)} of 200 (circuit, k) pairs mismatched before the reach time "
        f"{faults[:6]}{'...' if len(faults) > 6 else ''} over {compared} original transitions",
    )


# -- 8: filtration witnesses ---------------------------------------------------------


def test_08_short_pulse_filtration_witnesses():
    chan = Circuit(
        {"I": InputPort(0), "chan": make_idm_channel(), "O": OutputPort()},
        [("I", "chan", 0), ("chan", "O", 0)],
    )
    epsilon = 0.25
    width, norm = bisect_pulse_norm(chan, epsilon, 0.5, 1.2, horizon=12.0)
    hit = abs(norm - epsilon) <= 1e-6
    ex = execute(chan, {"I": BinarySignal.pulse(1.0, width, 12.0)}, 12.0)
    pulse = min_pulse_width(ex.signals["O"])
    short = pulse is not None and pulse <= epsilon + 1e-6

    keep = make_boolean_gate(
        "or2", (0.05, 0.05), tau_fast=0.02, initial_inputs=(0, 0), name="keep"
    )
    loop = Circuit(
        {"I": InputPort(0), "keep": keep, "O": OutputPort()},
        [("I", "keep", 0), ("keep", "keep", 1), ("keep", "O", 0)],
    )
    widths = [0.01 + 0.98 * i / 19 for i in range(20)]
    report = check_spf(loop, widths, horizon=30.0, epsilon=0.005, stabilization_bound=2.0)
    loop_ok = (
        report.no_generation
        and report.nontrivial
        and report.no_short_outputs
        and report.bounded_stabilization
    )

    ok = hit and short and loop_ok
    _report(
        "short-pulse filtration witnesses",
        ok,
        f"bisection width {width:.6f} gives norm {norm:.8f} (target {epsilon}) with "
        f"output pulse {pulse if pulse is None else round(pulse, 8)} <= {epsilon}; "
        f"storage loop conditions {'all pass' if loop_ok else report.violations}",
    )


# -- 9: thermostat band and period ----------------------------------------------------


def _thermostat() -> Circuit:
    plant_low = make_heater_plant(0.01, 19.0, initial_input=1, initial_state=20.0, name="plant_low")
    plant_high = make_heater_plant(0.01, 21.0, initial_input=1, initial_state=20.0, name="plant_high")
    inv = make_boolean_gate("not", (0.01,), initial_inputs=(1,), name="inv")
    nor_qb = make_boolean_gate("nor2", (0.01, 0.01), initial_inputs=(0, 1), name="nor_qb")
    nor_q = make_boolean_gate("nor2", (0.01, 0.01), initial_inputs=(0, 0), name="nor_q")
    return Circuit(
        {
            "plant_low": plant_low, "plant_high": plant_high,
            "inv": inv, "nor_qb": nor_qb, "nor_q": nor_q, "Q": OutputPort(),
        },
        [
            ("nor_q", "plant_low", 0), ("nor_q", "plant_high", 0),
            ("plant_low", "inv", 0), ("inv", "nor_qb", 0), ("nor_q", "nor_qb", 1),
            ("plant_high", "nor_q", 0), ("nor_qb", "nor_q", 1), ("nor_q", "Q", 0),
        ],
    )


def test_09_thermostat_band_and_period():
    horizon = 50.0
    ex = execute(_thermostat(), {}, horizon)
    temp = ex.trajectory("plant_high")

    breaks = temp.breakpoints()
    first_switch = float(breaks[1])
    grid = np.unique(np.concatenate([
        np.linspace(first_switch, horizon, 20001),
        np.clip(breaks, first_switch, horizon),
    ]))
    values = np.array(temp.values(grid))[:, 0]
    lo, hi = float(values.min()), float(values.max())
    band_ok = 19.0 - 0.1 <= lo and hi <= 21.0 + 0.1

    rises = [t.time for t in ex.signals["nor_q"].transitions if t.value == 1]
    gaps = [b - a for a, b in zip(rises, rises[1:])]
    measured = sum(gaps) / len(gaps)

    # loop-delay-corrected period around the bare two-branch formula
    base = 10.0 * math.log(31.0 / 29.0) + 10.0 * math.log(21.0 / 19.0)
    ell = 1e-5 * math.log(2.0)  # comparator lag of each boolean stage
    lag_off = 2 * 0.01 + ell
    lag_on = 4 * 0.01 + 3 * ell
    theta_peak = 50.0 - 29.0 * math.exp(-lag_off / 10.0)
    theta_valley = 19.0 * math.exp(-lag_on / 10.0)
    period = (
        10.0 * math.log((50.0 - theta_valley) / 29.0) + lag_off
        + 10.0 * math.log(theta_peak / 19.0) + lag_on
    )

    period_ok = len(gaps) >= 5 and abs(measured - period) / period <= 0.02
    ok = band_ok and period_ok
    _report(
        "thermostat band and period",
        ok,
        f"temperature in [{lo:.3f}, {hi:.3f}] after t={first_switch:.3f}; "
        f"measured period {measured:.4f} vs {period:.4f} "
        f"(bare two-branch value {base:.4f} plus loop delays), {len(gaps)} cycles",
    )


# -- 10: multi-input switching contrast ------------------------------------------------


def test_10_multi_input_switching_contrast():
    gaps = [5.0 * i / 10 for i in range(11)]  # R C = 1, so the range is [0, 5 RC]
    advanced = mis_delay_sweep(lambda: make_advanced_nor(initial_inputs=(1, 1)), gaps)
    simple = mis_delay_sweep(lambda: make_simple_nor(initial_inputs=(1, 1)), gaps)

    monotone = all(a >= b for a, b in zip(advanced, advanced[1:])) or all(
        a <= b for a, b in zip(advanced, advanced[1:])
    )
    adv_spread = (max(advanced) - min(advanced)) / max(advanced)
    simple_spread = (max(simple) - min(simple)) / max(simple)

    ok = monotone and adv_spread > 0.05 and simple_spread < 0.01
    _report(
        "multi-input switching contrast",
        ok,
        f"history-aware NOR: monotone={monotone}, spread {adv_spread:.2%}; "
        f"memoryless NOR spread {simple_spread:.4%}",
    )
