"""Benchmark of the hybridgates simulator: host time, memory and correctness.

    python3 bench/run.py --workload ring --seed 1 --seconds 20 --trace 0

Runs one seeded workload (ring, wide, nor or sweep; see bench/README.md) in
this process, through the public API of the ``hybridgates`` package found
in ``src/`` next to this directory.  A run repeats whole rounds of requests
for ``--seconds`` of round time and checks every output.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it times the calls
into each module from outside and reports per-layer metrics.  The last line
of standard output is one JSON object; the lines before it repeat every
metric by name with its unit and sample count.
"""

from __future__ import annotations

import os

# One thread: BLAS and OpenMP pools must be pinned before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 9

END_TO_END_UNITS = {"us_per_event": "us", "point_ms_p50": "ms", "setup_s": "s", "peak_alloc_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ring", "wide", "nor", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the workload, then exit (timed by the parent for setup_s)")
    return p.parse_args(argv)


def import_program():
    """Import hybridgates from this checkout's src/, never from elsewhere."""
    if not (SRC / "hybridgates" / "__init__.py").is_file():
        sys.exit(f"bench: no hybridgates sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hybridgates
    import hybridgates.cli  # noqa: F401  (cli is not imported by the package)

    if Path(hybridgates.__file__).resolve().parent != (SRC / "hybridgates").resolve():
        sys.exit(f"bench: imported hybridgates from {hybridgates.__file__}, not {SRC}")
    return hybridgates


def cold_start(workload: str, seed: int) -> tuple[float, float]:
    """One cold set-up: interpreter start, imports, circuits and stimuli.

    It runs on the CPU ``speed.settle`` chose and ends when the child is
    ready, which it reports on perf_counter's clock (system-wide
    CLOCK_MONOTONIC on Linux), so interpreter teardown is left out.  Returns
    the raw time and the time scaled by the set-up probes around it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    speed.settle()
    before = speed.setup_probe()
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"bench: cold start failed:\n{proc.stderr}")
    raw = float(proc.stdout.split()[-1]) - t0
    (k,) = speed.scales([before, speed.setup_probe()], speed.SETUP_REFERENCE_S)
    return raw, raw * k


class Run:
    """Rounds of requests, their latencies, and every check on their outputs."""

    def __init__(self, spec, requests):
        self.spec = spec
        self.requests = requests
        self.latencies: list[float] = []  # raw host time of each call
        self.scaled_latencies: list[float] = []  # the same, at speed.REFERENCE_S
        self.round_walls: list[float] = []
        self.scaled_walls: list[float] = []
        self.round_events: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first = None  # outcomes of the first complete round

    def round(self, tracer=None, probed=True) -> bool:
        """Run every request once, timing each call on its own.

        The round runs on the CPU ``speed.settle`` chose.  A speed probe
        runs before each call and after the last one; each call's scaled
        time uses the probes on either side of it.  ``probed=False`` leaves
        the probes out (scaled times then equal raw ones), so that they do
        not count in a memory peak.  With a tracer, each call's spans carry
        the call's own request id.
        """
        outcomes, raw, probes, ok = [], [], [], True
        if probed:
            speed.settle()
        for req in self.requests:
            gc.collect()
            if probed:
                probes.append(speed.probe())
            if tracer is not None:
                tracer.current_request = self.attempted
            self.attempted += 1
            t0 = perf_counter()
            try:
                result = req.call()
            except Exception as exc:  # a failing call is counted, not fatal
                self.failed += 1
                self.problems.append(f"{req.label}: {type(exc).__name__}: {exc}")
                ok = False
                continue
            finally:
                dt = perf_counter() - t0
                if tracer is not None:
                    tracer.current_request = spans.OUTSIDE
            raw.append(dt)
            outcomes.append(req.observe(result))
        if not ok:
            return False
        if probed:
            probes.append(speed.probe())
        problems = self.check(outcomes)
        if problems:
            self.failed += len(self.requests)
            self.problems += problems
            return False
        scaled = [dt * k for dt, k in zip(raw, speed.scales(probes))] if probed else raw
        self.latencies += raw
        self.scaled_latencies += scaled
        self.round_walls.append(sum(raw))
        self.scaled_walls.append(sum(scaled))
        self.round_events.append(sum(o.events for o in outcomes))
        return True

    def check(self, outcomes) -> list[str]:
        if self.first is None:
            self.first = outcomes
            return check.seed_checks(self.spec, outcomes)
        problems = []
        if check.sim_stats(outcomes) != check.sim_stats(self.first):
            problems.append("simulated statistics changed between rounds")
        problems += check.compare(
            check.round_signature(self.first), check.round_signature(outcomes), self.spec["step_tol"]
        )
        return problems

    def until(self, seconds: float, tracer=None, between=None) -> None:
        """Whole rounds for ``seconds`` of round time; at least one.

        ``between(done)`` runs after each round but the last, with the share
        of ``seconds`` done; its time is not counted.
        """
        spent = 0.0
        while True:
            t0 = perf_counter()
            self.round(tracer)
            spent += perf_counter() - t0
            if spent >= seconds:
                return
            if between is not None:
                between(spent / seconds)

    @property
    def rounds(self) -> int:
        return len(self.round_walls)


def reference_round(workload: str, hg) -> tuple[Run, list[str]]:
    """Untimed default-seed round checked against the stored reference.

    It is also the run's warm-up call.
    """
    spec = workloads.generate(workload, workloads.DEFAULT_SEED)
    run = Run(spec, workloads.build(spec, hg))
    ok = run.round()
    problems = list(run.problems)
    if ok:
        ref = json.loads(REFERENCE.read_text())[workload]
        problems += check.reference_checks(spec, run.first, ref)
        if problems:
            run.failed += len(run.requests)
    return run, problems


def alloc_peak_mb(run: Run) -> float:
    """Peak of the memory allocated during one more, untimed round, in MB.

    tracemalloc counts only blocks allocated after it starts, so this is
    what one round holds at its worst: every gate's trajectory while its
    Execution lives, and the transient arrays of the solves.  It grows with
    events; the process's resident size barely does, being mostly the
    interpreter, numpy and scipy.  The round's outputs are checked too.
    """
    extra = Run(run.spec, run.requests)
    extra.first = run.first
    tracemalloc.start()
    try:
        extra.round(probed=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    run.attempted += extra.attempted
    run.failed += extra.failed
    run.problems += extra.problems
    return peak / 2**20


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, setup: list[tuple[float, float]], alloc_mb: float) -> dict:
    """The bounded metrics of BENCHMARK.json, each with a sample note.

    Times are scaled to the reference speed (see speed.py).  On ring, wide
    and nor a round is one call with a fixed event count, so point_ms_p50
    there is us_per_event times a constant: both bounds give the same
    verdict.
    """
    per_event = [w / e * 1e6 for w, e in zip(run.scaled_walls, run.round_events)]
    lat_ms = [x * 1e3 for x in run.scaled_latencies]
    return {
        "us_per_event": (statistics.median(per_event), f"median of {len(per_event)} rounds"),
        "point_ms_p50": (percentile(lat_ms, 50), f"{len(lat_ms)} points"),
        "setup_s": (statistics.median(s for _, s in setup), f"median of {len(setup)} cold starts"),
        "peak_alloc_mb": (alloc_mb, "1 round under tracemalloc"),
    }


def raw_times(run: Run) -> str:
    """The unscaled medians, printed next to the scaled metrics."""
    per_event = [w / e * 1e6 for w, e in zip(run.round_walls, run.round_events)]
    return (f"unscaled: us_per_event = {statistics.median(per_event):.6g} us, "
            f"point_ms_p50 = {percentile([x * 1e3 for x in run.latencies], 50):.6g} ms; host speed "
            f"{statistics.median(run.latencies) / statistics.median(run.scaled_latencies):.3f}"
            f"x slower than the reference")


def traced(workload: str, spec: dict, hg, seconds: float, run: Run) -> dict:
    """Per-layer metrics from a traced run, after an untraced calibration."""
    t_start = perf_counter()
    run.until(0.25 * seconds)
    # The overhead compares scaled round times, so that a change of speed
    # phase between the two parts does not read as tracing cost.
    untraced_round = statistics.median(run.scaled_walls)

    tracer = spans.Tracer()
    uninstall = spans.install(tracer, hg)
    try:
        tracer.current_request = spans.BUILD
        t0 = perf_counter()
        traced_run = Run(spec, workloads.build(spec, hg, wrap_gate=tracer.wrap_choice))
        build_wall = perf_counter() - t0
        tracer.current_request = spans.OUTSIDE
        traced_run.until(t_start + seconds - perf_counter(), tracer)
    finally:
        uninstall()
    run.attempted += traced_run.attempted
    run.failed += traced_run.failed
    run.problems += traced_run.problems
    if not traced_run.rounds:
        return {}

    sim = check.sim_stats(traced_run.first)
    sim["execute_commits"] = sum(o.commits for o in traced_run.first if o.iterations)
    wall = build_wall + sum(traced_run.round_walls)
    metrics = spans.layer_metrics(tracer, traced_run.rounds, wall, sim)
    metrics["trace.overhead_s"] = statistics.median(traced_run.scaled_walls) - untraced_round
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{workload}.npz")
    print(f"trace: {len(tracer.t0)} spans over {traced_run.rounds} traced rounds; "
          f"untraced round {untraced_round:.4f} s; overhead {metrics['trace.overhead_s']:.4f} s "
          f"per round ({metrics['trace.overhead_s'] / untraced_round:.1%}); "
          f"uncovered {metrics['trace.uncovered_s']:.4f} s of {wall:.4f} s traced wall")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    hg = import_program()
    spec = workloads.generate(args.workload, args.seed)
    if args.setup_only:
        workloads.build(spec, hg)
        print(perf_counter())
        return 0

    load_start = os.getloadavg()
    import numpy
    import scipy

    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} loadavg_start={load_start}")

    ref_run, ref_problems = reference_round(args.workload, hg)
    run = Run(spec, workloads.build(spec, hg))
    rss_setup = rss_mb()
    # Objects alive now outlive the run; freezing them keeps the collection
    # before each timed call short.
    gc.collect()
    gc.freeze()
    if args.trace:
        layer = traced(args.workload, spec, hg, args.seconds, run)
        report = [(k, v, spans.unit(k), "traced run") for k, v in layer.items()]
    else:
        # Cold starts are spread evenly over the timed rounds, so that their
        # median comes from whichever speed phases the run sees.
        setup = []

        def cold_starts(done: float) -> None:
            while len(setup) < int(done * SETUP_REPEATS):
                setup.append(cold_start(args.workload, args.seed))

        run.until(args.seconds, between=cold_starts)
        cold_starts(1.0)
        e2e = end_to_end(run, setup, alloc_peak_mb(run)) if run.rounds else {}
        report = [(k, v, END_TO_END_UNITS[k], note) for k, (v, note) in e2e.items()]
        if run.rounds:
            # p95 is printed but not bounded: on the single-call workloads it
            # is the host's tail, whose run-to-run spread exceeds any bound.
            p95 = percentile([x * 1e3 for x in run.scaled_latencies], 95)
            print(f"point_ms_p95 = {p95:.6g} ms ({len(run.latencies)} points)")
            print(raw_times(run))
            print(f"cold starts, unscaled: {' '.join(f'{t:.4f}' for t, _ in setup)} s")

    attempted = run.attempted + ref_run.attempted
    failed = run.failed + ref_run.failed
    problems = ref_problems + run.problems
    for p in problems[:20]:
        print(f"check failed: {p}")
    if run.first is not None:
        print(f"simulated per round: {json.dumps(check.sim_stats(run.first))}")
    print(f"rss: {rss_setup:.1f} MB after import, warm-up and build; {rss_mb():.1f} MB peak")
    print(f"loadavg_end={os.getloadavg()} rounds={run.rounds} "
          f"failed_frac = {failed / attempted:.6f} ratio ({failed} of {attempted} calls)")
    for name, value, unit, note in report:
        print(f"metric {name} = {value:.6g} {unit} ({note})")
    result = {
        "correct": not problems and bool(report),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in report},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
