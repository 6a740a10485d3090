"""Command-line front end: circuit files, runs, sweeps, unrolling.

Circuits live in YAML files with three sections: ``vertices`` (a list of
mappings, each with an ``id``, a ``kind``, and kind-specific parameters),
``edges`` (``[from, slot, to]`` triples feeding gate input slots), and
optional ``defaults`` (horizon and tolerances picked up when the matching
flag is absent).  ``preset:NAME`` in place of a path loads a bundled file.

Exit codes: 0 success, 1 validation failure, 2 I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
from collections import Counter
from collections.abc import Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path

import yaml

from . import __version__
from .circuit import (
    Circuit,
    InputPort,
    InvalidCircuitError,
    OutputPort,
    bisect_pulse_norm,
    check_spf,
    execute,
    unroll,
    validate,
)
from .gates import (
    AdvancedNorParams,
    GateSpec,
    SimpleNorParams,
    initial_output_bit,
    make_advanced_nor,
    make_boolean_gate,
    make_const_gate,
    make_heater_plant,
    make_idm_channel,
    make_simple_nor,
    mis_delay_sweep,
)
from .modes import DEFAULT_CONFIG, SolverConfig, write_trajectory_csv
from .signals import (
    BinarySignal,
    min_pulse_width,
    one_norm_distance,
    read_signal_csv,
    write_signal_csv,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

_PRESET_PREFIX = "preset:"


class CircuitFileError(ValueError):
    """A circuit file (or a flag value) failed schema or sanity checks."""


# -- circuit files ---------------------------------------------------------------

_TOP_KEYS = {"vertices", "edges", "defaults", "z_values"}
_DEFAULT_KEYS = {"horizon", "rel_tol", "abs_tol", "time_tol", "seed"}

# allowed parameter keys per vertex kind, beyond id/kind
_KIND_FIELDS: dict[str, set[str]] = {
    "input": {"initial"},
    "output": set(),
    "const": {"value", "v_dd"},
    "boolean": {"function", "delays", "tau_fast", "initial_inputs", "initial_output", "v_dd"},
    "idm": {"tau", "delta_min", "xi", "initial_input"},
    "heater": {"delta", "xi", "initial_input", "initial_state"},
    "simple_nor": {"delays", "initial_inputs", "r1", "r2", "r3", "r4", "c", "c_int", "v_dd"},
    "advanced_nor": {"delays", "initial_inputs", "alpha1", "alpha2", "r", "r_na", "r_nb", "c", "v_dd"},
}
_KIND_REQUIRED: dict[str, set[str]] = {
    "const": {"value"},
    "boolean": {"function", "delays"},
}


@dataclasses.dataclass
class CircuitFile:
    """A parsed circuit file: the built circuit plus its raw vertex docs."""

    circuit: Circuit
    docs: dict[str, dict]
    defaults: dict
    z_values: dict[str, float] | None
    source: str


def _build_vertex(name: str, doc: Mapping):
    kind = doc["kind"]
    if kind == "input":
        return InputPort(int(doc.get("initial", 0)))
    if kind == "output":
        return OutputPort()
    if kind == "const":
        return make_const_gate(int(doc["value"]), v_dd=float(doc.get("v_dd", 1.0)), name=name)
    if kind == "boolean":
        return make_boolean_gate(
            doc["function"],
            tuple(float(d) for d in doc["delays"]),
            tau_fast=float(doc["tau_fast"]) if "tau_fast" in doc else None,
            initial_inputs=tuple(int(b) for b in doc["initial_inputs"])
            if "initial_inputs" in doc
            else None,
            initial_output=int(doc["initial_output"]) if "initial_output" in doc else None,
            v_dd=float(doc.get("v_dd", 1.0)),
            name=name,
        )
    if kind == "idm":
        return make_idm_channel(
            float(doc.get("tau", 1.0)),
            float(doc.get("delta_min", 0.1)),
            float(doc.get("xi", 0.5)),
            initial_input=int(doc.get("initial_input", 0)),
            name=name,
        )
    if kind == "heater":
        return make_heater_plant(
            float(doc.get("delta", 0.01)),
            float(doc.get("xi", 19.0)),
            initial_input=int(doc.get("initial_input", 1)),
            initial_state=float(doc.get("initial_state", 20.0)),
            name=name,
        )
    if kind == "simple_nor":
        base = SimpleNorParams()
        params = dataclasses.replace(
            base, **{k: float(doc[k]) for k in ("r1", "r2", "r3", "r4", "c", "c_int", "v_dd") if k in doc}
        )
        return make_simple_nor(
            params,
            delays=tuple(float(d) for d in doc.get("delays", (0.1, 0.1))),
            initial_inputs=tuple(int(b) for b in doc.get("initial_inputs", (0, 0))),
            name=name,
        )
    if kind == "advanced_nor":
        base = AdvancedNorParams()
        params = dataclasses.replace(
            base,
            **{k: float(doc[k]) for k in ("alpha1", "alpha2", "r", "r_na", "r_nb", "c", "v_dd") if k in doc},
        )
        return make_advanced_nor(
            params,
            delays=tuple(float(d) for d in doc.get("delays", (0.1, 0.1))),
            initial_inputs=tuple(int(b) for b in doc.get("initial_inputs", (0, 0))),
            name=name,
        )
    raise CircuitFileError(f"vertex {name!r}: unknown kind {kind!r}")


def parse_circuit_data(data, source: str) -> CircuitFile:
    """Check a loaded YAML document against the schema and build the circuit."""
    if not isinstance(data, Mapping):
        raise CircuitFileError(f"{source}: top level must be a mapping")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise CircuitFileError(f"{source}: unknown top-level keys {unknown}")
    vertices = data.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise CircuitFileError(f"{source}: 'vertices' must be a non-empty list")
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise CircuitFileError(f"{source}: 'edges' must be a list")

    docs: dict[str, dict] = {}
    built: dict[str, InputPort | OutputPort | GateSpec] = {}
    for entry in vertices:
        if not isinstance(entry, Mapping):
            raise CircuitFileError(f"{source}: each vertex must be a mapping")
        vid = entry.get("id")
        if not isinstance(vid, str) or not vid:
            raise CircuitFileError(f"{source}: vertex without a string 'id'")
        if vid in docs:
            raise CircuitFileError(f"{source}: duplicate vertex id {vid!r}")
        kind = entry.get("kind")
        if kind not in _KIND_FIELDS:
            known = ", ".join(sorted(_KIND_FIELDS))
            raise CircuitFileError(f"{source}: vertex {vid!r} has unknown kind {kind!r} (known: {known})")
        extra = sorted(set(entry) - _KIND_FIELDS[kind] - {"id", "kind"})
        if extra:
            raise CircuitFileError(f"{source}: vertex {vid!r} ({kind}) has unknown fields {extra}")
        missing = sorted(_KIND_REQUIRED.get(kind, set()) - set(entry))
        if missing:
            raise CircuitFileError(f"{source}: vertex {vid!r} ({kind}) is missing fields {missing}")
        doc = {k: v for k, v in entry.items() if k != "id"}
        try:
            built[vid] = _build_vertex(vid, doc)
        except CircuitFileError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CircuitFileError(f"{source}: vertex {vid!r}: {exc}") from exc
        docs[vid] = doc

    edge_list: list[tuple[str, str, int]] = []
    for i, e in enumerate(edges):
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise CircuitFileError(f"{source}: edge #{i} must be a [from, slot, to] triple")
        frm, slot, to = e
        if not isinstance(frm, str) or not isinstance(to, str):
            raise CircuitFileError(f"{source}: edge #{i}: endpoints must be vertex ids")
        if isinstance(slot, bool) or not isinstance(slot, int) or slot < 0:
            raise CircuitFileError(f"{source}: edge #{i}: slot must be a nonnegative integer")
        edge_list.append((frm, to, slot))

    defaults = data.get("defaults", {})
    if not isinstance(defaults, Mapping):
        raise CircuitFileError(f"{source}: 'defaults' must be a mapping")
    bad = sorted(set(defaults) - _DEFAULT_KEYS)
    if bad:
        raise CircuitFileError(f"{source}: unknown defaults {bad}")
    for key, value in defaults.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CircuitFileError(f"{source}: defaults.{key} must be a number")

    z_values = data.get("z_values")
    if z_values is not None:
        if not isinstance(z_values, Mapping):
            raise CircuitFileError(f"{source}: 'z_values' must be a mapping")
        z_values = {str(k): float(v) for k, v in z_values.items()}

    return CircuitFile(Circuit(built, edge_list), docs, dict(defaults), z_values, source)


def _preset_names() -> list[str]:
    root = resources.files(__package__) / "presets"
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def _read_source(spec: str) -> str:
    if spec.startswith(_PRESET_PREFIX):
        name = spec[len(_PRESET_PREFIX):]
        ref = resources.files(__package__) / "presets" / f"{name}.yaml"
        if not ref.is_file():
            raise FileNotFoundError(
                f"unknown preset {name!r}; available: {', '.join(_preset_names())}"
            )
        return ref.read_text()
    return Path(spec).read_text()


def load_circuit(spec: str) -> CircuitFile:
    """Load a circuit file (or ``preset:NAME``) and check it against the schema."""
    data = yaml.safe_load(_read_source(spec))
    return parse_circuit_data(data, spec)


def _load_validated(spec: str) -> CircuitFile:
    cf = load_circuit(spec)
    report = validate(cf.circuit)
    if not report.ok:
        raise InvalidCircuitError(report)
    return cf


# -- flag plumbing ---------------------------------------------------------------


def _pick(cli_value, cf: CircuitFile, key: str):
    return cli_value if cli_value is not None else cf.defaults.get(key)


def _solver_config(rel, abs_, seed) -> SolverConfig:
    kwargs = {}
    if rel is not None:
        kwargs["rel_tol"] = float(rel)
    if abs_ is not None:
        kwargs["abs_tol"] = float(abs_)
    if seed is not None:
        kwargs["seed"] = int(seed)
    return dataclasses.replace(DEFAULT_CONFIG, **kwargs) if kwargs else DEFAULT_CONFIG


def _resolve_solver(args, cf: CircuitFile) -> tuple[SolverConfig, float | None]:
    cfg = _solver_config(
        _pick(args.rel_tol, cf, "rel_tol"),
        _pick(args.abs_tol, cf, "abs_tol"),
        _pick(args.seed, cf, "seed"),
    )
    ttol = _pick(args.time_tol, cf, "time_tol")
    return cfg, (float(ttol) if ttol is not None else None)


def _resolve_horizon(args, cf: CircuitFile) -> float:
    h = _pick(args.horizon, cf, "horizon")
    if h is None:
        raise CircuitFileError("no horizon: pass --horizon or set defaults.horizon in the file")
    h = float(h)
    if h <= 0:
        raise CircuitFileError("horizon must be positive")
    return h


def _with_time_tolerance(circuit: Circuit, ttol: float | None) -> Circuit:
    if ttol is None:
        return circuit
    rebuilt = {}
    for name, v in circuit.vertices.items():
        if isinstance(v, GateSpec):
            v = dataclasses.replace(v, threshold=dataclasses.replace(v.threshold, time_tolerance=ttol))
        rebuilt[name] = v
    return Circuit(rebuilt, circuit.edges)


def _ensure_out_dir(args) -> Path:
    out = Path(args.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _metadata(args, cf: CircuitFile, cfg: SolverConfig, ttol: float | None, **extra) -> dict:
    meta = {
        "hybridgates": __version__,
        "command": args.command,
        "circuit": cf.source,
        "rel_tol": repr(cfg.rel_tol),
        "abs_tol": repr(cfg.abs_tol),
        "time_tol": "default" if ttol is None else repr(ttol),
        "seed": "none" if cfg.seed is None else str(cfg.seed),
    }
    meta.update(extra)
    return meta


def _parse_grid(spec: str, what: str, allow_zero: bool = False) -> list[float]:
    """Parse ``LO:HI:COUNT`` or a comma list into a value grid."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise CircuitFileError(f"{what}: expected LO:HI:COUNT, got {spec!r}")
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 2:
                raise CircuitFileError(f"{what}: a range needs at least 2 points")
            if hi < lo:
                raise CircuitFileError(f"{what}: range is empty ({spec!r})")
            values = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
        else:
            values = [float(part) for part in spec.split(",") if part.strip()]
    except ValueError as exc:
        raise CircuitFileError(f"{what}: {exc}") from exc
    if not values:
        raise CircuitFileError(f"{what}: no values given")
    floor = 0.0 if allow_zero else None
    for v in values:
        if floor is None and v <= 0.0:
            raise CircuitFileError(f"{what}: values must be positive, got {v!r}")
        if floor is not None and v < floor:
            raise CircuitFileError(f"{what}: values must be nonnegative, got {v!r}")
    return values


def _single_io_names(circuit: Circuit) -> tuple[str, str]:
    ins = list(circuit.input_ports())
    outs = list(circuit.output_ports())
    if len(ins) != 1 or len(outs) != 1:
        raise CircuitFileError(
            f"need exactly one input and one output port, found {len(ins)} and {len(outs)}"
        )
    return ins[0], outs[0]


def _safe_name(name: str, used: set[str]) -> str:
    base = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in name) or "vertex"
    candidate, n = base, 1
    while candidate in used:
        n += 1
        candidate = f"{base}-{n}"
    used.add(candidate)
    return candidate


def _fmt(value: float | None) -> str:
    return repr(float(value)) if value is not None else "nan"


def _write_csv(path: Path, meta: dict, header: str, rows: Sequence[str]) -> None:
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(header)
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


# -- simulate --------------------------------------------------------------------


def _input_signal(spec: str, horizon: float) -> BinarySignal:
    if spec == "zero":
        return BinarySignal(0, (), horizon)
    if spec == "one":
        return BinarySignal(1, (), horizon)
    if spec.startswith("pulse:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise CircuitFileError(f"--input: expected pulse:START:WIDTH, got {spec!r}")
        start, width = float(parts[1]), float(parts[2])
        return BinarySignal.pulse(start, width, horizon)
    sig = read_signal_csv(spec)
    if sig.horizon < horizon:
        raise CircuitFileError(
            f"{spec}: signal ends at {sig.horizon!r}, before the run horizon {horizon!r}"
        )
    kept = tuple((tr.time, tr.value) for tr in sig.transitions if tr.time < horizon)
    return BinarySignal(sig.initial_value, kept, horizon)


def cmd_simulate(args) -> int:
    cf = _load_validated(args.file)
    horizon = _resolve_horizon(args, cf)
    cfg, ttol = _resolve_solver(args, cf)
    circuit = _with_time_tolerance(cf.circuit, ttol)

    inputs = {
        name: BinarySignal(port.initial_value, (), horizon)
        for name, port in circuit.input_ports().items()
    }
    for item in args.input or []:
        name, sep, rhs = item.partition("=")
        if not sep or not rhs:
            raise CircuitFileError(f"--input: expected NAME=SPEC, got {item!r}")
        if name not in inputs:
            raise CircuitFileError(f"--input: {name!r} is not an input port")
        inputs[name] = _input_signal(rhs, horizon)

    ex = execute(circuit, inputs, horizon, cfg, event_cap=args.event_cap)

    out_dir = _ensure_out_dir(args)
    meta = _metadata(args, cf, cfg, ttol)
    used: set[str] = set()
    signal_files: dict[str, str] = {}
    for name, sig in ex.signals.items():
        fname = _safe_name(name, used) + ".csv"
        write_signal_csv(sig, out_dir / fname, metadata={**meta, "vertex": name})
        signal_files[name] = fname

    trajectory_files: dict[str, str] = {}
    if args.dump_trajectories:
        traj_used: set[str] = set()
        for name, traj in ex.trajectories.items():
            fname = _safe_name(name, traj_used) + ".traj.csv"
            write_trajectory_csv(
                traj, out_dir / fname, metadata={**meta, "vertex": name, "horizon": repr(horizon)}
            )
            trajectory_files[name] = fname

    depth_counts = Counter(
        rec.depth for records in ex.records.values() for rec in records
    )
    summary = {
        "hybridgates": __version__,
        "circuit": cf.source,
        "horizon": horizon,
        "solver": {
            "rel_tol": cfg.rel_tol,
            "abs_tol": cfg.abs_tol,
            "time_tol": ttol,
            "seed": cfg.seed,
        },
        "delta_min": ex.delta_min,
        "event_count": ex.event_count,
        "iterations": len(ex.iteration_times),
        "iteration_times": [float(t) for t in ex.iteration_times],
        "causal_depth_histogram": [
            [int(d), int(depth_counts[d])] for d in sorted(depth_counts)
        ],
        "transition_counts": {
            name: len(records) for name, records in sorted(ex.records.items())
        },
        "signals": signal_files,
        "trajectories": trajectory_files,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    print(
        f"simulated {cf.source} to t={horizon!r}: {ex.event_count} events over "
        f"{len(ex.iteration_times)} iterations"
    )
    print(f"wrote {len(signal_files)} signal files and summary.json to {out_dir}")
    return EXIT_OK


# -- pulse-width sweep -------------------------------------------------------------


def _pulse_point(
    circuit: Circuit,
    in_name: str,
    out_name: str,
    width: float,
    pulse_start: float,
    horizon: float,
    cfg: SolverConfig,
) -> tuple[float, float | None, float | None]:
    sig = BinarySignal.pulse(pulse_start, width, horizon)
    ex = execute(circuit, {in_name: sig}, horizon, cfg)
    out = ex.signals[out_name]
    norm = one_norm_distance(out, BinarySignal.constant(0, horizon))
    last = out.times[-1] if out.times else None
    return norm, min_pulse_width(out), last


def _pulse_task(payload: tuple) -> tuple[float, float | None, float | None]:
    src, width, pulse_start, horizon, rel, abs_, ttol, seed = payload
    cf = load_circuit(src)
    circuit = _with_time_tolerance(cf.circuit, ttol)
    cfg = _solver_config(rel, abs_, seed)
    in_name, out_name = _single_io_names(circuit)
    return _pulse_point(circuit, in_name, out_name, width, pulse_start, horizon, cfg)


def cmd_sweep_pulse(args) -> int:
    cf = _load_validated(args.file)
    horizon = _resolve_horizon(args, cf)
    cfg, ttol = _resolve_solver(args, cf)
    circuit = _with_time_tolerance(cf.circuit, ttol)
    in_name, out_name = _single_io_names(circuit)
    widths = _parse_grid(args.widths, "--widths")
    out_dir = _ensure_out_dir(args)

    meta = _metadata(
        args, cf, cfg, ttol,
        horizon=repr(horizon), pulse_start=repr(args.pulse_start), widths=args.widths,
    )
    header = "delta,norm_l1,min_output_pulse,last_transition"

    if args.target_norm is not None:
        lo, hi = min(widths), max(widths)
        if lo == hi:
            raise CircuitFileError("--target-norm needs a width range to bracket the search")
        width, norm = bisect_pulse_norm(
            circuit, args.target_norm, lo, hi, horizon,
            pulse_start=args.pulse_start, tol=args.tol, config=cfg,
        )
        norm2, min_pulse, last = _pulse_point(
            circuit, in_name, out_name, width, args.pulse_start, horizon, cfg
        )
        meta["target_norm"] = repr(args.target_norm)
        rows = [f"{width!r},{norm2!r},{_fmt(min_pulse)},{_fmt(last)}"]
        path = out_dir / "sweep_pulse.csv"
        _write_csv(path, meta, header, rows)
        print(f"bisection: width={width!r} norm={norm!r}")
        print(f"wrote {path}")
        return EXIT_OK

    payloads = [
        (args.file, w, args.pulse_start, horizon, cfg.rel_tol, cfg.abs_tol, ttol, cfg.seed)
        for w in widths
    ]
    if args.jobs and args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            points = list(pool.map(_pulse_task, payloads))
    else:
        points = [
            _pulse_point(circuit, in_name, out_name, w, args.pulse_start, horizon, cfg)
            for w in widths
        ]

    rows = [
        f"{w!r},{norm!r},{_fmt(min_pulse)},{_fmt(last)}"
        for w, (norm, min_pulse, last) in zip(widths, points)
    ]
    path = out_dir / "sweep_pulse.csv"
    _write_csv(path, meta, header, rows)
    print(f"swept {len(widths)} widths on {cf.source}")
    print(f"wrote {path}")
    return EXIT_OK


# -- multi-input-switching sweep ----------------------------------------------------


def _find_nor_doc(cf: CircuitFile) -> dict:
    ids = [vid for vid, doc in cf.docs.items() if doc["kind"] in ("simple_nor", "advanced_nor")]
    if len(ids) != 1:
        raise CircuitFileError(
            f"sweep-mis needs exactly one simple_nor or advanced_nor gate, found {len(ids)}"
        )
    return cf.docs[ids[0]] | {"id": ids[0]}


def _mis_gate(doc: dict, ttol: float | None) -> GateSpec:
    gate = _build_vertex(doc["id"], doc)
    if ttol is not None:
        gate = dataclasses.replace(
            gate, threshold=dataclasses.replace(gate.threshold, time_tolerance=ttol)
        )
    return gate


def _mis_task(payload: tuple) -> float:
    src, gap, lead, settle, rel, abs_, ttol, seed = payload
    cf = load_circuit(src)
    doc = _find_nor_doc(cf)
    cfg = _solver_config(rel, abs_, seed)
    return mis_delay_sweep(lambda: _mis_gate(doc, ttol), [gap], lead=lead, settle=settle, config=cfg)[0]


def cmd_sweep_mis(args) -> int:
    cf = _load_validated(args.file)
    cfg, ttol = _resolve_solver(args, cf)
    doc = _find_nor_doc(cf)
    gaps = _parse_grid(args.gaps, "--gaps", allow_zero=True)
    out_dir = _ensure_out_dir(args)

    if args.jobs and args.jobs > 1:
        payloads = [
            (args.file, g, args.lead, args.settle, cfg.rel_tol, cfg.abs_tol, ttol, cfg.seed)
            for g in gaps
        ]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            delays = list(pool.map(_mis_task, payloads))
    else:
        delays = mis_delay_sweep(
            lambda: _mis_gate(doc, ttol), gaps, lead=args.lead, settle=args.settle, config=cfg
        )

    meta = _metadata(
        args, cf, cfg, ttol,
        gate=doc["id"], lead=repr(args.lead), settle=repr(args.settle), gaps=args.gaps,
    )
    rows = [f"{g!r},{d!r}" for g, d in zip(gaps, delays)]
    path = out_dir / "sweep_mis.csv"
    _write_csv(path, meta, "delta_t,output_delay", rows)
    spread = (max(delays) - min(delays)) / max(delays) if max(delays) > 0 else 0.0
    print(f"swept {len(gaps)} falling-input gaps on gate {doc['id']!r} (delay spread {spread:.2%})")
    print(f"wrote {path}")
    return EXIT_OK


# -- unroll ----------------------------------------------------------------------


def _serialize_unrolled(cf: CircuitFile, un) -> dict:
    origin = {copy: orig for (orig, _level), copy in un.copy_map.items()}
    verts = []
    for name, v in un.circuit.vertices.items():
        if isinstance(v, InputPort):
            verts.append({"id": name, "kind": "input", "initial": v.initial_value})
        elif isinstance(v, OutputPort):
            verts.append({"id": name, "kind": "output"})
        elif v.arity == 0:
            verts.append({"id": name, "kind": "const", "value": initial_output_bit(v)})
        else:
            doc = copy.deepcopy(cf.docs[origin[name]])
            verts.append({"id": name, **doc})
    return {
        "defaults": dict(cf.defaults),
        "vertices": verts,
        "edges": [[e.src, e.slot, e.dst] for e in un.circuit.edges],
        "z_values": {name: float(z) for name, z in un.z_values.items()},
    }


def cmd_unroll(args) -> int:
    cf = _load_validated(args.file)
    sink = args.from_port
    if sink is None:
        outs = list(cf.circuit.output_ports())
        if len(outs) != 1:
            raise CircuitFileError(f"--from is required: circuit has {len(outs)} output ports")
        sink = outs[0]
    un = unroll(cf.circuit, sink, args.k)

    doc = _serialize_unrolled(cf, un)
    out_dir = _ensure_out_dir(args)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
    else:
        stem = args.file[len(_PRESET_PREFIX):] if args.file.startswith(_PRESET_PREFIX) else Path(args.file).stem
        path = out_dir / f"{stem}_unrolled_k{args.k}.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))

    # the emitted file must survive its own schema and structural checks
    rt = parse_circuit_data(yaml.safe_load(path.read_text()), str(path))
    report = validate(rt.circuit)
    if not report.ok:
        raise RuntimeError(f"unrolled circuit failed to round-trip: {report.violations}")

    print(f"unrolled {cf.source} toward {sink!r} at k={args.k}: "
          f"{len(un.circuit.vertices)} vertices")
    for name in sorted(un.z_values):
        print(f"  z[{name}] = {un.z_values[name]!r}")
    print(f"wrote {path}")
    return EXIT_OK


# -- short-pulse-filter check --------------------------------------------------------


def cmd_spf_check(args) -> int:
    cf = _load_validated(args.file)
    horizon = _resolve_horizon(args, cf)
    cfg, ttol = _resolve_solver(args, cf)
    circuit = _with_time_tolerance(cf.circuit, ttol)
    widths = _parse_grid(args.widths, "--widths")

    report = check_spf(
        circuit, widths, horizon, args.epsilon, args.stab_bound,
        pulse_start=args.pulse_start, config=cfg,
    )

    out_dir = _ensure_out_dir(args)
    meta = _metadata(
        args, cf, cfg, ttol,
        horizon=repr(horizon), epsilon=repr(args.epsilon),
        stabilization_bound=repr(args.stab_bound), widths=args.widths,
    )
    rows = [
        f"{r.width!r},{r.norm!r},{r.last_input_edge!r},{_fmt(r.last_output_edge)},{int(r.settled)}"
        for r in report.results
    ]
    path = out_dir / "spf_results.csv"
    _write_csv(path, meta, "width,norm_l1,last_input_edge,last_output_edge,settled", rows)

    conditions = [
        ("single input and output port", report.single_io),
        ("zero input produces a zero output", report.no_generation),
        ("some width produces output", report.nontrivial),
        (f"every produced output has norm >= {args.epsilon!r}", report.no_short_outputs),
        (f"outputs settle within {args.stab_bound!r} of the last input edge", report.bounded_stabilization),
    ]
    for label, ok in conditions:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    for violation in report.violations:
        print(f"  violation: {violation}")
    print(f"wrote {path}")
    print("short-pulse filter: OK" if report.ok else "short-pulse filter: REJECTED")
    return EXIT_OK if report.ok else EXIT_INVALID


# -- validate --------------------------------------------------------------------


def cmd_validate(args) -> int:
    cf = load_circuit(args.file)
    report = validate(cf.circuit)
    if report.ok:
        print(
            f"ok: {len(cf.circuit.vertices)} vertices, {len(cf.circuit.edges)} edges, "
            f"delta_min={report.delta_min!r}"
        )
        return EXIT_OK
    for rule, vertex, message in report.violations:
        print(f"{rule} [{vertex}]: {message}")
    print(f"{len(report.violations)} violation(s)")
    return EXIT_INVALID


# -- entry point -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors map to the validation exit code."""

    def error(self, message):
        raise CircuitFileError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--horizon", type=float, default=None, help="simulation end time")
    common.add_argument("--rel-tol", type=float, default=None, help="solver relative tolerance")
    common.add_argument("--abs-tol", type=float, default=None, help="solver absolute tolerance")
    common.add_argument("--time-tol", type=float, default=None, help="threshold crossing time tolerance")
    common.add_argument("--seed", type=int, default=None, help="solver probe seed, recorded in outputs")
    common.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
    common.add_argument("--out-dir", default=None, help="directory for output files (default: .)")

    parser = _Parser(prog="hybridgates", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hybridgates {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="schema and structural checks")
    p.add_argument("file", help="circuit file or preset:NAME")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", parents=[common], help="run a circuit and dump its signals")
    p.add_argument("file", help="circuit file or preset:NAME")
    p.add_argument(
        "--input", action="append", metavar="NAME=SPEC",
        help="input signal: zero, one, pulse:START:WIDTH, or a signal CSV path",
    )
    p.add_argument("--dump-trajectories", action="store_true", help="also dump analog state CSVs")
    p.add_argument("--event-cap", type=int, default=1_000_000, help="abort after this many events")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep-pulse", parents=[common], help="output response vs input pulse width")
    p.add_argument("file", help="circuit file or preset:NAME")
    p.add_argument("--widths", required=True, help="pulse widths: LO:HI:COUNT or a comma list")
    p.add_argument("--pulse-start", type=float, default=1.0, help="rising edge time of the input pulse")
    p.add_argument("--target-norm", type=float, default=None,
                   help="bisect inside the width range for this output 1-norm")
    p.add_argument("--tol", type=float, default=1e-6, help="bisection tolerance on the norm")
    p.set_defaults(func=cmd_sweep_pulse)

    p = sub.add_parser("sweep-mis", parents=[common],
                       help="NOR rising delay vs falling-input gap")
    p.add_argument("file", help="circuit file or preset:NAME")
    p.add_argument("--gaps", required=True, help="input gaps: LO:HI:COUNT or a comma list")
    p.add_argument("--lead", type=float, default=1.0, help="time of the first falling input")
    p.add_argument("--settle", type=float, default=20.0, help="extra horizon after the last gap")
    p.set_defaults(func=cmd_sweep_mis)

    p = sub.add_parser("unroll", parents=[common], help="expand feedback into a forward circuit")
    p.add_argument("file", help="circuit file or preset:NAME")
    p.add_argument("-k", "--k", type=int, required=True, help="unrolling level")
    p.add_argument("--from", dest="from_port", default=None,
                   help="output port to unroll toward (default: the only one)")
    p.add_argument("--out", default=None, help="path for the unrolled circuit file")
    p.set_defaults(func=cmd_unroll)

    p = sub.add_parser("spf-check", parents=[common], help="probe a short-pulse-filter candidate")
    p.add_argument("file", help="circuit file or preset:NAME")
    p.add_argument("--widths", required=True, help="pulse widths: LO:HI:COUNT or a comma list")
    p.add_argument("--epsilon", type=float, required=True, help="minimum produced output 1-norm")
    p.add_argument("--stab-bound", type=float, required=True,
                   help="output settling bound after the last input edge")
    p.add_argument("--pulse-start", type=float, default=1.0, help="rising edge time of the input pulse")
    p.set_defaults(func=cmd_spf_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # CircuitFileError and InvalidCircuitError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except yaml.YAMLError as exc:
        print(f"error: cannot parse circuit file: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    # EventCapExceeded, StateSpaceExit, IntegrationError, CrossingCapExceeded
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
