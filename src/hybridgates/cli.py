"""Command-line front end: circuit files, runs, sweeps, unrolling.

Circuits live in YAML files with three sections: ``vertices`` (a list of
mappings, each with an ``id``, a ``kind``, and kind-specific parameters),
``edges`` (``[from, slot, to]`` triples feeding gate input slots), and
optional ``defaults`` (a finite positive ``horizon``, picked up when
``--horizon`` is absent).  ``preset:NAME`` in place of a path loads a
bundled file.  Each kind is built by its factory in ``gates`` (or a port
class), and a parameter the file leaves out takes that factory's default.
Each subcommand takes only the flags it reads.  Every mode has a closed
form, and threshold crossing times and state-space exits are those of the
closed forms.

Exit codes: 0 success, 1 validation failure, 2 I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import sys
from collections import Counter
from collections.abc import Mapping, Sequence
from importlib import resources
from pathlib import Path

from . import __version__
from .circuit import (
    Circuit,
    InputPort,
    InvalidCircuitError,
    OutputPort,
    _pulse_response,
    _single_io,
    bisect_pulse_norm,
    check_spf,
    execute,
    unroll,
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
from .modes import write_trajectory_csv
from .signals import (
    BinarySignal,
    min_pulse_width,
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

_TOP_KEYS = {"vertices", "edges", "defaults"}
_DEFAULT_KEYS = {"horizon"}


def _nor_kind(factory, params_cls):
    """Table entry of a NOR kind whose parameter fields build ``params_cls``."""
    names = {f.name for f in dataclasses.fields(params_cls)}

    def build(name, **fields):
        params = params_cls(**{k: fields.pop(k) for k in names & set(fields)})
        return factory(params, name=name, **fields)

    return build, {"delays", "initial_inputs", *names}, set()


_NOR_KINDS = {
    "simple_nor": (make_simple_nor, SimpleNorParams),
    "advanced_nor": (make_advanced_nor, AdvancedNorParams),
}

# kind -> (builder, allowed fields, required fields), beyond id/kind.  The
# builder gets the vertex id as ``name`` and only the fields the file sets,
# so every other field keeps its factory's default.
_KINDS = {
    "input": (lambda name, initial=InputPort.initial_value: InputPort(initial), {"initial"}, set()),
    "output": (lambda name: OutputPort(), set(), set()),
    "const": (make_const_gate, {"value", "v_dd"}, {"value"}),
    "boolean": (
        make_boolean_gate,
        {"function", "delays", "tau_fast", "initial_inputs", "initial_output", "v_dd"},
        {"function", "delays"},
    ),
    "idm": (make_idm_channel, {"tau", "delta_min", "xi", "initial_input"}, set()),
    "heater": (make_heater_plant, {"delta", "xi", "initial_input", "initial_state"}, set()),
    **{kind: _nor_kind(*spec) for kind, spec in _NOR_KINDS.items()},
}

# a field means the same in every kind; any field not listed is a float.
# ``function`` and the bit fields reach the builder as they are: it refuses
# a bit that is not 0 or 1, where int() would truncate it.
_AS_IS = ("function", "initial", "initial_input", "initial_inputs", "initial_output", "value")
_COERCE = {"delays": lambda v: tuple(float(d) for d in v), **dict.fromkeys(_AS_IS, lambda v: v)}


@dataclasses.dataclass
class CircuitFile:
    """A parsed circuit file: the built circuit plus its raw vertex docs."""

    circuit: Circuit
    docs: dict[str, dict]
    defaults: dict
    source: str


def _build_vertex(name: str, doc: Mapping):
    build = _KINDS[doc["kind"]][0]
    fields = {k: _COERCE.get(k, float)(v) for k, v in doc.items() if k not in ("id", "kind")}
    return build(name=name, **fields)


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
        if not isinstance(kind, str) or kind not in _KINDS:
            known = ", ".join(sorted(_KINDS))
            raise CircuitFileError(f"{source}: vertex {vid!r} has unknown kind {kind!r} (known: {known})")
        _, allowed, required = _KINDS[kind]
        extra = sorted(set(entry) - allowed - {"id", "kind"}, key=str)
        if extra:
            raise CircuitFileError(f"{source}: vertex {vid!r} ({kind}) has unknown fields {extra}")
        missing = sorted(required - set(entry))
        if missing:
            raise CircuitFileError(f"{source}: vertex {vid!r} ({kind}) is missing fields {missing}")
        doc = {k: v for k, v in entry.items() if k != "id"}
        try:
            built[vid] = _build_vertex(vid, doc)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and 0 < value < math.inf):
            raise CircuitFileError(
                f"{source}: defaults.{key} must be a finite positive number, got {value!r}"
            )

    return CircuitFile(Circuit(built, edge_list), docs, dict(defaults), source)


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
    """Load a circuit file (or ``preset:NAME``) and check it against the schema.

    A file that libyaml's loader refuses is parsed again by
    ``yaml.safe_load``, whose error is the one raised, so the CLI words a
    parse error the same with or without libyaml.
    """
    yaml, _, loader = _yaml()
    text = _read_source(spec)
    try:
        data = yaml.load(text, Loader=loader)
    except yaml.YAMLError:
        if loader is yaml.SafeLoader:
            raise
        data = yaml.safe_load(text)
    return parse_circuit_data(data, spec)


def _yaml():
    """PyYAML with its safe dumper and loader: libyaml's where PyYAML was
    built with it, which write the same text and read the same documents
    as the pure-Python ones, several times faster.  Imported on first use:
    importing this module loads no YAML parser."""
    import yaml
    if yaml.__with_libyaml__:
        return yaml, yaml.CSafeDumper, yaml.CSafeLoader
    return yaml, yaml.SafeDumper, yaml.SafeLoader


def _load_validated(spec: str) -> CircuitFile:
    cf = load_circuit(spec)
    if not cf.circuit.report.ok:
        raise InvalidCircuitError(cf.circuit.report)
    return cf


# -- flag plumbing ---------------------------------------------------------------


def _resolve_horizon(args, cf: CircuitFile) -> float:
    h = args.horizon if args.horizon is not None else cf.defaults.get("horizon")
    if h is None:
        raise CircuitFileError("no horizon: pass --horizon or set defaults.horizon in the file")
    h = float(h)
    if h <= 0:
        raise CircuitFileError("horizon must be positive")
    return h


def _ensure_out_dir(args) -> Path:
    out = Path(args.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _metadata(args, cf: CircuitFile, **extra) -> dict:
    return {"hybridgates": __version__, "command": args.command, "circuit": cf.source, **extra}


def _parse_grid(spec: str, what: str, allow_zero: bool = False) -> list[float]:
    """Parse ``LO:HI:COUNT`` or a comma list into a value grid."""
    is_range = ":" in spec
    parts = spec.split(":") if is_range else [p for p in spec.split(",") if p.strip()]
    if is_range and len(parts) != 3:
        raise CircuitFileError(f"{what}: expected LO:HI:COUNT, got {spec!r}")
    try:
        values = [float(p) for p in (parts[:2] if is_range else parts)]
        count = int(parts[2]) if is_range else None
    except ValueError as exc:
        raise CircuitFileError(f"{what}: {exc}") from exc
    if not values:
        raise CircuitFileError(f"{what}: no values given")
    if is_range and count < 2:
        raise CircuitFileError(f"{what}: a range needs at least 2 points")
    for v in values:
        if not math.isfinite(v):
            raise CircuitFileError(f"{what}: values must be finite, got {v!r}")
        if v < 0.0 or (v == 0.0 and not allow_zero):
            sign = "nonnegative" if allow_zero else "positive"
            raise CircuitFileError(f"{what}: values must be {sign}, got {v!r}")
    if not is_range:
        return values
    lo, hi = values
    if hi < lo:
        raise CircuitFileError(f"{what}: range is empty ({spec!r})")
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _single_io_names(circuit: Circuit) -> tuple[str, str]:
    io = _single_io(circuit)
    if io is None:
        raise CircuitFileError(
            f"need exactly one input and one output port, found "
            f"{len(circuit.input_ports())} and {len(circuit.output_ports())}"
        )
    return io


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

    inputs = {
        name: BinarySignal(port.initial_value, (), horizon)
        for name, port in cf.circuit.input_ports().items()
    }
    for item in args.input or []:
        name, sep, rhs = item.partition("=")
        if not sep or not rhs:
            raise CircuitFileError(f"--input: expected NAME=SPEC, got {item!r}")
        if name not in inputs:
            raise CircuitFileError(f"--input: {name!r} is not an input port")
        inputs[name] = _input_signal(rhs, horizon)

    ex = execute(cf.circuit, inputs, horizon, event_cap=args.event_cap)

    out_dir = _ensure_out_dir(args)
    meta = _metadata(args, cf)
    used: set[str] = set()
    signal_files: dict[str, str] = {}
    for name, sig in ex.signals.items():
        fname = _safe_name(name, used) + ".csv"
        write_signal_csv(sig, out_dir / fname, metadata={**meta, "vertex": name})
        signal_files[name] = fname

    trajectory_files: dict[str, str] = {}
    if args.dump_trajectories:
        traj_used: set[str] = set()
        for name in ex.modes:
            fname = _safe_name(name, traj_used) + ".traj.csv"
            write_trajectory_csv(
                ex.trajectory(name), out_dir / fname,
                metadata={**meta, "vertex": name, "horizon": repr(horizon)},
            )
            trajectory_files[name] = fname

    depth_counts = Counter(
        rec.depth for records in ex.records.values() for rec in records
    )
    summary = {
        "hybridgates": __version__,
        "circuit": cf.source,
        "horizon": horizon,
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


def _pulse_row(circuit: Circuit, io: tuple[str, str], width: float, pulse_start: float,
               horizon: float) -> str:
    """CSV row of one pulse width: the width, output norm, shortest output pulse and last edge."""
    out, norm = _pulse_response(circuit, *io, width, horizon, pulse_start)
    last = out.times[-1] if out.times else None
    return f"{width!r},{norm!r},{_fmt(min_pulse_width(out))},{_fmt(last)}"


def cmd_sweep_pulse(args) -> int:
    cf = _load_validated(args.file)
    horizon = _resolve_horizon(args, cf)
    circuit = cf.circuit
    io = _single_io_names(circuit)
    widths = _parse_grid(args.widths, "--widths")

    meta = _metadata(
        args, cf, horizon=repr(horizon), pulse_start=repr(args.pulse_start), widths=args.widths
    )
    if args.target_norm is not None:
        lo, hi = min(widths), max(widths)
        if lo == hi:
            raise CircuitFileError("--target-norm needs a width range to bracket the search")
        width, norm = bisect_pulse_norm(
            circuit, args.target_norm, lo, hi, horizon,
            pulse_start=args.pulse_start, tol=args.tol,
        )
        meta["target_norm"] = repr(args.target_norm)
        widths = [width]
        done = f"bisection: width={width!r} norm={norm!r}"
    else:
        done = f"swept {len(widths)} widths on {cf.source}"

    rows = [_pulse_row(circuit, io, w, args.pulse_start, horizon) for w in widths]
    path = _ensure_out_dir(args) / "sweep_pulse.csv"
    _write_csv(path, meta, "delta,norm_l1,min_output_pulse,last_transition", rows)
    print(done)
    print(f"wrote {path}")
    return EXIT_OK


# -- multi-input-switching sweep ----------------------------------------------------


def _find_nor_doc(cf: CircuitFile) -> dict:
    ids = [vid for vid, doc in cf.docs.items() if doc["kind"] in _NOR_KINDS]
    if len(ids) != 1:
        raise CircuitFileError(
            f"sweep-mis needs exactly one {' or '.join(_NOR_KINDS)} gate, found {len(ids)}"
        )
    return cf.docs[ids[0]] | {"id": ids[0]}


def cmd_sweep_mis(args) -> int:
    cf = _load_validated(args.file)
    doc = _find_nor_doc(cf)
    gaps = _parse_grid(args.gaps, "--gaps", allow_zero=True)
    out_dir = _ensure_out_dir(args)
    # one gate for every gap, so its one-gate circuit is built once
    gate = _build_vertex(doc["id"], doc)
    delays = mis_delay_sweep(lambda: gate, gaps, lead=args.lead, settle=args.settle)

    meta = _metadata(
        args, cf, gate=doc["id"], lead=repr(args.lead), settle=repr(args.settle), gaps=args.gaps
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
    yaml, dumper, loader = _yaml()
    path.write_text(yaml.dump(doc, Dumper=dumper, sort_keys=False))

    # the emitted file must survive its own schema and structural checks
    rt = parse_circuit_data(yaml.load(path.read_text(), Loader=loader), str(path))
    if not rt.circuit.report.ok:
        raise RuntimeError(f"unrolled circuit failed to round-trip: {rt.circuit.report.violations}")

    print(f"unrolled {cf.source} toward {sink!r} at k={args.k}: "
          f"{len(un.circuit.vertices)} vertices")
    print(f"wrote {path}")
    return EXIT_OK


# -- short-pulse-filter check --------------------------------------------------------


def cmd_spf_check(args) -> int:
    cf = _load_validated(args.file)
    horizon = _resolve_horizon(args, cf)
    widths = _parse_grid(args.widths, "--widths")

    report = check_spf(
        cf.circuit, widths, horizon, args.epsilon, args.stab_bound,
        pulse_start=args.pulse_start,
    )

    out_dir = _ensure_out_dir(args)
    meta = _metadata(
        args, cf,
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
    report = cf.circuit.report
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


# the run flags; each subcommand declares the ones it reads
_RUN_FLAGS = {
    "--horizon": {"type": float, "help": "simulation end time"},
    "--out-dir": {"help": "directory for output files (default: .)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hybridgates", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hybridgates {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help)
        p.add_argument("file", help="circuit file or preset:NAME")
        for flag in flags:
            p.add_argument(flag, **_RUN_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "schema and structural checks")

    p = command("simulate", cmd_simulate, "run a circuit and dump its signals", *_RUN_FLAGS)
    p.add_argument(
        "--input", action="append", metavar="NAME=SPEC",
        help="input signal: zero, one, pulse:START:WIDTH, or a signal CSV path",
    )
    p.add_argument("--dump-trajectories", action="store_true", help="also dump analog state CSVs")
    p.add_argument("--event-cap", type=int, default=1_000_000, help="abort after this many events")

    p = command("sweep-pulse", cmd_sweep_pulse, "output response vs input pulse width", *_RUN_FLAGS)
    p.add_argument("--widths", required=True, help="pulse widths: LO:HI:COUNT or a comma list")
    p.add_argument("--pulse-start", type=float, default=1.0, help="rising edge time of the input pulse")
    p.add_argument("--target-norm", type=float, default=None,
                   help="bisect inside the width range for this output 1-norm")
    p.add_argument("--tol", type=float, default=1e-6, help="bisection tolerance on the norm")

    p = command("sweep-mis", cmd_sweep_mis, "NOR rising delay vs falling-input gap", "--out-dir")
    p.add_argument("--gaps", required=True, help="input gaps: LO:HI:COUNT or a comma list")
    p.add_argument("--lead", type=float, default=1.0, help="time of the first falling input")
    p.add_argument("--settle", type=float, default=20.0, help="extra horizon after the last gap")

    p = command("unroll", cmd_unroll, "expand feedback into a forward circuit", "--out-dir")
    p.add_argument("-k", "--k", type=int, required=True, help="unrolling level")
    p.add_argument("--from", dest="from_port", default=None,
                   help="output port to unroll toward (default: the only one)")
    p.add_argument("--out", default=None, help="path for the unrolled circuit file")

    p = command("spf-check", cmd_spf_check, "probe a short-pulse-filter candidate", *_RUN_FLAGS)
    p.add_argument("--widths", required=True, help="pulse widths: LO:HI:COUNT or a comma list")
    p.add_argument("--epsilon", type=float, required=True, help="minimum produced output 1-norm")
    p.add_argument("--stab-bound", type=float, required=True,
                   help="output settling bound after the last input edge")
    p.add_argument("--pulse-start", type=float, default=1.0, help="rising edge time of the input pulse")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    import yaml  # for YAMLError
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
    # EventCapExceeded, StateSpaceExit
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
