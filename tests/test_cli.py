"""End-to-end checks of the command-line interface."""

import json
import math
from pathlib import Path

import pytest
import yaml

from hybridgates import __version__, cli
from hybridgates import circuit as circuit_module
from hybridgates.circuit import execute
from hybridgates.cli import _KINDS, _preset_names, load_circuit, main, parse_circuit_data
from hybridgates.gates import (
    make_advanced_nor,
    make_boolean_gate,
    make_const_gate,
    make_heater_plant,
    make_idm_channel,
    make_simple_nor,
)
from hybridgates.signals import BinarySignal, read_signal_csv

from conftest import run_fresh_python


def run(*argv):
    return main([str(a) for a in argv])


def _parsed(text: str, loader) -> str:
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.YAMLError:
        return "refused"


@pytest.fixture(autouse=True)
def both_yaml_loaders_agree(monkeypatch):
    """Every YAML text a test here loads, presets and written files alike,
    parses to equal data with libyaml's safe loader and ``yaml.safe_load``,
    or is refused by both."""
    texts = []
    read = cli._read_source

    def recording(spec):
        texts.append(read(spec))
        return texts[-1]

    monkeypatch.setattr(cli, "_read_source", recording)
    yield
    if yaml.__with_libyaml__:
        for text in texts:
            assert _parsed(text, yaml.CSafeLoader) == _parsed(text, yaml.SafeLoader), text


def write_yaml(path: Path, doc) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


def pipeline_doc(horizon=5.0):
    return {
        "defaults": {"horizon": horizon},
        "vertices": [
            {"id": "I", "kind": "input", "initial": 0},
            {"id": "n1", "kind": "boolean", "function": "buf", "delays": [0.1], "initial_inputs": [0]},
            {"id": "O", "kind": "output"},
        ],
        "edges": [["I", 0, "n1"], ["n1", 0, "O"]],
    }


class TestCircuitFiles:
    def test_minimal_file_builds(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", pipeline_doc())
        cf = load_circuit(str(path))
        assert set(cf.circuit.vertices) == {"I", "n1", "O"}
        assert cf.defaults["horizon"] == 5.0
        assert run("validate", path) == 0

    def test_all_presets_ship_and_validate(self):
        names = _preset_names()
        assert set(names) == {
            "advanced_nor", "fig3_feedback", "heater_loop", "idm_channel",
            "simple_nor", "sr_latch", "storage_loop",
        }
        for name in names:
            assert run("validate", f"preset:{name}") == 0, name

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        doc = pipeline_doc()
        doc["vertices"][1]["kind"] = "mystery"
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert run("validate", path) == 1
        assert "unknown kind 'mystery'" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path):
        doc = pipeline_doc()
        doc["vertices"][1]["wobble"] = 3
        assert run("validate", write_yaml(tmp_path / "c.yaml", doc)) == 1

    def test_duplicate_id_rejected(self, tmp_path):
        doc = pipeline_doc()
        doc["vertices"].append({"id": "I", "kind": "input"})
        assert run("validate", write_yaml(tmp_path / "c.yaml", doc)) == 1

    def test_edge_shape_checked(self, tmp_path):
        doc = pipeline_doc()
        doc["edges"].append(["I", "n1"])
        assert run("validate", write_yaml(tmp_path / "c.yaml", doc)) == 1

    def test_undefined_edge_endpoint_reported(self, tmp_path, capsys):
        doc = pipeline_doc()
        doc["edges"].append(["ghost", 0, "n1"])
        assert run("validate", write_yaml(tmp_path / "c.yaml", doc)) == 1
        assert "ghost" in capsys.readouterr().out

    def test_bad_defaults_rejected(self, tmp_path):
        doc = pipeline_doc()
        doc["defaults"]["bogus"] = 1
        assert run("validate", write_yaml(tmp_path / "c.yaml", doc)) == 1

    @pytest.mark.parametrize(
        "key, text, shown",
        [("horizon", "-1.0", "-1.0"), ("horizon", ".nan", "nan"), ("horizon", ".inf", "inf"),
         ("horizon", "0", "0"), ("horizon", "-1e-9", "'-1e-9'")],
    )
    @pytest.mark.parametrize("command", ["validate", "unroll"])
    def test_defaults_must_be_finite_and_positive(self, tmp_path, capsys, command, key, text, shown):
        doc = pipeline_doc()
        del doc["defaults"]
        path = tmp_path / "c.yaml"
        # written as text: PyYAML reads -1e-9 (no dot) as a string
        path.write_text(yaml.safe_dump(doc, sort_keys=False) + f"defaults: {{{key}: {text}}}\n")
        out = tmp_path / "out"
        extra = ["-k", 1, "--out-dir", out] if command == "unroll" else []
        assert run(command, path, *extra) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: defaults.{key} must be a finite positive number, got {shown}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, tmp_path, capsys, bad):
        doc = pipeline_doc()
        doc["vertices"][1].update(delays=[bad], tau_fast=1e-4)
        assert run("validate", write_yaml(tmp_path / "c.yaml", doc)) == 1
        assert "input delays must be finite and nonnegative" in capsys.readouterr().err
        # without tau_fast, which the factory derives from the delays
        doc = pipeline_doc()
        doc["vertices"][1].update(delays=[bad])
        assert run("validate", write_yaml(tmp_path / "d.yaml", doc)) == 1
        assert "input delays must be finite" in capsys.readouterr().err  # tmp_path says "finite"

    @pytest.mark.parametrize("bad", [0.0, math.nan])
    def test_advanced_nor_parameter_must_be_finite_and_positive(self, tmp_path, capsys, bad):
        doc = {
            "defaults": {"horizon": 5.0},
            "vertices": [
                {"id": "A", "kind": "input", "initial": 1},
                {"id": "B", "kind": "input", "initial": 1},
                {"id": "nor", "kind": "advanced_nor", "initial_inputs": [1, 1], "alpha1": bad},
                {"id": "O", "kind": "output"},
            ],
            "edges": [["A", 0, "nor"], ["B", 1, "nor"], ["nor", 0, "O"]],
        }
        assert run("validate", write_yaml(tmp_path / "c.yaml", doc)) == 1
        assert "alpha1 must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [0.0, math.nan])
    def test_simple_nor_parameter_must_be_finite_and_positive(self, tmp_path, capsys, bad):
        doc = {
            "defaults": {"horizon": 5.0},
            "vertices": [
                {"id": "A", "kind": "input", "initial": 1},
                {"id": "B", "kind": "input", "initial": 1},
                {"id": "nor", "kind": "simple_nor", "initial_inputs": [1, 1], "c": bad},
                {"id": "O", "kind": "output"},
            ],
            "edges": [["A", 0, "nor"], ["B", 1, "nor"], ["nor", 0, "O"]],
        }
        assert run("validate", write_yaml(tmp_path / "c.yaml", doc)) == 1
        err = capsys.readouterr().err
        assert f"vertex 'nor': c must be finite and positive, got {bad!r}" in err

    @pytest.mark.parametrize(
        "field, vertex",
        [
            ("initial", {"id": "I", "kind": "input"}),
            ("value", {"id": "n1", "kind": "const"}),
            ("initial_input", {"id": "n1", "kind": "idm"}),
            ("initial_inputs", {"id": "n1", "kind": "boolean", "function": "buf", "delays": [0.1]}),
            ("initial_output", {"id": "n1", "kind": "boolean", "function": "buf", "delays": [0.1]}),
        ],
    )
    def test_an_infinite_integer_field_is_named(self, tmp_path, capsys, field, vertex):
        doc = pipeline_doc()
        doc["vertices"][0 if vertex["id"] == "I" else 1] = {
            **vertex, field: [math.inf] if field == "initial_inputs" else math.inf
        }
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert run("validate", path) == 1
        # checked as a bit, not truncated by int(), so the field is named
        named = {"initial": "port initial value", "initial_inputs": "initial_inputs[0]"}.get(field, field)
        assert capsys.readouterr().err == (
            f"error: {path}: vertex {vertex['id']!r}: {named} must be a bit, got inf\n"
        )

    @pytest.mark.parametrize(
        "field, value, a",
        [
            ("c", 1e-155, "[[0.0, 0.0], [0.0, -2e+155]]"),
            ("r2", 1e-160, "[[-1e+160, 1e+160], [1e+160, -1e+160]]"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_a_simple_nor_whose_constants_overflow_is_named(self, tmp_path, capsys, command, field, value, a):
        doc = {
            "defaults": {"horizon": 5.0},
            "vertices": [
                {"id": "A", "kind": "input", "initial": 1},
                {"id": "B", "kind": "input", "initial": 1},
                {"id": "nor", "kind": "simple_nor", "initial_inputs": [1, 1], field: value},
                {"id": "O", "kind": "output"},
            ],
            "edges": [["A", 0, "nor"], ["B", 1, "nor"], ["nor", 0, "O"]],
        }
        path = write_yaml(tmp_path / "c.yaml", doc)
        out = tmp_path / "out"
        assert run(command, path, *(["--out-dir", out] if command == "simulate" else [])) == 1
        mode = {"c": "s11", "r2": "s10"}[field]  # the network whose constants overflow
        assert capsys.readouterr().err == (
            f"error: {path}: vertex 'nor': mode {mode!r}: affine mode a={a}, b=[0.0, 0.0] "
            "has constants beyond the floats\n"
        )
        assert not out.exists()

    def test_a_simple_nor_that_leaves_its_box_is_refused(self, tmp_path, capsys):
        # -(k1 + k2) rounds to -1.0, so the (0, 0) network is singular and
        # its state drifts out of the box: a validation failure, not a
        # numeric one, and no output is written
        doc = {
            "defaults": {"horizon": 5.0},
            "vertices": [
                {"id": "A", "kind": "input", "initial": 0},
                {"id": "B", "kind": "input", "initial": 0},
                {"id": "nor", "kind": "simple_nor", "initial_inputs": [0, 0], "r1": 1e20},
            ],
            "edges": [["A", 0, "nor"], ["B", 1, "nor"]],
        }
        path = write_yaml(tmp_path / "c.yaml", doc)
        out = tmp_path / "out"
        assert run("simulate", path, "--out-dir", out) == 1
        assert capsys.readouterr().err == (
            "error: vertex 'nor': mode 's00': the state space is not invariant: at the corner (1.010000000001, 1.010000000001),"
            " dx1/dt = 1e-20 points out through the face x1 = 1.010000000001\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "gate",
        [
            {"kind": "advanced_nor"},
            {"kind": "boolean", "function": "nor2", "delays": [0.1, 0.1], "tau_fast": 1e300},
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_a_box_bound_beyond_the_floats_is_named(self, tmp_path, capsys, command, gate):
        # 1.01 * v_dd overflows: refused when the box is built, not by a
        # traceback from the invariant proof at run time
        doc = {
            "defaults": {"horizon": 5.0},
            "vertices": [
                {"id": "A", "kind": "input", "initial": 1},
                {"id": "B", "kind": "input", "initial": 1},
                {"id": "nor", **gate, "initial_inputs": [1, 1], "v_dd": 1.78e308},
                {"id": "O", "kind": "output"},
            ],
            "edges": [["A", 0, "nor"], ["B", 1, "nor"], ["nor", 0, "O"]],
        }
        path = write_yaml(tmp_path / "c.yaml", doc)
        out = tmp_path / "out"
        assert run(command, path, *(["--out-dir", out] if command == "simulate" else [])) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: vertex 'nor': state-space interval (-1.7800000000000002e+306, inf) "
            "has a bound that is not finite\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_a_simple_nor_whose_rc_product_underflows_is_named(self, tmp_path, capsys, command):
        doc = {
            "defaults": {"horizon": 5.0},
            "vertices": [
                {"id": "A", "kind": "input", "initial": 1},
                {"id": "B", "kind": "input", "initial": 1},
                {"id": "nor", "kind": "simple_nor", "initial_inputs": [1, 1], "r1": 1e-310, "c_int": 1e-160},
                {"id": "O", "kind": "output"},
            ],
            "edges": [["A", 0, "nor"], ["B", 1, "nor"], ["nor", 0, "O"]],
        }
        path = write_yaml(tmp_path / "c.yaml", doc)
        out = tmp_path / "out"
        assert run(command, path, *(["--out-dir", out] if command == "simulate" else [])) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: vertex 'nor': c_int * r1 underflows to 0 (c_int=1e-160, r1=1e-310)\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "field, value, a, b",
        [("tau_fast", 1e-320, "[[-inf]]", "[0.0]"), ("v_dd", 1e308, "[[-10000.0]]", "[inf]")],
    )
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_a_boolean_whose_lag_constants_are_not_finite_is_named(
        self, tmp_path, capsys, command, field, value, a, b
    ):
        doc = pipeline_doc()
        doc["vertices"][1][field] = value
        path = write_yaml(tmp_path / "c.yaml", doc)
        out = tmp_path / "out"
        argv = ["--input", "I=pulse:1:1", "--out-dir", out] if command == "simulate" else []
        assert run(command, path, *argv) == 1
        mode = {"tau_fast": "low", "v_dd": "high"}[field]  # the first lag refused
        assert capsys.readouterr().err == (
            f"error: {path}: vertex 'n1': mode {mode!r}: affine mode a={a}, b={b} has non-finite constants\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_a_boolean_initial_output_that_is_not_a_bit_is_named(self, tmp_path, capsys, command):
        doc = pipeline_doc()
        doc["vertices"][1]["initial_output"] = 2
        path = write_yaml(tmp_path / "c.yaml", doc)
        out = tmp_path / "out"
        assert run(command, path, *(["--out-dir", out] if command == "simulate" else [])) == 1
        assert capsys.readouterr().err == f"error: {path}: vertex 'n1': initial_output must be a bit, got 2\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "vertex",
        [
            {"id": "n1", "kind": "boolean", "function": "buf", "delays": [0.1], "initial_inputs": [2]},
            {"id": "n1", "kind": "simple_nor", "delays": [0.1, 0.1], "initial_inputs": [2, 0]},
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_initial_inputs_that_are_not_bits_are_named(self, tmp_path, capsys, command, vertex):
        doc = pipeline_doc()
        doc["vertices"][1] = vertex
        path = write_yaml(tmp_path / "c.yaml", doc)
        out = tmp_path / "out"
        assert run(command, path, *(["--out-dir", out] if command == "simulate" else [])) == 1
        assert capsys.readouterr().err == f"error: {path}: vertex 'n1': initial_inputs[0] must be a bit, got 2\n"
        assert not out.exists()

    def test_a_bit_field_that_is_not_a_bit_is_refused_not_truncated(self, tmp_path, capsys):
        doc = {
            "vertices": [
                {"id": "a", "kind": "input", "initial": 0.5},
                {"id": "ch", "kind": "idm", "initial_input": 0.7},
                {"id": "O", "kind": "output"},
            ],
            "edges": [["a", 0, "ch"], ["ch", 0, "O"]],
        }
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert run("validate", path) == 1
        assert capsys.readouterr().err == f"error: {path}: vertex 'a': port initial value must be a bit, got 0.5\n"
        doc["vertices"][0]["initial"] = 1.0
        assert run("validate", write_yaml(tmp_path / "c.yaml", doc)) == 1
        assert capsys.readouterr().err == f"error: {path}: vertex 'ch': initial_input must be a bit, got 0.7\n"

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("validate", tmp_path / "nope.yaml") == 2

    def test_unknown_preset_is_io_error(self):
        assert run("validate", "preset:nosuch") == 2

    def test_malformed_yaml_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("vertices: [1\n")
        assert run("validate", path) == 2
        assert capsys.readouterr().err == (
            "error: cannot parse circuit file: while parsing a flow sequence\n"
            '  in "<unicode string>", line 1, column 11:\n'
            "    vertices: [1\n"
            "              ^\n"
            "expected ',' or ']', but got '<stream end>'\n"
            '  in "<unicode string>", line 2, column 1:\n'
            "    \n"
            "    ^\n"
        )

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_a_parse_error_is_worded_by_the_pure_python_parser(self, tmp_path, capsys, monkeypatch, libyaml):
        # libyaml reads this as "while scanning a plain scalar ... found a
        # tab character that violates indentation"
        if not libyaml:  # as on a PyYAML built without it
            monkeypatch.setattr(cli, "_yaml", lambda: (yaml, yaml.SafeDumper, yaml.SafeLoader))
        path = tmp_path / "tab.yaml"
        path.write_text("vertices: x\n\tedges: []\n")
        assert run("validate", path) == 2
        assert capsys.readouterr().err == (
            "error: cannot parse circuit file: while scanning for the next token\n"
            "found character '\\t' that cannot start any token\n"
            '  in "<unicode string>", line 2, column 1:\n'
            "    \tedges: []\n"
            "    ^\n"
        )

    def test_missing_subcommand_argument_is_usage_error(self):
        assert run("simulate") == 1


class TestSimulate:
    def test_matches_library_execution(self, tmp_path):
        out = tmp_path / "run"
        assert run("simulate", "preset:fig3_feedback", "--input", "I=pulse:1:2",
                   "--out-dir", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["horizon"] == 8.0
        assert set(summary["signals"]) == {"I", "A", "B", "C", "O"}

        cf = load_circuit("preset:fig3_feedback")
        ins = {"I": BinarySignal.pulse(1.0, 2.0, 8.0)}
        ex = execute(cf.circuit, ins, 8.0)
        for name, fname in summary["signals"].items():
            dumped = read_signal_csv(out / fname)
            assert dumped.transitions == ex.signals[name].transitions, name
        assert summary["event_count"] == ex.event_count
        hist = {d: c for d, c in summary["causal_depth_histogram"]}
        assert sum(hist.values()) == sum(len(r) for r in ex.records.values())

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "preset:fig3_feedback", "--input", "I=pulse:1:2",
                       "--out-dir", out) == 0
        for fa in sorted(a.iterdir()):
            assert fa.read_bytes() == (b / fa.name).read_bytes(), fa.name

    def test_ports_default_to_their_initial_value(self, tmp_path):
        out = tmp_path / "latch"
        assert run("simulate", "preset:sr_latch", "--out-dir", out) == 0
        q = read_signal_csv(out / "Q.csv")
        assert q.initial_value == 0 and q.transitions == ()

    def test_input_flag_must_name_a_port(self, tmp_path):
        assert run("simulate", "preset:sr_latch", "--input", "X=zero",
                   "--out-dir", tmp_path) == 1
        assert run("simulate", "preset:sr_latch", "--input", "garbage",
                   "--out-dir", tmp_path) == 1

    def test_event_cap_is_a_numeric_failure(self, tmp_path):
        assert run("simulate", "preset:heater_loop", "--event-cap", 5,
                   "--out-dir", tmp_path) == 3

    def test_horizon_flag_overrides_file_default(self, tmp_path):
        out = tmp_path / "short"
        assert run("simulate", "preset:idm_channel", "--horizon", 2.5,
                   "--out-dir", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["horizon"] == 2.5

    def test_signal_csv_round_trips_as_input(self, tmp_path):
        first = tmp_path / "first"
        assert run("simulate", "preset:fig3_feedback", "--input", "I=pulse:1:2",
                   "--out-dir", first) == 0
        path = write_yaml(tmp_path / "pipe.yaml", pipeline_doc(horizon=8.0))
        second = tmp_path / "second"
        assert run("simulate", path, "--input", f"I={first / 'O.csv'}",
                   "--out-dir", second) == 0
        echoed = read_signal_csv(second / "n1.csv")
        source = read_signal_csv(first / "O.csv")
        assert len(echoed.transitions) == len(source.transitions)

    def test_metadata_records_version_command_circuit_and_vertex(self, tmp_path):
        out = tmp_path / "meta"
        assert run("simulate", "preset:idm_channel", "--out-dir", out) == 0
        header = [line for line in (out / "O.csv").read_text().splitlines() if line.startswith("#")]
        assert header == [
            "# initial=0", "# horizon=12.0", f"# hybridgates={__version__}",
            "# command=simulate", "# circuit=preset:idm_channel", "# vertex=O",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == [
            "causal_depth_histogram", "circuit", "delta_min", "event_count", "horizon",
            "hybridgates", "iteration_times", "iterations", "signals", "trajectories",
            "transition_counts",
        ]

    @pytest.mark.parametrize(
        "where, name", [("flag", "--seed"), ("flag", "--rel-tol"), ("flag", "--abs-tol"),
                        ("flag", "--time-tol"), ("defaults", "rel_tol"), ("defaults", "time_tol")]
    )
    def test_solver_settings_are_gone(self, tmp_path, capsys, where, name):
        doc = pipeline_doc()
        flag = [name, 7] if where == "flag" else []
        if where == "defaults":
            doc["defaults"][name] = 1e-9
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert run("simulate", path, *flag, "--out-dir", tmp_path / "out") == 1
        if where == "flag":
            want = f"error: unrecognized arguments: {name} 7\n"
        else:
            want = f"error: {path}: unknown defaults [{name!r}]\n"
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("cap", [0, -5])
    def test_event_cap_must_be_at_least_one(self, tmp_path, capsys, cap):
        out = tmp_path / "out"
        assert run("simulate", "preset:storage_loop", "--input", "I=pulse:1:1",
                   "--event-cap", cap, "--out-dir", out) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: event_cap must be at least 1, got {cap}\n"
        assert captured.out == ""
        assert not out.exists()


class TestSweepPulse:
    def test_rows_follow_the_width_grid(self, tmp_path):
        out = tmp_path / "sweep"
        assert run("sweep-pulse", "preset:storage_loop", "--widths", "0.01:0.21:5",
                   "--out-dir", out) == 0
        rows = [line.split(",") for line in (out / "sweep_pulse.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        widths = [float(r[0]) for r in rows]
        assert widths == pytest.approx([0.01, 0.06, 0.11, 0.16, 0.21])
        norms = [float(r[1]) for r in rows]
        assert norms[0] == 0.0
        assert norms[-1] > 1.0

    def test_zero_width_rejected(self, tmp_path):
        assert run("sweep-pulse", "preset:storage_loop", "--widths", "0,0.5",
                   "--out-dir", tmp_path) == 1

    def test_bisection_hits_the_target_norm(self, tmp_path, capsys):
        out = tmp_path / "bisect"
        assert run("sweep-pulse", "preset:idm_channel", "--widths", "0.5:1.2:2",
                   "--target-norm", 0.3, "--out-dir", out) == 0
        printed = capsys.readouterr().out
        assert "bisection: width=" in printed
        rows = [line for line in (out / "sweep_pulse.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        width, norm, min_pulse, _last = (float(v) for v in rows[0].split(","))
        assert abs(norm - 0.3) <= 1e-6
        assert min_pulse <= 0.3 + 1e-6
        # the found width reproduces the closed-form response of the channel
        assert norm == pytest.approx(width + math.log(1.0 - math.exp(-width)), abs=1e-9)

    def test_bisection_across_the_storage_loop_latch_is_a_numeric_failure(self, tmp_path, capsys):
        # adjacent float widths give norms 2.31 and 26.63, so 10 is never met
        out = tmp_path / "out"
        assert run("sweep-pulse", "preset:storage_loop", "--widths", "0.01:0.06:2",
                   "--target-norm", 10, "--out-dir", out) == 3
        assert capsys.readouterr().err == "error: bisection did not reach the requested norm tolerance\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bisection_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        out = tmp_path / "out"
        assert run("sweep-pulse", "preset:idm_channel", "--widths", "0.5:1.2:2",
                   "--target-norm", 0.25, "--tol", tol, "--out-dir", out) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: tol must be positive and finite, got {float(tol)!r}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_needs_single_input_and_output(self, tmp_path):
        assert run("sweep-pulse", "preset:sr_latch", "--widths", "0.1,0.2",
                   "--out-dir", tmp_path) == 1


class TestSweepMis:
    def test_advanced_nor_slows_for_close_inputs(self, tmp_path):
        out = tmp_path / "adv"
        assert run("sweep-mis", "preset:advanced_nor", "--gaps", "0:5:6",
                   "--out-dir", out) == 0
        rows = [line.split(",") for line in (out / "sweep_mis.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        delays = [float(r[1]) for r in rows]
        assert all(a > b for a, b in zip(delays, delays[1:]))
        assert (max(delays) - min(delays)) / max(delays) > 0.05

    def test_simple_nor_is_flat(self, tmp_path):
        out = tmp_path / "simple"
        assert run("sweep-mis", "preset:simple_nor", "--gaps", "0:5:6",
                   "--out-dir", out) == 0
        rows = [line.split(",") for line in (out / "sweep_mis.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        delays = [float(r[1]) for r in rows]
        assert (max(delays) - min(delays)) / max(delays) < 0.01

    def test_one_gate_serves_every_gap(self, tmp_path, monkeypatch):
        # the file's circuit and the gate's one-gate circuit, however many gaps
        validated = []
        real = circuit_module.validate
        monkeypatch.setattr(circuit_module, "validate", lambda c: validated.append(c) or real(c))
        for gaps in ("0,1", "0:5:6"):
            validated.clear()
            assert run("sweep-mis", "preset:simple_nor", "--gaps", gaps, "--out-dir", tmp_path) == 0
            assert len(validated) == 2

    def test_requires_a_switching_nor_gate(self, tmp_path):
        assert run("sweep-mis", "preset:idm_channel", "--gaps", "0,1",
                   "--out-dir", tmp_path) == 1


class TestUnroll:
    def test_exactness_bounds_of_the_feedback_example(self, tmp_path):
        path = tmp_path / "un.yaml"
        assert run("unroll", "preset:fig3_feedback", "-k", 3, "--out", path) == 0
        doc = yaml.safe_load(path.read_text())
        assert "z_values" not in doc
        ids = {v["id"] for v in doc["vertices"]}
        assert ids == {"I", "X_0", "A^(2)", "B^(1)", "B^(2)", "C^(3)", "O^(3)"}

    def test_output_re_parses_validates_and_runs(self, tmp_path):
        path = tmp_path / "un.yaml"
        assert run("unroll", "preset:fig3_feedback", "-k", 2, "--out", path) == 0
        assert run("validate", path) == 0
        assert run("simulate", path, "--input", "I=pulse:1:2",
                   "--out-dir", tmp_path / "run") == 0

    def test_sink_required_when_ambiguous(self, tmp_path):
        assert run("unroll", "preset:sr_latch", "-k", 1,
                   "--out", tmp_path / "a.yaml") == 1
        assert run("unroll", "preset:sr_latch", "-k", 1, "--from", "Q",
                   "--out", tmp_path / "b.yaml") == 0

    def test_loop_cut_becomes_a_constant(self, tmp_path):
        path = tmp_path / "un.yaml"
        assert run("unroll", "preset:storage_loop", "-k", 2, "--out", path) == 0
        doc = yaml.safe_load(path.read_text())
        kinds = {v["id"]: v["kind"] for v in doc["vertices"]}
        assert "X_0" in kinds and kinds["X_0"] == "const"
        assert run("simulate", path, "--input", "I=pulse:1:5",
                   "--out-dir", tmp_path / "run") == 0


class TestSpfCheck:
    def test_storage_loop_filters_short_pulses(self, tmp_path, capsys):
        assert run("spf-check", "preset:storage_loop", "--widths", "0.01,0.2,0.6",
                   "--epsilon", 0.005, "--stab-bound", 2.0,
                   "--out-dir", tmp_path) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "short-pulse filter: OK" in out

    def test_transparent_buffer_is_rejected(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "pipe.yaml", pipeline_doc(horizon=5.0))
        assert run("spf-check", path, "--widths", "0.2,0.5",
                   "--epsilon", 0.4, "--stab-bound", 2.0,
                   "--out-dir", tmp_path) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "short-pulse filter: REJECTED" in out

    @pytest.mark.parametrize(
        "epsilon, stab_bound, message",
        [("nan", "2", "epsilon must be finite and positive, got nan"),
         ("0.005", "nan", "stabilization_bound must be finite and nonnegative, got nan")],
    )
    def test_non_finite_bound_is_an_error_not_a_verdict(self, tmp_path, capsys, epsilon, stab_bound,
                                                        message):
        assert run("spf-check", "preset:storage_loop", "--widths", "0.01:0.99:4",
                   "--epsilon", epsilon, "--stab-bound", stab_bound, "--out-dir", tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "hybridgates" in capsys.readouterr().out

    def test_importing_the_cli_loads_no_yaml_module(self):
        # a fresh interpreter, because this module imports yaml itself; a
        # circuit built from Python, as the benchmark's are, parses no YAML
        out = run_fresh_python(
            "import sys\n"
            "import hybridgates.cli as cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('yaml', '_yaml')))\n"
            "print(sorted(cli.load_circuit('preset:storage_loop').circuit.vertices))\n"
        )
        assert out == "[]\n['I', 'O', 'keep']\n"

    def test_every_preset_runs_without_scipy(self, tmp_path):
        # a fresh interpreter in which importing numpy or scipy fails, as in
        # an install without the test extra: every gate factory builds, every
        # preset runs with a staggered pulse on each input (as
        # preset_stimulus) and is simulated with its trajectories dumped,
        # both NORs are swept, and a pulse sweep (by grid and by bisection),
        # an SPF check and an unrolling run
        commands = [
            *([["simulate", f"preset:{name}", "--dump-trajectories"], name] for name in _preset_names()),
            *([["sweep-mis", f"preset:{nor}", "--gaps", "0:5:6"], f"mis-{nor}"]
              for nor in ("simple_nor", "advanced_nor")),
            [["sweep-pulse", "preset:storage_loop", "--widths", "0.01:0.99:8"], "sweep-pulse"],
            [["sweep-pulse", "preset:idm_channel", "--widths", "0.5:1.2:2", "--target-norm", "0.25"], "bisect"],
            [["spf-check", "preset:storage_loop", "--widths", "0.01:0.99:20", "--epsilon", "0.005",
              "--stab-bound", "2"], "spf-check"],
            [["unroll", "preset:fig3_feedback", "-k", "2"], "unroll"],
        ]
        out = run_fresh_python(
            "import sys\n"
            "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
            "import hybridgates\n"
            "from hybridgates import gates\n"
            "from hybridgates.cli import _preset_names, load_circuit, main\n"
            "from hybridgates.signals import BinarySignal\n"
            "gates.make_boolean_gate('nand2', [0.1, 0.1]), gates.make_const_gate(1), gates.make_idm_channel()\n"
            "gates.make_heater_plant(), gates.make_simple_nor(), gates.make_advanced_nor()\n"
            "for name in _preset_names():\n"
            "    cf = load_circuit(f'preset:{name}')\n"
            "    h, ports = cf.defaults['horizon'], cf.circuit.input_ports().items()\n"
            "    inputs = {n: BinarySignal(p.initial_value, ((1.0 + 0.3 * i, 1 - p.initial_value),\n"
            "                              (3.0 + 0.7 * i, p.initial_value)), h) for i, (n, p) in enumerate(ports)}\n"
            "    hybridgates.execute(cf.circuit, inputs, h)\n"
            f"out = {str(tmp_path)!r}\n"
            f"print([main([*argv, '--out-dir', f'{{out}}/{{d}}']) for argv, d in {commands!r}])\n"
        )
        assert out.splitlines()[-1] == repr([0] * len(commands))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(d for _, d in commands)


# each subcommand with its required arguments; {out} is an output directory
_COMMANDS = {
    "validate": ["preset:storage_loop"],
    "simulate": ["preset:storage_loop", "--out-dir", "{out}"],
    "sweep-pulse": ["preset:storage_loop", "--widths", "0.1,0.2", "--out-dir", "{out}"],
    "sweep-mis": ["preset:simple_nor", "--gaps", "0,1", "--out-dir", "{out}"],
    "unroll": ["preset:fig3_feedback", "-k", "1", "--out-dir", "{out}"],
    "spf-check": ["preset:storage_loop", "--widths", "0.1,0.2", "--epsilon", "0.005",
                  "--stab-bound", "2", "--out-dir", "{out}"],
}


class TestArguments:
    @pytest.mark.parametrize(
        "command, flag, value",
        [(command, "--jobs", "2") for command in _COMMANDS]
        + [("validate", "--horizon", "3"), ("validate", "--time-tol", "1e-9"),
           ("validate", "--out-dir", "{out}"), ("unroll", "--horizon", "3"),
           ("unroll", "--time-tol", "1e-9"), ("sweep-mis", "--horizon", "0.001")],
    )
    def test_a_flag_the_subcommand_does_not_read_is_rejected(self, tmp_path, capsys, command, flag, value):
        out = str(tmp_path / "out")
        argv = [a.format(out=out) for a in [command, *_COMMANDS[command], flag, value]]
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: unrecognized arguments: {flag} {value.format(out=out)}\n"
        assert captured.out == ""
        assert not Path(out).exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep-pulse", "--widths", "0.1,0.2", "--pulse-start", "nan"],
             "pulse start must be finite, got nan"),
            (["sweep-pulse", "--widths", "0.1,0.2", "--pulse-start", "inf"],
             "pulse start must be finite, got inf"),
            (["sweep-pulse", "--widths", "nan"], "--widths: values must be finite, got nan"),
            (["sweep-pulse", "--widths", "0.01:inf:4"], "--widths: values must be finite, got inf"),
            (["simulate", "--input", "I=pulse:nan:0.5"], "pulse start must be finite, got nan"),
            (["simulate", "--input", "I=pulse:1:nan"],
             "pulse width must be finite and positive, got nan"),
        ],
    )
    def test_non_finite_pulse_is_named(self, tmp_path, capsys, argv, message):
        assert run(argv[0], "preset:storage_loop", *argv[1:], "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "spec, message",
        [("1:2", "expected LO:HI:COUNT, got '1:2'"), ("0.5:0.1:3", "range is empty ('0.5:0.1:3')"),
         ("0.1:0.5:1", "a range needs at least 2 points")],
    )
    def test_bad_grid_is_named_once(self, tmp_path, capsys, spec, message):
        assert run("sweep-pulse", "preset:storage_loop", "--widths", spec,
                   "--out-dir", tmp_path) == 1
        assert capsys.readouterr().err == f"error: --widths: {message}\n"


    @pytest.mark.parametrize(
        "argv, message",
        [(["sweep-mis", "preset:advanced_nor", "--gaps", "-2:2:5"],
          "--gaps: values must be nonnegative, got -2.0"),
         (["sweep-pulse", "preset:storage_loop", "--widths", "-0.5,0.2"],
          "--widths: values must be positive, got -0.5")],
    )
    def test_a_grid_that_starts_negative_is_a_value(self, tmp_path, capsys, argv, message):
        # as a separate word, not only in the --gaps=-2:2:5 form
        for args in (argv, [*argv[:2], f"{argv[2]}={argv[3]}"]):
            assert run(*args, "--out-dir", tmp_path) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())


def one_gate_doc(kind, **fields):
    """input -> one gate of ``kind`` with ``fields`` -> output."""
    return {
        "defaults": {"horizon": 5.0},
        "vertices": [
            {"id": "I", "kind": "input", "initial": 1 if kind == "heater" else 0},
            {"id": "g", "kind": kind, **fields},
            {"id": "O", "kind": "output"},
        ],
        "edges": [["I", 0, "g"], ["g", 0, "O"]],
    }


# the gate kinds' required fields, and the factory call that builds the
# same gate with every default
_REQUIRED_AND_FACTORY = {
    "const": ({"value": 1}, lambda: make_const_gate(1)),
    "boolean": ({"function": "nor2", "delays": [0.1, 0.2]}, lambda: make_boolean_gate("nor2", (0.1, 0.2))),
    "idm": ({}, make_idm_channel),
    "heater": ({}, make_heater_plant),
    "simple_nor": ({}, make_simple_nor),
    "advanced_nor": ({}, make_advanced_nor),
}


class TestVertexKinds:
    def test_accepted_and_required_fields(self):
        nor = {"delays", "initial_inputs", "c", "v_dd"}
        assert {kind: (allowed, required) for kind, (_, allowed, required) in _KINDS.items()} == {
            "input": ({"initial"}, set()),
            "output": (set(), set()),
            "const": ({"value", "v_dd"}, {"value"}),
            "boolean": (
                {"function", "delays", "tau_fast", "initial_inputs", "initial_output", "v_dd"},
                {"function", "delays"},
            ),
            "idm": ({"tau", "delta_min", "xi", "initial_input"}, set()),
            "heater": ({"delta", "xi", "initial_input", "initial_state"}, set()),
            "simple_nor": (nor | {"r1", "r2", "r3", "r4", "c_int"}, set()),
            "advanced_nor": (nor | {"alpha1", "alpha2", "r", "r_na", "r_nb"}, set()),
        }

    @pytest.mark.parametrize("kind", sorted(_REQUIRED_AND_FACTORY))
    def test_required_fields_alone_build_the_factory_default(self, kind):
        required, factory = _REQUIRED_AND_FACTORY[kind]
        cf = parse_circuit_data({"vertices": [{"id": "g", "kind": kind, **required}]}, "file")
        got, want = cf.circuit.vertices["g"], factory()
        for attr in ("initial_state", "input_delays", "initial_inputs", "threshold", "state_space"):
            assert getattr(got, attr) == getattr(want, attr), attr

    @pytest.mark.parametrize(
        "kind, fields, missing",
        [("const", {}, "value"), ("boolean", {"function": "buf"}, "delays")],
    )
    def test_missing_required_field_is_named(self, tmp_path, capsys, kind, fields, missing):
        path = write_yaml(tmp_path / "c.yaml", one_gate_doc(kind, **fields))
        assert run("validate", path) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: vertex 'g' ({kind}) is missing fields [{missing!r}]\n"

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("heater", "xi", math.nan, "threshold xi must be finite"),
            ("heater", "xi", math.inf, "threshold xi must be finite"),
            ("boolean", "tau_fast", math.inf, "tau_fast must be finite and positive"),
            ("boolean", "tau_fast", -math.inf, "tau_fast must be finite and positive"),
            ("boolean", "tau_fast", math.nan, "tau_fast must be finite and positive"),
            ("idm", "tau", math.nan, "tau must be finite and positive"),
            ("idm", "tau", math.inf, "tau must be finite and positive"),
        ],
    )
    def test_non_finite_parameter_is_named(self, tmp_path, capsys, kind, field, value, message):
        fields = {"function": "buf", "delays": [0.1]} if kind == "boolean" else {}
        path = write_yaml(tmp_path / "c.yaml", one_gate_doc(kind, **fields, **{field: value}))
        assert run("simulate", path, "--out-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: vertex 'g': {message}, got {value!r}\n"

    @pytest.mark.parametrize("kind, field", [("idm", "delta_min"), ("heater", "delta")])
    def test_a_zero_delay_is_named_by_its_field(self, tmp_path, capsys, kind, field):
        # refused by the factory, not reported as a nonpositive-delay finding
        path = write_yaml(tmp_path / "c.yaml", one_gate_doc(kind, **{field: 0}))
        assert run("validate", path) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: vertex 'g': {field} must be finite and positive, got 0.0\n"

    def test_gate_error_names_the_vertex_once(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "c.yaml", one_gate_doc("heater", initial_state=math.nan))
        assert run("simulate", path, "--out-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: vertex 'g': initial state outside the state space\n"

    def test_list_kind_is_an_unknown_kind(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "c.yaml", one_gate_doc(["input"]))
        assert run("validate", path) == 1
        known = "advanced_nor, boolean, const, heater, idm, input, output, simple_nor"
        err = capsys.readouterr().err
        assert err == f"error: {path}: vertex 'g' has unknown kind ['input'] (known: {known})\n"

    def test_non_string_field_names_are_listed(self, tmp_path, capsys):
        doc = one_gate_doc("idm", wobble=1)
        doc["vertices"][1][2] = 3
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert run("validate", path) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: vertex 'g' (idm) has unknown fields [2, 'wobble']\n"

    def test_depth_budgets_of_an_old_unroll_file_are_refused(self, tmp_path, capsys):
        # files written by earlier versions of ``hybridgates unroll`` carry
        # a ``z_values`` key, which no longer means anything
        doc = one_gate_doc("idm")
        doc["z_values"] = {"I": float("inf"), "g": 1.0}
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert run("validate", path) == 1
        assert capsys.readouterr().err == f"error: {path}: unknown top-level keys ['z_values']\n"
