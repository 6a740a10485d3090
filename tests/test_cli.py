"""End-to-end checks of the command-line interface."""

import json
import math
from pathlib import Path

import pytest
import yaml

from hybridgates.circuit import execute
from hybridgates.cli import _preset_names, load_circuit, main
from hybridgates.signals import BinarySignal, read_signal_csv


def run(*argv):
    return main([str(a) for a in argv])


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, tmp_path, capsys, bad):
        doc = pipeline_doc()
        doc["vertices"][1].update(delays=[bad], tau_fast=1e-4)
        assert run("validate", write_yaml(tmp_path / "c.yaml", doc)) == 1
        assert "finite" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("validate", tmp_path / "nope.yaml") == 2

    def test_unknown_preset_is_io_error(self):
        assert run("validate", "preset:nosuch") == 2

    def test_malformed_yaml_is_io_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("vertices: [1\n")
        assert run("validate", path) == 2

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
                       "--seed", 11, "--out-dir", out) == 0
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

    def test_metadata_records_tolerances_and_seed(self, tmp_path):
        out = tmp_path / "meta"
        assert run("simulate", "preset:idm_channel", "--time-tol", 1e-6,
                   "--seed", 7, "--out-dir", out) == 0
        text = (out / "O.csv").read_text()
        assert "# time_tol=1e-06" in text
        assert "# seed=7" in text
        assert "# hybridgates=" in text


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

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for out, jobs in ((serial, 1), (parallel, 3)):
            assert run("sweep-pulse", "preset:storage_loop", "--widths", "0.02,0.05,0.2",
                       "--jobs", jobs, "--out-dir", out) == 0
        assert (serial / "sweep_pulse.csv").read_bytes() == (parallel / "sweep_pulse.csv").read_bytes()

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

    def test_requires_a_switching_nor_gate(self, tmp_path):
        assert run("sweep-mis", "preset:idm_channel", "--gaps", "0,1",
                   "--out-dir", tmp_path) == 1


class TestUnroll:
    def test_exactness_bounds_of_the_feedback_example(self, tmp_path):
        path = tmp_path / "un.yaml"
        assert run("unroll", "preset:fig3_feedback", "-k", 3, "--out", path) == 0
        doc = yaml.safe_load(path.read_text())
        assert doc["z_values"] == {
            "X_0": 0.0, "B^(1)": 1.0, "B^(2)": 2.0, "C^(3)": 3.0, "O^(3)": 3.0,
            "I": math.inf, "A^(2)": math.inf,
        }
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


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "hybridgates" in capsys.readouterr().out
