import importlib
import inspect
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

import qrot
from qrot import cli, experiments, tomography
from qrot.bloch import normalize
from qrot.circuit import MAX_QUBITS
from qrot.cli import MAX_BATCH_VECTORS, main
from qrot.experiments import MAX_SWEEP_RECORDS
from qrot.multirot import ExtractedVector, VectorBatch


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestErpCommand:
    def test_worked_example_values(self, capsys):
        code, out, _ = run(capsys, "erp", "--axis", "2,1,1", "--angle", "1.5708")
        assert code == 0
        assert "a=0.707" in out
        assert "b=0.577" in out
        assert "c=0.288" in out and "d=0.288" in out

    def test_identity_rotation(self, capsys):
        code, out, _ = run(capsys, "erp", "--axis", "0,0,1", "--angle", "0")
        assert code == 0
        assert "a=1.000000" in out
        assert "b=0.000000" in out

    def test_zero_axis_is_usage_error(self, capsys):
        code, _, err = run(capsys, "erp", "--axis", "0,0,0", "--angle", "1")
        assert code == 2
        assert "error" in err

    def test_malformed_axis_is_usage_error(self, capsys):
        code, _, err = run(capsys, "erp", "--axis", "1,2", "--angle", "1")
        assert code == 2

    def test_tomography_arm(self, capsys, tmp_path):
        out_path = tmp_path / "erp.json"
        code, out, _ = run(capsys, "erp", "--axis", "2,1,1", "--angle", "90",
                           "--degrees", "--shots", "2000", "--seed", "5",
                           "--out", str(out_path))
        assert code == 0
        assert "tomography" in out and "delta" in out
        payload = json.loads(out_path.read_text())
        assert payload["tomography"] is not None
        assert abs(payload["classical"][0] - math.cos(math.pi / 4)) < 1e-9

    def test_degrees_matches_radians(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "erp", "--axis", "2,1,1", "--angle", "90", "--degrees",
            "--out", str(a))
        run(capsys, "erp", "--axis", "2,1,1", "--angle", repr(math.pi / 2.0),
            "--out", str(b))
        assert json.loads(a.read_text()) == json.loads(b.read_text())


class TestRotateCommand:
    def test_worked_example(self, capsys, tmp_path):
        out_path = tmp_path / "rot.json"
        code, out, _ = run(capsys, "rotate", "--axis", "2,1,1", "--angle", "90",
                           "--degrees", "--vector", "1,1,1", "--shots", "20000",
                           "--seed", "7", "--out", str(out_path))
        assert code == 0
        assert "warning: input vector normalized from length 1.73205\n" in out
        payload = json.loads(out_path.read_text())
        assert payload["angle_deg"] < 1.5
        assert abs(payload["oracle"][0] - 0.7698) < 1e-3
        assert payload["input_norm"] == pytest.approx(math.sqrt(3.0))

    def test_artifact_bytes_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["rotate", "--axis", "2,1,1", "--angle", "90", "--degrees",
                "--vector", "0,1,0", "--shots", "500", "--seed", "3"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_point_vector(self, capsys, tmp_path):
        out_path = tmp_path / "fixed.json"
        code, _, _ = run(capsys, "rotate", "--axis", "0,0,1", "--angle", "1.2",
                         "--vector", "0,0,1", "--shots", "2000", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["oracle"] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_bad_noise_preset(self, capsys):
        code, _, err = run(capsys, "rotate", "--axis", "0,0,1", "--angle", "1",
                           "--vector", "1,0,0", "--noise", "loud")
        assert code == 2

    def test_explicit_noise_triple(self, capsys):
        code, _, _ = run(capsys, "rotate", "--axis", "0,0,1", "--angle", "1",
                         "--vector", "1,0,0", "--shots", "500",
                         "--noise", "0.001,0.01,0.02")
        assert code == 0


    @pytest.mark.parametrize("flag", ["--axis", "--vector"])
    def test_non_numeric_triple_is_usage_error(self, capsys, flag):
        args = {"--axis": "0,0,1", "--vector": "1,0,0", flag: "1,one,0"}
        code, _, err = run(capsys, "rotate", "--axis", args["--axis"], "--angle", "1",
                           "--vector", args["--vector"])
        assert code == 2
        assert f"{flag[2:]} must be numeric" in err

    @pytest.mark.parametrize("flag", ["--axis", "--vector"])
    def test_huge_components_normalize(self, capsys, flag):
        # |v|^2 overflowed: "normalized from length inf", then exit 2 with
        # "zero vector has no direction".
        args = {"--axis": "0,0,1", "--vector": "1,0,0", flag: "1e200,1e200,0"}
        code, out, err = run(capsys, "rotate", "--axis", args["--axis"], "--angle", "1",
                             "--vector", args["--vector"], "--shots", "1000")
        assert code == 0, err
        assert "normalized from length 1.41421e+200\n" in out

    @pytest.mark.parametrize("flag, line", [
        ("--axis", "note: axis normalized from length 1.41421e-200\n"),
        ("--vector", "warning: input vector normalized from length 1.41421e+200\n"),
    ], ids=["axis-note", "rotate-warning"])
    def test_length_printed_to_six_significant_digits(self, capsys, flag, line):
        # With {:.6f} a 1e-200-scale axis printed "0.000000" and a 1e200-scale
        # vector all 201 digits of its length.
        args = {"--axis": "0,0,1", "--vector": "1,0,0",
                flag: "1e-200,1e-200,0" if flag == "--axis" else "1e200,1e200,0"}
        code, out, err = run(capsys, "rotate", "--axis", args["--axis"], "--angle", "1",
                             "--vector", args["--vector"], "--shots", "1000")
        assert code == 0, err
        assert line in out


class TestSweepCommand:
    def test_small_sweep_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--trials", "1", "--points", "1",
                           "--shots-min", "200", "--shots-max", "200",
                           "--backends", "noiseless", "--seed", "1",
                           "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "backend,trial,shots,metric,value"
        assert len(lines) == 3  # one trial, one grid point, two metrics
        assert lines[1].startswith("noiseless,0,200,gate_fidelity,")
        assert lines[2].startswith("noiseless,0,200,angle_deg,")

    def test_row_count_scales(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--trials", "2", "--points", "3",
                         "--shots-min", "200", "--shots-max", "800",
                         "--backends", "noiseless,nisq-lite", "--seed", "1",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 3 * 2

    def test_reproducible_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--trials", "1", "--points", "2", "--shots-min", "200",
                "--shots-max", "500", "--backends", "nisq-lite", "--seed", "9"]
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--trials", "1", "--points", "1",
                           "--shots-min", "200", "--shots-max", "200",
                           "--backends", "noiseless",
                           "--out", str(tmp_path / "missing" / "s.csv"))
        assert code == 3
        assert "i/o error" in err

    def test_unknown_backend(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--backends", "belem",
                         "--out", str(tmp_path / "s.csv"))
        assert code == 2

    def test_repeated_backend_is_usage_error(self, capsys, tmp_path):
        # Each backend's records and summary line appear once.
        code, out, err = run(capsys, "sweep", "--trials", "1", "--points", "2",
                             "--shots-min", "200", "--shots-max", "400",
                             "--backends", "noiseless,noiseless", "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert out == "" and err == "error: backend 'noiseless' is named more than once\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("backends", ["", " , "])
    def test_no_backend_is_usage_error(self, capsys, tmp_path, backends):
        code, _, err = run(capsys, "sweep", "--backends", backends,
                           "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "no backend" in err
        assert not (tmp_path / "s.csv").exists()

    def test_json_format_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "sweep", "--trials", "1", "--points", "1",
                "--shots-min", "200", "--shots-max", "200",
                "--format", "json", "--out", str(tmp_path / "s.csv"))
        assert exc.value.code == 2

    def test_more_points_than_shot_counts_is_usage_error(self, capsys, tmp_path):
        # np.geomspace would allocate all 10**12 points before deduplicating
        code, _, err = run(capsys, "sweep", "--trials", "1", "--points", str(10**12),
                           "--backends", "noiseless", "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "invalid shot grid" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("size", [
        # 10**12 grid points would reach np.geomspace as 8 TB.
        ("--shots-max", "2000000000000", "--points", "1000000000000"),
        # 10**12 trials of the default grid would reach the draws.
        ("--trials", "1000000000000")])
    def test_oversized_sweep_is_usage_error(self, capsys, tmp_path, monkeypatch, size):
        calls = []
        monkeypatch.setattr(tomography, "_sample_rows", lambda *args, **kwargs: calls.append(args))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "sweep", *size, "--backends", "noiseless",
                                 "--out", str(tmp_path / "s.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert f"the {MAX_SWEEP_RECORDS} records" in err
        assert calls == []
        assert peak < 2**20, f"peaked at {peak / 2**20:.1f} MiB"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("shots_max", [str(2**53 + 1), str(2**63 - 1), "1" + "0" * 30])
    def test_shot_grid_past_float64_integers_is_usage_error(self, capsys, tmp_path, shots_max):
        # Past 2**53 the float64 grid would lose integers, overflow int64 or
        # fail to convert at all.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sweep", "--shots-min", "200", "--shots-max", shots_max,
                                 "--points", "3", "--trials", "1", "--backends", "noiseless",
                                 "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "2**53" in err
        assert not (tmp_path / "s.csv").exists()


class TestDrawBound:
    """A command that would draw more than ``tomography.MAX_DRAW_WORDS``
    shots in one draw is a usage error, raised before any draw and before
    any artifact is written."""

    ROTATE = ["--axis", "0,0,1", "--angle", "1"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--shots-max", str(2**53), "--points", "3", "--trials", "1",
         "--backends", "noiseless"],
        ["rotate", *ROTATE, "--vector", "1,0,0", "--shots", "100000000000"],
        # 9e8 data shots fit; the calibration's 6e8 do not
        ["rotate", *ROTATE, "--vector", "1,0,0", "--shots", "300000000",
         "--noise", "nisq-lite", "--mitigate"],
        ["multi", *ROTATE, "--vectors", "{vectors}", "--shots", "1000000000"],
        ["example", "--shots", "100000000000"],
        ["erp", *ROTATE, "--shots", "100000000000"]],
        ids=["sweep", "rotate", "rotate-mitigated", "multi", "example", "erp"])
    def test_oversized_draw_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(tomography, "_sample_rows", lambda *args, **kwargs: calls.append(args))
        vectors = tmp_path / "vectors.json"
        vectors.write_text("[[1, 0, 0], [0, 1, 0]]")
        out_path = tmp_path / "artifact"
        argv = [a.format(vectors=vectors) for a in argv] + ["--out", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert f"more than the {tomography.MAX_DRAW_WORDS} (2**30)" in err
        assert calls == []
        assert not out_path.exists()


class TestMultiCommand:
    def _vector_file(self, tmp_path, payload):
        path = tmp_path / "vectors.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_batch_of_four(self, capsys, tmp_path):
        vecs = self._vector_file(tmp_path, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                            [0.577350269, 0.577350269, 0.577350269]])
        out_path = tmp_path / "multi.json"
        code, out, _ = run(capsys, "multi", "--vectors", vecs, "--axis", "2,1,1",
                           "--angle", "90", "--degrees", "--shots", "1000",
                           "--seed", "7", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["vectors"]) == 4
        assert all(e["extracted"] is not None for e in payload["vectors"])

    def test_single_vector(self, capsys, tmp_path):
        vecs = self._vector_file(tmp_path, [[0, 0, 1]])
        out_path = tmp_path / "multi.json"
        code, _, _ = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                         "--angle", "0.5", "--shots", "500", "--out", str(out_path))
        assert code == 0
        assert len(json.loads(out_path.read_text())["vectors"]) == 1

    def test_non_unit_vector_warns(self, capsys, tmp_path):
        vecs = self._vector_file(tmp_path, [[2, 0, 0]])
        code, out, _ = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                           "--angle", "0.5", "--shots", "500")
        assert code == 0
        assert "warning: vector 1 normalized from length 2\n" in out

    def test_tiny_vector_length_printed_to_six_significant_digits(self, capsys, tmp_path):
        # With {:.6f} the warning read "normalized from length 0.000000".
        vecs = self._vector_file(tmp_path, [[1e-200, 1e-200, 0]])
        code, out, err = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                             "--angle", "0.5", "--shots", "500")
        assert code == 0, err
        assert "warning: vector 1 normalized from length 1.41421e-200\n" in out

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        vecs = self._vector_file(tmp_path, '[[1, 0, 0],\n [0, bad, 0]]')
        code, _, err = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                           "--angle", "0.5")
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("payload", [{"x": [0, 0, 1]}, [], 3], ids=["object", "empty", "number"])
    def test_not_a_non_empty_array_is_usage_error(self, capsys, tmp_path, payload):
        vecs = self._vector_file(tmp_path, payload)
        code, _, err = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                           "--angle", "0.5")
        assert code == 2
        assert "expected a non-empty JSON array" in err

    def test_wrong_shape_entry(self, capsys, tmp_path):
        vecs = self._vector_file(tmp_path, [[1, 0], [0, 1, 0]])
        code, _, err = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                           "--angle", "0.5")
        assert code == 2
        assert "entry 1" in err


    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "vectors.json"
        path.write_bytes(b"\xff\xfe[\x00[\x001\x00]\x00]\x00")
        code, _, err = run(capsys, "multi", "--vectors", str(path), "--axis", "0,0,1",
                           "--angle", "0.5")
        assert code == 2
        assert "UTF-8" in err

    def test_deeply_nested_file_is_usage_error(self, capsys, tmp_path):
        vecs = self._vector_file(tmp_path, "[" * 100_000)
        code, _, err = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                           "--angle", "0.5")
        assert code == 2
        assert "nested" in err

    def test_huge_integer_component_is_usage_error(self, capsys, tmp_path):
        # an integer beyond the float range used to escape as an OverflowError
        vecs = self._vector_file(tmp_path, "[[0, 0, 1], [1" + "0" * 400 + ", 0, 0]]")
        code, _, err = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                           "--angle", "0.5")
        assert code == 2
        assert "entry 2" in err

    def test_batch_limit_is_the_circuit_width_limit(self, capsys, tmp_path, monkeypatch):
        assert MAX_BATCH_VECTORS == 1 << (MAX_QUBITS - 1) == 2048
        VectorBatch(np.tile([0.0, 0.0, 1.0], (MAX_BATCH_VECTORS, 1)))
        calls = []
        monkeypatch.setattr(tomography, "_sample_rows", lambda *args, **kwargs: calls.append(args))
        vecs = self._vector_file(tmp_path, [[0, 0, 1]] * (MAX_BATCH_VECTORS + 1))
        code, _, err = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                           "--angle", "0.5", "--shots", "500")
        assert code == 2
        assert "at most 2048 vectors" in err
        assert calls == []

    @pytest.mark.parametrize("payload, out, err", [
        ("[[2, 0, 0], [0, 0, 0], [1, 0], [0, 3, 0]]",
         "warning: vector 1 normalized from length 2\n", "zero vector has no direction"),
        ("[[2, 0, 0], [1, 0], [0, 0, 0]]",
         "warning: vector 1 normalized from length 2\n",
         "<path>: entry 2 is not an [x, y, z] triple"),
        ("[[0, 0, 3], [1e400, 0, 0], [0, 0, 0]]",
         "warning: vector 1 normalized from length 3\n", "vector components must be finite"),
        ("[[0, 0, 1], [1" + "0" * 400 + ", 0, 0], [0, 0, 0]]",
         "", "<path>: entry 2 has a component too large for a float"),
        ("[[0.5, 0, 0], [0, 0, 0.25], [NaN, 0, 0], [1, 0]]",
         "warning: vector 1 normalized from length 0.5\n"
         "warning: vector 2 normalized from length 0.25\n", "vector components must be finite"),
        ("[[0, 0, 0], [1, 0]]", "", "zero vector has no direction"),
        ("[[3, 0, 0], [0, 0, 1], [0, 4, 0], [true, 0, 0]]",
         "warning: vector 1 normalized from length 3\n"
         "warning: vector 3 normalized from length 4\n",
         "<path>: entry 4 is not an [x, y, z] triple"),
        ("[[1e-200, 0, 0], [-1e-320, 0, 0], [0, 0, 0]]",
         "warning: vector 1 normalized from length 1e-200\n"
         "warning: vector 2 normalized from length 9.99989e-321\n",
         "zero vector has no direction"),
        ("[[1e300, 1e300, 0], [0, 0, 1], \"x\"]",
         "warning: vector 1 normalized from length 1.41421e+300\n",
         "<path>: entry 3 is not an [x, y, z] triple"),
    ], ids=["zero-before-malformed", "malformed-before-zero", "inf-before-zero",
            "overflow-before-zero", "nan-after-two-warnings", "zero-first",
            "bool-after-two-warnings", "tiny-then-zero", "huge-then-malformed"])
    def test_first_bad_entry_wins_after_earlier_warnings(self, capsys, tmp_path, payload,
                                                         out, err):
        # As if each entry were loaded in turn: earlier warnings, then the first error.
        vecs = self._vector_file(tmp_path, payload)
        code, stdout, stderr = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                                   "--angle", "0.5", "--shots", "200")
        assert (code, stdout, stderr) == (2, out, f"error: {err.replace('<path>', vecs)}\n")

    def test_loaded_vectors_equal_one_normalize_each(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-320, 300, size=(40, 1))
        unit = rng.normal(size=(6, 3))
        rows[::7] = unit / np.linalg.norm(unit, axis=1, keepdims=True)
        vecs = self._vector_file(tmp_path, rows.tolist())
        loaded = cli._load_vectors(vecs)
        warned = capsys.readouterr().out.splitlines()
        expected = [normalize(row) for row in rows]
        assert loaded.tobytes() == np.array([unit for unit, _ in expected]).tobytes()
        assert warned == [f"warning: vector {k} normalized from length {norm:.6g}"
                          for k, (_, norm) in enumerate(expected, start=1)
                          if abs(norm - 1.0) > 1e-9]

    def test_boolean_components_rejected(self, capsys, tmp_path):
        vecs = self._vector_file(tmp_path, [[0, 1, 0], [True, False, False]])
        code, _, err = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                           "--angle", "0.5", "--shots", "500")
        assert code == 2
        assert "entry 2" in err


    @pytest.mark.parametrize("patched", [False, True], ids=["drawn", "patched"])
    def test_vector_lines_keep_their_format(self, capsys, tmp_path, monkeypatch, patched):
        # The per-vector lines as first printed, with f-strings; the CLI now
        # prints them with one % format and must keep every byte.
        def reference(e):
            if e["extracted"] is None:
                return f"  #{e['index']}: FAILED ({e['error']})"
            flag = "  [under-sampled]" if e["under_sampled"] else ""
            return (f"  #{e['index']}: {cli._fmt_vec(e['extracted'])} vs oracle "
                    f"{cli._fmt_vec(e['oracle'])}  diff {e['angle_deg']:.4f} deg "
                    f"({e['samples']} samples){flag}")

        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, -0.8, 0], [-1, 0, 0]]
        if patched:
            # No CLI draw under-samples at 100 or more shots per vector.
            extracted = [ExtractedVector(1, np.array([1.0, 0.0, 0.0]), 3000, False),
                         ExtractedVector(2, np.array([-0.0, 1e-9, -1.0]), 24, True),
                         ExtractedVector(3, None, 0, True, "no samples in basis X,Z"),
                         ExtractedVector(4, np.array([0.6, 0.8, 0.0]), 12, True),
                         ExtractedVector(5, None, 75, False,
                                         "estimated Bloch vector has no direction")]
            monkeypatch.setattr(experiments, "extract_all", lambda *args: extracted)
        out_path = tmp_path / "multi.json"
        code, out, err = run(capsys, "multi", "--vectors", self._vector_file(tmp_path, rows),
                             "--axis", "1,-2,0.5", "--angle", "2.1", "--shots", "300",
                             "--out", str(out_path))
        assert code == 0, err
        entries = json.loads(out_path.read_text())["vectors"]
        lines = out.splitlines()
        assert lines[-len(entries) - 1].startswith("rotated 5 vectors")
        assert lines[-len(entries):] == [reference(e) for e in entries]
        if patched:
            assert sum("[under-sampled]" in line for line in lines) == 2


class TestSeedRange:
    COMMANDS = {
        "erp": ("erp", "--axis", "0,0,1", "--angle", "1"),
        "rotate": ("rotate", "--axis", "0,0,1", "--angle", "1", "--vector", "1,0,0",
                   "--shots", "200"),
        "sweep": ("sweep", "--trials", "1", "--points", "1", "--shots-min", "200",
                  "--shots-max", "200", "--backends", "noiseless"),
        "multi": ("multi", "--axis", "0,0,1", "--angle", "1", "--shots", "200"),
        "example": ("example", "--shots", "200"),
    }

    def _argv(self, tmp_path, name):
        argv = list(self.COMMANDS[name])
        if name == "multi":
            path = tmp_path / "vectors.json"
            path.write_text("[[1, 0, 0]]")
            argv += ["--vectors", str(path)]
        return argv + ["--out", str(tmp_path / "artifact")]

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 7)])
    def test_out_of_range_seed_is_usage_error(self, capsys, tmp_path, name, seed):
        with pytest.raises(SystemExit) as exc:
            main(self._argv(tmp_path, name) + ["--seed", seed])
        assert exc.value.code == 2
        assert "seed must be in [0, 2^64)" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_largest_seed_accepted(self, capsys, tmp_path, name):
        assert main(self._argv(tmp_path, name) + ["--seed", str(2**64 - 1)]) == 0

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_format_option_is_usage_error(self, capsys, tmp_path, name):
        # each command writes one fixed format, so there is no --format option
        with pytest.raises(SystemExit) as exc:
            main(self._argv(tmp_path, name) + ["--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


class TestExampleCommand:
    def test_report_values(self, capsys, tmp_path):
        out_path = tmp_path / "ex.json"
        code, out, _ = run(capsys, "example", "--shots", "2000", "--seed", "7",
                           "--out", str(out_path))
        assert code == 0
        assert "theta=0.955317" in out
        assert "theta=1.150262" in out and "phi=0.463648" in out
        assert "a=0.707107" in out
        assert "RZ(-0.4636) RY(-1.1503) RZ(1.5708) RY(1.1503) RZ(0.4636)" in out
        payload = json.loads(out_path.read_text())
        assert payload["erp_classical"] == pytest.approx(
            [0.70710678, 0.57735027, 0.28867513, 0.28867513], abs=1e-8)
        assert payload["oracle"] == pytest.approx([0.7698, 0.14920, 0.62060], abs=1e-4)


# Trees of what an artifact holds: None, bools, ints past 64 bits, floats
# with NaN, infinities, -0.0 and subnormals, strings with quotes, backslashes,
# control characters, non-ASCII text and brackets; lists and str-keyed dicts,
# empty ones included; and lists of floats that mix in np.float64.
_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310,
                     2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 0.1]))
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/[]{}:,\x00\x1f\x7f\n\t\r\u2028'),
                               st.characters()))
_JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.integers(min_value=2**64), st.integers(max_value=-2**64),
                         _JSON_FLOATS, _JSON_TEXT)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.lists(st.one_of(_JSON_FLOATS, st.floats().map(np.float64)),
                                     max_size=6),
                            st.dictionaries(_JSON_TEXT, inner, max_size=6)),
    max_leaves=20)


class TestJsonWriter:
    """``cli._write_json`` writes what ``json.dumps(indent=2, sort_keys=True)``
    writes, byte for byte, for what an artifact holds, and raises TypeError
    for any other value, with json's message where json rejects that value."""

    @staticmethod
    def dumps(payload) -> str:
        return json.dumps(payload, indent=2, sort_keys=True)

    @settings(max_examples=250, deadline=None)
    @given(payload=_JSON_PAYLOADS)
    def test_matches_json_dumps(self, payload):
        assert cli._json(payload, "") == self.dumps(payload)

    def test_subclasses_and_non_string_keys(self):
        # json writes most of these; no artifact holds one, so the writer
        # rejects each, alone or as a dict value.
        class Text(str):
            pass

        class Number(int):
            pass

        rejected = [Text("v"), Number(5), type("L", (list,), {})([1.0]),
                    type("D", (dict,), {})(a=1.0), (), (0.5, 1.0),
                    (0.5, [None, {"x": np.int32(3)}]), np.float64(0.5), [np.float64(0.5), "a"],
                    {1: 0}, {2**70: 0}, {0.5: 0}, {math.nan: 0}, {True: 0}, {False: 0},
                    {None: 0}, {"a": 0, 1: 1}, {(1, 2): 0}, {b"k": 0}]
        for payload in rejected:
            for tree in (payload, {"k": payload}):
                with pytest.raises(TypeError):
                    cli._json(tree, "")

    @pytest.mark.parametrize("payload, message", [pytest.param(*case, id=type(case[0]).__name__)
                                                  for case in [
        (np.int64(1), None), (np.float32(1.0), None), (np.bool_(True), None),
        (np.array([1.0]), None), ({1, 2}, None), (b"x", None), (1j, None), (object(), None),
        ([1.0, np.int64(2)], None), ({"a": {"b": frozenset()}}, None),
        # json rejects these by its key rule or for a value inside the tuple;
        # the writer rejects the tuple key, the bytes key or the tuple itself.
        ({(1, 2): 0}, "first argument must be a string, not tuple"),
        ({b"k": 0}, "first argument must be a string, not bytes"),
        ((0.5, [None, {"x": np.int32(3)}]), "Object of type tuple is not JSON serializable"),
    ]])
    def test_unsupported_value_raises_type_error(self, payload, message):
        with pytest.raises(TypeError) as expected:
            self.dumps(payload)
        message = str(expected.value) if message is None else message
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            cli._json(payload, "")

    @pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["new", "existing"])
    def test_rejected_payload_writes_nothing(self, tmp_path, existing):
        path = tmp_path / "a.json"
        if existing is not None:
            path.write_bytes(existing)
        with pytest.raises(TypeError):
            cli._write_json(str(path), {"seed": np.int64(7), "vectors": [[0.5, 1.0]]})
        assert (path.read_bytes() if path.exists() else None) == existing

    def test_file_bytes(self, tmp_path):
        payload = {"vectors": [[0.1, -0.0, math.nan], [], {}], "text": "caf\u00e9\n"}
        cli._write_json(str(tmp_path / "a.json"), payload)
        assert (tmp_path / "a.json").read_bytes() == (self.dumps(payload) + "\n").encode()


def test_parser_is_built_once_and_parses_afresh():
    # main() reuses one parser; a parse leaves nothing behind for the next.
    assert cli._build_parser() is cli._build_parser()
    first = cli._build_parser().parse_args(["erp", "--axis", "0,0,1", "--angle", "1",
                                            "--mitigate", "--seed", "3"])
    second = cli._build_parser().parse_args(["erp", "--axis", "1,0,0", "--angle", "2"])
    assert (first.mitigate, first.seed) == (True, 3)
    assert (second.mitigate, second.seed, second.axis) == (False, 7, "1,0,0")


def fresh_modules(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter that imports this checkout's qrot
    and return the names in its ``sys.modules`` afterwards."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qrot.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return json.loads(out.splitlines()[-1])


def test_import_does_not_load_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what the CLI loads.
    modules = fresh_modules("import qrot.cli")
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--trials", "1", "--points", "2", "--shots-min", "100", "--shots-max", "300",
     "--backends", "noiseless,nisq-lite", "--mitigate", "--out", "{tmp}/s.csv"],
    ["multi", "--vectors", "{tmp}/v.json", "--axis", "0,0,1", "--angle", "1", "--shots", "500",
     "--out", "{tmp}/m.json"],
    ["example", "--shots", "500", "--out", "{tmp}/e.json"],
    ["erp", "--axis", "2,1,1", "--angle", "1.5708", "--shots", "500"],
    ["rotate", "--axis", "1,0,0", "--angle", "1", "--vector", "0,0,1", "--shots", "500"],
], ids=lambda argv: argv[0])
def test_command_does_not_load_numpy_ma(tmp_path, argv):
    # numpy.ma takes 10-14 ms to import, more than a small sweep's
    # reconstruction, and no command uses a masked array. numpy 1.x imports
    # it with numpy itself, so only a load by the command counts.
    (tmp_path / "v.json").write_text("[[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]")
    argv = [a.format(tmp=tmp_path) for a in argv]
    eager = "numpy.ma" in fresh_modules("import numpy")
    modules = fresh_modules(f"from qrot.cli import main\nassert main({argv!r}) == 0")
    assert eager or "numpy.ma" not in modules


@pytest.mark.parametrize("name", ["align_global_phase", "angles_to_vec", "expectation_from_counts",
                                  "kron", "matmul", "mitigate_counts", "ShotResult", "trace",
                                  "is_unitary"])
def test_retired_helpers_not_exported(name):
    assert not hasattr(qrot, name)


def test_benchmark_trace_targets_resolve():
    # bench/run.py --trace 1 wraps each (module, name) in bench/spans.py's
    # TARGETS and binds sample's circuit, shots and noise by name.
    spans = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "spans.py"))
    for module_name, attr in spans["TARGETS"]:
        module = importlib.import_module("qrot." + module_name)
        assert callable(getattr(module, attr, None)), f"qrot.{module_name}.{attr}"
    inspect.signature(qrot.simulator.sample).bind(circuit=None, basis=(), shots=1, noise=None)
    # spans.py reads .vector off every index_estimate result.
    result = qrot.multirot.index_estimate(1, np.array([(60, 40), (50, 50), (70, 30)]))
    assert result.vector is not None
