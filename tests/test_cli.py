import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

import qrot
from qrot import tomography
from qrot.circuit import MAX_QUBITS
from qrot.cli import MAX_BATCH_VECTORS, main
from qrot.multirot import VectorBatch


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
        assert "warning: input vector normalized from length 1.732051" in out
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

    @pytest.mark.parametrize("backends", ["", " , "])
    def test_no_backend_is_usage_error(self, capsys, tmp_path, backends):
        code, _, err = run(capsys, "sweep", "--backends", backends,
                           "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert "no backend" in err
        assert not (tmp_path / "s.csv").exists()

    def test_json_format_rejected(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--trials", "1", "--points", "1",
                         "--shots-min", "200", "--shots-max", "200",
                         "--format", "json", "--out", str(tmp_path / "s.csv"))
        assert code == 2


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
        assert "warning: vector 1 normalized from length 2.000000" in out

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        vecs = self._vector_file(tmp_path, '[[1, 0, 0],\n [0, bad, 0]]')
        code, _, err = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                           "--angle", "0.5")
        assert code == 2
        assert "line 2" in err

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
        monkeypatch.setattr(tomography, "sample", lambda *args, **kwargs: calls.append(args))
        vecs = self._vector_file(tmp_path, [[0, 0, 1]] * (MAX_BATCH_VECTORS + 1))
        code, _, err = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                           "--angle", "0.5", "--shots", "500")
        assert code == 2
        assert "at most 2048 vectors" in err
        assert calls == []

    def test_boolean_components_rejected(self, capsys, tmp_path):
        vecs = self._vector_file(tmp_path, [[0, 1, 0], [True, False, False]])
        code, _, err = run(capsys, "multi", "--vectors", vecs, "--axis", "0,0,1",
                           "--angle", "0.5", "--shots", "500")
        assert code == 2
        assert "entry 2" in err


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


def test_import_does_not_load_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what the CLI loads.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qrot.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    code = "import sys, qrot.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
