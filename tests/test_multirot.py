import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrot import (BranchRotation, Circuit, DomainError, GateOp, RotationSpec, ShapeError,
                  VectorBatch, apply, axis_rotation_sequence, build_encoding_circuit,
                  extract_all, full_circuit, rodrigues_rotate, vec_to_angles, zero_state)
from qrot import multirot, simulator
from qrot.bloch import angle_between, require_unit
from qrot.experiments import NOISE_PRESETS
from qrot.multirot import index_estimate

from conftest import WORKED_AXIS
from oracles import (apply_gates, bitstring_counts, branch_blochs, expand_branch_rotations,
                     gate_noise_flips)
from tiers import dispatch_target, run_at_baseline_tier


def unit_rows(rng, p):
    v = rng.normal(size=(p, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestVectorBatch:
    @pytest.mark.parametrize("p,n", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
    def test_control_qubit_count(self, p, n):
        batch = VectorBatch(unit_rows(np.random.default_rng(p), p))
        assert batch.p == p
        assert batch.n == n

    def test_single_vector_accepted_flat(self):
        batch = VectorBatch(np.array([0.0, 0.0, 1.0]))
        assert batch.p == 1 and batch.n == 1

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            VectorBatch(np.array([[1.0, 1.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(1, 2), (2, 4), (0, 3), (1, 1, 3)],
                             ids=["pairs", "quads", "empty", "3-d"])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(DomainError, match=r"\(p, 3\) array"):
            VectorBatch(np.ones(shape))

    # What each kind of bad row does to a unit vector.
    BAD_ROWS = {
        "zero": lambda v: 0.0 * v,
        "nan": lambda v: np.array([v[0], np.nan, v[2]]),
        "inf": lambda v: np.array([-np.inf, v[1], v[2]]),
        "long": lambda v: 2.0 * v,
        "short": lambda v: (1.0 - 4e-9) * v,
        "huge": lambda v: 1e300 * v,
        "tiny": lambda v: 1e-310 * v,
    }

    @settings(max_examples=150, deadline=None)
    @given(p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           bad=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(sorted(BAD_ROWS))),
                        min_size=1, max_size=3))
    def test_first_bad_row_named(self, p, seed, bad):
        # The whole stack is checked at once; the error is the one a check
        # of each row in turn raises, and names the first bad row.
        units = unit_rows(np.random.default_rng(seed), p)
        vectors = units.copy()
        for k, kind in bad:
            vectors[k % p] = self.BAD_ROWS[kind](units[k % p])
        first = min(k % p for k, _ in bad)
        with pytest.raises(DomainError) as expected:
            require_unit(vectors[first])
        with pytest.raises(DomainError) as raised:
            VectorBatch(vectors)
        assert str(raised.value) == f"vector {first + 1}: {expected.value}"

    @pytest.mark.parametrize("scale", [1.0 + 5e-10, 1.0 - 5e-10])
    def test_rows_within_unit_tolerance_accepted(self, scale):
        vectors = unit_rows(np.random.default_rng(9), 6)
        vectors[3] *= scale
        assert np.array_equal(VectorBatch(vectors).vectors, vectors)

    def test_caller_array_is_copied(self):
        # the batch used to freeze and keep the caller's own float64 array
        a = np.eye(3)
        batch = VectorBatch(a)
        a[0, 0] = 0.5
        assert a.flags.writeable and not np.shares_memory(a, batch.vectors)
        assert np.array_equal(batch.vectors, np.eye(3)) and not batch.vectors.flags.writeable

    def test_width_cap(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            VectorBatch(unit_rows(rng, 2049))  # needs 12 controls + data


class TestMultiRotationPlan:
    def test_per_index_length_mismatch(self):
        batch = VectorBatch(unit_rows(np.random.default_rng(1), 4))
        specs = (RotationSpec(np.array([0.0, 0.0, 1.0]), 0.5),)
        with pytest.raises(DomainError):
            full_circuit(batch, specs)

    def test_one_spec_per_vector_rejected(self):
        # one rotation for the whole batch, never one per index
        batch = VectorBatch(unit_rows(np.random.default_rng(2), 2))
        specs = (RotationSpec(WORKED_AXIS, 0.4), RotationSpec(WORKED_AXIS, 0.8))
        with pytest.raises(DomainError):
            full_circuit(batch, specs)


def check_encoding_against_reference(p):
    """``apply`` and the gate-noise flips of the batch circuits of p vectors
    equal, in bytes, the controlled-gate kernel's state and the per-gate
    product of the flips of the per-index controlled gates the branch
    rotations stand for, in branch order and interleaved RY, RZ per index.
    Rows 1, 5, ... (from 0) are +z, rows 2, 6, ... are -z (phi = 0 at both)
    and rows 3, 7, ... have a y of -0.0; every p below a power of two leaves
    unused branches."""
    vectors = unit_rows(np.random.default_rng(p), p)
    vectors[1::4], vectors[2::4], vectors[3::4] = (0, 0, 1), (0, 0, -1), (0.6, -0.0, 0.8)
    batch = VectorBatch(vectors)
    encoding = build_encoding_circuit(batch)
    n = encoding.num_qubits
    per_index = expand_branch_rotations(encoding)
    heads, ry, rz = per_index[:n - 1], per_index[n - 1:n - 1 + p], per_index[n - 1 + p:]
    interleaved = heads + [g for pair in zip(ry, rz) for g in pair]
    full = full_circuit(batch, RotationSpec(WORKED_AXIS, 1.1))
    basis_ops = tuple(simulator._basis_change_ops(("Y",) + ("Z",) * (n - 1), n))
    basis_gates = expand_branch_rotations(Circuit(n, basis_ops))
    noise = NOISE_PRESETS["nisq-lite"]
    for circuit, reference in ((encoding, expand_branch_rotations(encoding)),
                               (encoding, interleaved), (full, expand_branch_rotations(full))):
        assert apply(circuit, zero_state(n)).tobytes() \
            == apply_gates(zero_state(n), reference, n).tobytes()
        flips = simulator._gate_noise_flips(circuit.ops + basis_ops, n, noise)
        assert flips.tobytes() == gate_noise_flips(reference + basis_gates, n, noise).tobytes()


ENCODING_SIZES = (1, 2, 3, 5, 16, 256)


class TestEncodingCircuit:
    def test_four_vector_layout(self):
        batch = VectorBatch(unit_rows(np.random.default_rng(3), 4))
        circuit = build_encoding_circuit(batch)
        assert circuit.num_qubits == 3
        assert len(circuit.ops) == 4
        assert [op.kind for op in circuit.ops[:2]] == ["H", "H"]
        assert [op.target for op in circuit.ops[:2]] == [1, 2]
        assert all(type(op) is GateOp for op in circuit.ops[:2])
        ry, rz = circuit.ops[2:]
        assert isinstance(ry, BranchRotation) and isinstance(rz, BranchRotation)
        assert (ry.kind, rz.kind) == ("RY", "RZ")
        # index i sits on branch i - 1, so its angles are at position i - 1
        angles = [vec_to_angles(v) for v in batch.vectors]
        assert ry.thetas == tuple(theta for theta, _ in angles)
        assert rz.thetas == tuple(phi for _, phi in angles)

    @pytest.mark.parametrize("p", ENCODING_SIZES)
    def test_matches_per_index_gates_in_bytes(self, p):
        check_encoding_against_reference(p)

    def test_matches_per_index_gates_at_baseline_tier(self):
        # Each tier compares with its own per-index reference.
        out = run_at_baseline_tier("import test_multirot as t, tiers\n"
                                   f"for p in {ENCODING_SIZES}:\n"
                                   "    t.check_encoding_against_reference(p)\n"
                                   "print(tiers.dispatch_target())\n")
        target = out.strip()
        assert target.startswith("baseline") or target == dispatch_target()

    def test_branch_states_match_inputs(self):
        rng = np.random.default_rng(4)
        for p in (1, 2, 3, 5, 8):
            batch = VectorBatch(unit_rows(rng, p))
            blochs = branch_blochs(batch)
            assert np.max(np.abs(blochs[:p] - batch.vectors)) <= 1e-10
            # unused branches keep the data qubit at |0>
            for branch in range(p, 1 << batch.n):
                assert np.max(np.abs(blochs[branch] - np.array([0.0, 0.0, 1.0]))) <= 1e-12

    def test_single_trivial_vector_keeps_data_qubit_idle(self):
        circuit = build_encoding_circuit(VectorBatch(np.array([0.0, 0.0, 1.0])))
        assert [op.kind for op in circuit.ops] == ["H", "RY", "RZ"]
        assert [op.thetas for op in circuit.ops[1:]] == [(0.0,), (0.0,)]
        state = apply(circuit, zero_state(2))
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[2] = 1.0 / math.sqrt(2.0)
        assert np.max(np.abs(state - expected)) <= 1e-12


class TestRotationLayer:
    def test_uniform_identity_rotation(self):
        batch = VectorBatch(unit_rows(np.random.default_rng(5), 2))
        layer = Circuit(batch.n + 1, axis_rotation_sequence(RotationSpec(WORKED_AXIS, 0.0)))
        rng = np.random.default_rng(6)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(apply(layer, psi) - psi)) <= 1e-12

    def test_uniform_rotation_rotates_every_branch(self, worked_spec):
        rng = np.random.default_rng(7)
        batch = VectorBatch(unit_rows(rng, 4))
        blochs = branch_blochs(batch, worked_spec)
        for i in range(4):
            oracle = rodrigues_rotate(worked_spec, batch.vectors[i])
            assert np.max(np.abs(blochs[i] - oracle)) <= 1e-10


class TestExtraction:
    def test_single_vector_batch(self):
        spec = RotationSpec(np.array([0.0, 0.0, 1.0]), math.pi / 2.0)
        out = extract_all(VectorBatch(np.array([1.0, 0.0, 0.0])), spec, 2000, seed=20)
        assert len(out) == 1
        assert out[0].index == 1
        # half the register is an unused branch, so roughly 3 * 2000 samples land here
        assert abs(out[0].samples - 6000) <= 5.0 * math.sqrt(6000 * 0.5)
        oracle = rodrigues_rotate(spec, np.array([1.0, 0.0, 0.0]))
        assert math.degrees(angle_between(out[0].vector, oracle)) < 5.0

    def test_four_vectors_sample_share(self, worked_spec):
        rng = np.random.default_rng(21)
        batch = VectorBatch(unit_rows(rng, 4))
        out = extract_all(batch, worked_spec, 1000, seed=22)
        total = 3 * 1000 * 4
        for item in out:
            assert not item.under_sampled
            assert item.error is None
            assert abs(item.samples - total / 4) <= 5.0 * math.sqrt(total * 0.25 * 0.75)

    def test_control_marginal_uniform(self, worked_spec):
        from qrot.simulator import sample
        rng = np.random.default_rng(23)
        batch = VectorBatch(unit_rows(rng, 4))
        shots = 4 * 2000
        res = sample(full_circuit(batch, worked_spec), ("Z", "Z", "Z"), shots, seed=24)
        marg = np.zeros(4)
        for bits, cnt in bitstring_counts(res).items():
            marg[int(bits[:2], 2)] += cnt
        band = 5.0 * math.sqrt(shots * 0.25 * 0.75)
        assert np.max(np.abs(marg - shots / 4)) <= band

    def test_small_batch_rejected(self, worked_spec):
        with pytest.raises(DomainError):
            extract_all(VectorBatch(np.array([1.0, 0.0, 0.0])), worked_spec, 50)

    @pytest.mark.parametrize("mitigate", [False, True])
    def test_stacked_readback_equals_index_estimate(self, monkeypatch, worked_spec, mitigate):
        # One stack mixes every kind of row; extract_all reads each as
        # index_estimate reads it alone, in bytes, fields and error strings.
        cal = np.array([[0.9, 0.1], [0.1, 0.9]])
        rows = np.array([
            [(200, 40), (300, 100), (250, 150)],      # normal
            [(0, 0), (30, 10), (0, 0)],               # no samples in X and Z
            [(50, 50), (40, 40), (70, 70)],           # n0 = n1 in every basis
            [(20, 4), (30, 10), (25, 15)],            # under-sampled
            [(90, 110), (0, 0), (120, 80)],           # no samples in Y
            [(7, 3), (250, 250), (1, 0)],             # directed but under-sampled
            [(400, 0), (0, 400), (400, 0)],           # unused branches
            [(1, 1), (1, 1), (1, 1)],
        ], dtype=np.int64)

        def fake_counts(circuits, shot_grid, noise, mitigate):
            return (cal[None] if mitigate else None), rows[None]

        monkeypatch.setattr(multirot, "_state_counts", fake_counts)
        batch = VectorBatch(unit_rows(np.random.default_rng(30), 6))
        out = extract_all(batch, worked_spec, 200, mitigate=mitigate)
        assert len(out) == 6
        for k, item in enumerate(out):
            alone = index_estimate(k + 1, rows[k], cal if mitigate else None)
            assert (item.index, item.samples, item.under_sampled, item.error) \
                == (alone.index, alone.samples, alone.under_sampled, alone.error)
            assert (item.vector is None) == (alone.vector is None)
            if item.vector is not None:
                assert item.vector.tobytes() == alone.vector.tobytes()
        assert [item.error for item in out] == [
            None, "no samples in basis X,Z", "estimated Bloch vector has no direction", None,
            "no samples in basis Y", None]
        assert [item.under_sampled for item in out] == [False, True, False, True, True, True]

    def test_all_rows_without_samples(self, monkeypatch, worked_spec):
        monkeypatch.setattr(multirot, "_state_counts",
                            lambda *args: (None, np.zeros((1, 2, 3, 2), dtype=np.int64)))
        out = extract_all(VectorBatch(np.array([1.0, 0.0, 0.0])), worked_spec, 200)
        assert [(item.vector, item.error) for item in out] == [(None, "no samples in basis X,Y,Z")]

    def test_zero_sample_branch_reports_error(self):
        tally = np.array([(0, 0), (30, 10), (25, 15)])
        item = index_estimate(3, tally)
        assert item.index == 3
        assert item.vector is None
        assert item.error is not None and "X" in item.error
        assert item.under_sampled

    @pytest.mark.parametrize("cal", [None, [[0.9, 0.1], [0.1, 0.9]]])
    def test_zero_estimate_reports_error(self, cal):
        item = index_estimate(2, np.full((3, 2), 50), cal)
        assert item.vector is None
        assert item.error is not None and "no direction" in item.error
        assert item.samples == 300 and not item.under_sampled

    def test_tally_of_several_indices_rejected(self):
        with pytest.raises(ShapeError, match="one \\(3, 2\\) tally"):
            index_estimate(1, np.full((2, 3, 2), 50))

    def test_under_sampled_flag(self):
        tally = np.array([(20, 4), (30, 10), (25, 15)])
        item = index_estimate(1, tally)
        assert item.vector is not None
        assert item.under_sampled
        well = np.array([(200, 40), (300, 100), (250, 150)])
        assert not index_estimate(1, well).under_sampled
