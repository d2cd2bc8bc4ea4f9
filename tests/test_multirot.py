import math

import numpy as np
import pytest

from qrot import (Circuit, DomainError, RotationSpec, VectorBatch, apply,
                  axis_rotation_sequence, build_encoding_circuit, extract_all,
                  full_circuit, rodrigues_rotate, zero_state)
from qrot.bloch import angle_between
from qrot.multirot import index_estimate

from conftest import WORKED_AXIS
from oracles import bitstring_counts, branch_blochs


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


class TestEncodingCircuit:
    def test_four_vector_layout(self):
        batch = VectorBatch(unit_rows(np.random.default_rng(3), 4))
        circuit = build_encoding_circuit(batch)
        assert circuit.num_qubits == 3
        assert [op.kind for op in circuit.ops[:2]] == ["H", "H"]
        assert [op.target for op in circuit.ops[:2]] == [1, 2]
        rest = circuit.ops[2:]
        assert len(rest) == 8
        assert [op.kind for op in rest] == ["RY", "RZ"] * 4
        # index i sits on the branch spelling i-1 in binary: qubit c holds bit c-1
        for i0 in range(4):
            expected = ((1, i0 & 1), (2, (i0 >> 1) & 1))
            assert rest[2 * i0].controls == expected
            assert rest[2 * i0 + 1].controls == expected
            assert rest[2 * i0].target == 0

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
        rotations = [op for op in circuit.ops if op.kind != "H"]
        assert all(op.theta == 0.0 for op in rotations)
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

    def test_under_sampled_flag(self):
        tally = np.array([(20, 4), (30, 10), (25, 15)])
        item = index_estimate(1, tally)
        assert item.vector is not None
        assert item.under_sampled
        well = np.array([(200, 40), (300, 100), (250, 150)])
        assert not index_estimate(1, well).under_sampled
