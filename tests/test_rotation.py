import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrot import (PAULI_X, PAULI_Y, PAULI_Z, DomainError, ErParams, RotationSpec,
                  dagger, axis_rotation_sequence, axis_rotation_unitary, er_matrix,
                  erp_from_spec, erp_from_unitary, gate_rx, gate_ry, gate_rz,
                  initialization_ops, rodrigues_matrix, rodrigues_rotate,
                  sequence_unitary, state_to_bloch)
from qrot.circuit import Circuit
from qrot.simulator import apply, zero_state

from conftest import (WORKED_AXIS, WORKED_ROTATED, WORKED_VECTOR,
                      random_spec, random_state, random_unit)
from oracles import align_global_phase


def max_abs(m):
    return float(np.max(np.abs(m)))


_units = (st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
          .filter(lambda v: np.linalg.norm(v) >= 1e-3)
          .map(lambda v: np.array(v) / np.linalg.norm(v)))
_specs = st.builds(RotationSpec, _units, st.floats(-4.0 * math.pi, 4.0 * math.pi))


def pauli_dot(v):
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


class TestRepresentationsAgree:
    """ERPs, the circuit unitary and the Rodrigues oracles describe one rotation."""

    @settings(max_examples=200, deadline=None)
    @given(spec=_specs, v=_units)
    def test_erp_unitary_and_rodrigues(self, spec, v):
        u = axis_rotation_unitary(spec)
        assert max_abs(sequence_unitary(spec) - u) <= 1e-12
        from_unitary, from_spec = np.array(erp_from_unitary(u)), np.array(erp_from_spec(spec))
        # (a, b, c, d) and its negation are the same rotation.
        assert min(max_abs(from_unitary - from_spec), max_abs(from_unitary + from_spec)) <= 1e-12
        rotation = rodrigues_matrix(spec)
        assert max_abs(er_matrix(erp_from_spec(spec)) - rotation) <= 1e-12
        assert max_abs(rodrigues_rotate(spec, v) - rotation @ v) <= 1e-12
        # U (v . sigma) U^dagger = (R v) . sigma
        assert max_abs(u @ pauli_dot(v) @ dagger(u) - pauli_dot(rotation @ v)) <= 1e-12


class TestRotationSpec:
    def test_zero_axis_rejected(self):
        with pytest.raises(DomainError):
            RotationSpec(np.zeros(3), 1.0)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(DomainError):
            RotationSpec(np.array([1.0, 1.0, 0.0]), 1.0)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(DomainError):
            RotationSpec(np.array([0.0, 0.0, 1.0]), float("inf"))


class TestRodrigues:
    def test_zero_angle_is_identity(self):
        spec = RotationSpec(np.array([0.0, 1.0, 0.0]), 0.0)
        assert max_abs(rodrigues_matrix(spec) - np.eye(3)) <= 1e-15

    def test_quarter_turn_about_z(self):
        spec = RotationSpec(np.array([0.0, 0.0, 1.0]), math.pi / 2.0)
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert max_abs(rodrigues_matrix(spec) - expected) <= 1e-15

    def test_worked_example_vector(self, worked_spec):
        assert max_abs(rodrigues_matrix(worked_spec) @ WORKED_VECTOR - WORKED_ROTATED) <= 1e-7
        assert max_abs(rodrigues_rotate(worked_spec, WORKED_VECTOR) - WORKED_ROTATED) <= 1e-7

    def test_axis_is_fixed_point(self, worked_spec):
        assert max_abs(rodrigues_rotate(worked_spec, WORKED_AXIS) - WORKED_AXIS) <= 1e-12

    def test_full_turn_is_identity(self):
        rng = np.random.default_rng(20)
        spec = RotationSpec(random_unit(rng), 2.0 * math.pi)
        x = rng.normal(size=3)
        assert max_abs(rodrigues_rotate(spec, x) - x) <= 1e-12

    def test_matrix_and_vector_formulas_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            spec = random_spec(rng)
            x = rng.normal(size=3)
            assert max_abs(rodrigues_matrix(spec) @ x - rodrigues_rotate(spec, x)) <= 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            spec = random_spec(rng)
            x = rng.normal(size=3)
            assert abs(np.linalg.norm(rodrigues_rotate(spec, x)) - np.linalg.norm(x)) <= 1e-12

    def test_proper_rotation_properties(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            r = rodrigues_matrix(random_spec(rng))
            assert max_abs(r.T @ r - np.eye(3)) <= 1e-9
            assert abs(np.linalg.det(r) - 1.0) <= 1e-9

    @pytest.mark.parametrize("x", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0]], 1.0],
                             ids=["two", "four", "row-of-two", "scalar"])
    def test_rotate_needs_a_3_vector(self, worked_spec, x):
        # A stack's rows must be 3-vectors too; a row of one 3-vector is a
        # stack of one.
        with pytest.raises(DomainError, match="3-vector"):
            rodrigues_rotate(worked_spec, x)

    @settings(max_examples=200, deadline=None)
    @given(spec=_specs, stack=st.integers(1, 6).flatmap(lambda p: st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3), min_size=p, max_size=p)),
        shape=st.sampled_from(["flat", "nested"]))
    def test_stack_rows_equal_one_vector_calls(self, spec, stack, shape):
        # Exact: each row of a stacked call is == the call on that row alone.
        x = np.array(stack)
        if shape == "nested" and len(x) % 2 == 0:
            x = x.reshape(2, -1, 3)
        rotated = rodrigues_rotate(spec, x)
        assert rotated.shape == x.shape
        for row, out in zip(x.reshape(-1, 3), rotated.reshape(-1, 3)):
            assert np.array_equal(out, rodrigues_rotate(spec, row))


class TestErParams:
    def test_worked_example_values(self, worked_spec):
        p = erp_from_spec(worked_spec)
        assert abs(p.a - 0.707) <= 1e-3
        assert abs(p.b - 0.577) <= 1e-3
        assert abs(p.c - 0.289) <= 1e-3
        assert abs(p.d - 0.289) <= 1e-3

    def test_zero_angle(self):
        p = erp_from_spec(RotationSpec(np.array([0.0, 0.0, 1.0]), 0.0))
        assert p == ErParams(1.0, 0.0, 0.0, 0.0)

    def test_half_turn_about_z(self):
        p = erp_from_spec(RotationSpec(np.array([0.0, 0.0, 1.0]), math.pi))
        assert max_abs(np.array(p) - np.array([0.0, 0.0, 0.0, 1.0])) <= 1e-12

    def test_constraint(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            assert abs(erp_from_spec(random_spec(rng)).quadratic_norm() - 1.0) <= 1e-12

    def test_canonical_sign(self):
        assert ErParams(-0.5, 0.5, 0.5, 0.5).canonical().a == 0.5
        flipped = ErParams(0.0, -0.6, 0.0, -0.8).canonical()
        assert flipped.b == 0.6 and flipped.d == 0.8
        zero = ErParams(0.0, 0.0, 0.0, 0.0)
        assert zero.canonical() is zero


class TestErMatrix:
    def test_identity(self):
        assert max_abs(er_matrix(ErParams(1.0, 0.0, 0.0, 0.0)) - np.eye(3)) == 0.0

    def test_half_turn_about_x(self):
        assert max_abs(er_matrix(ErParams(0.0, 1.0, 0.0, 0.0)) - np.diag([1.0, -1.0, -1.0])) == 0.0

    def test_worked_example_action(self, worked_spec):
        m = er_matrix(erp_from_spec(worked_spec))
        assert max_abs(m @ WORKED_VECTOR - WORKED_ROTATED) <= 1e-7

    def test_matches_rodrigues(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            spec = random_spec(rng)
            assert max_abs(er_matrix(erp_from_spec(spec)) - rodrigues_matrix(spec)) <= 1e-10

    def test_sign_ambiguity_exact(self):
        p = erp_from_spec(RotationSpec(WORKED_AXIS, 1.234))
        q = ErParams(-p.a, -p.b, -p.c, -p.d)
        assert np.array_equal(er_matrix(p), er_matrix(q))

    def test_constraint_violation_rejected(self):
        with pytest.raises(DomainError):
            er_matrix(ErParams(1.0, 1.0, 0.0, 0.0))


class TestGates:
    def test_ry_zero_is_identity(self):
        assert max_abs(gate_ry(0.0) - np.eye(2)) == 0.0

    def test_rz_pi(self):
        assert max_abs(gate_rz(math.pi) - np.diag([-1j, 1j])) <= 1e-15

    def test_ry_half_pi_creates_plus(self):
        psi = gate_ry(math.pi / 2.0) @ np.array([1.0, 0.0])
        assert max_abs(psi - np.array([1.0, 1.0]) / math.sqrt(2.0)) <= 1e-15

    def test_closed_forms(self):
        theta = 0.731
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        assert max_abs(gate_rx(theta) - np.array([[c, -1j * s], [-1j * s, c]])) <= 1e-14
        assert max_abs(gate_ry(theta) - np.array([[c, -s], [s, c]])) <= 1e-14
        assert max_abs(gate_rz(theta) - np.diag([np.exp(-1j * theta / 2),
                                                 np.exp(1j * theta / 2)])) <= 1e-14

    def test_inverse_is_negative_angle(self):
        for gate in (gate_rx, gate_ry, gate_rz):
            assert max_abs(gate(0.9) @ gate(-0.9) - np.eye(2)) <= 1e-14


class TestAxisRotationSequence:
    def test_worked_example_gate_list(self, worked_spec):
        ops = axis_rotation_sequence(worked_spec)
        assert [op.kind for op in ops] == ["RZ", "RY", "RZ", "RY", "RZ"]
        angles = [op.theta for op in ops]
        assert angles[0] == pytest.approx(-0.4636, abs=1e-4)
        assert angles[1] == pytest.approx(-1.1503, abs=1e-4)
        assert angles[2] == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert angles[3] == -angles[1] and angles[4] == -angles[0]

    def test_z_axis_outer_gates_are_trivial(self):
        ops = axis_rotation_sequence(RotationSpec(np.array([0.0, 0.0, 1.0]), 0.8))
        assert ops[2].theta == pytest.approx(0.8)
        for op in (ops[0], ops[1], ops[3], ops[4]):
            assert op.theta == 0.0

    def test_zero_angle_composes_to_identity(self):
        spec = RotationSpec(WORKED_AXIS, 0.0)
        assert max_abs(sequence_unitary(spec) - np.eye(2)) <= 1e-12

    def test_sequence_matches_circuit_simulation(self, worked_spec):
        state = apply(Circuit(1, axis_rotation_sequence(worked_spec)), zero_state(1))
        assert max_abs(state - sequence_unitary(worked_spec) @ zero_state(1)) <= 1e-12


class TestUnitaryEquivalence:
    def test_zero_angle_is_identity(self):
        assert max_abs(axis_rotation_unitary(RotationSpec(WORKED_AXIS, 0.0)) - np.eye(2)) <= 1e-15

    def test_z_axis_recovers_rz(self):
        spec = RotationSpec(np.array([0.0, 0.0, 1.0]), 1.1)
        assert max_abs(axis_rotation_unitary(spec) - gate_rz(1.1)) <= 1e-15

    def test_worked_example_trace(self, worked_spec):
        u = axis_rotation_unitary(worked_spec)
        assert abs(np.trace(u).real / 2.0 - 0.707) <= 1e-3

    def test_five_gate_equivalence(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            spec = random_spec(rng)
            closed = axis_rotation_unitary(spec)
            seq = align_global_phase(closed, sequence_unitary(spec))
            assert max_abs(seq - closed) <= 1e-12

    def test_bloch_equivariance(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            spec = random_spec(rng)
            psi = random_state(rng)
            lhs = state_to_bloch(axis_rotation_unitary(spec) @ psi)
            rhs = rodrigues_rotate(spec, state_to_bloch(psi))
            assert max_abs(lhs - rhs) <= 1e-10


class TestErpFromUnitary:
    def test_identity(self):
        assert erp_from_unitary(np.eye(2)) == ErParams(1.0, 0.0, 0.0, 0.0)

    def test_worked_example(self, worked_spec):
        p = erp_from_unitary(axis_rotation_unitary(worked_spec))
        for got, want in zip(p, (0.707, 0.577, 0.289, 0.289)):
            assert abs(got - want) <= 1e-3

    def test_round_trip(self):
        rng = np.random.default_rng(28)
        for _ in range(300):
            spec = random_spec(rng)
            direct = erp_from_spec(spec).canonical()
            via_unitary = erp_from_unitary(axis_rotation_unitary(spec))
            assert max_abs(np.array(direct) - np.array(via_unitary)) <= 1e-12

    def test_global_phase_removed(self):
        u = axis_rotation_unitary(RotationSpec(WORKED_AXIS, 1.3))
        p1 = erp_from_unitary(u)
        p2 = erp_from_unitary(np.exp(0.77j) * u)
        assert max_abs(np.array(p1) - np.array(p2)) <= 1e-12

    def test_half_turn_traceless_canonicalization(self):
        u = axis_rotation_unitary(RotationSpec(np.array([0.0, 0.0, 1.0]), math.pi))
        p = erp_from_unitary(u)
        assert max_abs(np.array(p) - np.array([0.0, 0.0, 0.0, 1.0])) <= 1e-12
        # flipped axis gives the same canonical representative
        q = erp_from_unitary(axis_rotation_unitary(
            RotationSpec(np.array([0.0, 0.0, -1.0]), math.pi)))
        assert max_abs(np.array(p) - np.array(q)) <= 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(DomainError):
            erp_from_unitary(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("u", [np.eye(3), np.eye(2)[None], np.ones(4)],
                             ids=["3x3", "3-d", "flat"])
    def test_wrong_shape_rejected(self, u):
        with pytest.raises(DomainError, match="2x2 matrix"):
            erp_from_unitary(u)


class TestInitialization:
    def test_prepares_bloch_vector(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            v = random_unit(rng)
            state = apply(Circuit(1, initialization_ops(v)), zero_state(1))
            assert max_abs(state_to_bloch(state) - v) <= 1e-10
