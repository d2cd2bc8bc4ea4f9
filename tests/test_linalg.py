import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qrot import (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, DomainError, NumericError,
                  ShapeError, dagger, eig_hermitian, polar_unitary, smolin_project)
from qrot.linalg import row_dot
from qrot.rotation import gate_ry, gate_rz

import jacobi
from oracles import align_global_phase


def max_abs(m):
    return float(np.max(np.abs(m)))


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def eig_polar_reference(m):
    """The eigendecomposition formula m (m^dagger m)^(-1/2), through the
    Jacobi eigensolver, that ``polar_unitary`` used before its closed form."""
    values, vectors = jacobi.eig_hermitian(dagger(m) @ m)
    return m @ vectors @ np.diag(np.clip(values, 0.0, None) ** -0.5) @ dagger(vectors)


class TestPauliIdentities:
    def test_squares_are_identity(self):
        for p in (PAULI_X, PAULI_Y, PAULI_Z):
            assert max_abs(p @ p - PAULI_I) <= 1e-14

    def test_minus_i_xyz_is_identity(self):
        prod = -1j * (PAULI_X @ PAULI_Y @ PAULI_Z)
        assert max_abs(prod - PAULI_I) <= 1e-14

    def test_xy_is_i_z(self):
        # expanding the 2x2 product by hand gives diag(i, -i)
        assert max_abs(PAULI_X @ PAULI_Y - np.array([[1j, 0], [0, -1j]])) <= 1e-14


class TestKron:
    def test_identity(self):
        assert max_abs(np.kron(PAULI_I, PAULI_I) - np.eye(4)) == 0.0

    def test_hadamard_pair_gives_uniform_state(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
        state = np.kron(h, h) @ np.array([1, 0, 0, 0], dtype=complex)
        assert max_abs(state - 0.5) <= 1e-14

    def test_z_tensor_identity(self):
        assert max_abs(np.kron(PAULI_Z, PAULI_I) - np.diag([1, 1, -1, -1])) == 0.0

    def test_mixed_product(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                          for _ in range(4))
            lhs = np.kron(a, b) @ np.kron(c, d)
            rhs = np.kron(a @ c, b @ d)
            assert max_abs(lhs - rhs) <= 1e-10


class TestEigHermitian:
    eig_hermitian = staticmethod(eig_hermitian)

    def test_pauli_z(self):
        values, vectors = self.eig_hermitian(PAULI_Z)
        assert np.allclose(values, [1.0, -1.0], atol=1e-14)
        assert max_abs(np.abs(vectors) - np.eye(2)) <= 1e-14

    def test_pauli_x(self):
        values, vectors = self.eig_hermitian(PAULI_X)
        assert np.allclose(values, [1.0, -1.0], atol=1e-14)
        plus = np.array([1, 1]) / math.sqrt(2.0)
        minus = np.array([1, -1]) / math.sqrt(2.0)
        assert abs(abs(np.vdot(plus, vectors[:, 0])) - 1.0) <= 1e-12
        assert abs(abs(np.vdot(minus, vectors[:, 1])) - 1.0) <= 1e-12

    def test_maximally_mixed(self):
        values, vectors = self.eig_hermitian(PAULI_I / 2.0)
        assert np.allclose(values, [0.5, 0.5])
        assert max_abs(dagger(vectors) @ vectors - np.eye(2)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16])
    def test_reconstruction_and_lapack_agreement(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            m = random_hermitian(rng, dim)
            values, vectors = self.eig_hermitian(m)
            assert max_abs(vectors @ np.diag(values) @ dagger(vectors) - m) <= 1e-8
            assert max_abs(dagger(vectors) @ vectors - np.eye(dim)) <= 1e-10
            assert np.all(np.diff(values) <= 1e-12)
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.allclose(values, ref, atol=1e-8)

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            self.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            self.eig_hermitian(np.ones((2, 3)))


class TestJacobiOracle(TestEigHermitian):
    """The same contract for the Jacobi oracle that tests compare against."""

    eig_hermitian = staticmethod(jacobi.eig_hermitian)


def test_eig_hermitian_resolves_tiny_off_diagonal():
    # The Jacobi oracle skips off-diagonal entries below 1e-12 and leaves this
    # matrix 1e-13 away from its reconstruction.
    m = np.array([[1.0, 1e-13], [1e-13, 2.0]])
    values, vectors = eig_hermitian(m)
    assert max_abs(vectors @ np.diag(values) @ dagger(vectors) - m) <= 1e-15


@pytest.mark.parametrize("fn", [eig_hermitian, smolin_project, polar_unitary])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_input_rejected(fn, bad):
    # NaN passes every tolerance comparison and came back as a NaN matrix
    with pytest.raises(DomainError, match="finite"):
        fn(np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("fn", [eig_hermitian, polar_unitary])
def test_one_dimensional_input_rejected(fn):
    with pytest.raises(ShapeError, match="at least 2-dimensional"):
        fn(np.ones(2))


class TestPhaseAlignment:
    def test_removes_global_phase(self):
        u = gate_ry(0.7) @ gate_rz(-1.2)
        shifted = np.exp(0.42j) * u
        assert max_abs(align_global_phase(u, shifted) - u) <= 1e-14


class TestPolarUnitary:
    def test_recovers_unitary_factor(self):
        rng = np.random.default_rng(5)
        u = gate_rz(0.3) @ gate_ry(1.1)
        p = random_hermitian(rng, 2)
        p = p @ dagger(p) + 0.1 * np.eye(2)  # positive definite
        recovered = polar_unitary(u @ p)
        assert max_abs(recovered - u) <= 1e-10

    def test_singular_rejected(self):
        with pytest.raises(NumericError):
            polar_unitary(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("small, singular", [(1e-11, False), (1e-13, True)])
    def test_singularity_threshold(self, small, singular):
        # Singular when sigma_min^2 <= 1e-24 max(sigma_max^2, 1).
        for m in (np.diag([1.0, small]), np.diag([small, small])):
            if singular:
                with pytest.raises(NumericError):
                    polar_unitary(m)
            else:
                assert max_abs(polar_unitary(m) - np.eye(2)) <= 1e-15

    def test_non_2x2_rejected(self):
        with pytest.raises(ShapeError):
            polar_unitary(np.eye(3))

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    def test_closed_form_matches_eig_formula(self, parts):
        m = np.array(parts[:4]).reshape(2, 2) + 1j * np.array(parts[4:]).reshape(2, 2)
        w, sigma, vh = np.linalg.svd(m)
        assume(sigma[1] >= 1e-6 and sigma[1] >= 1e-2 * sigma[0])
        cond = sigma[0] / sigma[1]
        u = polar_unitary(m)
        assert max_abs(dagger(u) @ u - np.eye(2)) <= 1e-14
        # U = W V^dagger from the SVD m = W S V^dagger.
        assert max_abs(u - w @ vh) <= 1e-14 * cond
        # The Jacobi reference leaves off-diagonal entries of m^dagger m up to
        # delta = 1e-12 max(1, sigma_max^2), which moves its (m^dagger m)^(-1/2)
        # by up to delta / (2 sigma_min^3) and its U by sigma_max times that.
        delta = 1e-12 * max(1.0, sigma[0] ** 2)
        reference_error = sigma[0] * delta / (2.0 * sigma[1] ** 3)
        assert max_abs(u - eig_polar_reference(m)) <= 1e-14 * cond + reference_error


def complex_stacks(n):
    """Stacks of 1 to 6 complex n x n matrices with parts in [-1, 1]."""
    return st.integers(1, 6).flatmap(
        lambda count: arrays(np.float64, (2, count, n, n), elements=st.floats(-1.0, 1.0))
    ).map(lambda parts: parts[0] + 1j * parts[1])


class TestStacks:
    """Each matrix of a stack gets exactly the result it gets alone."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.sampled_from([2, 4]).flatmap(complex_stacks))
    def test_eig_hermitian_rows(self, m):
        stack = m + dagger(m)
        values, vectors = eig_hermitian(stack)
        for k, matrix in enumerate(stack):
            one_values, one_vectors = eig_hermitian(matrix)
            assert np.array_equal(values[k], one_values)
            assert np.array_equal(vectors[k], one_vectors)

    @settings(max_examples=200, deadline=None)
    @given(m=complex_stacks(2))
    def test_polar_unitary_rows(self, m):
        assume(np.all(np.linalg.svd(m, compute_uv=False)[:, 1] >= 1e-6))
        stack = polar_unitary(m)
        for k, matrix in enumerate(m):
            assert np.array_equal(stack[k], polar_unitary(matrix))

    @settings(max_examples=100, deadline=None)
    @given(u=arrays(np.float64, (6, 3), elements=st.floats(-1.0, 1.0)),
           v=arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)))
    def test_row_dot_rounds_as_np_dot(self, u, v):
        dots = row_dot(u, v)
        for k, row in enumerate(u):
            assert dots[k] == np.dot(row, v)

    @pytest.mark.parametrize("fn, bad, error", [
        (polar_unitary, [[1.0, 0.0], [0.0, 0.0]], NumericError),
        (eig_hermitian, [[0.0, 1.0], [0.0, 0.0]], DomainError),
    ], ids=["singular", "non-hermitian"])
    def test_bad_row_raises_as_alone(self, fn, bad, error):
        stack = np.array([np.eye(2), bad, 2.0 * np.eye(2)], dtype=complex)
        with pytest.raises(error) as alone:
            fn(stack[1])
        with pytest.raises(error) as stacked:
            fn(stack)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)
