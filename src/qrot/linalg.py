"""Dense complex linear algebra on small matrices.

Everything works on plain numpy arrays (complex128, row-major). 2x2 problems
use closed forms: the polar unitary and the singular values behind it, which
the readout-calibration conditioning check shares. The one eigensolver,
``eig_hermitian``, is LAPACK's ``eigh`` and serves the 4x4 Choi projection.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, ShapeError

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_matrix(m, name="matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got shape {m.shape}")
    return m


def _finite_matrix(m) -> np.ndarray:
    """``_as_matrix``, rejecting NaN and infinite entries, which every
    tolerance comparison would let through."""
    m = _as_matrix(m)
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def trace(m) -> complex:
    """Sum of the diagonal of a square matrix."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"trace requires a square matrix, got {m.shape}")
    return complex(np.trace(m))


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def max_abs(m) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def is_unitary(m, tol: float = 1e-10) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return max_abs(dagger(m) @ m - np.eye(m.shape[0])) <= tol


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix by LAPACK's ``eigh``.

    Returns ``(values, vectors)`` with eigenvalues sorted descending and the
    eigenvectors as columns of a unitary matrix, so that
    ``m == vectors @ diag(values) @ vectors.conj().T``. Raises DomainError
    for a non-finite entry or when ``m`` is further than 1e-8 from its
    conjugate transpose.
    """
    a = _finite_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"eigendecomposition requires a square matrix, got {a.shape}")
    if max_abs(a - dagger(a)) > 1e-8:
        raise DomainError("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh((a + dagger(a)) / 2.0)
    return values[::-1], vectors[:, ::-1]


def svd_invariants(m) -> tuple[complex, float, float]:
    """(det m, ||m||_F^2, sigma_max^2) of a 2x2 ``m`` in closed form.

    sigma_max^2 and sigma_min^2 are the roots of x^2 - ||m||_F^2 x + |det m|^2,
    and sigma_max sigma_min = |det m|, so sigma_max / sigma_min =
    sigma_max^2 / |det m|.
    """
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    fro2 = float(np.sum(np.abs(m) ** 2))
    abs_det = abs(det)
    smax2 = 0.5 * (fro2 + np.sqrt(max(fro2 * fro2 - 4.0 * abs_det * abs_det, 0.0)))
    return det, fro2, smax2


def polar_unitary(m) -> np.ndarray:
    """Closest unitary to a 2x2 ``m`` in Frobenius norm (the U of m = U P), in
    closed form (Higham, Functions of Matrices, ch. 8): U = (m + (det m /
    |det m|) adj(m)^dagger) / sqrt(||m||_F^2 + 2 |det m|). Raises NumericError
    when sigma_min^2 <= 1e-24 max(sigma_max^2, 1): ``m`` is numerically
    singular and U is not determined, and DomainError for a non-finite entry.
    """
    m = _finite_matrix(m)
    if m.shape != (2, 2):
        raise ShapeError(f"polar unitary requires a 2x2 matrix, got {m.shape}")
    det, fro2, smax2 = svd_invariants(m)
    abs_det = abs(det)
    if abs_det * abs_det <= 1e-24 * max(smax2, 1.0) * smax2:
        raise NumericError("matrix is numerically singular; polar unitary factor undefined")
    adj_dagger = np.array([[m[1, 1], -m[1, 0]], [-m[0, 1], m[0, 0]]]).conj()
    return (m + (det / abs_det) * adj_dagger) / np.sqrt(fro2 + 2.0 * abs_det)
