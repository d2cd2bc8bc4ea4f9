"""Dense complex linear algebra on small matrices.

Everything works on plain numpy arrays (complex128, row-major). Each
function takes one matrix or a stack of them, an (..., n, n) array whose
leading axes index the matrices, and runs the same array code either way,
so each matrix of a stack gets the bytes it gets alone. 2x2 problems use
closed forms: the polar unitary and the singular values behind it, which
the readout-calibration conditioning check shares. The one eigensolver, ``eig_hermitian``, is LAPACK's ``eigh``; one
call solves a whole stack of 4x4 Choi matrices.

numpy picks its SIMD kernels at run time, by CPU, and its complex-array
multiply and ``np.abs`` of a complex array round differently at different
dispatch tiers. ``_times`` and ``abs_complex`` give the same bytes at every
dispatch tier of one numpy version. The complex products on the way to an
artifact and every modulus of a complex array (``max_abs`` and the
coefficient pick of ``rotation.erp_from_unitary`` included) use them; a
product by a real or purely imaginary factor rounds alike at every tier.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, ShapeError

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _finite_stack(m) -> np.ndarray:
    """``m`` as a complex matrix or stack of matrices, rejecting NaN and
    infinite entries, which every tolerance comparison would let through."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ShapeError(f"matrix must be at least 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def dagger(m) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(np.asarray(m).conj(), -1, -2)


def abs_complex(z) -> np.ndarray:
    """|z| of each entry by libm's ``hypot``, as ``abs`` of a complex scalar
    computes it, with the same bytes at every dispatch tier; ``np.abs`` of a
    complex array may use a SIMD kernel that rounds differently."""
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def max_abs(m):
    """Largest |entry| of a matrix, or of each matrix of a stack, by
    ``abs_complex``; 0 for an empty matrix."""
    return np.max(abs_complex(m), axis=(-2, -1), initial=0.0)


def unitarity_error(m):
    """max |m^dagger m - I| of a square matrix, or of each matrix of a stack."""
    return max_abs(dagger(m) @ m - np.eye(np.shape(m)[-1]))


def row_dot(u, v) -> np.ndarray:
    """u . v of real vectors along the last axis, stacks broadcast. One
    (..., 1, k) @ (..., k, 1) product: it rounds each row as ``np.dot`` of a
    lone pair does, which a sum along an axis does not."""
    return (np.asarray(u)[..., None, :] @ np.asarray(v)[..., :, None])[..., 0, 0]


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of an
    (..., n, n) stack, by one LAPACK ``eigh`` call.

    Returns ``(values, vectors)`` with eigenvalues sorted descending along
    the last axis and the eigenvectors as columns of unitary matrices, so
    that ``m == vectors @ diag(values) @ vectors.conj().T`` for each matrix.
    Raises DomainError for a non-finite entry or when a matrix is further
    than 1e-8 from its conjugate transpose.
    """
    a = _finite_stack(m)
    if a.shape[-2] != a.shape[-1]:
        raise ShapeError(f"eigendecomposition requires a square matrix, got {a.shape}")
    if np.any(max_abs(a - dagger(a)) > 1e-8):
        raise DomainError("matrix is not Hermitian within tolerance")
    values, vectors = np.linalg.eigh((a + dagger(a)) / 2.0)
    return values[..., ::-1], vectors[..., ::-1]


def _entries(m):
    """The entries (a, b), (c, d) of a 2x2 ``m``, each an array over the
    stack's leading axes."""
    m = np.asarray(m)
    return (m[..., 0, 0], m[..., 0, 1]), (m[..., 1, 0], m[..., 1, 1])


def _times(x, y) -> np.ndarray:
    """x * y of complex arrays from their real parts, as a complex scalar
    multiplies, with the same bytes at every dispatch tier; numpy's
    complex-array multiply may fuse the products (FMA) and round
    differently."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def svd_invariants(m):
    """(det m, ||m||_F^2, sigma_max^2) of a 2x2 ``m``, or of each matrix of an
    (..., 2, 2) stack, in closed form.

    sigma_max^2 and sigma_min^2 are the roots of x^2 - ||m||_F^2 x + |det m|^2,
    and sigma_max sigma_min = |det m|, so sigma_max / sigma_min =
    sigma_max^2 / |det m|.
    """
    (a, b), (c, d) = _entries(m)
    det = _times(a, d) - _times(b, c)
    fro2 = np.sum(m.real * m.real + m.imag * m.imag, axis=(-2, -1))
    abs_det = abs_complex(det)
    smax2 = 0.5 * (fro2 + np.sqrt(np.maximum(fro2 * fro2 - 4.0 * abs_det * abs_det, 0.0)))
    return det, fro2, smax2


def polar_unitary(m) -> np.ndarray:
    """Closest unitary to a 2x2 ``m`` in Frobenius norm (the U of m = U P),
    or to each matrix of an (..., 2, 2) stack, in closed form (Higham,
    Functions of Matrices, ch. 8): U = (m + (det m / |det m|) adj(m)^dagger)
    / sqrt(||m||_F^2 + 2 |det m|). Raises NumericError when a matrix has
    sigma_min^2 <= 1e-24 max(sigma_max^2, 1): it is numerically singular and
    U is not determined, and DomainError for a non-finite entry.
    """
    m = _finite_stack(m)
    if m.shape[-2:] != (2, 2):
        raise ShapeError(f"polar unitary requires a 2x2 matrix, got {m.shape}")
    det, fro2, smax2 = svd_invariants(m)
    abs_det = abs_complex(det)
    if np.any(abs_det * abs_det <= 1e-24 * np.maximum(smax2, 1.0) * smax2):
        raise NumericError("matrix is numerically singular; polar unitary factor undefined")
    (a, b), (c, d) = _entries(m)
    adj_dagger = np.moveaxis(np.array([[d, -c], [-b, a]]), (0, 1), (-2, -1)).conj()
    phase = (det / abs_det)[..., None, None]
    return (m + _times(phase, adj_dagger)) / np.sqrt(fro2 + 2.0 * abs_det)[..., None, None]
