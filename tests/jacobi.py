"""Cyclic Jacobi eigensolver for Hermitian matrices, kept as a test oracle.

This is the eigensolver that ``qrot.linalg.eig_hermitian`` used before it
called LAPACK's ``eigh``. Each sweep zeroes every off-diagonal entry above
``off_tol`` times the largest input entry with one complex Jacobi rotation,
so entries below that threshold are left in place. Its tests in
``test_linalg.py`` run the same cases as the library's.
"""

import numpy as np

from qrot.errors import DomainError, NumericError, ShapeError
from qrot.linalg import _as_matrix, dagger, max_abs


def eig_hermitian(m, *, hermiticity_tol: float = 1e-8,
                  max_sweeps: int = 100, off_tol: float = 1e-12):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns ``(values, vectors)`` with eigenvalues sorted descending and the
    eigenvectors as columns of a unitary matrix, so that
    ``m == vectors @ diag(values) @ vectors.conj().T``.

    Each step phase-rotates the (p, q) pivot into a real symmetric 2x2
    subproblem and annihilates the off-diagonal entry with a classical
    Jacobi rotation. Convergence is quadratic; a handful of sweeps suffices
    for the dimensions used here. Raises NumericError if the off-diagonal
    mass has not dropped below ``off_tol`` (relative to the largest input
    entry) after ``max_sweeps`` sweeps.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"eigendecomposition requires a square matrix, got {a.shape}")
    if max_abs(a - dagger(a)) > hermiticity_tol:
        raise DomainError("matrix is not Hermitian within tolerance")
    a = (a + dagger(a)) / 2.0
    d = a.shape[0]
    v = np.eye(d, dtype=complex)

    threshold = off_tol * max(1.0, max_abs(a))
    for _ in range(max_sweeps):
        if max_abs(np.triu(a, 1)) <= threshold:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                r = abs(apq)
                if r <= threshold:
                    continue
                phase = apq / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # 2x2 unitary diag(1, conj(phase)) . [[c, s], [-s, c]]
                w_pp, w_pq = c, s
                w_qp, w_qq = -s * np.conj(phase), c * np.conj(phase)
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = col_p * w_pp + col_q * w_qp
                a[:, q] = col_p * w_pq + col_q * w_qq
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = np.conj(w_pp) * row_p + np.conj(w_qp) * row_q
                a[q, :] = np.conj(w_pq) * row_p + np.conj(w_qq) * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vcol_p = v[:, p].copy()
                vcol_q = v[:, q].copy()
                v[:, p] = vcol_p * w_pp + vcol_q * w_qp
                v[:, q] = vcol_p * w_pq + vcol_q * w_qq
    if max_abs(np.triu(a, 1)) > threshold:
        raise NumericError(f"Jacobi iteration did not converge in {max_sweeps} sweeps")

    values = np.real(np.diag(a)).copy()
    order = np.argsort(-values, kind="stable")
    return values[order], v[:, order]
