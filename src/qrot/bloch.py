"""Geometry on the Bloch sphere: unit vectors, spherical angles, pure states."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .linalg import PAULI_X, PAULI_Y, PAULI_Z

UNIT_TOL = 1e-9


class SphericalAngles(NamedTuple):
    theta: float  # polar angle from +z, in [0, pi]
    phi: float    # azimuth, in (-pi, pi]


def normalize(v):
    """Return ``(unit_vector, original_norm)``; zero vectors are rejected.

    Callers that accept arbitrary-length vectors normalize explicitly and can
    use the returned norm to rescale results.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector components must be finite")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise DomainError("zero vector has no direction")
    return v / norm, norm


def require_unit(v, tol: float = UNIT_TOL) -> np.ndarray:
    """Validate ``v`` through ``normalize``, require unit length, return ``v``."""
    v = np.asarray(v, dtype=float)
    _, norm = normalize(v)
    if abs(norm - 1.0) > tol:
        raise DomainError(f"vector must be unit length (|v| = {norm!r}); normalize explicitly")
    return v


def vec_to_angles(v) -> SphericalAngles:
    """Spherical angles (theta, phi) of a unit vector. theta = atan2(|(x, y)|, z)
    stays accurate near the poles, where acos(z) does not; at the poles phi is
    conventionally 0, which removes the atan2(0, 0) ambiguity."""
    x, y, z = (float(c) for c in require_unit(v))
    transverse = math.hypot(x, y)
    theta = math.atan2(transverse, z)
    if transverse < 1e-15:
        return SphericalAngles(theta, 0.0)
    phi = math.atan2(y, x)
    if phi <= -math.pi:
        phi = math.pi
    return SphericalAngles(theta, phi)


def angles_to_vec(theta: float, phi: float) -> np.ndarray:
    """Cartesian unit vector for spherical angles (theta from +z, azimuth phi)."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def state_to_bloch(psi) -> np.ndarray:
    """Bloch vector (<X>, <Y>, <Z>) of a normalized single-qubit pure state.

    The result is invariant under a global phase of ``psi``.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (2,):
        raise DomainError(f"expected a single-qubit state of 2 amplitudes, got {psi.shape}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise DomainError("state must be normalized")
    return np.array([
        np.vdot(psi, PAULI_X @ psi).real,
        np.vdot(psi, PAULI_Y @ psi).real,
        np.vdot(psi, PAULI_Z @ psi).real,
    ])


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two nonzero vectors: atan2(|u x v|, u . v) of
    their unit vectors, well conditioned at every angle, where acos of the dot
    product loses all precision near 0 and pi."""
    uu, _ = normalize(u)
    vv, _ = normalize(v)
    return math.atan2(float(np.linalg.norm(np.cross(uu, vv))), float(np.dot(uu, vv)))
