"""Geometry on the Bloch sphere: unit vectors, spherical angles, pure states."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, row_dot

UNIT_TOL = 1e-9


class SphericalAngles(NamedTuple):
    theta: float  # polar angle from +z, in [0, pi]
    phi: float    # azimuth, in (-pi, pi]


def normalize(v):
    """Return ``(unit_vector, original_norm)`` of one 3-vector: the one-row
    case of ``_units``. Callers that accept arbitrary-length vectors
    normalize explicitly and can use the returned norm to rescale results."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {v.shape}")
    unit, norm = _units(v)
    return unit, float(norm)


def require_unit(v) -> np.ndarray:
    """Validate ``v`` through ``normalize``, require unit length, return ``v``."""
    v = np.asarray(v, dtype=float)
    _, norm = normalize(v)
    if abs(norm - 1.0) > UNIT_TOL:
        raise DomainError(f"vector must be unit length (|v| = {norm!r}); normalize explicitly")
    return v


def vec_to_angles(v) -> SphericalAngles:
    """Spherical angles (theta, phi) of a unit vector. theta = atan2(|(x, y)|, z)
    stays accurate near the poles, where acos(z) does not; at the poles phi is
    conventionally 0, which removes the atan2(0, 0) ambiguity."""
    return _spherical_angles(*(float(c) for c in require_unit(v)))


def _spherical_angles(x: float, y: float, z: float) -> SphericalAngles:
    """``vec_to_angles`` of a unit vector's components, which it does not
    check again; for a batch that was validated as a whole."""
    transverse = math.hypot(x, y)
    theta = math.atan2(transverse, z)
    if transverse < 1e-15:
        return SphericalAngles(theta, 0.0)
    phi = math.atan2(y, x)
    if phi <= -math.pi:
        phi = math.pi
    return SphericalAngles(theta, phi)


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


def _units(v):
    """The normalizer: (units, norms) of each 3-vector of a (..., 3) stack,
    each row the bytes it gets alone; zero and non-finite rows are rejected.
    Every row is scaled by an exact power of two before its norm is taken:
    a row whose largest component lies outside [2^-511, 2^510] by 2^-e, e
    being that component's binary exponent, and every other row by 2^0,
    which ``ldexp`` returns unchanged."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise DomainError(f"expected a 3-vector, got shape {v.shape}")
    top = np.abs(v).max(axis=-1)
    if not np.isfinite(top).all():
        raise DomainError("vector components must be finite")
    if (top == 0.0).any():
        raise DomainError("zero vector has no direction")
    inside = (top >= 2.0**-511) & (top <= 2.0**510)
    exponent = np.where(inside, 0, np.frexp(top)[1])
    scaled = np.ldexp(v, -exponent[..., None])
    scaled_norm = np.sqrt(row_dot(scaled, scaled))
    with np.errstate(over="ignore"):
        return scaled / scaled_norm[..., None], np.ldexp(scaled_norm, exponent)


def angle_between(u, v):
    """Angle in [0, pi] between two nonzero vectors: atan2(|u x v|, u . v) of
    their unit vectors, well conditioned at every angle, where acos of the dot
    product loses all precision near 0 and pi. Either side may be a (..., 3)
    stack; the angles then come back as an array of the stack's shape."""
    uu, _ = _units(u)
    vv, _ = _units(v)
    cross = uu[..., [1, 2, 0]] * vv[..., [2, 0, 1]] - uu[..., [2, 0, 1]] * vv[..., [1, 2, 0]]
    sin, cos = np.sqrt(row_dot(cross, cross)), row_dot(uu, vv)
    # math.atan2 (libm) per angle: np.arctan2 may use a SIMD kernel that
    # rounds differently.
    angles = np.array([math.atan2(s, c) for s, c in zip(np.ravel(sin).tolist(),
                                                         np.ravel(cos).tolist())])
    return float(angles[0]) if np.ndim(sin) == 0 else angles.reshape(np.shape(sin))
