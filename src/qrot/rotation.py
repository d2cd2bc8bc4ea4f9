"""Axis-angle rotations: the classical oracle and the single-qubit circuit.

The package keeps one route per job: the Rodrigues vector formula
(``rodrigues_rotate``) rotates vectors, ``erp_from_spec`` gives the
Euler-Rodrigues parameters, ``axis_rotation_sequence`` gives the five-gate
RZ/RY conjugation sequence the circuits run, and ``axis_rotation_unitary``
its closed form cos(t/2) I - i sin(t/2) (n . sigma). The Rodrigues matrix,
the Euler-Rodrigues parameter matrix and the gate-by-gate product of the
sequence are second routes that only cross-check these, so they live with
the test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bloch import require_unit, vec_to_angles
from .circuit import GateOp
from .errors import DomainError
from .linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, abs_complex, row_dot, unitarity_error

# |a| below this is treated as zero when fixing the sign of an ErParams tuple.
_SIGN_TOL = 1e-9


@dataclass(frozen=True)
class RotationSpec:
    """A rotation: unit axis and angle in radians.

    The axis must already be unit length; callers normalize explicitly (a
    zero axis has no meaningful direction and is rejected outright).
    """

    axis: np.ndarray
    angle_r: float

    def __post_init__(self):
        axis = require_unit(self.axis).copy()
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        if not math.isfinite(self.angle_r):
            raise DomainError("rotation angle must be finite")
        object.__setattr__(self, "angle_r", float(self.angle_r))


class ErParams(NamedTuple):
    """Euler-Rodrigues parameters (a, b, c, d) with a^2+b^2+c^2+d^2 = 1.

    (a, b, c, d) and (-a, -b, -c, -d) describe the same rotation; use
    ``canonical()`` before comparing component-wise.
    """

    a: float
    b: float
    c: float
    d: float

    def canonical(self) -> "ErParams":
        """Fix the overall sign: first component larger than a tolerance is positive."""
        for comp in self:
            if comp > _SIGN_TOL:
                return self
            if comp < -_SIGN_TOL:
                return ErParams(-self.a, -self.b, -self.c, -self.d)
        return self


def rodrigues_rotate(spec: RotationSpec, x) -> np.ndarray:
    """Rotate ``x`` about the axis: u (u.x) + cos(t) (u x x) x u + sin(t) (u x x).

    Deliberately a different formula from the Rodrigues matrix of the test
    oracles, so the two can cross-check each other. Preserves the norm of
    ``x``. ``x`` is one 3-vector or an (..., 3) stack of them; each row of a
    stack gets the bytes it gets alone, since u.x is taken by ``row_dot`` (a
    plain ``x @ u`` may round differently).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise DomainError(f"expected a 3-vector, got shape {x.shape}")
    u = spec.axis
    uxx = np.cross(u, x)
    return u * row_dot(u, x)[..., None] + math.cos(spec.angle_r) * np.cross(uxx, u) \
        + math.sin(spec.angle_r) * uxx


def erp_from_spec(spec: RotationSpec) -> ErParams:
    """Euler-Rodrigues parameters of an axis-angle rotation:
    a = cos(t/2), (b, c, d) = axis sin(t/2)."""
    half = spec.angle_r / 2.0
    s = math.sin(half)
    return ErParams(math.cos(half), spec.axis[0] * s, spec.axis[1] * s, spec.axis[2] * s)


def gate_rx(theta: float) -> np.ndarray:
    """Rotation about x: exp(-i X theta/2)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def gate_ry(theta) -> np.ndarray:
    """Rotation about y: exp(-i Y theta/2). An array of k angles gives a
    contiguous (k, 2, 2) stack, each matrix with the bytes of its angle's
    own call."""
    half = np.asarray(theta, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    out = np.empty(half.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1], out[..., 1, 0] = -s, s
    return out


def gate_rz(theta) -> np.ndarray:
    """Rotation about z: exp(-i Z theta/2). An array of k angles gives a
    contiguous (k, 2, 2) stack, each matrix with the bytes of its angle's
    own call."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    return out


def initialization_ops(vector) -> tuple[GateOp, ...]:
    """Gates mapping qubit 0 from |0> to the state whose Bloch vector is
    ``vector``: RY(theta) then RZ(phi)."""
    theta, phi = vec_to_angles(vector)
    return (GateOp("RY", 0, theta), GateOp("RZ", 0, phi))


def axis_rotation_sequence(spec: RotationSpec) -> tuple[GateOp, ...]:
    """The five-gate realization of a rotation about an arbitrary axis, on
    qubit 0.

    In application order: RZ(-phi_n), RY(-theta_n), RZ(theta_r), RY(theta_n),
    RZ(phi_n), where (theta_n, phi_n) are the spherical angles of the axis.
    The outer four gates swing the axis onto z and back; the middle gate does
    the actual rotation.
    """
    theta_n, phi_n = vec_to_angles(spec.axis)
    return (
        GateOp("RZ", 0, -phi_n),
        GateOp("RY", 0, -theta_n),
        GateOp("RZ", 0, spec.angle_r),
        GateOp("RY", 0, theta_n),
        GateOp("RZ", 0, phi_n),
    )


def axis_rotation_unitary(spec: RotationSpec) -> np.ndarray:
    """Closed-form 2x2 unitary: cos(t/2) I - i sin(t/2) (n . sigma).

    Equal to the product of the ``axis_rotation_sequence`` gates (not merely
    up to phase; both have unit determinant).
    """
    half = spec.angle_r / 2.0
    n = spec.axis
    return math.cos(half) * PAULI_I - 1j * math.sin(half) * (
        n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)


def erp_from_unitary(u, unitarity_tol: float = 1e-6) -> ErParams:
    """Euler-Rodrigues parameters read off a 2x2 unitary via Pauli traces.

    Writing U = delta I + alpha X + beta Y + gamma Z, the coefficients follow
    from delta = Tr(U)/2 and alpha = Tr(U X)/2 (and cyclically), and relate to
    the rotation parameters as (a, b, c, d) = (delta, i alpha, i beta, i gamma)
    once the unobservable global phase is removed. The phase is fixed so that
    Tr(U) is real positive when |Tr(U)| is resolvable; for half-turn rotations
    (traceless U) it is fixed from the largest remaining coefficient, and the
    result is sign-canonicalized so the first nonzero of (b, c, d) is positive.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not unitarity_error(u) <= unitarity_tol:
        raise DomainError("matrix is not unitary within tolerance")
    comps = np.array([
        np.trace(u) / 2.0,
        1j * np.trace(u @ PAULI_X) / 2.0,
        1j * np.trace(u @ PAULI_Y) / 2.0,
        1j * np.trace(u @ PAULI_Z) / 2.0,
    ])
    t0 = comps[0]
    if abs(t0) > _SIGN_TOL:
        phase = t0 / abs(t0)
    else:
        j = int(np.argmax(abs_complex(comps)))
        phase = comps[j] / abs(comps[j])
    comps = comps / phase
    return ErParams(*(float(c.real) for c in comps)).canonical()
