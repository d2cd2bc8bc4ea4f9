"""Oracles and helpers that tests use and no code in ``qrot`` calls.

The package keeps one route per job; the second routes that cross-check it
live here. ``rodrigues_matrix`` and ``er_matrix`` build the rotation matrix
that ``rodrigues_rotate`` applies, ``sequence_unitary`` multiplies out the
gates of ``axis_rotation_sequence``, ``state_to_bloch`` reads a pure state's
Bloch vector, and ``process_tomography_exact`` runs the process
reconstruction on exact output states of ``PREP_STATES``, the vectors that
``tomography._PREP_OPS`` prepares. The rest are diagnostic views of counts,
circuits and batches.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from qrot import (PAULI_X, PAULI_Y, PAULI_Z, BranchRotation, Circuit, DomainError, ErParams,
                  GateOp, RotationSpec, ShapeError, VectorBatch, apply, axis_rotation_sequence,
                  zero_state)
from qrot.linalg import unitarity_error
from qrot.multirot import build_encoding_circuit, full_circuit
from qrot.simulator import _gate_matrix
from qrot.tomography import ProcessTomographyResult, _process_result

# The four spanning input states of process tomography, in PREP_LABELS order.
PREP_STATES = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
)


def rodrigues_matrix(spec: RotationSpec) -> np.ndarray:
    """Proper rotation matrix: cos(t) I + sin(t) [u]_x + (1 - cos(t)) (u u^T)."""
    u = spec.axis
    c = math.cos(spec.angle_r)
    s = math.sin(spec.angle_r)
    cross = np.array([
        [0.0, -u[2], u[1]],
        [u[2], 0.0, -u[0]],
        [-u[1], u[0], 0.0],
    ])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(u, u)


def quadratic_norm(p: ErParams) -> float:
    """a^2 + b^2 + c^2 + d^2, which is 1 for the parameters of a rotation."""
    return p.a ** 2 + p.b ** 2 + p.c ** 2 + p.d ** 2


def er_matrix(p: ErParams) -> np.ndarray:
    """Rotation matrix built from Euler-Rodrigues parameters."""
    a, b, c, d = p
    if abs(quadratic_norm(p) - 1.0) > 1e-6:
        raise DomainError(
            f"parameters violate a^2+b^2+c^2+d^2 = 1 (got {quadratic_norm(p)!r})")
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
    ])


def sequence_unitary(spec: RotationSpec) -> np.ndarray:
    """2x2 unitary of the gates of ``axis_rotation_sequence(spec)``, composed
    gate by gate in application order."""
    first, *rest = axis_rotation_sequence(spec)
    u = _gate_matrix(first)
    for op in rest:
        u = _gate_matrix(op) @ u
    return u


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


def process_tomography_exact(u) -> ProcessTomographyResult:
    """Process tomography of a 2x2 unitary from analytic (infinite-shot)
    expectation values; isolates the reconstruction algebra from shot noise."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ShapeError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not unitarity_error(u) <= 1e-6:
        raise DomainError("matrix is not unitary within tolerance")
    return _process_result(np.array([[np.outer(out, out.conj())
                                      for out in (u @ psi for psi in PREP_STATES)]]))


def _as_matrix(m, name="matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got shape {m.shape}")
    return m


def align_global_phase(reference, m) -> np.ndarray:
    """Multiply ``m`` by the unit phase that best matches ``reference``.

    Comparing unitaries that may differ by an unobservable overall phase is
    only meaningful after this alignment.
    """
    reference = _as_matrix(reference, "reference")
    m = _as_matrix(m)
    z = complex(np.sum(np.conj(reference) * m))
    if abs(z) < 1e-12:
        weights = np.abs(reference) * np.abs(m)
        j = int(np.argmax(weights))
        if weights.flat[j] < 1e-12:
            return m
        z = complex(np.conj(reference.flat[j]) * m.flat[j])
    return m * (np.conj(z) / abs(z))


def marginal_counts(hist: np.ndarray, qubit: int) -> np.ndarray:
    """Counts of bit 0 and bit 1 on one qubit, summed over all others."""
    return hist.reshape(-1, 2, 1 << qubit).sum(axis=(0, 2))


def expectation_from_counts(table: np.ndarray, qubit: int) -> float:
    """Expectation of the measured Pauli on one qubit of a count table's last
    row: (N_plus - N_minus)/shots. Outcome bit 0 counts as +1, bit 1 as -1.
    """
    hist = table[-1]
    shots = int(hist.sum())
    if shots < 1:
        raise DomainError("empty counts")
    n = table.shape[-1].bit_length() - 1
    if not 0 <= qubit < n:
        raise DomainError(f"qubit {qubit} out of range for {n} measured qubits")
    pos = int(marginal_counts(hist, qubit)[0])
    return (2 * pos - shots) / shots


def bitstring_counts(table: np.ndarray) -> MappingProxyType:
    """Read-only bitstring view of the nonzero entries of a count table's
    last row."""
    n = table.shape[-1].bit_length() - 1
    return MappingProxyType({format(j, f"0{n}b"): int(c)
                             for j, c in enumerate(table[-1]) if c})


def branch_blochs(batch: VectorBatch, rotation=None) -> np.ndarray:
    """Exact per-branch Bloch vectors of the data qubit (diagnostic helper).

    Of the encoding alone, or of the encoding plus ``rotation``. Row i is
    branch i's conditional data-qubit state; every branch of the uniform
    superposition has equal weight, so the conditional states are exact.
    """
    circuit = (build_encoding_circuit(batch) if rotation is None
               else full_circuit(batch, rotation))
    n = batch.n
    state = apply(circuit, zero_state(n + 1))
    out = np.empty((1 << n, 3))
    for branch in range(1 << n):
        amp = state[2 * branch: 2 * branch + 2]
        out[branch] = state_to_bloch(amp / np.linalg.norm(amp))
    return out


def angles_to_vec(theta: float, phi: float) -> np.ndarray:
    """Cartesian unit vector for spherical angles (theta from +z, azimuth phi)."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def confuse_readout_unskipped(probs: np.ndarray, flips) -> np.ndarray:
    """``simulator._confuse_readout`` without its skip of zero flips: every
    qubit's confusion map (1 - f) t + f flip(t) is applied, f = 0 included."""
    n = len(flips)
    t = probs.reshape((2,) * n)
    for axis in range(n):
        f = flips[n - 1 - axis]
        t = (1.0 - f) * t + f * np.flip(t, axis)
    return t.reshape(-1)


def expand_branch_rotations(circuit: Circuit) -> Circuit:
    """``circuit`` with each ``BranchRotation`` replaced by the fully controlled
    ``GateOp``s it stands for: one per angle, in branch order, where the k-th
    control carries bit k of the branch index. This is the per-index encoding
    the branch rotations replaced."""
    ops = []
    for op in circuit.ops:
        if not isinstance(op, BranchRotation):
            ops.append(op)
            continue
        for branch, theta in enumerate(op.thetas):
            triggers = tuple([(q, (branch >> k) & 1) for k, q in enumerate(op.controls)])
            ops.append(GateOp(op.kind, op.target, theta, triggers))
    return Circuit(circuit.num_qubits, ops)
