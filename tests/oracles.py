"""Helpers that tests use as oracles and no code in ``qrot`` calls."""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from qrot import (BranchRotation, Circuit, DomainError, GateOp, ShotResult, VectorBatch, apply,
                  state_to_bloch, zero_state)
from qrot.linalg import _as_matrix
from qrot.multirot import build_encoding_circuit, full_circuit


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


def expectation_from_counts(result: ShotResult, qubit: int) -> float:
    """Expectation of the measured Pauli on one qubit: (N_plus - N_minus)/shots.

    Outcome bit 0 counts as +1, bit 1 as -1.
    """
    if result.shots < 1:
        raise DomainError("empty counts")
    n = len(result.basis)
    if not 0 <= qubit < n:
        raise DomainError(f"qubit {qubit} out of range for {n} measured qubits")
    pos = int(marginal_counts(result.hist, qubit)[0])
    return (2 * pos - result.shots) / result.shots


def bitstring_counts(result: ShotResult) -> MappingProxyType:
    """Read-only bitstring view of the nonzero histogram entries."""
    n = len(result.basis)
    return MappingProxyType({format(j, f"0{n}b"): int(c)
                             for j, c in enumerate(result.hist) if c})


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
