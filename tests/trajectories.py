"""Per-shot stochastic Pauli trajectories, kept as a test oracle.

This is the sampler that ``simulator.sample``'s exact outcome
distribution replaced. Every shot is its own statevector: after each
gate, a uniform ``fire`` below the gate's depolarizing probability applies
one Pauli, picked by a second uniform from {X, Y, Z}, to the target; then
one uniform per shot picks the Born outcome and readout flips are drawn per
shot and qubit. Memory grows as shots x 2^n, so keep jobs small.
``_apply_matrix`` applies each gate to every shot at once, over a leading
batch axis; the library's own kernel has no batch axis.
"""

import numpy as np

from qrot import Circuit
from qrot import simulator
from qrot.linalg import PAULI_X, PAULI_Y, PAULI_Z

from oracles import expand_branch_rotations


def _matmul_axis(arr: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(arr, axis, -1)
    return np.moveaxis(moved @ mat.T, -1, axis)


def _apply_matrix(t: np.ndarray, mat: np.ndarray, target: int, n: int,
                  controls=()) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit of a batched state tensor.

    ``t`` has shape (batch, 2, ..., 2) with qubit q on axis 1 + (n - 1 - q).
    Controlled gates act in place on the slice selected by the triggers, so
    ``t`` must be owned by the caller.
    """
    axis = 1 + (n - 1 - target)
    if not controls:
        return _matmul_axis(t, mat, axis)
    sl: list = [slice(None)] * (n + 1)
    for q, trig in controls:
        sl[1 + (n - 1 - q)] = trig
    # Integer indices collapse their axes, shifting the target axis left.
    shift = sum(1 for q, _ in controls if 1 + (n - 1 - q) < axis)
    t[tuple(sl)] = _matmul_axis(t[tuple(sl)], mat, axis - shift)
    return t


def born_outcomes(states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome index of each row of ``states`` for its uniform in ``u``."""
    probs = np.abs(states) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    return np.minimum((u[:, None] >= cum).sum(axis=1), states.shape[1] - 1)


def flip_readout(outcomes: np.ndarray, n: int, p: float,
                 rng: np.random.Generator) -> np.ndarray:
    flips = rng.random((outcomes.size, n)) < p
    return outcomes ^ (flips.astype(np.int64) << np.arange(n)).sum(axis=1)


def sample_trajectories(gates, n: int, shots: int, noise, rng) -> np.ndarray:
    """Outcome index per shot of the controlled gates ``gates`` from
    |0...0>, one trajectory each."""
    dim = 1 << n
    fire = rng.random((shots, len(gates)))
    which = rng.random((shots, len(gates)))
    u_meas = rng.random(shots)
    states = np.zeros((shots, dim), dtype=complex)
    states[:, 0] = 1.0
    t = states.reshape((shots,) + (2,) * n)
    for g, op in enumerate(gates):
        t = _apply_matrix(t, simulator._gate_matrix(op), op.target, n, op.controls)
        p = noise.depol_ctrl if op.controls else noise.depol_1q
        hit = fire[:, g] < p
        pick = np.minimum((which[:, g] * 3).astype(int), 2)
        for k, pauli in enumerate((PAULI_X, PAULI_Y, PAULI_Z)):
            rows = hit & (pick == k)
            if rows.any():
                t[rows] = _apply_matrix(t[rows], pauli, op.target, n)
    return born_outcomes(t.reshape(shots, dim), u_meas)


def trajectory_hist(circuit: Circuit, basis, shots: int, noise, seed: int) -> np.ndarray:
    """Outcome histogram of the trajectory sampler, as ``sample`` measures it.
    Branch rotations run as the controlled gates they stand for."""
    n = circuit.num_qubits
    measured = Circuit(n, circuit.ops + tuple(simulator._basis_change_ops(basis, n)))
    rng = simulator._rng(seed)
    outcomes = sample_trajectories(expand_branch_rotations(measured), n, shots, noise, rng)
    if noise.readout_flip > 0.0:
        outcomes = flip_readout(outcomes, n, noise.readout_flip, rng)
    return np.bincount(outcomes, minlength=1 << n)
