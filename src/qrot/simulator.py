"""Exact statevector evolution and seeded shot sampling.

Conventions
-----------
* Qubit 0 is the least-significant bit of a basis-state index; outcome
  bitstrings are printed most-significant-first, so the last character of a
  bitstring is qubit 0.
* Measurement bases are per-qubit Pauli labels. "Z" measures directly; "X"
  applies H before measuring; "Y" applies RZ(-pi/2) then H. Basis-change
  gates are ordinary gates and are subject to gate noise like any other.
* Randomness comes from numpy's Philox counter-based generator keyed by a
  64-bit seed, so identical inputs give byte-identical counts. Per sampling
  job the stream is consumed in fixed blocks: with stochastic gate noise,
  uniforms for (noise trigger, Pauli choice) per gate and shot, then one
  measurement uniform per shot, then readout-flip uniforms (one per shot and
  qubit); without gate noise only the measurement and readout blocks are
  drawn. A partition of the shot range can therefore reproduce its rows by
  advancing the counter, and merged counts do not depend on how shots are
  batched.
* Without gate noise the final state is computed once, and each shot's
  outcome is the inverse-CDF lookup of its uniform in the cumulative Born
  distribution. Uniforms are drawn and looked up ``SAMPLE_CHUNK`` at a time
  (readout flips from a second generator positioned at the readout block),
  so memory is O(2^n + SAMPLE_CHUNK) whatever the shot count, and an s-shot
  job's outcomes are the first s outcomes of any larger job at the same seed
  when there are no readout flips.
* Gate noise: after each gate, with the configured depolarizing probability
  (``depol_ctrl`` for controlled gates, ``depol_1q`` otherwise), one Pauli
  chosen uniformly from {X, Y, Z} is applied to the gate's target qubit.
  ``readout_flip`` flips each measured bit independently. With gate noise
  every shot is simulated as its own statevector trajectory, which needs
  O(shots x 2^n) memory; jobs whose estimate exceeds
  ``TRAJECTORY_BUDGET_BYTES`` are rejected with ``DomainError`` before
  anything is allocated.
* Counts are an integer histogram over the 2^n outcome indices
  (``ShotResult.hist``); bitstring keys exist only as a view for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .circuit import Circuit, GateOp
from .errors import DomainError, NumericError, ShapeError
from .linalg import PAULI_X, PAULI_Y, PAULI_Z
from .rotation import gate_rx, gate_ry, gate_rz

_MASK64 = (1 << 64) - 1

# Shots drawn and looked up at a time on the noiseless path.
SAMPLE_CHUNK = 1 << 16

# Working-memory budget of the trajectory sampler, in bytes; see
# ``trajectory_bytes`` for the estimate it bounds.
TRAJECTORY_BUDGET_BYTES = 2 << 30

_CONST_GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "X": PAULI_X,
}
_PARAM_GATES = {"RX": gate_rx, "RY": gate_ry, "RZ": gate_rz}

BASIS_LABELS = ("X", "Y", "Z")


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing probabilities per gate plus an independent readout flip."""

    depol_1q: float = 0.0
    depol_ctrl: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        for name in ("depol_1q", "depol_ctrl", "readout_flip"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"{name} must be a probability in [0, 1], got {p!r}")

    @property
    def is_noiseless(self) -> bool:
        return self.depol_1q == 0.0 and self.depol_ctrl == 0.0 and self.readout_flip == 0.0


NOISELESS = NoiseModel()


@dataclass(frozen=True, eq=False)
class ShotResult:
    """Outcome histogram for one measurement basis: ``hist[j]`` counts the
    shots that read basis-state index j (int64, length 2^n, read-only)."""

    basis: tuple[str, ...]
    hist: np.ndarray
    shots: int

    def __post_init__(self):
        hist = np.array(self.hist, dtype=np.int64)
        if hist.shape != (1 << len(self.basis),):
            raise ShapeError(f"histogram of shape {hist.shape} does not match "
                             f"{len(self.basis)} measured qubits")
        if hist.min() < 0 or hist.sum() != self.shots:
            raise DomainError(f"histogram must be nonnegative and sum to {self.shots} shots")
        hist.setflags(write=False)
        object.__setattr__(self, "hist", hist)

    @property
    def counts(self) -> MappingProxyType:
        """Read-only bitstring view of the nonzero histogram entries."""
        n = len(self.basis)
        return MappingProxyType({format(j, f"0{n}b"): int(c)
                                 for j, c in enumerate(self.hist) if c})


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Derive an independent child seed from ``seed`` and an index path.

    Uses splitmix64 mixing, so the derivation is documented, cheap, and
    reproducible from the integers alone.
    """
    s = int(seed) & _MASK64
    for part in path:
        s = _splitmix64(s ^ _splitmix64(int(part) & _MASK64))
    return s


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _gate_matrix(op: GateOp) -> np.ndarray:
    if op.kind in _CONST_GATES:
        return _CONST_GATES[op.kind]
    return _PARAM_GATES[op.kind](op.theta)


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


def _apply_ops_batched(states: np.ndarray, ops, n: int) -> np.ndarray:
    t = states.reshape((-1,) + (2,) * n)
    for op in ops:
        t = _apply_matrix(t, _gate_matrix(op), op.target, n, op.controls)
    return t.reshape(states.shape)


def apply(circuit: Circuit, initial) -> np.ndarray:
    """Evolve ``initial`` through the circuit exactly; returns the final state."""
    initial = np.asarray(initial, dtype=complex).reshape(-1)
    dim = 1 << circuit.num_qubits
    if initial.shape != (dim,):
        raise ShapeError(
            f"state has {initial.shape[0]} amplitudes; circuit width {circuit.num_qubits} "
            f"needs {dim}")
    if abs(np.linalg.norm(initial) - 1.0) > 1e-10:
        raise DomainError("initial state must be normalized")
    out = _apply_ops_batched(initial[None, :].copy(), circuit.ops, circuit.num_qubits)[0]
    if abs(np.linalg.norm(out) - 1.0) > 1e-10:
        raise NumericError("statevector norm drifted beyond 1e-10")
    return out


def _basis_change_ops(basis, n: int) -> list[GateOp]:
    ops: list[GateOp] = []
    for q, label in enumerate(basis):
        if label == "Z":
            continue
        if label == "X":
            ops.append(GateOp("H", q))
        elif label == "Y":
            ops.append(GateOp("RZ", q, -math.pi / 2.0))
            ops.append(GateOp("H", q))
        else:
            raise DomainError(f"invalid basis label {label!r}; expected X, Y or Z")
    return ops


def marginal_counts(hist: np.ndarray, qubit: int) -> np.ndarray:
    """Counts of bit 0 and bit 1 on one qubit, summed over all others."""
    return hist.reshape(-1, 2, 1 << qubit).sum(axis=(0, 2))


def _born_outcomes(states: np.ndarray, u: np.ndarray) -> np.ndarray:
    probs = np.abs(states) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    return np.minimum((u[:, None] >= cum).sum(axis=1), states.shape[1] - 1)


def _ideal_outcomes(final: np.ndarray, shots: int, rng: np.random.Generator):
    """Yield Born-rule outcome indices of ``final`` for ``shots`` shots, at
    most SAMPLE_CHUNK at a time; ``side="right"`` counts the cumulative
    probabilities <= u, the same comparisons as ``_born_outcomes``."""
    probs = np.abs(final) ** 2
    cum = np.cumsum(probs / probs.sum())
    for start in range(0, shots, SAMPLE_CHUNK):
        u = rng.random(min(SAMPLE_CHUNK, shots - start))
        idx = np.searchsorted(cum, u, side="right")
        yield np.minimum(idx, cum.size - 1, out=idx)


def _flip_readout(outcomes: np.ndarray, n: int, p: float,
                  rng: np.random.Generator) -> np.ndarray:
    flips = rng.random((outcomes.size, n)) < p
    return outcomes ^ (flips.astype(np.int64) << np.arange(n)).sum(axis=1)


def trajectory_bytes(shots: int, n: int, num_gates: int) -> int:
    """Estimated working memory of ``_sample_trajectories`` in bytes: per
    shot, three complex statevectors (the state, a gate's output, and the
    Born probabilities with their cumulative sums) plus two float64 noise
    uniforms per gate."""
    return shots * (3 * (1 << n) * 16 + 2 * num_gates * 8)


def _sample_trajectories(ops, n: int, shots: int, noise: NoiseModel,
                         rng: np.random.Generator) -> np.ndarray:
    """Per-shot stochastic-Pauli trajectories, vectorized across shots."""
    dim = 1 << n
    num_gates = len(ops)
    need = trajectory_bytes(shots, n, num_gates)
    if need > TRAJECTORY_BUDGET_BYTES:
        raise DomainError(
            f"noisy sampling of {shots} shots over {dim} outcomes needs about "
            f"{need / 2**30:.1f} GiB, above the {TRAJECTORY_BUDGET_BYTES / 2**30:g} GiB "
            "budget; use fewer shots or vectors, or no gate noise")
    fire = rng.random((shots, num_gates))
    which = rng.random((shots, num_gates))
    u_meas = rng.random(shots)
    states = np.zeros((shots, dim), dtype=complex)
    states[:, 0] = 1.0
    t = states.reshape((shots,) + (2,) * n)
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    for g, op in enumerate(ops):
        t = _apply_matrix(t, _gate_matrix(op), op.target, n, op.controls)
        p = noise.depol_ctrl if op.controls else noise.depol_1q
        if p <= 0.0:
            continue
        hit = fire[:, g] < p
        if not hit.any():
            continue
        pick = np.minimum((which[:, g] * 3).astype(int), 2)
        for k, pauli in enumerate(paulis):
            rows = hit & (pick == k)
            if rows.any():
                t[rows] = _apply_matrix(t[rows], pauli, op.target, n)
    return _born_outcomes(t.reshape(shots, dim), u_meas)


def sample(circuit: Circuit, basis, shots: int, noise: NoiseModel | None = None,
           seed: int = 0) -> ShotResult:
    """Run the circuit from |0...0>, measure every qubit, return the outcome
    histogram.

    ``basis`` gives one Pauli label per qubit (index order). Deterministic
    for fixed ``(circuit, basis, shots, noise, seed)``.
    """
    noise = NOISELESS if noise is None else noise
    if shots < 1:
        raise DomainError(f"shots must be >= 1, got {shots}")
    n = circuit.num_qubits
    basis = tuple(str(b).upper() for b in basis)
    if len(basis) != n:
        raise DomainError(f"expected {n} basis labels, got {len(basis)}")
    all_ops = list(circuit.ops) + _basis_change_ops(basis, n)
    dim = 1 << n
    flip = noise.readout_flip
    rng = _rng(seed)
    if noise.depol_1q == 0.0 and noise.depol_ctrl == 0.0:
        final = _apply_ops_batched(zero_state(n)[None, :], all_ops, n)[0]
        if flip > 0.0:
            # Position a second generator at the readout block, which starts
            # after the ``shots`` measurement uniforms (4 per Philox counter).
            flip_rng = _rng(seed)
            flip_rng.bit_generator.advance(shots // 4)
            flip_rng.random(shots % 4)
        hist = np.zeros(dim, dtype=np.int64)
        for outcomes in _ideal_outcomes(final, shots, rng):
            if flip > 0.0:
                outcomes = _flip_readout(outcomes, n, flip, flip_rng)
            hist += np.bincount(outcomes, minlength=dim)
    else:
        outcomes = _sample_trajectories(all_ops, n, shots, noise, rng)
        if flip > 0.0:
            outcomes = _flip_readout(outcomes, n, flip, rng)
        hist = np.bincount(outcomes, minlength=dim)
    return ShotResult(basis=basis, hist=hist, shots=int(shots))


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
