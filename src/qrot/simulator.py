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
  64-bit seed, so identical inputs give byte-identical counts. A sampling
  job computes its exact outcome distribution once and then draws one
  uniform per shot, ``SAMPLE_CHUNK`` at a time, mapping each to its outcome
  by inverse-CDF lookup in the cumulative distribution. Memory is therefore
  independent of the shot count, merged counts do not depend on how shots
  are chunked, and an s-shot job's outcomes are the first s outcomes of any
  larger job at the same seed, with or without noise.
* A job may name ``checkpoints``: shot counts at which the draw is also cut
  and the running histogram kept. ``ShotResult.prefix(s)`` then returns the
  result of the first s shots, which equals the result of an s-shot job at
  the same seed, so one job at the largest count stands for every smaller
  one.
* Every gate is applied by one in-place kernel with no batch axis: on the
  slice where each control axis holds its trigger, the target's axis is
  viewed as the middle of (left, 2, right) and multiplied by the 2x2 gate.
  The statevector path calls it once per gate, the density path twice (U
  on the target's row axis, conj(U) on its column axis).
* Gate noise: after each gate, with the configured depolarizing probability
  (``depol_ctrl`` for controlled gates, ``depol_1q`` otherwise), one Pauli
  chosen uniformly from {X, Y, Z} hits the gate's target qubit; that is
  the uniform Pauli channel on the target. Without gate noise the
  distribution is the Born rule of the final statevector. With it, the
  density matrix is evolved exactly as a tensor with one row axis and one
  column axis per qubit. A qubit's axes stay of size 1 (it is |0><0|) until
  an op first touches it. Once a qubit will never be a gate target again,
  later ops use it at most as a control and it is measured in Z, so only
  the diagonal of its block is ever read: it is dephased then, its column
  axis shrinking to size 1, which leaves the outcome distribution exactly
  unchanged. A batch circuit thereby keeps one 2x2 data-qubit block per
  control branch.
* ``readout_flip`` flips each measured bit independently; it is folded into
  the distribution as the per-qubit confusion map [[1-f, f], [f, 1-f]].
* Counts are an integer histogram over the 2^n outcome indices
  (``ShotResult.hist``); bitstring keys exist only as a view for display.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral
from types import MappingProxyType

import numpy as np

from .circuit import Circuit, GateOp
from .errors import DomainError, NumericError, ShapeError
from .linalg import PAULI_X
from .rotation import gate_rx, gate_ry, gate_rz

_MASK64 = (1 << 64) - 1

# Shots drawn and looked up at a time.
SAMPLE_CHUNK = 1 << 16

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


NOISELESS = NoiseModel()


@dataclass(frozen=True, eq=False)
class ShotResult:
    """Outcome histogram for one measurement basis: ``hist[j]`` counts the
    shots that read basis-state index j (int64, length 2^n, read-only).
    ``prefixes[s]`` is the result of the job's first s shots, for each
    checkpoint s it was drawn with; read it through ``prefix``."""

    basis: tuple[str, ...]
    hist: np.ndarray
    shots: int
    prefixes: Mapping[int, ShotResult] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        hist = np.asarray(self.hist)
        if hist.dtype.kind not in "iu":
            raise DomainError(f"histogram entries must be integers, got dtype {hist.dtype}")
        hist = hist.astype(np.int64)
        if hist.shape != (1 << len(self.basis),):
            raise ShapeError(f"histogram of shape {hist.shape} does not match "
                             f"{len(self.basis)} measured qubits")
        if hist.min() < 0 or hist.sum() != self.shots:
            raise DomainError(f"histogram must be nonnegative and sum to {self.shots} shots")
        hist.setflags(write=False)
        object.__setattr__(self, "hist", hist)

    def prefix(self, shots: int) -> ShotResult:
        """The result of the job's first ``shots`` shots: itself at its full
        size, else the snapshot taken at that checkpoint."""
        if shots == self.shots:
            return self
        if shots not in self.prefixes:
            raise DomainError(f"{shots} shots is not a checkpoint of this "
                              f"{self.shots}-shot result")
        return self.prefixes[shots]

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


def _at(ndim: int, picks: dict) -> tuple:
    """Index tuple selecting ``picks[axis]`` on the given axes, all of the rest."""
    index = [slice(None)] * ndim
    for axis, pick in picks.items():
        index[axis] = pick
    return tuple(index)


def _apply_gate(t: np.ndarray, mat: np.ndarray, axis: int, picks: dict) -> None:
    """Apply the 2x2 ``mat`` in place along ``axis`` of ``t``, on the slice
    where each axis in ``picks`` holds its size-1 slice (a control's
    trigger). The slice is viewed as (left, 2, right) with ``axis`` in the
    middle, and ``mat`` multiplies that middle axis."""
    sub = t[_at(t.ndim, picks)]
    x = sub.reshape(math.prod(sub.shape[:axis]), 2, -1)
    sub[...] = (mat @ x).reshape(sub.shape)


def _evolve(state: np.ndarray, ops, n: int) -> np.ndarray:
    """Apply ``ops`` in place to ``state``, a 2^n statevector owned by the
    caller; qubit q is axis n - 1 - q of its (2,) * n view."""
    t = state.reshape((2,) * n)
    for op in ops:
        _apply_gate(t, _gate_matrix(op), n - 1 - op.target,
                    {n - 1 - q: slice(trig, trig + 1) for q, trig in op.controls})
    return state


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
    out = _evolve(initial.copy(), circuit.ops, circuit.num_qubits)
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


def _outcomes(probs: np.ndarray, edges, rng: np.random.Generator):
    """Yield (end, outcome indices) for the shots up to each of the increasing
    ``edges`` in turn, drawn from ``probs`` with one uniform per shot;
    ``side="right"`` counts the cumulative probabilities <= u."""
    cum = np.cumsum(probs / probs.sum())
    start = 0
    for end in edges:
        idx = np.searchsorted(cum, rng.random(end - start), side="right")
        yield end, np.minimum(idx, cum.size - 1, out=idx)
        start = end


def _confuse_readout(probs: np.ndarray, n: int, f: float) -> np.ndarray:
    """Fold independent per-qubit readout flips of probability ``f`` into an
    outcome distribution; with f = 0 every value is returned unchanged."""
    t = probs.reshape((2,) * n)
    for axis in range(n):
        t = (1.0 - f) * t + f * np.flip(t, axis)
    return t.reshape(-1)


def _widen(rho: np.ndarray, axis: int) -> np.ndarray:
    """Grow a size-1 axis that holds index 0 to size 2, with zeros at index 1."""
    return np.concatenate((rho, np.zeros_like(rho)), axis=axis)


def _block(rho: np.ndarray, r: int, c: int, i: int, j: int) -> np.ndarray:
    """View of entry (i, j) of one qubit's 2x2 block, the qubit with row axis
    ``r`` and column axis ``c``; slices keep it a view even of one element."""
    return rho[_at(rho.ndim, {r: slice(i, i + 1), c: slice(j, j + 1)})]


def _pauli_channel(rho: np.ndarray, r: int, c: int, p: float) -> None:
    """Uniform Pauli channel of probability ``p`` in place, on the qubit with
    row axis ``r`` and column axis ``c``: (1 - p) rho + (p/3)(X rho X +
    Y rho Y + Z rho Z), in closed form on its 2x2 block."""
    d0, d1 = _block(rho, r, c, 0, 0), _block(rho, r, c, 1, 1)
    mix = (2.0 * p / 3.0) * (d1 - d0)
    d0 += mix
    d1 -= mix
    _block(rho, r, c, 0, 1)[...] *= 1.0 - 4.0 * p / 3.0
    _block(rho, r, c, 1, 0)[...] *= 1.0 - 4.0 * p / 3.0


def _density_probs(ops, n: int, noise: NoiseModel) -> np.ndarray:
    """Exact outcome probabilities of ``ops`` applied to |0...0> under the
    gate noise of ``noise`` (readout flips are not applied here).

    Qubit q has row axis n - 1 - q and column axis 2n - 1 - q. See the module
    docstring for when an axis has size 1.
    """
    last_target = {op.target: g for g, op in enumerate(ops)}
    rho = np.ones((1,) * (2 * n), dtype=complex)
    for g, op in enumerate(ops):
        for q in (op.target, *(q for q, _ in op.controls)):
            if rho.shape[n - 1 - q] == 1:
                rho = _widen(rho, n - 1 - q)
                if last_target.get(q, -1) >= g:
                    rho = _widen(rho, 2 * n - 1 - q)
        # Controlled gate: U on the rows where each control's row index is
        # its trigger, conj(U) on the columns where its column index is. A
        # dephased control has no column axis of its own; its row index
        # stands for both.
        rows, cols = {}, {}
        for q, trig in op.controls:
            r, c = n - 1 - q, 2 * n - 1 - q
            rows[r] = slice(trig, trig + 1)
            cols[c if rho.shape[c] == 2 else r] = slice(trig, trig + 1)
        r, c = n - 1 - op.target, 2 * n - 1 - op.target
        mat = _gate_matrix(op)
        _apply_gate(rho, mat, r, rows)
        _apply_gate(rho, mat.conj(), c, cols)
        p = noise.depol_ctrl if op.controls else noise.depol_1q
        if p > 0.0:
            _pauli_channel(rho, r, c, p)
        if last_target[op.target] == g:
            rho = np.concatenate((_block(rho, r, c, 0, 0), _block(rho, r, c, 1, 1)), axis=r)
    for q in range(n):
        if rho.shape[n - 1 - q] == 1:
            rho = _widen(rho, n - 1 - q)
    # Every column axis now has size 1: the tensor is the diagonal.
    probs = rho.real.reshape(-1)
    if abs(probs.sum() - 1.0) > 1e-10:
        raise NumericError("density-matrix trace drifted beyond 1e-10")
    return np.maximum(probs, 0.0)


def sample(circuit: Circuit, basis, shots: int, noise: NoiseModel | None = None,
           seed: int = 0, *, checkpoints=()) -> ShotResult:
    """Run the circuit from |0...0>, measure every qubit, return the outcome
    histogram.

    ``basis`` gives one Pauli label per qubit (index order). Deterministic
    for fixed ``(circuit, basis, shots, noise, seed)``. ``checkpoints``, sorted
    distinct ints in [1, shots], are the shot counts whose prefix histograms
    the result keeps for ``ShotResult.prefix``.
    """
    noise = NOISELESS if noise is None else noise
    if not isinstance(shots, Integral) or shots < 1:
        raise DomainError(f"shots must be an integer >= 1, got {shots!r}")
    checkpoints = tuple(checkpoints)
    if (not all(isinstance(s, Integral) for s in checkpoints)
            or list(checkpoints) != sorted(set(checkpoints))
            or not all(1 <= s <= shots for s in checkpoints)):
        raise DomainError(f"checkpoints must be sorted distinct integers in "
                          f"[1, {shots}], got {checkpoints}")
    n = circuit.num_qubits
    basis = tuple(str(b).upper() for b in basis)
    if len(basis) != n:
        raise DomainError(f"expected {n} basis labels, got {len(basis)}")
    all_ops = list(circuit.ops) + _basis_change_ops(basis, n)
    if noise.depol_1q == 0.0 and noise.depol_ctrl == 0.0:
        probs = np.abs(_evolve(zero_state(n), all_ops, n)) ** 2
    else:
        probs = _density_probs(all_ops, n, noise)
    probs = _confuse_readout(probs, n, noise.readout_flip)
    dim = 1 << n
    hist = np.zeros(dim, dtype=np.int64)
    prefixes = {}
    edges = sorted({*range(SAMPLE_CHUNK, shots, SAMPLE_CHUNK), *map(int, checkpoints),
                    int(shots)})
    for end, outcomes in _outcomes(probs, edges, _rng(seed)):
        hist += np.bincount(outcomes, minlength=dim)
        if end in checkpoints:
            prefixes[end] = ShotResult(basis, hist, end)
    return ShotResult(basis=basis, hist=hist, shots=int(shots),
                      prefixes=MappingProxyType(prefixes))


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
