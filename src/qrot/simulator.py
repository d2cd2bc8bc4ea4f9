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
  uniform u per shot, ``SAMPLE_CHUNK`` at a time. A shot reads outcome
  min(#{cum <= u}, 2^n - 1), cum being the cumulative distribution, but
  the job only counts outcomes and never lists them: it splits [0, 1) into
  K = 8 * 2^n buckets of width 1/K. A bucket that no cum value lies
  strictly inside is pure, all of its shots read one outcome, and one
  bincount over buckets tallies them. Only shots in the other buckets, at
  most 2^n of the K, are looked up in cum one by one. K is a power of two,
  so u * K and cum * K are exact and the histogram is bit-for-bit that of
  a lookup per shot. Memory is therefore independent of the shot count,
  merged counts do not depend on how shots are chunked, and an s-shot
  job's outcomes are the first s outcomes of any larger job at the same
  seed, with or without noise.
* A job may name ``checkpoints``: shot counts at which the draw is also cut
  and the running histogram kept. ``ShotResult.prefix(s)`` then returns the
  result of the first s shots, which equals the result of an s-shot job at
  the same seed, so one job at the largest count stands for every smaller
  one.
* Every gate is applied by one in-place kernel with no batch axis: on the
  slice where each control axis holds its trigger, the target's axis is
  viewed as the middle of (left, 2, right) and multiplied by the 2x2 gate.
  Every job evolves one statevector; a norm drift beyond 1e-10 raises
  NumericError.
* Gate noise: after each gate, with the configured depolarizing probability
  (``depol_ctrl`` for controlled gates, ``depol_1q`` otherwise), one Pauli
  chosen uniformly from {X, Y, Z} hits the gate's target qubit. That uniform
  Pauli channel is the depolarizing channel rho -> lam rho + (1 - lam) I/2
  with lam = 1 - 4p/3, which commutes with every gate on its qubit. Under
  gate noise a circuit (basis-change gates included) must have this shape:
  a qubit that is ever a control is touched first by an uncontrolled H and
  afterwards only as a control, so it is read in Z; every other qubit may
  be a target anywhere. Any other circuit raises DomainError. In that
  shape, every gate is block-diagonal in the controls, the Z diagonal of
  each control stays uniform whatever the noise on its H, and each other
  qubit's noise moves to the end of the circuit, where it is a flip of
  that qubit's bit with probability (1 - prod lam) / 2 over the gates that
  target it. The outcome distribution is the Born rule of the final
  statevector with those flips folded in.
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

# Shots drawn and tallied at a time.
SAMPLE_CHUNK = 1 << 16
# Tally buckets per outcome. More buckets leave fewer shots in mixed
# buckets to look up; this many cost a bool and an int64 per bucket.
_BUCKETS_PER_OUTCOME = 8

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


def _apply_gate(t: np.ndarray, mat: np.ndarray, axis: int, index: tuple) -> None:
    """Apply the 2x2 ``mat`` in place along ``axis`` of ``t``, on the slice
    ``t[index]``, where each control's axis holds the size-1 slice of its
    trigger. The slice is viewed as (left, 2, right) with ``axis`` in the
    middle, and ``mat`` multiplies that middle axis."""
    sub = t[index]
    x = sub.reshape(math.prod(sub.shape[:axis]), 2, -1)
    sub[...] = (mat @ x).reshape(sub.shape)


def _evolve(state: np.ndarray, ops, n: int) -> np.ndarray:
    """Apply ``ops`` in place to ``state``, a normalized 2^n statevector owned
    by the caller; qubit q is axis n - 1 - q of its (2,) * n view. Raises
    NumericError if the norm has drifted beyond 1e-10."""
    t = state.reshape((2,) * n)
    for op in ops:
        index = [slice(None)] * n
        for q, trig in op.controls:
            index[n - 1 - q] = slice(trig, trig + 1)
        _apply_gate(t, _gate_matrix(op), n - 1 - op.target, tuple(index))
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise NumericError("statevector norm drifted beyond 1e-10")
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
    return _evolve(initial.copy(), circuit.ops, circuit.num_qubits)


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


def _tallies(probs: np.ndarray, edges, rng: np.random.Generator):
    """Yield (end, histogram of the shots since the previous edge) for each
    of the increasing ``edges`` in turn, drawn from ``probs`` with one
    uniform u per shot. A shot reads outcome min(#{cum <= u}, dim - 1), as
    ``searchsorted(cum, u, side="right")`` clamped to the last index would.

    The count runs over buckets [k/K, (k+1)/K), K the power of two of at
    least ``_BUCKETS_PER_OUTCOME`` * dim, so scaling cum and u by K is
    exact. A bucket is pure when no cum value lies strictly inside it: every
    u in it reads the same outcome, so its shots are tallied by one bincount
    over buckets. Only the uniforms in the other, mixed buckets are looked
    up one by one."""
    dim = probs.size
    k_buckets = _BUCKETS_PER_OUTCOME << (dim - 1).bit_length()
    # Dropping the last cum value clamps every count to dim - 1.
    cum = np.cumsum(probs / probs.sum())[:-1]
    cum *= k_buckets
    whole = np.floor(cum)
    mixed = np.zeros(k_buckets, dtype=bool)
    mixed[whole[(cum != whole) & (cum < k_buckets)].astype(np.intp)] = True
    # A pure bucket k reads #{cum <= k}. That count steps up at each
    # ceil(cum), so the buckets from one step to the next share an outcome,
    # and a mixed bucket is the last of its run.
    step = np.zeros(k_buckets, dtype=bool)
    step[0] = True
    step[np.ceil(cum[cum <= k_buckets - 1]).astype(np.intp)] = True
    starts = np.flatnonzero(step)
    owners = np.searchsorted(cum, starts, side="right")

    # One chunk per call, so that its arrays are freed before the next draw.
    def tally(u):
        u *= k_buckets
        bucket = u.astype(np.intp)
        mixed_u = u[mixed[bucket]]
        del u
        counts = np.bincount(bucket, minlength=k_buckets)
        counts[mixed] = 0
        hist = np.bincount(np.searchsorted(cum, mixed_u, side="right"), minlength=dim)
        hist[owners] += np.add.reduceat(counts, starts)
        return hist

    start = 0
    for end in edges:
        yield end, tally(rng.random(end - start))
        start = end


def _confuse_readout(probs: np.ndarray, flips) -> np.ndarray:
    """Fold an independent flip of each qubit q's bit, with probability
    ``flips[q]``, into an outcome distribution; a qubit with flip 0 leaves
    every value unchanged."""
    n = len(flips)
    t = probs.reshape((2,) * n)
    for axis in range(n):
        f = flips[n - 1 - axis]
        t = (1.0 - f) * t + f * np.flip(t, axis)
    return t.reshape(-1)


def _gate_noise_flips(ops, n: int, noise: NoiseModel) -> np.ndarray:
    """Per-qubit bit-flip probabilities equal to the gate noise of ``ops``
    on the outcome distribution, for the shape in the module docstring;
    raises DomainError for any other circuit."""
    controls = {q for op in ops for q, _ in op.controls}
    prepared = set()
    lam = np.ones(n)
    for op in ops:
        in_shape = prepared.issuperset(q for q, _ in op.controls)
        if op.target in controls:
            in_shape &= op.kind == "H" and not op.controls and op.target not in prepared
            prepared.add(op.target)
        else:
            p = noise.depol_ctrl if op.controls else noise.depol_1q
            lam[op.target] *= 1.0 - 4.0 * p / 3.0
        if not in_shape:
            raise DomainError(f"under gate noise, each control qubit must be touched first "
                              f"by an uncontrolled H and only be a control after it; {op} "
                              f"breaks that")
    return (1.0 - lam) / 2.0


def sample(circuit: Circuit, basis, shots: int, noise: NoiseModel | None = None,
           seed: int = 0, *, checkpoints=()) -> ShotResult:
    """Run the circuit from |0...0>, measure every qubit, return the outcome
    histogram.

    ``basis`` gives one Pauli label per qubit (index order). Deterministic
    for fixed ``(circuit, basis, shots, noise, seed)``. ``checkpoints``, sorted
    distinct ints in [1, shots], are the shot counts whose prefix histograms
    the result keeps for ``ShotResult.prefix``.

    Noiseless and readout-only sampling accept any circuit. Under gate noise
    (``depol_1q`` or ``depol_ctrl`` above 0) the circuit with its
    basis-change gates must have the module docstring's shape: each control
    qubit prepared by one uncontrolled H, only a control afterwards and
    measured in Z. Any other noisy circuit raises DomainError.
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
    probs = np.abs(_evolve(zero_state(n), all_ops, n)) ** 2
    if noise.depol_1q > 0.0 or noise.depol_ctrl > 0.0:
        probs = _confuse_readout(probs, _gate_noise_flips(all_ops, n, noise))
    probs = _confuse_readout(probs, [noise.readout_flip] * n)
    dim = 1 << n
    hist = np.zeros(dim, dtype=np.int64)
    prefixes = {}
    edges = sorted({*range(SAMPLE_CHUNK, shots, SAMPLE_CHUNK), *map(int, checkpoints),
                    int(shots)})
    for end, chunk in _tallies(probs, edges, _rng(seed)):
        hist += chunk
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
