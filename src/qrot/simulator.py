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
  job computes its exact law once (``_distributions``) and then draws one
  raw 64-bit Philox word w per shot, ``SAMPLE_CHUNK`` at a time
  (``_tallies``). A shot reads outcome min(#{cum <= u}, 2^n - 1), cum being
  the cumulative distribution and u = (w >> 11) * 2^-53 the double that
  ``Generator.random`` makes of the same word. The draw never forms u: for
  the integer k = w >> 11, u < c holds exactly when k < ceil(c * 2^53), so
  each cum value becomes an integer word threshold. The draw counts
  below[j] = #{w < threshold j}, the shots that read outcome j or less,
  and the histogram is the difference of those counts; it is bit-for-bit
  the histogram of a lookup per shot of ``Generator.random``'s uniforms. Up
  to ``_COMPARE_MAX`` outcomes, each threshold is compared with the whole
  chunk once; a larger job sorts the chunk's words in place and counts by
  binary search. A chunk's outcomes are counted as soon as they are read
  and never kept. Memory is therefore independent of the shot count (chunk
  ends are made as the draw reaches them), merged counts do not depend on
  how shots are chunked, and an s-shot job's outcomes are the first s
  outcomes of any larger job at the same seed, with or without noise.
* A job may name ``checkpoints``: shot counts whose running histograms it
  keeps besides the whole job's. The draw stops at each of them and at the
  job's shot count, and the job's count table holds one row per stop, all
  tallied in the same pass over the draw. A chunk that stops cut is still
  drawn by one ``random_raw`` call; each segment between stops is counted on
  its own, and each row is the running sum of the segments up to its
  stop. The row of s shots equals the histogram of an s-shot job at the
  same seed, so one job at the largest count stands for every smaller one.
* A ``GateOp`` is applied by one in-place kernel with no batch axis: on the
  slice where each control axis holds its trigger, the target's axis is
  viewed as the middle of (left, 2, right) and multiplied by the 2x2 gate.
  A ``BranchRotation`` is one stacked product: the statevector is viewed as
  (branches, 2, 1), branch b being amplitudes 2b and 2b + 1, and its first
  k = len(thetas) branches are multiplied by the (k, 2, 2) stack of their
  gates, built from all k angles at once. Each branch gets the bytes that
  its own controlled gate gives it. A tomography job draws its circuits in
  all of their bases as one stack of rows; in ``_distributions``, each circuit
  object is evolved once and each of its rows applies its basis's change
  gates to a copy of that final state, so a circuit's X, Y and Z draws
  share one evolution. Only rows that hold the same object share it, never
  an equal one: circuits that compare equal (an angle of 0.0 against -0.0)
  may give states that differ in the sign of a zero amplitude. A norm
  drift beyond 1e-10 raises NumericError.
* Gate noise: after each gate, with the configured depolarizing probability
  (``depol_ctrl`` for controlled gates, ``depol_1q`` otherwise), one Pauli
  chosen uniformly from {X, Y, Z} hits the gate's target qubit. That uniform
  Pauli channel is the depolarizing channel rho -> lam rho + (1 - lam) I/2
  with lam = 1 - 4p/3, which commutes with every gate on its qubit. A
  ``BranchRotation`` counts as the len(thetas) controlled gates on qubit 0
  that it stands for. Under gate noise a circuit (basis-change gates
  included) must have this shape: a qubit that is ever a control is touched
  first by an uncontrolled H and afterwards only as a control, so it is
  read in Z; every other qubit may be a target anywhere. Any other circuit
  raises DomainError. In that shape, every gate is block-diagonal in the
  controls, the Z diagonal of each control stays uniform whatever the noise
  on its H, and each other qubit's noise moves to the end of the circuit,
  where it is a flip of that qubit's bit with probability (1 - prod lam) / 2
  over the gates that target it. ``_distributions`` folds those flips into
  the Born rule of the final statevector.
* ``readout_flip`` flips each measured bit independently; it is folded into
  the distribution as the per-qubit confusion map [[1-f, f], [f, 1-f]].
* Counts are integer histograms over the 2^n outcome indices: a job's count
  table is a read-only int64 (stops, 2^n) array, one row per stop, and its
  last row is the whole job's histogram.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .circuit import BranchRotation, Circuit, GateOp, _is_int
from .errors import DomainError, NumericError, ShapeError
from .linalg import PAULI_X, abs_complex
from .rotation import gate_rx, gate_ry, gate_rz

_MASK64 = (1 << 64) - 1

# Shots drawn and tallied at a time.
SAMPLE_CHUNK = 1 << 16
# Outcome spaces up to this size are tallied by comparison, larger ones by
# sorting. Comparison makes one pass over the chunk per outcome; sorting
# costs the same whatever the size. Per 20,000-shot draw (Xeon, numpy 2.4),
# words drawn included, comparison took 106/130/184 us at 2/4/8 outcomes and
# sorting 190 us; cut by a sweep's 19 checkpoints, 108/132/191 us against
# 226-249 us. The two cost the same at about 8 outcomes uncut and 12 cut.
_COMPARE_MAX = 8

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


def _check_tables(table: np.ndarray, checkpoints, dim: int, stack) -> None:
    """Check the int64 ``table``, a stack of shape ``stack`` of count tables:
    ShapeError unless each is len(checkpoints) >= 1 rows of ``dim``
    outcomes, DomainError unless its rows sum to ``checkpoints``, are
    nonnegative and do not decrease."""
    checkpoints = list(checkpoints)
    rows = len(checkpoints)
    if rows < 1 or table.shape != (*stack, rows, dim):
        raise ShapeError(f"count table of shape {table.shape} does not match {rows} "
                         f"checkpoints (at least one) of {dim} outcomes")
    if any(row != checkpoints for row in table.sum(axis=-1).reshape(-1, rows).tolist()):
        raise DomainError(f"count table rows must sum to the checkpoints {checkpoints}")
    if (table[..., 0, :] < 0).any() or (table[..., 1:, :] < table[..., :-1, :]).any():
        raise DomainError("count table rows must be nonnegative and must not decrease")


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


def _keyed(bit_generator: np.random.Philox, seed: int) -> np.random.Philox:
    """``bit_generator`` re-keyed in place to the start of the stream of
    ``Philox(key=seed)``: key (seed mod 2^64, 0), counter 0 and an empty
    buffer. Setting the state costs 1-2 us, against about 10 us for a new
    bit generator, most of it spent reading OS entropy for a seed that the
    key then replaces."""
    bit_generator.state = {"bit_generator": "Philox",
                           "state": {"counter": [0, 0, 0, 0], "key": [int(seed) & _MASK64, 0]},
                           "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                           "has_uint32": 0, "uinteger": 0}
    return bit_generator


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(_keyed(np.random.Philox(), seed))


def zero_state(num_qubits: int) -> np.ndarray:
    state = np.zeros(1 << num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def _gate_matrix(op: GateOp) -> np.ndarray:
    if op.kind in _CONST_GATES:
        return _CONST_GATES[op.kind]
    return _PARAM_GATES[op.kind](op.theta)


def _evolve(state: np.ndarray, ops, n: int) -> np.ndarray:
    """Apply ``ops`` in place to ``state``, a normalized 2^n statevector owned
    by the caller; qubit q is axis n - 1 - q of its (2,) * n view. Raises
    NumericError if the norm has drifted beyond 1e-10."""
    t = state.reshape((2,) * n)
    for op in ops:
        if isinstance(op, BranchRotation):
            # Branch b is the amplitude pair 2b, 2b + 1; each gets its own 2x2.
            branches = state.reshape(-1, 2, 1)[:len(op.thetas)]
            branches[...] = _PARAM_GATES[op.kind](op.thetas) @ branches
            continue
        index = [slice(None)] * n
        for q, trig in op.controls:
            index[n - 1 - q] = slice(trig, trig + 1)
        sub = t[tuple(index)]
        x = sub.reshape(math.prod(sub.shape[:n - 1 - op.target]), 2, -1)
        sub[...] = (_gate_matrix(op) @ x).reshape(sub.shape)
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
    if not np.all(np.isfinite(initial)):
        raise DomainError("initial state amplitudes must be finite")
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


def _tallies(probs: np.ndarray, stops, bit_generator: np.random.Philox) -> np.ndarray:
    """The running histograms of a draw of ``stops[-1]`` shots from ``probs``
    with one raw 64-bit word w of ``bit_generator`` per shot, as a
    (len(stops), dim) int64 array: row r counts the shots up to ``stops[r]``.
    ``stops`` are sorted distinct positive ints. A shot reads outcome
    min(#{cum <= u}, dim - 1) of its uniform u = (w >> 11) * 2^-53, the double
    that ``Generator.random`` makes of w, as ``searchsorted(cum, u,
    side="right")`` clamped to the last index would.

    No double is formed. For the integer k = w >> 11, u < c holds exactly
    when k < K = min(ceil(c * 2^53), 2^53) (the product is exact), that is
    when w < K << 11. So each cum value becomes a word threshold, and
    below[j] = #{u < cum[j]} counts the words under threshold j. A K of
    2^53 counts every shot, and so does every later one, since cum does not
    decrease: the first such value's outcome, ``last``, takes the shots that
    no threshold below it counts, and the outcomes after it none.

    Each chunk of ``SAMPLE_CHUNK`` shots (the last may be shorter) is one
    ``random_raw`` call, made as the draw reaches it. The stops strictly
    inside a chunk cut it into segments, none empty, and each segment is
    counted into the row of the stop that ends it: its length in outcome
    ``last``, and for each j, below[j] added to outcome j and taken from
    outcome j + 1. Up to ``_COMPARE_MAX`` outcomes, one comparison pass over
    the chunk and one int32 ``reduceat`` over the segment starts count
    below[j] for each threshold (``reduceat`` would return an element, not 0,
    for an empty segment; a segment of at most 2^16 shots cannot overflow
    int32). Above it, each segment is sorted in place and ``searchsorted``
    counts below. A running sum over the rows at the end turns each into the
    histogram up to its stop."""
    # Dropping the last cum value clamps every count to dim - 1.
    k = np.ceil(np.cumsum(probs / probs.sum())[:-1] * 2.0**53)
    last = int(np.searchsorted(k, 2.0**53))
    thresholds = k[:last].astype(np.uint64) << 11
    counts = np.zeros((len(stops), probs.size), dtype=np.int64)
    shots = stops[-1]
    for start in range(0, shots, SAMPLE_CHUNK):
        end = min(start + SAMPLE_CHUNK, shots)
        row = bisect.bisect_right(stops, start)
        cuts = [stop - start for stop in stops[row:bisect.bisect_left(stops, end, row)]]
        starts, ends = [0, *cuts], [*cuts, end - start]
        out = counts[row:row + len(ends)]
        out[:, last] += [b - a for a, b in zip(starts, ends)]
        words = bit_generator.random_raw(end - start)
        if probs.size <= _COMPARE_MAX:
            for j, t in enumerate(thresholds):
                below = np.add.reduceat((words < t).view(np.int8), starts, dtype=np.int32)
                out[:, j] += below
                out[:, j + 1] -= below
        else:
            for r, a, b in zip(out, starts, ends):
                words[a:b].sort()
                below = np.searchsorted(words[a:b], thresholds)
                r[:last] += below
                r[1:last + 1] -= below
        # Free this chunk before the next one is drawn.
        del words
    return np.cumsum(counts, axis=0, out=counts)


def _confuse_readout(probs: np.ndarray, flips) -> np.ndarray:
    """Fold an independent flip of each qubit q's bit, with probability
    ``flips[q]``, into an outcome distribution of finite, non-negative
    values. A qubit with flip 0 would leave every value unchanged, so it is
    skipped."""
    n = len(flips)
    t = probs.reshape((2,) * n)
    for axis in range(n):
        f = flips[n - 1 - axis]
        if f != 0.0:
            t = (1.0 - f) * t + f * np.flip(t, axis)
    return t.reshape(-1)


def _gate_noise_flips(ops, n: int, noise: NoiseModel) -> np.ndarray:
    """Per-qubit bit-flip probabilities equal to the gate noise of ``ops``
    on the outcome distribution, for the shape in the module docstring;
    raises DomainError for any other circuit."""
    controls = {q for op in ops for q in op.control_qubits}
    prepared = set()
    lam = np.ones(n)
    for op in ops:
        in_shape = prepared.issuperset(op.control_qubits)
        if op.target in controls:
            in_shape &= op.kind == "H" and not op.controls and op.target not in prepared
            prepared.add(op.target)
        elif isinstance(op, BranchRotation):
            # One controlled gate per angle, each factor applied in turn.
            for _ in op.thetas:
                lam[op.target] *= 1.0 - 4.0 * noise.depol_ctrl / 3.0
        else:
            p = noise.depol_ctrl if op.controls else noise.depol_1q
            lam[op.target] *= 1.0 - 4.0 * p / 3.0
        if not in_shape:
            raise DomainError(f"under gate noise, each control qubit must be touched first "
                              f"by an uncontrolled H and only be a control after it; {op} "
                              f"breaks that")
    return (1.0 - lam) / 2.0


def _distributions(rows, noise: NoiseModel) -> np.ndarray:
    """The exact outcome law of each (circuit, basis) row, all n qubits wide,
    as one read-only (len(rows), 2^n) float array: the Born rule after the
    basis change, then the gate-noise flips, then the readout flips. Every
    basis length is checked before any label. Each circuit object is evolved
    once, and its rows apply their basis change to copies of that state."""
    rows = [(circuit, tuple(str(b).upper() for b in basis)) for circuit, basis in rows]
    for circuit, basis in rows:
        if len(basis) != circuit.num_qubits:
            raise DomainError(f"expected {circuit.num_qubits} basis labels, got {len(basis)}")
    evolved, dists = {}, []
    for circuit, basis in rows:
        n = circuit.num_qubits
        basis_ops = _basis_change_ops(basis, n)
        state = evolved.get(id(circuit))
        if state is None:
            state = evolved[id(circuit)] = _evolve(zero_state(n), circuit.ops, n)
            state.setflags(write=False)
        probs = abs_complex(_evolve(state.copy(), basis_ops, n)) ** 2
        if noise.depol_1q > 0.0 or noise.depol_ctrl > 0.0:
            probs = _confuse_readout(probs, _gate_noise_flips(circuit.ops + tuple(basis_ops),
                                                              n, noise))
        dists.append(_confuse_readout(probs, [noise.readout_flip] * n))
    dists = np.stack(dists)
    dists.setflags(write=False)
    return dists


def _sample_rows(rows, shots: int, noise: NoiseModel | None = None,
                 checkpoints=()) -> np.ndarray:
    """The count tables of a stack of jobs with one shot count, checkpoints
    and noise model, as one read-only (len(rows), stops, 2^n) int64 array:
    ``rows`` holds one (circuit, basis, seed) per job, every circuit n
    qubits wide, and table r equals ``sample(circuit, basis, shots, noise,
    seed, checkpoints=checkpoints)`` of row r.

    Shots and checkpoints are validated once. The call makes one Philox bit
    generator, and each row re-keys it (``_keyed``) to the start of its own
    ``Philox(key=seed)`` stream when the row is drawn, then draws from its
    ``_distributions`` row one chunk of words at a time, with one list of
    stops for every row; ``_check_tables`` checks the whole stack once."""
    noise = NOISELESS if noise is None else noise
    if not _is_int(shots) or shots < 1:
        raise DomainError(f"shots must be an integer >= 1, got {shots!r}")
    checkpoints = tuple(checkpoints)
    if (not all(map(_is_int, checkpoints)) or list(checkpoints) != sorted(set(checkpoints))
            or not all(1 <= s <= shots for s in checkpoints)):
        raise DomainError(f"checkpoints must be sorted distinct integers in "
                          f"[1, {shots}], got {checkpoints}")
    stops = [*map(int, checkpoints)]
    if not stops or stops[-1] != shots:
        stops.append(int(shots))
    dists = _distributions([(circuit, basis) for circuit, basis, _ in rows], noise)
    bit_generator = np.random.Philox()
    tables = np.stack([_tallies(probs, stops, _keyed(bit_generator, seed))
                       for probs, (_, _, seed) in zip(dists, rows)])
    _check_tables(tables, stops, dists.shape[1], (len(rows),))
    tables.setflags(write=False)
    return tables


def sample(circuit: Circuit, basis, shots: int, noise: NoiseModel | None = None,
           seed: int = 0, *, checkpoints=()) -> np.ndarray:
    """Run the circuit from |0...0>, measure every qubit, return the count
    table: a read-only int64 (stops, 2^n) array, row i the histogram of the
    first stops[i] shots.

    ``basis`` gives one Pauli label per qubit (index order). Deterministic
    for fixed ``(circuit, basis, shots, noise, seed)``. The stops are
    ``checkpoints``, sorted distinct ints in [1, shots], with ``shots``
    appended unless it is the last one already, so the last row is the
    whole job's histogram.

    Noiseless and readout-only sampling accept any circuit. Under gate noise
    (``depol_1q`` or ``depol_ctrl`` above 0) the circuit with its
    basis-change gates must have the module docstring's shape: each control
    qubit prepared by one uncontrolled H, only a control afterwards and
    measured in Z. Any other noisy circuit raises DomainError.

    The one-row case of ``_sample_rows``, which tomography draws through.
    """
    return _sample_rows([(circuit, basis, seed)], shots, noise, checkpoints)[0]
