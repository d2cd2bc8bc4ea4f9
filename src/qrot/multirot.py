"""Batched rotation of unit vectors encoded in a control-qubit superposition.

Vector i (1-based, i <= p) lives on the control branch whose bits equal the
binary representation of i - 1; control qubit c (1..n) carries bit c - 1, so
the qubit adjacent to the data qubit holds the least significant bit. The
data qubit is qubit 0. After Hadamards put the n control qubits in an equal
superposition, a controlled RY/RZ pair per index writes each vector onto its
branch; one uncontrolled five-gate rotation on the data qubit then rotates
every branch at once, so ``full_circuit`` takes one ``RotationSpec`` for the
whole batch. Extraction reads the controls in Z; ``tomography._grid_counts``
tallies the shots into one (2**n, 3, 2) array for its one grid point, and
each index runs single-qubit state tomography on its branch's (3, 2) row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import require_unit, vec_to_angles
from .circuit import MAX_QUBITS, Circuit, GateOp
from .errors import DomainError
from .rotation import RotationSpec, axis_rotation_sequence
from .simulator import BASIS_LABELS, NoiseModel, derive_seed
from .linalg import row_dot
from .tomography import MIN_BLOCH_NORM, _bloch_vectors, _checked_tally, _grid_counts

# Below this many samples in a basis, expectation estimates have standard
# error above 0.2 and the per-index tomography is not meaningful.
UNDER_SAMPLE_THRESHOLD = 25


@dataclass(frozen=True)
class VectorBatch:
    """p unit vectors to encode; n = max(1, ceil(log2 p)) control qubits."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 1:
            raise DomainError(f"expected a (p, 3) array of vectors, got shape {v.shape}")
        for k, row in enumerate(v, start=1):
            try:
                require_unit(row)
            except DomainError as exc:
                raise DomainError(f"vector {k}: {exc}") from None
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        if self.n + 1 > MAX_QUBITS:
            raise DomainError(
                f"{self.p} vectors need {self.n} control qubits; "
                f"max circuit width is {MAX_QUBITS}")

    @property
    def p(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def n(self) -> int:
        return max(1, (self.p - 1).bit_length())


def _pattern(index0: int, n: int) -> tuple[tuple[int, int], ...]:
    """Control triggers for branch ``index0``: qubit c carries bit c - 1."""
    return tuple((c, (index0 >> (c - 1)) & 1) for c in range(1, n + 1))


def build_encoding_circuit(batch: VectorBatch) -> Circuit:
    """Hadamards on the controls, then per index a controlled RY(theta_i)
    followed by a controlled RZ(phi_i) on the data qubit. Branches beyond p
    receive no gates and keep the data qubit at |0>."""
    n = batch.n
    ops = [GateOp("H", q) for q in range(1, n + 1)]
    for i0 in range(batch.p):
        theta, phi = vec_to_angles(batch.vectors[i0])
        controls = _pattern(i0, n)
        ops.append(GateOp("RY", 0, theta, controls))
        ops.append(GateOp("RZ", 0, phi, controls))
    return Circuit(n + 1, ops)


def full_circuit(batch: VectorBatch, rotation: RotationSpec) -> Circuit:
    """The encoding circuit, then the five-gate sequence of ``rotation`` on the
    data qubit, uncontrolled, so that one layer rotates every branch at once."""
    if not isinstance(rotation, RotationSpec):
        raise DomainError(f"one RotationSpec rotates the whole batch, "
                          f"got {type(rotation).__name__}")
    encoding = build_encoding_circuit(batch)
    return Circuit(batch.n + 1, encoding.ops + axis_rotation_sequence(rotation))


@dataclass
class ExtractedVector:
    """Per-index extraction outcome; ``vector`` is None when tomography was
    impossible for this index (see ``error``)."""

    index: int                    # 1-based
    vector: np.ndarray | None
    samples: int
    under_sampled: bool
    error: str | None = None


def extract_all(batch: VectorBatch, rotation: RotationSpec, shots_per_vector: int,
                noise: NoiseModel | None = None, seed: int = 0,
                mitigate: bool = False) -> list[ExtractedVector]:
    """Rotate the whole batch and read every vector back by post-selection.

    Draws the full circuit through ``tomography._grid_counts`` at the one
    grid point ``shots_per_vector`` (``shots_per_vector * 2**n`` shots in
    each basis of qubit 0, the readout calibration at ``shots_per_vector``)
    and reconstructs each encoded index from its control branch's row of the
    tally: about ``shots_per_vector`` per basis, since the control marginal
    is uniform. Raises DomainError below ``tomography.MIN_SHOTS`` before any
    draw. Indices with fewer than 25 samples in some basis are flagged as
    under-sampled; an index with zero samples in some basis or a zero
    estimate gets an error entry rather than failing the whole extraction.
    """
    cal, tables = _grid_counts({0: (full_circuit(batch, rotation), seed)},
                               [shots_per_vector], noise, derive_seed(seed, 3), mitigate)
    cal = None if cal is None else cal[0]
    return [index_estimate(i0 + 1, tables[0][0, i0], cal) for i0 in range(batch.p)]


def index_estimate(index: int, tally, cal=None) -> ExtractedVector:
    """Single-qubit tomography for one branch from its (3, 2) tally, the
    (n0, n1) of bases X, Y, Z: the direction r/|r| that ``estimate_qubit``
    returns, from the same stacked estimator on one row, without the density
    matrix; ``cal`` is a checked readout calibration. The tally is checked as
    ``estimate_qubit`` checks it."""
    totals = _checked_tally(tally).sum(axis=1).tolist()
    empty = [label for label, total in zip(BASIS_LABELS, totals) if total == 0]
    if empty:
        vector, error = None, f"no samples in basis {','.join(empty)}"
    else:
        r = _bloch_vectors(tally, cal)
        norm = np.sqrt(row_dot(r, r))
        vector = r / norm if norm >= MIN_BLOCH_NORM else None
        error = None if vector is not None else "estimated Bloch vector has no direction"
    return ExtractedVector(index=index, vector=vector, samples=sum(totals),
                           under_sampled=min(totals) < UNDER_SAMPLE_THRESHOLD, error=error)
