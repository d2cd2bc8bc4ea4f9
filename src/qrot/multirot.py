"""Batched rotation of unit vectors encoded in a control-qubit superposition.

Vector i (1-based, i <= p) lives on the control branch whose bits equal the
binary representation of i - 1; control qubit c (1..n) carries bit c - 1, so
the qubit adjacent to the data qubit holds the least significant bit. The
data qubit is qubit 0. After Hadamards put the n control qubits in an equal
superposition, two uniformly controlled rotations, ``BranchRotation``s of
kind RY and RZ with one angle per index, write each vector onto its branch;
the simulator applies each as one stacked (p, 2, 2) product. One
uncontrolled five-gate rotation on the data qubit then rotates every branch
at once, so ``full_circuit`` takes one ``RotationSpec`` for the whole batch.
``VectorBatch`` checks the whole (p, 3) stack in one pass and names the
first bad row only when there is one; the encoding reads each row's
spherical angles without checking it again. Extraction reads the controls
in Z; ``tomography._state_counts`` draws the circuit in its three bases as
one row stack, from one evolution, and tallies the shots into one
(2**n, 3, 2) array for its one grid point, and one stacked single-qubit
estimate, ``tomography._state_estimates``, reads every index from its
branch's (3, 2) row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import UNIT_TOL, _spherical_angles, require_unit
from .circuit import MAX_QUBITS, BranchRotation, Circuit, GateOp
from .errors import DomainError, ShapeError
from .linalg import row_dot
from .rotation import RotationSpec, axis_rotation_sequence
from .simulator import BASIS_LABELS, NoiseModel
from .tomography import MIN_BLOCH_NORM, _checked_tally, _state_counts, _state_estimates

# Below this many samples in a basis, expectation estimates have standard
# error above 0.2 and the per-index tomography is not meaningful.
UNDER_SAMPLE_THRESHOLD = 25


@dataclass(frozen=True)
class VectorBatch:
    """p unit vectors to encode; n = max(1, ceil(log2 p)) control qubits."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.array(self.vectors, dtype=float))
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 1:
            raise DomainError(f"expected a (p, 3) array of vectors, got shape {v.shape}")
        # The norm ``_units`` gives a row whose largest component lies in
        # [2^-511, 2^510]; no row outside that range is within UNIT_TOL of 1.
        with np.errstate(over="ignore"):
            unit = np.abs(np.sqrt(row_dot(v, v)) - 1.0) <= UNIT_TOL
        if not unit.all():
            k = int(np.argmin(unit))  # ``require_unit`` words the error
            try:
                require_unit(v[k])
            except DomainError as exc:
                raise DomainError(f"vector {k + 1}: {exc}") from None
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


def build_encoding_circuit(batch: VectorBatch) -> Circuit:
    """Hadamards on the n controls, then two branch rotations on the data
    qubit: RY(theta_i) on every branch i - 1, then RZ(phi_i), (theta_i, phi_i)
    being the spherical angles of vector i. They equal a controlled RY and
    RZ per index. Branches beyond p receive no gates and keep the data qubit
    at |0>."""
    n = batch.n
    controls = tuple(range(1, n + 1))
    thetas, phis = zip(*[_spherical_angles(*row) for row in batch.vectors.tolist()])
    return Circuit(n + 1, [GateOp("H", q) for q in controls]
                   + [BranchRotation("RY", 0, thetas, controls),
                      BranchRotation("RZ", 0, phis, controls)])


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

    Draws the full circuit through ``tomography._state_counts`` at the one
    grid point ``shots_per_vector`` (``shots_per_vector * 2**n`` shots in
    each basis of qubit 0, the readout calibration at ``shots_per_vector``)
    and reconstructs each encoded index from its control branch's row of the
    tally: about ``shots_per_vector`` per basis, since the control marginal
    is uniform. Raises DomainError below ``tomography.MIN_SHOTS`` before any
    draw. The first p rows are read back by ``_index_estimates`` as one
    stack. Indices with fewer than 25 samples in some basis are flagged as
    under-sampled; an index with zero samples in some basis or a zero
    estimate gets an error entry rather than failing the whole extraction.
    """
    cal, counts = _state_counts(full_circuit(batch, rotation), [shots_per_vector], noise, seed,
                                mitigate)
    cal = None if cal is None else cal[0]
    return _index_estimates(range(1, batch.p + 1), counts[0, :batch.p], cal)


def index_estimate(index: int, tally, cal=None) -> ExtractedVector:
    """Single-qubit tomography for one branch from its (3, 2) tally, the
    (n0, n1) of bases X, Y, Z: the direction r/|r| of the stacked estimator
    ``tomography._state_estimates`` on one row, or None with an error entry
    when a basis is empty or |r| < MIN_BLOCH_NORM; ``cal`` is a checked
    readout calibration. The tally is checked by ``_checked_tally`` and must
    be a single one. The one-row case of ``extract_all``'s read-back."""
    tally = _checked_tally(tally)
    if tally.ndim != 2:
        raise ShapeError(f"expected one (3, 2) tally, got shape {tally.shape}")
    return _index_estimates([index], tally[None], cal)[0]


def _index_estimates(indices, tallies, cal=None) -> list[ExtractedVector]:
    """``index_estimate`` of each (3, 2) tally of a checked (k, 3, 2) stack,
    with the matching one of ``indices``: r and |r| from one
    ``tomography._state_estimates`` call over the rows with no empty basis.
    Each row gets the bytes it gets alone."""
    totals = tallies.sum(axis=-1)
    r, norm = _state_estimates(tallies[(totals > 0).all(axis=-1)], cal)
    directed = norm >= MIN_BLOCH_NORM
    # A row with no direction is divided by 1 and dropped.
    estimates = zip(r / np.where(directed, norm, 1.0)[:, None], directed.tolist())
    out = []
    for index, row in zip(indices, totals.tolist()):
        vector = error = None
        if 0 in row:
            empty = [label for label, total in zip(BASIS_LABELS, row) if total == 0]
            error = f"no samples in basis {','.join(empty)}"
        else:
            vector, ok = next(estimates)
            if not ok:
                vector, error = None, "estimated Bloch vector has no direction"
        out.append(ExtractedVector(index=index, vector=vector, samples=sum(row),
                                   under_sampled=min(row) < UNDER_SAMPLE_THRESHOLD,
                                   error=error))
    return out
