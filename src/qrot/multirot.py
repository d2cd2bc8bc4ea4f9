"""Batched rotation of unit vectors encoded in a control-qubit superposition.

Vector i (1-based, i <= p) lives on the control branch whose bits equal the
binary representation of i - 1; control qubit c (1..n) carries bit c - 1, so
the qubit adjacent to the data qubit holds the least significant bit. The
data qubit is qubit 0. After Hadamards put the n control qubits in an equal
superposition, a controlled RY/RZ pair per index writes each vector onto its
branch; a rotation layer (uncontrolled for a uniform rotation, controlled
per index otherwise) then rotates every branch at once. Extraction measures
the control register in Z, groups shots by branch, and runs single-qubit
state tomography per index on its share of the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import require_unit, state_to_bloch, vec_to_angles
from .circuit import MAX_QUBITS, Circuit, GateOp
from .errors import DomainError
from .rotation import RotationSpec, axis_rotation_sequence
from .simulator import NoiseModel, derive_seed
from .tomography import _grid_counts, estimate_qubit

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
        controls = max(1, math.ceil(math.log2(v.shape[0])))
        if controls + 1 > MAX_QUBITS:
            raise DomainError(
                f"{v.shape[0]} vectors need {controls} control qubits; "
                f"max circuit width is {MAX_QUBITS}")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def p(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def n(self) -> int:
        return max(1, math.ceil(math.log2(self.p)))


@dataclass(frozen=True)
class MultiRotationPlan:
    """A batch plus either one rotation for all vectors or one per index."""

    batch: VectorBatch
    rotations: RotationSpec | tuple[RotationSpec, ...]

    def __post_init__(self):
        if not isinstance(self.rotations, RotationSpec):
            rotations = tuple(self.rotations)
            if len(rotations) != self.batch.p:
                raise DomainError(
                    f"need one rotation per vector: got {len(rotations)} "
                    f"for {self.batch.p} vectors")
            object.__setattr__(self, "rotations", rotations)

    @property
    def is_uniform(self) -> bool:
        return isinstance(self.rotations, RotationSpec)


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


def build_rotation_layer(plan: MultiRotationPlan) -> Circuit:
    """The rotation stage alone: the five-gate sequence on the data qubit,
    uncontrolled for a uniform rotation or controlled on each index's branch
    pattern otherwise."""
    n = plan.batch.n
    if plan.is_uniform:
        ops = list(axis_rotation_sequence(plan.rotations))
    else:
        ops = []
        for i0, spec in enumerate(plan.rotations):
            ops.extend(axis_rotation_sequence(spec, controls=_pattern(i0, n)))
    return Circuit(n + 1, ops)


def full_circuit(plan: MultiRotationPlan) -> Circuit:
    return build_encoding_circuit(plan.batch).extended(build_rotation_layer(plan).ops)


def branch_blochs(plan_or_batch) -> np.ndarray:
    """Exact per-branch Bloch vectors of the data qubit (diagnostic helper).

    Accepts a batch (encoding only) or a plan (encoding plus rotation). Row i
    is branch i's conditional data-qubit state; every branch of the uniform
    superposition has equal weight, so the conditional states are exact.
    """
    from .simulator import apply, zero_state

    if isinstance(plan_or_batch, VectorBatch):
        circuit, n = build_encoding_circuit(plan_or_batch), plan_or_batch.n
    else:
        circuit, n = full_circuit(plan_or_batch), plan_or_batch.batch.n
    state = apply(circuit, zero_state(n + 1))
    out = np.empty((1 << n, 3))
    for branch in range(1 << n):
        amp = state[2 * branch: 2 * branch + 2]
        out[branch] = state_to_bloch(amp / np.linalg.norm(amp))
    return out


@dataclass
class ExtractedVector:
    """Per-index extraction outcome; ``vector`` is None when tomography was
    impossible for this index (see ``error``)."""

    index: int                    # 1-based
    vector: np.ndarray | None
    samples: int
    under_sampled: bool
    error: str | None = None


def extract_all(plan: MultiRotationPlan, shots_per_vector: int,
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
    [(cal, jobs)] = _grid_counts({0: (full_circuit(plan), seed)}, [shots_per_vector], noise,
                                 derive_seed(seed, 3), mitigate)
    tallies = {label: res.hist.reshape(-1, 2) for label, res in jobs[0].items()}
    return [index_estimate(i0 + 1, {label: t[i0] for label, t in tallies.items()}, cal)
            for i0 in range(plan.batch.p)]


def index_estimate(index: int, tallies: dict, cal=None) -> ExtractedVector:
    """Single-qubit tomography for one branch from its (n0, n1) tallies per
    basis, with ``estimate_qubit``; ``cal`` is a checked readout calibration."""
    basis_totals = {label: int(sum(pair)) for label, pair in tallies.items()}
    empty = [label for label, tot in basis_totals.items() if tot == 0]
    if empty:
        vector, error = None, f"no samples in basis {','.join(empty)}"
    else:
        _, _, vector = estimate_qubit(tallies, cal)
        error = None if vector is not None else "estimated Bloch vector has no direction"
    return ExtractedVector(
        index=index, vector=vector, samples=sum(basis_totals.values()),
        under_sampled=min(basis_totals.values()) < UNDER_SAMPLE_THRESHOLD, error=error)
