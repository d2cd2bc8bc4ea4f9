"""Seeded experiment pipelines behind the CLI: single rotations, the worked
example, and fidelity/angle sweeps over a logarithmic shot grid."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import angle_between, normalize, vec_to_angles
from .circuit import Circuit
from .errors import DomainError
from .multirot import VectorBatch, extract_all
from .rotation import (RotationSpec, axis_rotation_sequence, axis_rotation_unitary,
                       erp_from_spec, erp_from_unitary, initialization_ops,
                       rodrigues_rotate)
from .simulator import NoiseModel, _rng, derive_seed
from .tomography import (_directed_estimates, _process_counts, _process_outputs,
                         _reconstruct_process, _state_counts, erp_from_tomography,
                         gate_fidelity, state_tomography)

NOISE_PRESETS = {
    "ideal": NoiseModel(),
    # Plausibility knobs, not measured device data. Both bias estimates a
    # little: depol_1q's basis-change gates shrink X, Y, Z by lam, lam^2, 1
    # (about 0.04 deg), and readout flips of control bits move shots between
    # a batch's branches (about 2 deg at 64 to 256 vectors, with or without
    # --mitigate, which corrects only the data bit).
    "nisq-lite": NoiseModel(depol_1q=0.001, depol_ctrl=0.01, readout_flip=0.02),
}

DEFAULT_SHOT_RANGE = (200, 20000)
DEFAULT_GRID_POINTS = 20
DEFAULT_TRIALS = 20
# Records a sweep may make, 2 per (backend, trial, grid point), for a budget
# of 256 MiB. A backend reconstructs all of its trials and points as one
# stack, so memory grows with trials x points. At this cap under nisq-lite
# with mitigation, one trial of 65,536 points peaks at 138 MiB under
# tracemalloc (192 MiB RSS) and 4,096 trials of 16 points at 143 MiB (187).
MAX_SWEEP_RECORDS = 1 << 17


@dataclass
class SweepRecord:
    backend: str
    trial: int
    shots: int
    metric: str   # "gate_fidelity" or "angle_deg"
    value: float


def log_shot_grid(lo: int = DEFAULT_SHOT_RANGE[0], hi: int = DEFAULT_SHOT_RANGE[1],
                  points: int = DEFAULT_GRID_POINTS) -> list[int]:
    """Logarithmically spaced integer shot counts in [lo, hi], sorted with
    duplicates removed. More points than the hi - lo + 1 integers in the
    range, or than ``MAX_SWEEP_RECORDS`` allows one backend and trial, and
    hi above 2**53, past which float64 skips integers, are rejected before
    anything is allocated. Near 2**53 a rounded grid value may pass its
    neighbour or leave the range, so the grid is clipped and sorted. It keeps
    each value that differs from its predecessor rather than call
    ``np.unique``, whose masked-array check imports ``numpy.ma`` (10-14 ms
    per process, more than a small sweep's reconstruction)."""
    if lo < 1 or hi < lo or not 1 <= points <= hi - lo + 1:
        raise DomainError(f"invalid shot grid ({lo}, {hi}, {points})")
    if hi > 2**53:
        raise DomainError(f"shot grid must end at most at 2**53 = {2**53}, got {hi}")
    _check_sweep_size(1, 1, points)
    grid = np.sort(np.clip(np.rint(np.geomspace(lo, hi, points)).astype(np.int64), lo, hi))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))].tolist()


def seeded_rotations(seed: int, count: int) -> list[RotationSpec]:
    rng = _rng(derive_seed(seed, 1))
    return [RotationSpec(normalize(rng.normal(size=3))[0],
                         float(rng.uniform(0.0, 2.0 * math.pi))) for _ in range(count)]


def seeded_vectors(seed: int, count: int) -> list[np.ndarray]:
    rng = _rng(derive_seed(seed, 2))
    return [normalize(rng.normal(size=3))[0] for _ in range(count)]


def rotation_circuit(vector, spec: RotationSpec) -> Circuit:
    """Initialize a qubit to ``vector`` and rotate it: the single-vector pipeline."""
    return Circuit(1, initialization_ops(vector) + axis_rotation_sequence(spec))


def rotate_report(spec: RotationSpec, vector, shots: int, noise: NoiseModel | None,
                  seed: int, mitigate: bool = False) -> dict:
    """Rotate one vector classically and through sampled tomography."""
    oracle = rodrigues_rotate(spec, vector)
    result = state_tomography(rotation_circuit(vector, spec), shots, noise, seed, mitigate)
    return {
        "axis": [float(x) for x in spec.axis],
        "angle_r": spec.angle_r,
        "vector": [float(x) for x in vector],
        "oracle": [float(x) for x in oracle],
        "extracted": [float(x) for x in result.bloch],
        "angle_deg": math.degrees(angle_between(result.bloch, oracle)),
        "shots": shots,
        "seed": seed,
    }


def erp_report(spec: RotationSpec, shots: int | None, noise: NoiseModel | None,
               seed: int, mitigate: bool = False) -> dict:
    """Euler-Rodrigues parameters via the classical formula, the exact circuit
    unitary, and (when shots are given) sampled process tomography."""
    classical = erp_from_spec(spec).canonical()
    circuit = erp_from_unitary(axis_rotation_unitary(spec))
    report = {
        "axis": [float(x) for x in spec.axis],
        "angle_r": spec.angle_r,
        "classical": [float(x) for x in classical],
        "circuit": [float(x) for x in circuit],
        "tomography": None,
        "delta": None,
        "seed": seed,
    }
    if shots is not None:
        tomo = erp_from_tomography(spec, shots, noise, seed, mitigate)
        report["tomography"] = [float(x) for x in tomo]
        report["delta"] = [float(t - c) for t, c in zip(tomo, classical)]
        report["shots"] = shots
    return report


EXAMPLE_AXIS = (2.0, 1.0, 1.0)
EXAMPLE_VECTOR = (1.0, 1.0, 1.0)
EXAMPLE_ANGLE_DEG = 90.0


def example_report(shots: int = 20000, noise: NoiseModel | None = None,
                   seed: int = 7, mitigate: bool = False) -> dict:
    """The demonstration pipeline: rotate (1,1,1)/sqrt(3) by 90 degrees about
    (2,1,1)/sqrt(6), extracting parameters and the rotated vector."""
    axis, _ = normalize(EXAMPLE_AXIS)
    vector, _ = normalize(EXAMPLE_VECTOR)
    spec = RotationSpec(axis, math.radians(EXAMPLE_ANGLE_DEG))
    theta_i, phi_i = vec_to_angles(vector)
    theta_n, phi_n = vec_to_angles(axis)
    gates = [{"kind": op.kind, "theta": op.theta} for op in axis_rotation_sequence(spec)]
    erp = erp_report(spec, shots, noise, derive_seed(seed, 10), mitigate)
    report = {
        "axis": [float(x) for x in axis],
        "vector": [float(x) for x in vector],
        "angle_r": spec.angle_r,
        "angle_deg": EXAMPLE_ANGLE_DEG,
        "init_angles": {"theta": theta_i, "phi": phi_i},
        "axis_angles": {"theta": theta_n, "phi": phi_n},
        "gate_sequence": gates,
        "erp_classical": erp["classical"],
        "erp_circuit": erp["circuit"],
        "shots": shots,
        "seed": seed,
        "erp_tomography": erp["tomography"],
    }
    rotated = rotate_report(spec, vector, shots, noise, derive_seed(seed, 11), mitigate)
    report["oracle"] = rotated["oracle"]
    report["extracted"] = rotated["extracted"]
    report["angle_diff_deg"] = rotated["angle_deg"]
    return report


def multi_report(batch: VectorBatch, rotation: RotationSpec, shots_per_vector: int,
                 noise: NoiseModel | None, seed: int,
                 mitigate: bool = False) -> list[dict]:
    """Run the batched pipeline and pair each extraction with its oracle.

    The oracle rotates the whole batch in one ``rodrigues_rotate`` call, and
    one ``angle_between`` call compares every extracted vector with its
    oracle; both give each row the bytes it gets alone. An index whose
    extraction failed (``vector`` None) has no angle."""
    extracted = extract_all(batch, rotation, shots_per_vector, noise, seed, mitigate)
    oracles = rodrigues_rotate(rotation, batch.vectors)
    found = [i0 for i0, item in enumerate(extracted) if item.vector is not None]
    angles = [None] * len(extracted)
    if found:
        between = angle_between(np.array([extracted[i0].vector for i0 in found]), oracles[found])
        for i0, angle in zip(found, between.tolist()):
            angles[i0] = math.degrees(angle)
    return [{
        "index": item.index,
        "input": vec_in,
        "oracle": oracle,
        "extracted": None if item.vector is None else item.vector.tolist(),
        "angle_deg": angle,
        "samples": item.samples,
        "under_sampled": item.under_sampled,
        "error": item.error,
    } for item, vec_in, oracle, angle in zip(extracted, batch.vectors.tolist(),
                                              oracles.tolist(), angles)]


def sweep_records(backends, trials: int, shot_grid, seed: int = 0,
                  mitigate: bool = False) -> list[SweepRecord]:
    """Fidelity and angle curves: for every (backend, trial, shots) run process
    tomography of a random rotation and state tomography of a random rotated
    vector. Rotations and vectors are drawn once from the seed, so every
    backend sees the same set.

    Grid points use common random numbers: within a trial, every shot count
    samples from the same counter-based stream. Each point keeps its exact
    marginal distribution. On every backend a larger job extends a smaller
    one instead of resampling it, because each row of a draw takes one
    uniform per shot from its exact outcome distribution, so the curve as a
    whole fluctuates far less, which is what makes point-to-point comparisons
    along it meaningful. Each trial therefore draws every circuit once, at
    the largest grid point, with every grid point as a checkpoint
    (``_process_counts`` and ``_state_counts``), and keeps only the tallies
    that each point reads as its row of the draw's prefix table, with their
    readout calibrations. Each backend then reconstructs the whole (trials x
    points) stack in one pass: one process estimate, one Choi
    eigendecomposition, one polar factor and one state estimate call, then
    one ``gate_fidelity`` and one ``angle_between`` call. The one-point
    functions run the same code on a stack of one, so the records equal
    those of ``process_tomography`` and ``state_tomography`` run at each
    point. An unknown or repeated backend name, or a sweep of more than
    ``MAX_SWEEP_RECORDS`` records, raises DomainError before any draw.
    """
    check_backends(backends)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    shot_grid = [int(s) for s in shot_grid]
    if not shot_grid:
        return []
    _check_sweep_size(len(backends), trials, len(shot_grid))
    specs = seeded_rotations(seed, trials)
    vectors = seeded_vectors(seed, trials)
    # the exact unitary and the oracle of each (trial, point), trial-major
    exact = np.repeat([axis_rotation_unitary(spec) for spec in specs], len(shot_grid), axis=0)
    oracles = np.repeat([rodrigues_rotate(spec, vector) for spec, vector in zip(specs, vectors)],
                        len(shot_grid), axis=0)
    records: list[SweepRecord] = []
    for backend in backends:
        noise = None if backend == "noiseless" else NOISE_PRESETS[backend]
        use_mitigation = mitigate and backend != "noiseless"
        label = backend + "+mit" if use_mitigation else backend
        procs, states = [], []
        for trial, (spec, vector) in enumerate(zip(specs, vectors)):
            procs.append(_process_counts(spec, shot_grid, noise, derive_seed(seed, trial, 3),
                                         use_mitigation))
            states.append(_state_counts(rotation_circuit(vector, spec), shot_grid, noise,
                                        derive_seed(seed, trial, 4), use_mitigation))
        cal, tallies = _stacked(procs)
        *_, unitary = _reconstruct_process(_process_outputs(tallies, cal))
        cal, counts = _stacked(states)
        *_, direction = _directed_estimates(counts.sum(axis=1), cal)
        fidelities = gate_fidelity(exact, unitary).tolist()
        angles = angle_between(direction, oracles).tolist()
        for (trial, shots), fidelity, angle in zip(itertools.product(range(trials), shot_grid),
                                                   fidelities, angles):
            records.append(SweepRecord(label, trial, shots, "gate_fidelity", fidelity))
            records.append(SweepRecord(label, trial, shots, "angle_deg", math.degrees(angle)))
    return records


def _stacked(draws):
    """The trial-by-trial (cal, counts) pairs of ``draws`` as one (trials x
    points) stack of each; cal stays None without mitigation."""
    cals, counts = zip(*draws)
    return None if cals[0] is None else np.concatenate(cals), np.concatenate(counts)


def check_backends(backends) -> None:
    """Raise DomainError unless every name is "noiseless" or a noise preset,
    named once."""
    for i, b in enumerate(backends):
        if b != "noiseless" and b not in NOISE_PRESETS:
            raise DomainError(f"unknown backend {b!r}; expected 'noiseless' or one of "
                              f"{sorted(NOISE_PRESETS)}")
        if b in backends[:i]:
            raise DomainError(f"backend {b!r} is named more than once")


def _check_sweep_size(backends: int, trials: int, points: int) -> None:
    if 2 * backends * trials * points > MAX_SWEEP_RECORDS:
        raise DomainError(f"{backends} backend(s) x {trials} trial(s) x {points} grid points "
                          f"make more than the {MAX_SWEEP_RECORDS} records a sweep may make")


def median_by_shots(records, metric: str, backend: str | None = None) -> dict[int, float]:
    """Median of one metric across trials, keyed by shot count. Each median
    takes ``np.median``'s own steps (partition at the middle and last
    positions, the mean of the middle one or two values, NaN if the last is
    NaN), so it is the same float, without ``np.median``'s masked-array check,
    which imports ``numpy.ma``."""
    buckets: dict[int, list[float]] = {}
    for rec in records:
        if rec.metric != metric:
            continue
        if backend is not None and rec.backend != backend:
            continue
        buckets.setdefault(rec.shots, []).append(rec.value)
    return {shots: _median(vals) for shots, vals in sorted(buckets.items())}


def _median(vals: list[float]) -> float:
    n = len(vals)
    middle = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    a = np.partition(vals, middle + [-1])
    return float(a[-1]) if np.isnan(a[-1]) else float(np.mean(a[(n - 1) // 2 : n // 2 + 1]))
