"""State and process reconstruction from sampled counts.

Every step below works on stacks. ``_grid_counts`` draws every circuit of
a stack of jobs, in all three bases, as one stack of rows of
``simulator._sample_rows`` and returns their tallies as one
(jobs x points, circuits, 2**n, 3, 2) array. A sweep draws each backend's
trials as one stack of jobs and gets one estimate, one Choi projection and
one polar factor per (trial, point) from a single call each per backend.
The public one-point functions run the same code on a stack of one job,
so a sweep's values equal theirs.

State tomography measures the data qubit, qubit 0, in the three Pauli bases
(any other qubit is a control read in Z; see ``_grid_counts``), forms the
linear-inversion Bloch vector r, and projects (I + r . sigma)/2 onto the
physical states by maximum likelihood (Smolin, Gambetta & Smith: floor the
negative eigenvalue, keep the eigenvectors). For one qubit that is the state
of Bloch vector r / max(1, |r|), whose dominant eigenvector is r/|r|;
``_state_estimates`` and ``state_tomography`` use these closed forms.

Process tomography (single qubit) prepares the four spanning inputs
|0>, |1>, |+>, |+i>, reconstructs each output state by plain linear
inversion, assembles the Choi matrix block-wise, projects it to positive
semidefinite at trace 2 (the same eigenvalue floor, on a stack of 4x4
matrices), and reads the channel's Kraus operators off the
eigendecomposition: K_i = sqrt(lambda_i) * column-major reshape of the i-th
eigenvector. The reconstructed unitary is the polar-unitary factor of the
dominant Kraus operator.

Readout mitigation is one-qubit: a 2x2 confusion matrix from two
prepare-and-measure runs, checked for conditioning by its closed-form
singular values, and inverted per basis by a closed-form nonnegative least
squares solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateOp
from .errors import DomainError, NumericError, ShapeError
from .linalg import (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, _entries, _times, abs_complex,
                     dagger, eig_hermitian, max_abs, polar_unitary, row_dot, svd_invariants,
                     unitarity_error)
from .rotation import RotationSpec, ErParams, axis_rotation_sequence, erp_from_unitary
from .simulator import BASIS_LABELS, NoiseModel, _sample_rows, derive_seed

MIN_SHOTS = 100
# Shots that one ``_grid_counts`` call may draw, one Philox word each, over
# its data rows and calibration runs. Every command draws through it, so
# this bounds a command's time per draw before anything is evolved or
# drawn: 2^30 words take about 4 s at 2 outcomes, 8 s at 8 and 16 s at
# 4,096 (the 12-qubit maximum), at 4.0, 7.1 and 14.6 ns per word (one Xeon
# core, numpy 2.4.6). It admits a sweep at its record cap with the default
# shots (983 M words) and a 2,048-vector ``multi`` at 20,000 shots (123 M).
MAX_DRAW_WORDS = 1 << 30
# A Bloch vector estimate shorter than this has no direction.
MIN_BLOCH_NORM = 1e-12

PREP_LABELS = ("0", "1", "+", "+i")
# The four spanning input states, as gates, in PREP_LABELS order.
_PREP_OPS = (
    (),
    (GateOp("X", 0),),
    (GateOp("RY", 0, math.pi / 2.0),),
    (GateOp("RY", 0, math.pi / 2.0), GateOp("RZ", 0, math.pi / 2.0)),
)


@dataclass
class KrausSet:
    """Kraus operators with their Choi eigenvalue weights; sum K_i^dag K_i = I."""

    operators: list[np.ndarray]
    weights: list[float]

    def completeness_error(self) -> float:
        total = sum(dagger(k) @ k for k in self.operators)
        return max_abs(total - np.eye(2))


@dataclass
class StateTomographyResult:
    density: np.ndarray          # 2x2, PSD, trace 1
    bloch: np.ndarray            # r/|r|, the Bloch vector of density's dominant eigenvector
    expectations: dict[str, float]
    counts: np.ndarray           # the circuit's (2**n, 3, 2) tally from ``_grid_counts``


@dataclass
class ProcessTomographyResult:
    choi: np.ndarray             # 4x4, PSD, trace 2 after projection
    kraus: KrausSet
    unitary: np.ndarray          # polar-unitary factor of the dominant Kraus
    degenerate: bool             # True when the dominant Choi eigenvalue is nearly tied


def _floor_spectrum(values_desc) -> np.ndarray:
    """Zero out eigenvalues that would stay negative and spread the deficit
    over the remaining ones, for a descending spectrum or each spectrum of a
    (..., k) stack; keeps each total, exactly where the arithmetic is exact
    and otherwise up to rounding, and leaves no eigenvalue negative. Step i,
    from the smallest eigenvalue up, floors eigenvalue i of every spectrum
    still open, or spreads that spectrum's deficit over eigenvalues 0..i and
    closes it."""
    out = np.array(values_desc, dtype=float)
    rows = out.reshape(-1, out.shape[-1])
    acc = np.zeros(len(rows))
    still_open = np.ones(len(rows), dtype=bool)
    for i in range(rows.shape[1] - 1, -1, -1):
        floor = still_open & (rows[:, i] + acc / (i + 1) < 0.0)
        close = still_open & ~floor
        acc[floor] += rows[floor, i]
        rows[floor, i] = 0.0
        rows[close, : i + 1] += (acc[close] / (i + 1))[:, None]
        still_open = floor
    return out


def _floor_psd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(floored eigenvalues descending, eigenvectors as columns, projection)
    of a Hermitian ``m``, or of each matrix of a stack: its spectrum floored
    by ``_floor_spectrum`` on the same eigenvectors, symmetrized."""
    values, vectors = eig_hermitian(m)
    floored = _floor_spectrum(values)
    rho = (vectors * floored[..., None, :]) @ dagger(vectors)
    return floored, vectors, (rho + dagger(rho)) / 2.0


def smolin_project(mu) -> np.ndarray:
    """Maximum-likelihood projection of a Hermitian trace-1 matrix onto the
    physical density matrices (eigenvalue flooring; eigenvectors unchanged).
    Raises DomainError for an input that is not finite, not Hermitian or not
    of trace 1."""
    mu = np.asarray(mu, dtype=complex)
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise DomainError("input entries must be finite")
    if max_abs(mu - dagger(mu)) > 1e-8:
        raise DomainError("input must be Hermitian")
    if abs(np.trace(mu).real - 1.0) > 1e-6:
        raise DomainError(f"input must have trace 1, got {float(np.trace(mu).real)!r}")
    return _floor_psd(mu)[2]


def density_from_bloch(r) -> np.ndarray:
    """(I + r . sigma)/2 of a Bloch vector, or of each row of an (..., 3) stack."""
    r = np.asarray(r)
    # X, Y, Z flattened as the rows of a (3, 4) matrix, so r @ sigma is r . sigma
    sigma = np.array([PAULI_X, PAULI_Y, PAULI_Z]).reshape(3, 4)
    return 0.5 * (PAULI_I + (r @ sigma).reshape(r.shape[:-1] + (2, 2)))


def _checked_tally(tally) -> np.ndarray:
    """``tally`` as an array, once it is a (3, 2) tally of nonnegative
    integers, or an (..., 3, 2) stack of them: ShapeError for another shape,
    DomainError for other entries."""
    tally = np.asarray(tally)
    if tally.shape[-2:] != (3, 2):
        raise ShapeError(f"expected a (3, 2) tally of bases X, Y, Z, got shape {tally.shape}")
    if tally.dtype.kind not in "iu" or (tally < 0).any():
        raise DomainError(f"tally entries must be nonnegative integers, got {tally.tolist()}")
    return tally


def _bloch_vectors(tallies, cal=None) -> np.ndarray:
    """The raw Bloch vector of each tally of an (..., 3, 2) stack, as an
    (..., 3) array: (n0 - n1)/N per basis, or p0 - p1 of the NNLS-mitigated
    frequencies given checked calibrations ``cal``, one (2, 2) matrix or one
    per tally; expected frequencies give the infinite-shot estimate.
    DomainError names the first empty basis of the first tally with one."""
    totals = tallies.sum(axis=-1)
    if not (totals > 0).all():
        empty = np.argwhere(~(totals > 0))[0][-1]
        raise DomainError(f"no samples in basis {BASIS_LABELS[empty]}")
    if cal is None:
        return (tallies[..., 0] - tallies[..., 1]) / totals
    p = _nnls_frequencies(tallies / totals[..., None], np.asarray(cal)[..., None, :, :])
    return p[..., 0] - p[..., 1]


def _state_estimates(tallies, cal=None):
    """(r, |r|) of each ``_checked_tally`` tally of an (..., 3, 2) stack: r
    from ``_bloch_vectors``, which may leave the unit ball. The projected
    state has Bloch vector r / max(1, |r|) and direction r/|r|."""
    r = _bloch_vectors(_checked_tally(tallies), cal)
    return r, np.sqrt(row_dot(r, r))


def _grid_counts(jobs, shot_grid, noise: NoiseModel | None,
                 mitigate: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """(cal, tallies) over the points s of the non-empty ``shot_grid``, in
    grid order, for a sequence of (cal_seed, [(circuit, seed), ...]) jobs of
    as many circuits each, all of one width, stacked job-major as (jobs x
    points, ...): cal holds the checked readout calibrations of s shots per
    run from each job's cal_seed (None without mitigation). Qubit 0 is the
    data qubit, measured in bases X, Y, Z; every other qubit is a control bit
    read in Z. Circuits with n control qubits are drawn at s * 2**n shots per
    basis, about s per control branch, and the tallies are one int64 array
    of shape (jobs x points, circuits, 2**n, 3, 2): job and point, circuit,
    branch b, then basis X/Y/Z, then (n0, n1). Every job's calibration runs
    are one ``_sample_rows`` call and every (job, circuit, basis) row of the
    data another, each drawn once at the largest point with the distinct
    points as checkpoints; each row's prefix table is its slice of the
    tallies. A call that would draw more than ``MAX_DRAW_WORDS`` shots in
    all raises DomainError before either draw."""
    if min(shot_grid) < MIN_SHOTS:
        raise DomainError(f"shots must be >= {MIN_SHOTS} for tomography, got {min(shot_grid)}")
    checkpoints = sorted(set(shot_grid))
    row_of = {s: row for row, s in enumerate(checkpoints)}
    rows = [row_of[s] for s in shot_grid]
    top = checkpoints[-1]
    cal_seeds, circuits = zip(*jobs)
    n = circuits[0][0][0].num_qubits - 1
    draws = [(circuit, (label,) + ("Z",) * n, derive_seed(seed, bi))
             for job in circuits for circuit, seed in job for bi, label in enumerate(BASIS_LABELS)]
    words = top * (len(draws) * 2**n + (2 * len(jobs) if mitigate else 0))
    if words > MAX_DRAW_WORDS:
        raise DomainError(f"{len(draws)} rows of {top * 2**n} shots would draw {words} shots "
                          f"in all, more than the {MAX_DRAW_WORDS} (2**30) one draw may make")
    cal = None
    if mitigate:
        cal = _readout_runs(noise, top, cal_seeds, checkpoints)[:, rows]
        cal = _conditioned(cal.reshape(-1, 2, 2))
    tables = _sample_rows(draws, top * 2**n, noise, [s * 2**n for s in checkpoints])
    # (job, circuit, basis, checkpoint, branch, bit) to (job, point, circuit, branch, basis, bit)
    tables = tables.reshape(len(jobs), -1, 3, len(checkpoints), 2**n, 2)
    tables = tables.transpose(0, 3, 1, 4, 2, 5)[:, rows]
    return cal, tables.reshape((-1,) + tables.shape[2:])


def _state_counts(circuits, shot_grid, noise: NoiseModel | None,
                  mitigate: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """(cal, counts) of the ``_grid_counts`` of one job per (circuit, seed)
    of ``circuits``, as ``state_tomography`` and ``multirot.extract_all``
    draw one: counts (circuits x points, 2**n, 3, 2), calibration seed
    derive_seed(seed, 3)."""
    cal, tallies = _grid_counts([(derive_seed(seed, 3), [(circuit, seed)])
                                 for circuit, seed in circuits], shot_grid, noise, mitigate)
    return cal, tallies[:, 0]


def _directed_estimates(tallies, cal=None):
    """(r, |r|, r/|r|) of each tally of an (..., 3, 2) stack, from one
    ``_state_estimates`` call. Raises NumericError when any estimate has no
    direction."""
    r, norm = _state_estimates(tallies, cal)
    if np.any(norm < MIN_BLOCH_NORM):
        raise NumericError("estimated Bloch vector is below MIN_BLOCH_NORM; it has no direction")
    return r, norm, r / norm[..., None]


def state_tomography(circuit: Circuit, shots: int = 20000, noise: NoiseModel | None = None,
                     seed: int = 0, mitigate: bool = False) -> StateTomographyResult:
    """Reconstruct qubit 0's state from three basis-sampled jobs of
    ``shots * 2**n`` each, n being the number of other (control) qubits:
    ``_state_estimates`` of qubit 0's tally summed over the control
    branches, its density (I + r . sigma)/2 at r / max(1, |r|). Under gate
    noise those qubits must be controls of the ``simulator`` module's shape
    (each prepared by one H and touched by no other gate), else
    DomainError. Raises NumericError when the estimate has no direction
    (|r| < MIN_BLOCH_NORM)."""
    cal, counts = _state_counts([(circuit, seed)], [shots], noise, mitigate)
    r, norm, direction = _directed_estimates(counts.sum(axis=1), cal)
    return StateTomographyResult(density=density_from_bloch(r[0] / max(1.0, norm[0])),
                                 bloch=direction[0],
                                 expectations=dict(zip(BASIS_LABELS, r[0].tolist())),
                                 counts=counts[0])


def _reconstruct_process(outputs):
    """Assemble and project the Choi matrix from the (points, 4, 2, 2) stack
    of output states, by input in ``PREP_LABELS`` order, then extract Kraus
    operators and the closest unitary, for every point at once: (choi,
    Kraus weights, Kraus operators, unitary) as stacks over the points."""
    e00, e11, plus, plus_i = np.moveaxis(outputs, -3, 0)
    e01 = plus + 1j * plus_i - _times((1.0 + 1.0j) / 2.0, e00 + e11)
    choi = np.block([[e00, e01], [dagger(e01), e11]])
    weights, vectors, choi = _floor_psd(choi)
    # K_k: eigenvector k (column k), reshaped column-major to 2x2
    columns = np.swapaxes(vectors, -1, -2).reshape(vectors.shape[:-1] + (2, 2))
    operators = np.sqrt(weights)[..., None, None] * np.swapaxes(columns, -1, -2)
    return choi, weights, operators, polar_unitary(operators[:, 0])


def _process_result(outputs) -> ProcessTomographyResult:
    """``_reconstruct_process`` of a (1, 4, 2, 2) output-state stack."""
    choi, weights, operators, unitary = _reconstruct_process(outputs)
    w = weights[0].tolist()
    return ProcessTomographyResult(choi=choi[0], kraus=KrausSet(list(operators[0]), w),
                                   unitary=unitary[0],
                                   degenerate=w[0] - w[1] < 1e-6 and w[1] > 0.1)


def _process_counts(specs, shot_grid, noise: NoiseModel | None,
                    mitigate: bool) -> tuple[np.ndarray | None, np.ndarray]:
    """(cal, tallies) of ``process_tomography`` for each (spec, seed) of
    ``specs``, from one ``_grid_counts`` call of one job per spec: tallies
    (specs x points, 4, 3, 2) holds the tally of each input of PREP_LABELS."""
    jobs = []
    for spec, seed in specs:
        rotation_ops = axis_rotation_sequence(spec)
        circuits = [(Circuit(1, ops + rotation_ops), derive_seed(seed, 4 + k))
                    for k, ops in enumerate(_PREP_OPS)]
        jobs.append((derive_seed(seed, 12), circuits))
    cal, tallies = _grid_counts(jobs, shot_grid, noise, mitigate)
    return cal, tallies[:, :, 0]


def _process_outputs(tallies, cal=None) -> np.ndarray:
    """The output states of each (4, 3, 2) tally of an (..., 4, 3, 2) stack,
    as the (..., 4, 2, 2) stack ``_reconstruct_process`` takes, from one
    ``_bloch_vectors`` call; ``cal`` holds one calibration per (4, 3, 2)
    tally."""
    cal = None if cal is None else cal[..., None, :, :]
    return density_from_bloch(_bloch_vectors(tallies, cal))


def process_tomography(spec: RotationSpec, shots: int = 20000,
                       noise: NoiseModel | None = None, seed: int = 0,
                       mitigate: bool = False) -> ProcessTomographyResult:
    """Sampled process tomography of the rotation circuit: 4 input states
    x 3 measurement bases, ``shots`` per circuit."""
    cal, tallies = _process_counts([(spec, seed)], [shots], noise, mitigate)
    return _process_result(_process_outputs(tallies, cal))


def gate_fidelity(u_exact, u_rec):
    """Phase-invariant overlap |Tr(U^dag V)|^2 / 4 between two 2x2 unitaries,
    as a float. Either side may be an (..., 2, 2) stack; the overlaps then
    come back as an array of the stack's shape."""
    u_exact = np.asarray(u_exact, dtype=complex)
    u_rec = np.asarray(u_rec, dtype=complex)
    if u_exact.shape[-2:] != (2, 2) or u_rec.shape[-2:] != (2, 2):
        raise ShapeError(
            f"expected 2x2 matrices, got {u_exact.shape} and {u_rec.shape}")
    for m in (u_exact, u_rec):
        if not np.all(unitarity_error(m) <= 1e-3):
            raise DomainError("inputs must be unitary within 1e-3")
    overlap = np.trace(dagger(u_exact) @ u_rec, axis1=-2, axis2=-1)
    # libm's pow, as ``** 2`` of a float scalar; ``** 2`` of an array multiplies
    fidelity = np.float_power(abs_complex(overlap), 2) / 4.0
    return float(fidelity) if fidelity.ndim == 0 else fidelity


def erp_from_tomography(spec: RotationSpec, shots: int = 20000,
                        noise: NoiseModel | None = None, seed: int = 0,
                        mitigate: bool = False) -> ErParams:
    """Euler-Rodrigues parameters of the tomography-reconstructed unitary."""
    result = process_tomography(spec, shots, noise, seed, mitigate)
    return erp_from_unitary(result.unitary, unitarity_tol=1e-3)


def calibrate_readout(noise: NoiseModel | None, shots: int, seed: int = 0) -> np.ndarray:
    """Estimate the one-qubit readout confusion matrix by prepare-and-measure
    runs of ``shots`` each.

    Column j holds the outcome frequencies observed when |j> is prepared;
    columns sum to 1 exactly.
    """
    return _readout_runs(noise, shots, [seed], ())[0, 0]


def _readout_runs(noise: NoiseModel | None, shots: int, seeds,
                  checkpoints) -> np.ndarray:
    """The confusion matrices of the prepare-|0> and prepare-|1> runs behind
    ``calibrate_readout``, drawn for each of ``seeds`` in one
    ``_sample_rows`` call, as one (seeds, stops, 2, 2) array: column j of
    each holds run j's frequencies at that stop."""
    tables = _sample_rows([(Circuit(1, prep), ("Z",), derive_seed(seed, j))
                           for seed in seeds for j, prep in enumerate(((), (GateOp("X", 0),)))],
                          shots, noise, checkpoints)
    tables = tables.reshape((len(seeds), 2) + tables.shape[1:])
    return np.moveaxis(tables, 1, -1) / tables[:, 0].sum(axis=-1)[..., None, None]


def _conditioned(cal: np.ndarray) -> np.ndarray:
    """``cal`` itself, once its condition number, or that of each matrix of
    a stack, is checked to be below 1e8."""
    det, _, smax2 = svd_invariants(cal)
    if np.any((det == 0.0) | (smax2 > 1e8 * abs_complex(det))):
        raise NumericError("calibration matrix is numerically singular")
    return cal


def _nnls_frequencies(freqs: np.ndarray, cal) -> np.ndarray:
    """min ||cal p - freqs|| over p >= 0 for a nonsingular 2x2 ``cal``, then
    renormalized: the unconstrained solve clipped at 0. ``freqs`` may be an
    (..., 2) stack of frequency pairs and ``cal`` a stack that broadcasts
    against it. For nonnegative ``cal`` and ``freqs`` at most one part of
    that solve is negative; freqs then lies outside the cone of cal's
    columns, nearest the ray of the other column, and the NNLS minimum on
    that ray renormalizes to the same basis vector."""
    (a, b), (c, d) = _entries(cal)
    f0, f1 = freqs[..., 0], freqs[..., 1]
    p = np.stack([d * f0 - b * f1, a * f1 - c * f0], axis=-1) / (a * d - b * c)[..., None]
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise NumericError("mitigation produced an all-zero probability vector")
    return p / total


def mitigate_frequencies(freqs, cal) -> np.ndarray:
    """Solve cal @ p = freqs for one qubit's two outcome frequencies by
    nonnegative least squares, given a 2x2 calibration from
    ``calibrate_readout``; p is clipped to >= 0 and renormalized to sum 1.
    Raises ShapeError for any other shape, DomainError for a negative or
    non-finite calibration entry or frequency, and NumericError when ``cal``
    has a condition number above 1e8."""
    cal = np.asarray(cal, dtype=float)
    freqs = np.asarray(freqs, dtype=float).reshape(-1)
    if cal.shape != (2, 2):
        raise ShapeError(f"calibration matrix must be 2x2, got {cal.shape}")
    if freqs.shape != (2,):
        raise ShapeError(f"expected 2 outcome frequencies, got {freqs.shape[0]}")
    if not all(np.all(np.isfinite(a) & (a >= 0.0)) for a in (cal, freqs)):
        raise DomainError("calibration entries and frequencies must be finite and nonnegative")
    return _nnls_frequencies(freqs, _conditioned(cal))
