"""State and process reconstruction from sampled counts.

State tomography measures the data qubit, qubit 0, in the three Pauli bases
(any other qubit is a control read in Z; see ``_grid_counts``), forms the
linear-inversion Bloch vector r, and projects (I + r . sigma)/2 onto the
physical states by maximum likelihood (Smolin, Gambetta & Smith: floor the
negative eigenvalue, keep the eigenvectors). For one qubit that is the state
of Bloch vector r / max(1, |r|), whose dominant eigenvector is r/|r|;
``estimate_qubit`` uses these closed forms.

Process tomography (single qubit) prepares the four spanning inputs
|0>, |1>, |+>, |+i>, reconstructs each output state by plain linear
inversion, assembles the Choi matrix block-wise, projects it to positive
semidefinite at trace 2, and reads the channel's Kraus operators off the
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
from .linalg import (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, dagger, eig_hermitian,
                     is_unitary, max_abs, polar_unitary, svd_invariants, trace)
from .rotation import RotationSpec, ErParams, axis_rotation_sequence, erp_from_unitary
from .simulator import BASIS_LABELS, NoiseModel, ShotResult, derive_seed, sample

MIN_SHOTS = 100
# A Bloch vector estimate shorter than this has no direction.
MIN_BLOCH_NORM = 1e-12

# Gate realizations of the four spanning input states.
_PREP_OPS = {
    "0": (),
    "1": (GateOp("X", 0),),
    "+": (GateOp("RY", 0, math.pi / 2.0),),
    "+i": (GateOp("RY", 0, math.pi / 2.0), GateOp("RZ", 0, math.pi / 2.0)),
}
_PREP_STATES = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "+i": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
}
PREP_LABELS = ("0", "1", "+", "+i")


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


def _floor_spectrum(values_desc: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues that would stay negative and spread the deficit
    over the remaining ones; preserves the total exactly."""
    out = np.asarray(values_desc, dtype=float).copy()
    acc = 0.0
    for i in range(out.size - 1, -1, -1):
        if out[i] + acc / (i + 1) < 0.0:
            acc += out[i]
            out[i] = 0.0
        else:
            out[: i + 1] += acc / (i + 1)
            break
    return out


def _floor_psd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(floored eigenvalues descending, eigenvectors as columns, projection)
    of a Hermitian ``m``: its spectrum floored by ``_floor_spectrum`` on the
    same eigenvectors, symmetrized."""
    values, vectors = eig_hermitian(m)
    floored = _floor_spectrum(values)
    rho = vectors @ np.diag(floored) @ dagger(vectors)
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
    if abs(trace(mu).real - 1.0) > 1e-6:
        raise DomainError(f"input must have trace 1, got {trace(mu).real!r}")
    return _floor_psd(mu)[2]


def density_from_bloch(r) -> np.ndarray:
    return 0.5 * (PAULI_I + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z)


def _checked_tally(tally) -> np.ndarray:
    """``tally`` as an array, once it is a (3, 2) tally of nonnegative
    integers: ShapeError for another shape, DomainError for other entries."""
    tally = np.asarray(tally)
    if tally.shape != (3, 2):
        raise ShapeError(f"expected a (3, 2) tally of bases X, Y, Z, got shape {tally.shape}")
    if tally.dtype.kind not in "iu" or tally.min() < 0:
        raise DomainError(f"tally entries must be nonnegative integers, got {tally.tolist()}")
    return tally


def estimate_qubit(tally, cal=None):
    """Single-qubit state estimate (r, rho, direction) from a (3, 2) tally:
    row k holds the (n0, n1) of basis X, Y, Z. r is (n0 - n1)/N per basis, or
    p0 - p1 of the NNLS-mitigated frequencies given a checked calibration
    ``cal``, and may leave the unit ball; rho = ``smolin_project`` of
    (I + r . sigma)/2 and direction = r/|r| (None below MIN_BLOCH_NORM), in
    closed form. The tally is checked by ``_checked_tally``."""
    r = np.empty(3)
    for k, (n0, n1) in enumerate(_checked_tally(tally).tolist()):
        if n0 + n1 < 1:
            raise DomainError(f"no samples in basis {BASIS_LABELS[k]}")
        if cal is None:
            r[k] = (n0 - n1) / (n0 + n1)
        else:
            p = _nnls_frequencies(np.array([n0, n1], dtype=float) / (n0 + n1), cal)
            r[k] = float(p[0] - p[1])
    norm = float(np.linalg.norm(r))
    return (r, density_from_bloch(r / max(1.0, norm)),
            r / norm if norm >= MIN_BLOCH_NORM else None)


def _grid_counts(circuits: dict, shot_grid, noise: NoiseModel | None, cal_seed: int,
                 mitigate: bool) -> list:
    """Per point s of the non-empty ``shot_grid``, in grid order: the checked
    readout calibration of s shots per run (None without mitigation) and, for
    each key of ``circuits`` (key -> (circuit, seed)), its tally. Qubit 0 is
    the data qubit, measured in bases X, Y, Z; every other qubit is a control
    bit read in Z. A circuit with n control qubits is drawn at s * 2**n shots
    per basis, about s per control branch, and its tally is one int64 array
    of shape (2**n, 3, 2): branch b, then basis X/Y/Z, then (n0, n1). Every
    job, the calibration's runs included, is drawn once at the largest point
    with the distinct points as checkpoints. The three bases' prefix tables
    stack into one (points, 2**n, 3, 2) array per circuit, and each point
    reads its row."""
    if min(shot_grid) < MIN_SHOTS:
        raise DomainError(f"shots must be >= {MIN_SHOTS} for tomography, got {min(shot_grid)}")
    checkpoints = sorted(set(shot_grid))
    row_of = {s: row for row, s in enumerate(checkpoints)}
    top = checkpoints[-1]
    readout = (_readout_matrix(_readout_runs(noise, top, cal_seed, checkpoints))
               if mitigate else None)
    tables = {}
    for key, (circuit, seed) in circuits.items():
        n = circuit.num_qubits - 1
        results = [sample(circuit, (label,) + ("Z",) * n, top * 2**n, noise,
                          derive_seed(seed, bi), checkpoints=[s * 2**n for s in checkpoints])
                   for bi, label in enumerate(BASIS_LABELS)]
        tables[key] = np.stack([res.table.reshape(len(checkpoints), 2**n, 2)
                                for res in results], axis=2)
    return [(None if readout is None else _conditioned(readout[row]),
             {key: table[row] for key, table in tables.items()})
            for row in (row_of[s] for s in shot_grid)]


def _state_series(circuit: Circuit, shot_grid, noise: NoiseModel | None, seed: int,
                  mitigate: bool) -> list[StateTomographyResult]:
    """``state_tomography`` at every point of ``shot_grid``, in grid order,
    from one draw at the largest point."""
    series = []
    for cal, tallies in _grid_counts({0: (circuit, seed)}, shot_grid, noise,
                                     derive_seed(seed, 3), mitigate):
        r, rho, direction = estimate_qubit(tallies[0].sum(axis=0), cal)
        if direction is None:
            raise NumericError("estimated Bloch vector is below MIN_BLOCH_NORM; it has no direction")
        series.append(StateTomographyResult(
            density=rho, bloch=direction,
            expectations=dict(zip(BASIS_LABELS, (float(x) for x in r))), counts=tallies[0]))
    return series


def state_tomography(circuit: Circuit, shots: int = 20000, noise: NoiseModel | None = None,
                     seed: int = 0, mitigate: bool = False) -> StateTomographyResult:
    """Reconstruct qubit 0's state with ``estimate_qubit`` from its marginal
    in three basis-sampled jobs of ``shots * 2**n`` each, n being the number
    of other (control) qubits. Under gate noise those qubits must be
    controls in ``simulator.sample``'s sense (each prepared by one
    uncontrolled H, only a control after it), else DomainError. Raises
    NumericError when the estimate has no direction (|r| < MIN_BLOCH_NORM)."""
    return _state_series(circuit, [shots], noise, seed, mitigate)[0]


def _reconstruct_process(outputs: dict[str, np.ndarray]) -> ProcessTomographyResult:
    """Assemble and project the Choi matrix from the four output states, then
    extract Kraus operators and the closest unitary."""
    e00, e11 = outputs["0"], outputs["1"]
    e01 = outputs["+"] + 1j * outputs["+i"] - (1.0 + 1.0j) / 2.0 * (e00 + e11)
    choi = np.block([[e00, e01], [dagger(e01), e11]])
    floored, vectors, choi = _floor_psd(choi)
    weights = [float(max(w, 0.0)) for w in floored]
    operators = [math.sqrt(w) * vectors[:, k].reshape(2, 2, order="F")
                 for k, w in enumerate(weights)]
    degenerate = bool(floored[0] - floored[1] < 1e-6 and floored[1] > 0.1)
    unitary = polar_unitary(operators[0])
    return ProcessTomographyResult(choi=choi, kraus=KrausSet(operators, weights),
                                   unitary=unitary, degenerate=degenerate)


def _process_series(spec: RotationSpec, shot_grid, noise: NoiseModel | None, seed: int,
                    mitigate: bool) -> list[ProcessTomographyResult]:
    """``process_tomography`` at every point of ``shot_grid``, in grid order,
    from one draw at the largest point."""
    rotation_ops = axis_rotation_sequence(spec)
    circuits = {prep: (Circuit(1, _PREP_OPS[prep] + rotation_ops), derive_seed(seed, 4 + k))
                for k, prep in enumerate(PREP_LABELS)}
    series = []
    for cal, tallies in _grid_counts(circuits, shot_grid, noise, derive_seed(seed, 12), mitigate):
        outputs = {prep: density_from_bloch(estimate_qubit(tallies[prep][0], cal)[0])
                   for prep in PREP_LABELS}
        series.append(_reconstruct_process(outputs))
    return series


def process_tomography(spec: RotationSpec, shots: int = 20000,
                       noise: NoiseModel | None = None, seed: int = 0,
                       mitigate: bool = False) -> ProcessTomographyResult:
    """Sampled process tomography of the rotation circuit: 4 input states
    x 3 measurement bases, ``shots`` per circuit."""
    return _process_series(spec, [shots], noise, seed, mitigate)[0]


def process_tomography_exact(u) -> ProcessTomographyResult:
    """Process tomography of a 2x2 unitary from analytic (infinite-shot)
    expectation values; isolates the reconstruction algebra from shot noise."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ShapeError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not is_unitary(u, 1e-6):
        raise DomainError("matrix is not unitary within tolerance")
    outputs = {}
    for prep, psi in _PREP_STATES.items():
        out = u @ psi
        outputs[prep] = np.outer(out, out.conj())
    return _reconstruct_process(outputs)


def gate_fidelity(u_exact, u_rec) -> float:
    """Phase-invariant overlap |Tr(U^dag V)|^2 / 4 between two 2x2 unitaries."""
    u_exact = np.asarray(u_exact, dtype=complex)
    u_rec = np.asarray(u_rec, dtype=complex)
    if u_exact.shape != (2, 2) or u_rec.shape != (2, 2):
        raise ShapeError(
            f"expected 2x2 matrices, got {u_exact.shape} and {u_rec.shape}")
    for m in (u_exact, u_rec):
        if not is_unitary(m, 1e-3):
            raise DomainError("inputs must be unitary within 1e-3")
    return float(abs(np.trace(dagger(u_exact) @ u_rec)) ** 2 / 4.0)


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
    return _readout_matrix(_readout_runs(noise, shots, seed, [shots]))[0]


def _readout_runs(noise: NoiseModel | None, shots: int, seed: int,
                  checkpoints) -> list[ShotResult]:
    """The prepare-|0> and prepare-|1> runs behind ``calibrate_readout``."""
    return [sample(Circuit(1, prep), ("Z",), shots, noise, derive_seed(seed, j),
                   checkpoints=checkpoints)
            for j, prep in enumerate(((), (GateOp("X", 0),)))]


def _readout_matrix(runs) -> np.ndarray:
    """The confusion matrices of ``_readout_runs`` at each of their
    checkpoints, as one (checkpoints, 2, 2) array read off the runs' prefix
    tables."""
    checkpoints = np.array(runs[0].checkpoints)
    return np.stack([run.table for run in runs], axis=-1) / checkpoints[:, None, None]


def _conditioned(cal: np.ndarray) -> np.ndarray:
    """``cal`` itself, once its condition number is checked to be below 1e8."""
    det, _, smax2 = svd_invariants(cal)
    if det == 0.0 or smax2 > 1e8 * abs(det):
        raise NumericError("calibration matrix is numerically singular")
    return cal


def _nnls_frequencies(freqs: np.ndarray, cal) -> np.ndarray:
    """min ||cal p - freqs|| over p >= 0 for a nonsingular 2x2 ``cal``, then
    renormalized: the unconstrained solve clipped at 0. For nonnegative
    ``cal`` and ``freqs`` at most one part of that solve is negative; freqs
    then lies outside the cone of cal's columns, nearest the ray of the
    other column, and the NNLS minimum on that ray renormalizes to the same
    basis vector."""
    (a, b), (c, d) = cal
    det = a * d - b * c
    p = np.array([d * freqs[0] - b * freqs[1], a * freqs[1] - c * freqs[0]]) / det
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0.0:
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
