import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import nnls

from qrot import (Circuit, DomainError, GateOp, NoiseModel, NumericError,
                  RotationSpec, ShapeError, ShotResult, align_global_phase,
                  axis_rotation_unitary, calibrate_readout,
                  dagger, eig_hermitian, erp_from_tomography, gate_fidelity,
                  mitigate_counts, mitigate_frequencies, process_tomography,
                  process_tomography_exact, smolin_project, state_tomography)
from qrot import state_to_bloch, tomography
from qrot.bloch import angle_between
from qrot.cli import main
from qrot.rotation import gate_ry, gate_rz
from qrot.tomography import (MIN_BLOCH_NORM, _reconstruct_process, density_from_bloch,
                             estimate_qubit)
from qrot.experiments import rotation_circuit
from qrot.multirot import MultiRotationPlan, VectorBatch, extract_all
from qrot.simulator import expectation_from_counts, sample

from conftest import WORKED_ROTATED, WORKED_VECTOR, random_spec

import jacobi


def max_abs(m):
    return float(np.max(np.abs(m)))


def jacobi_smolin_project(mu):
    """``smolin_project`` with the Jacobi oracle as its eigensolver."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tomography, "eig_hermitian", jacobi.eig_hermitian)
        return smolin_project(mu)


def hermitian_with_spectrum(values, seed=0):
    """Hermitian matrix with the given eigenvalues and a random eigenbasis."""
    v = gate_rz(0.31 + seed) @ gate_ry(1.07 + seed)
    return v @ np.diag(np.asarray(values, dtype=complex)) @ dagger(v)


class TestSmolinProject:
    def test_psd_input_unchanged(self):
        rho = hermitian_with_spectrum([0.8, 0.2])
        assert max_abs(smolin_project(rho) - rho) <= 1e-12

    def test_negative_eigenvalue_clipped(self):
        mu = hermitian_with_spectrum([1.2, -0.2], seed=1)
        projected = smolin_project(mu)
        values, vectors = eig_hermitian(projected)
        assert np.allclose(values, [1.0, 0.0], atol=1e-12)
        # eigenvectors are preserved: dominant directions coincide
        _, original_vectors = eig_hermitian(mu)
        overlap = abs(np.vdot(original_vectors[:, 0], vectors[:, 0]))
        assert abs(overlap - 1.0) <= 1e-10

    def test_maximally_mixed_fixed_point(self):
        mixed = np.eye(2, dtype=complex) / 2.0
        assert max_abs(smolin_project(mixed) - mixed) <= 1e-15

    def test_idempotent(self):
        mu = hermitian_with_spectrum([1.4, -0.4], seed=2)
        once = smolin_project(mu)
        assert max_abs(smolin_project(once) - once) <= 1e-12

    def test_trace_preserved(self):
        for seed, spectrum in enumerate(([1.2, -0.2], [0.5, 0.5], [1.7, -0.7])):
            mu = hermitian_with_spectrum(spectrum, seed=seed)
            assert abs(np.trace(smolin_project(mu)).real - 1.0) <= 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            smolin_project(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(DomainError):
            smolin_project(np.eye(2))


# (n0, n1) per basis; r = (n0 - n1)/N reaches |r| = sqrt(3), so both the
# inside and the outside of the unit ball are drawn.
_tally = st.tuples(st.integers(0, 5000), st.integers(0, 5000)).filter(lambda t: sum(t) > 0)
_tallies = st.fixed_dictionaries({basis: _tally for basis in "XYZ"})


class TestEstimateQubit:
    @settings(max_examples=300, deadline=None)
    @given(tallies=_tallies)
    @example(tallies={"X": (60, 40), "Y": (50, 50), "Z": (70, 30)})    # |r| < 1
    @example(tallies={"X": (100, 0), "Y": (100, 0), "Z": (0, 100)})    # |r| = sqrt(3)
    @example(tallies={"X": (90, 100), "Y": (90, 100), "Z": (1, 1)})    # |r| = 0.074
    def test_matches_jacobi_reference(self, tallies):
        r, rho, direction = estimate_qubit(tallies)
        # The reference eigenvectors are only as accurate as eps / |r|, the
        # inverse eigenvalue gap, so the bound needs |r| away from 0.
        assume(np.linalg.norm(r) >= 0.05)
        reference = jacobi_smolin_project(density_from_bloch(r))
        _, vectors = jacobi.eig_hermitian(reference)
        assert max_abs(rho - reference) <= 1e-14
        assert max_abs(direction - state_to_bloch(vectors[:, 0])) <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(tallies=_tallies)
    def test_raw_vector_is_counts_or_mitigated_frequencies(self, tallies):
        cal = np.array([[0.93, 0.05], [0.07, 0.95]])
        r, _, _ = estimate_qubit(tallies)
        r_mitigated, _, _ = estimate_qubit(tallies, cal)
        for k, basis in enumerate("XYZ"):
            n0, n1 = tallies[basis]
            assert r[k] == (n0 - n1) / (n0 + n1)
            p = mitigate_frequencies(np.array([n0, n1]) / (n0 + n1), cal)
            assert r_mitigated[k] == p[0] - p[1]

    @pytest.mark.parametrize("cal", [None, [[0.9, 0.1], [0.1, 0.9]]])
    def test_zero_vector_has_no_direction(self, cal):
        r, rho, direction = estimate_qubit({basis: (50, 50) for basis in "XYZ"}, cal)
        assert np.linalg.norm(r) < MIN_BLOCH_NORM
        assert direction is None
        assert max_abs(rho - np.eye(2) / 2.0) <= 1e-15

    def test_empty_basis_rejected(self):
        with pytest.raises(DomainError):
            estimate_qubit({"X": (0, 0), "Y": (3, 1), "Z": (2, 2)})


def even_sample(circuit, basis, shots, noise=None, seed=0, *, checkpoints=()):
    """Stand-in for ``sample``: the calibration's prepare-and-measure runs
    (no gate, or one X) read back through an exact symmetric 10% flip, every
    other circuit gives equal counts of 0 and 1 in every basis."""
    kinds = tuple(op.kind for op in circuit.ops)
    ones = {(): shots // 10, ("X",): shots - shots // 10}.get(kinds, shots // 2)
    return ShotResult(tuple(basis), [shots - ones, ones], shots)


class TestZeroEstimate:
    @pytest.mark.parametrize("mitigate", [False, True])
    def test_state_tomography_raises(self, monkeypatch, mitigate):
        monkeypatch.setattr(tomography, "sample", even_sample)
        with pytest.raises(NumericError):
            state_tomography(Circuit(1, (GateOp("H", 0),)), shots=1000, mitigate=mitigate)

    @pytest.mark.parametrize("mitigate", [False, True])
    def test_cli_exits_4(self, monkeypatch, capsys, mitigate):
        monkeypatch.setattr(tomography, "sample", even_sample)
        argv = ["rotate", "--axis", "0,0,1", "--angle", "1", "--vector", "1,0,0",
                "--shots", "1000"] + (["--mitigate"] if mitigate else [])
        assert main(argv) == 4
        assert "no direction" in capsys.readouterr().err


class TestSharedCore:
    """Every tomography draw goes through ``_grid_counts``: a circuit with n
    control qubits is drawn at shots * 2**n per basis, its readout
    calibration at shots per run."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def recording_sample(circuit, basis, shots, noise=None, seed=0, *, checkpoints=()):
            calls.append((circuit.num_qubits, shots, tuple(checkpoints)))
            return sample(circuit, basis, shots, noise, seed, checkpoints=checkpoints)

        monkeypatch.setattr(tomography, "sample", recording_sample)
        return calls

    def test_batched_extraction(self, calls, worked_spec):
        plan = MultiRotationPlan(VectorBatch(np.tile([0.0, 0.0, 1.0], (5, 1))), worked_spec)
        out = extract_all(plan, 200, NoiseModel(readout_flip=0.02), seed=3, mitigate=True)
        assert len(out) == 5
        # two calibration runs at 200 shots, then X, Y, Z over 3 controls at 200 * 8
        assert calls == [(1, 200, (200,))] * 2 + [(4, 1600, (1600,))] * 3

    def test_batched_extraction_rejects_few_shots_before_drawing(self, calls, worked_spec):
        plan = MultiRotationPlan(VectorBatch(np.tile([0.0, 0.0, 1.0], (5, 1))), worked_spec)
        with pytest.raises(DomainError):
            extract_all(plan, 50)
        assert calls == []

    def test_two_qubit_state_reads_qubit_0_marginal(self, calls):
        circuit = Circuit(2, (GateOp("H", 1), GateOp("RY", 0, 0.7)))
        result = state_tomography(circuit, shots=500, seed=5)
        assert calls == [(2, 1000, (1000,))] * 3
        for label, res in result.counts.items():
            assert res.shots == 1000
            assert result.expectations[label] == expectation_from_counts(res, 0)
        expected = [math.sin(0.7), 0.0, math.cos(0.7)]
        assert math.degrees(angle_between(result.bloch, expected)) < 10.0


class TestStateTomography:
    def test_ground_state(self):
        result = state_tomography(Circuit(1, ()), shots=20000, seed=1)
        assert np.max(np.abs(result.bloch - np.array([0.0, 0.0, 1.0]))) <= 0.05
        values, _ = eig_hermitian(result.density)
        assert np.all(values >= -1e-12)
        assert abs(np.trace(result.density).real - 1.0) <= 1e-9

    def test_overlong_bloch_vector_is_projected(self):
        # noiseless |0> gives <Z> = 1 exactly while <X>, <Y> carry shot noise,
        # so the raw estimate always leaves the Bloch ball
        result = state_tomography(Circuit(1, ()), shots=20000, seed=2)
        norm = np.linalg.norm([result.expectations[b] for b in "XYZ"])
        assert norm > 1.0
        values, _ = eig_hermitian(result.density)
        assert np.all(values >= -1e-12)

    def test_worked_example_within_a_degree(self, worked_spec):
        result = state_tomography(rotation_circuit(WORKED_VECTOR, worked_spec),
                                  shots=20000, seed=3)
        assert math.degrees(angle_between(result.bloch, WORKED_ROTATED)) < 1.0

    def test_too_few_shots_rejected(self):
        with pytest.raises(DomainError):
            state_tomography(Circuit(1, ()), shots=50)

    def test_mitigation_corrects_readout_bias(self):
        noise = NoiseModel(readout_flip=0.08)
        raw = state_tomography(Circuit(1, ()), shots=20000, noise=noise, seed=4)
        fixed = state_tomography(Circuit(1, ()), shots=20000, noise=noise, seed=4,
                                 mitigate=True)
        assert abs(raw.expectations["Z"] - 0.84) < 0.03   # (1 - 2*0.08)
        assert abs(fixed.expectations["Z"] - 1.0) < 0.03


class TestProcessTomography:
    def test_identity_circuit_dominant_kraus(self):
        spec = RotationSpec(np.array([0.0, 0.0, 1.0]), 0.0)
        result = process_tomography(spec, shots=20000, seed=5)
        k0 = align_global_phase(np.eye(2), result.kraus.operators[0])
        assert max_abs(k0 - np.eye(2)) <= 0.05
        assert not result.degenerate

    def test_exact_reconstruction_is_rank_one_and_unitary(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            u = axis_rotation_unitary(random_spec(rng))
            result = process_tomography_exact(u)
            assert result.kraus.weights[0] == pytest.approx(2.0, abs=1e-10)
            assert max(result.kraus.weights[1:]) <= 1e-10
            k = result.kraus.operators[0]
            assert max_abs(dagger(k) @ k - np.eye(2)) <= 1e-10
            assert max_abs(k @ dagger(k) - np.eye(2)) <= 1e-10
            assert gate_fidelity(u, result.unitary) >= 1.0 - 1e-10

    def test_sampled_worked_example_high_fidelity(self, worked_spec):
        result = process_tomography(worked_spec, shots=1000, seed=6)
        fid = gate_fidelity(axis_rotation_unitary(worked_spec), result.unitary)
        assert fid >= 0.99

    def test_kraus_completeness_at_high_shots(self, worked_spec):
        result = process_tomography(worked_spec, shots=20000, seed=7)
        assert result.kraus.completeness_error() <= 0.05

    def test_choi_is_physical_after_projection(self, worked_spec):
        result = process_tomography(worked_spec, shots=500, seed=8)
        values, _ = eig_hermitian(result.choi)
        assert np.all(values >= -1e-10)
        assert abs(np.trace(result.choi).real - 2.0) <= 1e-9

    def test_degenerate_channel_flagged(self):
        # the even mixture of identity and X has Choi eigenvalues (1, 1, 0, 0)
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        outputs = {}
        for label, psi in (("0", np.array([1.0, 0.0], dtype=complex)),
                           ("1", np.array([0.0, 1.0], dtype=complex)),
                           ("+", plus),
                           ("+i", np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0))):
            rho = np.outer(psi, psi.conj())
            outputs[label] = (rho + x @ rho @ x) / 2.0
        result = _reconstruct_process(outputs)
        assert result.degenerate

    def test_too_few_shots_rejected(self, worked_spec):
        with pytest.raises(DomainError):
            process_tomography(worked_spec, shots=10)

    def test_non_unitary_rejected_in_exact_path(self):
        with pytest.raises(DomainError):
            process_tomography_exact(np.array([[1.0, 0.2], [0.0, 1.0]]))


class TestGateFidelity:
    def test_self_fidelity(self, worked_spec):
        u = axis_rotation_unitary(worked_spec)
        assert gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-14)

    def test_phase_invariance(self, worked_spec):
        u = axis_rotation_unitary(worked_spec)
        assert gate_fidelity(u, np.exp(0.9j) * u) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_gates(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert gate_fidelity(np.eye(2), x) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gate_fidelity(np.eye(2), np.eye(3))

    def test_non_unitary_rejected(self):
        with pytest.raises(DomainError):
            gate_fidelity(np.eye(2), 0.5 * np.eye(2))


class TestErpFromTomography:
    def test_worked_example(self, worked_spec):
        p = erp_from_tomography(worked_spec, shots=20000, seed=9)
        for got, want in zip(p, (0.7071, 0.5774, 0.2887, 0.2887)):
            assert abs(got - want) <= 0.02

    def test_identity_rotation(self):
        spec = RotationSpec(np.array([0.0, 0.0, 1.0]), 0.0)
        p = erp_from_tomography(spec, shots=20000, seed=10)
        for got, want in zip(p, (1.0, 0.0, 0.0, 0.0)):
            assert abs(got - want) <= 0.02

    def test_half_turn_about_z(self):
        spec = RotationSpec(np.array([0.0, 0.0, 1.0]), math.pi)
        p = erp_from_tomography(spec, shots=20000, seed=11)
        assert abs(p.a) <= 0.02
        assert abs(p.b) <= 0.02
        assert abs(p.c) <= 0.02
        assert abs(abs(p.d) - 1.0) <= 0.02


class TestCalibration:
    def test_noiseless_is_identity(self):
        cal = calibrate_readout(None, shots=20000, seed=12)
        assert np.array_equal(cal, np.eye(2))

    def test_symmetric_flip_channel(self):
        shots = 20000
        cal = calibrate_readout(NoiseModel(readout_flip=0.1), shots, seed=13)
        band = 5.0 * math.sqrt(0.1 * 0.9 / shots)
        assert max_abs(cal - np.array([[0.9, 0.1], [0.1, 0.9]])) <= band

    def test_fully_random_readout(self):
        shots = 20000
        cal = calibrate_readout(NoiseModel(readout_flip=0.5), shots, seed=14)
        assert max_abs(cal - 0.5) <= 5.0 * math.sqrt(0.25 / shots)

    def test_columns_sum_to_one(self):
        cal = calibrate_readout(NoiseModel(readout_flip=0.2), 5000, seed=15)
        assert cal.shape == (2, 2)
        assert np.allclose(cal.sum(axis=0), 1.0, atol=1e-12)


class TestMitigation:
    def test_identity_calibration_passthrough(self):
        freqs = np.array([0.7, 0.3])
        assert np.allclose(mitigate_frequencies(freqs, np.eye(2)), freqs, atol=1e-12)

    def test_exact_linear_solve(self):
        cal = np.array([[0.9, 0.1], [0.1, 0.9]])
        p = mitigate_frequencies(np.array([0.82, 0.18]), cal)
        assert np.allclose(p, [0.9, 0.1], atol=1e-10)

    def test_calibration_column_maps_to_basis_vector(self):
        cal = np.array([[0.85, 0.07], [0.15, 0.93]])
        p = mitigate_frequencies(cal[:, 1].copy(), cal)
        assert np.allclose(p, [0.0, 1.0], atol=1e-10)

    def test_output_is_normalized_and_nonnegative(self):
        cal = np.array([[0.9, 0.1], [0.1, 0.9]])
        p = mitigate_frequencies(np.array([0.99, 0.01]), cal)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_singular_calibration_rejected(self):
        with pytest.raises(NumericError):
            mitigate_frequencies(np.array([0.5, 0.5]),
                                 np.array([[0.5, 0.5], [0.5, 0.5]]))
        # nonsingular, but with condition number 2e9 > 1e8
        with pytest.raises(NumericError):
            mitigate_frequencies(np.array([0.5, 0.5]),
                                 np.array([[0.5, 0.5 - 5e-10], [0.5, 0.5 + 5e-10]]))

    @pytest.mark.parametrize("freqs, cal", [
        ([math.nan, 0.5], np.eye(2)),
        ([0.5, 0.5], [[0.9, math.nan], [0.1, 0.9]]),
        ([math.inf, 0.5], np.eye(2)),
    ])
    def test_non_finite_input_rejected(self, freqs, cal):
        with pytest.raises(DomainError):
            mitigate_frequencies(np.array(freqs), np.array(cal))

    def test_mitigate_counts_wrapper(self):
        result = ShotResult(("Z",), [820, 180], 1000)
        p = mitigate_counts(result, np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert np.allclose(p, [0.9, 0.1], atol=1e-10)

    def test_two_qubit_calibration_rejected(self):
        with pytest.raises(ShapeError):
            mitigate_frequencies(np.full(4, 0.25), np.eye(4))

    def test_both_unconstrained_parts_negative(self):
        # Only inputs with negative entries make both parts of the unconstrained
        # solve negative (-6, -5 here), where clipping it is not the nonnegative
        # least squares minimum; such inputs are rejected.
        cal = np.array([[1.0, -1.0], [0.0, 0.1]])
        with pytest.raises(DomainError):
            mitigate_frequencies(np.array([-1.0, -0.5]), cal)
        with pytest.raises(DomainError):
            mitigate_frequencies(np.array([0.5, 0.5]), cal)
        with pytest.raises(DomainError):
            mitigate_frequencies(np.array([1.1, -0.1]), np.eye(2))

    # Column-stochastic calibrations [[1 - e0, e1], [e0, 1 - e1]] with
    # det = 1 - e0 - e1 drawn on a log scale, so cond reaches 1e8.
    @settings(max_examples=500, deadline=None)
    @given(e0=st.floats(0.0, 1.0), log_det=st.floats(-8.0, 0.0),
           sign=st.sampled_from([1.0, -1.0]), q=st.floats(0.0, 1.0))
    @example(e0=0.1, log_det=math.log10(0.8), sign=1.0, q=0.99)   # p1 < 0 unconstrained
    @example(e0=0.1, log_det=math.log10(0.8), sign=1.0, q=0.01)   # p0 < 0 unconstrained
    @example(e0=0.6, log_det=math.log10(0.3), sign=-1.0, q=0.9)   # swapped columns, p0 < 0
    @example(e0=0.6, log_det=math.log10(0.3), sign=-1.0, q=0.2)   # swapped columns, p1 < 0
    def test_matches_scipy_nnls(self, e0, log_det, sign, q):
        e1 = 1.0 - e0 - sign * 10.0 ** log_det
        assume(0.0 <= e1 <= 1.0)
        cal = np.array([[1.0 - e0, e1], [e0, 1.0 - e1]])
        cond = np.linalg.cond(cal)
        # Stay clear of the 1e8 rejection threshold, where the two condition
        # number formulas may round to opposite sides.
        assume(cond <= 0.999e8)
        freqs = np.array([q, 1.0 - q])
        reference, _ = nnls(cal, freqs)
        reference = np.clip(reference, 0.0, None)
        reference /= reference.sum()
        assert max_abs(mitigate_frequencies(freqs, cal) - reference) <= 1e-15 * cond
