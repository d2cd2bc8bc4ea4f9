import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls

from qrot import (Circuit, DomainError, GateOp, NoiseModel, NumericError,
                  RotationSpec, ShapeError, axis_rotation_unitary,
                  calibrate_readout, dagger, eig_hermitian, erp_from_tomography,
                  gate_fidelity, mitigate_frequencies, process_tomography,
                  smolin_project, state_tomography)
from qrot import apply, tomography, zero_state
from qrot.bloch import angle_between
from qrot.cli import main
from qrot.rotation import gate_ry, gate_rz
from qrot.tomography import (MIN_BLOCH_NORM, _bloch_vectors, _directed_estimates,
                             _floor_spectrum, _process_result, _reconstruct_process,
                             _state_counts, _state_estimates, density_from_bloch)
from qrot.experiments import NOISE_PRESETS, rotation_circuit, sweep_records
from qrot.multirot import VectorBatch, extract_all, full_circuit, index_estimate
from qrot.rotation import rodrigues_rotate
from qrot.simulator import _distributions, _sample_rows, derive_seed, sample

from conftest import WORKED_ROTATED, WORKED_VECTOR, random_spec
from oracles import (PREP_STATES, align_global_phase, expectation_from_counts,
                     process_tomography_exact, state_to_bloch)

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

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2), (2,)], ids=["non-square", "3-d", "1-d"])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ShapeError, match="square matrix"):
            smolin_project(np.ones(shape))


# (n0, n1) per basis X, Y, Z; r = (n0 - n1)/N reaches |r| = sqrt(3), so both
# the inside and the outside of the unit ball are drawn.
_tally = st.tuples(st.integers(0, 5000), st.integers(0, 5000)).filter(lambda t: sum(t) > 0)
_tallies = st.tuples(_tally, _tally, _tally).map(np.array)


def one_tally_estimate(tally, cal=None):
    """(r, rho, direction) of one (3, 2) tally: r from ``_state_estimates``,
    rho the projected state of Bloch vector r / max(1, |r|), and the
    direction r/|r| that ``index_estimate`` reads back (None below
    MIN_BLOCH_NORM)."""
    r, norm = _state_estimates(tally, cal)
    return r, density_from_bloch(r / max(1.0, norm)), index_estimate(1, tally, cal).vector


class TestOneTallyEstimate:
    @settings(max_examples=300, deadline=None)
    @given(tallies=_tallies)
    @example(tallies=np.array([(60, 40), (50, 50), (70, 30)]))    # |r| < 1
    @example(tallies=np.array([(100, 0), (100, 0), (0, 100)]))    # |r| = sqrt(3)
    @example(tallies=np.array([(90, 100), (90, 100), (1, 1)]))    # |r| = 0.074
    def test_matches_jacobi_reference(self, tallies):
        r, rho, direction = one_tally_estimate(tallies)
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
        r, _, _ = one_tally_estimate(tallies)
        r_mitigated, _, _ = one_tally_estimate(tallies, cal)
        for k, (n0, n1) in enumerate(tallies):
            assert r[k] == (n0 - n1) / (n0 + n1)
            p = mitigate_frequencies(np.array([n0, n1]) / (n0 + n1), cal)
            assert r_mitigated[k] == p[0] - p[1]

    @pytest.mark.parametrize("cal", [None, [[0.9, 0.1], [0.1, 0.9]]])
    def test_zero_vector_has_no_direction(self, cal):
        r, rho, direction = one_tally_estimate(np.full((3, 2), 50), cal)
        assert np.linalg.norm(r) < MIN_BLOCH_NORM
        assert direction is None
        assert max_abs(rho - np.eye(2) / 2.0) <= 1e-15

    def test_empty_basis_rejected(self):
        with pytest.raises(DomainError):
            one_tally_estimate(np.array([(0, 0), (3, 1), (2, 2)]))

    @pytest.mark.parametrize("estimate", [_state_estimates, lambda t: index_estimate(1, t)],
                             ids=["state_estimates", "index_estimate"])
    @pytest.mark.parametrize("tally, error", [
        (np.full((2, 2), 50), ShapeError),
        (np.full(6, 50), ShapeError),
        (np.full((3, 2), 50.0), DomainError),
        (np.full((3, 2), True), DomainError),
        (np.array([(60, 40), (51, -1), (70, 30)]), DomainError),
    ], ids=["two-bases", "flat", "float", "bool", "negative"])
    def test_malformed_tally_rejected(self, estimate, tally, error):
        # A (2, 2) tally used to reach density_from_bloch as an IndexError;
        # float and negative tallies were estimated silently.
        with pytest.raises(error):
            estimate(tally)


class TestFloorSpectrum:
    # Multiples of 12, so that every deficit share acc / (i + 1) is an integer
    # and the arithmetic, the sum included, is exact.
    @pytest.mark.parametrize("spectrum, expected", [
        ([12, 6, 3, 3], [12, 6, 3, 3]),
        ([18, 6, 3, -3], [17, 5, 2, 0]),
        ([24, 6, -3, -3], [21, 3, 0, 0]),
        ([30, 0, -3, -3], [24, 0, 0, 0]),
    ], ids=["none-floored", "one-floored", "two-floored", "three-floored"])
    def test_floored_spectra(self, spectrum, expected):
        # each spectrum as the last row of a stack whose other rows differ
        stack = np.array([[24, 12, -6, -6], [12, 12, 0, 0], spectrum], dtype=float)
        out = _floor_spectrum(stack)
        assert out[-1].tolist() == expected
        assert out[-1].sum() == stack[-1].sum()
        for k, spectrum in enumerate(stack):
            assert np.array_equal(out[k], _floor_spectrum(spectrum))

    @settings(max_examples=300, deadline=None)
    @given(values=st.integers(1, 8).flatmap(
        lambda count: st.sampled_from([2, 4]).flatmap(
            lambda k: arrays(np.int64, (count, k), elements=st.integers(-40, 40)))))
    def test_rows_equal_one_point_calls(self, values):
        spectra = -np.sort(-values, axis=1)
        spectra[:, 0] += np.maximum(0, -spectra.sum(axis=1)) + 1   # positive total
        spectra = 12.0 * spectra
        out = _floor_spectrum(spectra)
        for k, spectrum in enumerate(spectra):
            assert np.array_equal(out[k], _floor_spectrum(spectrum))
        assert np.array_equal(out.sum(axis=1), spectra.sum(axis=1))
        assert np.all(out >= 0.0)


def column_stochastic(errors):
    """Calibrations [[1 - e0, e1], [e0, 1 - e1]], one per row (e0, e1)."""
    return np.array([[[1.0 - e0, e1], [e0, 1.0 - e1]] for e0, e1 in errors])


class TestStackedEstimates:
    @settings(max_examples=200, deadline=None)
    @given(tallies=st.lists(_tallies, min_size=1, max_size=8).map(np.array),
           mitigate=st.booleans(), data=st.data())
    def test_rows_equal_one_point_calls(self, tallies, mitigate, data):
        cal = None
        if mitigate:
            cal = column_stochastic(data.draw(
                arrays(np.float64, (len(tallies), 2), elements=st.floats(0.0, 0.3))))
        r, norm = _state_estimates(tallies, cal)
        rho = density_from_bloch(r / np.maximum(1.0, norm)[:, None])
        for k, tally in enumerate(tallies):
            one_r, one_rho, direction = one_tally_estimate(tally, None if cal is None else cal[k])
            assert np.array_equal(r[k], one_r)
            assert np.array_equal(rho[k], one_rho)
            assert (direction is None) == (norm[k] < MIN_BLOCH_NORM)


def expected_pairs(circuit, noise):
    """The exact (n0, n1) frequencies of every control branch of ``circuit``
    with qubit 0 read in X, Y and Z and the controls in Z, as the
    (2**n, 3, 2) table ``_bloch_vectors`` takes: ``simulator._distributions``
    of its three rows."""
    n = circuit.num_qubits - 1
    dists = _distributions([(circuit, (label,) + ("Z",) * n) for label in "XYZ"], noise)
    return dists.reshape(3, 2**n, 2).transpose(1, 0, 2)


def random_batch_circuit(count, seed):
    """(circuit, oracle vectors) of a random batch of ``count`` unit vectors
    under a random rotation."""
    rng = np.random.default_rng(seed)
    spec = random_spec(rng)
    v = rng.normal(size=(count, 3))
    batch = VectorBatch(v / np.linalg.norm(v, axis=1, keepdims=True))
    return full_circuit(batch, spec), rodrigues_rotate(spec, batch.vectors)


class TestInfiniteShotEstimate:
    """``_bloch_vectors`` of the exact outcome frequencies is the estimate at
    infinitely many shots: the same core that reads counts."""

    @pytest.mark.parametrize("count, seed", [(1, 1), (2, 2), (16, 3), (64, 4)])
    def test_noiseless_estimate_is_the_oracle(self, count, seed):
        circuit, oracle = random_batch_circuit(count, seed)
        r = _bloch_vectors(expected_pairs(circuit, NoiseModel()))
        assert max_abs(r[:count] - oracle) <= 1e-12

    def test_sampled_mean_converges_to_it(self):
        # 16 vectors under nisq-lite: the raw unmitigated estimate of each
        # branch is an unbiased mean of its shots, so over 40 seeds its mean
        # lies within 5 standard errors of the exact value.
        circuit, _ = random_batch_circuit(16, 5)
        noise = NOISE_PRESETS["nisq-lite"]
        exact = _bloch_vectors(expected_pairs(circuit, noise))[:16]
        sampled = np.array([_bloch_vectors(_state_counts([(circuit, seed)], [2000], noise,
                                                         False)[1][0, :16])
                            for seed in range(40)])
        se = sampled.std(axis=0, ddof=1) / math.sqrt(len(sampled))
        assert np.all(np.abs(sampled.mean(axis=0) - exact) <= 5.0 * se)

    def test_float_pairs_are_estimated_and_empty_ones_named(self):
        pairs = np.array([[0.75, 0.25], [0.5, 0.5], [0.125, 0.875]])
        cal = np.array([[0.93, 0.05], [0.07, 0.95]])
        assert _bloch_vectors(pairs).tolist() == [0.5, 0.0, -0.75]
        mitigated = [p[0] - p[1] for p in (mitigate_frequencies(f, cal) for f in pairs)]
        assert _bloch_vectors(pairs, cal).tolist() == mitigated
        pairs[1] = 0.0
        with pytest.raises(DomainError, match="no samples in basis Y"):
            _bloch_vectors(pairs)


def raises_as(error, call, *args):
    """The exception ``call(*args)`` raises, which must be an ``error``."""
    with pytest.raises(error) as caught:
        call(*args)
    return type(caught.value), str(caught.value)


def even_until(limit):
    """Stand-in for ``_sample_rows`` on one-qubit circuits: the first
    ``limit`` shots split evenly between 0 and 1 and every later shot reads
    0, in every row, so a checkpoint of at most ``limit`` (even) shots has a
    zero Bloch vector and every later one a nonzero vector."""
    def hist(s):
        half = min(s, limit) // 2
        return [s - half, half]

    def fake(rows, shots, noise=None, checkpoints=()):
        stops = sorted({*checkpoints, shots})
        return np.array([[hist(s) for s in stops] for _ in rows])
    return fake


class TestStackErrors:
    """A stack with one bad row raises the exception, class and message, of
    the one-point call on that row."""

    def test_empty_basis(self):
        tallies = np.array([[(5, 5), (3, 1), (2, 2)],
                            [(5, 5), (0, 0), (2, 2)],
                            [(0, 0), (0, 0), (1, 1)]])
        alone = raises_as(DomainError, _state_estimates, tallies[1])
        assert alone == (DomainError, "no samples in basis Y")
        assert raises_as(DomainError, _bloch_vectors, tallies) == alone
        assert raises_as(DomainError, _state_estimates, tallies) == alone

    def test_singular_kraus_operator(self):
        # A unitary channel, then the reset to |0>: every output is |0><0|, the
        # Choi matrix is diag(1, 0, 1, 0) and each dominant Kraus operator,
        # |0><0| or |0><1|, is singular.
        reset = np.diag([1.0, 0.0]).astype(complex)
        outputs = np.array([[np.outer(psi, psi.conj()) for psi in PREP_STATES],
                            [reset] * 4])
        alone = raises_as(NumericError, _reconstruct_process, outputs[1:])
        assert raises_as(NumericError, _reconstruct_process, outputs) == alone

    def test_bloch_vector_below_min_norm(self, monkeypatch):
        monkeypatch.setattr(tomography, "_sample_rows", even_until(200))
        circuit = Circuit(1, ())
        alone = raises_as(NumericError, state_tomography, circuit, 200)
        assert "MIN_BLOCH_NORM" in alone[1]
        cal, counts = _state_counts([(circuit, 0)], [400, 200, 800], None, False)
        assert raises_as(NumericError, _directed_estimates, counts.sum(axis=1), cal) == alone
        assert state_tomography(circuit, 400).expectations == {"X": 0.5, "Y": 0.5, "Z": 0.5}

    def test_sweep_raises_before_any_record(self, monkeypatch):
        monkeypatch.setattr(tomography, "_sample_rows", even_until(200))
        with pytest.raises(NumericError):
            sweep_records(["noiseless"], 2, [400, 200, 800])


def even_rows(rows, shots, noise=None, checkpoints=()):
    """Stand-in for ``_sample_rows``: the calibration's prepare-and-measure
    runs (no gate, or one X) read back through an exact symmetric 10% flip,
    every other circuit spreads its shots evenly over its outcomes in every
    basis, so each control branch reads equal counts of 0 and 1."""
    def hist(circuit, basis, s):
        kinds = tuple(op.kind for op in circuit.ops)
        dim = 1 << len(basis)
        ones = {(): s // 10, ("X",): s - s // 10}.get(kinds)
        if ones is not None:
            return [s - ones, ones]
        return [s - s // dim * (dim - 1)] + [s // dim] * (dim - 1)

    stops = sorted({*checkpoints, shots})
    return np.array([[hist(circuit, basis, s) for s in stops] for circuit, basis, _ in rows])


class TestZeroEstimate:
    @pytest.mark.parametrize("mitigate", [False, True])
    def test_state_tomography_raises(self, monkeypatch, mitigate):
        monkeypatch.setattr(tomography, "_sample_rows", even_rows)
        with pytest.raises(NumericError):
            state_tomography(Circuit(1, (GateOp("H", 0),)), shots=1000, mitigate=mitigate)

    @pytest.mark.parametrize("mitigate", [False, True])
    def test_cli_exits_4(self, monkeypatch, capsys, mitigate):
        monkeypatch.setattr(tomography, "_sample_rows", even_rows)
        argv = ["rotate", "--axis", "0,0,1", "--angle", "1", "--vector", "1,0,0",
                "--shots", "1000"] + (["--mitigate"] if mitigate else [])
        assert main(argv) == 4
        assert "no direction" in capsys.readouterr().err

    @pytest.mark.parametrize("mitigate", [False, True])
    def test_cli_multi_reports_failed(self, monkeypatch, capsys, tmp_path, mitigate):
        # multi reports a direction-less index and carries on with the rest
        monkeypatch.setattr(tomography, "_sample_rows", even_rows)
        path = tmp_path / "vectors.json"
        path.write_text("[[0, 0, 1], [1, 0, 0]]")
        argv = ["multi", "--vectors", str(path), "--axis", "0,0,1", "--angle", "1",
                "--shots", "500"] + (["--mitigate"] if mitigate else [])
        assert main(argv) == 0
        out = capsys.readouterr().out
        for index in (1, 2):
            assert f"#{index}: FAILED (estimated Bloch vector has no direction)\n" in out


class TestSharedCore:
    """Every tomography draw goes through ``_grid_counts``: a circuit with n
    control qubits is drawn at shots * 2**n per basis, its readout
    calibration at shots per run."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def recording_rows(rows, shots, noise=None, checkpoints=()):
            calls.extend((circuit.num_qubits, shots, tuple(checkpoints)) for circuit, _, _ in rows)
            return _sample_rows(rows, shots, noise, checkpoints)

        monkeypatch.setattr(tomography, "_sample_rows", recording_rows)
        return calls

    def test_batched_extraction(self, calls, worked_spec):
        batch = VectorBatch(np.tile([0.0, 0.0, 1.0], (5, 1)))
        out = extract_all(batch, worked_spec, 200, NoiseModel(readout_flip=0.02), seed=3,
                          mitigate=True)
        assert len(out) == 5
        # two calibration runs at 200 shots, then X, Y, Z over 3 controls at 200 * 8
        assert calls == [(1, 200, (200,))] * 2 + [(4, 1600, (1600,))] * 3

    def test_batched_extraction_rejects_few_shots_before_drawing(self, calls, worked_spec):
        with pytest.raises(DomainError):
            extract_all(VectorBatch(np.tile([0.0, 0.0, 1.0], (5, 1))), worked_spec, 50)
        assert calls == []

    @pytest.mark.parametrize("backend, mitigate", [("noiseless", False), ("nisq-lite", True)])
    def test_sweep_draws_every_trial_of_a_backend_at_once(self, monkeypatch, backend, mitigate):
        # one call per draw of the backend, whatever its trial count: the
        # process data, then the state data, each after its calibration runs
        sizes = []

        def recording_rows(rows, shots, noise=None, checkpoints=()):
            sizes.append(len(rows))
            return _sample_rows(rows, shots, noise, checkpoints)

        monkeypatch.setattr(tomography, "_sample_rows", recording_rows)
        for trials in (1, 5):
            sizes.clear()
            sweep_records([backend], trials, [200, 400], seed=6, mitigate=mitigate)
            per_trial = [2, 4 * 3, 2, 3] if mitigate else [4 * 3, 3]
            assert sizes == [trials * rows for rows in per_trial]

    @pytest.mark.parametrize("jobs, circuits, n, top, mitigate, words", [
        # a sweep at its record cap with the default shots: 4,096 trials of
        # 4 process circuits in 3 bases
        (4096, 4, 0, 20000, False, 983_040_000),
        # a 2,048-vector multi at 20,000 shots per vector
        (1, 1, 11, 20000, False, 122_880_000),
        # 2 circuits in 3 bases and 2 calibration runs of 2**27 shots
        (1, 2, 0, 2**27, True, 2**30),
        (1, 2, 0, 2**27 + 1, True, 2**30 + 8)])
    def test_draw_bound_counts_data_and_calibration(self, monkeypatch, jobs, circuits, n, top,
                                                    mitigate, words):
        class Drawn(Exception):
            pass

        drawn = []

        def first_draw(rows, shots, noise=None, checkpoints=()):
            drawn.append(len(rows) * shots)
            raise Drawn

        monkeypatch.setattr(tomography, "_sample_rows", first_draw)
        circuit = Circuit(n + 1)
        job_list = [(j, [(circuit, k) for k in range(circuits)]) for j in range(jobs)]
        calibration = 2 * jobs * top if mitigate else 0
        assert words == jobs * circuits * 3 * top * 2**n + calibration
        if words <= tomography.MAX_DRAW_WORDS:
            with pytest.raises(Drawn):
                tomography._grid_counts(job_list, [top], NoiseModel(), mitigate)
            assert drawn == [calibration or words]
        else:
            with pytest.raises(DomainError, match=f"would draw {words} shots"):
                tomography._grid_counts(job_list, [top], NoiseModel(), mitigate)
            assert drawn == []

    def test_two_qubit_state_reads_qubit_0_marginal(self, calls):
        circuit = Circuit(2, (GateOp("H", 1), GateOp("RY", 0, 0.7)))
        result = state_tomography(circuit, shots=500, seed=5)
        assert calls == [(2, 1000, (1000,))] * 3
        assert result.counts.shape == (2, 3, 2)
        for bi, label in enumerate("XYZ"):
            res = sample(circuit, (label, "Z"), 1000, seed=derive_seed(5, bi))
            assert result.counts[:, bi].tolist() == res[-1].reshape(-1, 2).tolist()
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


# Each spanning input state by its label, written out independently of
# tomography's own tables.
_INPUT_STATES = {
    "0": [1.0, 0.0],
    "1": [0.0, 1.0],
    "+": [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
    "+i": [1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0)],
}


@pytest.mark.parametrize("k, label", enumerate(tomography.PREP_LABELS),
                         ids=tomography.PREP_LABELS)
def test_preparation_ops_make_their_states(k, label):
    # The preparations are paired with their states by position only.
    assert len(tomography._PREP_OPS) == len(PREP_STATES) == 4
    state = apply(Circuit(1, tomography._PREP_OPS[k]), zero_state(1))
    psi = PREP_STATES[k]
    assert psi.dtype == complex
    assert max_abs(psi - _INPUT_STATES[label]) <= 1e-15
    phase = np.vdot(psi, state)
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert max_abs(state - phase * psi) <= 1e-12


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
        outputs = []
        for psi in (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex),
                    plus, np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)):
            rho = np.outer(psi, psi.conj())
            outputs.append((rho + x @ rho @ x) / 2.0)
        result = _process_result(np.array([outputs]))
        assert result.degenerate

    def test_too_few_shots_rejected(self, worked_spec):
        with pytest.raises(DomainError):
            process_tomography(worked_spec, shots=10)

    def test_non_unitary_rejected_in_exact_path(self):
        with pytest.raises(DomainError):
            process_tomography_exact(np.array([[1.0, 0.2], [0.0, 1.0]]))

    @pytest.mark.parametrize("u", [np.eye(4), np.eye(2)[None], np.ones(4)],
                             ids=["4x4", "3-d", "flat"])
    def test_wrong_shape_rejected_in_exact_path(self, u):
        with pytest.raises(ShapeError, match="2x2 matrix"):
            process_tomography_exact(u)


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

    def test_all_zero_result_rejected(self):
        with pytest.raises(NumericError, match="all-zero probability vector"):
            mitigate_frequencies(np.array([0.0, 0.0]), np.array([[0.9, 0.1], [0.1, 0.9]]))

    @pytest.mark.parametrize("freqs, cal", [
        ([math.nan, 0.5], np.eye(2)),
        ([0.5, 0.5], [[0.9, math.nan], [0.1, 0.9]]),
        ([math.inf, 0.5], np.eye(2)),
    ])
    def test_non_finite_input_rejected(self, freqs, cal):
        with pytest.raises(DomainError):
            mitigate_frequencies(np.array(freqs), np.array(cal))

    def test_two_qubit_calibration_rejected(self):
        with pytest.raises(ShapeError):
            mitigate_frequencies(np.full(4, 0.25), np.eye(4))

    @pytest.mark.parametrize("freqs", [[1.0], [0.5, 0.3, 0.2]], ids=["one", "three"])
    def test_wrong_frequency_count_rejected(self, freqs):
        with pytest.raises(ShapeError, match="2 outcome frequencies"):
            mitigate_frequencies(np.array(freqs), np.eye(2))

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
