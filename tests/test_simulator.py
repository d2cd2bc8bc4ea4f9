import math

import numpy as np
import pytest

from qrot import (Circuit, DomainError, GateOp, NoiseModel, NumericError,
                  ShapeError, ShotResult, apply, axis_rotation_sequence,
                  calibrate_readout, derive_seed, initialization_ops, process_tomography,
                  rodrigues_rotate, sample, state_to_bloch, zero_state)
from qrot import simulator
from qrot.rotation import gate_ry

from conftest import WORKED_ROTATED, WORKED_VECTOR
from oracles import bitstring_counts, expectation_from_counts

H = Circuit(1, (GateOp("H", 0),))


def binomial_band(shots, p, sigmas=5.0):
    return sigmas * math.sqrt(shots * p * (1.0 - p))


class TestApply:
    def test_empty_circuit(self):
        state = zero_state(2)
        assert np.array_equal(apply(Circuit(2, ()), state), state)

    def test_hadamard_pair_uniform(self):
        circuit = Circuit(2, (GateOp("H", 0), GateOp("H", 1)))
        assert np.max(np.abs(apply(circuit, zero_state(2)) - 0.5)) <= 1e-14

    def test_worked_rotation_circuit(self, worked_spec):
        ops = initialization_ops(WORKED_VECTOR) + axis_rotation_sequence(worked_spec)
        state = apply(Circuit(1, ops), zero_state(1))
        assert np.max(np.abs(state_to_bloch(state) - WORKED_ROTATED)) <= 1e-7
        oracle = rodrigues_rotate(worked_spec, WORKED_VECTOR)
        assert np.max(np.abs(state_to_bloch(state) - oracle)) <= 1e-10

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            apply(Circuit(2, ()), zero_state(1))

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            apply(Circuit(1, ()), np.array([1.0, 1.0]))

    def test_unsatisfied_control_leaves_state_unchanged(self):
        circuit = Circuit(2, (GateOp("RY", 0, 1.3, ((1, 1),)),))
        state = zero_state(2)  # control qubit 1 is |0>, trigger is 1
        assert np.array_equal(apply(circuit, state), state)

    def test_zero_trigger_control_fires_on_zero(self):
        circuit = Circuit(2, (GateOp("RY", 0, math.pi, ((1, 0),)),))
        out = apply(circuit, zero_state(2))
        expected = np.zeros(4, dtype=complex)
        expected[1] = 1.0  # data qubit flipped to |1> on the |0> control branch
        assert np.max(np.abs(out - expected)) <= 1e-14

    def test_controlled_gate_matches_dense_construction(self):
        theta = 0.77
        circuit = Circuit(2, (GateOp("RY", 0, theta, ((1, 1),)),))
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        dense = np.kron(p0, np.eye(2)) + np.kron(p1, gate_ry(theta))
        rng = np.random.default_rng(30)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        assert np.max(np.abs(apply(circuit, psi) - dense @ psi)) <= 1e-12

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(31)
        kinds = ("RX", "RY", "RZ", "H", "X")
        for n in (2, 5, 11):
            ops = []
            for _ in range(100):
                target = int(rng.integers(n))
                controls = ()
                if rng.random() < 0.3:
                    ctrl = int(rng.integers(n))
                    if ctrl != target:
                        controls = ((ctrl, int(rng.integers(2))),)
                kind = kinds[rng.integers(len(kinds))]
                theta = float(rng.uniform(-math.pi, math.pi)) if kind.startswith("R") else 0.0
                ops.append(GateOp(kind, target, theta, controls))
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            psi /= np.linalg.norm(psi)
            out = apply(Circuit(n, ops), psi)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_width_capped_at_twelve(self):
        with pytest.raises(DomainError):
            Circuit(13, ())

    @pytest.mark.parametrize("width", [2.0, True, 1.5])
    def test_non_integer_width_rejected(self, width):
        # 2.0 used to fail in sample as a TypeError, True to pass as one
        # qubit, 1.5 to fail later on the number of basis labels.
        with pytest.raises(DomainError, match="integer"):
            Circuit(width, ())

    @pytest.mark.parametrize("op", [GateOp("H", 2), GateOp("RY", 0, 0.3, ((2, 1),))],
                             ids=["target", "control"])
    def test_qubit_out_of_range_rejected(self, op):
        with pytest.raises(DomainError, match="out of range"):
            Circuit(2, (op,))


class TestGateOp:
    # Each used to pass: int() truncated the control pair to ((1, 1),), and a
    # fractional target passed Circuit and escaped sample as a TypeError.
    def test_non_integer_target_rejected(self):
        with pytest.raises(DomainError, match="integer"):
            GateOp("H", 0.5)

    def test_non_integer_control_qubit_rejected(self):
        with pytest.raises(DomainError, match="integers"):
            GateOp("RY", 0, 0.3, ((1.7, 1),))

    def test_non_integer_trigger_rejected(self):
        with pytest.raises(DomainError, match="integers"):
            GateOp("RY", 0, 0.3, ((1, 0.9),))

    @pytest.mark.parametrize("target, controls", [
        (0, (1, 1)), (0, ((1,),)), (0, ((1, 1, 0),)), (0, 5),
        (True, ()), (0, ((True, 1),)), (0, ((1, False),)),
    ], ids=["flat-pair", "one-tuple", "triple", "not-iterable",
            "bool-target", "bool-control", "bool-trigger"])
    def test_malformed_controls_and_bool_indices_rejected(self, target, controls):
        # A flat pair or a short tuple used to escape as TypeError or
        # ValueError, and bool passed as an integer index.
        with pytest.raises(DomainError):
            GateOp("RY", target, 0.3, controls)

    @pytest.mark.parametrize("kind, theta, controls, match", [
        ("CNOT", 0.0, (), "unknown gate kind"),
        ("RY", math.nan, (), "finite"),
        ("RY", math.inf, (), "finite"),
        ("RY", 0.3, ((1, 2),), "trigger must be 0 or 1"),
        ("RY", 0.3, ((0, 1),), "both control and target"),
        ("RY", 0.3, ((-1, 1),), "non-negative"),
        ("RY", 0.3, ((1, 1), (1, 0)), "duplicate control"),
    ], ids=["unknown-kind", "nan-angle", "infinite-angle", "trigger-2", "control-is-target",
            "negative-control", "duplicate-control"])
    def test_invalid_gate_rejected(self, kind, theta, controls, match):
        with pytest.raises(DomainError, match=match):
            GateOp(kind, 0, theta, controls)


class TestSample:
    def test_ground_state_z_basis(self):
        res = sample(Circuit(1, ()), ("Z",), 1000, seed=1)
        assert bitstring_counts(res) == {"0": 1000}

    def test_plus_state_z_is_balanced(self):
        shots = 20000
        res = sample(H, ("Z",), shots, seed=2)
        band = binomial_band(shots, 0.5)
        assert abs(bitstring_counts(res)["0"] - shots / 2) <= band
        assert abs(bitstring_counts(res)["1"] - shots / 2) <= band
        assert sum(bitstring_counts(res).values()) == shots

    def test_ground_state_x_is_balanced(self):
        shots = 20000
        res = sample(Circuit(1, ()), ("X",), shots, seed=3)
        assert abs(bitstring_counts(res)["0"] - shots / 2) <= binomial_band(shots, 0.5)

    def test_plus_state_x_is_deterministic(self):
        res = sample(H, ("X",), 5000, seed=4)
        assert bitstring_counts(res) == {"0": 5000}

    def test_y_eigenstate_y_basis(self):
        # RZ(pi/2) RY(pi/2) |0> has Bloch vector +y
        circuit = Circuit(1, (GateOp("RY", 0, math.pi / 2), GateOp("RZ", 0, math.pi / 2)))
        res = sample(circuit, ("Y",), 5000, seed=5)
        assert bitstring_counts(res) == {"0": 5000}

    def test_determinism(self):
        noise = NoiseModel(depol_1q=0.05, readout_flip=0.03)
        a = sample(H, ("Z",), 4000, noise, seed=42)
        b = sample(H, ("Z",), 4000, noise, seed=42)
        assert bitstring_counts(a) == bitstring_counts(b)

    def test_seed_changes_counts(self):
        a = sample(H, ("Z",), 4000, seed=1)
        b = sample(H, ("Z",), 4000, seed=2)
        assert bitstring_counts(a) != bitstring_counts(b)

    def test_invalid_basis_label(self):
        with pytest.raises(DomainError):
            sample(H, ("Q",), 10)

    def test_basis_length_mismatch(self):
        with pytest.raises(DomainError):
            sample(H, ("Z", "Z"), 10)

    def test_zero_shots_rejected(self):
        with pytest.raises(DomainError):
            sample(H, ("Z",), 0)

    def test_non_integer_shots_rejected(self, worked_spec):
        # a float count used to escape as a TypeError from range()
        with pytest.raises(DomainError, match="integer"):
            sample(H, ("Z",), 1000.0)
        with pytest.raises(DomainError, match="integer"):
            calibrate_readout(None, 1000.0)
        with pytest.raises(DomainError, match="integer"):
            process_tomography(worked_spec, 1000.0)

    @pytest.mark.parametrize("hist", [[1.5, 0.5], [1.0, 0.0], ["1", "0"]])
    def test_non_integer_histogram_rejected(self, hist):
        # [1.5, 0.5] used to be stored as [1, 0]
        with pytest.raises(DomainError, match="integers"):
            ShotResult(("Z",), hist, 1)

    @pytest.mark.parametrize("hist, error", [
        ([1, 0, 0, 0], ShapeError), ([[1, 0]], ShapeError), ([1, 1], DomainError),
        ([2, -1], DomainError),
    ], ids=["wide", "2-d", "wrong-sum", "negative"])
    def test_malformed_histogram_rejected(self, hist, error):
        with pytest.raises(error):
            ShotResult(("Z",), hist, 1)

    # hist [5, 5] of 10 shots with checkpoints 3 and 7; each table breaks
    # one rule.
    @pytest.mark.parametrize("table, error", [
        ([[2, 1, 0, 0], [4, 3, 0, 0]], ShapeError),
        ([[2, 1]], ShapeError),
        ([[3, 0], [2, 5]], DomainError),
        ([[4, -1], [4, 3]], DomainError),
        ([[2, 1], [4, 2]], DomainError),
        ([[2, 1], [6, 1]], DomainError),
        ([[2.0, 1.0], [4.0, 3.0]], DomainError),
    ], ids=["wide", "short", "decreasing", "negative", "wrong-sum", "above-hist", "float"])
    def test_malformed_prefix_table_rejected(self, table, error):
        with pytest.raises(error):
            ShotResult(("Z",), [5, 5], 10, (3, 7), np.array(table))

    def test_prefix_reads_a_table_row(self):
        res = ShotResult(("Z",), [5, 5], 10, (3, 7), np.array([[2, 1], [4, 3]]))
        assert res.prefix(7).hist.tolist() == [4, 3] and res.prefix(7).shots == 7
        assert res.prefix(10) is res
        assert not res.table.flags.writeable

    def test_bitstring_order_most_significant_first(self):
        # flip only qubit 1 of three: outcome index 2 prints as "010"
        circuit = Circuit(3, (GateOp("X", 1),))
        res = sample(circuit, ("Z", "Z", "Z"), 50, seed=6)
        assert bitstring_counts(res) == {"010": 50}


class TestExpectationFromCounts:
    def test_all_zero(self):
        res = ShotResult(("Z",), [100, 0], 100)
        assert expectation_from_counts(res, 0) == 1.0

    def test_all_one(self):
        res = ShotResult(("Z",), [0, 100], 100)
        assert expectation_from_counts(res, 0) == -1.0

    def test_three_to_one_split(self):
        res = ShotResult(("Z",), [750, 250], 1000)
        assert expectation_from_counts(res, 0) == 0.5

    def test_addresses_correct_bit(self):
        # index 2 is "10": qubit 1 reads 1, qubit 0 reads 0
        res = ShotResult(("Z", "Z"), [40, 0, 60, 0], 100)
        assert expectation_from_counts(res, 1) == pytest.approx(-0.2)
        assert expectation_from_counts(res, 0) == 1.0

    def test_empty_counts_rejected(self):
        with pytest.raises(DomainError):
            expectation_from_counts(ShotResult(("Z",), [0, 0], 0), 0)


class TestNoise:
    def test_all_zero_noise_matches_noiseless(self):
        a = sample(H, ("Z",), 3000, None, seed=9)
        b = sample(H, ("Z",), 3000, NoiseModel(0.0, 0.0, 0.0), seed=9)
        assert bitstring_counts(a) == bitstring_counts(b)

    def test_inert_trajectory_path_matches_born_statistics(self):
        # depol_ctrl > 0 switches gate noise on, but a circuit without
        # controlled gates meets no noise; frequencies must match the
        # exact Born probability within 5 sigma.
        circuit = Circuit(1, (GateOp("RY", 0, 0.9),))
        shots = 20000
        res = sample(circuit, ("Z",), shots, NoiseModel(0.0, 0.7, 0.0), seed=10)
        p0 = math.cos(0.45) ** 2
        assert abs(bitstring_counts(res)["0"] - shots * p0) <= binomial_band(shots, p0)

    def test_full_depolarization_shrinks_bloch_vector(self):
        # One twirl maps the Bloch vector r to -r/3. For the |+> state the
        # estimated vector picks up one extra twirl from the X-basis change
        # gate and two from the Y-basis gates, so the expectation is
        # (1/9, 0, 0). Verified against this Monte Carlo.
        shots = 20000
        noise = NoiseModel(depol_1q=1.0)
        r = np.array([expectation_from_counts(sample(H, (b,), shots, noise,
                                                     derive_seed(77, i)), 0)
                      for i, b in enumerate("XYZ")])
        sigma = 1.0 / math.sqrt(shots)
        assert abs(r[0] - 1.0 / 9.0) <= 5 * sigma
        assert abs(r[1]) <= 5 * sigma
        assert abs(r[2]) <= 5 * sigma
        assert np.linalg.norm(r) <= 1.0 / 9.0 + 5 * sigma

    def test_readout_flip_half_is_uniform(self):
        shots = 20000
        res = sample(Circuit(1, ()), ("Z",), shots, NoiseModel(readout_flip=0.5), seed=11)
        assert abs(bitstring_counts(res)["0"] - shots / 2) <= binomial_band(shots, 0.5)

    def test_readout_flip_rate(self):
        shots = 20000
        res = sample(Circuit(1, ()), ("Z",), shots, NoiseModel(readout_flip=0.1), seed=12)
        assert abs(bitstring_counts(res)["1"] - shots * 0.1) <= binomial_band(shots, 0.1)

    def test_depol_ctrl_applies_to_controlled_gates(self):
        # with certain depolarization after the (satisfied) controlled gate,
        # the data qubit's Bloch vector shrinks by the one-twirl factor -1/3:
        # <Z> = -(-1)/3 = 1/3 for a pi rotation. The control is prepared by H,
        # so branch 1 (row 1 of the tally) holds about half the shots.
        circuit = Circuit(2, (GateOp("H", 1), GateOp("RY", 0, math.pi, ((1, 1),))))
        shots = 40000
        res = sample(circuit, ("Z", "Z"), shots, NoiseModel(0.0, 1.0, 0.0), seed=13)
        n0, n1 = res.hist.reshape(-1, 2)[1]
        z = (n0 - n1) / (n0 + n1)
        assert abs(z - 1.0 / 3.0) <= 5.0 / math.sqrt(shots / 2)

    @pytest.mark.parametrize("noise", [None, NoiseModel(depol_1q=0.1)],
                             ids=["noiseless", "gate-noise"])
    def test_norm_drift_raises(self, monkeypatch, noise):
        # A gate that is not unitary changes the norm; sampling refuses it
        # instead of renormalizing, with or without gate noise.
        monkeypatch.setattr(simulator, "_gate_matrix",
                            lambda op: 1.01 * np.eye(2, dtype=complex))
        with pytest.raises(NumericError):
            sample(H, ("Z",), 10, noise, seed=1)

    def test_invalid_probability_rejected(self):
        with pytest.raises(DomainError):
            NoiseModel(depol_1q=1.5)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)

    def test_path_sensitivity(self):
        seeds = {derive_seed(5), derive_seed(5, 0), derive_seed(5, 1),
                 derive_seed(5, 0, 0), derive_seed(5, 1, 0), derive_seed(6)}
        assert len(seeds) == 6

    def test_64_bit_range(self):
        s = derive_seed(2 ** 80, 3)
        assert 0 <= s < 2 ** 64
