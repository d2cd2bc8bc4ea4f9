import math

import numpy as np
import pytest

from qrot import (BranchRotation, Circuit, DomainError, GateOp, NoiseModel, NumericError,
                  ShapeError, apply, axis_rotation_sequence,
                  calibrate_readout, derive_seed, initialization_ops, process_tomography,
                  rodrigues_rotate, sample, state_tomography, zero_state)
from qrot import simulator, tomography
from qrot.rotation import gate_ry

from conftest import WORKED_ROTATED, WORKED_VECTOR
from oracles import bitstring_counts, expectation_from_counts, state_to_bloch

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
        (np.bool_(True), ()), (0, ((np.bool_(True), 1),)), (0, ((1, np.bool_(False)),)),
        (1.0, ()), (0, ((1.0, 1),)), (np.float64(1.0), ()), (0, ((1, np.float64(1.0)),)),
    ], ids=["flat-pair", "one-tuple", "triple", "not-iterable",
            "bool-target", "bool-control", "bool-trigger",
            "np-bool-target", "np-bool-control", "np-bool-trigger",
            "float-target", "float-control", "np-float64-target", "np-float64-trigger"])
    def test_malformed_controls_and_bool_indices_rejected(self, target, controls):
        # A flat pair or a short tuple used to escape as TypeError or
        # ValueError, and bool passed as an integer index. Float values
        # are no index even when integral.
        with pytest.raises(DomainError):
            GateOp("RY", target, 0.3, controls)

    @pytest.mark.parametrize("integer", [int, np.int64, np.int32, np.uint8],
                             ids=["int", "np-int64", "np-int32", "np-uint8"])
    def test_integer_indices_accepted(self, integer):
        op = GateOp("RY", integer(0), 0.3, ((integer(2), integer(1)), (integer(1), integer(0))))
        assert op.controls == ((2, 1), (1, 0))
        assert all(type(x) is int for pair in op.controls for x in pair)
        assert Circuit(integer(3), (op,)).num_qubits == 3

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


class TestBranchRotation:
    @pytest.mark.parametrize("width, kind, target, thetas, controls, match", [
        (3, "RX", 0, (0.1,), (1, 2), "RY or RZ"),
        (3, "H", 0, (0.1,), (1, 2), "RY or RZ"),
        (3, "RY", 1, (0.1,), (1, 2), "targets qubit 0"),
        (3, "RY", True, (0.1,), (1, 2), "targets qubit 0"),
        (3, "RY", 0, (0.1,), (2, 1), "in order"),
        (3, "RZ", 0, (0.1,), (1, 3), "in order"),
        (3, "RY", 0, (0.1,), (True, 2), "in order"),
        (1, "RY", 0, (0.1,), (), "in order"),
        (3, "RY", 0, (0.1,) * 5, (1, 2), "5 angles for 4 branches"),
        (3, "RZ", 0, (0.1, math.nan), (1, 2), "finite"),
        (3, "RY", 0, (math.inf,), (1, 2), "finite"),
        (4, "RY", 0, (0.1,), (1, 2), "every qubit but 0"),
        (2, "RY", 0, (0.1,), (1, 2), "every qubit but 0"),
    ], ids=["rx", "h", "target-1", "bool-target", "reversed-controls", "gap-in-controls",
            "bool-control", "no-controls", "too-many-angles", "nan-angle", "infinite-angle",
            "too-wide", "too-narrow"])
    def test_malformed_branch_rotation_rejected(self, width, kind, target, thetas, controls,
                                                match):
        with pytest.raises(DomainError, match=match):
            Circuit(width, (BranchRotation(kind, target, thetas, controls),))

    @pytest.mark.parametrize("count", [0, 1, 4])
    def test_up_to_one_angle_per_branch_accepted(self, count):
        op = BranchRotation("RZ", 0, [0.5] * count, [1, 2])
        assert Circuit(3, (op,)).ops == (op,)
        assert op.thetas == (0.5,) * count and op.controls == (1, 2)

    def test_noisy_sample_needs_prepared_controls(self):
        noise = NoiseModel(depol_ctrl=0.01)
        op = BranchRotation("RY", 0, (0.3, 1.2, 2.0), (1, 2))
        ready = Circuit(3, (GateOp("H", 1), GateOp("H", 2), op))
        assert sample(ready, ("Z",) * 3, 100, noise)[-1].sum() == 100
        for ops in ((GateOp("H", 1), op), (op, GateOp("H", 1), GateOp("H", 2))):
            with pytest.raises(DomainError, match="uncontrolled H"):
                sample(Circuit(3, ops), ("Z",) * 3, 100, noise)


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

    def test_bool_shots_rejected(self):
        # bool is an Integral, but True used to run a one-shot job
        with pytest.raises(DomainError, match="integer"):
            sample(H, ("Z",), True)
        with pytest.raises(DomainError, match="integer"):
            calibrate_readout(None, True)

    def test_table_is_the_read_only_row_of_the_stack(self):
        res = sample(H, ("Z",), 10, seed=7, checkpoints=(3, 7))
        [row] = simulator._sample_rows([(H, ("Z",), 7)], 10, checkpoints=(3, 7))
        assert type(res) is np.ndarray and res.dtype == np.int64
        assert not res.flags.writeable
        assert res.sum(axis=1).tolist() == [3, 7, 10]
        assert res.tobytes() == row.tobytes()

    @pytest.mark.parametrize("hist, error", [
        ([1, 0, 0, 0], ShapeError), ([[1, 0]], ShapeError), ([1, 1], DomainError),
        ([2, -1], DomainError),
    ], ids=["wide", "2-d", "wrong-sum", "negative"])
    def test_malformed_histogram_rejected(self, hist, error):
        # a one-shot job's table is its histogram alone
        with pytest.raises(error):
            simulator._check_tables(np.array([[hist]]), (1,), 2, (1,))

    # Rows of 3, 7 and 10 shots ending in hist [5, 5]; each table breaks one
    # rule. "above-hist" has a row above the last one, which decreases.
    @pytest.mark.parametrize("table, error", [
        ([[2, 1, 0, 0], [4, 3, 0, 0], [5, 5, 0, 0]], ShapeError),
        ([[2, 1], [4, 3]], ShapeError),
        ([[3, 0], [2, 5], [5, 5]], DomainError),
        ([[4, -1], [4, 3], [5, 5]], DomainError),
        ([[2, 1], [4, 2], [5, 5]], DomainError),
        ([[2, 1], [6, 1], [5, 5]], DomainError),
    ], ids=["wide", "short", "decreasing", "negative", "wrong-sum", "above-hist"])
    def test_malformed_prefix_table_rejected(self, table, error):
        with pytest.raises(error):
            simulator._check_tables(np.array([table]), (3, 7, 10), 2, (1,))

    def test_empty_table_rejected(self):
        with pytest.raises(ShapeError):
            simulator._check_tables(np.zeros((1, 0, 2), dtype=np.int64), (), 2, (1,))

    def test_bitstring_order_most_significant_first(self):
        # flip only qubit 1 of three: outcome index 2 prints as "010"
        circuit = Circuit(3, (GateOp("X", 1),))
        res = sample(circuit, ("Z", "Z", "Z"), 50, seed=6)
        assert bitstring_counts(res) == {"010": 50}


# Two circuits that compare equal (an angle of 0.0 against -0.0) whose final
# states differ in the sign of a zero amplitude.
_SIGNED_ZERO_OPS = [GateOp("X", 0, controls=((1, 1),)), GateOp("X", 0), GateOp("RX", 1, 0.7),
                    GateOp("RX", 0, 0.7, ((1, 1),))]
_POSITIVE_ZERO = Circuit(2, _SIGNED_ZERO_OPS + [GateOp("RX", 1, 0.0)])
_NEGATIVE_ZERO = Circuit(2, _SIGNED_ZERO_OPS + [GateOp("RX", 1, -0.0)])


class TestRowStack:
    """``_sample_rows`` draws a stack of (circuit, basis, seed) rows: it
    evolves each circuit object once, applies each row's basis change to a
    copy of that final state, and each row's table is the lone ``sample``
    table of that row."""

    CIRCUIT = Circuit(3, (GateOp("H", 1), GateOp("H", 2), GateOp("RY", 0, 0.4, ((1, 1),)),
                          GateOp("RZ", 0, 1.1, ((1, 1), (2, 0))), GateOp("RX", 0, -0.8)))
    BASES = (("X", "Z", "Z"), ("Y", "Z", "Z"), ("Z", "Z", "Z"))

    @pytest.fixture
    def evolved(self, monkeypatch):
        """(ops, state returned) of every ``_evolve`` call."""
        calls = []
        evolve = simulator._evolve

        def recording(state, ops, n):
            out = evolve(state, ops, n)
            calls.append((ops, out))
            return out

        monkeypatch.setattr(simulator, "_evolve", recording)
        return calls

    @pytest.mark.parametrize("noise", [None, NoiseModel(0.02, 0.05, 0.03)],
                             ids=["noiseless", "noisy"])
    def test_rows_equal_lone_samples(self, noise):
        # bases in any order, repeated, and with other seeds in between
        rows = [(self.CIRCUIT, self.BASES[i], seed)
                for i, seed in ((2, 11), (0, 11), (1, 5), (1, 11), (2, 11), (0, 4))]
        tables = simulator._sample_rows(rows, 3000, noise, (100, 2000))
        assert tables.shape == (6, 3, 8) and not tables.flags.writeable
        for table, (circuit, basis, seed) in zip(tables, rows):
            lone = sample(circuit, basis, 3000, noise, seed, checkpoints=(100, 2000))
            assert lone.sum(axis=1).tolist() == [100, 2000, 3000]
            assert table.tobytes() == lone.tobytes()

    def test_each_circuit_object_is_evolved_once_per_grid_job(self, evolved):
        circuits = [(Circuit(1, (GateOp("RY", 0, 0.3 * k), GateOp("RZ", 0, 0.1))), k)
                    for k in range(4)]
        tomography._grid_counts(circuits, [400, 200], NoiseModel(readout_flip=0.02), 9, True)
        for circuit, _ in circuits:
            assert sum(ops is circuit.ops for ops, _ in evolved) == 1
        # and the two calibration circuits, then one basis change per row
        assert len(evolved) == 4 + 2 + (4 * 3 + 2)

    def test_state_tomography_evolves_its_circuit_once(self, evolved):
        state_tomography(self.CIRCUIT, 300, seed=2)
        assert [ops is self.CIRCUIT.ops for ops, _ in evolved] == [True, False, False, False]

    def test_equal_circuit_objects_are_evolved_apart(self, evolved):
        assert _POSITIVE_ZERO == _NEGATIVE_ZERO
        positive = apply(_POSITIVE_ZERO, zero_state(2))
        negative = apply(_NEGATIVE_ZERO, zero_state(2))
        assert positive.tobytes() != negative.tobytes()
        evolved.clear()
        # Circuit keeps the ops tuple it is given, so the twin holds the same one.
        twin = Circuit(2, _NEGATIVE_ZERO.ops)
        rows = [(circuit, ("X", "Z"), 3)
                for circuit in (_POSITIVE_ZERO, _NEGATIVE_ZERO, twin, _POSITIVE_ZERO)]
        tables = simulator._sample_rows(rows, 500)
        finals = [out.tobytes() for ops, out in evolved if ops is _POSITIVE_ZERO.ops
                  or ops is _NEGATIVE_ZERO.ops]
        assert finals == [positive.tobytes(), negative.tobytes(), negative.tobytes()]
        for table, (circuit, basis, seed) in zip(tables, rows):
            assert table.tobytes() == sample(circuit, basis, 500, seed=seed).tobytes()

    def test_final_state_is_read_only_and_kept_apart(self, evolved):
        rows = [(self.CIRCUIT, basis, 2) for basis in self.BASES + self.BASES[::-1]]
        tables = simulator._sample_rows(rows, 1000, NoiseModel(0.01, 0.0, 0.02))
        [(_, state)] = [(ops, out) for ops, out in evolved if ops is self.CIRCUIT.ops]
        assert not state.flags.writeable
        with pytest.raises(ValueError):
            state[0] = 0.0
        # every basis change evolved a copy: the shared state still holds the
        # circuit's final state, and no table is a view of it
        assert state.tobytes() == apply(self.CIRCUIT, zero_state(3)).tobytes()
        assert not np.shares_memory(tables, state)
        assert all(not np.shares_memory(out, state) for _, out in evolved[1:])

    def test_apply_evolves_a_copy_of_its_input(self):
        psi = np.zeros(8, dtype=complex)
        psi[5] = 1.0
        out = apply(self.CIRCUIT, psi)
        assert out.flags.writeable and not np.shares_memory(out, psi)
        assert np.array_equal(out, simulator._evolve(psi.copy(), self.CIRCUIT.ops, 3))
        assert psi[5] == 1.0 and np.count_nonzero(psi) == 1

    def test_every_row_is_validated_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(simulator, "_tallies",
                            lambda probs, stops, rng: drawn.append(stops))
        with pytest.raises(DomainError, match="invalid basis label"):
            simulator._sample_rows([(H, ("Z",), 0), (H, ("W",), 0)], 10)
        with pytest.raises(DomainError, match="expected 1 basis labels"):
            simulator._sample_rows([(H, ("Z",), 0), (H, ("Z", "Z"), 0)], 10)
        assert drawn == []


class TestExpectationFromCounts:
    def test_all_zero(self):
        res = np.array([[100, 0]])
        assert expectation_from_counts(res, 0) == 1.0

    def test_all_one(self):
        res = np.array([[0, 100]])
        assert expectation_from_counts(res, 0) == -1.0

    def test_three_to_one_split(self):
        res = np.array([[750, 250]])
        assert expectation_from_counts(res, 0) == 0.5

    def test_addresses_correct_bit(self):
        # index 2 is "10": qubit 1 reads 1, qubit 0 reads 0
        res = np.array([[40, 0, 60, 0]])
        assert expectation_from_counts(res, 1) == pytest.approx(-0.2)
        assert expectation_from_counts(res, 0) == 1.0

    def test_empty_counts_rejected(self):
        with pytest.raises(DomainError):
            expectation_from_counts(np.array([[0, 0]]), 0)


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
        n0, n1 = res[-1].reshape(-1, 2)[1]
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
