import hashlib
import math

import numpy as np
import pytest

from qrot import DomainError, angle_between, normalize, vec_to_angles
from qrot.bloch import _units, require_unit
from qrot.rotation import gate_ry, gate_rz

from conftest import WORKED_AXIS, WORKED_VECTOR, random_unit
from oracles import angles_to_vec, state_to_bloch
from tiers import run_at_baseline_tier


def check_normalize_against_units() -> str:
    """Assert that ``normalize`` of each row of a stack from 1e-320 to 1e308,
    zero components and -0.0 among them, equals that row of one ``_units``
    call in bytes; return the sha256 of those bytes."""
    rng = np.random.default_rng(21)
    # Scaled by exact powers of two, 2^-1063 ~ 1e-320 to 2^1023 ~ 1e308, so
    # the inputs do not depend on the tier's power kernel.
    v = np.ldexp(rng.uniform(-1.0, 1.0, size=(4000, 3)),
                 rng.integers(-1063, 1024, size=(4000, 1)))
    v[rng.random(v.shape) < 0.1] = 0.0
    v[rng.random(v.shape) < 0.05] = -0.0
    v = v[np.abs(v).max(axis=1) > 0.0]
    units, norms = _units(v)
    for row, unit_k, norm_k in zip(v, units, norms):
        unit, norm = normalize(row)
        assert unit.tobytes() == unit_k.tobytes()
        assert np.float64(norm).tobytes() == norm_k.tobytes()
    return hashlib.sha256(units.tobytes() + norms.tobytes()).hexdigest()


class TestVecToAngles:
    def test_diagonal_vector(self):
        theta, phi = vec_to_angles(WORKED_VECTOR)
        assert abs(theta - math.acos(1.0 / math.sqrt(3.0))) <= 1e-12
        assert abs(phi - math.pi / 4.0) <= 1e-12
        # the commonly quoted 4-decimal value
        assert abs(theta - 0.9553) <= 1e-4

    def test_worked_axis(self):
        theta, phi = vec_to_angles(WORKED_AXIS)
        assert abs(theta - math.acos(1.0 / math.sqrt(6.0))) <= 1e-12
        assert abs(phi - math.atan2(1.0, 2.0)) <= 1e-12
        assert abs(phi - 0.4636) <= 1e-4

    def test_north_pole(self):
        assert vec_to_angles([0.0, 0.0, 1.0]) == (0.0, 0.0)

    def test_south_pole_phi_convention(self):
        theta, phi = vec_to_angles([0.0, 0.0, -1.0])
        assert theta == pytest.approx(math.pi, abs=1e-15)
        assert phi == 0.0

    def test_rejects_non_unit(self):
        with pytest.raises(DomainError):
            vec_to_angles([1.0, 1.0, 1.0])


class TestAnglesToVec:
    def test_north_pole(self):
        assert np.allclose(angles_to_vec(0.0, 0.0), [0.0, 0.0, 1.0], atol=1e-15)

    def test_equator_x(self):
        assert np.allclose(angles_to_vec(math.pi / 2.0, 0.0), [1.0, 0.0, 0.0], atol=1e-15)

    def test_inverse_of_vec_to_angles(self):
        v = angles_to_vec(0.9553, math.pi / 4.0)
        assert np.max(np.abs(v - WORKED_VECTOR)) <= 1e-4

    def test_round_trip_random(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            v = random_unit(rng)
            theta, phi = vec_to_angles(v)
            assert np.max(np.abs(angles_to_vec(theta, phi) - v)) <= 1e-10
            assert 0.0 <= theta <= math.pi
            assert -math.pi < phi <= math.pi


class TestStateToBloch:
    def test_ground_state(self):
        assert np.allclose(state_to_bloch([1.0, 0.0]), [0.0, 0.0, 1.0], atol=1e-15)

    def test_plus_state(self):
        psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert np.allclose(state_to_bloch(psi), [1.0, 0.0, 0.0], atol=1e-15)

    def test_initialized_diagonal_state(self):
        theta = math.acos(1.0 / math.sqrt(3.0))
        psi = gate_rz(math.pi / 4.0) @ gate_ry(theta) @ np.array([1.0, 0.0])
        assert np.max(np.abs(state_to_bloch(psi) - WORKED_VECTOR)) <= 1e-10

    def test_matches_spherical_parameterization(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(-math.pi, math.pi)
            psi = gate_rz(phi) @ gate_ry(theta) @ np.array([1.0, 0.0])
            assert np.max(np.abs(state_to_bloch(psi) - angles_to_vec(theta, phi))) <= 1e-10

    def test_global_phase_invariance(self):
        # exact in real arithmetic; float rounding leaves at most ~1 ulp
        rng = np.random.default_rng(12)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        shifted = np.exp(1.234j) * psi
        assert np.max(np.abs(state_to_bloch(psi) - state_to_bloch(shifted))) <= 1e-15

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            state_to_bloch([1.0, 1.0])

    @pytest.mark.parametrize("psi", [[1.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]]],
                             ids=["one", "four", "matrix"])
    def test_rejects_wrong_shape(self, psi):
        with pytest.raises(DomainError, match="2 amplitudes"):
            state_to_bloch(psi)


class TestAngleBetween:
    def test_equal_vectors(self):
        assert angle_between([0.3, -0.2, 0.5], [0.3, -0.2, 0.5]) == 0.0

    def test_orthogonal(self):
        assert angle_between([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2.0)

    def test_forty_five_degrees(self):
        assert angle_between([1, 0, 0], [1, 1, 0]) == pytest.approx(math.pi / 4.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-320])
    def test_extreme_scales(self, scale):
        assert angle_between([scale, 0, 0], [0, scale, 0]) == pytest.approx(math.pi / 2.0)
        assert angle_between([scale, 0, 0], [scale, scale, 0]) == pytest.approx(math.pi / 4.0)

    @pytest.mark.filterwarnings("error")
    def test_stack_rows_equal_one_point_calls(self):
        # rows from 1e-300 to 1e300, so some take normalize's scaled path
        rng = np.random.default_rng(11)
        stack = rng.normal(size=(12, 3)) * 10.0 ** rng.integers(-300, 300, size=(12, 1))
        v = np.array([0.3, -0.5, 0.8])
        angles, flipped = angle_between(stack, v), angle_between(v, stack)
        assert angles.shape == flipped.shape == (12,)
        for k, row in enumerate(stack):
            assert angles[k] == angle_between(row, v)
            assert flipped[k] == angle_between(v, row)

    def test_antiparallel_clamped(self):
        v = np.array([0.6, -0.3, 0.5])
        assert angle_between(v, -v) == pytest.approx(math.pi)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            angle_between([0, 0, 0], [1, 0, 0])

    def test_non_3_vector_rejected(self):
        with pytest.raises(DomainError, match="3-vector"):
            angle_between(np.ones(2), np.ones(2))

    def test_scale_invariance(self):
        assert angle_between([2, 0, 0], [5, 5, 0]) == pytest.approx(math.pi / 4.0)

    def test_resolves_tiny_angles(self):
        # The dot product rounds to 1.0 here, so acos of it gives 0.
        v = [math.cos(1e-9), math.sin(1e-9), 0.0]
        assert angle_between([1.0, 0.0, 0.0], v) == pytest.approx(1e-9, rel=1e-12)

    def test_resolves_angles_near_pi(self):
        v = [-math.cos(1e-9), math.sin(1e-9), 0.0]
        assert math.pi - angle_between([1.0, 0.0, 0.0], v) == pytest.approx(1e-9, rel=1e-6)


class TestRequireUnit:
    def test_returns_input_unchanged(self):
        v = np.array([0.6, 0.0, 0.8])
        assert require_unit(v).tobytes() == v.tobytes()

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [1.0, float("nan"), 0.0],
                                     [1.0, 0.0], [1.1, 0.0, 0.0]])
    def test_rejects_invalid(self, bad):
        with pytest.raises(DomainError):
            require_unit(bad)


class TestNormalize:
    def test_returns_norm(self):
        unit, norm = normalize([3.0, 0.0, 4.0])
        assert norm == 5.0
        assert np.allclose(unit, [0.6, 0.0, 0.8])

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            normalize([0.0, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            normalize([1.0, float("nan"), 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-320])
    def test_extreme_scales_come_back_unit(self, scale):
        # |v|^2 overflows or underflows here; v used to come back as zeros
        # with norm inf, or be rejected as a zero vector.
        v = np.array([scale, scale, 0.0])
        unit, norm = normalize(v)
        assert abs(np.linalg.norm(unit) - 1.0) <= 2e-16
        assert unit == pytest.approx([math.sqrt(0.5), math.sqrt(0.5), 0.0], rel=1e-15)
        assert norm == pytest.approx(math.hypot(scale, scale), rel=1e-15, abs=5e-324)

    def test_ordinary_inputs_keep_their_bits(self):
        rng = np.random.default_rng(8)
        for v in rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-100, 100, size=(200, 1)):
            unit, norm = normalize(v)
            assert norm == np.linalg.norm(v)
            assert np.array_equal(unit, v / np.linalg.norm(v))
        check_normalize_against_units()

    def test_ordinary_inputs_keep_their_bits_at_baseline_tier(self):
        out = run_at_baseline_tier("import test_bloch as t\n"
                                   "print(t.check_normalize_against_units())\n")
        assert out.strip() == check_normalize_against_units()
