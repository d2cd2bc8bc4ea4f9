"""qrot: rotate 3D unit vectors on a simulated qubit.

A rotation about an arbitrary axis maps to a five-gate RZ/RY sequence on a
single qubit; the Euler-Rodrigues parameters of the rotation fall out of
Pauli traces of the circuit unitary, and batches of vectors can be rotated
simultaneously in a control-qubit superposition. State and process
tomography on sampled counts recover the rotated vectors and the rotation
parameters, cross-validated against the classical Rodrigues formulas.
"""

from .bloch import SphericalAngles, angle_between, normalize, vec_to_angles
from .circuit import BranchRotation, Circuit, GateOp
from .errors import DomainError, NumericError, ShapeError
from .linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, dagger, eig_hermitian, polar_unitary
from .multirot import (ExtractedVector, VectorBatch, build_encoding_circuit, extract_all,
                       full_circuit)
from .rotation import (ErParams, RotationSpec, axis_rotation_sequence,
                       axis_rotation_unitary, erp_from_spec, erp_from_unitary, gate_rx,
                       gate_ry, gate_rz, initialization_ops, rodrigues_rotate)
from .simulator import NOISELESS, NoiseModel, apply, derive_seed, sample, zero_state
from .tomography import (KrausSet, ProcessTomographyResult, StateTomographyResult,
                         calibrate_readout, erp_from_tomography, gate_fidelity,
                         mitigate_frequencies, process_tomography, smolin_project,
                         state_tomography)

__version__ = "0.1.0"
