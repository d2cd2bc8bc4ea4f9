"""The sweep draws each circuit once and reads smaller grid points as prefix
tallies; its records must equal a loop that runs tomography at every point."""

import math

import pytest

from qrot import DomainError, axis_rotation_unitary, rodrigues_rotate, tomography
from qrot.bloch import angle_between
from qrot.experiments import (NOISE_PRESETS, SweepRecord, log_shot_grid, rotation_circuit,
                              seeded_rotations, seeded_vectors, sweep_records)
from qrot.simulator import derive_seed
from qrot.tomography import gate_fidelity, process_tomography, state_tomography


def reference_sweep(backends, trials, shot_grid, seed, mitigate):
    """One ``process_tomography`` and one ``state_tomography`` per grid point."""
    records = []
    for backend in backends:
        noise = None if backend == "noiseless" else NOISE_PRESETS[backend]
        use_mitigation = mitigate and backend != "noiseless"
        label = backend + "+mit" if use_mitigation else backend
        for trial, (spec, vector) in enumerate(zip(seeded_rotations(seed, trials),
                                                   seeded_vectors(seed, trials))):
            for shots in shot_grid:
                proc = process_tomography(spec, shots, noise, derive_seed(seed, trial, 3),
                                          use_mitigation)
                records.append(SweepRecord(
                    label, trial, shots, "gate_fidelity",
                    gate_fidelity(axis_rotation_unitary(spec), proc.unitary)))
                state = state_tomography(rotation_circuit(vector, spec), shots, noise,
                                         derive_seed(seed, trial, 4), use_mitigation)
                records.append(SweepRecord(
                    label, trial, shots, "angle_deg",
                    math.degrees(angle_between(state.bloch, rodrigues_rotate(spec, vector)))))
    return records


@pytest.mark.parametrize("backend, mitigate", [("noiseless", False), ("nisq-lite", False),
                                              ("nisq-lite", True)])
@pytest.mark.parametrize("shot_grid", [log_shot_grid(100, 5000, 5), [900, 100, 2500, 900, 333]])
def test_sweep_equals_per_point_tomography(backend, mitigate, shot_grid):
    records = sweep_records([backend], 3, shot_grid, seed=17, mitigate=mitigate)
    # SweepRecord equality compares every value with float ==.
    assert records == reference_sweep([backend], 3, shot_grid, 17, mitigate)


def test_grid_point_below_min_shots_rejected(monkeypatch):
    # rejected before any draw, the readout calibration's included
    calls = []
    monkeypatch.setattr(tomography, "sample", lambda *args, **kwargs: calls.append(args))
    for backend, mitigate in (("noiseless", False), ("nisq-lite", True)):
        with pytest.raises(DomainError):
            sweep_records([backend], 2, [500, 99], mitigate=mitigate)
    assert calls == []
