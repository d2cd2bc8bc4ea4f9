"""The sweep draws each circuit once and reads smaller grid points as prefix
tallies; its records must equal a loop that runs tomography at every point."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qrot import (DomainError, ExtractedVector, RotationSpec, VectorBatch, axis_rotation_unitary,
                  extract_all, rodrigues_rotate, tomography)
from qrot import experiments
from qrot.bloch import angle_between
from qrot.experiments import (NOISE_PRESETS, SweepRecord, log_shot_grid, median_by_shots,
                              multi_report, rotation_circuit, seeded_rotations, seeded_vectors,
                              sweep_records)
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


@pytest.mark.parametrize("backend, mitigate", [("noiseless", False), ("nisq-lite", True)])
def test_first_trials_equal_a_shorter_sweep(backend, mitigate):
    # Each backend reconstructs all of its trials as one stack: a row that
    # mixed into another trial would make the two sweeps differ.
    shot_grid = [900, 100, 2500, 333]
    short = sweep_records([backend], 2, shot_grid, seed=23, mitigate=mitigate)
    long = sweep_records([backend], 5, shot_grid, seed=23, mitigate=mitigate)
    assert len(short) == 2 * 2 * len(shot_grid) and len(long) == 5 * 2 * len(shot_grid)
    # SweepRecord equality compares every value with float ==.
    assert long[:len(short)] == short


@pytest.mark.parametrize("trials", [0, -1])
def test_no_trials_rejected(trials):
    with pytest.raises(DomainError, match="trials"):
        sweep_records(["noiseless"], trials, [1000])


@pytest.mark.parametrize("backend, mitigate", [("noiseless", False), ("nisq-lite", True)])
def test_empty_grid_gives_no_records(monkeypatch, backend, mitigate):
    calls = []
    monkeypatch.setattr(tomography, "_sample_rows", lambda *args, **kwargs: calls.append(args))
    assert sweep_records([backend], 2, [], mitigate=mitigate) == []
    assert calls == []


def test_grid_point_below_min_shots_rejected(monkeypatch):
    # rejected before any draw, the readout calibration's included
    calls = []
    monkeypatch.setattr(tomography, "_sample_rows", lambda *args, **kwargs: calls.append(args))
    for backend, mitigate in (("noiseless", False), ("nisq-lite", True)):
        with pytest.raises(DomainError):
            sweep_records([backend], 2, [500, 99], mitigate=mitigate)
    assert calls == []


def test_unknown_backend_rejected_before_any_draw(monkeypatch):
    calls = []
    monkeypatch.setattr(tomography, "_sample_rows", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(DomainError, match="unknown backend 'bogus'"):
        sweep_records(["noiseless", "bogus"], 2, [200, 400], 1)
    with pytest.raises(DomainError, match="backend 'nisq-lite' is named more than once"):
        sweep_records(["nisq-lite", "noiseless", "nisq-lite"], 1, [200, 400], 1)
    assert calls == []


def test_sweep_size_is_bounded_before_any_draw(monkeypatch):
    calls = []
    monkeypatch.setattr(tomography, "_sample_rows", lambda *args, **kwargs: calls.append(args))
    points = experiments.MAX_SWEEP_RECORDS // 2
    assert log_shot_grid(1, 10**6, points)[-1] == 10**6
    with pytest.raises(DomainError, match="records"):
        log_shot_grid(1, 10**6, points + 1)
    # Repeated grid points make records too.
    with pytest.raises(DomainError, match="records"):
        sweep_records(["noiseless", "nisq-lite"], 1, [1000] * (points // 2 + 1))
    with pytest.raises(DomainError, match="records"):
        sweep_records(["noiseless"], points + 1, [1000])
    assert calls == []


def test_trial_heavy_sweep_stays_within_its_share_of_the_budget():
    # MAX_SWEEP_RECORDS is set by a 256 MiB budget at the cap. A backend
    # holds all of its trials' tallies and reconstructs them as one stack,
    # so a scaled-down trial-heavy sweep must stay within its share of that
    # budget: 64 trials x 16 points under nisq-lite with mitigation make
    # 2,048 records, 4 MiB. Measured peak: 2.5 MiB.
    shot_grid = log_shot_grid(100, 1000, 16)
    sweep_records(["nisq-lite"], 1, shot_grid[:2], mitigate=True)  # first-draw imports
    tracemalloc.start()
    try:
        records = sweep_records(["nisq-lite"], 64, shot_grid, seed=3, mitigate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    share = 256 * 2**20 * len(records) / experiments.MAX_SWEEP_RECORDS
    assert len(records) == 2048 and share == 4 * 2**20
    assert peak <= share, f"peaked at {peak / 2**20:.1f} MiB"


def test_shot_grid_ends_at_most_at_two_to_the_53():
    # float64 holds every integer up to 2**53, and geomspace computes in float64.
    assert log_shot_grid(200, 2**53, 3)[-1] == 2**53
    for hi in (2**53 + 1, 2**63 - 1, 10**30):
        with pytest.raises(DomainError, match="2\\*\\*53"):
            log_shot_grid(200, hi, 3)
    # Near 2**53 a grid value may round past its neighbour or out of range.
    grid = log_shot_grid(2**53 - 9, 2**53, 10)
    assert grid == sorted(set(grid)) and grid[0] == 2**53 - 9 and grid[-1] == 2**53


@st.composite
def _shot_grid_args(draw):
    lo = draw(st.integers(1, 2**53))
    hi = draw(st.integers(lo, 2**53))
    return lo, hi, draw(st.integers(1, min(hi - lo + 1, 2000)))


@settings(max_examples=300, deadline=None)
@given(args=_shot_grid_args())
@example(args=(200, 2**53, 3))
@example(args=(2**53 - 9, 2**53, 10))
@example(args=(2**53 - 2000, 2**53, 2001))
@example(args=(1, 50, 50))
@example(args=(200, 20000, 20))
@example(args=(7, 7, 1))
def test_shot_grid_equals_unique_of_the_rounded_grid(args):
    # log_shot_grid de-duplicates by hand; np.unique is the reference.
    lo, hi, points = args
    grid = log_shot_grid(lo, hi, points)
    expected = np.unique(np.clip(np.rint(np.geomspace(lo, hi, points)).astype(np.int64), lo, hi))
    assert grid == expected.tolist()
    assert all(type(s) is int for s in grid)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("values", [
    [0.5], [0.25, 0.75], [3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [0.9, 0.9, 0.9],
    [1.0, 2.0, 2.0, 1.0], [-0.0], [0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0, -0.0],
    [0.0, -0.0, -0.0, 0.0, 1.0], [math.inf, 1.0], [-math.inf, math.inf],
    [math.inf, math.inf, -math.inf], [math.nan, 1.0, 2.0], [1.0, -math.nan],
    [1e308, 1e308], [5e-324, -5e-324, 0.0],
], ids=repr)
def test_median_equals_np_median(values):
    # Bit for bit, sign of zero and of NaN included.
    records = [SweepRecord("noiseless", t, 1000, "gate_fidelity", v)
               for t, v in enumerate(values)]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.median(values))
        assert _bits(median_by_shots(records, "gate_fidelity")[1000]) == _bits(expected)


def test_median_by_shots_equals_np_median_per_backend():
    rng = np.random.default_rng(28)
    pool = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1e308, -1e308, 5e-324,
            0.5, 0.75, 1.0]
    for _ in range(200):
        records = [SweepRecord(str(rng.choice(["noiseless", "nisq-lite"])), trial,
                               int(rng.choice([100, 200, 300])),
                               str(rng.choice(["gate_fidelity", "angle_deg"])),
                               float(rng.choice(pool)))
                   for trial in range(int(rng.integers(1, 25)))]
        for backend in (None, "noiseless", "nisq-lite"):
            buckets = {}
            for r in records:
                if r.metric == "angle_deg" and backend in (None, r.backend):
                    buckets.setdefault(r.shots, []).append(r.value)
            with np.errstate(over="ignore", invalid="ignore"):
                medians = median_by_shots(records, "angle_deg", backend)
                expected = {s: float(np.median(v)) for s, v in sorted(buckets.items())}
            assert list(medians) == list(expected)
            assert all(type(m) is float and _bits(m) == _bits(expected[s])
                       for s, m in medians.items())


def reference_entries(batch, rotation, extracted):
    """``multi_report``'s entries computed one index at a time."""
    entries = []
    for item in extracted:
        vec_in = batch.vectors[item.index - 1]
        oracle = rodrigues_rotate(rotation, vec_in)
        entries.append({
            "index": item.index,
            "input": [float(x) for x in vec_in],
            "oracle": [float(x) for x in oracle],
            "extracted": None if item.vector is None else [float(x) for x in item.vector],
            "angle_deg": None if item.vector is None
            else math.degrees(angle_between(item.vector, oracle)),
            "samples": item.samples,
            "under_sampled": item.under_sampled,
            "error": item.error,
        })
    return entries


@pytest.mark.parametrize("p, noise, mitigate", [(1, None, False), (5, None, False),
                                                (4, NOISE_PRESETS["nisq-lite"], True)])
def test_multi_report_equals_per_entry_recomputation(p, noise, mitigate):
    rng = np.random.default_rng(p)
    vectors = rng.normal(size=(p, 3))
    batch = VectorBatch(vectors / np.linalg.norm(vectors, axis=1, keepdims=True))
    rotation = RotationSpec(np.array([0.0, 0.6, 0.8]), 1.1)
    extracted = extract_all(batch, rotation, 300, noise, 5, mitigate)
    # entry dicts compare every value with float ==
    assert (multi_report(batch, rotation, 300, noise, 5, mitigate)
            == reference_entries(batch, rotation, extracted))


_unit_rows = (st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
              .filter(lambda v: np.linalg.norm(v) >= 1e-3)
              .map(lambda v: np.array(v) / np.linalg.norm(v)))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_unit_rows, st.one_of(st.none(), _unit_rows)),
                     min_size=1, max_size=9),
       axis=_unit_rows, angle=st.floats(-7.0, 7.0))
def test_multi_report_with_failed_indices(rows, axis, angle):
    # Indices whose extraction failed (vector None) sit anywhere in the
    # batch, all of them included; the others still get their own angles.
    batch = VectorBatch(np.array([vec for vec, _ in rows]))
    rotation = RotationSpec(axis, angle)
    extracted = [ExtractedVector(i0 + 1, found, 10 * i0, i0 % 2 == 0,
                                 None if found is not None else "no direction")
                 for i0, (_, found) in enumerate(rows)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "extract_all", lambda *args: extracted)
        entries = multi_report(batch, rotation, 100, None, 0)
    assert entries == reference_entries(batch, rotation, extracted)
