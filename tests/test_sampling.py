"""Properties of the chunked noiseless sampler and the sampling memory bounds."""

import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from qrot import (Circuit, GateOp, MultiRotationPlan, NoiseModel, RotationSpec,
                  VectorBatch, apply, full_circuit, sample, zero_state)
from qrot import simulator
from qrot.circuit import GATE_KINDS

_BASIS_OPS = {"X": (("H", 0.0),), "Y": (("RZ", -math.pi / 2.0), ("H", 0.0)), "Z": ()}


def reference_outcomes(circuit, basis, shots, noise, seed):
    """The broadcast sampler that the chunked one replaced, kept as an oracle:
    shots x 2^n probabilities, cumulative sums and comparisons, then
    readout flips drawn after every measurement uniform."""
    n = circuit.num_qubits
    change = [GateOp(kind, q, theta) for q, label in enumerate(basis)
              for kind, theta in _BASIS_OPS[label]]
    final = apply(circuit.extended(change), zero_state(n))
    rng = np.random.Generator(np.random.Philox(key=seed))
    states = np.broadcast_to(final, (shots, 1 << n))
    probs = np.abs(states) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    u = rng.random(shots)
    outcomes = np.minimum((u[:, None] >= cum).sum(axis=1), (1 << n) - 1)
    if noise.readout_flip > 0.0:
        flips = rng.random((shots, n)) < noise.readout_flip
        outcomes = outcomes ^ (flips.astype(np.int64) << np.arange(n)).sum(axis=1)
    return outcomes


@st.composite
def jobs(draw, max_qubits=6):
    """A random circuit with controlled gates, plus a measurement basis."""
    n = draw(st.integers(1, max_qubits))
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(GATE_KINDS))
        target = draw(st.integers(0, n - 1))
        theta = draw(st.floats(-math.pi, math.pi)) if kind.startswith("R") else 0.0
        controls = ()
        if n > 1 and draw(st.booleans()):
            ctrl = draw(st.integers(0, n - 2))
            controls = ((ctrl + (ctrl >= target), draw(st.integers(0, 1))),)
        ops.append(GateOp(kind, target, theta, controls))
    basis = tuple(draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n)))
    return Circuit(n, ops), basis


seeds = st.integers(0, 2**64 - 1)
readout = st.sampled_from([0.0, 0.03, 0.5]).map(lambda p: NoiseModel(readout_flip=p))


@settings(max_examples=60, deadline=None)
@given(job=jobs(), shots=st.integers(1, 3000), noise=readout, seed=seeds)
def test_counts_match_broadcast_sampler(job, shots, noise, seed):
    circuit, basis = job
    expected = np.bincount(reference_outcomes(circuit, basis, shots, noise, seed),
                           minlength=1 << circuit.num_qubits)
    assert np.array_equal(sample(circuit, basis, shots, noise, seed).hist, expected)


@settings(max_examples=30, deadline=None)
@given(job=jobs(), shots=st.integers(1, 700), noise=readout, seed=seeds)
def test_counts_do_not_depend_on_chunk_size(job, shots, noise, seed):
    circuit, basis = job
    hists = []
    for chunk in (1, 7, 1 << 16):
        with mock.patch.object(simulator, "SAMPLE_CHUNK", chunk):
            hists.append(sample(circuit, basis, shots, noise, seed).hist)
    assert all(np.array_equal(h, hists[0]) for h in hists)


@settings(max_examples=40, deadline=None)
@given(job=jobs(), sizes=st.lists(st.integers(1, 3000), min_size=2, max_size=2),
       seed=seeds)
def test_smaller_job_is_prefix_of_larger(job, sizes, seed):
    circuit, basis = job
    small, large = sorted(sizes)
    outcomes = reference_outcomes(circuit, basis, large, simulator.NOISELESS, seed)
    assert np.array_equal(
        sample(circuit, basis, small, seed=seed).hist,
        np.bincount(outcomes[:small], minlength=1 << circuit.num_qubits))


def test_several_default_chunks_with_readout_flips():
    # More than one SAMPLE_CHUNK and a shot count that is not a multiple of 4,
    # so the readout generator starts mid-counter.
    circuit = Circuit(3, (GateOp("H", 0), GateOp("RY", 1, 0.7, ((0, 1),)),
                          GateOp("RX", 2, 2.1)))
    shots = 2 * simulator.SAMPLE_CHUNK + 3
    noise = NoiseModel(readout_flip=0.07)
    expected = np.bincount(reference_outcomes(circuit, ("X", "Z", "Y"), shots, noise, 99),
                           minlength=8)
    assert np.array_equal(sample(circuit, ("X", "Z", "Y"), shots, noise, 99).hist,
                          expected)


def _wide_circuit():
    """The 9-qubit circuit of a 256-vector batch."""
    rng = np.random.default_rng(5)
    v = rng.normal(size=(256, 3))
    batch = VectorBatch(v / np.linalg.norm(v, axis=1, keepdims=True))
    return full_circuit(MultiRotationPlan(batch, RotationSpec(np.array([0.0, 0.6, 0.8]), 1.0)))


def test_noiseless_sample_memory_does_not_grow_with_shots():
    circuit = _wide_circuit()
    basis = ("X",) + ("Z",) * 8
    for shots in (128_000, 1_280_000):
        tracemalloc.start()
        try:
            res = sample(circuit, basis, shots, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.hist.sum() == shots
        # Three chunk-sized int64/float64 arrays are live at once: 1.5 MiB.
        assert peak < 4 * 2**20, f"{shots} shots peaked at {peak / 2**20:.1f} MiB"


def test_largest_noisy_roadmap_job_fits_trajectory_budget():
    # multi at 64 vectors x 2000 shots under nisq-lite: the widest noisy
    # job the benchmark plan names must stay runnable.
    rng = np.random.default_rng(6)
    v = rng.normal(size=(64, 3))
    batch = VectorBatch(v / np.linalg.norm(v, axis=1, keepdims=True))
    circuit = full_circuit(MultiRotationPlan(batch, RotationSpec(np.array([1.0, 0.0, 0.0]), 1.0)))
    gates = len(circuit.ops) + 2    # plus the Y-basis change
    need = simulator.trajectory_bytes(2000 * 64, circuit.num_qubits, gates)
    assert need <= simulator.TRAJECTORY_BUDGET_BYTES
