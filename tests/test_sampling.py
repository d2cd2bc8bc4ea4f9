"""Properties of the sampler: exact outcome distributions with and without
gate noise, one uniform per shot, and memory that does not grow with shots.

Noiseless and readout-only jobs range over all circuits (``jobs``); jobs
under gate noise range over the shape that ``sample`` accepts there
(``shaped_jobs``)."""

import ast
import hashlib
import math
import tracemalloc
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2

from qrot import (BranchRotation, Circuit, DomainError, GateOp, NoiseModel,
                  RotationSpec, VectorBatch, apply, full_circuit, sample, zero_state)
from qrot import simulator
from qrot.circuit import GATE_KINDS
from qrot.experiments import NOISE_PRESETS
from qrot.linalg import PAULI_X, PAULI_Y, PAULI_Z, abs_complex

from oracles import apply_gates, confuse_readout_unskipped, expand_branch_rotations
from tiers import dispatch_target, run_at_baseline_tier
from trajectories import trajectory_hist

_BASIS_OPS = {"X": (("H", 0.0),), "Y": (("RZ", -math.pi / 2.0), ("H", 0.0)), "Z": ()}


def _measured(circuit, basis):
    """``circuit`` with the basis-change gates of ``basis`` appended."""
    return Circuit(circuit.num_qubits,
                   circuit.ops + tuple([GateOp(kind, q, theta) for q, label in enumerate(basis)
                                        for kind, theta in _BASIS_OPS[label]]))


def _on_qubit(mat, q, n):
    """``mat`` on qubit q and the identity elsewhere, as a 2^n x 2^n matrix."""
    return reduce(np.kron, [mat if k == q else np.eye(2) for k in range(n - 1, -1, -1)])


def _single_qubit_matrix(op):
    """The 2x2 matrix of ``op``'s kind, RX/RY/RZ as exp(-i theta P / 2)."""
    if op.kind == "H":
        return (PAULI_X + PAULI_Z) / math.sqrt(2.0)
    if op.kind == "X":
        return PAULI_X
    pauli = {"RX": PAULI_X, "RY": PAULI_Y, "RZ": PAULI_Z}[op.kind]
    return math.cos(op.theta / 2.0) * np.eye(2) - 1j * math.sin(op.theta / 2.0) * pauli


def dense_gate(op, n):
    """The controlled gate ``op`` as a 2^n x 2^n matrix: I + (|t><t| on each
    control with trigger t, U - I on the target, I elsewhere)."""
    triggers = dict(op.controls)
    factors = []
    for q in range(n - 1, -1, -1):
        if q == op.target:
            factors.append(_single_qubit_matrix(op) - np.eye(2))
        elif q in triggers:
            factors.append(np.diag([1.0 - triggers[q], triggers[q]]))
        else:
            factors.append(np.eye(2))
    return np.eye(1 << n) + reduce(np.kron, factors)


def dense_channel_probs(gates, n, noise):
    """Diagonal of the 2^n x 2^n density matrix after the controlled gates
    ``gates`` from |0...0>, each gate followed by (1 - p) rho + (p/3) sum_P
    P rho P on its target."""
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for op in gates:
        u = dense_gate(op, n)
        rho = u @ rho @ u.conj().T
        p = noise.depol_ctrl if op.controls else noise.depol_1q
        paulis = [_on_qubit(m, op.target, n) for m in (PAULI_X, PAULI_Y, PAULI_Z)]
        rho = (1.0 - p) * rho + (p / 3.0) * sum(m @ rho @ m for m in paulis)
    return np.diag(rho).real


def reference_outcomes(circuit, basis, shots, noise, seed):
    """The broadcast sampler, kept as an oracle: exact outcome probabilities
    (Born rule of the final state, or the dense density matrix under gate
    noise) times the Kronecker product of the readout confusion matrices,
    then shots x 2^n cumulative sums compared with one uniform per shot."""
    n = circuit.num_qubits
    measured = _measured(circuit, basis)
    if noise.depol_1q == 0.0 and noise.depol_ctrl == 0.0:
        probs = np.abs(apply(measured, zero_state(n))) ** 2
    else:
        probs = dense_channel_probs(expand_branch_rotations(measured), n, noise)
    f = noise.readout_flip
    probs = reduce(np.kron, [np.array([[1.0 - f, f], [f, 1.0 - f]])] * n) @ probs
    rng = np.random.Generator(np.random.Philox(key=seed))
    probs = np.broadcast_to(probs, (shots, 1 << n))
    cum = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    u = rng.random(shots)
    return np.minimum((u[:, None] >= cum).sum(axis=1), (1 << n) - 1)


@st.composite
def uncontrolled_gates(draw, qubits):
    """An uncontrolled gate of any kind on one of ``qubits``."""
    kind = draw(st.sampled_from(GATE_KINDS))
    theta = draw(st.floats(-math.pi, math.pi)) if kind.startswith("R") else 0.0
    return GateOp(kind, draw(st.sampled_from(qubits)), theta)


@st.composite
def branch_rotations(draw, n):
    """An RY or RZ branch rotation on n >= 2 qubits, with 0 to 2^(n-1) angles."""
    thetas = draw(st.lists(st.floats(-math.pi, math.pi), max_size=1 << (n - 1)))
    return BranchRotation(draw(st.sampled_from(("RY", "RZ"))), thetas)


@st.composite
def jobs(draw, max_qubits=6):
    """A random circuit, plus a measurement basis. From two qubits up, each
    op is a branch rotation or an uncontrolled gate, either at any position."""
    n = draw(st.integers(1, max_qubits))
    ops = [draw(branch_rotations(n)) if n > 1 and draw(st.booleans())
           else draw(uncontrolled_gates(range(n))) for _ in range(draw(st.integers(0, 12)))]
    basis = tuple(draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n)))
    return Circuit(n, ops), basis


@st.composite
def shaped_jobs(draw, max_qubits=6):
    """A random circuit in the shape that sampling under gate noise accepts,
    plus a measurement basis: either uncontrolled gates on any qubits,
    measured in any basis, or branch rotations on qubits 1, ..., n - 1 as
    controls. Each control then gets one H before the first branch rotation
    and is measured in Z; qubit 0 is the free target of any gate anywhere,
    measured in any basis."""
    n = draw(st.integers(1, max_qubits))
    if n == 1 or draw(st.booleans()):
        ops = draw(st.lists(uncontrolled_gates(range(n)), max_size=12))
        return Circuit(n, ops), tuple(draw(st.lists(st.sampled_from("XYZ"), min_size=n,
                                                    max_size=n)))
    ops = [draw(branch_rotations(n)) if draw(st.booleans())
           else draw(uncontrolled_gates([0])) for _ in range(draw(st.integers(0, 12)))]
    first = next((i for i, op in enumerate(ops) if isinstance(op, BranchRotation)), len(ops))
    for q in draw(st.permutations(range(1, n))):
        ops.insert(draw(st.integers(0, first)), GateOp("H", q))
        first += 1
    basis = (draw(st.sampled_from("XYZ")),) + ("Z",) * (n - 1)
    return Circuit(n, ops), basis


@st.composite
def noisy_jobs(draw, noises):
    """A noise model from ``noises`` and a job for it: from ``shaped_jobs``
    under gate noise, else from ``jobs``."""
    noise = draw(noises)
    has_gate_noise = noise.depol_1q > 0.0 or noise.depol_ctrl > 0.0
    return draw(shaped_jobs() if has_gate_noise else jobs()), noise


seeds = st.integers(0, 2**64 - 1)
depol = st.sampled_from([0.0, 0.01, 0.3, 1.0])
noises = st.builds(NoiseModel, depol, depol, st.sampled_from([0.0, 0.03, 0.5]))


class _Words:
    """Stands in for a Philox bit generator: ``random_raw(n)`` returns the
    next n of ``w`` as a new array, as the real one does (the draw sorts
    it in place); ``sizes`` records each call's size."""

    def __init__(self, w):
        self.w, self.used, self.sizes = np.asarray(w, dtype=np.uint64), 0, []

    def random_raw(self, n):
        self.sizes.append(n)
        self.used += n
        return self.w[self.used - n:self.used].copy()


def assert_tallies_exact(probs, w, edges) -> _Words:
    """``simulator._tallies``, drawing ``edges[-1]`` shots with stops at
    ``edges`` from the words ``w``, gives per edge the bincount of the shots
    up to it of ``searchsorted(cum, u, side="right")`` clamped to dim - 1,
    u = (w >> 11) * 2^-53 being the uniform that ``Generator.random`` makes
    of w. Returns the stand-in bit generator that the draw read."""
    dim = probs.size
    cum = np.cumsum(probs / probs.sum())
    u = (np.asarray(w, dtype=np.uint64) >> 11) * 2.0**-53
    idx = np.minimum(np.searchsorted(cum, u, side="right"), dim - 1)
    words = _Words(w)
    table = simulator._tallies(probs, edges, words)
    assert table.shape == (len(edges), dim) and words.used == edges[-1]
    for end, hist in zip(edges, table):
        assert np.array_equal(hist, np.bincount(idx[:end], minlength=dim))
    return words


@st.composite
def tally_cases(draw):
    """Hand-built outcome probabilities with runs of zeros, and words whose
    uniform sits on a dyadic point j / 2^16, on the smallest uniform at or
    above a cum value c (k = w >> 11 at ceil(c * 2^53)), on the one below
    it, or anywhere. Every word's low 11 bits are random, so a draw that
    read them would miss. Weights of 0, 1 or 2 padded to a power-of-two
    total T <= 2^16 put every cum value on a dyadic point too, so that
    uniforms equal to cum values test which side of each comparison counts
    them; a last weight of 1 puts cum[-2] on (T - 1) / T. Dyadic uniforms
    repeat, so the sorted count also meets ties. The sizes drawn include
    both sides of ``_COMPARE_MAX``, where the draw turns from comparing to
    sorting."""
    dim = draw(st.one_of(st.sampled_from([2, simulator._COMPARE_MAX,
                                          simulator._COMPARE_MAX + 1, 4096]),
                         st.integers(2, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dyadic = draw(st.booleans())
    if dyadic:
        probs = rng.integers(0, 3, dim).astype(float)
    else:
        probs = rng.random(dim) ** draw(st.sampled_from([1, 8, 40]))
    for _ in range(draw(st.integers(0, 3))):
        first = rng.integers(dim)
        probs[first:first + rng.integers(1, dim + 1)] = 0.0
    if not probs.any():
        probs[rng.integers(dim)] = 1.0
    if dyadic:
        probs[-1] = 1.0
        total = 2.0 ** max(math.ceil(math.log2(probs.sum())), draw(st.integers(1, 16)))
        probs[np.flatnonzero(probs)[0]] += total - probs.sum()
    cum = np.cumsum(probs / probs.sum())
    shots = draw(st.integers(1, 3000))
    top = 2**53 - 1
    on_cum = np.minimum(np.ceil(cum[rng.integers(dim, size=shots)] * 2.0**53), top)
    on_cum = on_cum.astype(np.uint64)
    pools = [rng.integers(0, 2**16, shots, dtype=np.uint64) << 37, on_cum,
             np.maximum(on_cum, 1) - 1, rng.integers(0, top, shots, dtype=np.uint64,
                                                     endpoint=True)]
    k = np.choose(rng.integers(len(pools), size=shots), pools)
    w = (k << 11) | rng.integers(0, 2**11, shots, dtype=np.uint64)
    edges = sorted({*rng.integers(1, shots + 1, size=draw(st.integers(0, 4))), shots})
    return probs, w, edges


# Seven equal weights of 0.3 sum to a cum that ends at 1 - 2^-52, below the
# largest uniform 1 - 2^-53; six of 0.1 end at 1 + 2^-52. The words make
# the uniforms 0, 0.5, 1 - 2^-52, 1 - 2^-53, 0.75 and 1 - 2^-53 with low bits
# of 0, all ones or one of them set. A first weight of 0 puts cum[0] at 0,
# which no uniform is below, and a last one of 0 puts cum[1] at 1, which
# every uniform is below.
_BELOW_ONE, _ABOVE_ONE, _ZERO_FIRST = np.full(7, 0.3), np.full(6, 0.1), np.array([0.0, 1.0, 0.0])
_TOP_WORDS = ((np.array([0, 2**52, 2**53 - 2, 2**53 - 1, 3 * 2**51, 2**53 - 1], dtype=np.uint64)
               << 11) | np.array([0, 2**11 - 1, 2**11 - 1, 0, 2**10, 2**11 - 1], dtype=np.uint64))


@settings(max_examples=200, deadline=None)
@given(case=tally_cases())
@example(case=(_BELOW_ONE, _TOP_WORDS, [2, 6]))
@example(case=(_ABOVE_ONE, _TOP_WORDS, [6]))
@example(case=(_ZERO_FIRST, _TOP_WORDS, [1, 6]))
def test_tallies_match_searchsorted(case):
    assert_tallies_exact(*case)


def test_tally_examples_end_off_one():
    assert np.cumsum(_BELOW_ONE / _BELOW_ONE.sum())[-1] < 1.0 - 2**-53
    assert np.cumsum(_ABOVE_ONE / _ABOVE_ONE.sum())[-1] > 1.0
    assert np.cumsum(_ZERO_FIRST)[:-1].tolist() == [0.0, 1.0]
    assert ((_TOP_WORDS >> 11) * 2.0**-53).tolist() == [0.0, 0.5, 1.0 - 2**-52, 1.0 - 2**-53,
                                                        0.75, 1.0 - 2**-53]


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_words_are_the_generator_stream(seed):
    # The draw counts raw words on the claim that Generator.random makes
    # each uniform as (w >> 11) * 2^-53 of one word of the same stream, and
    # that a re-keyed bit generator restarts that stream, whatever it drew
    # before: here 3 words, and 5 then 6 after re-keying, which cut its
    # 4-word buffer.
    n = 1001
    words = np.random.Philox(key=seed).random_raw(n)
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random(n)
    assert ((words >> 11) * 2.0**-53).tobytes() == uniforms.tobytes()
    bit_generator = np.random.Philox(key=seed ^ 1)
    bit_generator.random_raw(3)
    simulator._keyed(bit_generator, seed)
    drawn = np.concatenate([bit_generator.random_raw(5), bit_generator.random_raw(6)])
    assert np.array_equal(drawn, words[:11])
    assert simulator._rng(seed).random(n).tobytes() == uniforms.tobytes()


def test_one_philox_per_row_stack(monkeypatch):
    # Each row re-keys one bit generator instead of building its own.
    made, philox = [], np.random.Philox

    def counted(*args, **kwargs):
        made.append(args)
        return philox(*args, **kwargs)

    rows = [(_ONE_QUBIT[0], _ONE_QUBIT[1], seed) for seed in range(150)]
    expected = [sample(circuit, basis, 200, seed=seed) for circuit, basis, seed in rows[:3]]
    monkeypatch.setattr(np.random, "Philox", counted)
    tables = simulator._sample_rows(rows, 200)
    assert len(made) == 1 and tables.shape == (150, 1, 2)
    assert all(np.array_equal(t, e) for t, e in zip(tables, expected))


@settings(max_examples=60, deadline=None)
@given(case=noisy_jobs(noises), shots=st.integers(1, 3000), seed=seeds)
def test_counts_match_broadcast_sampler(case, shots, seed):
    (circuit, basis), noise = case
    expected = np.bincount(reference_outcomes(circuit, basis, shots, noise, seed),
                           minlength=1 << circuit.num_qubits)
    assert np.array_equal(sample(circuit, basis, shots, noise, seed)[-1], expected)


# One-qubit jobs, so that chunks of 1 and 7 shots are counted by comparison;
# the drawn jobs are counted by comparison up to three qubits, by sorting above.
_ONE_QUBIT = (Circuit(1, (GateOp("RY", 0, 1.1),)), ("X",))


@settings(max_examples=30, deadline=None)
@given(case=noisy_jobs(noises), shots=st.integers(1, 700), seed=seeds)
@example(case=(_ONE_QUBIT, simulator.NOISELESS), shots=700, seed=3)
@example(case=(_ONE_QUBIT, NoiseModel(0.01, 0.0, 0.03)), shots=699, seed=2**64 - 1)
def test_counts_do_not_depend_on_chunk_size(case, shots, seed):
    (circuit, basis), noise = case
    hists = []
    for chunk in (1, 7, 1 << 16):
        with mock.patch.object(simulator, "SAMPLE_CHUNK", chunk):
            hists.append(sample(circuit, basis, shots, noise, seed)[-1])
    assert all(np.array_equal(h, hists[0]) for h in hists)


@settings(max_examples=40, deadline=None)
@given(case=noisy_jobs(noises), sizes=st.lists(st.integers(1, 3000), min_size=2, max_size=2),
       seed=seeds)
def test_smaller_job_is_prefix_of_larger(case, sizes, seed):
    (circuit, basis), noise = case
    small, large = sorted(sizes)
    outcomes = reference_outcomes(circuit, basis, large, noise, seed)
    assert np.array_equal(
        sample(circuit, basis, small, noise, seed)[-1],
        np.bincount(outcomes[:small], minlength=1 << circuit.num_qubits))


# Gate noise and readout flips are both on, so both sets of flips feed the draw.
noisy = st.builds(NoiseModel, st.sampled_from([0.01, 0.3]), depol, st.sampled_from([0.03, 0.5]))


@settings(max_examples=40, deadline=None)
@given(job=shaped_jobs(), checkpoints=st.lists(st.integers(1, 3000), min_size=1, max_size=6, unique=True),
       extra=st.integers(0, 50), noise=noisy, seed=seeds)
def test_checkpoint_prefix_is_the_smaller_job(job, checkpoints, extra, noise, seed):
    checkpoints = sorted(checkpoints)
    shots = checkpoints[-1] + extra
    result = sample(*job, shots, noise, seed, checkpoints=checkpoints)
    sums = result.sum(axis=1).tolist()
    assert sums[-1] == shots
    assert sums == sorted({*checkpoints, shots})
    for s in (*checkpoints, shots):
        row = result[sums.index(s)]
        assert np.array_equal(row, sample(*job, s, noise, seed)[-1])


@settings(max_examples=30, deadline=None)
@given(job=shaped_jobs(), edges=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       extra=st.integers(0, 9), noise=noisy, seed=seeds)
def test_checkpoints_around_chunk_edges(job, edges, extra, noise, seed):
    # Checkpoints one shot before, on and one shot after multiples of the
    # chunk; the smaller jobs they are checked against use the default chunk.
    checkpoints = sorted({7 * k + d for k in edges for d in (-1, 0, 1)})
    with mock.patch.object(simulator, "SAMPLE_CHUNK", 7):
        result = sample(*job, checkpoints[-1] + extra, noise, seed, checkpoints=checkpoints)
    sums = result.sum(axis=1).tolist()
    for s in checkpoints:
        assert np.array_equal(result[sums.index(s)],
                              sample(*job, s, noise, seed)[-1])


@settings(max_examples=200, deadline=None)
@given(shots=st.integers(1, 400), cuts=st.lists(st.integers(1, 400), max_size=12),
       chunk=st.integers(1, 40))
def test_chunks_never_yield_an_empty_segment(shots, cuts, chunk):
    # The comparison count sums each segment with np.add.reduceat, which
    # returns the element at an empty segment's start instead of 0, so an
    # empty segment would break the per-shot lookup's table.
    stops = sorted({*(s for s in cuts if s <= shots), shots})
    w = np.random.default_rng(shots).integers(0, 2**64, shots, dtype=np.uint64)
    for dim in (2, simulator._COMPARE_MAX + 1):
        with mock.patch.object(simulator, "SAMPLE_CHUNK", chunk):
            sizes = assert_tallies_exact(np.arange(1.0, dim + 1), w, stops).sizes
        # A full chunk is one random_raw call of SAMPLE_CHUNK words.
        assert all(m == chunk for m in sizes[:-1])
        assert 0 < sizes[-1] <= chunk


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_zero_flips_are_skipped_bit_for_bit(n, data):
    flips = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                               min_size=n, max_size=n))
    weights = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                                 min_size=1 << n, max_size=1 << n))
    probs = np.array(weights)
    if probs.any():
        probs /= probs.sum()
    expected = confuse_readout_unskipped(probs, flips)
    assert simulator._confuse_readout(probs, flips).tobytes() == expected.tobytes()


@pytest.mark.parametrize("checkpoints", [(0,), (101,), (50, 20), (20, 20, 50), (2.5,), (True, 50)])
def test_invalid_checkpoints_rejected(checkpoints):
    with pytest.raises(DomainError):
        sample(Circuit(1, (GateOp("H", 0),)), ("Z",), 100, checkpoints=checkpoints)


@settings(max_examples=100, deadline=None)
@given(job=jobs(), state_seed=seeds)
def test_apply_matches_dense_gate_product(job, state_seed):
    circuit, _ = job
    n = circuit.num_qubits
    rng = np.random.default_rng(state_seed)
    initial = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    initial /= np.linalg.norm(initial)
    expected = initial
    for op in expand_branch_rotations(circuit):
        expected = dense_gate(op, n) @ expected
    assert np.max(np.abs(apply(circuit, initial) - expected)) <= 1e-13


@settings(max_examples=200, deadline=None)
@given(job=jobs(), state_seed=seeds)
def test_apply_matches_controlled_gates_in_bytes(job, state_seed):
    # Each branch of a branch rotation gets the bytes of its own controlled
    # gate, and each uncontrolled gate those of the controlled-gate kernel.
    circuit, _ = job
    n = circuit.num_qubits
    rng = np.random.default_rng(state_seed)
    initial = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    initial /= np.linalg.norm(initial)
    expected = apply_gates(initial.copy(), expand_branch_rotations(circuit), n)
    assert apply(circuit, initial).tobytes() == expected.tobytes()


def dense_law(circuit, noise):
    """``dense_channel_probs`` of ``circuit`` with the readout flips applied as
    the Kronecker product of the per-qubit confusion matrices."""
    n = circuit.num_qubits
    f = noise.readout_flip
    confusion = reduce(np.kron, [np.array([[1.0 - f, f], [f, 1.0 - f]])] * n)
    return confusion @ dense_channel_probs(expand_branch_rotations(circuit), n, noise)


@settings(max_examples=100, deadline=None)
@given(job=jobs(), data=st.data())
def test_noiseless_distributions_are_the_born_rule(job, data):
    # Each row, whatever the other rows of its stack, is bit for bit the Born
    # rule of the circuit with its basis-change gates appended.
    circuit, basis = job
    n = circuit.num_qubits
    bases = [basis] + data.draw(st.lists(st.lists(st.sampled_from("XYZ"), min_size=n,
                                                   max_size=n), max_size=3))
    dists = simulator._distributions([(circuit, b) for b in bases], simulator.NOISELESS)
    assert dists.shape == (len(bases), 1 << n)
    for probs, b in zip(dists, bases):
        born = abs_complex(apply(_measured(circuit, b), zero_state(n))) ** 2
        assert probs.tobytes() == born.tobytes()


@settings(max_examples=100, deadline=None)
@given(job_noise=noisy_jobs(noises))
def test_distributions_are_read_only_laws(job_noise):
    (circuit, basis), noise = job_noise
    n = circuit.num_qubits
    dists = simulator._distributions([(circuit, basis), (circuit, ("Z",) * n)], noise)
    assert dists.shape == (2, 1 << n) and not dists.flags.writeable
    with pytest.raises(ValueError):
        dists[0, 0] = 0.0
    assert np.all(dists >= 0.0) and np.max(np.abs(dists.sum(axis=1) - 1.0)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(job=shaped_jobs(), noise=noises)
def test_density_path_matches_dense_channel(job, noise):
    # The law stage against the dense Kraus sum of the whole density matrix,
    # readout flips included.
    circuit, basis = job
    probs = simulator._distributions([(circuit, basis)], noise)[0]
    assert np.max(np.abs(probs - dense_law(_measured(circuit, basis), noise))) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(job=jobs(), noise=noises)
def test_every_accepted_circuit_matches_dense_channel(job, noise):
    # The shape check on general circuits: whatever it accepts is exact.
    circuit, basis = job
    try:
        probs = simulator._distributions([(circuit, basis)], noise)[0]
    except DomainError:
        return
    assert np.max(np.abs(probs - dense_law(_measured(circuit, basis), noise))) <= 1e-14


# Significance level of the two-sample chi-square tests against the
# trajectory oracle, fixed before any of them was run.
CHI2_ALPHA = 1e-4


def assert_same_distribution(a, b):
    """Chi-square test that two equal-size histograms share a distribution;
    bins holding fewer than 20 shots of both are pooled into one."""
    assert a.sum() == b.sum()
    small = a + b < 20
    a = np.append(a[~small], a[small].sum())
    b = np.append(b[~small], b[small].sum())
    keep = a + b > 0
    a, b = a[keep], b[keep]
    stat = float(np.sum((a - b) ** 2 / (a + b)))
    p_value = chi2.sf(stat, a.size - 1)
    assert p_value >= CHI2_ALPHA, f"chi2 {stat:.1f} on {a.size - 1} dof, p = {p_value:.2g}"


def _batch_circuit(count, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 3))
    batch = VectorBatch(v / np.linalg.norm(v, axis=1, keepdims=True))
    return full_circuit(batch, RotationSpec(np.array([0.0, 0.6, 0.8]), 1.0))


@pytest.mark.parametrize("data_basis", "XYZ")
def test_nisq_batch_matches_trajectories(data_basis):
    circuit = _batch_circuit(16, 8)
    basis = (data_basis,) + ("Z",) * (circuit.num_qubits - 1)
    noise = NOISE_PRESETS["nisq-lite"]
    shots = 20000
    assert_same_distribution(sample(circuit, basis, shots, noise, 21)[-1],
                             trajectory_hist(circuit, basis, shots, noise, 22))


def assert_follows_law(hist, probs):
    """Chi-square goodness-of-fit test of a histogram against an exact law;
    bins expecting fewer than 20 shots are pooled into one."""
    expected = hist.sum() * probs
    small = expected < 20
    observed = np.append(hist[~small], hist[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    keep = (observed > 0) | (expected > 0)
    observed, expected = observed[keep], expected[keep]
    stat = float(np.sum((observed - expected) ** 2 / expected))
    p_value = chi2.sf(stat, observed.size - 1)
    assert p_value >= CHI2_ALPHA, f"chi2 {stat:.1f} on {observed.size - 1} dof, p = {p_value:.2g}"


@pytest.mark.parametrize("noise", [NOISE_PRESETS["nisq-lite"], NoiseModel(0.05, 0.1, 0.03)],
                         ids=["nisq-lite", "heavy"])
@pytest.mark.parametrize("data_basis", "XYZ")
def test_trajectories_follow_the_distribution(data_basis, noise):
    # Per-shot Pauli faults and readout flips drawn one by one, against the
    # law that ``_distributions`` folds them into.
    circuit = _batch_circuit(4, 9)
    basis = (data_basis,) + ("Z",) * (circuit.num_qubits - 1)
    probs = simulator._distributions([(circuit, basis)], noise)[0]
    assert_follows_law(trajectory_hist(circuit, basis, 20000, noise, 23), probs)


def noise_folding_callers() -> dict[str, set[str]]:
    """The top-level functions of ``src/qrot`` that call ``_gate_noise_flips``
    or ``_confuse_readout``, by the name called; a call outside any function
    counts as the module's."""
    package = Path(__file__).resolve().parent.parent / "src" / "qrot"
    found = {"_gate_noise_flips": set(), "_confuse_readout": set()}
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(node, 'name', '<module>')}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in found:
                        found[name].add(owner)
    return found


def test_only_the_law_stage_folds_noise():
    # One exact law: every caller that needs a distribution takes it from
    # ``_distributions`` rather than folding the noise itself.
    assert noise_folding_callers() == {"_gate_noise_flips": {"simulator._distributions"},
                                       "_confuse_readout": {"simulator._distributions"}}


# Qubit 1 controls two branch rotations while coherent and is then rotated,
# so the off-diagonal blocks of a control would reach the outcome
# distribution.
_REUSED_CONTROL = Circuit(3, (GateOp("H", 1), GateOp("H", 2), GateOp("RX", 0, 0.8),
                              BranchRotation("RY", (0.4, 1.9)),
                              BranchRotation("RZ", (1.3, -0.5, 2.2)),
                              GateOp("RY", 1, 0.6), GateOp("H", 0)))
_ROTATION = BranchRotation("RY", (0.3, 1.9))
_PREPARED = (GateOp("H", 1), _ROTATION)


@pytest.mark.parametrize("circuit, basis", [
    (Circuit(2, (GateOp("X", 1), _ROTATION)), ("Z", "Z")),
    (Circuit(2, (_ROTATION, GateOp("H", 1))), ("Z", "Z")),
    (Circuit(2, _PREPARED + (GateOp("RX", 1, 0.4),)), ("Z", "Z")),
    (Circuit(2, _PREPARED), ("X", "X")),
    (Circuit(2, _PREPARED), ("Z", "Y")),
    (_REUSED_CONTROL, ("Z", "Z", "Z")),
    (_REUSED_CONTROL, ("X", "Y", "Z")),
    (_REUSED_CONTROL, ("Y", "X", "X")),
], ids=["control-prepared-by-x", "control-used-before-its-h",
        "control-targeted-after-its-h", "control-measured-in-x", "control-measured-in-y",
        "reused-control-zzz", "reused-control-xyz", "reused-control-yxx"])
def test_out_of_shape_gate_noise_rejected(circuit, basis):
    with pytest.raises(DomainError, match="gate noise"):
        sample(circuit, basis, 100, NoiseModel(0.05, 0.1, 0.04), 31)
    for noise in (NoiseModel(readout_flip=0.1), simulator.NOISELESS):
        expected = np.bincount(reference_outcomes(circuit, basis, 500, noise, 31),
                               minlength=1 << circuit.num_qubits)
        assert np.array_equal(sample(circuit, basis, 500, noise, 31)[-1], expected)


def test_several_default_chunks_with_readout_flips():
    # More than one SAMPLE_CHUNK and a short last chunk, under gate noise.
    # Qubits 1 and 2 are the controls and are read in Z; qubit 0 is the target.
    circuit = Circuit(3, (GateOp("H", 1), GateOp("H", 2),
                          BranchRotation("RY", (0.7, -1.2, 2.6)),
                          GateOp("RX", 0, 2.1)))
    shots = 2 * simulator.SAMPLE_CHUNK + 3
    noise = NoiseModel(0.02, 0.05, 0.07)
    expected = np.bincount(reference_outcomes(circuit, ("Y", "Z", "Z"), shots, noise, 99),
                           minlength=8)
    assert np.array_equal(sample(circuit, ("Y", "Z", "Z"), shots, noise, 99)[-1],
                          expected)


def tier_tables() -> str:
    """The sha256 of the count tables of a 512-outcome job, noiseless and
    under nisq-lite, and of a 2-outcome job, each over two full chunks and a
    short one, with checkpoints that cut both full chunks."""
    digest = hashlib.sha256()
    shots = 2 * simulator.SAMPLE_CHUNK + 5
    checkpoints = (1, 1000, 65535, 65537, 100000)
    circuit = _batch_circuit(256, 9)
    for noise in (simulator.NOISELESS, NOISE_PRESETS["nisq-lite"]):
        digest.update(sample(circuit, ("Y",) + ("Z",) * 8, shots, noise, 12,
                             checkpoints=checkpoints).tobytes())
    digest.update(sample(*_ONE_QUBIT, shots, seed=13, checkpoints=checkpoints).tobytes())
    return digest.hexdigest()


def test_tables_match_at_baseline_tier():
    # numpy sorts and compares with other kernels at each SIMD tier; the
    # counts of a lookup per shot must not depend on which.
    out = run_at_baseline_tier("import test_sampling as t, tiers\n"
                               "print(t.tier_tables())\n"
                               "print(tiers.dispatch_target())\n")
    tables, target = out.split()
    assert target.startswith("baseline") or target == dispatch_target()
    assert tables == tier_tables()


def test_noiseless_sample_memory_does_not_grow_with_shots():
    circuit = _batch_circuit(256, 5)
    basis = ("X",) + ("Z",) * 8
    for shots in (128_000, 1_280_000):
        tracemalloc.start()
        try:
            res = sample(circuit, basis, shots, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res[-1].sum() == shots
        # The draw holds one chunk of words (512 KiB) at any shot count;
        # measured peak 549,311 and 554,567 bytes.
        assert peak < 4 * 2**20, f"{shots} shots peaked at {peak / 2**20:.1f} MiB"


def test_noisy_cli_maximum_sample_memory_bound():
    # The widest noisy batch the CLI accepts, 2,048 vectors on 12 qubits.
    # Gate noise costs no memory of its own: the job holds the 2^12
    # statevector (64 KiB), its probabilities and one chunk of draws.
    # Measured peak as this test runs it, alone or in the suite (numpy
    # 2.4.6): 313,912 to 314,512 bytes, 0.30 MiB.
    circuit = _batch_circuit(2048, 6)
    basis = ("Y",) + ("Z",) * 11
    tracemalloc.start()
    try:
        res = sample(circuit, basis, 1000, NOISE_PRESETS["nisq-lite"], seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res[-1].sum() == 1000
    assert peak < 2**20, f"peaked at {peak / 2**20:.1f} MiB"


def test_noiseless_full_chunk_sample_memory_bound():
    # The widest circuit at more than two full SAMPLE_CHUNK draws: the
    # chunk of words, its segments sorted in place, and the counts of each
    # segment must stay within the peak of an earlier per-shot lookup,
    # 1,709,803 bytes on this job. Measured peak as this test runs it
    # (numpy 2.4.6): 724,703 bytes.
    circuit = _batch_circuit(2048, 6)
    basis = ("X",) + ("Z",) * 11
    shots = 2 * simulator.SAMPLE_CHUNK + 5
    tracemalloc.start()
    try:
        res = sample(circuit, basis, shots, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res[-1].sum() == shots
    assert peak <= 1_709_803, f"peaked at {peak} bytes"


def test_checkpoint_sample_memory_bound():
    # The job above with 32 checkpoints inside its first chunk: on top of
    # that job's bound, it may hold the 32 rows of its prefix table and
    # nothing more, 1,048,576 + 1,709,803 bytes. The table's 33rd row is the
    # histogram that the job above holds too. Each segment is counted into
    # its own row, with no segments x outcomes array; measured peak:
    # 2,204,234 bytes.
    circuit = _batch_circuit(2048, 6)
    basis = ("X",) + ("Z",) * 11
    shots = 2 * simulator.SAMPLE_CHUNK + 5
    checkpoints = [2000 * k for k in range(1, 33)]
    tracemalloc.start()
    try:
        res = sample(circuit, basis, shots, seed=4, checkpoints=checkpoints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.shape == (33, 4096) and checkpoints[-1] < simulator.SAMPLE_CHUNK
    assert peak <= 2_758_379, f"peaked at {peak} bytes"


def test_one_qubit_checkpoint_sample_memory_bound():
    # A sweep-shaped draw counted by comparison: one qubit, more than two
    # full SAMPLE_CHUNK draws and 19 checkpoints cutting both full chunks.
    # It must peak no higher than an earlier per-shot lookup on this job,
    # 1,151,400 bytes; the draw peaks at 857,843 (the chunk of words, its
    # comparison mask, and reduceat's int32 cast of the mask).
    # A one-shot draw first loads what numpy imports on its first draw.
    circuit = _ONE_QUBIT[0]
    shots = 2 * simulator.SAMPLE_CHUNK + 5
    checkpoints = [6800 * k for k in range(1, 20)]
    sample(circuit, ("X",), 1, seed=4)
    tracemalloc.start()
    try:
        res = sample(circuit, ("X",), shots, seed=4, checkpoints=checkpoints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.shape == (20, 2) and res[-1].sum() == shots
    assert peak <= 1_151_400, f"peaked at {peak} bytes"


def test_chunk_ends_are_made_as_drawn(monkeypatch):
    # 10**10 shots end 152,588 chunks; a draw that listed them all before
    # its first uniform peaked at 23,925,330 bytes. The stub bit generator
    # raises at its first call, so the peak is what sample holds before any
    # word is drawn: the law and the count table.
    class FirstDraw(Exception):
        pass

    class Unreached:
        def random_raw(self, *args, **kwargs):
            raise FirstDraw

    monkeypatch.setattr(simulator, "_keyed", lambda bit_generator, seed: Unreached())
    shots = 10**10
    tracemalloc.start()
    try:
        with pytest.raises(FirstDraw):
            sample(Circuit(1), ("Z",), shots, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peaked at {peak / 2**20:.1f} MiB"
