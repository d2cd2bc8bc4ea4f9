"""The benchmark's workloads: CLI jobs and the inputs they read, made from a seed.

Everything here is plain numpy and does not import ``qrot``, so the program
under test sees only argv and the files written here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# The `nisq-lite` preset as (depol_1q, depol_ctrl, readout_flip). Only the
# correctness tolerance reads these numbers; the jobs pass the preset name.
NISQ_LITE = (0.001, 0.01, 0.02)
NOISELESS = (0.0, 0.0, 0.0)

SHOTS_MIN, SHOTS_MAX, GRID_POINTS = 200, 20000, 20
# Process tomography runs 4 inputs x 3 bases, state tomography 3 bases.
CIRCUITS_PER_GRID_POINT = 15


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the benchmark expects of it."""

    kind: str                 # "sweep" or "multi"
    argv: tuple[str, ...]
    out: str                  # artifact path
    noise: tuple[float, float, float]
    mitigate: bool
    requested_shots: int      # from the job arguments, never from the program
    trials: int = 0           # sweep only
    backend: str = ""         # sweep only
    vectors: np.ndarray | None = None   # multi only: the unit vectors written
    axis: np.ndarray | None = None
    angle: float = 0.0

    @property
    def operations(self) -> int:
        """Sweep records or extracted vectors the job must produce."""
        if self.kind == "sweep":
            return self.trials * len(shot_grid()) * 2
        return len(self.vectors)


def shot_grid() -> list[int]:
    """The sweep's logarithmic shot grid, recomputed independently of qrot."""
    grid = np.rint(np.geomspace(SHOTS_MIN, SHOTS_MAX, GRID_POINTS)).astype(int)
    return [int(s) for s in dict.fromkeys(grid.tolist())]


def _unit_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _job_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _sweep(rng, workdir: str, tag: str, backend: str, trials: int,
           mitigate: bool) -> Job:
    seed = _job_seed(rng)
    out = os.path.join(workdir, f"{tag}.csv")
    argv = ["sweep", "--backends", backend, "--trials", str(trials),
            "--points", str(GRID_POINTS), "--shots-min", str(SHOTS_MIN),
            "--shots-max", str(SHOTS_MAX), "--seed", str(seed), "--out", out]
    if mitigate:
        argv.append("--mitigate")
    noise = NOISELESS if backend == "noiseless" else NISQ_LITE
    requested = trials * sum(shot_grid()) * CIRCUITS_PER_GRID_POINT
    return Job("sweep", tuple(argv), out, noise, mitigate, requested,
               trials=trials, backend=backend)


def _multi(rng, workdir: str, tag: str, p: int, shots: int, noise: str,
           mitigate: bool) -> Job:
    vectors = _unit_vectors(rng, p)
    axis = _unit_vectors(rng, 1)[0]
    angle = float(rng.uniform(0.0, 2.0 * np.pi))
    seed = _job_seed(rng)
    vec_path = os.path.join(workdir, f"{tag}-vectors.json")
    with open(vec_path, "w") as fh:
        json.dump(vectors.tolist(), fh)
    out = os.path.join(workdir, f"{tag}.json")
    # "--axis=" keeps argparse from reading a leading minus as an option.
    argv = ["multi", "--vectors", vec_path,
            "--axis=" + ",".join(repr(float(x)) for x in axis),
            "--angle", repr(angle), "--shots", str(shots), "--noise", noise,
            "--seed", str(seed), "--out", out]
    if mitigate:
        argv.append("--mitigate")
    return Job("multi", tuple(argv), out,
               NOISELESS if noise == "ideal" else NISQ_LITE, mitigate,
               3 * shots * p, vectors=vectors, axis=axis, angle=angle)


# Why each workload exists; BENCHMARK.json carries the same reasons.
WORKLOADS = {
    "sweep-ideal": "noiseless sweep: 3000 one-qubit sample calls and 800 Jacobi "
                   "eigensolves, so per-call overhead in sampling, Generator "
                   "set-up and 2x2/4x4 linalg dominates",
    "noisy-mitigated": "nisq-lite sweep and 16-vector multi with mitigation: "
                       "per-shot Pauli trajectories (uncontrolled and controlled "
                       "gates), readout calibration and NNLS mitigation",
    "multi-wide": "noiseless 256-vector multi: a 9-qubit circuit, three wide "
                  "sample calls over shots x 512 outcomes, branch tally and the "
                  "largest artifact; the memory workload",
}


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """The workload's jobs in run order; writes their input files to ``workdir``."""
    rng = np.random.default_rng(seed)
    if workload == "sweep-ideal":
        return [_sweep(rng, workdir, "sweep", "noiseless", 10, False)]
    if workload == "noisy-mitigated":
        return [_sweep(rng, workdir, "sweep", "nisq-lite", 2, True),
                _multi(rng, workdir, "multi", 16, 2000, "nisq-lite", True)]
    if workload == "multi-wide":
        return [_multi(rng, workdir, "multi", 256, 500, "ideal", False)]
    raise ValueError(f"unknown workload {workload!r}")
