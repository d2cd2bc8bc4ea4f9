"""Correctness of job artifacts, judged independently of ``qrot``.

Oracles come from this file's own Rodrigues formula. An estimate passes when
it lies within the shot-noise bound of the protocol: with three Pauli bases
at N samples each, every Bloch component has variance at most 1/N, so the
angle between an estimated direction and the truth exceeds K/sqrt(N) with
probability exp(-K^2/2). K is fixed here, before any measurement, so that a
chance miss has probability 1e-8 per item. Gate infidelity, quadratic in the
same errors, gets the matching bound K^2/N.

Noise only widens the bound through quantities derived from the noise model:
a depolarizing probability p on a gate shrinks the data qubit's Bloch vector
by 1 - 4p/3, a readout flip f by 1 - 2f (mitigation undoes the shrink but
not the variance it costs, plus at most 6f/N from the calibration's own
shots), and a readout flip on a control qubit moves shots to another branch,
which biases the branch's direction by at most atan(c / (1 - 2c)) for a
misassigned fraction c.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from workloads import Job, shot_grid

K = math.sqrt(2.0 * math.log(1e8))

# Gates on the data qubit of one single-qubit tomography circuit, worst case:
# two preparation gates, the five-gate rotation and two basis-change gates.
SWEEP_DATA_GATES = 9


def rodrigues(axis, angle: float, v) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    v = np.asarray(v, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * float(axis @ v) * (1.0 - c)


def angle_between(u, v) -> float:
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(u @ v))


def _sigma(noise, mitigate: bool, data_gates_1q: int, data_gates_ctrl: int,
           n: float) -> float:
    """Standard deviation of one transverse direction component at N = n."""
    p1, pc, f = noise
    shrink = ((1.0 - 4.0 * p1 / 3.0) ** data_gates_1q
              * (1.0 - 4.0 * pc / 3.0) ** data_gates_ctrl * (1.0 - 2.0 * f))
    inflation = 1.0 + 6.0 * f if mitigate else 1.0
    return math.sqrt(inflation / n) / shrink


def sweep_failures(job: Job, path: str) -> int:
    """Records of a sweep CSV that are missing, malformed or out of bound."""
    label = job.backend + "+mit" if job.mitigate and job.backend != "noiseless" \
        else job.backend
    expected = {(trial, shots, metric)
                for trial in range(job.trials) for shots in shot_grid()
                for metric in ("gate_fidelity", "angle_deg")}
    seen = set()
    bad = 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["backend", "trial", "shots", "metric", "value"]:
        return len(expected)
    for row in rows[1:]:
        try:
            backend, trial, shots, metric, value = row
            key = (int(trial), int(shots), metric)
            value = float(value)
        except ValueError:
            bad += 1
            continue
        if backend != label or key not in expected or key in seen:
            bad += 1
            continue
        seen.add(key)
        sigma = _sigma(job.noise, job.mitigate, SWEEP_DATA_GATES, 0, key[1])
        if metric == "angle_deg":
            ok = 0.0 <= value <= math.degrees(K * sigma)
        else:
            ok = 1.0 - (K * sigma) ** 2 <= value <= 1.0 + 1e-9
        bad += not ok
    return bad + len(expected - seen)


def multi_failures(job: Job, path: str) -> int:
    """Vectors of a multi JSON artifact that are missing, carry an error, or
    lie outside the bound around this file's own oracle."""
    p = len(job.vectors)
    with open(path) as fh:
        doc = json.load(fh)
    rot = doc["rotation"]
    if (angle_between(rot["axis"], job.axis) > 1e-9
            or abs(rot["angle_r"] - job.angle) > 1e-12):
        return p
    controls = max(1, math.ceil(math.log2(p)))
    misassigned = 1.0 - (1.0 - job.noise[2]) ** controls
    bias = math.atan(misassigned / (1.0 - 2.0 * misassigned))
    by_index = {e.get("index"): e for e in doc["vectors"]}
    bad = 0
    for i, v in enumerate(job.vectors, start=1):
        entry = by_index.get(i)
        if entry is None or entry.get("error") is not None or entry["extracted"] is None:
            bad += 1
            continue
        oracle = rodrigues(job.axis, job.angle, v)
        n = entry["samples"] / 3.0
        sigma = _sigma(job.noise, job.mitigate, 7, 2 * p, n) / (1.0 - 2.0 * misassigned)
        ok = (n > 0
              and np.allclose(entry["oracle"], oracle, atol=1e-9)
              and angle_between(entry["extracted"], oracle) <= bias + K * sigma)
        bad += not ok
    return bad + (len(by_index) != p)


def failures(job: Job, path: str) -> int:
    """Operations of ``job`` that failed, judged from its artifact at ``path``.

    A missing or unreadable artifact fails every operation.
    """
    try:
        if job.kind == "sweep":
            return min(sweep_failures(job, path), job.operations)
        return min(multi_failures(job, path), job.operations)
    except (OSError, ValueError, KeyError, TypeError):
        return job.operations
