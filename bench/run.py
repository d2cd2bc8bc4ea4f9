"""Benchmark of the qrot CLI workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-ideal --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each repetition is a fresh child process (``child.py``) that imports qrot from
the checkout's ``src``, builds the workload's inputs from the seed and runs its
jobs through ``qrot.cli.main``, one at a time, on one CPU and with one BLAS
thread. Repetitions run one after another until ``--seconds`` is used up;
timings are medians over them. Each time is scaled by the reference probe
(``probe.py``) that this process runs just before and just after the
repetition, so it reads in seconds of a machine of fixed speed; the unscaled
figures are kept in the result file and printed in the summary.

``--trace 0`` reports the end-to-end metrics, measured untraced. ``--trace 1``
cycles through untraced, traced and memory-traced repetitions (see
``spans.py``): per-layer times come from the traced ones, the tracemalloc peak
of ``sample`` from the memory-traced ones, and the tracing overhead from
traced against untraced wall time. Counts must repeat exactly across all
traced repetitions.

Every artifact is checked against this benchmark's own oracles (``check.py``)
and its sha256 recorded per job; digests that differ between repetitions, or
from an earlier run of the same source tree and seed, are flagged and make the
run incorrect. Run metadata, digests and spans go to ``.bench_out/`` in the
checkout. The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata as pkg_metadata
from time import perf_counter

import numpy as np

import check
import spans
from probe import REFERENCE_S, probe_seconds
from workloads import WORKLOADS, make_jobs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
TIME_LIMIT_S = 170.0      # a run must end well inside 180 s
# One BLAS thread per child. With the default of one per core, the second
# thread contends with the host on a 2-vCPU machine and the noisy workload
# runs both slower and several times less steadily.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "shots_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
# Per-layer figures that are counts of work: they must repeat exactly.
EXACT_SUFFIXES = (".calls", ".shots", ".amplitudes", ".artifact_bytes",
                  ".failed_calls", ".useful_frac", ".shot_reuse")


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_reuse")):
        return "ratio"
    return "count"


def source_hash(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_metadata(root: str, src: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": source_hash(src),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": pkg_metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "ram_gb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30,
    }


def run_child(root: str, src: str, workload: str, seed: int, workdir: str,
              mode: str, timeout: float) -> dict | None:
    """One repetition in a fresh process; None when the process failed."""
    request = os.path.join(workdir, "request.json")
    result = os.path.join(workdir, "result.json")
    with open(request, "w") as fh:
        json.dump({"src": src, "workload": workload, "seed": seed,
                   "workdir": workdir, "mode": mode}, fh)
    if os.path.exists(result):
        os.remove(result)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(BLAS_ENV)
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"),
                               request, result], cwd=root, env=env,
                              stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: repetition exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result):
        print(f"{workload}: repetition exited with {proc.returncode}", file=sys.stderr)
        return None
    with open(result) as fh:
        return json.load(fh)


def evaluate(rep: dict | None, jobs) -> dict:
    """Failed operations, artifact digests and sizes of one repetition."""
    attempted = sum(job.operations for job in jobs)
    if rep is None:
        return {"ok": False, "attempted": attempted, "failed": attempted,
                "digests": None, "artifact_bytes": 0}
    failed, digests, size = 0, [], 0
    for job, rc in zip(jobs, rep["exit_codes"]):
        if rc != 0 or not os.path.exists(job.out):
            failed += job.operations
            digests.append(None)
            continue
        failed += check.failures(job, job.out)
        digests.append(sha256_file(job.out))
        size += os.path.getsize(job.out)
    return {"ok": True, "attempted": attempted, "failed": failed,
            "digests": digests, "artifact_bytes": size}


def digest_flags(reps, registry_path: str, key: str) -> list[str]:
    """Messages for digests that differ between repetitions or from an
    earlier run of the same source tree, workload and seed."""
    seen = [r["digests"] for r in reps if r["digests"] is not None]
    flags = []
    if any(d != seen[0] for d in seen):
        flags.append("artifact digests differ between repetitions")
    registry = {}
    if os.path.exists(registry_path):
        with open(registry_path) as fh:
            registry = json.load(fh)
    if seen:
        earlier = registry.get(key)
        if earlier is not None and earlier != seen[0]:
            flags.append("artifact digests differ from an earlier run of the "
                         "same source and seed")
        registry.setdefault(key, seen[0])
        with open(registry_path, "w") as fh:
            json.dump(registry, fh, indent=1, sort_keys=True)
    return flags


def _median(values) -> float:
    return float(statistics.median(values))


def scaled(rep: dict, seconds: float) -> float:
    """A time of ``rep`` in seconds of the reference machine (see probe.py)."""
    return seconds * REFERENCE_S / rep["probe_s"]


def traced_metrics(by_mode: dict, requested: int) -> tuple[dict, list[str]]:
    layers = {}
    for mode in ("spans", "memory"):
        layers[mode] = []
        for rep in by_mode[mode]:
            m = spans.layer_metrics(rep["spans"], requested)
            m = {k: scaled(rep, v) if k.endswith("self_s") else v for k, v in m.items()}
            m["cli.artifact_bytes"] = rep["artifact_bytes"]
            layers[mode].append(m)
    flags = []
    out = {}
    for name in layers["spans"][0]:
        counts = [m[name] for m in layers["spans"] + layers["memory"]]
        if name.endswith(EXACT_SUFFIXES) and any(v != counts[0] for v in counts):
            flags.append(f"{name} differs between traced repetitions: {counts}")
        source = "memory" if name == "simulator.sample.peak_mb" else "spans"
        out[name] = _median([m[name] for m in layers[source]])
    out["process.cpu_s"] = _median([scaled(r, r["cpu_s"]) for r in by_mode["plain"]])
    out["trace.overhead_frac"] = (
        _median([scaled(r, r["wall_s"]) for r in by_mode["spans"]])
        / _median([scaled(r, r["wall_s"]) for r in by_mode["plain"]]) - 1.0)
    return out, flags


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: bool, meta: dict) -> dict:
    src = os.path.join(root, "src")
    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, "work", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    # The checks need the jobs' inputs; each child builds the same ones again
    # as part of its set-up.
    jobs = make_jobs(workload, seed, workdir)
    requested = sum(job.requested_shots for job in jobs)
    modes = ("plain", "spans", "memory") if trace else ("plain",)
    min_reps = 1 if trace else 3

    reps, durations = [], []
    begin = perf_counter()
    while True:
        mode = modes[len(reps) % len(modes)]
        for job in jobs:
            if os.path.exists(job.out):
                os.remove(job.out)
        t = perf_counter()
        probe_before = probe_seconds()
        raw = run_child(root, src, workload, seed, workdir, mode,
                        TIME_LIMIT_S - (perf_counter() - begin))
        probe_after = probe_seconds()
        durations.append((mode, perf_counter() - t))
        rep = evaluate(raw, jobs)
        rep["mode"] = mode
        rep["probe_s"] = (probe_before + probe_after) / 2.0
        if raw is not None:
            rep.update(raw)
        reps.append(rep)
        if raw is None:
            break
        elapsed = perf_counter() - begin
        nxt = modes[len(reps) % len(modes)]
        estimate = _median([d for m, d in durations if m == nxt] or
                           [d for _, d in durations])
        done = all(sum(r["mode"] == m for r in reps) >= min_reps for m in modes)
        if (done and elapsed + estimate > seconds) or elapsed + 2 * estimate > TIME_LIMIT_S:
            break

    good = [r for r in reps if r["ok"]]
    by_mode = {m: [r for r in good if r["mode"] == m] for m in modes}
    flags = [f"{len(reps) - len(good)} repetition(s) did not complete"] \
        if len(good) < len(reps) else []
    flags += digest_flags(good, os.path.join(out_dir, "digests.json"),
                          f"{meta['source_sha256']}:{workload}:{seed}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    if not all(by_mode.values()):
        raise RuntimeError(f"{workload}: no complete repetition in some mode")
    plain = by_mode["plain"]
    if trace:
        metrics, count_flags = traced_metrics(by_mode, requested)
        flags += count_flags
        units = {name: per_layer_unit(name) for name in metrics}
        with open(os.path.join(out_dir, f"{workload}.spans.jsonl"), "w") as fh:
            for i, rep in enumerate(reps):
                for sid, row in enumerate(rep.get("spans") or ()):
                    fh.write(json.dumps({"rep": i, "mode": rep["mode"], "id": sid,
                                         **dict(zip(spans.FIELDS, row))}) + "\n")
    else:
        metrics = {
            "wall_s": _median([scaled(r, r["wall_s"]) for r in plain]),
            "shots_per_s": _median([requested / scaled(r, r["wall_s"]) for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "setup_s": _median([scaled(r, r["setup_s"]) for r in plain]),
        }
        units = END_TO_END_UNITS

    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "why": WORKLOADS[workload], "meta": meta,
        "requested_shots": requested, "jobs": [list(job.argv) for job in jobs],
        "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "flags": flags,
        "result": {
            "correct": failed == 0 and not flags,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }
    with open(os.path.join(out_dir, f"{workload}.result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def summary(record: dict) -> str:
    res = record["result"]
    reps = record["repetitions"]
    lines = [f"{record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
             f"{len(reps)} repetitions ({sum(r['mode'] == 'plain' for r in reps)} untraced)"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    plain = [r for r in reps if r["mode"] == "plain" and r["ok"]]
    if plain:
        lines.append("  unscaled medians: wall_s {:.4f} s, setup_s {:.4f} s; probe {:.4f} s "
                     "(reference {} s)".format(
                         _median([r["wall_s"] for r in plain]),
                         _median([r["setup_s"] for r in plain]),
                         _median([r["probe_s"] for r in plain]), REFERENCE_S))
    frac = res["failed"] / res["attempted"]
    lines.append(f"  {'fail_frac':<40} {frac:>16.6g} ratio "
                 f"({res['failed']} of {res['attempted']} operations)")
    for flag in record["flags"]:
        lines.append(f"  FLAG: {flag}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qrot", "cli.py")):
        print(f"no qrot sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # The probe and the children share one CPU, so the probe times the CPU
    # the workload runs on; children inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe_seconds()     # the first call runs cold; keep it out of the figures
    meta = run_metadata(root, src)
    print(json.dumps({"meta": meta}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            record = run_workload(root, name, args.seed, args.seconds,
                                  bool(args.trace), meta)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(summary(record))
        results[name] = record["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
