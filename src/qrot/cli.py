"""Command-line interface.

Commands: ``erp`` (Euler-Rodrigues parameters of a rotation), ``rotate``
(rotate one vector and read it back through tomography), ``sweep``
(fidelity/angle curves over a shot grid, CSV), ``multi`` (rotate a batch of
vectors in superposition, JSON), ``example`` (the full worked demonstration).

Exit codes: 0 success, 2 usage or validation error, 3 I/O error, 4 numeric
failure. All commands with a --seed flag are fully reproducible: identical
invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import experiments
from .bloch import _units, normalize
from .circuit import MAX_QUBITS
from .errors import DomainError, NumericError, ShapeError
from .multirot import VectorBatch
from .rotation import RotationSpec
from .simulator import NoiseModel

# A batch of p vectors needs ceil(log2 p) control qubits plus the data qubit.
MAX_BATCH_VECTORS = 1 << (MAX_QUBITS - 1)


def _parse_triple(text: str, what: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"{what} must be three comma-separated numbers, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise DomainError(f"{what} must be numeric, got {text!r}") from None


def _seed(text: str) -> int:
    """argparse type for --seed: an integer in [0, 2^64), never wrapped."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {text}")
    return value


def _parse_noise(text: str) -> NoiseModel:
    if text in experiments.NOISE_PRESETS:
        return experiments.NOISE_PRESETS[text]
    if "," in text:
        p = _parse_triple(text, "noise triple (depol_1q,depol_ctrl,readout_flip)")
        return NoiseModel(float(p[0]), float(p[1]), float(p[2]))
    raise DomainError(
        f"unknown noise preset {text!r}; expected one of "
        f"{sorted(experiments.NOISE_PRESETS)} or a depol_1q,depol_ctrl,readout_flip triple")


def _spec(args) -> RotationSpec:
    """The rotation that --axis, --angle and --degrees name; prints a note
    when the axis is normalized."""
    axis, norm = normalize(_parse_triple(args.axis, "axis"))
    if abs(norm - 1.0) > 1e-9:
        print(f"note: axis normalized from length {norm:.6g}")
    return RotationSpec(axis, math.radians(args.angle) if args.degrees else float(args.angle))


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{float(x):.6f}" for x in v) + ")"


def _fmt_erp(values) -> str:
    return "  ".join(f"{name}={float(v):.6f}" for name, v in zip("abcd", values))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(path: str, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _add_rotation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--axis", required=True, help="rotation axis x,y,z")
    parser.add_argument("--angle", type=float, required=True, help="rotation angle")
    parser.add_argument("--degrees", action="store_true", help="angle is in degrees")


def _add_common(parser: argparse.ArgumentParser, shots_default: int | None) -> None:
    parser.add_argument("--seed", type=_seed, default=7, help="RNG seed (default 7)")
    parser.add_argument("--shots", type=int, default=shots_default,
                        help="shots per tomography circuit"
                             + (f" (default {shots_default})" if shots_default else ""))
    parser.add_argument("--noise", default="ideal",
                        help="noise preset name or depol_1q,depol_ctrl,readout_flip triple")
    parser.add_argument("--mitigate", action="store_true",
                        help="apply readout calibration mitigation")
    parser.add_argument("--out", help="write the artifact to this path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrot",
        description="Rotate 3D unit vectors on a simulated qubit and read the "
                    "results back through tomography.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_erp = sub.add_parser("erp", help="Euler-Rodrigues parameters of a rotation")
    p_erp.set_defaults(run=cmd_erp)
    _add_rotation(p_erp)
    _add_common(p_erp, shots_default=None)

    p_rot = sub.add_parser("rotate", help="rotate one vector and extract it")
    p_rot.set_defaults(run=cmd_rotate)
    _add_rotation(p_rot)
    p_rot.add_argument("--vector", required=True, help="vector to rotate x,y,z")
    _add_common(p_rot, shots_default=20000)

    p_sweep = sub.add_parser("sweep", help="fidelity/angle curves vs shots (CSV)")
    p_sweep.set_defaults(run=cmd_sweep)
    p_sweep.add_argument("--trials", type=int, default=experiments.DEFAULT_TRIALS)
    p_sweep.add_argument("--points", type=int, default=experiments.DEFAULT_GRID_POINTS)
    p_sweep.add_argument("--shots-min", type=int, default=experiments.DEFAULT_SHOT_RANGE[0])
    p_sweep.add_argument("--shots-max", type=int, default=experiments.DEFAULT_SHOT_RANGE[1])
    p_sweep.add_argument("--backends", default="noiseless,nisq-lite",
                         help="comma-separated: noiseless and/or preset names")
    p_sweep.add_argument("--seed", type=_seed, default=7)
    p_sweep.add_argument("--mitigate", action="store_true",
                         help="add readout mitigation on noisy backends")
    p_sweep.add_argument("--out", default="sweep.csv")

    p_multi = sub.add_parser("multi", help="rotate a batch of vectors in superposition")
    p_multi.set_defaults(run=cmd_multi)
    p_multi.add_argument("--vectors", required=True,
                         help="JSON file with an array of [x, y, z] triples")
    _add_rotation(p_multi)
    _add_common(p_multi, shots_default=20000)

    p_ex = sub.add_parser("example", help="run the worked demonstration")
    p_ex.set_defaults(run=cmd_example)
    _add_common(p_ex, shots_default=20000)

    return parser


def cmd_erp(args) -> dict:
    spec = _spec(args)
    noise = _parse_noise(args.noise)
    report = experiments.erp_report(spec, args.shots, noise, args.seed, args.mitigate)
    print(f"axis: {_fmt_vec(spec.axis)}  angle: {spec.angle_r:.6f} rad "
          f"({math.degrees(spec.angle_r):.6f} deg)")
    print(f"euler-rodrigues (classical):  {_fmt_erp(report['classical'])}")
    print(f"euler-rodrigues (unitary):    {_fmt_erp(report['circuit'])}")
    if report["tomography"] is not None:
        print(f"euler-rodrigues (tomography): {_fmt_erp(report['tomography'])}")
        print("delta vs classical:           "
              + "  ".join(f"d{n}={v:+.6f}" for n, v in zip("abcd", report["delta"])))
    return report


def cmd_rotate(args) -> dict:
    spec = _spec(args)
    vector, norm = normalize(_parse_triple(args.vector, "vector"))
    if abs(norm - 1.0) > 1e-9:
        print(f"warning: input vector normalized from length {norm:.6g}")
    noise = _parse_noise(args.noise)
    report = experiments.rotate_report(spec, vector, args.shots, noise,
                                       args.seed, args.mitigate)
    report["input_norm"] = norm
    print(f"axis: {_fmt_vec(spec.axis)}  angle: {spec.angle_r:.6f} rad")
    print(f"input vector:        {_fmt_vec(report['vector'])}")
    print(f"oracle rotation:     {_fmt_vec(report['oracle'])}")
    print(f"tomography estimate: {_fmt_vec(report['extracted'])}  "
          f"[shots={args.shots}]")
    print(f"angle difference: {report['angle_deg']:.6f} deg")
    return report


def cmd_sweep(args) -> None:
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not backends:
        raise DomainError("--backends names no backend")
    experiments.check_backends(backends)
    grid = experiments.log_shot_grid(args.shots_min, args.shots_max, args.points)
    records = experiments.sweep_records(backends, args.trials, grid,
                                        args.seed, args.mitigate)
    lines = ["backend,trial,shots,metric,value"]
    lines += [f"{r.backend},{r.trial},{r.shots},{r.metric},{float(r.value)!r}"
              for r in records]
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(records)} records to {args.out}")
    for backend in dict.fromkeys(r.backend for r in records):
        med = experiments.median_by_shots(records, "gate_fidelity", backend)
        top = max(med)
        print(f"{backend}: median gate fidelity {med[top]:.6f} at {top} shots")


def _load_vectors(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError:
        raise DomainError(f"{path}: not UTF-8 text") from None
    except RecursionError:
        raise DomainError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, list) or not data:
        raise DomainError(f"{path}: expected a non-empty JSON array of [x, y, z] triples")
    if len(data) > MAX_BATCH_VECTORS:
        raise DomainError(f"{path}: at most {MAX_BATCH_VECTORS} vectors supported, "
                          f"got {len(data)}")
    # The first bad entry wins, and every entry before it prints its warning
    # first: the triples up to the first malformed one are normalized in one
    # pass, cut at the first zero or non-finite row.
    rows, error = [], None
    for idx, entry in enumerate(data, start=1):
        if (not isinstance(entry, list) or len(entry) != 3
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in entry)):
            error = DomainError(f"{path}: entry {idx} is not an [x, y, z] triple")
            break
        try:
            rows.append([float(x) for x in entry])
        except OverflowError:
            error = DomainError(f"{path}: entry {idx} has a component too large for a float")
            break
    vectors = np.array(rows).reshape(-1, 3)
    top = np.abs(vectors).max(axis=1)
    unfit = np.flatnonzero(~np.isfinite(top) | (top == 0.0))
    cut = unfit[0] if unfit.size else len(vectors)
    units, norms = _units(vectors[:cut])
    for idx, norm in enumerate(norms.tolist(), start=1):
        if abs(norm - 1.0) > 1e-9:
            print(f"warning: vector {idx} normalized from length {norm:.6g}")
    if cut < len(vectors):
        normalize(vectors[cut])  # raises: the row is zero or not finite
    if error is not None:
        raise error
    return units


def cmd_multi(args) -> dict:
    vectors = _load_vectors(args.vectors)
    spec = _spec(args)
    noise = _parse_noise(args.noise)
    batch = VectorBatch(vectors)
    entries = experiments.multi_report(batch, spec, args.shots, noise, args.seed,
                                       args.mitigate)
    print(f"rotated {len(entries)} vectors "
          f"({batch.n} control qubits, {args.shots} shots per vector)")
    for e in entries:
        if e["extracted"] is None:
            print(f"  #{e['index']}: FAILED ({e['error']})")
        else:
            flag = "  [under-sampled]" if e["under_sampled"] else ""
            print(f"  #{e['index']}: {_fmt_vec(e['extracted'])} vs oracle "
                  f"{_fmt_vec(e['oracle'])}  diff {e['angle_deg']:.4f} deg "
                  f"({e['samples']} samples){flag}")
    return {"rotation": {"axis": [float(x) for x in spec.axis], "angle_r": spec.angle_r},
            "shots_per_vector": args.shots,
            "seed": args.seed,
            "vectors": entries}


def cmd_example(args) -> dict:
    noise = _parse_noise(args.noise)
    report = experiments.example_report(args.shots, noise, args.seed, args.mitigate)
    print("worked example: rotate x by 90 deg about n")
    print(f"  n = {_fmt_vec(report['axis'])}   (2,1,1)/sqrt(6)")
    print(f"  x = {_fmt_vec(report['vector'])}   (1,1,1)/sqrt(3)")
    print(f"  angle: {report['angle_r']:.6f} rad = {report['angle_deg']:.1f} deg")
    ia, aa = report["init_angles"], report["axis_angles"]
    print(f"initialization angles: theta={ia['theta']:.6f}  phi={ia['phi']:.6f}")
    print(f"axis angles:           theta={aa['theta']:.6f}  phi={aa['phi']:.6f}")
    gates = " ".join(f"{g['kind']}({g['theta']:.4f})" for g in report["gate_sequence"])
    print(f"gate sequence: {gates}")
    print(f"euler-rodrigues (classical):  {_fmt_erp(report['erp_classical'])}")
    print(f"euler-rodrigues (unitary):    {_fmt_erp(report['erp_circuit'])}")
    print(f"euler-rodrigues (tomography): {_fmt_erp(report['erp_tomography'])}")
    print(f"oracle rotation:     {_fmt_vec(report['oracle'])}")
    print(f"tomography estimate: {_fmt_vec(report['extracted'])}  [shots={args.shots}]")
    print(f"angle difference: {report['angle_diff_deg']:.6f} deg")
    return report


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # A command returns its JSON artifact, or None when it writes its own.
        report = args.run(args)
        if report is not None and args.out:
            _write_json(args.out, report)
        return 0
    except (DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
