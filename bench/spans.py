"""Spans around calls into qrot's layers, recorded from outside the library.

``install`` wraps public functions of ``qrot`` modules and rebinds each name
in every loaded ``qrot`` module that holds the same function object, so calls
made through any import site are seen. A span records its name, start, end,
parent span, job id, self time (duration minus its children) and whether it
raised. Spans stay in memory until the run hands them back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped in a traced run.
TARGETS = (
    ("cli", "main"),
    ("experiments", "sweep_records"),
    ("experiments", "multi_report"),
    ("experiments", "log_shot_grid"),
    ("experiments", "median_by_shots"),
    ("multirot", "full_circuit"),
    ("multirot", "extract_all"),
    ("multirot", "index_estimate"),
    ("tomography", "state_tomography"),
    ("tomography", "process_tomography"),
    ("tomography", "smolin_project"),
    ("tomography", "calibrate_readout"),
    ("tomography", "mitigate_frequencies"),
    ("linalg", "eig_hermitian"),
    ("linalg", "polar_unitary"),
    ("simulator", "sample"),
)

# Columns of a recorded span.
FIELDS = ("name", "start", "end", "parent", "job", "self_s", "failed",
          "shots", "amplitudes", "peak_mb", "useful")


class Recorder:
    """Holds the spans of one process; ``job`` labels spans as they open.

    With ``memory`` set, every ``sample`` call also runs under tracemalloc,
    which slows it; self times are then not representative.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.job = None
        self._stack: list[list] = []    # [span id, time covered by children]

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.job, 0.0, False,
                           0, 0, 0.0, None])
        self._stack.append([sid, 0.0])
        return sid

    def _close(self, sid: int, start: float, end: float, covered: float,
               failed: bool) -> None:
        """``covered`` is the interval charged to the parent, which can be
        wider than [start, end] when tracing did work around the call."""
        _, children = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += covered
        span = self.spans[sid]
        span[1], span[2], span[5], span[6] = start, end, end - start - children, failed

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                self._close(sid, start, end, end - start, failed)
            if name == "multirot.index_estimate":
                self.spans[sid][10] = result.vector is not None
            return result
        return traced

    def wrap_sample(self, fn):
        """``sample`` spans split by gate noise and carry shots, amplitudes
        (shots x 2^n, computed) and the tracemalloc peak of the call."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            noise = bound.arguments["noise"]
            noisy = noise is not None and (noise.depol_1q > 0.0 or noise.depol_ctrl > 0.0)
            sid = self._open("simulator.sample." + ("noisy" if noisy else "ideal"))
            failed = True
            outer = perf_counter()
            if self.memory:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                peak = 0
                if self.memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(sid, start, end, perf_counter() - outer, failed)
            shots = int(bound.arguments["shots"])
            span = self.spans[sid]
            span[7] = shots
            span[8] = shots << bound.arguments["circuit"].num_qubits
            span[9] = peak / 2**20
            return result
        return traced


def install(recorder: Recorder) -> None:
    """Rebind every target in every loaded ``qrot`` module that imports it."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "qrot" or name.startswith("qrot."))]
    for module_name, attr in TARGETS:
        original = getattr(sys.modules["qrot." + module_name], attr)
        if module_name == "simulator":
            wrapper = recorder.wrap_sample(original)
        else:
            wrapper = recorder.wrap(f"{module_name}.{attr}", original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)


def layer_metrics(spans, requested_shots: int) -> dict[str, float]:
    """Per-layer figures of one traced process, from its spans."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    shots = amplitudes = failed = 0
    peak = 0.0
    useful = 0
    for s in map(lambda row: dict(zip(FIELDS, row)), spans):
        name = s["name"]
        calls[name] += 1
        self_s[name] += s["self_s"]
        failed += s["failed"]
        shots += s["shots"]
        amplitudes += s["amplitudes"]
        peak = max(peak, s["peak_mb"])
        useful += bool(s["useful"])

    def prefix_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    out = {}
    for kind in ("ideal", "noisy"):
        out[f"simulator.sample.{kind}.calls"] = calls[f"simulator.sample.{kind}"]
        out[f"simulator.sample.{kind}.self_s"] = self_s[f"simulator.sample.{kind}"]
    out["simulator.sample.shots"] = shots
    out["simulator.sample.amplitudes"] = amplitudes
    out["simulator.sample.peak_mb"] = peak
    out["experiments.shot_reuse"] = requested_shots / shots if shots else 0.0
    out["experiments.self_s"] = prefix_self("experiments.")
    for name in ("linalg.eig_hermitian", "linalg.polar_unitary",
                 "tomography.state_tomography", "tomography.process_tomography",
                 "tomography.smolin_project", "tomography.calibrate_readout",
                 "tomography.mitigate_frequencies", "multirot.index_estimate"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["multirot.full_circuit.self_s"] = self_s["multirot.full_circuit"]
    out["multirot.extract_all.self_s"] = self_s["multirot.extract_all"]
    attempted = calls["multirot.index_estimate"]
    out["multirot.index_estimate.useful_frac"] = useful / attempted if attempted else 0.0
    out["cli.self_s"] = self_s["cli.main"]
    out["trace.failed_calls"] = failed
    return out
