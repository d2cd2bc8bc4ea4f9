"""One repetition of a workload, in a fresh process: ``child.py REQUEST RESULT``.

REQUEST is a JSON file naming the checkout's source directory, the workload,
the seed, the work directory and the mode: "plain" (untraced), "spans"
(traced) or "memory" (traced, with tracemalloc around every ``sample``).
The process imports qrot from that source directory, builds the workload's
inputs, runs its jobs through ``qrot.cli.main`` one at a time, and writes
timings, resource usage, exit codes and (when traced) spans to the JSON file
RESULT.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def main(request_path: str, result_path: str) -> int:
    with open(request_path) as fh:
        req = json.load(fh)
    t0 = perf_counter()
    sys.path.insert(0, req["src"])
    import qrot.cli
    if not os.path.abspath(qrot.__file__).startswith(req["src"] + os.sep):
        print(f"qrot imported from {qrot.__file__}, not {req['src']}", file=sys.stderr)
        return 2
    from workloads import make_jobs
    jobs = make_jobs(req["workload"], req["seed"], req["workdir"])
    recorder = None
    if req["mode"] != "plain":
        import spans
        recorder = spans.Recorder(memory=req["mode"] == "memory")
        spans.install(recorder)
    setup_s = perf_counter() - t0

    exit_codes = []
    start = perf_counter()
    for j, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = j
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = qrot.cli.main(list(job.argv))
        except Exception:  # an escaped exception fails the job, not the run
            traceback.print_exc()
            rc = -1
        exit_codes.append(rc)
    wall_s = perf_counter() - start

    usage = resource.getrusage(resource.RUSAGE_SELF)
    # VmHWM is this process's own peak resident set; ru_maxrss is not, since
    # Linux carries the parent's peak into it across exec.
    with open("/proc/self/status") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "exit_codes": exit_codes,
        "peak_rss_mb": hwm_kb / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "spans": None if recorder is None else recorder.spans,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
