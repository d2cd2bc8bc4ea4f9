"""Run test code in a child process at a narrower numpy dispatch tier.

numpy picks its SIMD kernels at import, from the CPU's features minus those
named in ``NPY_DISABLE_CPU_FEATURES``. A child started with that variable
computes with another tier's kernels, so a test can compare the bytes of two
tiers on one machine. On a CPU that lacks the disabled features, the child
runs at the same tier as its parent.
"""

import os
import subprocess
import sys
from pathlib import Path

from numpy.lib.introspect import opt_func_info

import qrot

# numpy's baseline tier on x86-64: no AVX-512 and no AVX2.
BASELINE_TIER = "X86_V4 AVX512_ICL AVX512_SPR X86_V3"

_PATH = [str(Path(qrot.__file__).parents[1]), str(Path(__file__).resolve().parent)]


def dispatch_target() -> str:
    """The kernel target numpy runs float64 ``add`` on in this process."""
    return opt_func_info("^add$", "^float64")["add"]["ddd"]["current"]


def run_at_baseline_tier(code: str) -> str:
    """Run ``code`` in a child Python whose numpy runs at ``BASELINE_TIER``,
    with this process's ``qrot`` and the tests directory on its path; return
    its stdout. A child that fails raises AssertionError with its stderr."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_TIER)
    env["PYTHONPATH"] = os.pathsep.join(_PATH + env.get("PYTHONPATH", "").split(os.pathsep))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=300)
    if child.returncode != 0:
        raise AssertionError(f"child at the baseline tier failed:\n{child.stderr}")
    return child.stdout
