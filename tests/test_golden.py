"""Golden CLI artifacts at seed 7.

Each case runs one CLI invocation and compares its parsed artifact with the
values pinned in ``golden/seed7.json``: integers, strings, booleans and None
exactly, floats within ``FLOAT_TOL``; a JSON artifact's text must also be
what ``json.dumps(indent=2, sort_keys=True)`` writes. A change to the
sampler or an estimator that alters any count or estimate fails here,
whereas the reproducibility tests only compare a run with itself. The same
artifacts, and those of a short mitigated sweep, must also have the same
bytes at numpy's baseline dispatch tier as at this process's tier.

Regenerate the fixture only when a change is meant to alter artifacts, and
say so in the change log. Before it rewrites the fixture, the script prints
the worst |new - pinned| of every field name, for that log:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import json
import math
import os
import sys

import pytest

from qrot.cli import main

from tiers import run_at_baseline_tier

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "seed7.json")
FLOAT_TOL = 1e-12


def _unit_rows(count: int, offset: int) -> list[list[float]]:
    """Deterministic, well-spread unit vectors written out as plain floats."""
    rows = []
    for k in range(count):
        t = 0.7 * (k + offset) + 0.3
        v = (math.cos(t) * math.sin(1.3 * t + 0.2),
             math.sin(t) * math.sin(1.3 * t + 0.2),
             math.cos(1.3 * t + 0.2))
        norm = math.sqrt(sum(x * x for x in v))
        rows.append([x / norm for x in v])
    return rows


_ROTATE = ("rotate", "--axis", "2,1,1", "--angle", "90", "--degrees",
           "--vector", "0.3,-0.5,0.8", "--seed", "7")
_SWEEP = ("sweep", "--trials", "2", "--points", "4", "--shots-min", "200",
          "--seed", "7")
_MULTI = ("multi", "--axis", "1,-2,0.5", "--angle", "2.1", "--seed", "7")

# name -> (argv without --out, vectors for multi or None)
CASES = {
    "example": (("example", "--shots", "20000", "--seed", "7"), None),
    "example-nisq-mitigated": (("example", "--shots", "4000", "--seed", "7",
                                "--noise", "nisq-lite", "--mitigate"), None),
    "erp": (("erp", "--axis", "0.2,0.9,-0.4", "--angle", "1.1", "--shots", "3000",
             "--seed", "7"), None),
    "rotate": (_ROTATE + ("--shots", "20000"), None),
    # Readout flips without gate noise, over more than one sampling chunk and
    # with a shot count that is not a multiple of four.
    "rotate-readout-mitigated": (_ROTATE + ("--shots", "70001", "--noise", "0,0,0.03",
                                            "--mitigate"), None),
    "sweep-noiseless": (_SWEEP + ("--shots-max", "5000", "--backends", "noiseless"), None),
    "sweep-nisq-mitigated": (_SWEEP + ("--shots-max", "2000", "--backends", "nisq-lite",
                                       "--mitigate"), None),
    "multi-noiseless": (_MULTI + ("--shots", "2000"), _unit_rows(64, 0)),
    "multi-readout": (_MULTI + ("--shots", "300", "--noise", "0,0,0.05"),
                      _unit_rows(8, 100)),
    "multi-nisq-mitigated": (_MULTI + ("--shots", "300", "--noise", "nisq-lite",
                                       "--mitigate"), _unit_rows(5, 200)),
}


# A sweep whose gate fidelities show a complex-array product that rounds by
# dispatch tier: with numpy's multiply in ``polar_unitary``, 7 of its 80
# rows differ between the default and the baseline tier.
_TIER_SWEEP = ("sweep", "--trials", "2", "--points", "10", "--backends",
               "noiseless,nisq-lite", "--mitigate", "--seed", "7")


def _parse_csv(text: str) -> list:
    lines = text.splitlines()
    assert lines[0] == "backend,trial,shots,metric,value"
    rows = []
    for line in lines[1:]:
        backend, trial, shots, metric, value = line.split(",")
        rows.append([backend, int(trial), int(shots), metric, float(value)])
    return rows


def _artifact_text(name: str, argv, vectors, workdir: str) -> str:
    """Run one CLI invocation in ``workdir``; returns its artifact's text."""
    argv = list(argv)
    if vectors is not None:
        vec_path = os.path.join(workdir, f"{name}-vectors.json")
        with open(vec_path, "w") as fh:
            json.dump(vectors, fh)
        argv += ["--vectors", vec_path]
    out = os.path.join(workdir, f"{name}.out")
    assert main(argv + ["--out", out]) == 0
    with open(out) as fh:
        return fh.read()


def run_case(name: str, workdir: str):
    """Run one case's CLI invocation in ``workdir``; returns the parsed artifact."""
    argv, vectors = CASES[name]
    text = _artifact_text(name, argv, vectors, workdir)
    return _parse_csv(text) if argv[0] == "sweep" else json.loads(text)


def artifact_texts(workdir: str) -> dict[str, str]:
    """The artifact text of every case and of ``_TIER_SWEEP``, by name; the
    CLI's stdout is discarded."""
    jobs = {**CASES, "tier-sweep": (_TIER_SWEEP, None)}
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        return {name: _artifact_text(name, *jobs[name], workdir) for name in sorted(jobs)}


def assert_matches(expected, actual, path="artifact"):
    if isinstance(expected, float):
        assert isinstance(actual, float), f"{path}: expected a float, got {actual!r}"
        assert abs(actual - expected) <= FLOAT_TOL, f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            assert_matches(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for k, (e, a) in enumerate(zip(expected, actual)):
            assert_matches(e, a, f"{path}[{k}]")
    else:
        assert type(actual) is type(expected) and actual == expected, \
            f"{path}: {actual!r} != {expected!r}"


def field_report(pinned: dict, fresh: dict) -> dict[str, list]:
    """Per field name: [worst |fresh - pinned| over its floats (None if it
    holds none), count of non-float values that differ]. A value is named by
    its nearest dict key; a sweep row's value by its metric, the rest of the
    row by "sweep row"."""
    table: dict[str, list] = {}

    def walk(old, new, field):
        if isinstance(old, float) and isinstance(new, float):
            entry = table.setdefault(field, [None, 0])
            entry[0] = max(entry[0] or 0.0, abs(new - old))
        elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
            for key in old:
                walk(old[key], new[key], key)
        elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
            for o, n in zip(old, new):
                walk(o, n, field)
        else:
            table.setdefault(field, [None, 0])[1] += type(old) is not type(new) or old != new

    for name in sorted(set(pinned) | set(fresh)):
        old, new = pinned.get(name), fresh.get(name)
        rows = name.startswith("sweep") and isinstance(old, list) and isinstance(new, list)
        if rows and len(old) == len(new):
            for o, n in zip(old, new):
                walk(o[:4], n[:4], "sweep row")
                walk(o[4], n[4], o[3])
        else:
            walk(old, new, name)
    return table


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(name, golden, tmp_path, capsys):
    actual = run_case(name, str(tmp_path))
    capsys.readouterr()
    assert_matches(golden[name], actual)


@pytest.mark.parametrize("name", sorted(n for n, (argv, _) in CASES.items() if argv[0] != "sweep"))
def test_json_artifact_text_is_indented_and_sorted(name, tmp_path, capsys):
    # The test above compares parsed values; this pins the text itself: what
    # json.dumps writes with a two-space indent and sorted keys, plus "\n".
    text = _artifact_text(name, *CASES[name], str(tmp_path))
    capsys.readouterr()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_artifacts_equal_at_baseline_tier(tmp_path):
    # On a CPU without AVX2 the child runs at this process's tier.
    out = run_at_baseline_tier("import json, tempfile, test_golden as t\n"
                               "with tempfile.TemporaryDirectory() as tmp:\n"
                               "    print(json.dumps(t.artifact_texts(tmp)))\n")
    baseline, default = json.loads(out), artifact_texts(str(tmp_path))
    assert sorted(baseline) == sorted(default)
    for name in sorted(default):
        assert baseline[name] == default[name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as quiet, \
            contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        fresh = {name: run_case(name, tmp) for name in sorted(CASES)}
    if os.path.exists(FIXTURE):
        with open(FIXTURE) as fh:
            table = field_report(json.load(fh), fresh)
        print(f"{'field':<20} {'worst |new - pinned|':>21} {'changed non-floats':>19}")
        for field, (worst, changed) in sorted(table.items()):
            shown = "-" if worst is None else f"{worst:.3g}"
            print(f"{field:<20} {shown:>21} {changed:>19}")
    with open(FIXTURE, "w") as fh:
        json.dump(fresh, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fresh)} cases to {FIXTURE}", file=sys.stderr)
