"""Golden CLI reports: a refactor must leave every report as it was.

Each run of ``RUNS`` is executed at ``--samples 20`` and seeds 0 and 1, and
its exit code and JSON report are compared with ``tests/golden/reports.json``:
check names, pass flags, witnesses, input digests, integers and strings
exactly, floats to 1e-12 absolute or 1e-9 relative (so a different BLAS does
not fail the test).

Nothing a run reports hangs on its seed: the seed reaches only the sampled
fallbacks of ``verify_axioms`` and ``bisection_bimodule_check``, which no
run of ``RUNS`` takes, so both seeds give one report apart from ``seed``.

Regenerate the golden file, only from a tree whose reports are known good:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
from pathlib import Path

import pytest

from gpdkit import corpus
from gpdkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"
SEEDS = (0, 1)

GROUPOIDS = ("heis2", "heis3", "pair", "z3")
MORPHISMS = ("flip_covering", "heis2_quotient", "heis3_quotient")
GROUPS = ("heis2", "heis3", "z2z2", "z4")


def _runs() -> dict:
    """Run name -> argv, with data files as their shipped names."""
    runs = {}
    for g in GROUPOIDS:
        f = f"{g}.groupoid.json"
        runs[f"gpd validate {g}"] = ["gpd", "validate", "--groupoid", f]
        runs[f"alg wedderburn {g}"] = ["alg", "wedderburn", "--groupoid", f]
    for m in MORPHISMS:
        f = f"{m}.morphism.json"
        for cmd in (("gpd", "morphism"), ("bundle", "build"),
                    ("bundle", "verify"), ("bundle", "psi-check"),
                    ("abelian", "extract"), ("action", "roundtrip")):
            runs[f"{' '.join(cmd)} {m}"] = [*cmd, "--morphism", f]
    gm = "cuntz.graphmorphism.json"
    runs["graph check cuntz"] = ["graph", "check", "--morphism", gm]
    runs["graph fibers cuntz 1121"] = ["graph", "fibers", "--morphism", gm,
                                       "--word", "1121"]
    for v in ("cuntz_v", "cuntz_w"):
        runs[f"graph grading {v}"] = ["graph", "grading", "--graph",
                                      f"{v}.graph.json"]
    for cmd in ("build", "roundtrip"):
        runs[f"action {cmd} flip"] = ["action", cmd, "--action",
                                      "flip.action.json"]
    for g in GROUPS:
        runs[f"ext analyze {g}"] = ["ext", "analyze", "--group",
                                    f"{g}.group.json"]
    for name in ("pair", "z3", "flip", "cuntz"):
        runs[f"demo {name}"] = ["demo", name]
    for n in (2, 3):
        runs[f"demo heisenberg {n}"] = ["demo", "heisenberg", "--n", str(n)]
    return runs


RUNS = _runs()


@functools.lru_cache(maxsize=None)
def _cached_run(argv: tuple, seed) -> tuple:
    return _run(argv, seed)


def _run(argv, seed) -> tuple:
    """(exit code, parsed JSON report) of one in-process CLI run."""
    argv = [corpus.data_path(a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--samples", "20", "--seed", str(seed)])
    return code, json.loads(out.getvalue())


def _differences(got, want, path="$"):
    """Paths at which two parsed reports differ, floats within tolerance."""
    if isinstance(want, float) and isinstance(got, float) \
            and not isinstance(got, bool):
        if got == want or math.isclose(got, want, rel_tol=1e-9,
                                       abs_tol=1e-12):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} != {list(want)}"]
        return [d for k in want for d in _differences(got[k], want[k],
                                                      f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (x, y) in enumerate(zip(got, want))
                for d in _differences(x, y, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_every_run(golden):
    assert sorted(golden) == sorted(f"{name} seed={s}" for name in RUNS
                                    for s in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", list(RUNS))
def test_report_matches_golden(name, seed, golden):
    want = golden[f"{name} seed={seed}"]
    code, report = _cached_run(tuple(RUNS[name]), seed)
    assert code == want["exit"]
    assert _differences(report, want["report"]) == []


@pytest.mark.parametrize("name", list(RUNS))
def test_report_is_the_same_at_both_seeds(name):
    (code, first), (code_1, second) = (_cached_run(tuple(RUNS[name]), s)
                                       for s in SEEDS)
    assert code == code_1 and (first["seed"], second["seed"]) == SEEDS
    assert {**first, "seed": None} == {**second, "seed": None}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: test_golden.py --regenerate")
    out = {}
    for name, argv in RUNS.items():
        for s in SEEDS:
            code, report = _run(argv, s)
            out[f"{name} seed={s}"] = {"argv": argv, "exit": code,
                                       "report": report}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=False) + "\n",
                      encoding="utf-8")
    print(f"{len(out)} reports written to {GOLDEN}")
