"""gpdkit benchmark: seeded CLI certification workloads.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a gpdkit checkout; the program is imported from
``src/``. One run is one process: it times ``SETUP_RUNS`` fresh
interpreters importing ``gpdkit.cli`` (``setup_s``), imports it itself,
then runs as many passes over the workload's items as fit in
``--seconds`` at reference host speed (at least one). An item is one ``gpdkit.cli.main(argv)``
call with stdout and stderr captured; each pass has its own seed and
input files, so no command line repeats within a run. Every item is
checked against its expected record (``workloads.check_item``).

Times are corrected for the speed of the host. The machines this runs on
are shared, and their speed drifts by tens of percent over tens of
seconds, which moves every item alike. So a fixed calibration loop (no
gpdkit code) is timed between items and set-up measurements and twice a
second inside items (``HostSpeed``), and each time is reported as
``raw * CAL_REF_S / c``, where ``c`` is the median loop time during the
measurement (or near it, for short ones): the seconds it would take on
the reference host. Raw times, loop times and corrections are kept in
the results file.

With ``--trace 1`` passes alternate untraced and traced (at least one
each); the traced ones give the per-layer metrics and the untraced ones
the tracing overhead. Stdout ends with one JSON line of results; a fuller
results file and, when traced, the spans go to ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "_results")

SETUP_RUNS = 7
# Seconds of one pass at reference host speed. A run makes as many passes
# as fit in ``--seconds`` at that speed (at least one, and two when
# traced), so the number of items, and with it `attempted` and `failed`,
# depends neither on the host's speed nor on the program's.
PASS_S = {"heisenberg": 46.0, "blocks": 7.5, "coverings": 8.5,
          "graph-windows": 12.0}
# A hit on either limit fails the item and ends the run, so a pathological
# regression still ends a run within three minutes.
ITEM_LIMIT_S = 120.0
RUN_LIMIT_S = 150.0
# One BLAS thread: runs on a small shared machine then measure the program
# rather than the scheduler, and never exceed the core count.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Host-speed sampling: iterations of the calibration loop, its seconds on
# the reference host (2-vCPU Xeon VM at 2.1 GHz, Python 3.11), how many
# samples are pooled for one correction (single samples jitter, the host
# drifts more slowly) and the sampling period inside items (each sample
# pauses the program for about 1/60 of it).
CAL_LOOPS = 60_000
CAL_REF_S = 0.009
CAL_NEAREST = 9
SAMPLE_EVERY_S = 0.5

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class TimeLimit(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in the program
    can swallow it."""


class HostSpeed:
    """Samples the speed of the host by timing a fixed integer loop in the
    interpreter: between items, and every ``SAMPLE_EVERY_S`` inside an
    item from a SIGALRM handler, so that a long item is corrected by the
    speed the host had while it ran. The loop tracks the drift of the host
    far better than loops that lean on the caches or on BLAS (measured
    beside gpdkit commands: over 7 s blocks it takes the spread of their
    times from about 11 % to about 4 %), and it allocates nothing the
    garbage collector tracks, so the program's heap cannot slow it. The
    same handler enforces the item's time limit."""

    def __init__(self):
        self.samples = []  # (time at the middle, seconds)
        self.paused = 0.0  # seconds spent sampling inside items
        self.deadline = None
        for _ in range(5):
            self._loop()
        self.samples.clear()

    def _loop(self):
        t0 = time.perf_counter()
        x = 1
        for _ in range(CAL_LOOPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2.0, t1 - t0))
        return t1 - t0

    def measure(self):
        """Samples taken between items."""
        for _ in range(3):
            self._loop()

    def tick(self, signum, frame):
        self.paused += self._loop()
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise TimeLimit()

    def factor(self, start, end) -> float:
        """Correction for a measurement from ``start`` to ``end``: the
        median sample taken during it, or, with fewer than
        ``CAL_NEAREST`` of those, of the ``CAL_NEAREST`` nearest."""
        def gap(t):
            return start - t if t < start else max(0.0, t - end)
        near = [s for t, s in self.samples if start <= t <= end]
        if len(near) < CAL_NEAREST:
            near = [s for _, s in sorted(self.samples,
                                         key=lambda ts: gap(ts[0]))]
            near = near[:CAL_NEAREST]
        return CAL_REF_S / statistics.median(near)


def measure_setup():
    """(start, end) from launching an interpreter until gpdkit.cli is
    imported."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import gpdkit.cli, sys; "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("gpdkit.cli failed to import in a fresh process")
    return t0, t1


def run_item(cli, argv, limit, host):
    """(start, end, seconds, exit code or None, stdout, fault or None);
    ``seconds`` excludes the time ``host`` spent sampling."""
    out, err = io.StringIO(), io.StringIO()
    code, fault = None, None
    paused = host.paused
    t0 = time.perf_counter()
    host.deadline = t0 + limit
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except TimeLimit:
        fault = "time limit"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed item, not a crash
        fault = f"traceback: {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        host.deadline = None
    return t0, t1, t1 - t0 - (host.paused - paused), code, out.getvalue(), \
        fault


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def layer_metrics(spec, summary, passes, overhead) -> dict:
    """Per-layer metrics per traced pass, named as in BENCHMARK.json."""
    out = {}
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_frac":
            value = overhead
        elif name == "trace.coverage_frac":
            value = summary["coverage_frac"]
        elif name == "bundle.psi.useful_frac":
            value = summary["psi_useful_frac"]
        elif name.endswith(".s"):
            value = summary["self_s"].get(name[:-2], 0.0) / passes
        elif name.endswith(".calls"):
            value = summary["calls"].get(name[:-6], 0) / passes
        elif name.endswith(".errors"):
            value = sum(n for span, n in summary["errors"].items()
                        if span.startswith(name[:-7])) / passes
        else:
            value = summary["counters"].get(name, 0) / passes
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def run_passes(args, cli, host, frozen, tracer, t_launch, run_dir):
    """The run's passes (see ``PASS_S``); returns the item records and the
    number of passes made (fewer only after a time-limit hit)."""
    records = []
    n_passes = max(2 if args.trace else 1,
                   int(args.seconds // PASS_S[args.workload]))
    for k in range(n_passes):
        traced = bool(args.trace) and k % 2 == 1
        items = workloads.PASSES[args.workload](
            workloads.gen.ensure_dir(os.path.join(run_dir, f"p{k}")),
            args.seed * 1000 + k)
        if traced:
            tracer.install()
        host.measure()
        for item in items:
            limit = min(ITEM_LIMIT_S,
                        RUN_LIMIT_S - (time.perf_counter() - t_launch))
            if traced:
                t0, t1, raw, code, stdout, fault = tracer.run_item(
                    len(records),
                    lambda: run_item(cli, item["argv"], limit, host))
            else:
                t0, t1, raw, code, stdout, fault = run_item(
                    cli, item["argv"], limit, host)
            host.measure()
            problems = [fault] if fault else []
            if code is not None:
                problems += workloads.check_item(item, code, stdout, frozen)
            try:
                inputs = json.loads(stdout).get("inputs")
            except ValueError:
                inputs = None
            records.append({"pass": k, "traced": traced,
                            "argv": item["argv"], "kind": item["kind"],
                            "start": t0, "end": t1, "raw_seconds": raw,
                            "exit": code,
                            "problems": problems, "known": item["known"],
                            "inputs": inputs})
            if fault == "time limit":
                break
        if traced:
            tracer.uninstall()
        if fault == "time limit":
            return records, k + 1
    return records, n_passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(
        workloads.PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_launch = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "gpdkit", "cli.py")):
        print(f"no gpdkit sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        frozen = json.load(fh)
    for key in BLAS_ENV:
        os.environ[key] = "1"
    host = HostSpeed()

    setup_spans = []
    for _ in range(0 if args.trace else SETUP_RUNS):
        setup_spans.append(measure_setup())
        host.measure()
    sys.path.insert(0, SRC)
    import gpdkit.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"gpdkit imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    signal.signal(signal.SIGALRM, host.tick)
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    try:
        records, n_passes = run_passes(args, cli, host, frozen, tracer,
                                       t_launch, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)  # rebuilt from the seed

    for r in records:
        r["factor"] = host.factor(r["start"], r["end"])
        r["seconds"] = r["raw_seconds"] * r["factor"]
    setup = [(t1 - t0) * host.factor(t0, t1) for t0, t1 in setup_spans]
    failed = [r for r in records if r["problems"]]
    # A known baseline failure stays counted in `failed`; the outputs are
    # still correct as long as it is the documented traceback and nothing
    # else went wrong.
    correct = all(r["known"] and all(p.startswith("traceback:")
                                     for p in r["problems"]) for r in failed)
    walls = {}
    for r in records:
        key = (r["pass"], r["traced"])
        walls[key] = walls.get(key, 0.0) + r["seconds"]
    limited = any(p == "time limit" for r in failed for p in r["problems"])
    last = n_passes - 1
    untraced = [w for (k, t), w in walls.items() if not t
                and not (limited and k == last)] or \
        [w for (k, t), w in walls.items() if not t]
    plain = [r["seconds"] for r in records if not r["traced"]]
    e2e = {
        "wall_s": statistics.median(untraced),
        "item_s.p50": statistics.median(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if setup:
        e2e["setup_s"] = statistics.median(setup)
    p90 = statistics.quantiles(plain, n=10, method="inclusive")[8] \
        if len(plain) >= 100 else None
    failed_frac = len(failed) / len(records)

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if args.trace:
        summary = tracer.summary([r["factor"] for r in records])
        traced = [w for (k, t), w in walls.items() if t]
        overhead = statistics.median(traced) / statistics.median(
            untraced) - 1.0
        metrics = layer_metrics(bench["per_layer"], summary, len(traced),
                                overhead)
        tracer.write(stem + ".spans.tsv")
    else:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in e2e.items()}

    factor = statistics.median(r["factor"] for r in records)
    print(f"workload {args.workload}  seed {args.seed}  passes {n_passes}  "
          f"items {len(records)}  (times at reference host speed; median "
          f"correction {factor:.3f})")
    print(f"  wall_s       = {e2e['wall_s']:.4f} s  (median of "
          f"{len(untraced)} untraced passes)")
    print(f"  item_s.p50   = {e2e['item_s.p50']:.4f} s  ({len(plain)} items)")
    print("  item_s.p90   = " + (f"{p90:.4f} s  ({len(plain)} items)"
                                  if p90 is not None else
                                  f"n/a  (needs 100 items, have {len(plain)})"))
    print(f"  peak_rss_mb  = {e2e['peak_rss_mb']:.1f} MB")
    if setup:
        print(f"  setup_s      = {e2e['setup_s']:.4f} s  (median of "
              f"{len(setup)} fresh interpreters)")
    print(f"  failed_frac  = {failed_frac:.4f}  ({len(failed)} of "
          f"{len(records)} attempted)")
    for r in failed:
        tag = " [known baseline failure]" if r["known"] else ""
        print(f"  FAILED{tag} {' '.join(r['argv'][:2])} ({r['kind']}): "
              f"{'; '.join(r['problems'])[:300]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")

    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "why": {w["name"]: w["why"] for w in bench["workloads"]}[
                args.workload],
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": environment(), "cal_ref_s": CAL_REF_S,
            "metrics": metrics,
            "end_to_end": {
                **{n: {"value": v, "unit": units[n]} for n, v in e2e.items()},
                "item_s.p90": {"value": p90, "unit": "s",
                               "samples": len(plain)},
                "failed_frac": {"value": failed_frac, "unit": "ratio",
                                "attempted": len(records)}},
            "setup_s_runs": setup,
            "setup_s_raw": [t1 - t0 for t0, t1 in setup_spans],
            "calibration_s": [s for _, s in host.samples],
            "items": records}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
