"""Regenerate expected.json: the check names and pass flags of every item
kind, frozen from the current program.

    python3 perfbench/freeze.py

Run it only on the commit the benchmark is defined against; later commits
are checked against the frozen record. Two passes (seeds 0 and 1) of each
workload are run. Items with a known baseline failure are not frozen;
kinds that end in a traceback or that disagree across occurrences are
left out and reported.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys

import run

sys.path.insert(0, run.SRC)
import gpdkit.cli as cli  # noqa: E402


def main() -> int:
    host = run.HostSpeed()
    signal.signal(signal.SIGALRM, host.tick)
    workdir = os.path.join(run.WORK, "freeze")
    items = [item for name, make in run.workloads.PASSES.items()
             for seed in (0, 1) for item in make(run.workloads.gen.ensure_dir(
                 os.path.join(workdir, f"{name}-{seed}")), seed)]
    frozen, bad = {}, set()
    for item in items:
        if item["known"]:
            continue
        *_, code, stdout, fault = run.run_item(cli, item["argv"], 600.0, host)
        if fault:
            print(f"not frozen: {item['kind']}: {fault}")
            bad.add(item["kind"])
            continue
        checks = [[c["name"], c["pass"]] for c in json.loads(stdout)["checks"]]
        if frozen.setdefault(item["kind"], {"checks": checks}) != \
                {"checks": checks}:
            bad.add(item["kind"])
    shutil.rmtree(workdir, ignore_errors=True)
    for kind in sorted(bad):
        frozen.pop(kind, None)
        print(f"left out: {kind}")
    with open(os.path.join(run.HERE, "expected.json"), "w",
              encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
