"""Record the outcome hash of every run in each (workload, seed) suite.

    python3 perfbench/pin.py

Runs every workload's suite for seeds 0-31, checks each run, and writes
perfbench/pins.json, which run.py compares every run against. Re-pin only in
a change that means to alter the optimiser's outcomes, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, PINS, Bench, import_dca
from workloads import WORKLOADS, suite

SEEDS = range(32)


def main() -> int:
    harness = import_dca()
    pins: dict = {}
    for name, workload in sorted(WORKLOADS.items()):
        for seed in SEEDS:
            bench = Bench(harness, workload, pinned=None)
            configs = [(doc, harness.RunConfig.from_dict(doc)) for doc in suite(workload, seed)]
            done = bench.run_pass(configs, traced=False, out_root=OUT / "pin-out")
            if bench.failed:
                sys.exit(f"{name} seed {seed}: {bench.failed} run(s) failed their checks")
            pins.setdefault(name, {})[str(seed)] = [check.outcome for check in done.checks]
            print(f"{name} {seed} {done.checks[0].outcome[:12]}...", flush=True)
    shutil.rmtree(OUT / "pin-out", ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
