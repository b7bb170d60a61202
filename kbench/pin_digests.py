"""Rewrite digests.json: the report digests of every workload at pinned seeds.

Run from the repository root after a change that is meant to alter report
bytes, and say in the change which bytes changed and why they are right:

    python3 kbench/pin_digests.py

The benchmark counts reports whose digest differs from these pins as
`report.digest_changed`. Digests depend on the floating-point behaviour of
the machine and numpy build they were made with.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

PINNED_SEEDS = range(20)  # includes the default seed, 7


def main() -> int:
    root = Path.cwd()
    pins: dict[str, dict[str, dict]] = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in PINNED_SEEDS:
            ws = run.prepare(root, workload, seed)
            tally = run.Tally()
            run.run_pass(ws, tally)
            if tally.failed:
                print(f"{workload} seed {seed}: a report failed; nothing written",
                      file=sys.stderr)
                return 1
            pins[workload][str(seed)] = tally.digests
            print(workload, seed, flush=True)
    run.DIGESTS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
