"""Record the golden outputs the benchmark's correctness gate compares against.

Run from the root of a checkout, at the commit whose results are golden:

    python3 perfbench/record_golden.py

For each sweep workload and seed it stores the CSV's git blob hash and every
cell's tv; for the check suites it stores each seed's output hash and keeps
only seeds on which every suite passes, which become the seed list the
``check-suites`` workload draws from.  Recording takes about ten minutes on
a 2-core box.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import GOLDEN_PATH, WORKLOADS, Sweep, blob_sha1, cell_label, csv_cells  # noqa: E402

SWEEP_SEEDS = 16
CHECK_SEEDS = 300


def main() -> int:
    run._import_flowgrid()
    golden = {}
    workdir = run.OUT / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            entry: dict = {}
            if isinstance(workload, Sweep):
                for seed in range(SWEEP_SEEDS):
                    result = workload.run_pass(seed, workdir, workload.prepare(seed, workdir))
                    if result.failed:
                        raise SystemExit(f"{name} seed {seed} failed: {result.errors}")
                    entry[str(seed)] = {
                        "csv_blob_sha1": blob_sha1(result.output),
                        "tv": {
                            cell_label(key): float(tv)
                            for key, tv in csv_cells(result.output).items()
                        },
                    }
                    print(f"{name} seed {seed}: {result.wall_s:.2f} s", flush=True)
            else:
                passing = []
                for seed in range(CHECK_SEEDS):
                    result = workload.run_pass(seed, workdir, workload.prepare(seed, workdir))
                    if result.failed:
                        print(f"{name} seed {seed} left out: {result.errors}", flush=True)
                        continue
                    passing.append(seed)
                    entry[str(seed)] = {"output_blob_sha1": blob_sha1(result.output)}
                entry["seeds"] = passing
                print(f"{name}: {len(passing)}/{CHECK_SEEDS} seeds pass", flush=True)
            golden[name] = entry
            GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
