"""Write bench/golden.json: output hashes of every workload at the default seed.

    python3 bench/record_golden.py

Run from the repository root, and only in a change that means to alter
outputs; that change names the files whose hashes moved and says why.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    root = Path.cwd()
    env = run.child_env(root)
    golden = {}
    for workload in WORKLOADS.values():
        work = root / ".bench_out" / "golden" / workload.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ctx = run.Context(workload, work, env, deadline=time.perf_counter() + run.CHILD_TIMEOUT_S)
        result = run.run_child(ctx, DEFAULT_SEED, "record")
        if not result["ok"]:
            print(f"{workload.name}: {'; '.join(result['errors'])}", file=sys.stderr)
            return 1
        golden[workload.name] = result["hashes"]
        print(f"{workload.name}: {len(result['hashes'])} files")
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
