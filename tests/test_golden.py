"""Each benchmark workload trains to the output bytes pinned in bench/golden.json.

`bench/workloads.py` is loaded from its file, unchanged, and every output
file is hashed as `bench/child.py:hash_outputs` hashes it. A change that moves
one trained byte of dqn_merge, ppo_merge or rules_dense at the pinned seed
fails here.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from highwaylab.config import parse_config
from highwaylab.harness import run_train

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def load_workloads():
    name = "bench_workloads"
    spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # The module declares a dataclass, which looks its module up by name.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_outputs_match_golden(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name]
    run_train(parse_config(workload.config_text(WORKLOADS.DEFAULT_SEED)), tmp_path)
    hashes = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file()
    }
    assert hashes == GOLDEN[name]
