"""The benchmark child runs every workload's smoke config without an error.

`bench/child.py` and `bench/workloads.py` are loaded from their files,
unchanged. The child builds each learner as ``cls(obs_dim, n_actions, cfg,
seed=...)``, loads its final checkpoint with ``Learner.load(path, cfg)``, and
re-encodes the learner's spec, params and Adam attributes with
`nets.network_to_bytes` and `nets.adam_to_bytes`; a change to any of those
names or signatures shows here as an error or an exception.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(stem: str):
    name = f"bench_{stem}"
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py declares a dataclass, which looks its module up by name.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


CHILD = load_bench_module("child")
WORKLOADS = load_bench_module("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_smoke_run_has_no_errors(name, tmp_path):
    text = WORKLOADS.WORKLOADS[name].config_text(WORKLOADS.DEFAULT_SEED, smoke=True)
    result = CHILD.run(name, text, tmp_path)
    assert result["errors"] == []
    assert result["hashes"]
