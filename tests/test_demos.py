"""Every demo imports, so a public name it uses cannot vanish unseen; the
fast ones also run, so a call that breaks only at run time shows too."""

import importlib.util
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
# Each runs in under a second and writes no file; 03 and 05 take longer.
FAST = ["01_environment_tour", "02_reward_shaping", "04_dqn_chain_sanity", "06_rules_vs_random"]


def _load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_imports(path):
    # Executing the module runs its imports and definitions; main() sits
    # behind the __main__ check, so nothing trains or prints.
    assert callable(_load(path).main)


@pytest.mark.parametrize("name", FAST)
def test_fast_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _load(DEMO_DIR / f"{name}.py").main()
    assert capsys.readouterr().out
    assert not any(tmp_path.iterdir())
