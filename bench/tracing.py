"""Span tracing of highwaylab from outside the package.

`Tracer.install()` wraps the public functions and methods of the layers,
at every site that calls them: a function imported by name into another
module (``from .nets import forward``) is a separate binding, so each
module-level binding of a traced function is replaced, not only the one in
the defining module. Methods are wrapped once on their class.

Each call records a span (name, start, end, parent) in flat arrays, so a
run of a million spans stays a few tens of megabytes. `summarize()`
derives per-name call counts, total and self time from the spans; self
time is a span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) -> span name, for module-level functions.
FUNCTIONS = {
    ("env", "collision_check"): "env.collision_check",
    ("env", "ghr_acceleration"): "env.ghr_acceleration",
    ("env", "encode_observation"): "env.encode_observation",
    ("reward", "compute_reward"): "reward.compute_reward",
    ("nets", "forward"): "nets.forward",
    ("nets", "backward"): "nets.backward",
    ("nets", "adam_step"): "nets.adam_step",
    ("nets", "write_archive"): "nets.write_archive",
    ("nets", "read_archive"): "nets.read_archive",
    ("ppo", "compute_gae"): "ppo.compute_gae",
    ("ppo", "ppo_objective"): "ppo.ppo_objective",
    ("ppo", "value_loss"): "ppo.value_loss",
    ("harness", "evaluate_policy"): "harness.evaluate_policy",
    ("config", "parse_config"): "config.parse_config",
}

# (module, class, method) -> span name.
METHODS = {
    ("env", "HighwayEnv", "step"): "env.step",
    ("env", "HighwayEnv", "reset"): "env.reset",
    ("dqn", "ReplayBuffer", "sample"): "dqn.replay.sample",
    ("dqn", "ReplayBuffer", "add"): "dqn.replay.add",
    ("dqn", "DqnLearner", "train_step"): "dqn.train_step",
    ("dqn", "DqnLearner", "act"): "dqn.act",
    ("ppo", "RolloutCollector", "collect"): "ppo.collect",
    ("ppo", "PpoLearner", "update"): "ppo.update",
    ("rules", "RuleAgent", "act"): "rules.act",
    ("harness", "TrainRecorder", "on_step"): "harness.recorder.on_step",
    ("harness", "TrainRecorder", "write"): "harness.recorder.write",
}

# Spans whose name carries the batch row count of argument 2, e.g. b64.
BATCHED = ("nets.forward", "nets.backward")


def _rows(x) -> int:
    return int(x.shape[0]) if getattr(x, "ndim", 1) == 2 else 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.train_steps_useful = 0

    def _id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        return self._call(self._id(name), fn, args, kwargs)

    def _call(self, name_id: int, fn, args, kwargs):
        stack = self._stack
        index = len(self.end)
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn):
        call = self._call
        if name in BATCHED:
            by_rows: dict[int, int] = {}

            def wrapper(spec, params, x, *rest, **kwargs):
                rows = _rows(x)
                name_id = by_rows.get(rows)
                if name_id is None:
                    name_id = by_rows[rows] = self._id(f"{name}.b{rows}")
                return call(name_id, fn, (spec, params, x, *rest), kwargs)

        elif name == "dqn.train_step":
            name_id = self._id(name)

            def wrapper(*args, **kwargs):
                result = call(name_id, fn, args, kwargs)
                if not result["skipped"]:
                    self.train_steps_useful += 1
                return result

        else:
            name_id = self._id(name)

            def wrapper(*args, **kwargs):
                return call(name_id, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced binding in the loaded highwaylab modules."""
        modules = {
            key: mod
            for key, mod in sys.modules.items()
            if key == "highwaylab" or key.startswith("highwaylab.")
        }
        originals = {}
        for (module, attr), name in FUNCTIONS.items():
            fn = getattr(modules[f"highwaylab.{module}"], attr)
            originals[id(fn)] = (fn, self._wrap(name, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for (module, cls_name, method), name in METHODS.items():
            cls = getattr(modules[f"highwaylab.{module}"], cls_name)
            fn = vars(cls)[method]
            self._undo.append((cls, method, fn))
            setattr(cls, method, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int_).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Write every span to an .npz file: names plus four flat arrays."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summarize(self, root: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s over every recorded span.

        The key "_top" holds the share of span `root`'s duration that its
        direct children cover.
        """
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
        )
        self_time = duration - child_time
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=duration, minlength=k)
        self_total = np.bincount(a["name_id"], weights=self_time, minlength=k)
        out = {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_total[i]),
            }
            for i, name in enumerate(self.names)
        }
        top = a["parent"] == root
        out["_top"] = {"share": float(duration[top].sum() / duration[root])}
        return out
