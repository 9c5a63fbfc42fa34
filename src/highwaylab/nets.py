"""Flat-parameter multilayer perceptrons with hand-written backprop.

Networks are small MLPs evaluated in float64. Parameters live in one flat
vector so the optimizer, the checkpoint format, and the finite-difference
checker all agree on a single canonical layout:

    for each layer from input to output:
        weight matrix, shape (n_out, n_in), C (row-major) order
        bias vector, shape (n_out,)

Hidden layers apply ReLU; the output layer is linear.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointMismatchError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    TrainingDivergenceError,
)

PARAMS_FORMAT_VERSION = 1

# Bounds a learner config's hidden_sizes: 80 MB per float64 copy of the parameters
MAX_NETWORK_PARAMETERS = 10_000_000
# Layers of a network, input and output included, that a checkpoint may hold
MAX_LAYERS = 1024

_MAGIC_NETWORK = b"HRLL"
_MAGIC_ARCHIVE = b"HRLC"


@dataclass(frozen=True)
class NetworkSpec:
    """Shape of a ReLU MLP: its layer widths, input to output."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("a network needs at least input and output layers")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be >= 1, got {sizes}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_params(self) -> int:
        return sum(o * i + o for i, o in zip(self.layer_sizes, self.layer_sizes[1:]))


def check_hidden_sizes(hidden_sizes, n_in: int, n_out: int) -> tuple[int, ...]:
    """``hidden_sizes`` as ints, each at least 1, for an ``n_in``-to-``n_out`` network
    of at most MAX_LAYERS layers and MAX_NETWORK_PARAMETERS parameters; ValueError if not."""
    sizes = tuple(int(h) for h in hidden_sizes)
    if any(h < 1 for h in sizes):
        raise ValueError("hidden_sizes must be >= 1")
    if len(sizes) + 2 > MAX_LAYERS:
        raise ValueError(f"hidden_sizes must have at most {MAX_LAYERS - 2} entries")
    if NetworkSpec((n_in, *sizes, n_out)).n_params > MAX_NETWORK_PARAMETERS:
        raise ValueError(f"hidden_sizes must give at most {MAX_NETWORK_PARAMETERS} parameters")
    return sizes


@lru_cache(maxsize=None)
def _layout(spec: NetworkSpec) -> tuple[tuple[int, int, int, int, int], ...]:
    """Per-layer (w_start, b_start, end, n_out, n_in) offsets into the flat vector."""
    out = []
    offset = 0
    for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        w_start = offset
        b_start = w_start + n_out * n_in
        end = b_start + n_out
        out.append((w_start, b_start, end, n_out, n_in))
        offset = end
    return tuple(out)


@dataclass(frozen=True)
class ParameterSet:
    """Immutable flat float64 parameter vector in the canonical layout."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64).ravel()
        object.__setattr__(self, "values", _freeze_finite(v))

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "ParameterSet":
        """Wrap a fresh float64 vector that no one else references, without copying it."""
        params = object.__new__(cls)
        object.__setattr__(params, "values", _freeze_finite(values))
        return params


def _freeze_finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError("parameters must be finite")
    values.setflags(write=False)
    return values


@dataclass
class AdamState:
    """Adam moment accumulators, advanced in place by adam_step()."""

    m: np.ndarray
    v: np.ndarray
    t: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def create(cls, n_params: int, learning_rate: float) -> "AdamState":
        if learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        return cls(
            m=np.zeros(n_params, dtype=np.float64),
            v=np.zeros(n_params, dtype=np.float64),
            t=0,
            learning_rate=float(learning_rate),
        )


def init_params(spec: NetworkSpec, seed) -> ParameterSet:
    """Glorot-uniform weights, zero biases, deterministic under the seed."""
    rng = np.random.default_rng(seed)
    chunks = []
    for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        limit = math.sqrt(6.0 / (n_in + n_out))
        chunks.append(rng.uniform(-limit, limit, size=n_out * n_in))
        chunks.append(np.zeros(n_out, dtype=np.float64))
    return ParameterSet(np.concatenate(chunks))


def _activations(spec: NetworkSpec, values: np.ndarray, h: np.ndarray) -> list[np.ndarray]:
    """The input batch h followed by the output of every layer, input to output."""
    acts = [h]
    last_hidden = len(spec.layer_sizes) - 3
    for k, (w_start, b_start, end, n_out, n_in) in enumerate(_layout(spec)):
        w = values[w_start:b_start].reshape(n_out, n_in)
        b = values[b_start:end]
        z = acts[-1] @ w.T + b
        if k <= last_hidden:
            z = np.maximum(z, 0.0)
        acts.append(z)
    return acts


def forward_activations(spec: NetworkSpec, params: ParameterSet, x) -> list[np.ndarray]:
    """Every layer's output on a batch (B, n), the input first and the network output last.

    Pass the list to ``backward`` to take a gradient without a second forward pass.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != spec.input_dim:
        raise ValueError(f"expected input width {spec.input_dim}, got shape {h.shape}")
    return _activations(spec, params.values, h)


def forward(spec: NetworkSpec, params: ParameterSet, x) -> np.ndarray:
    """Evaluate the network on one input (n,) or a batch (B, n)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    out = forward_activations(spec, params, x[None, :] if single else x)[-1]
    return out[0] if single else out


def backward(
    spec: NetworkSpec, params: ParameterSet, x, output_gradient, activations=None
) -> np.ndarray:
    """Flat parameter gradient of sum_i output_gradient_i . f(x_i).

    For a batch the per-sample contributions are summed; callers that want a
    mean scale the output gradient by 1/B themselves. ``activations``, when
    given, must be ``forward_activations(spec, params, x)`` for this x and
    params; backward then skips its own forward pass.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(output_gradient, dtype=np.float64)
    single = x.ndim == 1
    h = x[None, :] if single else x
    g = g[None, :] if single else g
    if h.shape[1] != spec.input_dim:
        raise ValueError(f"expected input width {spec.input_dim}, got shape {x.shape}")
    if g.shape != (h.shape[0], spec.output_dim):
        raise ValueError(
            f"expected output gradient shape {(h.shape[0], spec.output_dim)}, got {g.shape}"
        )

    values = params.values
    layout = _layout(spec)
    if activations is None:
        acts = _activations(spec, values, h)
    elif len(activations) != len(spec.layer_sizes) or activations[0].shape != h.shape:
        raise ValueError("activations do not belong to this network and input")
    else:
        acts = activations

    grad = np.empty(spec.n_params, dtype=np.float64)
    for k in range(len(layout) - 1, -1, -1):
        w_start, b_start, end, n_out, n_in = layout[k]
        a_prev = acts[k]
        grad[w_start:b_start] = (g.T @ a_prev).ravel()
        grad[b_start:end] = g.sum(axis=0)
        if k > 0:
            w = values[w_start:b_start].reshape(n_out, n_in)
            g = g @ w
            g = g * (acts[k] > 0.0)  # relu' from the layer's output
    return grad


def adam_step(
    state: AdamState, params: ParameterSet, gradient
) -> tuple[ParameterSet, AdamState]:
    """One bias-corrected Adam update; returns fresh params and ``state``.

    ``state`` is advanced in place (``m``, ``v`` and ``t``) and returned as
    the same object. ``params`` is left untouched. A rejected gradient
    changes nothing. An update that overflows raises TrainingDivergenceError
    after the state has advanced.
    """
    g = np.asarray(gradient, dtype=np.float64).ravel()
    if not g.shape == params.values.shape == state.m.shape == state.v.shape:
        raise ValueError(
            f"gradient shape {g.shape} does not match params {params.values.shape} "
            f"and moments {state.m.shape}"
        )
    if not np.all(np.isfinite(g)):
        raise TrainingDivergenceError("non-finite entries in gradient")
    state.t += 1
    t, m, v = state.t, state.m, state.v
    scratch = np.empty_like(g)
    new_values = np.empty_like(g)
    # Same operations in the same order as the textbook expressions
    #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
    #   new = params - (lr * m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)
    # so results are bitwise equal to them.
    m *= state.beta1
    np.multiply(g, 1.0 - state.beta1, out=scratch)
    m += scratch
    v *= state.beta2
    np.multiply(g, 1.0 - state.beta2, out=scratch)
    scratch *= g
    v += scratch
    np.divide(m, 1.0 - state.beta1**t, out=scratch)
    scratch *= state.learning_rate
    np.divide(v, 1.0 - state.beta2**t, out=new_values)
    np.sqrt(new_values, out=new_values)
    new_values += state.eps
    scratch /= new_values
    np.subtract(params.values, scratch, out=new_values)
    try:
        new_params = ParameterSet._adopt(new_values)
    except ValueError:
        raise TrainingDivergenceError("Adam update overflowed to non-finite parameters") from None
    return new_params, state


Probe = Callable[[np.ndarray], tuple[float, np.ndarray]]
"""A scalar loss of the network output: returns (value, d loss / d output)."""


def gradient_check(
    spec: NetworkSpec, params: ParameterSet, x, probe: Probe, h: float = 1e-5
) -> float:
    """Max relative error between backprop and central finite differences.

    Takes one input: a vector, or a batch of one row. The probe gets the
    network output for it as a vector. The relative error uses
    max(|analytic|, |numeric|, 1e-12) as denominator, coordinate-wise, and
    the maximum over all parameters is returned.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (x.ndim == 1 or (x.ndim == 2 and x.shape[0] == 1)):
        raise ValueError(
            f"gradient_check takes one input (a vector or a single row), got shape {x.shape}"
        )
    x2 = x.reshape(1, -1)
    acts = forward_activations(spec, params, x2)
    _, g_out = probe(acts[-1][0])
    analytic = backward(spec, params, x2, np.asarray(g_out)[None, :], acts)

    theta = params.values.copy()
    numeric = np.empty_like(analytic)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        f_plus = probe(_activations(spec, theta, x2)[-1][0])[0]
        theta[i] = orig - h
        f_minus = probe(_activations(spec, theta, x2)[-1][0])[0]
        theta[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric) / denom))


def squared_error_probe(target) -> Probe:
    target_arr = np.asarray(target, dtype=np.float64)

    def probe(output: np.ndarray) -> tuple[float, np.ndarray]:
        d = output - target_arr
        return float(d @ d), 2.0 * d

    return probe


def log_prob_probe(index: int) -> Probe:
    """Negative log softmax probability of one output index."""

    def probe(output: np.ndarray) -> tuple[float, np.ndarray]:
        logp = log_softmax(output)
        g = softmax(output)
        g = g.copy()
        g[index] -= 1.0
        return float(-logp[index]), g

    return probe


def softmax(logits, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax; outputs are strictly positive."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    np.clip(z, -700.0, None, out=z)  # keep exp() above underflow
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(logits, axis: int = -1) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    s = z - z.max(axis=axis, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=axis, keepdims=True))


# ---------------------------------------------------------------------------
# Checkpoint format
#
# Network section ("HRLL"), the encoding of each network inside an archive:
#   magic "HRLL" | version u32 | layer_count u32 | sizes u32[layer_count]
#   | activation u32 | param_count u64 | params f64[param_count] | crc32 u32
# All integers and floats little-endian; the CRC32 covers every byte before it.
# The activation code is always 0 (ReLU); a reader refuses any other.
#
# Archive file ("HRLC") used for agent checkpoints: named binary sections.
#   magic "HRLC" | version u32 | section_count u32
#   | sections: name_len u16, name utf-8, payload_len u64, payload
#   | crc32 u32 over every byte before it
# ---------------------------------------------------------------------------


def network_to_bytes(spec: NetworkSpec, params: ParameterSet) -> bytes:
    if params.values.size != spec.n_params:
        raise ValueError(
            f"spec expects {spec.n_params} parameters, got {params.values.size}"
        )
    n_layers = len(spec.layer_sizes)
    head = struct.pack(
        f"<4sII{n_layers}IIQ",
        _MAGIC_NETWORK,
        PARAMS_FORMAT_VERSION,
        n_layers,
        *spec.layer_sizes,
        0,  # the activation code of ReLU
        params.values.size,
    )
    values = params.values.astype("<f8", copy=False)
    crc = zlib.crc32(values, zlib.crc32(head))
    return b"".join((head, values, struct.pack("<I", crc)))


class _Reader:
    """Takes fields in order from a binary stream of a known size, keeping a running
    CRC32 of the bytes it took."""

    def __init__(self, stream, size: int, what: str):
        self.stream = stream
        self.size = size
        self.offset = 0
        self.what = what
        self.crc = 0

    def _claim(self, n: int) -> None:
        if self.offset + n > self.size:
            raise CheckpointTruncatedError(
                f"{self.what}: file ends at byte {self.size}, needed {self.offset + n}"
            )

    def _advance(self, chunk, got: int, n: int) -> None:
        if got != n:  # the file shrank since its size was taken
            raise CheckpointTruncatedError(
                f"{self.what}: file ends at byte {self.offset + got}, needed {self.offset + n}"
            )
        self.crc = zlib.crc32(chunk, self.crc)
        self.offset += n

    def take(self, n: int) -> bytes:
        self._claim(n)
        chunk = self.stream.read(n)
        self._advance(chunk, len(chunk), n)
        return chunk

    def take_floats(self, count: int) -> np.ndarray:
        """``count`` little-endian float64s, read into the array that is returned."""
        self._claim(count * 8)  # before the array is allocated
        values = np.empty(count, "<f8")
        self._advance(values, self.stream.readinto(values), count * 8)
        return values

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def expect_end(self, last: str) -> None:
        if self.offset != self.size:
            raise CheckpointFormatError(
                f"{self.what}: {self.size - self.offset} bytes after the {last}"
            )


def _check_crc(reader: _Reader, what: str) -> None:
    actual = reader.crc
    (stored,) = reader.unpack("<I")
    if stored != actual:
        raise CheckpointChecksumError(f"{what}: CRC32 mismatch")


def network_from_bytes(data: bytes) -> tuple[NetworkSpec, ParameterSet]:
    r = _Reader(io.BytesIO(data), len(data), "network checkpoint")
    if r.take(4) != _MAGIC_NETWORK:
        raise CheckpointFormatError("network checkpoint: bad magic")
    (version,) = r.unpack("<I")
    if version != PARAMS_FORMAT_VERSION:
        raise CheckpointVersionError(
            f"network checkpoint: version {version}, expected {PARAMS_FORMAT_VERSION}"
        )
    (layer_count,) = r.unpack("<I")
    if layer_count < 2 or layer_count > MAX_LAYERS:
        raise CheckpointFormatError(f"network checkpoint: bad layer count {layer_count}")
    sizes = r.unpack(f"<{layer_count}I")
    (act_code,) = r.unpack("<I")
    if act_code != 0:
        raise CheckpointFormatError(f"network checkpoint: bad activation code {act_code}")
    (count,) = r.unpack("<Q")
    values = r.take_floats(count)
    _check_crc(r, "network checkpoint")
    r.expect_end("checksum")
    try:
        spec = NetworkSpec(sizes)
        if count != spec.n_params:
            raise CheckpointFormatError(
                f"network checkpoint: {count} parameters but spec needs {spec.n_params}"
            )
        return spec, ParameterSet._adopt(values)
    except ValueError as exc:  # a layer size of 0 or a non-finite parameter
        raise CheckpointFormatError(f"network checkpoint: {exc}") from None


def _replace_file(path, chunks) -> None:
    """Write the chunks and then the CRC32 of them all to a temporary file beside path,
    then rename it over path, without fsync.

    A failed write leaves the previous file intact and no temporary behind.
    """
    tmp = f"{os.fsdecode(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            crc = 0
            for chunk in chunks:
                f.write(chunk)
                crc = zlib.crc32(chunk, crc)
            f.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_archive(path, sections: list[tuple[str, bytes]]) -> None:
    def chunks():
        yield struct.pack("<4sII", _MAGIC_ARCHIVE, PARAMS_FORMAT_VERSION, len(sections))
        for name, payload in sections:
            raw_name = name.encode("utf-8")
            yield struct.pack("<H", len(raw_name)) + raw_name + struct.pack("<Q", len(payload))
            yield payload

    _replace_file(path, chunks())


def read_archive(path) -> dict[str, bytes]:
    with open(path, "rb") as f:
        r = _Reader(f, os.fstat(f.fileno()).st_size, "checkpoint archive")
        if r.take(4) != _MAGIC_ARCHIVE:
            raise CheckpointFormatError("checkpoint archive: bad magic")
        (version,) = r.unpack("<I")
        if version != PARAMS_FORMAT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint archive: version {version}, expected {PARAMS_FORMAT_VERSION}"
            )
        (count,) = r.unpack("<I")
        raw_sections = []
        for _ in range(count):
            (name_len,) = r.unpack("<H")
            name = r.take(name_len)
            (payload_len,) = r.unpack("<Q")
            raw_sections.append((name, r.take(payload_len)))
        _check_crc(r, "checkpoint archive")
        r.expect_end("checksum")
    sections: dict[str, bytes] = {}
    for raw_name, payload in raw_sections:
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointFormatError("checkpoint archive: section name is not UTF-8") from None
        if name in sections:
            raise CheckpointFormatError(f"checkpoint archive: duplicate section {name!r}")
        sections[name] = payload
    return sections


def adam_to_bytes(state: AdamState) -> bytes:
    head = struct.pack(
        "<QddddQ",
        state.t,
        state.learning_rate,
        state.beta1,
        state.beta2,
        state.eps,
        state.m.size,
    )
    return b"".join((head, state.m.astype("<f8", copy=False), state.v.astype("<f8", copy=False)))


def adam_from_bytes(data: bytes) -> AdamState:
    r = _Reader(io.BytesIO(data), len(data), "optimizer state")
    t, lr, beta1, beta2, eps, n = r.unpack("<QddddQ")
    m = r.take_floats(n)
    v = r.take_floats(n)
    r.expect_end("second moments")
    # Out-of-range values would make the next adam_step write non-finite parameters.
    if not (0 < lr < math.inf and 0 <= beta1 < 1 and 0 <= beta2 < 1 and 0 < eps < math.inf):
        raise CheckpointFormatError("optimizer state: hyperparameter out of range")
    if not (np.all(np.isfinite(m)) and np.all((v >= 0) & (v < math.inf))):
        raise CheckpointFormatError("optimizer state: non-finite or negative moments")
    return AdamState(m=m, v=v, t=int(t), learning_rate=lr, beta1=beta1, beta2=beta2, eps=eps)


class CheckpointedLearner:
    """A learner that is saved and loaded as the archive its class declares.

    The class names its ``AGENT`` kind, its ``NETWORKS`` and ``OPTIMIZERS``
    as ``{section: (spec attribute, params or Adam attribute)}`` and its
    integer ``COUNTERS``.
    """

    def acting_network(self) -> tuple[NetworkSpec, ParameterSet]:
        """The (spec, params) of the network that acts: the first one the class declares."""
        spec_attr, params_attr = next(iter(self.NETWORKS.values()))
        return getattr(self, spec_attr), getattr(self, params_attr)

    def save(self, path) -> None:
        """Write this learner as the HRLC archive its class declares.

        The meta section holds the kind, the acting network's input and
        output widths as ``obs_dim`` and ``n_actions``, and the counters; the
        networks and then the optimizers follow in order.
        """
        spec, _ = self.acting_network()
        meta = {"agent": self.AGENT, "obs_dim": spec.input_dim, "n_actions": spec.output_dim}
        meta.update((name, getattr(self, name)) for name in self.COUNTERS)
        sections = [("meta", json.dumps(meta, sort_keys=True).encode("utf-8"))]
        for name, (spec_attr, params_attr) in self.NETWORKS.items():
            sections.append(
                (name, network_to_bytes(getattr(self, spec_attr), getattr(self, params_attr)))
            )
        for name, (_, adam_attr) in self.OPTIMIZERS.items():
            sections.append((name, adam_to_bytes(getattr(self, adam_attr))))
        write_archive(path, sections)

    @classmethod
    def load(cls, path, config=None):
        """Restore a learner written by `save` into ``cls(obs_dim, n_actions, config)``.

        Raises CheckpointMismatchError when the archive holds another agent, a
        network whose shape differs from the config-built learner's, or an
        optimizer sized for another network; CheckpointFormatError when the meta
        is not a UTF-8 JSON object with every counter a non-negative integer,
        its ``obs_dim`` and ``n_actions`` are not the first network's input and
        output widths, or a section is missing or malformed.
        """
        sections = read_archive(path)
        if "meta" not in sections:
            raise CheckpointMismatchError("checkpoint has no meta section")
        try:
            meta = json.loads(sections["meta"].decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also nesting too deep to decode
            raise CheckpointFormatError(f"checkpoint meta is not UTF-8 JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise CheckpointFormatError("checkpoint meta is not a JSON object")
        if meta.get("agent") != cls.AGENT:
            raise CheckpointMismatchError(
                f"expected a {cls.AGENT} checkpoint, found {meta.get('agent')!r}"
            )
        missing = [name for name in (*cls.NETWORKS, *cls.OPTIMIZERS) if name not in sections]
        if missing:
            raise CheckpointFormatError(f"checkpoint has no {', '.join(missing)} section")
        if not all(type(meta.get(name)) is int and meta[name] >= 0 for name in cls.COUNTERS):
            raise CheckpointFormatError(
                f"checkpoint meta needs non-negative integer {', '.join(cls.COUNTERS)}"
            )
        networks = {name: network_from_bytes(sections[name]) for name in cls.NETWORKS}
        spec, _ = next(iter(networks.values()))
        if (meta.get("obs_dim"), meta.get("n_actions")) != (spec.input_dim, spec.output_dim):
            raise CheckpointFormatError(
                f"checkpoint meta gives obs_dim {meta.get('obs_dim')!r}, n_actions "
                f"{meta.get('n_actions')!r}; its first network maps {spec.input_dim} to "
                f"{spec.output_dim}"
            )
        learner = cls(spec.input_dim, spec.output_dim, config)
        for name, (spec_attr, params_attr) in cls.NETWORKS.items():
            spec, params = networks[name]
            if spec != getattr(learner, spec_attr):
                raise CheckpointMismatchError(
                    f"{name} section holds network {spec}, "
                    f"the config expects {getattr(learner, spec_attr)}"
                )
            setattr(learner, params_attr, params)
        for name, (spec_attr, adam_attr) in cls.OPTIMIZERS.items():
            state = adam_from_bytes(sections[name])
            n_params = getattr(learner, spec_attr).n_params
            if state.m.size != n_params:
                raise CheckpointMismatchError(
                    f"{name} section holds {state.m.size} optimizer entries, "
                    f"its network has {n_params} parameters"
                )
            setattr(learner, adam_attr, state)
        for name in cls.COUNTERS:
            setattr(learner, name, meta[name])
        return learner
