"""Exception types shared across the package, and the bound checks that raise them."""

from __future__ import annotations

from dataclasses import field, fields


class HighwaylabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HighwaylabError):
    """Invalid experiment configuration (unknown key, bad value, broken invariant)."""


class EnvStateError(HighwaylabError):
    """Environment was used before reset()."""


class EpisodeFinishedError(HighwaylabError):
    """step() was called on an episode that already terminated or truncated."""


class TrainingDivergenceError(HighwaylabError):
    """Non-finite values showed up in losses, gradients, or network outputs."""


class CheckpointError(HighwaylabError):
    """Base class for checkpoint read/write failures."""


class CheckpointFormatError(CheckpointError):
    """File is not a recognizable checkpoint."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written by an incompatible format version."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before its declared payload does."""


class CheckpointChecksumError(CheckpointError):
    """Stored CRC32 does not match the file contents."""


class CheckpointMismatchError(CheckpointError):
    """Checkpoint contents do not match the requested agent or network."""


def bound(default, low, high=None, *, strict=False):
    """A dataclass field whose value must be >= ``low`` (``> low`` when
    ``strict``) and, given ``high``, at most ``high`` (below it when ``strict``)."""
    return field(default=default, metadata={"bound": (low, high, strict)})


def check_bounds(obj) -> None:
    """Raise ``ValueError`` for the first field of ``obj``, in declaration
    order, that is outside its ``bound``; NaN is outside every bound."""
    for f in fields(obj):
        if "bound" not in f.metadata:
            continue
        low, high, strict = f.metadata["bound"]
        value = getattr(obj, f.name)
        if high is None:
            ok = low < value if strict else low <= value
            text = f"> {low}" if strict else f">= {low}"
        else:
            ok = low < value < high if strict else low <= value <= high
            text = f"in ({low}, {high})" if strict else f"in [{low}, {high}]"
        if not ok:
            raise ValueError(f"{f.name} must be {text}")
