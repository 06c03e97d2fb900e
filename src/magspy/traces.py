"""Core value types for sensor captures plus their JSON Lines persistence.

Units are fixed package-wide: magnetometer samples in microtesla, gyroscope
samples in rad/s, rates in Hz. Sampling is uniform; ``rate_hz`` is
authoritative and no per-sample timestamps are kept. All types are immutable
after construction, with read-only arrays, so they are safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

#: Reserved label for pooled background traffic in open-world experiments.
UNMONITORED_LABEL = "unmonitored"


def _frozen_array(values, *, name: str | None = None) -> np.ndarray:
    """A read-only float64 copy of ``values``.

    With ``name`` given, the copy must also be a non-empty, finite 1-D array;
    ``name`` opens the error message.
    """
    arr = np.array(values, dtype=np.float64, copy=True)
    if name is not None:
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"{name} must be a non-empty 1-D sequence")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contain non-finite entries")
    arr.setflags(write=False)
    return arr


def _positive_rate(rate_hz) -> float:
    """``rate_hz`` as a float, which must be finite and positive."""
    rate = float(rate_hz)
    if not np.isfinite(rate) or rate <= 0:
        raise ValueError("rate_hz must be positive")
    return rate


@dataclass(frozen=True, eq=False)
class SensorRecording:
    """One fixed-rate capture of 3-axis magnetometer (and optionally gyroscope) data.

    ``mag`` has shape (n, 3) in microtesla; ``gyro``, when present, has the
    same shape and rate in rad/s. ``label`` is a free class label; the string
    ``"unmonitored"`` is reserved for the open-world background class.
    """

    device_id: str
    rate_hz: float
    mag: np.ndarray
    gyro: np.ndarray | None = None
    label: str | None = None
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        mag = _frozen_array(self.mag)
        if mag.ndim != 2 or mag.shape[1] != 3:
            raise ValueError("mag must be a sequence of 3-component samples")
        if mag.shape[0] == 0:
            raise ValueError("mag must be non-empty")
        if not np.isfinite(mag).all():
            raise ValueError("mag contains non-finite values")
        object.__setattr__(self, "mag", mag)

        if self.gyro is not None:
            gyro = _frozen_array(self.gyro)
            if gyro.ndim != 2 or gyro.shape[1] != 3:
                raise ValueError("gyro must be a sequence of 3-component samples")
            if gyro.shape[0] != mag.shape[0]:
                raise ValueError(
                    f"gyro length {gyro.shape[0]} != mag length {mag.shape[0]}"
                )
            if not np.isfinite(gyro).all():
                raise ValueError("gyro contains non-finite values")
            object.__setattr__(self, "gyro", gyro)

        object.__setattr__(self, "rate_hz", _positive_rate(self.rate_hz))

        if self.label is not None and not isinstance(self.label, str):
            raise ValueError("label must be a string when present")
        meta = dict(self.meta)
        for k, v in meta.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise ValueError("meta must map strings to strings")
        object.__setattr__(self, "meta", meta)

    def __len__(self) -> int:
        return self.mag.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / self.rate_hz


@dataclass(frozen=True, eq=False)
class CpuPattern:
    """A discrete CPU-utilization-over-time signal, values in [0, 1]."""

    values: np.ndarray
    rate_hz: float

    def __post_init__(self):
        v = _frozen_array(self.values, name="values")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("utilization values must lie in [0, 1]")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "rate_hz", _positive_rate(self.rate_hz))

    def __len__(self) -> int:
        return self.values.size

    @property
    def duration_s(self) -> float:
        return len(self) / self.rate_hz


@dataclass(frozen=True, eq=False)
class Trace1D:
    """A one-dimensional real-valued trace at a fixed rate.

    ``normalized`` is True only when the values are guaranteed to lie in
    [0, 1] (set by :func:`magspy.preprocess.normalize_unit_range`).
    """

    values: np.ndarray
    rate_hz: float
    normalized: bool = False

    def __post_init__(self):
        v = _frozen_array(self.values, name="values")
        if self.normalized and (v.min() < 0.0 or v.max() > 1.0):
            raise ValueError("normalized trace has values outside [0, 1]")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "rate_hz", _positive_rate(self.rate_hz))

    def __len__(self) -> int:
        return self.values.size

    @property
    def duration_s(self) -> float:
        return len(self) / self.rate_hz


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled items (recordings, traces, or feature vectors) with a fixed class order.

    ``class_names`` is an ordered set: it fixes label-to-index mapping for
    classifiers and reports. Every item label must appear in it.
    """

    items: tuple
    class_names: tuple[str, ...]

    def __post_init__(self):
        items = tuple((obj, label) for obj, label in self.items)
        names = tuple(self.class_names)
        if len(set(names)) != len(names):
            raise ValueError("class_names contains duplicates")
        known = set(names)
        for _, label in items:
            if label not in known:
                raise ValueError(f"item label {label!r} not in class_names")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "class_names", names)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, str]],
                   class_names: Sequence[str] | None = None) -> "Dataset":
        """Build a dataset; class order defaults to first appearance."""
        pairs = tuple(pairs)
        if class_names is None:
            seen: dict[str, None] = {}
            for _, label in pairs:
                seen.setdefault(label)
            class_names = tuple(seen)
        return cls(pairs, tuple(class_names))

    def __len__(self) -> int:
        return len(self.items)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for _, label in self.items)


# ---------------------------------------------------------------------------
# JSON Lines persistence
#
# One recording per line, keys in fixed order:
#   device_id (string), label (string, omitted when absent), rate_hz (number),
#   mag (array of [x, y, z] triples), gyro (optional array of triples),
#   meta (optional string-to-string object, omitted when empty).
# Floats are written with Python's shortest round-trip representation, which
# preserves values exactly (beyond the 9-significant-digit contract).
# ---------------------------------------------------------------------------

_RECORD_KEYS = {"device_id", "label", "rate_hz", "mag", "gyro", "meta"}


def _recording_to_obj(rec: SensorRecording) -> dict:
    obj: dict = {"device_id": rec.device_id}
    if rec.label is not None:
        obj["label"] = rec.label
    obj["rate_hz"] = rec.rate_hz
    obj["mag"] = rec.mag.tolist()
    if rec.gyro is not None:
        obj["gyro"] = rec.gyro.tolist()
    if rec.meta:
        obj["meta"] = dict(sorted(rec.meta.items()))
    return obj


def _recording_from_obj(obj: dict) -> SensorRecording:
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    unknown = set(obj) - _RECORD_KEYS
    if unknown:
        raise ValueError(f"unknown fields: {sorted(unknown)}")
    for req in ("device_id", "rate_hz", "mag"):
        if req not in obj:
            raise ValueError(f"missing required field {req!r}")
    return SensorRecording(
        device_id=obj["device_id"],
        rate_hz=obj["rate_hz"],
        mag=obj["mag"],
        gyro=obj.get("gyro"),
        label=obj.get("label"),
        meta=obj.get("meta") or {},
    )


def save_recordings(recordings: Sequence[SensorRecording], path) -> None:
    """Write recordings as JSON Lines. Output bytes are a pure function of the input."""
    lines = [
        json.dumps(_recording_to_obj(rec), separators=(",", ":"), ensure_ascii=False)
        for rec in recordings
    ]
    text = "".join(line + "\n" for line in lines)
    Path(path).write_text(text, encoding="utf-8")


def load_recordings(path) -> list[SensorRecording]:
    """Read a JSON Lines recording file, rejecting the whole file on any bad line."""
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    out: list[SensorRecording] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{p}: line {lineno}: invalid JSON ({exc.msg})") from exc
        try:
            out.append(_recording_from_obj(obj))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{p}: line {lineno}: {exc}") from exc
    return out
