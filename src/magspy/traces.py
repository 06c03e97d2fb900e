"""Core value types for sensor captures plus their JSON Lines persistence.

Units are fixed package-wide: magnetometer samples in microtesla, gyroscope
samples in rad/s, rates in Hz. Sampling is uniform; ``rate_hz`` is
authoritative and no per-sample timestamps are kept. All types are immutable
after construction, with read-only arrays, so they are safe to share.
The series types here and in :mod:`magspy.detect` share one base,
:class:`_Series`; other numeric fields go through :func:`_check_count`
and :func:`_check_real`. :func:`_from_dict` builds every JSON document the
package reads, and :func:`_check_entries` types the entries of its arrays.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields
from itertools import chain
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


def _check_count(name: str, value, minimum: float = float("-inf")) -> None:
    """Reject ``value`` unless it is an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


def _check_real(name: str, value, minimum: float = float("-inf"), *,
                exclusive: bool = False) -> None:
    """Reject ``value`` unless it is a finite real number (not a bool) of at
    least ``minimum``, or above it when ``exclusive``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")
    if not isinstance(value, numbers.Integral) and not np.isfinite(value):
        raise ValueError(f"{name} must be finite, not {value!r}")
    if value < minimum or (exclusive and value == minimum):
        bound = "greater than" if exclusive else "at least"
        raise ValueError(f"{name} must be {bound} {minimum}")


def _check_entries(name: str, values, types: set, kind: str = "numbers"):
    """``values`` (any iterable) if each entry's exact type, so never a bool
    for ``int``, is in ``types``: one C-level ``set(map(type, ...))`` pass."""
    if not set(map(type, values)) <= types:
        raise ValueError(f"{name} must hold only {kind}")
    return values


def _json_object(obj, what: str, keys=None) -> dict:
    """``obj`` if it is a JSON object with no key outside ``keys`` (if given)."""
    if type(obj) is not dict:
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    unknown = obj.keys() - keys if keys is not None else ()
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    return obj


def _from_dict(cls, obj, what: str, **convert):
    """``cls`` built from the JSON object ``obj``, whose keys must be fields of
    ``cls``, after ``convert[field]`` maps each value; ``cls`` supplies defaults
    and checks. Any TypeError or OverflowError, such as a missing field,
    becomes a ValueError naming the document, ``what``."""
    _json_object(obj, what, {f.name for f in fields(cls)})
    try:
        return cls(**{name: convert[name](value) if name in convert else value
                      for name, value in obj.items()})
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"invalid {what}: {exc}") from exc


def _positive_rate(rate_hz) -> float:
    """``rate_hz`` as a float, which must be a finite positive number."""
    _check_real("rate_hz", rate_hz, 0.0, exclusive=True)
    return float(rate_hz)


def _samples3(values, name: str) -> np.ndarray:
    """``values`` as a read-only, non-empty (n, 3) array of finite samples."""
    arr = _frozen_array(values)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise ValueError(f"{name} must hold one or more 3-component samples")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


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
        object.__setattr__(self, "mag", _samples3(self.mag, "mag"))
        if self.gyro is not None:
            gyro = _samples3(self.gyro, "gyro")
            if gyro.shape != self.mag.shape:
                raise ValueError(f"gyro length {len(gyro)} != mag length {len(self)}")
            object.__setattr__(self, "gyro", gyro)

        object.__setattr__(self, "rate_hz", _positive_rate(self.rate_hz))

        if not isinstance(self.device_id, str):
            raise ValueError("device_id must be a string")
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError("label must be a string when present")
        if not isinstance(self.meta, dict) or not all(
                isinstance(s, str) for s in chain.from_iterable(self.meta.items())):
            raise ValueError("meta must map strings to strings")
        object.__setattr__(self, "meta", dict(self.meta))

    def __len__(self) -> int:
        return self.mag.shape[0]


@dataclass(frozen=True, eq=False)
class _Series:
    """Finite values sampled uniformly at ``rate_hz``: the base of the series types.

    Subclasses add fields after these two and checks after this
    ``__post_init__``.
    """

    values: np.ndarray
    rate_hz: float

    _values_name = "values"  # opens the error message for bad values

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _frozen_array(self.values, name=self._values_name))
        object.__setattr__(self, "rate_hz", _positive_rate(self.rate_hz))

    def __len__(self) -> int:
        return self.values.size

    @property
    def duration_s(self) -> float:
        return len(self) / self.rate_hz


@dataclass(frozen=True, eq=False)
class CpuPattern(_Series):
    """A discrete CPU-utilization-over-time signal, values in [0, 1]."""

    def __post_init__(self):
        super().__post_init__()
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise ValueError("utilization values must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class Trace1D(_Series):
    """A one-dimensional real-valued trace at a fixed rate.

    ``normalized`` is True only when the values are guaranteed to lie in
    [0, 1] (set by :func:`magspy.preprocess.normalize_unit_range`).
    """

    normalized: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.normalized and (self.values.min() < 0.0 or self.values.max() > 1.0):
            raise ValueError("normalized trace has values outside [0, 1]")


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
#   mag (array of [x, y, z] triples), gyro (optional array of triples;
#   simulate renders none without rotation or gyro noise),
#   meta (optional string-to-string object, omitted when empty).
# Floats are written with Python's shortest round-trip representation, which
# preserves values exactly (beyond the 9-significant-digit contract).
# ---------------------------------------------------------------------------

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


def _sample_array(values, name: str) -> np.ndarray:
    """JSON samples as an (n, 3) float64 array, if every entry is a number.

    NumPy would read ``true`` as 1.0 and ``"1.5"`` as 1.5, so the entry types
    are checked first. Every pass over the samples runs in C: ``map`` builds
    the sets of row types, lengths and entry types, and ``np.fromiter``
    converts the checked entries.
    """
    if (type(values) is not list or not set(map(type, values)) <= {list}
            or not set(map(len, values)) <= {3}):
        raise ValueError(f"{name} must be an array of [x, y, z] number triples")
    _check_entries(name, chain.from_iterable(values), {float, int})
    flat = np.fromiter(chain.from_iterable(values), np.float64, 3 * len(values))
    return flat.reshape(-1, 3)


def save_recordings(recordings: Sequence[SensorRecording], path) -> None:
    """Write recordings as JSON Lines. Output bytes are a pure function of the input."""
    lines = [
        json.dumps(_recording_to_obj(rec), separators=(",", ":"), ensure_ascii=False)
        for rec in recordings
    ]
    text = "".join(line + "\n" for line in lines)
    Path(path).write_text(text, encoding="utf-8")


def _json_lines(path, read):
    """``read(obj)`` of each non-blank line of the JSON Lines file ``path``, in order.

    Lines are read one at a time and end at ``\\n`` only, so strings may hold
    other line separators, such as U+2028. Every error names the file and line.
    """
    with Path(path).open(encoding="utf-8", newline="\n") as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                item = read(json.loads(line))
            except (ValueError, OverflowError) as exc:
                why = (f"invalid JSON ({exc.msg})"
                       if isinstance(exc, json.JSONDecodeError) else exc)
                raise ValueError(f"{path}: line {lineno}: {why}") from exc
            yield item


def _read_recordings(path):
    """Each recording of a JSON Lines recording file, read as it is reached;
    a bad line raises when it is read."""
    return _json_lines(path, lambda obj: _from_dict(
        SensorRecording, obj, "recording", mag=lambda mag: _sample_array(mag, "mag"),
        gyro=lambda gyro: None if gyro is None else _sample_array(gyro, "gyro")))


def load_recordings(path) -> list[SensorRecording]:
    """Read a JSON Lines recording file, rejecting the whole file on any bad line."""
    return list(_read_recordings(path))
