"""Target detection in continuous streams via pattern cross-correlation.

An averaged activity pattern is slid along a one-dimensional stream; local
maxima of the correlation series that clear height, prominence, and width
thresholds become candidate occurrence times, which can then be classified
by cutting a window at each candidate. Templates and correlation series
are :class:`magspy.traces._Series` types, like the traces they come from.

Peak finding is array-based: local maxima come from runs of equal values,
and prominences from a monotonic-stack pass over the peaks plus range-minimum
queries on a sparse table. Ties between equally tall peaks go to the earlier
one, which therefore keeps the larger prominence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forest import ForestModel, _predict_labels
from .metrics import ConfusionCounts
from .preprocess import _round_half_up, normalize_unit_range
from .traces import (Trace1D, _check_count, _check_entries, _check_real,
                     _from_dict, _Series)


@dataclass(frozen=True, eq=False)
class ActivityPattern(_Series):
    """Averaged, mean-centered activity template for one class.

    :func:`average_pattern` guarantees zero mean; the type itself does not
    re-check it so that synthetic templates (e.g. a unit impulse) remain
    expressible in tests and tooling.
    """

    class_label: str

    _values_name = "pattern values"

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.class_label, str):
            raise ValueError(f"class_label must be a string, not {self.class_label!r}")


@dataclass(frozen=True, eq=False)
class CorrelationSeries(_Series):
    """c[k] for every alignment k of the pattern inside the stream."""

    _values_name = "series values"


@dataclass(frozen=True)
class PeakThresholds:
    min_height: float
    min_prominence: float
    min_width_samples: int = 1

    def __post_init__(self):
        _check_real("min_height", self.min_height)
        _check_real("min_prominence", self.min_prominence)
        _check_count("min_width_samples", self.min_width_samples, 1)


@dataclass(frozen=True)
class Detection:
    """One candidate occurrence: stream sample index, correlation score, label."""

    time_index: int
    score: float
    predicted_label: str | None = None


def average_pattern(traces, class_label: str) -> ActivityPattern:
    """Pointwise mean of normalized traces, then mean-centered."""
    traces = tuple(traces)
    if not traces:
        raise ValueError("need at least one trace")
    length = len(traces[0])
    rate = traces[0].rate_hz
    for t in traces:
        if not t.normalized:
            raise ValueError("traces must be normalized")
        if len(t) != length or t.rate_hz != rate:
            raise ValueError(f"traces of class {class_label!r} must share "
                             "length and rate")
    mean = np.mean([t.values for t in traces], axis=0)
    return ActivityPattern(mean - mean.mean(), rate, class_label)


def cross_correlate(stream: Trace1D, pattern: ActivityPattern) -> CorrelationSeries:
    """Sliding dot product c[k] = sum_n (t[n+k] - mean(t)) * p[n].

    The stream is mean-centered before the sum so the series behaves like a
    matched filter instead of tracking the baseline.
    """
    if len(pattern) > len(stream):
        raise ValueError("pattern is longer than the stream")
    if pattern.rate_hz != stream.rate_hz:
        raise ValueError("pattern and stream rates differ")
    t = stream.values - stream.values.mean()
    c = np.correlate(t, pattern.values, mode="valid")
    return CorrelationSeries(c, stream.rate_hz)


def _local_maxima(v: np.ndarray) -> list[int]:
    # Runs of equal values that rise from the left neighbor and fall to the
    # right one; a plateau reports its center.
    if v.size < 3:
        return []
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    ends = np.r_[starts[1:] - 1, v.size - 1]
    run = v[starts]
    peak = np.flatnonzero((run[1:-1] > run[:-2]) & (run[1:-1] > run[2:])) + 1
    return ((starts[peak] + ends[peak]) // 2).tolist()


def _prominences(v: np.ndarray, peaks: list[int]) -> dict[int, float]:
    """Topographic prominence of each local maximum in ``peaks`` (ascending).

    ``peaks`` may leave out lower local maxima as long as it keeps every one
    at least as tall as its lowest member: the lower ones never outrank it.

    Peaks are ranked by descending height, ties by position: on its left a
    peak is outranked by a peak at least as tall, on its right only by a
    strictly taller one. One monotonic-stack pass finds the nearest
    higher-ranked peak on each side. The saddles are the lowest values
    between the peak and those neighbors (or the series ends), answered from
    a sparse table of range minima. Prominence is the height above the
    higher of the two saddles.
    """
    if not peaks:
        return {}
    n = v.size
    heights = v[peaks].tolist()
    lo = [0] * len(peaks)
    hi = [n - 1] * len(peaks)
    stack: list[int] = []
    for k, h in enumerate(heights):
        while stack and heights[stack[-1]] < h:
            hi[stack.pop()] = peaks[k] - 1
        if stack:
            lo[k] = peaks[stack[-1]] + 1
        stack.append(k)
    levels = [v]
    while 2 ** len(levels) <= n:
        half = 2 ** (len(levels) - 1)
        levels.append(np.minimum(levels[-1][:-half], levels[-1][half:]))
    table = np.concatenate(levels)
    offsets = np.cumsum([0] + [level.size for level in levels])

    def range_min(a, b):
        # min(v[a:b + 1]) for a <= b: two overlapping power-of-two windows.
        k = np.frexp(b - a + 1)[1] - 1
        return np.minimum(table[offsets[k] + a], table[offsets[k] + b + 1 - 2 ** k])

    at = np.array(peaks)
    left = range_min(np.array(lo), at)
    right = range_min(at, np.array(hi))
    prom = v[at] - np.where(right > left, right, left)
    return dict(zip(peaks, prom.tolist()))


def _width_at_half_prominence(v: np.ndarray, peak: int, prominence: float) -> int:
    level = float(v[peak]) - prominence / 2.0
    if not v[peak] > level:
        return 0
    a = peak
    while a - 1 >= 0 and v[a - 1] > level:
        a -= 1
    b = peak
    while b + 1 < v.size and v[b + 1] > level:
        b += 1
    return b - a + 1


def find_peaks(series: CorrelationSeries, thresholds: PeakThresholds) -> list[int]:
    """Indices of local maxima passing the height, prominence, and width thresholds.

    Width is the number of contiguous samples around the peak exceeding
    (height - prominence / 2). Indices are returned in ascending order.
    """
    v = series.values
    at = np.array(_local_maxima(v), dtype=np.intp)
    # Only the peaks that clear the height are ranked. That is exact: a peak
    # that outranks a tall peak is at least as tall, and the saddles still
    # come from the whole series.
    tall = at[v[at] >= thresholds.min_height].tolist()
    prom = _prominences(v, tall)
    return [p for p in tall if prom[p] >= thresholds.min_prominence
            and _width_at_half_prominence(v, p, prom[p]) >= thresholds.min_width_samples]


def detect_and_classify(stream: Trace1D, series: CorrelationSeries,
                        thresholds: PeakThresholds, model: ForestModel | None,
                        window_s: float = 12.0) -> list[Detection]:
    """Find peaks in a stream's correlation series, then classify a window at each.

    ``series`` is ``cross_correlate(stream, pattern)``, computed once by the
    caller (who usually also derives ``thresholds`` from it). A window of
    ``window_s`` seconds is cut at each accepted peak, normalized, and
    featurized with the model's feature count; all windows are classified
    in one batch. Windows extending past the stream end are dropped. With
    ``model`` None, every accepted peak is an unlabeled detection.
    """
    if series.rate_hz != stream.rate_hz:
        raise ValueError("series and stream rates differ")
    if len(series) > len(stream):
        raise ValueError("series is longer than the stream")
    peaks = find_peaks(series, thresholds)
    labels = [None] * len(peaks)
    if model is not None:
        window = _round_half_up(window_s * stream.rate_hz)
        peaks = [k for k in peaks if k + window <= len(stream)]
        windows = [normalize_unit_range(Trace1D(stream.values[k:k + window],
                                                stream.rate_hz, normalized=False))
                   for k in peaks]
        labels = _predict_labels(model, windows)[0] if peaks else []
    return [Detection(time_index=int(k), score=float(series.values[k]),
                      predicted_label=label)
            for k, label in zip(peaks, labels)]


def match_detections(detections, truth, tolerance_s: float,
                     rate_hz: float) -> list[tuple[Detection, tuple[int, str]]]:
    """Greedy one-to-one matching of detections to truth events.

    Detections are visited in descending score order (ties by time); each
    may claim the nearest unmatched truth event within the tolerance.
    Matching is by time only; labels are scored separately.
    """
    _check_real("tolerance_s", tolerance_s, 0.0)
    truth = list(truth)
    if len({t for t, _ in truth}) != len(truth):
        raise ValueError("truth event indices must be distinct")
    tol = tolerance_s * rate_hz
    matched = [False] * len(truth)
    pairs: list[tuple[Detection, tuple[int, str]]] = []
    for det in sorted(detections, key=lambda d: (-d.score, d.time_index)):
        best = None
        for i, (t_idx, _) in enumerate(truth):
            if matched[i]:
                continue
            delta = abs(det.time_index - t_idx)
            if delta <= tol and (best is None or delta < best[0]):
                best = (delta, i)
        if best is not None:
            matched[best[1]] = True
            pairs.append((det, tuple(truth[best[1]])))
    return pairs


def score_detections(detections, truth, tolerance_s: float,
                     rate_hz: float) -> ConfusionCounts:
    """Confusion counts from greedy one-to-one matching.

    Matched pairs are true positives, leftover detections false positives,
    leftover truth events false negatives.
    """
    detections = list(detections)
    truth = list(truth)
    tp = len(match_detections(detections, truth, tolerance_s, rate_hz))
    return ConfusionCounts(tp=tp, fp=len(detections) - tp,
                           fn=len(truth) - tp)


# ---------------------------------------------------------------------------
# Pattern persistence for the CLI
# ---------------------------------------------------------------------------

def save_pattern(pattern: ActivityPattern, path) -> None:
    obj = {
        "class_label": pattern.class_label,
        "rate_hz": pattern.rate_hz,
        "values": pattern.values.tolist(),
    }
    Path(path).write_text(json.dumps(obj, separators=(",", ":")) + "\n",
                          encoding="utf-8")


def load_pattern(path) -> ActivityPattern:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return _from_dict(ActivityPattern, obj, "activity pattern", values=lambda values:
                      _check_entries("pattern values", values, {int, float}))
