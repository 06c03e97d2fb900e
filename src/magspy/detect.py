"""Target detection in continuous streams via pattern cross-correlation.

An averaged activity pattern is slid along a one-dimensional stream; local
maxima of the correlation series that clear height, prominence, and width
thresholds become candidate occurrence times, which can then be classified
by cutting a window at each candidate.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forest import ForestModel, _predict_labels
from .metrics import ConfusionCounts
from .preprocess import _round_half_up, normalize_unit_range
from .traces import Trace1D, _frozen_array, _positive_rate


@dataclass(frozen=True, eq=False)
class ActivityPattern:
    """Averaged, mean-centered activity template for one class.

    :func:`average_pattern` guarantees zero mean; the type itself does not
    re-check it so that synthetic templates (e.g. a unit impulse) remain
    expressible in tests and tooling.
    """

    values: np.ndarray
    rate_hz: float
    class_label: str

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _frozen_array(self.values, name="pattern values"))
        object.__setattr__(self, "rate_hz", _positive_rate(self.rate_hz))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class CorrelationSeries:
    """c[k] for every alignment k of the pattern inside the stream."""

    values: np.ndarray
    rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _frozen_array(self.values, name="series values"))
        object.__setattr__(self, "rate_hz", _positive_rate(self.rate_hz))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class PeakThresholds:
    min_height: float
    min_prominence: float
    min_width_samples: int = 1

    def __post_init__(self):
        if self.min_width_samples < 1:
            raise ValueError("min_width_samples must be at least 1")


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
            raise ValueError("traces must share length and rate")
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
    # Strictly-above-both-neighbors maxima; plateaus report their center.
    peaks: list[int] = []
    n = v.size
    i = 1
    while i < n - 1:
        if v[i] > v[i - 1]:
            j = i
            while j + 1 < n and v[j + 1] == v[i]:
                j += 1
            if j + 1 < n and v[j + 1] < v[i]:
                peaks.append((i + j) // 2)
            i = j + 1
        else:
            i += 1
    return peaks


def _prominences(v: np.ndarray, peaks: list[int]) -> dict[int, float]:
    """Topographic prominence of each peak.

    Peaks are processed in descending height (ties by position); a peak's
    saddles are the lowest values separating it from the nearest
    higher-ranked peak on each side, or from the series end when none
    exists. Prominence is the height above the higher of the two saddles.
    """
    order = sorted(range(len(peaks)), key=lambda k: (-v[peaks[k]], peaks[k]))
    placed: list[int] = []
    prom: dict[int, float] = {}
    n = v.size
    for k in order:
        p = peaks[k]
        pos = bisect_left(placed, p)
        lo = placed[pos - 1] + 1 if pos > 0 else 0
        hi = placed[pos] if pos < len(placed) else n
        left_saddle = float(v[lo:p].min()) if p > lo else float(v[p])
        right_saddle = float(v[p + 1:hi].min()) if hi > p + 1 else float(v[p])
        prom[p] = float(v[p]) - max(left_saddle, right_saddle)
        insort(placed, p)
    return prom


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
    peaks = _local_maxima(v)
    if not peaks:
        return []
    prom = _prominences(v, peaks)
    accepted = []
    for p in peaks:
        if v[p] < thresholds.min_height:
            continue
        if prom[p] < thresholds.min_prominence:
            continue
        if _width_at_half_prominence(v, p, prom[p]) < thresholds.min_width_samples:
            continue
        accepted.append(p)
    return accepted


def detect_and_classify(stream: Trace1D, series: CorrelationSeries,
                        thresholds: PeakThresholds, model: ForestModel,
                        window_s: float = 12.0) -> list[Detection]:
    """Find peaks in a stream's correlation series, then classify a window at each.

    ``series`` is ``cross_correlate(stream, pattern)``, computed once by the
    caller (who usually also derives ``thresholds`` from it). A window of
    ``window_s`` seconds is cut at each accepted peak, normalized, and
    featurized with the model's feature count; all windows are classified
    in one batch. Windows extending past the stream end are dropped.
    """
    if series.rate_hz != stream.rate_hz:
        raise ValueError("series and stream rates differ")
    if len(series) > len(stream):
        raise ValueError("series is longer than the stream")
    window = _round_half_up(window_s * stream.rate_hz)
    peaks = [k for k in find_peaks(series, thresholds) if k + window <= len(stream)]
    if not peaks:
        return []
    windows = [normalize_unit_range(Trace1D(stream.values[k:k + window],
                                            stream.rate_hz, normalized=False))
               for k in peaks]
    labels, _ = _predict_labels(model, windows, model.n_features)
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
    return ActivityPattern(obj["values"], obj["rate_hz"], obj["class_label"])
