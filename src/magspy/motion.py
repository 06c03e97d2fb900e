"""Gyroscope-based movement metrics and the threshold test for disturbed recordings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traces import _samples3

#: Defaults calibrated on simulated hand-held jitter (rad/s).
DEFAULT_MEAN_THRESHOLD = 0.05
DEFAULT_MAX_THRESHOLD = 0.5


@dataclass(frozen=True)
class MotionMetrics:
    """Mean and maximum Euclidean rotation-rate magnitude over a window, rad/s."""

    mean_rate: float
    max_rate: float

    def __post_init__(self):
        if not 0.0 <= self.mean_rate <= self.max_rate:
            raise ValueError("need 0 <= mean_rate <= max_rate")


@dataclass(frozen=True)
class MotionThresholds:
    mean_threshold: float = DEFAULT_MEAN_THRESHOLD
    max_threshold: float = DEFAULT_MAX_THRESHOLD

    def __post_init__(self):
        for name in ("mean_threshold", "max_threshold"):  # inf is valid: never reject
            value = getattr(self, name)
            if isinstance(value, bool) or not value >= 0:
                raise ValueError(f"{name} must be a non-negative number, not {value!r}")


def motion_metrics(gyro) -> MotionMetrics:
    """Reduce 3-axis rotation rates to (mean magnitude, max magnitude)."""
    g = _samples3(gyro, "gyro")
    magnitude = np.sqrt((g * g).sum(axis=1))
    return MotionMetrics(mean_rate=float(magnitude.mean()),
                         max_rate=float(magnitude.max()))


def is_disturbed(metrics: MotionMetrics, thresholds: MotionThresholds) -> bool:
    """True when either the mean or the max rotation rate exceeds its threshold."""
    return (metrics.mean_rate > thresholds.mean_threshold
            or metrics.max_rate > thresholds.max_threshold)

