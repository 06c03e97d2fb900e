"""The gyroscope threshold test for disturbed recordings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traces import _samples3


@dataclass(frozen=True)
class MotionThresholds:
    """Bounds on the mean and maximum rotation-rate magnitude, rad/s. The
    defaults are calibrated on simulated hand-held jitter."""

    mean_threshold: float = 0.05
    max_threshold: float = 0.5

    def __post_init__(self):
        for name in ("mean_threshold", "max_threshold"):  # inf is valid: never reject
            value = getattr(self, name)
            if isinstance(value, bool) or not value >= 0:
                raise ValueError(f"{name} must be a non-negative number, not {value!r}")


def is_disturbed(gyro, thresholds: MotionThresholds) -> bool:
    """True when the mean or the maximum Euclidean magnitude of the 3-axis
    rotation rates ``gyro`` exceeds its threshold. A recording without a
    gyroscope (``gyro`` None) has no rotation: it is never disturbed."""
    if gyro is None:
        return False
    g = _samples3(gyro, "gyro")
    magnitude = np.sqrt((g * g).sum(axis=1))
    return (float(magnitude.mean()) > thresholds.mean_threshold
            or float(magnitude.max()) > thresholds.max_threshold)
