"""Raw 3-axis magnetometer data to normalized one-dimensional traces.

The reduction chain is: project onto the first principal component of the
3x3 sample covariance, optionally decimate by block averaging, then rescale
to [0, 1]. The principal axis is computed analytically (the problem is fixed
at dimension 3), with a deterministic sign convention so repeated runs agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .traces import SensorRecording, Trace1D, _frozen_array, _samples3


@dataclass(frozen=True, eq=False)
class PcaResult:
    """First principal direction of 3-axis data and the centered projection onto it."""

    component: np.ndarray
    projected: Trace1D
    explained_fraction: float


def _det3(m: np.ndarray) -> float:
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _sym3_eigenvalues(c: np.ndarray) -> tuple[float, float, float]:
    """Eigenvalues of a symmetric 3x3 matrix in descending order (trigonometric form)."""
    off = c[0, 1] ** 2 + c[0, 2] ** 2 + c[1, 2] ** 2
    q = (c[0, 0] + c[1, 1] + c[2, 2]) / 3.0
    p2 = (c[0, 0] - q) ** 2 + (c[1, 1] - q) ** 2 + (c[2, 2] - q) ** 2 + 2.0 * off
    if p2 <= 0.0:
        return (q, q, q)
    p = math.sqrt(p2 / 6.0)
    b = (c - q * np.eye(3)) / p
    r = min(1.0, max(-1.0, _det3(b) / 2.0))
    phi = math.acos(r) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    return (lam1, lam2, lam3)


def _principal_axis(cov: np.ndarray, lam: tuple[float, float, float]) -> np.ndarray:
    # By Cayley-Hamilton, (cov - lam2 I)(cov - lam3 I) maps onto the lam1
    # eigenspace; its largest column is a stable eigenvector candidate.
    eye = np.eye(3)
    m = (cov - lam[1] * eye) @ (cov - lam[2] * eye)
    col = int(np.argmax(np.einsum("ij,ij->j", m, m)))
    v = m @ m[:, col]
    norm = float(np.linalg.norm(v))
    scale = max(abs(lam[0]), 1.0)
    if norm <= 1e-18 * scale * scale * scale:
        # Near-degenerate leading pair: fall back to plain power iteration.
        # On samples scaled into (-1, 1), lam[0] < 6: the bound is < 2.2e-16.
        v = np.full(3, 1.0 / math.sqrt(3.0))
        for _ in range(512):
            w = cov @ v
            wn = float(np.linalg.norm(w))
            if wn == 0.0:
                break
            w /= wn
            if float(np.linalg.norm(w - v)) < 1e-12:
                v = w
                break
            v = w
        norm = float(np.linalg.norm(v))
    return v / norm


def pca_first_component(mag, rate_hz: float = 1.0) -> PcaResult:
    """Project 3-axis samples onto the direction of maximum variance.

    The component's largest-magnitude entry is made non-negative so the
    orientation is deterministic. Raises ValueError("degenerate trace") when
    all samples coincide.
    """
    x = _samples3(mag, "mag")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    mean = x.mean(axis=0)
    y = x - mean
    # Solve on the samples scaled by a power of two into (-1, 1), so that no
    # product overflows; the scaling is exact (see _principal_axis for the bound).
    s = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    cov = (s.T @ s) / (n - 1)
    lam = _sym3_eigenvalues(cov)
    lam_pos = [max(v, 0.0) for v in lam]
    total = sum(lam_pos)
    if not math.isfinite(total) or lam_pos[0] <= 0.0 or total <= 0.0:
        raise ValueError("degenerate trace")
    v = _principal_axis(cov, lam)
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0.0:
        v = -v
    projected = y @ v
    return PcaResult(
        component=_frozen_array(v),
        projected=Trace1D(projected, rate_hz, normalized=False),
        explained_fraction=lam_pos[0] / total,
    )


def normalize_unit_range(trace: Trace1D) -> Trace1D:
    """Rescale a trace affinely so min maps to 0 and max to 1."""
    v = trace.values
    lo = float(v.min())
    hi = float(v.max())
    if hi == lo:
        raise ValueError("constant trace")
    return Trace1D((v - lo) / (hi - lo), trace.rate_hz, normalized=True)


def augment_with_inverse(trace: Trace1D) -> tuple[Trace1D, Trace1D]:
    """Pair a normalized trace with its reflection about the range midline.

    Both members represent the same activity; the reflection compensates for
    the unknown sign of the disturbance direction and is meant for training
    sets only.
    """
    if not trace.normalized:
        raise ValueError("trace must be normalized")
    inverse = Trace1D(1.0 - trace.values, trace.rate_hz, normalized=True)
    return trace, inverse


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def resample(trace: Trace1D, target_rate_hz: float) -> Trace1D:
    """Decimate a trace by block averaging to a lower (or equal) rate.

    Output sample j is the mean of the input window [j*r, (j+1)*r) with
    r = rate_hz / target_rate_hz; fractional window edges are rounded
    half-up. The normalized flag is cleared because block means may shrink
    the value range.
    """
    if not 0 < target_rate_hz <= trace.rate_hz:
        raise ValueError("target rate must be positive and not exceed the source rate")
    v = trace.values
    n = v.size
    r = trace.rate_hz / float(target_rate_hz)
    out: list[float] = []
    j = 0
    while True:
        start = _round_half_up(j * r)
        if start >= n:
            break
        end = min(n, _round_half_up(j * r + r))
        if end <= start:
            end = start + 1
        out.append(float(v[start:end].mean()))
        j += 1
    return Trace1D(np.asarray(out), float(target_rate_hz), normalized=False)


def preprocess_recording(rec: SensorRecording,
                         target_rate_hz: float | None = None) -> Trace1D:
    """Full reduction chain: PCA projection, optional resampling, unit-range normalization."""
    result = pca_first_component(rec.mag, rec.rate_hz)
    trace = result.projected
    if target_rate_hz is not None and target_rate_hz != rec.rate_hz:
        trace = resample(trace, target_rate_hz)
    return normalize_unit_range(trace)
