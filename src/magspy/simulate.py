"""Synthetic CPU-load signatures and their rendering into sensor recordings.

The coupling model is additive and linear: the ambient magnetic field is
disturbed along a fixed device-specific direction by an amount proportional
to the instantaneous CPU load, on top of i.i.d. per-axis Gaussian sensor
noise. Device motion rigidly rotates the ambient field and is mirrored in
the gyroscope output; translation is ignored (the geomagnetic field is
locally uniform).

Every operation here is a pure function of its arguments including the seed,
so recordings can be rendered in parallel with identical results.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .preprocess import pca_first_component
from .traces import (CpuPattern, SensorRecording, _check_count, _check_real,
                     _from_dict, _frozen_array, _json_object, _positive_rate)

#: A plausible ambient geomagnetic field, microtesla.
DEFAULT_BASELINE_FIELD = (20.0, 5.0, 43.0)
#: Unit coupling direction used by the stock profiles ((9, 12, 20) / 25).
DEFAULT_COUPLING_DIR = (0.36, 0.48, 0.8)

# Shared launch envelope for class signatures: a burst decaying to a low
# plateau. Class identity lives in the sub-second segment structure riding
# on top of it, which is what a high sampling rate can resolve.
_ENV_FLOOR = 0.30
_ENV_AMPLITUDE = 0.45
_ENV_TAU_S = 3.0
#: The most samples a config may render in one signal (stock configs: 10^4).
_MAX_SAMPLES = 10 ** 6


def _stable_seed(*parts) -> int:
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:16], "little")


def _vector3(name: str, values, unit: bool = False) -> np.ndarray:
    """``values`` as a frozen 3-vector, of unit length if ``unit``. ``math.hypot``
    takes the norm without squaring, so no finite entry overflows."""
    v = _frozen_array(values, name=name)
    if v.shape != (3,) or unit and abs(math.hypot(*v) - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a 3-component {'unit ' if unit else ''}vector")
    return v


@dataclass(frozen=True, eq=False)
class DeviceProfile:
    """Device coupling parameters for rendering recordings.

    ``gain`` is the disturbance amplitude in microtesla at 100% CPU load;
    ``noise_std`` the per-axis Gaussian sensor noise. ``gyro_noise_std`` is
    zero by default so stationary renderings carry no gyroscope channel.
    """

    baseline_field: np.ndarray
    coupling_dir: np.ndarray
    gain: float
    noise_std: float
    rate_hz: float
    gyro_noise_std: float = 0.0

    def __post_init__(self):
        baseline = _vector3("baseline_field", self.baseline_field)
        coupling = _vector3("coupling_dir", self.coupling_dir, unit=True)
        for name in ("gain", "noise_std", "gyro_noise_std"):
            _check_real(name, getattr(self, name), 0.0)
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "baseline_field", baseline)
        object.__setattr__(self, "coupling_dir", coupling)
        object.__setattr__(self, "rate_hz", _positive_rate(self.rate_hz))


@dataclass(frozen=True, eq=False)
class RotationEvent:
    """A smooth rotation-rate pulse about a fixed axis."""

    start_index: int
    duration_samples: int
    peak_rate_rad_s: float
    axis: np.ndarray

    def __post_init__(self):
        _check_count("start_index", self.start_index, 0)
        _check_count("duration_samples", self.duration_samples, 1)
        _check_real("peak_rate_rad_s", self.peak_rate_rad_s, 0.0)
        object.__setattr__(self, "axis", _vector3("axis", self.axis, unit=True))


@dataclass(frozen=True, eq=False)
class MotionScript:
    """Rotation-rate pulses applied to the device orientation during rendering."""

    rotation_events: tuple[RotationEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rotation_events", tuple(self.rotation_events))


def profile_for_snr(snr_db: float, **fields) -> DeviceProfile:
    """Build a profile whose square-pattern calibration SNR is ``snr_db``.

    ``fields`` are the other fields of a device profile document, with its
    defaults (see :func:`profile_from_dict`). Under the linear coupling
    model the calibration amplitude equals the gain, so gain = noise_std *
    10**(snr_db / 20).
    """
    return profile_from_dict({**fields, "snr_db": snr_db})


def _snr_gain(snr_db, noise_std) -> float:
    """noise_std * 10**(snr_db / 20), which must be finite, for noise_std > 0."""
    _check_real("snr_db", snr_db)
    _check_real("noise_std", noise_std, 0.0, exclusive=True)
    try:
        gain = noise_std * 10.0 ** (snr_db / 20.0)
    except OverflowError:
        gain = math.inf
    if not math.isfinite(gain):
        raise ValueError(f"the gain noise_std * 10**(snr_db / 20) is too large for a "
                         f"float at snr_db {snr_db!r}, noise_std {noise_std!r}")
    return gain


def make_class_signature(class_id: str, duration_s: float, rate_hz: float,
                         seed: int) -> CpuPattern:
    """Deterministic per-class CPU-load signature.

    The signal is piecewise constant with short linear ramps at segment
    boundaries: segment count, durations, levels, and ramp lengths are drawn
    from a generator keyed by (class_id, seed). All classes share the same
    slow launch envelope; class identity lives in sub-second up/down segment
    pairs of equal duration riding on it. The pairing makes the fine
    structure cancel in coarse block averages, so heavy downsampling erases
    class identity while high rates resolve it.
    """
    _check_real("duration_s", duration_s, 0.0, exclusive=True)
    n = int(round(duration_s * rate_hz))
    if n < 1:
        raise ValueError("duration too short for the requested rate")
    rng = np.random.default_rng(_stable_seed("signature", class_id, seed))

    # Equal-duration paired segments with opposite offsets around the
    # envelope, so the fine structure integrates to zero over any window
    # spanning whole pairs. Pairs are clamped to never straddle the 2 s
    # grid, making multi-second block averages class-independent while the
    # sub-second layout stays fully class-specific.
    grid_len = max(2, int(round(2.0 * rate_hz)))
    durations: list[int] = []
    offsets: list[float] = []
    total = 0
    while total < n:
        to_grid = grid_len - (total % grid_len)
        if to_grid < 2:
            durations.append(to_grid)
            offsets.append(0.0)
            total += to_grid
            continue
        half = max(1, int(round(rng.uniform(0.15, 0.45) * rate_hz)))
        half = min(half, to_grid // 2)
        magnitude = rng.uniform(0.10, 0.22)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        for _ in range(2):
            durations.append(half)
            offsets.append(sign * magnitude)
            sign = -sign
            total += half
    # Trim the excess from both halves of the final pair so the cancellation
    # survives at the trace end.
    excess = total - n
    if excess > 0:
        remaining = durations[-1] + durations[-2] - excess
        durations[-1] = remaining // 2
        durations[-2] = remaining - durations[-1]
        if durations[-1] == 0:
            durations.pop()
            offsets.pop()

    levels = []
    start = 0
    for d, off in zip(durations, offsets):
        center_t = (start + d / 2.0) / rate_hz
        env = _ENV_FLOOR + _ENV_AMPLITUDE * math.exp(-center_t / _ENV_TAU_S)
        headroom = min(env - 0.02, 0.98 - env)
        levels.append(env + math.copysign(min(abs(off), headroom), off))
        start += d
    values = np.repeat(np.asarray(levels), durations)

    ramp_max = max(2, int(round(0.06 * rate_hz)))
    boundary = 0
    for k in range(len(durations) - 1):
        boundary += durations[k]
        ramp = int(rng.integers(0, ramp_max + 1))
        if ramp >= 2:
            a = max(0, boundary - ramp // 2)
            b = min(n, a + ramp)
            values[a:b] = np.linspace(levels[k], levels[k + 1], b - a)
    return CpuPattern(np.clip(values, 0.0, 1.0), rate_hz)


def synth_square_pattern(high_s: float, low_s: float, repeats: int,
                         rate_hz: float) -> CpuPattern:
    """Alternating full/idle load cycles; the stock calibration stimulus."""
    _check_real("high_s", high_s, 0.0, exclusive=True)
    _check_real("low_s", low_s, 0.0, exclusive=True)
    _check_count("repeats", repeats, 1)
    high_n = int(round(high_s * rate_hz))
    low_n = int(round(low_s * rate_hz))
    if high_n < 1 or low_n < 1:
        raise ValueError("durations too short for the requested rate")
    cycle = np.concatenate([np.ones(high_n), np.zeros(low_n)])
    return CpuPattern(np.tile(cycle, repeats), rate_hz)


def perturb_pattern(cpu: CpuPattern, seed: int, *, start_jitter_s: float = 0.0,
                    time_warp: float = 0.0, level_jitter: float = 0.0,
                    background_drift: float = 0.0) -> CpuPattern:
    """Per-trace variation of a signature.

    Models run-to-run differences between openings of the same activity:
    start jitter shifts the whole signal (samples shifted in from before the
    start are idle), time warp stretches it, level jitter rescales it, and
    ``background_drift`` adds a smooth random utilization curve standing in
    for other processes; the drift varies on a seconds scale, so it swamps
    coarse block averages while leaving the sub-second structure intact.
    """
    rng = np.random.default_rng(_stable_seed("perturb", seed))
    v = cpu.values
    n = v.size
    warp = rng.uniform(1.0 - time_warp, 1.0 + time_warp) if time_warp > 0 else 1.0
    shift = (rng.uniform(-start_jitter_s, start_jitter_s) * cpu.rate_hz
             if start_jitter_s > 0 else 0.0)
    src = (np.arange(n) - shift) * warp
    out = np.interp(src, np.arange(n), v, left=0.0, right=float(v[-1]))
    if level_jitter > 0:
        scale = rng.uniform(1.0 - level_jitter, 1.0 + level_jitter)
        offset = rng.uniform(-level_jitter / 2.0, level_jitter / 2.0)
        out = out * scale + offset
    if background_drift > 0:
        knot_step = max(2, int(round(2.5 * cpu.rate_hz)))
        knots = np.arange(0, n + knot_step, knot_step)
        drift = rng.uniform(0.0, background_drift, knots.size)
        out = out + np.interp(np.arange(n), knots, drift)
    return CpuPattern(np.clip(out, 0.0, 1.0), cpu.rate_hz)


def _resampled_length(n_src: int, src_rate: float, dst_rate: float) -> int:
    """How many samples :func:`_resample_linear` makes of ``n_src`` at ``dst_rate``."""
    if src_rate == dst_rate:
        return n_src
    n = n_src * dst_rate / src_rate
    if math.isinf(n):
        raise ValueError(f"rate_hz {dst_rate} resamples {n_src} samples at "
                         f"{src_rate} Hz to an unbounded count")
    return max(1, round(n))


def _resample_linear(values: np.ndarray, src_rate: float, dst_rate: float) -> np.ndarray:
    if src_rate == dst_rate:
        return np.asarray(values, dtype=np.float64)
    n_src = len(values)
    t_dst = np.arange(_resampled_length(n_src, src_rate, dst_rate)) / dst_rate
    t_src = np.arange(n_src) / src_rate
    return np.interp(t_dst, t_src, values)


def _check_turn(name: str, rate_rad_s: float, rate_hz: float) -> None:
    """Reject a rotation rate past pi rad per sample, where the rotation aliases."""
    if rate_rad_s / rate_hz > math.pi:
        raise ValueError(f"{name} gives {rate_rad_s} rad/s, over pi rad per sample "
                         f"at rate_hz {rate_hz}")


def _rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def render_recording(cpu: CpuPattern, device: DeviceProfile,
                     motion: MotionScript | None = None, seed: int = 0,
                     device_id: str = "sim", label: str | None = None,
                     meta: dict[str, str] | None = None) -> SensorRecording:
    """Render a CPU pattern into a magnetometer + gyroscope recording.

    mag[i] = R_i(baseline) + gain * cpu[i] * coupling_dir + noise, where R_i
    is the cumulative rotation implied by the motion script (identity when
    absent). The gyroscope reports the instantaneous rotation rate plus
    ``gyro_noise_std`` noise; with neither rotation nor gyro noise its output
    would be all zeros, so the recording carries no ``gyro`` (None). The CPU
    pattern is first resampled to the device rate by linear interpolation
    when the rates differ.
    """
    values = _resample_linear(cpu.values, cpu.rate_hz, device.rate_hz)
    n = len(values)
    rng = np.random.default_rng(_stable_seed("render", seed))

    rate_vec = np.zeros((n, 3))
    if motion is not None:
        for ev in motion.rotation_events:
            _check_turn("peak_rate_rad_s", ev.peak_rate_rad_s, device.rate_hz)
            end = ev.start_index + ev.duration_samples
            if end > n:
                raise ValueError("rotation event extends past the recording")
            u = (np.arange(ev.duration_samples) + 0.5) / ev.duration_samples
            pulse = np.sin(np.pi * u) ** 2  # positive: u lies inside (0, 1)
            pulse *= ev.peak_rate_rad_s / pulse.max()
            rate_vec[ev.start_index:end] += pulse[:, None] * ev.axis

    rotating = motion is not None and bool(np.any(rate_vec))
    base = np.broadcast_to(device.baseline_field, (n, 3)).copy()
    if rotating:
        dt = 1.0 / device.rate_hz
        rot = np.eye(3)
        moving = np.flatnonzero(np.einsum("ij,ij->i", rate_vec, rate_vec))
        first = int(moving[0]) if moving.size else n
        for i in range(first, n):
            w = rate_vec[i]
            speed = float(np.linalg.norm(w))
            if speed > 0.0:
                rot = _rotation_matrix(w / speed, speed * dt) @ rot
            base[i] = rot @ device.baseline_field

    mag = base + device.gain * values[:, None] * device.coupling_dir
    if device.noise_std > 0:
        mag = mag + rng.normal(0.0, device.noise_std, (n, 3))
    gyro = rate_vec if rotating else None
    if device.gyro_noise_std > 0:
        gyro = rate_vec + rng.normal(0.0, device.gyro_noise_std, (n, 3))
    return SensorRecording(device_id=device_id, rate_hz=device.rate_hz, mag=mag,
                           gyro=gyro, label=label, meta=meta or {})


def _aligned(recording: SensorRecording, reference: CpuPattern) -> tuple:
    """The projected trace and the reference at its rate, cut to a common length."""
    ref = _resample_linear(reference.values, reference.rate_hz, recording.rate_hz)
    trace = pca_first_component(recording.mag, recording.rate_hz).projected.values
    length = min(len(trace), len(ref))
    return trace[:length], ref[:length]


def estimate_snr(recording: SensorRecording, reference: CpuPattern) -> float:
    """Signal-to-noise ratio of a rendered calibration recording, in dB.

    The reference marks high-load samples (value >= 0.5) versus idle ones.
    SNR = 20 log10(A / sigma) with A the separation of the mean projected
    trace between the two regimes and sigma the idle-sample standard
    deviation. Returns +inf when the idle segment is exactly noiseless.
    """
    trace, ref = _aligned(recording, reference)
    high = ref >= 0.5
    idle = ~high
    if not high.any() or not idle.any():
        raise ValueError("reference must contain both high-load and idle samples")
    amplitude = abs(float(trace[high].mean()) - float(trace[idle].mean()))
    sigma = float(trace[idle].std())
    if sigma == 0.0:
        return math.inf
    if amplitude == 0.0:
        return -math.inf
    return 20.0 * math.log10(amplitude / sigma)


def pattern_correlation(recording: SensorRecording, reference: CpuPattern) -> float:
    """Absolute Pearson correlation between the projected trace and a CPU reference.

    The absolute value is returned because the sign of the principal
    component is arbitrary.
    """
    trace, ref = _aligned(recording, reference)
    a = trace - trace.mean()
    b = ref - ref.mean()
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0.0:
        raise ValueError("zero variance in trace or reference")
    return abs(float(a @ b) / denom)


def random_motion_script(n_samples: int, rate_hz: float, seed: int, *,
                         peak_rate_rad_s: tuple = (1.5, 3.0)) -> MotionScript:
    """Random hand-held-style jitter: 2 to 4 smooth rotation pulses of 0.3 to 0.8 s."""
    rng = np.random.default_rng(_stable_seed("motion", seed))
    count = int(rng.integers(2, 5))
    events = []
    for _ in range(count):
        dur = max(2, int(round(rng.uniform(0.3, 0.8) * rate_hz)))
        dur = min(dur, n_samples)
        start = int(rng.integers(0, max(1, n_samples - dur + 1)))
        peak = float(rng.uniform(*peak_rate_rad_s))
        axis = rng.normal(0.0, 1.0, 3)
        axis /= np.linalg.norm(axis)
        events.append(RotationEvent(start, dur, peak, axis))
    return MotionScript(tuple(events))


# ---------------------------------------------------------------------------
# JSON config documents for profiles and motion scripts
# ---------------------------------------------------------------------------

# Fields a device profile document may leave out.
_PROFILE_DEFAULTS = dict(baseline_field=DEFAULT_BASELINE_FIELD,
                         coupling_dir=DEFAULT_COUPLING_DIR, noise_std=1.0, rate_hz=100.0)


def profile_from_dict(obj: dict) -> DeviceProfile:
    """A device profile document: ``snr_db`` in place of ``gain`` becomes the
    gain of :func:`profile_for_snr` before the profile is built."""
    doc = {**_PROFILE_DEFAULTS, **_json_object(obj, "device profile")}
    if "snr_db" not in doc:
        return _from_dict(DeviceProfile, doc, "device profile")
    if "gain" in doc:
        raise ValueError("a device profile gives snr_db or gain, not both")
    doc["gain"] = doc.pop("snr_db")
    return _from_dict(DeviceProfile, doc, "device profile",
                      gain=lambda snr_db: _snr_gain(snr_db, doc["noise_std"]))


def load_device_profile(path) -> DeviceProfile:
    return profile_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def motion_script_from_dict(obj: dict) -> MotionScript:
    return _from_dict(MotionScript, obj, "motion script", rotation_events=lambda events:
                      tuple(_from_dict(RotationEvent, event, "rotation event")
                            for event in events))


def load_motion_script(path) -> MotionScript:
    return motion_script_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
