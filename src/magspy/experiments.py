"""End-to-end synthetic experiments over the full pipeline.

Scenarios: closed-world classification, open-world monitored-set detection,
sampling-rate sweep, continuous-stream target detection, movement
robustness, and device SNR calibration. Every run is a pure function of its
configuration (including the seed), so reports are byte-identical across
repeats.

The classification scenarios share one train/test stage (``_train_test``):
split the rendered traces (``_split``), fit a forest on inverse-augmented
training rows (``_fit``), then classify held-out traces in one batch and score.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import detect as _detect
from .forest import (DEFAULT_BIN_COUNT, Dataset, FeatureVector, ForestConfig,
                     _featurize, _predict_labels, cross_validate_grid,
                     default_config_grid, split_dataset, train_forest)
from .metrics import (ConfusionCounts, EvalReport, evaluate, format_report_text,
                      precision_recall_f1)
from .motion import MotionThresholds, is_disturbed
from .preprocess import _round_half_up, preprocess_recording
from .simulate import (_MAX_SAMPLES, DeviceProfile, _check_turn, _resampled_length,
                       _stable_seed, estimate_snr, make_class_signature,
                       pattern_correlation, perturb_pattern, profile_for_snr,
                       profile_from_dict, random_motion_script, render_recording,
                       synth_square_pattern)
from .traces import (UNMONITORED_LABEL, CpuPattern, SensorRecording, Trace1D,
                     _check_count, _check_real, _from_dict)


def _nested(name: str, read, default=None):
    """A reader of the nested config document ``name``: null, {} or [] keeps
    ``default``, and any other falsy value (false, 0, "") is rejected."""
    def nested(value):
        if not value and value not in (None, {}, []):
            raise ValueError(f"{name} must be a JSON document, not {value!r}")
        return read(value) if value else default
    return nested


def _plain(value):
    """JSON-ready copy of a config value: dataclasses become dicts, sequences lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters for one synthetic experiment.

    The default scale (20 classes x 40 traces of 12 s at 100 Hz) is a desk
    reduction of a realistic campaign; raise the counts for full-scale runs.
    ``snr_db`` is the square-pattern calibration SNR used to derive the
    device profile when none is given explicitly.
    """

    scenario: str = "closed-world"
    class_count: int = 20
    traces_per_class: int = 40
    duration_s: float = 12.0
    rate_hz: float = 100.0
    seed: int = 0
    snr_db: float = 12.0
    noise_std: float = 1.0
    device_profiles: tuple[DeviceProfile, ...] | None = None
    train_fraction: float = 0.8
    bin_count: int = DEFAULT_BIN_COUNT
    forest: ForestConfig = field(default_factory=ForestConfig)
    grid: tuple[ForestConfig, ...] | None = None
    cv_folds: int = 5
    # Per-trace variability of repeated openings of the same activity,
    # calibrated so fingerprinting succeeds at native rates but collapses
    # below 1 Hz.
    start_jitter_s: float = 0.15
    time_warp: float = 0.02
    level_jitter: float = 0.05
    background_drift: float = 0.12
    # Open world.
    monitored_count: int = 5
    unmonitored_train_count: int = 45
    background_count: int = 200
    background_traces_each: int = 1
    # Sampling sweep.
    rates: tuple[float, ...] = (100.0, 10.0, 1.0, 0.5)
    # Continuous streams.
    stream_count: int = 50
    stream_s: float = 100.0
    window_s: float = 12.0
    tolerance_s: float = 1.0
    distractor_count: int = 2
    height_sigma: float = 1.5
    prominence_sigma: float = 0.5
    min_width_s: float = 0.05
    # Movement robustness.
    motion_fraction: float = 0.21
    motion_peak_rate: float = 2.0
    motion_thresholds: MotionThresholds = field(default_factory=MotionThresholds)
    # SNR calibration.
    gains: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    calibration_cycles: int = 15

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"scenario must be one of {_SCENARIOS}")
        _check_count("seed", self.seed)
        for name in ("class_count", "traces_per_class", "stream_count", "cv_folds",
                     "background_traces_each", "bin_count", "calibration_cycles"):
            _check_count(name, getattr(self, name), 1)
        for name in ("monitored_count", "unmonitored_train_count",
                     "background_count", "distractor_count"):
            _check_count(name, getattr(self, name), 0)
        for name in ("height_sigma", "prominence_sigma", "snr_db"):
            _check_real(name, getattr(self, name))
        for name in ("tolerance_s", "min_width_s", "start_jitter_s", "time_warp",
                     "level_jitter", "background_drift", "motion_peak_rate",
                     "motion_fraction"):
            _check_real(name, getattr(self, name), 0.0)
        for name in ("duration_s", "rate_hz", "stream_s", "window_s", "train_fraction"):
            _check_real(name, getattr(self, name), 0.0, exclusive=True)
        if self.motion_fraction > 1.0:
            raise ValueError("motion_fraction must lie in [0, 1]")
        if self.train_fraction >= 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        for rate in self.rates:
            _check_real("rates", rate, 0.0, exclusive=True)
        for gain in self.gains:
            _check_real("gains", gain, 0.0)
        if self.scenario == "open-world" and self.monitored_count > self.class_count:
            raise ValueError("monitored_count cannot exceed class_count")
        device_rates = [p.rate_hz for p in self.resolved_profiles()]  # checks the gain
        if self.scenario == "continuous" and self.distractor_count >= self.class_count:
            raise ValueError(f"distractor_count {self.distractor_count} exceeds the "
                             f"{self.class_count - 1} classes other than the target")
        if self.scenario == "movement":  # the largest rate run_movement draws
            _check_turn("motion_peak_rate", 1.5 * self.motion_peak_rate, self.rate_hz)
        # These runners check it again as they start, for library calls; here
        # it fails such a config before simulate or train render anything.
        if self.scenario in ("sweep", "continuous", "movement"):
            _check_device_rate(self, self.scenario)
        # Each signal the scenario renders must hold the samples its code needs,
        # also as rendered at every device rate, and at most _MAX_SAMPLES.
        def check(fields: str, seconds: float, need: int = 2, count=round, times=1):
            n = times * count(min(seconds * self.rate_hz, _MAX_SAMPLES + 1))  # no inf
            lengths = [_resampled_length(n, self.rate_hz, r) for r in device_rates]
            if n < 1 or min(lengths) < need or max(lengths + [n]) > _MAX_SAMPLES:
                raise ValueError(f"{fields} give a signal outside {need} to {_MAX_SAMPLES} "
                                 "samples at rate_hz or at a device rate")
            return n

        n = check("duration_s and rate_hz", self.duration_s)
        if self.scenario == "continuous":
            check("stream_s", self.stream_s, (1 + self.distractor_count) * n)
            check("window_s", self.window_s, max(2, min(self.bin_count, n)), _round_half_up)
        if self.scenario == "snr":  # 2 s of load, then 2 s idle, per cycle
            check("calibration_cycles", 2.0, times=2 * self.calibration_cycles)
        if self.scenario == "sweep" and any(  # one sample left, as resample counts
                _round_half_up(min(self.rate_hz / rate, n)) >= n for rate in self.rates):
            raise ValueError("a rates entry leaves traces of one sample")

    def resolved_profiles(self) -> tuple[DeviceProfile, ...]:
        if self.device_profiles:
            return tuple(self.device_profiles)
        return (profile_for_snr(self.snr_db, noise_std=self.noise_std,
                                rate_hz=self.rate_hz),)

    def to_dict(self) -> dict:
        """Every field in JSON form; ``device_profiles`` lists the resolved profiles."""
        return {**_plain(self),
                "device_profiles": _plain(self.resolved_profiles()),
                "grid": _plain(self.grid) or None}

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        return _from_dict(
            cls, obj, "config", rates=tuple, gains=tuple,
            grid=_nested("grid", lambda value: default_config_grid(obj.get("seed", 0))
                         if value == "default"
                         else tuple(map(ForestConfig.from_dict, value))),
            device_profiles=_nested(
                "device_profiles", lambda value: tuple(map(profile_from_dict, value))),
            forest=_nested("forest", ForestConfig.from_dict, ForestConfig()),
            motion_thresholds=_nested("motion_thresholds", lambda value: _from_dict(
                MotionThresholds, value, "motion thresholds"), MotionThresholds()))


def _child_seed(root: int, *parts) -> int:
    return _stable_seed("experiment", root, *parts)


def _class_ids(prefix: str, count: int) -> list[str]:
    return [f"{prefix}-{i:03d}" for i in range(count)]


def _render_item(cfg: ExperimentConfig, salt: str, class_id: str, j: int, *,
                 profiles, signature: CpuPattern) -> tuple[CpuPattern, SensorRecording]:
    """Render trace ``j`` of ``class_id`` from its class signature: (pattern, recording).

    The seeds depend only on ``(cfg.seed, salt, class_id, j)``, so an item
    renders the same bytes however often, and in whatever order, it is
    rendered.
    """
    pattern = perturb_pattern(
        signature, _child_seed(cfg.seed, salt, "perturb", class_id, j),
        start_jitter_s=cfg.start_jitter_s, time_warp=cfg.time_warp,
        level_jitter=cfg.level_jitter, background_drift=cfg.background_drift)
    p_idx = j % len(profiles)
    return pattern, render_recording(
        pattern, profiles[p_idx],
        seed=_child_seed(cfg.seed, salt, "render", class_id, j),
        device_id=f"device-{p_idx}", label=class_id, meta={"trace": str(j)})


def _render_items(cfg: ExperimentConfig, class_ids, traces_per_class: int,
                  profiles, salt: str):
    """Yield ``(class_id, profile index, pattern, recording)`` class by class.

    Items come one at a time so that callers can reduce each recording and
    drop it before the next one is rendered.
    """
    for class_id in class_ids:
        signature = make_class_signature(class_id, cfg.duration_s, cfg.rate_hz,
                                         cfg.seed)
        for j in range(traces_per_class):
            yield (class_id, j % len(profiles),
                   *_render_item(cfg, salt, class_id, j, profiles=profiles,
                                 signature=signature))


def _render_class_traces(cfg: ExperimentConfig, class_ids, traces_per_class: int,
                         profiles, salt: str):
    """Normalized traces of labeled recordings: (traces, labels, profile ids).

    Each recording is reduced as soon as it is rendered and then dropped.
    """
    traces: list[Trace1D] = []
    labels: list[str] = []
    profile_ids: list[int] = []
    for class_id, p_idx, _, rec in _render_items(cfg, class_ids, traces_per_class,
                                                 profiles, salt):
        traces.append(preprocess_recording(rec))
        labels.append(class_id)
        profile_ids.append(p_idx)
    return traces, labels, profile_ids


# ---------------------------------------------------------------------------
# Pipeline stages shared by the scenario runners and the CLI
# ---------------------------------------------------------------------------

def _split(cfg: ExperimentConfig, labels, class_names) -> tuple[tuple, tuple]:
    """Stratified split of rendered traces: (train, test) (index, label) items."""
    dataset = Dataset(tuple(enumerate(labels)), tuple(class_names))
    train, test = split_dataset(dataset, cfg.train_fraction,
                                seed=_child_seed(cfg.seed, "split"))
    if not train.items or not test.items:
        raise ValueError(f"train_fraction {cfg.train_fraction} leaves the "
                         f"{'training' if test.items else 'test'} split empty")
    return train.items, test.items


def _take(traces, items) -> tuple[list, list]:
    """The traces and labels picked by (index, label) items."""
    return [traces[i] for i, _ in items], [label for _, label in items]


def _training_features(traces, labels, bins: int) -> list:
    """Augmented training pairs: each trace contributes itself, then its inverse."""
    views = np.stack([_featurize(traces, bins), _featurize(traces, bins, inverse=True)],
                     axis=1)
    return [(FeatureVector(row, label), label)
            for pair, label in zip(views, labels) for row in pair]


def _fit(cfg: ExperimentConfig, traces, labels, class_names):
    """Fit stage: pick a forest config, then grow it on augmented training rows.

    Rows hold ``cfg.bin_count`` features, or as many as the shortest trace
    has samples. With ``cfg.grid`` set, cross-validation on the plain rows,
    one per training trace, picks the config; otherwise it is ``cfg.forest``.
    Returns (model, chosen config).
    """
    bins = min(cfg.bin_count, min(len(t) for t in traces))
    pairs = _training_features(traces, labels, bins)
    chosen = cfg.forest
    if cfg.grid:
        chosen, _ = cross_validate_grid(Dataset(tuple(pairs[::2]), tuple(class_names)),
                                        cfg.grid, cfg.cv_folds,
                                        seed=_child_seed(cfg.seed, "cv"))
    return train_forest(Dataset(tuple(pairs), tuple(class_names)), chosen), chosen


@dataclass(eq=False)
class _ClosedWorldBundle:
    """A train/test stage's traces, split, model, report and test-item hits."""

    traces: list[Trace1D]
    train_items: tuple
    test_items: tuple
    model: object
    report: EvalReport
    hits: list[bool]


def _train_test(cfg: ExperimentConfig, traces, labels, class_ids, class_names=None,
                pool=((), ()), background=((), ())) -> _ClosedWorldBundle:
    """Split the labeled ``traces`` over ``class_ids``, fit on the training
    split plus the ``pool`` (traces, labels), classify the test split plus the
    ``background`` (traces, labels) in one batch, and score over
    ``class_names`` (default ``class_ids``). ``hits`` covers the test split."""
    class_names = tuple(class_ids if class_names is None else class_names)
    train_items, test_items = _split(cfg, labels, class_ids)
    fit_traces, fit_labels = _take(traces, train_items)
    model, chosen = _fit(cfg, fit_traces + list(pool[0]), fit_labels + list(pool[1]),
                         class_names)
    test_traces, test_labels = _take(traces, test_items)
    predicted, _ = _predict_labels(model, test_traces + list(background[0]))
    pairs = list(zip(test_labels + list(background[1]), predicted))
    report = evaluate(pairs, class_names)
    report.extras["forest_config"] = chosen.to_dict()
    return _ClosedWorldBundle(traces, train_items, test_items, model, report,
                              [t == p for t, p in pairs[:len(test_items)]])


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------

def _closed_world_core(cfg: ExperimentConfig) -> _ClosedWorldBundle:
    profiles = cfg.resolved_profiles()
    class_ids = _class_ids("class", cfg.class_count)
    traces, labels, profile_ids = _render_class_traces(
        cfg, class_ids, cfg.traces_per_class, profiles, "cw")
    core = _train_test(cfg, traces, labels, class_ids)
    if len(profiles) > 1:
        devices = np.asarray([profile_ids[i] for i, _ in core.test_items])
        hits = np.asarray(core.hits)
        core.report.extras["per_device_accuracy"] = {
            f"device-{p}": float(hits[devices == p].mean()) if p in devices else None
            for p in range(len(profiles))}
    return core


def run_closed_world(cfg: ExperimentConfig) -> EvalReport:
    """Closed-world protocol: render, preprocess, split, train, evaluate."""
    return _closed_world_core(cfg).report


def run_open_world(cfg: ExperimentConfig) -> EvalReport:
    """Open-world protocol: recognize a monitored set against unseen background.

    Training pools non-monitored training classes under the reserved
    "unmonitored" label; testing adds background classes never seen in
    training, one or more traces each.
    """
    if cfg.monitored_count < 1:
        raise ValueError("monitored set must be non-empty")
    profiles = cfg.resolved_profiles()
    monitored = _class_ids("class", cfg.monitored_count)
    traces, labels, _ = _render_class_traces(
        cfg, monitored, cfg.traces_per_class, profiles, "cw")
    unmonitored = []  # (traces, labels) of the training pool, then the background
    for prefix, count, each, salt in (
            ("uml", cfg.unmonitored_train_count, cfg.traces_per_class, "ow-pool"),
            ("bg", cfg.background_count, cfg.background_traces_each, "ow-bg")):
        rendered, _, _ = _render_class_traces(cfg, _class_ids(prefix, count), each,
                                              profiles, salt)
        unmonitored.append((rendered, [UNMONITORED_LABEL] * len(rendered)))
    pool, background = unmonitored
    class_names = tuple(monitored) + (
        (UNMONITORED_LABEL,) if pool[0] or background[0] else ())
    report = _train_test(cfg, traces, labels, monitored, class_names,
                         pool, background).report
    monitored_precisions = [report.per_class[name][0] for name in monitored]
    defined = [p for p in monitored_precisions if p is not None]
    report.extras["mean_monitored_precision"] = (
        float(np.mean(defined)) if defined else None)
    return report


def _check_device_rate(cfg: ExperimentConfig, scenario: str) -> None:
    """Reject device profiles whose rate is not ``cfg.rate_hz``: ``scenario``
    indexes samples at that rate."""
    other_rates = {p.rate_hz for p in cfg.resolved_profiles()} - {cfg.rate_hz}
    if other_rates:
        raise ValueError(f"{scenario} needs device profiles at rate_hz "
                         f"{cfg.rate_hz}, not {min(other_rates)}")


def run_sampling_sweep(cfg: ExperimentConfig) -> list[tuple[float, float]]:
    """Closed-world accuracy at each ``cfg.rates`` entry, sharing recordings and split.

    Traces are decimated before feature extraction; the feature count is
    clamped to the decimated trace length when it falls below ``bin_count``.
    Each recording is reduced at every rate as soon as it is rendered; at
    the device rate it is not resampled. ``_split`` is seeded, so every rate
    trains and tests on the same items.
    """
    _check_device_rate(cfg, "sweep")
    if any(rate > cfg.rate_hz for rate in cfg.rates):
        raise ValueError("sweep rates cannot exceed the device rate")
    class_ids = _class_ids("class", cfg.class_count)
    by_rate: dict[float, list[Trace1D]] = {rate: [] for rate in cfg.rates}
    labels: list[str] = []
    for class_id, _, _, rec in _render_items(cfg, class_ids, cfg.traces_per_class,
                                             cfg.resolved_profiles(), "cw"):
        for rate, traces in by_rate.items():
            traces.append(preprocess_recording(
                rec, None if rate == cfg.rate_hz else rate))
        labels.append(class_id)
    return [(float(rate), float(np.mean(
        _train_test(cfg, by_rate[rate], labels, class_ids).hits)))
        for rate in cfg.rates]


@dataclass(eq=False)
class ContinuousResult:
    """Stream-detection outcome plus the matched-peak classification accuracy."""

    detection_precision: float | None
    detection_recall: float | None
    classify_accuracy: float | None
    closed_world_accuracy: float
    tp: int
    fp: int
    fn: int
    thresholds: dict

    def to_dict(self) -> dict:
        return asdict(self)


def run_continuous(cfg: ExperimentConfig) -> ContinuousResult:
    """Continuous-usage protocol: detect a target activity inside long streams.

    Each stream embeds the target signature once and ``distractor_count``
    other signatures at non-overlapping uniformly random offsets. Peaks of
    the correlation with the target's averaged pattern are filtered with
    per-stream thresholds derived from the series statistics (documented
    defaults: height = mean + 1.5 sigma, prominence = 0.5 sigma, width
    0.05 s), scored against the true offset with the configured tolerance,
    and classified with the closed-world model.
    """
    _check_device_rate(cfg, "continuous")
    return _detect_in_streams(cfg, _closed_world_core(cfg))


def _detect_in_streams(cfg: ExperimentConfig,
                       core: _ClosedWorldBundle) -> ContinuousResult:
    """Stream stage of :func:`run_continuous`, given its closed world."""
    rate = cfg.rate_hz
    device = cfg.resolved_profiles()[0]
    class_ids = _class_ids("class", cfg.class_count)
    target = class_ids[0]

    target_train = [core.traces[i] for i, label in core.train_items
                    if label == target]
    pattern = _detect.average_pattern(target_train, target)

    sig_len = len(core.traces[0])
    stream_len = int(round(cfg.stream_s * rate))
    width_samples = max(1, int(round(cfg.min_width_s * rate)))

    signatures = {class_id: make_class_signature(class_id, cfg.duration_s, rate,
                                                 cfg.seed)
                  for class_id in class_ids}
    tp = fp = fn = 0
    label_hits: list[bool] = []
    for s in range(cfg.stream_count):
        rng = np.random.default_rng(_child_seed(cfg.seed, "stream", s))
        others = class_ids[1:]
        picks = [others[int(i)] for i in
                 rng.choice(len(others), size=cfg.distractor_count, replace=False)]
        embeds = [target] + picks
        offsets = _non_overlapping_offsets(rng, len(embeds), sig_len, stream_len)

        cpu = np.zeros(stream_len)
        for class_id, offset in zip(embeds, offsets):
            pat = perturb_pattern(
                signatures[class_id],
                _child_seed(cfg.seed, "stream-perturb", s, class_id),
                start_jitter_s=cfg.start_jitter_s, time_warp=cfg.time_warp,
                level_jitter=cfg.level_jitter,
                background_drift=cfg.background_drift)
            cpu[offset:offset + len(pat)] += pat.values
        stream_cpu = CpuPattern(np.clip(cpu, 0.0, 1.0), rate)
        rec = render_recording(stream_cpu, device,
                               seed=_child_seed(cfg.seed, "stream-render", s))
        stream = preprocess_recording(rec)

        series = _detect.cross_correlate(stream, pattern)
        mu = float(series.values.mean())
        sd = float(series.values.std())
        thresholds = _detect.PeakThresholds(
            min_height=mu + cfg.height_sigma * sd,
            min_prominence=cfg.prominence_sigma * sd,
            min_width_samples=width_samples)
        detections = _detect.detect_and_classify(stream, series, thresholds,
                                                 core.model, cfg.window_s)
        truth = [(offsets[0], target)]
        matches = _detect.match_detections(detections, truth, cfg.tolerance_s, rate)
        tp += len(matches)
        fp += len(detections) - len(matches)
        fn += len(truth) - len(matches)
        label_hits.extend(det.predicted_label == label for det, (_, label) in matches)

    precision, recall, _ = precision_recall_f1(ConfusionCounts(tp, fp, fn))
    classify_accuracy = float(np.mean(label_hits)) if label_hits else None
    return ContinuousResult(
        detection_precision=precision,
        detection_recall=recall,
        classify_accuracy=classify_accuracy,
        closed_world_accuracy=core.report.accuracy,
        tp=tp, fp=fp, fn=fn,
        thresholds={"height_sigma": cfg.height_sigma,
                    "prominence_sigma": cfg.prominence_sigma,
                    "min_width_samples": width_samples},
    )


def _non_overlapping_offsets(rng: np.random.Generator, count: int, length: int,
                             stream_len: int) -> list[int]:
    limit = stream_len - length
    if limit < 0:
        raise ValueError("stream too short for the embeds")
    for _ in range(10_000):
        offsets = sorted(int(rng.integers(0, limit + 1)) for _ in range(count))
        if all(b - a >= length for a, b in zip(offsets, offsets[1:])):
            # Shuffle so the target is not biased toward early offsets.
            return [offsets[i] for i in rng.permutation(count)]
    raise ValueError("could not place non-overlapping embeds")


@dataclass(eq=False)
class MovementResult:
    accuracy_unfiltered: float
    rejected_fraction: float
    accuracy_filtered: float
    motion_flagged_fraction: float
    stationary_flagged_fraction: float

    def to_dict(self) -> dict:
        return asdict(self)


def run_movement(cfg: ExperimentConfig) -> MovementResult:
    """Movement robustness: motion-disturbed test traces, filtered by gyroscope.

    The model is trained on stationary traces only. A ``motion_fraction``
    share of the test set is re-rendered with hand-held-style rotation
    pulses; accuracy is reported before filtering, after filtering, along
    with the rejected fraction.
    """
    _check_device_rate(cfg, "movement")
    core = _closed_world_core(cfg)
    profiles = cfg.resolved_profiles()
    rate = cfg.rate_hz
    n_test = len(core.test_items)
    n_motion = int(round(cfg.motion_fraction * n_test))
    rng = np.random.default_rng(_child_seed(cfg.seed, "movemix"))
    motion_mask = np.zeros(n_test, dtype=bool)
    motion_mask[rng.choice(n_test, size=n_motion, replace=False)] = True

    # Re-render the stationary test recordings, the motion slots with rotation
    # pulses on the same CPU pattern; flag each by its gyroscope, then drop it.
    test_traces, test_labels = _take(core.traces, core.test_items)
    flagged = np.zeros(n_test, dtype=bool)
    for slot, (idx, label) in enumerate(core.test_items):
        j = idx % cfg.traces_per_class  # items are rendered class by class
        pattern, rec = _render_item(
            cfg, "cw", label, j, profiles=profiles,
            signature=make_class_signature(label, cfg.duration_s, rate, cfg.seed))
        if motion_mask[slot]:
            script = random_motion_script(
                len(rec), rate, _child_seed(cfg.seed, "motion", slot),
                peak_rate_rad_s=(cfg.motion_peak_rate, cfg.motion_peak_rate * 1.5))
            rec = render_recording(
                pattern, profiles[j % len(profiles)], motion=script,
                seed=_child_seed(cfg.seed, "motion-render", slot), label=label)
            test_traces[slot] = preprocess_recording(rec)
        flagged[slot] = is_disturbed(rec.gyro, cfg.motion_thresholds)

    predicted, _ = _predict_labels(core.model, test_traces)
    correct = np.asarray([p == label for p, label in zip(predicted, test_labels)])
    return MovementResult(
        accuracy_unfiltered=float(correct.mean()),
        rejected_fraction=float(flagged.mean()),
        accuracy_filtered=_mean_over(correct, ~flagged),
        motion_flagged_fraction=_mean_over(flagged, motion_mask),
        stationary_flagged_fraction=_mean_over(flagged, ~motion_mask),
    )


def _mean_over(values: np.ndarray, mask: np.ndarray) -> float:
    """Mean of the masked ``values``, or 0.0 when the mask selects nothing."""
    return float(values[mask].mean()) if mask.any() else 0.0


def run_snr_calibration(cfg: ExperimentConfig) -> list[dict]:
    """Square-pattern calibration table: gain, measured SNR, pattern correlation."""
    profiles = cfg.resolved_profiles()
    base = profiles[0]
    reference = synth_square_pattern(2.0, 2.0, cfg.calibration_cycles, cfg.rate_hz)
    rows = []
    for i, gain in enumerate(cfg.gains):
        profile = replace(base, gain=gain)
        rec = render_recording(reference, profile,
                               seed=_child_seed(cfg.seed, "snr", i))
        try:
            corr = pattern_correlation(rec, reference)
        except ValueError:
            corr = None
        rows.append({
            "gain": float(gain),
            "snr_db": estimate_snr(rec, reference),
            "pattern_correlation": corr,
        })
    return rows


# ---------------------------------------------------------------------------
# Scenario dispatch and report files
# ---------------------------------------------------------------------------

def _fmt(value: float | None, digits: int = 4) -> str:
    return "---" if value is None else f"{value:.{digits}f}"


def _open_world_text(report: EvalReport) -> str:
    text = format_report_text(report)
    mmp = report.extras.get("mean_monitored_precision")
    if mmp is not None:
        text += f"\nmean monitored precision: {mmp:.4f}\n"
    return text


def _sweep_text(rows: list[dict]) -> str:
    lines = [f"{'rate,Hz':>10}  {'accuracy':>9}"]
    lines += [f"{row['rate_hz']:>10g}  {row['accuracy']:>9.4f}" for row in rows]
    return "\n".join(lines) + "\n"


def _continuous_text(result: ContinuousResult) -> str:
    return (
        f"detections: tp={result.tp} fp={result.fp} fn={result.fn}\n"
        f"precision: {_fmt(result.detection_precision)}\n"
        f"recall: {_fmt(result.detection_recall)}\n"
        f"classify-at-peaks accuracy: {_fmt(result.classify_accuracy)}\n"
        f"closed-world accuracy: {result.closed_world_accuracy:.4f}\n"
    )


def _movement_text(result: MovementResult) -> str:
    return (
        f"accuracy unfiltered: {result.accuracy_unfiltered:.4f}\n"
        f"rejected fraction: {result.rejected_fraction:.4f}\n"
        f"accuracy filtered: {result.accuracy_filtered:.4f}\n"
    )


def _snr_text(rows: list[dict]) -> str:
    lines = [f"{'gain,uT':>8}  {'SNR,dB':>8}  {'corr':>6}"]
    for row in rows:
        lines.append(f"{row['gain']:>8g}  {row['snr_db']:>8.1f}  "
                     f"{_fmt(row['pattern_correlation'], 2):>6}")
    return "\n".join(lines) + "\n"


# scenario -> (runner(cfg), text formatter). The runners look the scenario
# functions up by name at call time, so wrappers installed on this module's
# functions (profilers, tracers) see every run.
_SCENARIO_REGISTRY = {
    "closed-world": (lambda cfg: run_closed_world(cfg), format_report_text),
    "open-world": (lambda cfg: run_open_world(cfg), _open_world_text),
    "sweep": (lambda cfg: [{"rate_hz": r, "accuracy": a}
                           for r, a in run_sampling_sweep(cfg)], _sweep_text),
    "continuous": (lambda cfg: run_continuous(cfg), _continuous_text),
    "movement": (lambda cfg: run_movement(cfg), _movement_text),
    "snr": (lambda cfg: run_snr_calibration(cfg), _snr_text),
}
_SCENARIOS = tuple(_SCENARIO_REGISTRY)


def run_scenario(cfg: ExperimentConfig) -> tuple[dict, str]:
    """Run the configured scenario; returns (report payload, rendered text).

    The payload holds the config plus the scenario's outcome under
    ``report`` (an EvalReport), ``rows`` (a table) or ``result``.
    """
    runner, formatter = _SCENARIO_REGISTRY[cfg.scenario]
    outcome = runner(cfg)
    payload: dict = {"scenario": cfg.scenario, "config": cfg.to_dict()}
    if isinstance(outcome, list):
        payload["rows"] = outcome
    elif isinstance(outcome, EvalReport):
        payload["report"] = outcome.to_dict()
    else:
        payload["result"] = outcome.to_dict()
    return payload, formatter(outcome)


def write_report(out_dir, payload: dict, text: str) -> None:
    """Write report.json and report.txt; bytes depend only on the payload."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (out / "report.txt").write_text(text, encoding="utf-8")
