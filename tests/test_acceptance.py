"""Acceptance gate: one test per release criterion, at fixed tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in captured
output); the pytest verdict per test is the authoritative gate. Expensive
full-scale runs are shared through session fixtures.
"""

import json
import time

import numpy as np
import pytest
from conftest import brute_force_best_split

import magspy as m
from magspy.forest import Dataset, FeatureVector, ForestConfig, train_forest
from magspy.simulate import (DEFAULT_BASELINE_FIELD, DEFAULT_COUPLING_DIR,
                             DeviceProfile)

CHANCE_20 = 1.0 / 20.0


def report_line(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} - {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def full_scale_config():
    # 20 classes x 40 traces, 12 s at 100 Hz, calibration SNR 12 dB, forest
    # hyperparameters n_estimators=1100 / log2 / depth 50 / min decrease 1e-4.
    return m.ExperimentConfig()


@pytest.fixture(scope="session")
def closed_world_report(full_scale_config):
    started = time.time()
    report = m.run_closed_world(full_scale_config)
    report.extras["wall_seconds"] = time.time() - started
    return report


@pytest.fixture(scope="session")
def continuous_result(full_scale_config):
    from dataclasses import replace
    return m.run_continuous(replace(full_scale_config, scenario="continuous"))


def test_criterion_01_pca_matches_eigensolver_oracle():
    rng = np.random.default_rng(2024)
    started = time.time()
    worst_dot = 1.0
    worst_var = 0.0
    for _ in range(1000):
        n = int(np.exp(rng.uniform(np.log(100), np.log(10_000))))
        scales = rng.uniform(0.3, 4.0, 3)
        rotation, _ = np.linalg.qr(rng.normal(0, 1, (3, 3)))
        data = (rng.normal(0.0, 1.0, (n, 3)) * scales) @ rotation.T
        result = m.pca_first_component(data)
        eigvals, eigvecs = np.linalg.eigh(np.cov(data.T, ddof=1))
        worst_dot = min(worst_dot, abs(float(result.component @ eigvecs[:, -1])))
        rel = abs(result.projected.values.var(ddof=1) - eigvals[-1]) / eigvals[-1]
        worst_var = max(worst_var, rel)
    elapsed = time.time() - started
    ok = worst_dot > 1 - 1e-9 and worst_var < 1e-9 and elapsed < 10.0
    report_line("criterion 1 (PCA oracle)",
                ok, f"worst |dot|={worst_dot:.2e} worst var rel err={worst_var:.2e} "
                    f"runtime={elapsed:.1f}s")


def test_criterion_02_forest_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    started = time.time()
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 5))
        n_classes = int(rng.integers(2, 4))
        x = rng.integers(0, 4, (n, d)).astype(float)
        y = rng.integers(0, n_classes, n)
        if len(set(y.tolist())) < 2:
            continue
        names = tuple(f"c{i}" for i in range(n_classes))
        data = Dataset.from_pairs(
            [(FeatureVector(x[i], names[y[i]]), names[y[i]]) for i in range(n)],
            names)
        config = ForestConfig(n_estimators=1, max_features="all", max_depth=1,
                              min_impurity_decrease=0.0, bootstrap=False,
                              seed=checked)
        tree = train_forest(data, config).trees[0]
        order = sorted(range(n), key=lambda i: (names[y[i]], tuple(x[i])))
        oracle = brute_force_best_split(
            x[order], np.asarray([y[i] for i in order]), n_classes)
        if oracle is None:
            assert tree.feature[0] == -1
        else:
            assert tree.feature[0] == oracle[0], "split feature mismatch"
            assert tree.threshold[0] == oracle[1], "split threshold mismatch"
        checked += 1
    elapsed = time.time() - started
    ok = elapsed < 5.0
    report_line("criterion 2 (forest split oracle)",
                ok, f"200 datasets matched exhaustive search, runtime={elapsed:.1f}s")


def test_criterion_03_closed_world_accuracy(closed_world_report):
    accuracy = closed_world_report.accuracy
    elapsed = closed_world_report.extras["wall_seconds"]
    ok = accuracy >= 0.90 and elapsed < 180.0
    report_line("criterion 3 (closed world, 20x40 @ 12 dB, stock hyperparameters)",
                ok, f"accuracy={accuracy:.3f} (need >= 0.90, chance {CHANCE_20}), "
                    f"runtime={elapsed:.0f}s (< 180 s)")


def test_criterion_04_low_snr_still_classifiable():
    report = m.run_closed_world(m.ExperimentConfig(snr_db=4.0))
    ok = report.accuracy >= 0.25
    report_line("criterion 4 (4 dB profile)",
                ok, f"accuracy={report.accuracy:.3f} (need >= 0.25 = 5x chance)")


def test_criterion_05_sampling_sweep_shape():
    cfg = m.ExperimentConfig(scenario="sweep",
                             forest=ForestConfig(n_estimators=300, seed=0))
    rows = dict(m.run_sampling_sweep(cfg))
    ok = (rows[10.0] >= rows[100.0] - 0.10) and (rows[0.5] < 2 * CHANCE_20)
    report_line("criterion 5 (sampling sweep)",
                ok, f"acc(100Hz)={rows[100.0]:.3f} acc(10Hz)={rows[10.0]:.3f} "
                    f"acc(1Hz)={rows[1.0]:.3f} acc(0.5Hz)={rows[0.5]:.3f} "
                    f"(need acc(10) >= acc(100)-0.10 and acc(0.5) < 0.10)")


def test_criterion_06_continuous_usage(continuous_result, closed_world_report):
    recall = continuous_result.detection_recall or 0.0
    peaks_acc = continuous_result.classify_accuracy
    gap = abs(peaks_acc - closed_world_report.accuracy) if peaks_acc is not None else 1.0
    ok = recall >= 0.70 and gap <= 0.15
    report_line("criterion 6 (continuous streams)",
                ok, f"recall={recall:.3f} (need >= 0.70 at 1 s tolerance), "
                    f"classify-at-peaks={peaks_acc} vs "
                    f"closed-world={closed_world_report.accuracy:.3f} "
                    f"(gap {gap:.3f} <= 0.15), "
                    f"precision={continuous_result.detection_precision}")


def test_criterion_07_open_world_precision():
    cfg = m.ExperimentConfig(scenario="open-world",
                             forest=ForestConfig(n_estimators=300, seed=0))
    report = m.run_open_world(cfg)
    mmp = report.extras["mean_monitored_precision"]
    p, r, f = m.precision_recall_f1(m.ConfusionCounts(tp=2, fp=1, fn=2))
    hand_ok = (round(p, 3), round(r, 3), round(f, 3)) == (0.667, 0.5, 0.571)
    ok = mmp is not None and mmp >= 0.85 and hand_ok
    report_line("criterion 7 (open world)",
                ok, f"mean monitored precision={mmp} (need >= 0.85); "
                    f"hand case (0.667, 0.5, 0.571) reproduced={hand_ok}")


def test_criterion_08_movement_filtering():
    cfg = m.ExperimentConfig(scenario="movement",
                             forest=ForestConfig(n_estimators=300, seed=0))
    result = m.run_movement(cfg)
    ok = (abs(result.rejected_fraction - 0.21) <= 0.03
          and result.motion_flagged_fraction >= 0.95
          and result.stationary_flagged_fraction <= 0.05
          and result.accuracy_filtered > result.accuracy_unfiltered)
    report_line("criterion 8 (movement filtering)",
                ok, f"rejected={result.rejected_fraction:.3f} (0.21 +/- 0.03), "
                    f"motion flagged={result.motion_flagged_fraction:.2f} (>= 0.95), "
                    f"stationary flagged={result.stationary_flagged_fraction:.2f} "
                    f"(<= 0.05), accuracy {result.accuracy_unfiltered:.3f} -> "
                    f"{result.accuracy_filtered:.3f} (must increase)")


def test_criterion_09_determinism_and_round_trips(tmp_path):
    cfg = m.ExperimentConfig(class_count=5, traces_per_class=10, duration_s=6.0,
                             forest=ForestConfig(n_estimators=40, seed=3))
    payloads = [json.dumps(m.run_scenario(cfg)[0], sort_keys=True).encode()
                for _ in range(3)]
    byte_identical = payloads[0] == payloads[1] == payloads[2]

    from magspy.experiments import _class_ids, _render_class_traces
    recordings, traces, _, labels, _ = _render_class_traces(
        cfg, _class_ids("class", 2), 3, cfg.resolved_profiles(), "cw")
    rec_path = tmp_path / "recs.jsonl"
    m.save_recordings(recordings, rec_path)
    loaded = m.load_recordings(rec_path)
    recs_exact = all(
        np.array_equal(a.mag, b.mag) and np.array_equal(a.gyro, b.gyro)
        and a.label == b.label and a.rate_hz == b.rate_hz
        for a, b in zip(recordings, loaded))

    pairs = [(m.extract_features(t, 50, l), l) for t, l in zip(traces, labels)]
    model = train_forest(Dataset.from_pairs(pairs), ForestConfig(n_estimators=10, seed=1))
    model_path = tmp_path / "model.json"
    m.save_model(model, model_path)
    back = m.load_model(model_path)
    queries = np.stack([fv.values for fv, _ in pairs])
    model_exact = (back.config == model.config
                   and np.array_equal(m.predict_many(back, queries)[1],
                                      m.predict_many(model, queries)[1]))
    ok = byte_identical and recs_exact and model_exact
    report_line("criterion 9 (determinism and round-trips)",
                ok, f"reports byte-identical across three runs="
                    f"{byte_identical}, recording round-trip exact={recs_exact}, "
                    f"model round-trip exact={model_exact}")


def test_criterion_10_null_channel_is_chance_level():
    null_profile = DeviceProfile(DEFAULT_BASELINE_FIELD, DEFAULT_COUPLING_DIR,
                                 0.0, 1.0, 100.0)
    # 20 classes x 100 traces -> 400 held-out test traces. Criterion pins the
    # data scale, not the forest size; a lighter forest keeps this fast and
    # chance level is hyperparameter-insensitive.
    cfg = m.ExperimentConfig(traces_per_class=100,
                             device_profiles=(null_profile,),
                             forest=ForestConfig(n_estimators=100, max_depth=12,
                                                 seed=0))
    report = m.run_closed_world(cfg)
    n_test = report.n_items
    ok = n_test >= 400 and 0.5 * CHANCE_20 <= report.accuracy <= 2.5 * CHANCE_20
    report_line("criterion 10 (null channel sanity)",
                ok, f"accuracy={report.accuracy:.4f} on {n_test} test traces "
                    f"(need within [{0.5 * CHANCE_20}, {2.5 * CHANCE_20}])")
