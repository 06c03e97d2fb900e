import json
import tracemalloc

import numpy as np
import pytest

from magspy.experiments import (ExperimentConfig, run_closed_world,
                                run_continuous, run_movement, run_open_world,
                                run_sampling_sweep, run_snr_calibration,
                                run_scenario, write_report)
from magspy.forest import ForestConfig
from magspy.motion import MotionThresholds
from magspy.simulate import profile_for_snr
from magspy.traces import UNMONITORED_LABEL


SMALL_FOREST = ForestConfig(n_estimators=60, max_depth=30,
                            min_impurity_decrease=1e-4, seed=0)


def small_config(**kw):
    base = dict(class_count=5, traces_per_class=12, duration_s=6.0,
                forest=SMALL_FOREST)
    base.update(kw)
    return ExperimentConfig(**base)


# Sets every field that (de)serializes through a nested document or a tuple.
EVERY_NESTED_FIELD = small_config(
    grid=(ForestConfig(n_estimators=10, seed=1),
          ForestConfig(n_estimators=20, max_features="sqrt", max_depth=8,
                       min_impurity_decrease=0.0, bootstrap=False, seed=2)),
    device_profiles=(profile_for_snr(12.0),
                     profile_for_snr(15.0, noise_std=0.5, gyro_noise_std=0.01)),
    motion_thresholds=MotionThresholds(0.1, 0.9),
    rates=(100.0, 25.0), gains=(0.0, 3.0))


class TestExperimentConfig:
    @pytest.mark.parametrize("cfg", [
        small_config(scenario="open-world", monitored_count=2,
                     unmonitored_train_count=2, background_count=3),
        EVERY_NESTED_FIELD,
    ], ids=["open-world", "every-nested-field"])
    def test_round_trips_through_dict(self, cfg):
        back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back.to_dict() == cfg.to_dict()
        assert back.forest == cfg.forest
        assert back.grid == cfg.grid
        assert back.motion_thresholds == cfg.motion_thresholds
        assert back.rates == cfg.rates and back.gains == cfg.gains
        assert len(back.resolved_profiles()) == len(cfg.resolved_profiles())

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_unknown_forest_field_rejected(self):
        with pytest.raises(ValueError, match="unknown forest config fields"):
            ExperimentConfig.from_dict({"forest": {"n_estimators": 5, "bogus": 1}})

    def test_empty_nested_documents_keep_defaults(self):
        # Only null, {} and [] keep defaults; false, 0 and "" are rejected
        # (test_cli's test_bad_outside_document_is_validation_error).
        default = ExperimentConfig()
        for doc in ({"forest": None, "device_profiles": [], "grid": None,
                     "motion_thresholds": None},
                    {"forest": {}, "device_profiles": None, "grid": [],
                     "motion_thresholds": {}}):
            cfg = ExperimentConfig.from_dict(doc)
            assert cfg.forest == default.forest
            assert cfg.device_profiles is None and cfg.grid is None
            assert cfg.motion_thresholds == default.motion_thresholds
            assert cfg.to_dict() == default.to_dict()
        for doc in ({"forest": False}, {"grid": 0}, {"grid": ""},
                    {"motion_thresholds": ""}, {"device_profiles": False}):
            with pytest.raises(ValueError, match=next(iter(doc))):
                ExperimentConfig.from_dict(doc)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="nope")

    def test_default_grid_keyword(self):
        cfg = ExperimentConfig.from_dict({"grid": "default"})
        assert len(cfg.grid) == 24

    def test_default_grid_takes_the_config_seed(self):
        cfg = ExperimentConfig.from_dict({"grid": "default", "seed": 7})
        assert {c.seed for c in cfg.grid} == {7}

    def test_negative_seed_is_valid(self):
        assert ExperimentConfig.from_dict({"seed": -3}).seed == -3

    @pytest.mark.parametrize("field, doc", [
        ("duration_s", {"duration_s": 1e9}),
        ("duration_s", {"duration_s": 1e300, "rate_hz": 1e300}),
        ("rate_hz", {"rate_hz": 0.6}),
        ("duration_s", {"device_profiles": [{"snr_db": 12.0, "rate_hz": 0.4}]}),
        ("rates", {"scenario": "sweep", "rates": [100.0, 1e-9]}),
        ("rates", {"scenario": "sweep", "rates": [100.0, 1e-320]}),
        ("calibration_cycles", {"scenario": "snr", "calibration_cycles": 0}),
        ("calibration_cycles", {"scenario": "snr", "rate_hz": 0.2, "duration_s": 20.0}),
        ("calibration_cycles", {"scenario": "snr", "calibration_cycles": 10 ** 6}),
        ("noise_std", {"noise_std": 0.0}),
        ("window_s", {"scenario": "continuous", "window_s": 0.001}),
        ("window_s", {"scenario": "continuous", "window_s": 1e308}),
        ("stream_s", {"scenario": "continuous", "stream_s": 2.5, "distractor_count": 1}),
        ("stream_s", {"scenario": "continuous", "stream_s": 1e5}),
    ], ids=["huge-duration", "overflowing-duration", "one-sample-trace",
            "one-sample-at-profile-rate", "one-sample-sweep-rate", "subnormal-sweep-rate",
            "no-calibration-cycles", "calibration-too-short", "huge-calibration",
            "noiseless-snr-profile", "empty-window", "overflowing-window",
            "embeds-overflow-stream", "huge-stream"])
    def test_config_that_cannot_render_names_the_field(self, field, doc):
        # 3 classes x 4 traces of 2 s: each of these used to load, then hang
        # or fail at run time.
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict({"class_count": 3, "traces_per_class": 4,
                                        "duration_s": 2.0, **doc})

    @pytest.mark.parametrize("doc", [
        {"scenario": "continuous", "stream_s": 6.0, "distractor_count": 2},
        {"scenario": "continuous", "window_s": 0.5},
        {"scenario": "sweep", "rates": [100.0, 1.0]},
        {"scenario": "snr", "rate_hz": 0.5, "duration_s": 4.0, "calibration_cycles": 1},
        {"device_profiles": [{"snr_db": 12.0, "rate_hz": 1.0}]},
    ], ids=["embeds-fill-stream", "window-of-50", "two-sample-sweep-rate",
            "two-sample-calibration", "two-samples-at-profile-rate"])
    def test_config_at_its_render_bounds_loads(self, doc):
        ExperimentConfig.from_dict({"class_count": 3, "traces_per_class": 4,
                                    "duration_s": 2.0, **doc})


class TestGridSearch:
    """Every fit cross-validates ``cfg.grid`` on one plain row per training trace."""

    GRID = (ForestConfig(n_estimators=3, seed=1), ForestConfig(n_estimators=4, seed=2))

    @pytest.fixture
    def searches(self, monkeypatch):
        import magspy.experiments as experiments
        calls = []

        def capture(train, grid, folds, seed=0):
            calls.append((len(train), tuple(grid), folds))
            return grid[-1], (0.0,) * len(grid)

        monkeypatch.setattr(experiments, "cross_validate_grid", capture)
        return calls

    def test_open_world_searches_plain_rows(self, searches):
        # 2 monitored classes x 4 training traces plus 2 pooled classes x 5.
        cfg = small_config(scenario="open-world", traces_per_class=5,
                           monitored_count=2, unmonitored_train_count=2,
                           background_count=3, grid=self.GRID, cv_folds=2)
        report = run_open_world(cfg)
        assert searches == [(2 * 4 + 2 * 5, self.GRID, 2)]
        assert report.extras["forest_config"] == self.GRID[-1].to_dict()

    def test_sweep_searches_at_every_rate(self, searches):
        cfg = small_config(class_count=3, traces_per_class=5, rates=(100.0, 20.0),
                           grid=self.GRID, cv_folds=2)
        run_sampling_sweep(cfg)
        assert searches == [(3 * 4, self.GRID, 2)] * 2

    def test_train_command_searches(self, searches, tmp_path, capsys):
        from magspy.cli import main
        from magspy.forest import load_model
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"class_count": 2, "traces_per_class": 4, "duration_s": 4.0,
             "cv_folds": 2, "grid": [c.to_dict() for c in self.GRID]}))
        main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")])
        assert main(["train", "--config", str(config), "--data",
                     str(tmp_path / "sim" / "recordings.jsonl"),
                     "--out", str(tmp_path / "model")]) == 0
        assert searches == [(2 * 4, self.GRID, 2)]
        model = load_model(tmp_path / "model" / "model.json")
        assert model.config == self.GRID[-1]


class TestClosedWorld:
    def test_single_class_is_perfect(self):
        report = run_closed_world(small_config(class_count=1))
        assert report.accuracy == 1.0

    def test_reasonable_accuracy_at_12db(self):
        report = run_closed_world(small_config())
        assert report.accuracy >= 0.7

    def test_augmentation_never_touches_test_set(self):
        # 12 traces/class at fraction 0.8 -> exactly 2 held-out traces per
        # class; an augmented (doubled) test set would show 4.
        report = run_closed_world(small_config())
        assert report.n_items == 2 * 5

    def test_identical_seeds_identical_reports(self):
        cfg = small_config()
        a = run_closed_world(cfg)
        b = run_closed_world(cfg)
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("fraction, empty", [(0.8, "test"), (0.2, "training")])
    def test_empty_split_names_train_fraction(self, fraction, empty):
        # 2 traces per class round to 2 training traces at 0.8 and none at 0.2.
        cfg = small_config(class_count=3, traces_per_class=2, train_fraction=fraction)
        with pytest.raises(ValueError, match=f"train_fraction .* {empty} split empty"):
            run_closed_world(cfg)

    def test_different_seed_changes_data(self):
        from magspy.experiments import _class_ids, _render_items
        recs = []
        for seed in (0, 99):
            cfg = small_config(seed=seed)
            _, _, rec = next(_render_items(cfg, _class_ids("class", 2), 1,
                                           cfg.resolved_profiles(), "cw"))
            recs.append(rec)
        assert not np.array_equal(recs[0].mag, recs[1].mag)

    def test_peak_memory_stays_below_the_recordings(self):
        # Each recording is reduced to its trace as soon as it is rendered,
        # so the run never holds the raw samples (mag and gyro, 6 float64
        # channels) of all 200 recordings, 11.5 MB; the traces take 1.9 MB.
        cfg = small_config(class_count=10, traces_per_class=20, duration_s=12.0,
                           forest=ForestConfig(n_estimators=5, seed=0))
        n = int(round(cfg.duration_s * cfg.rate_hz))
        tracemalloc.start()
        try:
            run_closed_world(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cfg.class_count * cfg.traces_per_class * n * 6 * 8

    def test_multi_profile_reports_per_device(self):
        from magspy.simulate import profile_for_snr
        profiles = (profile_for_snr(12.0), profile_for_snr(14.0))
        report = run_closed_world(small_config(device_profiles=profiles))
        assert set(report.extras["per_device_accuracy"]) == {"device-0", "device-1"}

    def test_inverse_augmentation_consistency(self):
        # A model trained with inverse augmentation classifies a trace and
        # its reflection identically for nearly all held-out traces, given
        # separable classes (hence the comfortable SNR).
        from magspy.experiments import _closed_world_core
        from magspy.forest import extract_features, predict_many
        from magspy.preprocess import augment_with_inverse
        core = _closed_world_core(small_config(
            class_count=6, traces_per_class=30, duration_s=10.0, snr_db=18.0,
            forest=ForestConfig(n_estimators=80, max_depth=30, seed=0)))
        agree = 0
        total = 0
        for idx, _ in core.test_items:
            original, inverse = augment_with_inverse(core.traces[idx])
            x = np.stack([extract_features(original, 50).values,
                          extract_features(inverse, 50).values])
            codes, _ = predict_many(core.model, x)
            agree += int(codes[0] == codes[1])
            total += 1
        assert agree / total >= 0.95


class TestOpenWorld:
    def test_monitored_metrics_reported(self):
        cfg = small_config(scenario="open-world", class_count=3,
                           monitored_count=3, unmonitored_train_count=4,
                           background_count=10)
        report = run_open_world(cfg)
        assert UNMONITORED_LABEL in report.class_names
        assert len(report.class_names) == 4
        assert report.extras["mean_monitored_precision"] is not None

    def test_no_background_reduces_to_closed_world(self):
        cfg = small_config(scenario="open-world", class_count=4,
                           monitored_count=4, unmonitored_train_count=0,
                           background_count=0)
        report = run_open_world(cfg)
        assert UNMONITORED_LABEL not in report.class_names
        closed = run_closed_world(small_config(class_count=4))
        assert report.accuracy == closed.accuracy

    def test_background_counts_as_unmonitored_truth(self):
        cfg = small_config(scenario="open-world", class_count=2,
                           monitored_count=2, unmonitored_train_count=3,
                           background_count=6)
        report = run_open_world(cfg)
        row = report.class_names.index(UNMONITORED_LABEL)
        assert report.matrix[row].sum() == 6


@pytest.mark.parametrize("runner", [run_sampling_sweep, run_continuous, run_movement])
def test_runner_rejects_a_device_at_another_rate(monkeypatch, runner):
    # Called as a library, with the default closed-world scenario, a runner
    # that indexes samples at rate_hz rejects a 50 Hz device before it renders.
    def render(*args, **kwargs):
        raise AssertionError("rendered before the profile rate was checked")

    monkeypatch.setattr("magspy.experiments.render_recording", render)
    cfg = small_config(class_count=3, traces_per_class=6, rates=(100.0, 10.0),
                       device_profiles=(profile_for_snr(12.0, rate_hz=50.0),))
    with pytest.raises(ValueError, match="rate_hz 100.0, not 50.0"):
        runner(cfg)


class TestSamplingSweep:
    def test_native_rate_matches_closed_world(self):
        cfg = small_config(rates=(100.0,))
        rows = run_sampling_sweep(cfg)
        closed = run_closed_world(cfg)
        assert rows[0][1] == closed.accuracy

    def test_duplicate_rates_duplicate_results(self):
        cfg = small_config(class_count=3, traces_per_class=8, rates=(50.0, 50.0))
        rows = run_sampling_sweep(cfg)
        assert rows[0] == rows[1]

    def test_rate_above_native_rejected(self):
        with pytest.raises(ValueError):
            run_sampling_sweep(small_config(rates=(200.0,)))

    def test_native_rate_preprocesses_each_recording_once(self, monkeypatch):
        import magspy.experiments as experiments
        calls = []
        original = experiments.preprocess_recording

        def counting(rec, *args, **kwargs):
            calls.append(rec)
            return original(rec, *args, **kwargs)

        monkeypatch.setattr(experiments, "preprocess_recording", counting)
        cfg = small_config(class_count=3, traces_per_class=6, rates=(100.0,))
        run_sampling_sweep(cfg)
        assert len(calls) == 3 * 6
        assert len({id(rec) for rec in calls}) == 3 * 6


class TestContinuous:
    def test_detects_target_embeds(self):
        cfg = small_config(scenario="continuous", stream_count=6, stream_s=30.0,
                           duration_s=6.0, window_s=6.0)
        result = run_continuous(cfg)
        assert result.tp + result.fn == 6
        assert result.detection_recall >= 0.5
        assert result.classify_accuracy is None or result.classify_accuracy >= 0.5

    def test_deterministic(self):
        cfg = small_config(scenario="continuous", stream_count=3, stream_s=25.0,
                           duration_s=6.0, window_s=6.0)
        a = run_continuous(cfg)
        b = run_continuous(cfg)
        assert a.to_dict() == b.to_dict()

    def test_streams_reuse_any_scenarios_closed_world(self):
        # The acceptance suite shares one full-scale closed world between
        # criteria 3 and 6; that holds because the core ignores `scenario`.
        from magspy.experiments import _closed_world_core, _detect_in_streams
        cfg = small_config(scenario="continuous", stream_count=3, stream_s=25.0,
                           window_s=6.0)
        core = _closed_world_core(small_config())
        assert (_detect_in_streams(cfg, core).to_dict()
                == run_continuous(cfg).to_dict())


class TestMovement:
    def test_zero_fraction_changes_nothing(self):
        cfg = small_config(scenario="movement", motion_fraction=0.0)
        result = run_movement(cfg)
        assert result.rejected_fraction == 0.0
        assert result.accuracy_filtered == result.accuracy_unfiltered

    def test_flagging_and_filtering(self):
        cfg = small_config(scenario="movement", motion_fraction=0.25)
        result = run_movement(cfg)
        assert result.motion_flagged_fraction == 1.0
        assert result.stationary_flagged_fraction == 0.0
        assert result.rejected_fraction == pytest.approx(0.25, abs=0.05)
        assert result.accuracy_filtered >= result.accuracy_unfiltered

    def test_stationary_recordings_without_gyro_are_never_flagged(self):
        # Stationary test recordings carry no gyroscope; even at zero
        # thresholds they count as not disturbed, while every moving one does.
        cfg = small_config(scenario="movement", motion_fraction=0.25,
                           motion_thresholds=MotionThresholds(0.0, 0.0))
        result = run_movement(cfg)
        assert result.stationary_flagged_fraction == 0.0
        assert result.motion_flagged_fraction == 1.0
        assert result.rejected_fraction == pytest.approx(0.25, abs=0.05)

    def test_test_recordings_are_the_ones_the_closed_world_reduced(self,
                                                                   monkeypatch):
        # run_movement renders each test slot once more from its seeds, a
        # motion slot's under its script; each stationary one must reduce to
        # the trace the closed world classified.
        import magspy.experiments as experiments
        from magspy.experiments import _closed_world_core
        from magspy.preprocess import preprocess_recording
        original = experiments.render_recording
        for motion_fraction in (0.0, 0.25):
            cfg = small_config(scenario="movement", motion_fraction=motion_fraction,
                               traces_per_class=10,
                               device_profiles=(profile_for_snr(12.0),
                                                profile_for_snr(15.0)))
            seen = []

            def render(*args, **kwargs):
                rec = original(*args, **kwargs)
                seen.append((kwargs.get("motion"), rec))
                return rec

            monkeypatch.setattr(experiments, "render_recording", render)
            run_movement(cfg)
            monkeypatch.undo()
            core = _closed_world_core(cfg)
            # The closed world renders every item, then each test item is
            # rendered once more, in test order.
            rendered = cfg.class_count * cfg.traces_per_class
            assert len(seen) == rendered + len(core.test_items)
            n_moving = sum(motion is not None for motion, _ in seen[rendered:])
            assert n_moving == round(motion_fraction * len(core.test_items))
            for (motion, rec), (idx, label) in zip(seen[rendered:], core.test_items):
                assert (rec.label, rec.device_id) == (label, f"device-{idx % 10 % 2}")
                if motion is None:
                    assert np.array_equal(preprocess_recording(rec).values,
                                          core.traces[idx].values)

    def test_zero_peak_rate_moves_nothing(self):
        cfg = small_config(scenario="movement", class_count=3, traces_per_class=4,
                           duration_s=2.0, motion_peak_rate=0.0)
        result = run_movement(cfg)
        assert result.rejected_fraction == 0.0
        assert result.motion_flagged_fraction == 0.0

    def test_peak_rate_bounded_by_pi_per_sample(self):
        # The largest drawn rate, 1.5 * motion_peak_rate, turns the device by
        # 3.0 rad per sample at 1 Hz (loads) or 3.15 rad (rejected).
        small_config(scenario="movement", rate_hz=1.0, motion_peak_rate=2.0)
        with pytest.raises(ValueError, match="motion_peak_rate"):
            small_config(scenario="movement", rate_hz=1.0, motion_peak_rate=2.1)
        small_config(motion_peak_rate=1e308)  # only a movement config renders it

    def test_saturated_fraction(self):
        cfg = small_config(scenario="movement", motion_fraction=1.0)
        result = run_movement(cfg)
        assert result.rejected_fraction == 1.0


class TestSnrCalibration:
    def test_zero_gain_row(self):
        cfg = small_config(scenario="snr", gains=(0.0, 4.0),
                           calibration_cycles=10)
        rows = run_snr_calibration(cfg)
        assert rows[0]["snr_db"] < -10.0
        assert rows[0]["pattern_correlation"] < 0.2

    def test_doubling_gain_adds_6db(self):
        cfg = small_config(scenario="snr", gains=(2.0, 4.0),
                           calibration_cycles=15)
        rows = run_snr_calibration(cfg)
        assert rows[1]["snr_db"] - rows[0]["snr_db"] == pytest.approx(6.02, abs=0.7)

    def test_12db_gain_has_good_correlation(self):
        gain = 10 ** (12.0 / 20.0)
        cfg = small_config(scenario="snr", gains=(gain,), calibration_cycles=15)
        rows = run_snr_calibration(cfg)
        assert rows[0]["pattern_correlation"] > 0.8


class TestReports:
    def test_write_report_files(self, tmp_path):
        cfg = small_config(class_count=3, traces_per_class=6)
        payload, text = run_scenario(cfg)
        write_report(tmp_path / "run", payload, text)
        body = json.loads((tmp_path / "run" / "report.json").read_text())
        assert body["scenario"] == "closed-world"
        assert "accuracy" in (tmp_path / "run" / "report.txt").read_text()

    def test_report_bytes_reproducible(self, tmp_path):
        cfg = small_config(class_count=3, traces_per_class=6)
        for name in ("a", "b"):
            payload, text = run_scenario(cfg)
            write_report(tmp_path / name, payload, text)
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()
