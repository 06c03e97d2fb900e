import json

import numpy as np
import pytest
from conftest import MALFORMED_TREES, write_model_doc

from magspy.cli import main
from magspy.detect import save_pattern, ActivityPattern
from magspy.forest import extract_features, load_model, predict
from magspy.preprocess import preprocess_recording
from magspy.traces import SensorRecording, load_recordings, save_recordings


def write_config(tmp_path, **kw):
    base = {
        "class_count": 3,
        "traces_per_class": 8,
        "duration_s": 6.0,
        "forest": {"n_estimators": 40, "max_depth": 20, "seed": 0},
    }
    base.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return str(path)


class TestSimulateTrainClassify:
    def test_full_round_trip(self, tmp_path, capsys):
        config = write_config(tmp_path)
        sim_dir = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--out", str(sim_dir)]) == 0
        data = sim_dir / "recordings.jsonl"
        recs = load_recordings(data)
        assert len(recs) == 24
        assert all(rec.label is not None for rec in recs)

        model_dir = tmp_path / "model"
        assert main(["train", "--config", config, "--data", str(data),
                     "--out", str(model_dir)]) == 0
        model = load_model(model_dir / "model.json")
        assert len(model.trees) == 40
        assert (model_dir / "pattern_class-000.json").exists()

        out_dir = tmp_path / "pred"
        assert main(["classify", "--model", str(model_dir / "model.json"),
                     "--data", str(data), "--out", str(out_dir)]) == 0
        lines = (out_dir / "predictions.jsonl").read_text().splitlines()
        assert len(lines) == 24
        report = json.loads((out_dir / "report.json").read_text())
        assert report["report"]["accuracy"] >= 0.9  # training data

    def test_classify_matches_per_recording_predict(self, tmp_path, capsys):
        config = write_config(tmp_path)
        main(["simulate", "--config", config, "--out", str(tmp_path / "sim")])
        main(["simulate", "--config", config, "--out", str(tmp_path / "held"),
              "--seed", "5"])
        model_dir = tmp_path / "model"
        main(["train", "--config", config, "--data",
              str(tmp_path / "sim" / "recordings.jsonl"), "--out", str(model_dir)])
        held = tmp_path / "held" / "recordings.jsonl"
        out_dir = tmp_path / "pred"
        assert main(["classify", "--model", str(model_dir / "model.json"),
                     "--data", str(held), "--out", str(out_dir)]) == 0
        rows = [json.loads(line) for line
                in (out_dir / "predictions.jsonl").read_text().splitlines()]
        model = load_model(model_dir / "model.json")
        recordings = load_recordings(held)
        assert len(rows) == len(recordings)
        for rec, row in zip(recordings, rows):
            features = extract_features(preprocess_recording(rec), model.n_features)
            label, probs = predict(model, features)
            assert row["predicted"] == label
            assert row["probability"] == probs[label]
            assert row["label"] == rec.label

    def test_classify_empty_data_file(self, tmp_path, capsys):
        config = write_config(tmp_path, class_count=2, traces_per_class=4)
        main(["simulate", "--config", config, "--out", str(tmp_path / "sim")])
        model_dir = tmp_path / "model"
        main(["train", "--config", config, "--data",
              str(tmp_path / "sim" / "recordings.jsonl"), "--out", str(model_dir)])
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out_dir = tmp_path / "pred"
        assert main(["classify", "--model", str(model_dir / "model.json"),
                     "--data", str(empty), "--out", str(out_dir)]) == 0
        assert (out_dir / "predictions.jsonl").read_text() == ""
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("name", ["self-loop", "shared-child"])
    def test_classify_rejects_malformed_model(self, tmp_path, capsys, name):
        model = write_model_doc(tmp_path / "model.json", MALFORMED_TREES[name])
        data = tmp_path / "data.jsonl"
        save_recordings([SensorRecording(
            "d", 100.0, np.random.default_rng(0).normal(50, 1, (300, 3)))], data)
        assert main(["classify", "--model", str(model), "--data", str(data)]) == 1
        assert "magspy: error:" in capsys.readouterr().err

    def test_classify_to_stdout(self, tmp_path, capsys):
        config = write_config(tmp_path)
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", config, "--out", str(sim_dir)])
        model_dir = tmp_path / "model"
        main(["train", "--config", config, "--data",
              str(sim_dir / "recordings.jsonl"), "--out", str(model_dir)])
        capsys.readouterr()
        assert main(["classify", "--model", str(model_dir / "model.json"),
                     "--data", str(sim_dir / "recordings.jsonl")]) == 0
        out = capsys.readouterr().out
        first = json.loads(out.splitlines()[0])
        assert {"device_id", "label", "predicted", "probability"} <= set(first)


class TestDetectCommand:
    def test_detect_emits_jsonl(self, tmp_path, capsys):
        config = write_config(tmp_path, class_count=2, traces_per_class=6)
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", config, "--out", str(sim_dir)])
        model_dir = tmp_path / "model"
        main(["train", "--config", config, "--data",
              str(sim_dir / "recordings.jsonl"), "--out", str(model_dir)])
        # Streams must outlast the 6 s pattern for the scan to slide.
        stream_config = write_config(tmp_path, class_count=2, traces_per_class=2,
                                     duration_s=20.0)
        stream_dir = tmp_path / "streams"
        main(["simulate", "--config", stream_config, "--out", str(stream_dir)])
        capsys.readouterr()
        rc = main(["detect",
                   "--pattern", str(model_dir / "pattern_class-000.json"),
                   "--data", str(stream_dir / "recordings.jsonl"),
                   "--model", str(model_dir / "model.json"),
                   "--min-height=-1e9", "--min-prominence", "0",
                   "--window-s", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows, "expected at least one detection with open thresholds"
        assert {"time_s", "score", "label"} <= set(rows[0])

    def test_detect_scores_against_truth(self, tmp_path, capsys):
        pattern = ActivityPattern(np.array([0.5, -0.5, 0.25, -0.25]), 100.0, "x")
        ppath = tmp_path / "pattern.json"
        save_pattern(pattern, ppath)
        config = write_config(tmp_path, class_count=2, traces_per_class=2)
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", config, "--out", str(sim_dir)])
        truth = tmp_path / "truth.jsonl"
        truth.write_text(json.dumps({"time_s": 1.0, "label": "class-000"}) + "\n")
        out_dir = tmp_path / "det"
        rc = main(["detect", "--pattern", str(ppath),
                   "--data", str(sim_dir / "recordings.jsonl"),
                   "--min-height=-1e9", "--min-prominence", "0",
                   "--truth", str(truth), "--tolerance-s", "1.0",
                   "--out", str(out_dir)])
        assert rc == 0
        scores = json.loads((out_dir / "scores.json").read_text())
        assert {"tp", "fp", "fn"} <= set(scores)
        assert scores["tp"] + scores["fn"] == 1

    @staticmethod
    def _event_streams(tmp_path, starts):
        """One recording per start index, each holding one 1 s event at 100 Hz."""
        shape = np.r_[np.ones(50), np.zeros(20), np.ones(30)]
        recordings = []
        for i, start in enumerate(starts):
            cpu = np.zeros(2000)
            cpu[start:start + shape.size] = shape
            mag = np.column_stack([50 + 5 * cpu, np.full(2000, 20.0),
                                   np.full(2000, 40.0)])
            mag += np.random.default_rng(i).normal(0.0, 0.05, mag.shape)
            recordings.append(SensorRecording(f"d{i}", 100.0, mag))
        data = tmp_path / "streams.jsonl"
        save_recordings(recordings, data)
        ppath = tmp_path / "pattern.json"
        save_pattern(ActivityPattern(shape - shape.mean(), 100.0, "x"), ppath)
        return data, ppath

    def _score(self, tmp_path, data, ppath, truth_rows):
        truth = tmp_path / "truth.jsonl"
        truth.write_text("".join(json.dumps(row) + "\n" for row in truth_rows))
        out_dir = tmp_path / "det"
        rc = main(["detect", "--pattern", str(ppath), "--data", str(data),
                   "--min-height", "8", "--min-prominence", "4",
                   "--truth", str(truth), "--tolerance-s", "0.5",
                   "--out", str(out_dir)])
        scores = out_dir / "scores.json"
        return rc, json.loads(scores.read_text()) if rc == 0 else None

    def test_detect_scores_each_stream_against_its_truth(self, tmp_path, capsys):
        data, ppath = self._event_streams(tmp_path, [1000, 1000])
        rc, scores = self._score(tmp_path, data, ppath,
                                 [{"stream": 0, "time_s": 10.0, "label": "x"},
                                  {"stream": 1, "time_s": 10.0, "label": "x"}])
        assert (rc, scores) == (0, {"tp": 2, "fp": 0, "fn": 0})

    def test_detect_never_matches_across_streams(self, tmp_path, capsys):
        # The only event at 15 s is in stream 1; truth places it in stream 0.
        data, ppath = self._event_streams(tmp_path, [1000, 1500])
        rc, scores = self._score(tmp_path, data, ppath,
                                 [{"stream": 0, "time_s": 15.0}])
        assert (rc, scores) == (0, {"tp": 0, "fp": 2, "fn": 1})

    @pytest.mark.parametrize("stream", ["1", 1.0, 2, -1, True])
    def test_detect_rejects_bad_truth_stream(self, tmp_path, capsys, stream):
        data, ppath = self._event_streams(tmp_path, [1000, 1000])
        rc, _ = self._score(tmp_path, data, ppath, [{"stream": stream, "time_s": 10.0}])
        assert rc == 1
        assert "stream must be an integer" in capsys.readouterr().err

    def test_simulate_with_motion_script(self, tmp_path, capsys):
        config = write_config(tmp_path, class_count=2, traces_per_class=2)
        script = tmp_path / "motion.json"
        script.write_text(json.dumps({"rotation_events": [
            {"start_index": 50, "duration_samples": 100,
             "peak_rate_rad_s": 2.0, "axis": [0.0, 0.0, 1.0]}]}))
        sim_dir = tmp_path / "sim"
        rc = main(["simulate", "--config", config, "--out", str(sim_dir),
                   "--motion-script", str(script)])
        assert rc == 0
        recs = load_recordings(sim_dir / "recordings.jsonl")
        assert all(np.linalg.norm(r.gyro, axis=1).max() > 1.9 for r in recs)

    def test_motion_script_render_follows_seed(self, tmp_path, capsys):
        # With a gain-0 device only the render noise tells recordings apart.
        config = write_config(tmp_path, class_count=1, traces_per_class=2)
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"gain": 0.0}))
        script = tmp_path / "motion.json"
        script.write_text(json.dumps({"rotation_events": [
            {"start_index": 50, "duration_samples": 100,
             "peak_rate_rad_s": 2.0, "axis": [0.0, 0.0, 1.0]}]}))
        mags = []
        for seed in ("1", "2"):
            out = tmp_path / f"sim-{seed}"
            assert main(["simulate", "--config", config, "--out", str(out),
                         "--seed", seed, "--device-profile", str(profile),
                         "--motion-script", str(script)]) == 0
            recordings = load_recordings(out / "recordings.jsonl")
            mags.append([rec.mag for rec in recordings])
        for a, b in zip(*mags):
            assert not np.array_equal(a, b)

    def test_detect_without_model_has_null_labels(self, tmp_path, capsys):
        pattern = ActivityPattern(np.array([0.5, -0.5, 0.25, -0.25]), 100.0, "x")
        ppath = tmp_path / "pattern.json"
        save_pattern(pattern, ppath)
        config = write_config(tmp_path, class_count=2, traces_per_class=6)
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", config, "--out", str(sim_dir)])
        capsys.readouterr()
        rc = main(["detect", "--pattern", str(ppath),
                   "--data", str(sim_dir / "recordings.jsonl"),
                   "--min-height=-1e9", "--min-prominence", "0"])
        assert rc == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows and all(row["label"] is None for row in rows)


class TestEvalCommand:
    def test_eval_writes_reports(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["eval", "--config", config, "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["scenario"] == "closed-world"
        assert (out_dir / "report.txt").exists()

    def test_threads_flag_is_accepted_and_changes_nothing(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["eval", "--config", config, "--out", str(tmp_path / "a")]) == 0
        assert main(["eval", "--config", config, "--out", str(tmp_path / "b"),
                     "--threads", "3"]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_eval_snr_scenario(self, tmp_path, capsys):
        config = write_config(tmp_path, scenario="snr",
                              gains=[0.0, 4.0], calibration_cycles=5)
        out_dir = tmp_path / "snr"
        assert main(["eval", "--config", config, "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert len(payload["rows"]) == 2

    def test_snr_shortcut_overrides_scenario(self, tmp_path, capsys):
        config = write_config(tmp_path, gains=[0.0, 2.0], calibration_cycles=3)
        out_dir = tmp_path / "snr"
        assert main(["snr", "--config", config, "--out", str(out_dir)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["scenario"] == "snr"
        assert [row["gain"] for row in payload["rows"]] == [0.0, 2.0]

    def test_device_profile_override(self, tmp_path, capsys):
        config = write_config(tmp_path)
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"snr_db": 15.0}))
        out_dir = tmp_path / "run"
        assert main(["eval", "--config", config, "--out", str(out_dir),
                     "--device-profile", str(profile)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        gain = payload["config"]["device_profiles"][0]["gain"]
        assert gain == pytest.approx(10 ** 0.75)


class TestExitCodes:
    @pytest.mark.parametrize("kind, doc", [
        ("motion-script", '{"rotation_events": [{"start_index": 50, '
         '"duration_samples": 100, "peak_rate_rad_s": NaN, "axis": [0, 0, 1]}]}'),
        ("motion-script", '{"rotation_events": [{"start_index": 1.5, '
         '"duration_samples": 100, "peak_rate_rad_s": 2.0, "axis": [0, 0, 1]}]}'),
        ("device-profile", '{"gain": "3"}'),
        ("device-profile", '{"gain": 3.0, "noise_std": NaN}'),
        ("config", '{"class_count": "2", "traces_per_class": 2}'),
    ], ids=["nan-peak-rate", "fractional-start-index", "string-gain",
            "nan-noise-std", "string-class-count"])
    def test_bad_outside_document_is_validation_error(self, tmp_path, capsys,
                                                      kind, doc):
        path = tmp_path / f"{kind}.json"
        path.write_text(doc)
        config = (str(path) if kind == "config"
                  else write_config(tmp_path, class_count=1, traces_per_class=1))
        argv = ["simulate", "--config", config, "--out", str(tmp_path / "sim")]
        if kind != "config":
            argv += [f"--{kind}", str(path)]
        assert main(argv) == 1
        assert "magspy: error:" in capsys.readouterr().err
        assert not (tmp_path / "sim" / "recordings.jsonl").exists()

    def test_missing_config_file_is_validation_error(self, tmp_path, capsys):
        assert main(["eval", "--config", str(tmp_path / "nope.json")]) == 1

    def test_bad_config_contents(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus_field": 1}')
        assert main(["eval", "--config", str(bad)]) == 1

    def test_malformed_data_file(self, tmp_path, capsys):
        config = write_config(tmp_path, class_count=2, traces_per_class=6)
        data = tmp_path / "bad.jsonl"
        data.write_text("{not json\n")
        assert main(["train", "--config", config, "--data", str(data),
                     "--out", str(tmp_path / "m")]) == 1

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect"])  # missing required flags
        assert exc.value.code == 1

    def test_unlabeled_training_data_rejected(self, tmp_path, capsys):
        from magspy.traces import SensorRecording, save_recordings
        recs = [SensorRecording("d", 100.0, np.random.default_rng(i).normal(50, 1, (300, 3)))
                for i in range(4)]
        data = tmp_path / "unlabeled.jsonl"
        save_recordings(recs, data)
        config = write_config(tmp_path)
        assert main(["train", "--config", config, "--data", str(data),
                     "--out", str(tmp_path / "m")]) == 1
