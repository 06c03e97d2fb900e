import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from conftest import MALFORMED_TREES, tree_doc, write_model_doc
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("command", ["train", "classify", "detect"])
    def test_each_recording_is_reduced_as_it_is_read(self, tmp_path, capsys,
                                                     monkeypatch, command):
        # A recording is reduced to its trace before the next line is read,
        # and it is dropped by the time the one after that is read.
        import magspy.cli as cli
        config = write_config(tmp_path, class_count=2, traces_per_class=3)
        main(["simulate", "--config", config, "--out", str(tmp_path / "sim")])
        data = tmp_path / "sim" / "recordings.jsonl"
        model = tmp_path / "model" / "model.json"
        main(["train", "--config", config, "--data", str(data),
              "--out", str(model.parent)])
        events, alive = [], []
        read, reduce = cli._read_recordings, cli.preprocess_recording

        def reading(path):
            for rec in read(path):
                assert all(ref() is None for ref in alive[:-1])
                alive.append(weakref.ref(rec))
                events.append(("read", rec.label))
                yield rec

        def reducing(rec, *args):
            events.append(("reduce", rec.label))
            return reduce(rec, *args)

        monkeypatch.setattr(cli, "_read_recordings", reading)
        monkeypatch.setattr(cli, "preprocess_recording", reducing)
        pattern = model.parent / "pattern_class-000.json"
        argv = {"train": ["train", "--config", config],
                "classify": ["classify", "--model", str(model)],
                "detect": ["detect", "--pattern", str(pattern), "--min-height", "0.5",
                           "--min-prominence", "0.1"]}[command]
        assert main(argv + ["--data", str(data), "--out", str(tmp_path / "out")]) == 0
        labels = [rec.label for rec in load_recordings(data)]
        assert events == [(step, label) for label in labels
                          for step in ("read", "reduce")]

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

    def test_train_and_classify_mixed_durations(self, tmp_path, capsys):
        # Recordings of 6 s and 4 s interleaved in one file: the featurizer
        # bins each length group as one matrix and must return rows in input
        # order. The 4 s classes get their own labels, since `train` averages
        # one pattern per label.
        recordings = []
        for duration, prefix in ((6.0, ""), (4.0, "short-")):
            config = write_config(tmp_path, duration_s=duration, traces_per_class=5)
            sim = tmp_path / f"sim-{duration}"
            main(["simulate", "--config", config, "--out", str(sim)])
            recordings.append([replace(rec, label=prefix + rec.label) for rec
                               in load_recordings(sim / "recordings.jsonl")])
        recordings = [rec for pair in zip(*recordings) for rec in pair]
        data = tmp_path / "mixed.jsonl"
        save_recordings(recordings, data)
        config = write_config(tmp_path)
        model_dir = tmp_path / "model"
        assert main(["train", "--config", config, "--data", str(data),
                     "--out", str(model_dir)]) == 0
        out_dir = tmp_path / "pred"
        assert main(["classify", "--model", str(model_dir / "model.json"),
                     "--data", str(data), "--out", str(out_dir)]) == 0
        rows = [json.loads(line) for line
                in (out_dir / "predictions.jsonl").read_text().splitlines()]
        model = load_model(model_dir / "model.json")
        assert len(rows) == len(recordings) == 30
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

    @pytest.mark.parametrize("name", ["self-loop", "shared-child", "unknown-key"])
    def test_classify_rejects_malformed_model(self, tmp_path, capsys, name):
        model = write_model_doc(tmp_path / "model.json", MALFORMED_TREES[name])
        data = tmp_path / "data.jsonl"
        save_recordings([SensorRecording(
            "d", 100.0, np.random.default_rng(0).normal(50, 1, (300, 3)))], data)
        assert main(["classify", "--model", str(model), "--data", str(data)]) == 1
        assert "magspy: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, override", [
        ("n_features", {"n_features": 1.5}),
        ("class_names", {"class_names": ["A", "A", "B"]}),
        ("trees", {"trees": []}),
        ("nodes", {"trees": [tree_doc([], [], [], [], [])]}),
        ("bogus", {"bogus": 1}),
    ], ids=["fractional-n-features", "duplicate-class-names", "no-trees",
            "tree-without-nodes", "unknown-key"])
    def test_classify_rejects_bad_model_header(self, tmp_path, capsys, field,
                                               override):
        leaf = tree_doc([-1], [None], [-1], [-1], [[1, 0, 0]])
        model = write_model_doc(tmp_path / "model.json", leaf, ("A", "B", "C"))
        model.write_text(json.dumps({**json.loads(model.read_text()), **override}))
        data = tmp_path / "data.jsonl"
        save_recordings([SensorRecording(
            "d", 100.0, np.random.default_rng(0).normal(50, 1, (300, 3)))], data)
        assert main(["classify", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "pred")]) == 1
        err = capsys.readouterr().err
        assert "magspy: error:" in err and field in err
        assert not (tmp_path / "pred" / "predictions.jsonl").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["trees"][0]["left"].__setitem__(0, 1.9),
        lambda doc: doc["trees"][0]["feature"].__setitem__(0, True),
        lambda doc: doc["trees"][0]["right"].__setitem__(0, 2.0),
        lambda doc: doc["trees"][0]["threshold"].__setitem__(0, True),
        lambda doc: doc["trees"][0]["counts"].__setitem__(1, [0.5, 1]),
        lambda doc: doc["trees"][0]["counts"].__setitem__(1, [1e308, 1e308]),
        lambda doc: doc["trees"][0]["counts"].__setitem__(1, [True, 0]),
        lambda doc: doc["trees"][0]["counts"].__setitem__(1, [-1, 2]),
        lambda doc: doc["trees"][0]["counts"].__setitem__(1, [2**53 + 1, 0]),
        lambda doc: doc["trees"][0]["counts"].__setitem__(1, [10**30, 0]),
        lambda doc: doc.__setitem__("class_names", [0, 1]),
        lambda doc: doc.__setitem__("trees", None),
        lambda doc: doc.__setitem__("trees", [[0]]),
        lambda doc: doc.__setitem__("config", 5),
        lambda doc: [doc],
    ], ids=["fractional-left", "bool-feature", "float-right", "bool-threshold",
            "fractional-counts", "overflowing-counts", "bool-counts", "negative-counts",
            "counts-above-2^53", "counts-above-int64", "integer-class-names",
            "null-trees", "tree-not-an-object", "config-not-an-object",
            "document-is-a-list"])
    def test_classify_rejects_mistyped_model(self, tmp_path, capsys, edit):
        tree = tree_doc([0, -1, -1], [0.5, None, None], [1, -1, -1], [2, -1, -1],
                        [None, [1, 0], [0, 1]])
        doc = json.loads(write_model_doc(tmp_path / "model.json", tree).read_text())
        (tmp_path / "model.json").write_text(json.dumps(edit(doc) or doc))
        data = tmp_path / "data.jsonl"
        save_recordings([SensorRecording(
            "d", 100.0, np.random.default_rng(0).normal(50, 1, (300, 3)))], data)
        assert main(["classify", "--model", str(tmp_path / "model.json"), "--data",
                     str(data), "--out", str(tmp_path / "pred")]) == 1
        assert "magspy: error:" in capsys.readouterr().err
        assert not (tmp_path / "pred" / "predictions.jsonl").exists()

    @pytest.mark.parametrize("field, sample", [
        ("mag", True), ("mag", "1.5"), ("mag", None), ("gyro", False),
    ], ids=["true", "numeric-string", "null", "false-gyro"])
    def test_classify_rejects_mistyped_recording(self, tmp_path, capsys, field,
                                                 sample):
        tree = tree_doc([0, -1, -1], [0.5, None, None], [1, -1, -1], [2, -1, -1],
                        [None, [1, 0], [0, 1]])
        write_model_doc(tmp_path / "model.json", tree)
        rng = np.random.default_rng(0)
        data = tmp_path / "data.jsonl"
        save_recordings([SensorRecording("d", 100.0, rng.normal(50, 1, (300, 3)),
                                         np.zeros((300, 3)))
                         for _ in range(2)], data)
        first, second = data.read_text().splitlines()
        doc = json.loads(second)
        doc[field][0][0] = sample
        data.write_text(first + "\n" + json.dumps(doc) + "\n")
        assert main(["classify", "--model", str(tmp_path / "model.json"), "--data",
                     str(data), "--out", str(tmp_path / "pred")]) == 1
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()

    def test_classify_recording_of_huge_samples(self, tmp_path, capsys):
        # Samples near 1e22 uT used to overflow in the PCA. Scaled by 2^70,
        # a recording reduces to the same trace, so its prediction line stays.
        config = write_config(tmp_path, class_count=2, traces_per_class=3, duration_s=2.0,
                              forest={"n_estimators": 3})
        sim, model = tmp_path / "sim", tmp_path / "model"
        assert main(["simulate", "--config", config, "--out", str(sim)]) == 0
        assert main(["train", "--config", config, "--data", str(sim / "recordings.jsonl"),
                     "--out", str(model)]) == 0
        rec = load_recordings(sim / "recordings.jsonl")[0]
        lines = []
        for scale in (1.0, 2.0 ** 70):
            save_recordings([replace(rec, mag=rec.mag * scale)], tmp_path / "one.jsonl")
            capsys.readouterr()
            assert main(["classify", "--model", str(model / "model.json"),
                         "--data", str(tmp_path / "one.jsonl")]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]

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
        truth.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n"
                                 for row in truth_rows), encoding="utf-8")
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
        lines = (tmp_path / "det" / "detections.jsonl").read_text().splitlines()
        assert [json.loads(line)["stream"] for line in lines] == [0, 1]

    def test_detect_never_matches_across_streams(self, tmp_path, capsys):
        # The only event at 15 s is in stream 1; truth places it in stream 0.
        data, ppath = self._event_streams(tmp_path, [1000, 1500])
        rc, scores = self._score(tmp_path, data, ppath,
                                 [{"stream": 0, "time_s": 15.0}])
        assert (rc, scores) == (0, {"tp": 0, "fp": 2, "fn": 1})

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_detect_scores_do_not_depend_on_stream_order(self, tmp_path, capsys, data):
        # Permute the recordings and the truth lines together, each line's
        # stream index following its recording: the scores stay the same.
        streams, ppath = self._event_streams(tmp_path, [1000, 1500, 700])
        rows = data.draw(st.lists(st.fixed_dictionaries({
            "stream": st.integers(0, 2),
            "time_s": st.sampled_from([3.0, 7.0, 7.3, 10.0, 14.8, 15.0])}),
            max_size=6, unique_by=lambda row: (row["stream"], row["time_s"])))
        perm = data.draw(st.permutations(range(3)))
        order = data.draw(st.permutations(range(len(rows))))
        recordings = load_recordings(streams)
        permuted = tmp_path / "permuted.jsonl"
        save_recordings([recordings[i] for i in perm], permuted)
        moved = [{**rows[i], "stream": perm.index(rows[i]["stream"])} for i in order]
        want = self._score(tmp_path, streams, ppath, rows)
        assert want[0] == 0
        assert self._score(tmp_path, permuted, ppath, moved) == want

    @pytest.mark.parametrize("label", ["x\u2028y", "x\x85y"], ids=["U+2028", "U+0085"])
    def test_truth_label_may_hold_line_separators(self, tmp_path, capsys, label):
        from magspy.cli import _read_truth
        data, ppath = self._event_streams(tmp_path, [1000, 1000])
        rows = [{"stream": s, "time_s": 10.0, "label": label} for s in (0, 1)]
        rc, scores = self._score(tmp_path, data, ppath, rows)
        assert (rc, scores) == (0, {"tp": 2, "fp": 0, "fn": 0})
        assert _read_truth(tmp_path / "truth.jsonl", [100.0, 100.0]) == \
            [[(1000, label)], [(1000, label)]]

    @pytest.mark.parametrize("edit", [
        lambda doc: [doc],
        lambda doc: doc["values"].__setitem__(0, True),
        lambda doc: doc["values"].__setitem__(0, "0.5"),
        lambda doc: doc.__setitem__("class_label", 7),
        lambda doc: doc.__setitem__("bogus", 1),
        lambda doc: doc.__delitem__("rate_hz"),
    ], ids=["not-an-object", "bool-value", "string-value", "integer-class-label",
            "unknown-key", "missing-rate"])
    def test_detect_rejects_malformed_pattern(self, tmp_path, capsys, edit):
        data, ppath = self._event_streams(tmp_path, [1000])
        doc = json.loads(ppath.read_text())
        ppath.write_text(json.dumps(edit(doc) or doc))
        out_dir = tmp_path / "det"
        assert main(["detect", "--pattern", str(ppath), "--data", str(data),
                     "--min-height", "8", "--min-prominence", "4",
                     "--out", str(out_dir)]) == 1
        assert "magspy: error:" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("stream", ["1", 1.0, 2, -1, True])
    def test_detect_rejects_bad_truth_stream(self, tmp_path, capsys, stream):
        data, ppath = self._event_streams(tmp_path, [1000, 1000])
        rc, _ = self._score(tmp_path, data, ppath, [{"stream": stream, "time_s": 10.0}])
        assert rc == 1
        assert "stream must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"time_s": 10.0, "label": "x", "bogus": 1}\n', "unknown truth line fields"),
        ('{"time_s": 10.0, "label": 7}\n', "label must be a string"),
        ('{"time_s": 10.0, "label": null}\n', "label must be a string"),
        ('{"label": "x"}\n', "time_s"),
        ('{"time_s": true}\n', "time_s must be a number"),
        ('{"time_s": NaN}\n', "time_s must be finite"),
        ('{"time_s": 1e308}\n', "line 1: "),
        ("[1]\n", "truth line must be a JSON object"),
        ('{"time_s": 1.0}\n\n{"time_s": 2.0,\n', "line 3: invalid JSON"),
    ], ids=["unknown-key", "integer-label", "null-label", "missing-time",
            "bool-time", "nan-time", "overflowing-time", "list-line", "bad-json"])
    def test_detect_rejects_malformed_truth_line(self, tmp_path, capsys, text,
                                                 message):
        # Truth lines are typed like every other document: the error names
        # the file and line, and nothing is written.
        data, ppath = self._event_streams(tmp_path, [1000, 1000])
        truth = tmp_path / "truth.jsonl"
        truth.write_text(text, encoding="utf-8")
        out_dir = tmp_path / "det"
        assert main(["detect", "--pattern", str(ppath), "--data", str(data),
                     "--min-height", "8", "--min-prominence", "4",
                     "--truth", str(truth), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert f"magspy: error: {truth}: line " in err and message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--min-height", "--min-prominence",
                                      "--tolerance-s"])
    def test_detect_rejects_non_finite_threshold(self, tmp_path, capsys, flag):
        data, ppath = self._event_streams(tmp_path, [1000])
        truth = tmp_path / "truth.jsonl"
        truth.write_text(json.dumps({"time_s": 10.0}) + "\n")
        out_dir = tmp_path / "det"
        assert main(["detect", "--pattern", str(ppath), "--data", str(data),
                     "--min-height", "8", "--min-prominence", "4",
                     "--truth", str(truth), "--out", str(out_dir),
                     flag, "nan"]) == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("window_s", ["inf", "nan", "0", "-1"])
    def test_detect_with_model_rejects_a_window_without_features(self, tmp_path, capsys,
                                                                 window_s):
        # Checked before any peak is found: no peak clears this height.
        data, ppath = self._event_streams(tmp_path, [1000])
        model = write_model_doc(tmp_path / "model.json",
                                tree_doc([-1], [None], [-1], [-1], [[1, 0]]))
        out_dir = tmp_path / "det"
        assert main(["detect", "--pattern", str(ppath), "--data", str(data),
                     "--model", str(model), "--min-height", "1e9",
                     "--min-prominence", "0", "--out", str(out_dir),
                     "--window-s", window_s]) == 1
        assert "window_s" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag", ["--motion-mean-threshold",
                                      "--motion-max-threshold"])
    def test_movement_eval_rejects_nan_motion_threshold(self, tmp_path, capsys,
                                                        monkeypatch, flag):
        # A NaN threshold compares false, so it used to reject nothing.
        def render(*args, **kwargs):
            raise AssertionError("rendered before the thresholds were checked")

        monkeypatch.setattr("magspy.experiments.render_recording", render)
        config = write_config(tmp_path, scenario="movement", class_count=3,
                              traces_per_class=10)
        out_dir = tmp_path / "out"
        assert main(["eval", "--config", config, "--out", str(out_dir),
                     flag, "nan"]) == 1
        assert flag[9:].replace("-", "_") in capsys.readouterr().err
        assert not out_dir.exists()

    def test_simulate_with_motion_script(self, tmp_path, capsys, monkeypatch):
        # Each recording is rendered once, under the script.
        import magspy.experiments as experiments
        original = experiments.render_recording
        scripts = []

        def render(*args, **kwargs):
            scripts.append(kwargs.get("motion"))
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "render_recording", render)
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
        assert len(scripts) == len(recs) == 4 and None not in scripts

    def test_simulate_rejects_a_motion_event_over_pi_per_sample(self, tmp_path, capsys):
        # It used to overflow in the rotation, warn, then fail in math.sin(inf).
        config = write_config(tmp_path, class_count=2, traces_per_class=1, duration_s=2.0)
        script = tmp_path / "motion.json"
        script.write_text(json.dumps({"rotation_events": [
            {"start_index": 10, "duration_samples": 50,
             "peak_rate_rad_s": 1e200, "axis": [0.0, 0.0, 1.0]}]}))
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--out", str(out_dir),
                     "--motion-script", str(script)]) == 1
        assert "peak_rate_rad_s" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_simulate_writes_gyro_only_with_rotation(self, tmp_path, capsys):
        # Without rotation or gyro noise a recording has no gyroscope channel.
        config = write_config(tmp_path, class_count=2, traces_per_class=2)
        script = tmp_path / "motion.json"
        script.write_text(json.dumps({"rotation_events": [
            {"start_index": 50, "duration_samples": 100,
             "peak_rate_rad_s": 2.0, "axis": [0.0, 0.0, 1.0]}]}))
        for out, extra, has_gyro in (("plain", [], False),
                                     ("moving", ["--motion-script", str(script)], True)):
            assert main(["simulate", "--config", config, "--out", str(tmp_path / out),
                         *extra]) == 0
            lines = (tmp_path / out / "recordings.jsonl").read_text().splitlines()
            assert len(lines) == 4
            assert all(("gyro" in json.loads(line)) == has_gyro for line in lines)

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

    @pytest.mark.parametrize("field, value", [("snr_db", 400.0), ("noise_std", 1e300)])
    def test_eval_of_huge_finite_samples(self, tmp_path, capsys, field, value):
        # The PCA used to overflow on such samples, warn, then fail with a
        # false "constant trace". Warnings are errors here.
        config = write_config(tmp_path, class_count=3, traces_per_class=4, duration_s=2.0,
                              forest={"n_estimators": 3}, **{field: value})
        assert main(["eval", "--config", config, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert 0.0 <= report["report"]["accuracy"] <= 1.0

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

    @pytest.mark.parametrize("command, scenario", [
        ("eval", "sweep"), ("sweep", None), ("eval", "continuous"),
        ("eval", "movement")])
    def test_device_profile_at_another_rate_rejected(self, tmp_path, capsys,
                                                     monkeypatch, command, scenario):
        # These scenarios index samples at the config's rate_hz, so a 50 Hz
        # device under a 100 Hz config fails before anything is rendered.
        def render(*args, **kwargs):
            raise AssertionError("rendered before the profile rate was checked")

        monkeypatch.setattr("magspy.experiments.render_recording", render)
        config = write_config(tmp_path, **({"scenario": scenario} if scenario else {}))
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"snr_db": 15.0, "rate_hz": 50.0}))
        out_dir = tmp_path / "run"
        assert main([command, "--config", config, "--out", str(out_dir),
                     "--device-profile", str(profile)]) == 1
        err = capsys.readouterr().err
        assert "magspy: error:" in err and "100.0" in err and "50.0" in err
        assert not out_dir.exists()

    def test_closed_world_resamples_a_profile_at_another_rate(self, tmp_path, capsys):
        config = write_config(tmp_path, class_count=2, traces_per_class=4)
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"snr_db": 15.0, "rate_hz": 50.0}))
        out_dir = tmp_path / "run"
        assert main(["eval", "--config", config, "--out", str(out_dir),
                     "--device-profile", str(profile)]) == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["config"]["device_profiles"][0]["rate_hz"] == 50.0


class TestExitCodes:
    # 3 classes x 4 traces of 2 s and 3 trees, the scale the bounds below
    # were found at.
    SMALL = ('"class_count": 3, "traces_per_class": 4, "duration_s": 2.0, '
             '"forest": {"n_estimators": 3}')

    @pytest.mark.parametrize("kind, doc", [
        ("motion-script", '{"rotation_events": [{"start_index": 50, '
         '"duration_samples": 100, "peak_rate_rad_s": NaN, "axis": [0, 0, 1]}]}'),
        ("motion-script", '{"rotation_events": [{"start_index": 1.5, '
         '"duration_samples": 100, "peak_rate_rad_s": 2.0, "axis": [0, 0, 1]}]}'),
        ("motion-script", '{"rotation_events": [{"start_index": true, '
         '"duration_samples": 100, "peak_rate_rad_s": 2.0, "axis": [0, 0, 1]}]}'),
        ("motion-script", '{"rotation_events": [{"start_index": 50, '
         '"duration_samples": true, "peak_rate_rad_s": 2.0, "axis": [0, 0, 1]}]}'),
        ("motion-script", '{"rotation_events": [{"start_index": 50, '
         '"duration_samples": 100, "peak_rate_rad_s": true, "axis": [0, 0, 1]}]}'),
        ("motion-script", '{"rotation_events": [{"start_index": 50, '
         '"duration_samples": 100, "peak_rate_rad_s": 2.0, "axis": [NaN, 0, 0]}]}'),
        ("device-profile", '{"gain": "3"}'),
        ("device-profile", '{"gain": 3.0, "noise_std": NaN}'),
        ("device-profile", '{"gain": true}'),
        ("device-profile", '{"gain": 3.0, "coupling_dir": [NaN, 0, 0]}'),
        ("device-profile", '{"gain": 3.0, "baseline_field": [Infinity, 0, 50]}'),
        ("config", '{"class_count": "2", "traces_per_class": 2}'),
        ("config", '[]'),
        ("config", '"x"'),
        ("device-profile", '[]'),
        ("device-profile", '"x"'),
        ("device-profile", '{"snr_db": 12, "gain": 5}'),
        ("device-profile", '{"snr_db": true}'),
        ("motion-script", '[]'),
        ("motion-script", '"x"'),
        ("motion-script", '{"rotation_events": [], "bogus": 1}'),
        ("motion-script", '{"rotation_events": [{"start_index": 50, '
         '"duration_samples": 100, "peak_rate_rad_s": 2.0, "axis": [0, 0, 1], '
         '"bogus": 1}]}'),
        ("config", '{"forest": false}'),
        ("config", '{"grid": 0}'),
        ("config", '{"grid": ""}'),
        ("config", '{"motion_thresholds": ""}'),
        ("config", '{"device_profiles": false}'),
        ("config", '{"device_profiles": ""}'),
        ("config", '{"scenario": "sweep", "device_profiles": '
         '[{"snr_db": 12.0, "rate_hz": 50.0}]}'),
        ("config", '{"scenario": "continuous", "rate_hz": 50.0, '
         '"device_profiles": [{"snr_db": 12.0}]}'),
        ("config", '{"scenario": "movement", "device_profiles": '
         '[{"snr_db": 12.0}, {"snr_db": 12.0, "rate_hz": 200.0}]}'),
        # Configs that load but cannot render: each is rejected at load.
        ("config", '{"class_count": 3, "traces_per_class": 4, "duration_s": 1e9}'),
        ("config", f'{{{SMALL}, "rate_hz": 0.001}}'),
        ("config", '{"class_count": 3, "traces_per_class": 4, "duration_s": 0.001}'),
        ("config", f'{{{SMALL}, "rate_hz": 0.6}}'),
        ("config", f'{{{SMALL}, "device_profiles": [{{"snr_db": 12.0, "rate_hz": 0.4}}]}}'),
        ("config", f'{{{SMALL}, "device_profiles": [{{"snr_db": 12.0, "rate_hz": 1e6}}]}}'),
        ("config", f'{{{SMALL}, "scenario": "sweep", "rates": [100, 1e-9]}}'),
        ("config", f'{{{SMALL}, "scenario": "snr", "calibration_cycles": 0}}'),
        ("config", '{"scenario": "snr", "rate_hz": 0.2, "duration_s": 20}'),
        ("config", f'{{{SMALL}, "noise_std": 0}}'),
        ("config", f'{{{SMALL}, "scenario": "continuous", "window_s": 0.001}}'),
        ("config", f'{{{SMALL}, "scenario": "continuous", "stream_s": 2.5, '
         '"distractor_count": 1}'),
        ("config", f'{{{SMALL}, "scenario": "continuous", "stream_s": 1e5}}'),
        ("device-profile", '{"snr_db": 12.0, "rate_hz": 1e306}'),
    ], ids=["nan-peak-rate", "fractional-start-index", "bool-start-index",
            "bool-duration", "bool-peak-rate", "nan-axis", "string-gain",
            "nan-noise-std", "bool-gain", "nan-coupling-dir", "inf-baseline-field",
            "string-class-count", "list-config", "string-config", "list-profile",
            "string-profile", "snr-and-gain", "bool-snr", "list-script",
            "string-script", "unknown-script-key", "unknown-event-key",
            "false-forest", "zero-grid", "empty-string-grid",
            "empty-string-thresholds", "false-profiles", "empty-string-profiles",
            "sweep-profile-rate", "continuous-profile-rate",
            "movement-profile-rate", "huge-duration", "tiny-rate", "tiny-duration",
            "one-sample-trace", "one-sample-at-profile-rate", "huge-profile-rate",
            "one-sample-sweep-rate", "no-calibration-cycles", "calibration-too-short",
            "noiseless-snr-profile", "empty-window", "embeds-overflow-stream",
            "huge-stream", "overflowing-profile-rate"])
    def test_bad_outside_document_is_validation_error(self, tmp_path, capsys,
                                                      monkeypatch, kind, doc):
        # Every document is read and checked before the first recording.
        renders = []

        def render(*args, **kwargs):
            renders.append(args)
            raise AssertionError("rendered before the documents were checked")

        monkeypatch.setattr("magspy.experiments.render_recording", render)
        path = tmp_path / f"{kind}.json"
        path.write_text(doc)
        config = (str(path) if kind == "config"
                  else write_config(tmp_path, class_count=1, traces_per_class=1))
        argv = ["simulate", "--config", config, "--out", str(tmp_path / "sim")]
        if kind != "config":
            argv += [f"--{kind}", str(path)]
        assert main(argv) == 1
        assert "magspy: error:" in capsys.readouterr().err
        assert not renders
        assert not (tmp_path / "sim" / "recordings.jsonl").exists()

    @pytest.mark.parametrize("field, doc", [
        ("class_count", {"class_count": 2.5}),
        ("traces_per_class", {"traces_per_class": True}),
        ("distractor_count", {"distractor_count": 1.0}),
        ("calibration_cycles", {"calibration_cycles": -1}),
        ("n_estimators", {"forest": {"n_estimators": 2.5}}),
        ("max_depth", {"forest": {"max_depth": True}}),
        ("seed", {"forest": {"seed": 1.5}}),
        ("seed", {"seed": 1.5}),
        ("seed", {"seed": True}),
    ], ids=["fractional-count", "bool-count", "float-count", "negative-count",
            "fractional-trees", "bool-depth", "fractional-forest-seed",
            "fractional-seed", "bool-seed"])
    def test_non_integer_count_names_the_field(self, tmp_path, capsys, field, doc):
        config = write_config(tmp_path, **doc)
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert "magspy: error:" in err and field in err
        assert not (tmp_path / "sim" / "recordings.jsonl").exists()

    # Forest configs that used to construct and then train silently wrong:
    # a NaN minimum decrease never prunes, True counted as 1.0, and the
    # truthy string "no" trained with bootstrap.
    BAD_FOREST = {
        "nan-min-decrease": ("min_impurity_decrease", '{"min_impurity_decrease": NaN}'),
        "bool-min-decrease": ("min_impurity_decrease", '{"min_impurity_decrease": true}'),
        "string-bootstrap": ("bootstrap", '{"bootstrap": "no"}'),
    }

    @staticmethod
    def bad_forest_config(tmp_path, forest):
        path = tmp_path / "bad-forest.json"
        path.write_text('{"class_count": 2, "traces_per_class": 3, "duration_s": 6.0, '
                        f'"forest": {forest}}}')
        return str(path)

    @pytest.mark.parametrize("name", sorted(BAD_FOREST))
    def test_eval_rejects_bad_forest_config(self, tmp_path, capsys, name):
        field, forest = self.BAD_FOREST[name]
        assert main(["eval", "--config", self.bad_forest_config(tmp_path, forest),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "magspy: error:" in err and field in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("name", sorted(BAD_FOREST))
    def test_train_rejects_bad_forest_config(self, tmp_path, capsys, name):
        field, forest = self.BAD_FOREST[name]
        sim = tmp_path / "sim"
        main(["simulate", "--config", write_config(tmp_path, class_count=2,
                                                    traces_per_class=3),
              "--out", str(sim)])
        capsys.readouterr()
        assert main(["train", "--config", self.bad_forest_config(tmp_path, forest),
                     "--data", str(sim / "recordings.jsonl"),
                     "--out", str(tmp_path / "model")]) == 1
        err = capsys.readouterr().err
        assert "magspy: error:" in err and field in err
        assert not (tmp_path / "model" / "model.json").exists()

    @pytest.mark.parametrize("name", sorted(BAD_FOREST))
    def test_load_model_rejects_bad_forest_config(self, tmp_path, capsys, name):
        field, forest = self.BAD_FOREST[name]
        leaf = tree_doc([-1], [None], [-1], [-1], [[1, 0]])
        model = write_model_doc(tmp_path / "model.json", leaf)
        doc = model.read_text().replace('"config": {"n_estimators": 1}',
                                        f'"config": {forest}')
        assert forest in doc
        model.write_text(doc)
        with pytest.raises(ValueError, match=field):
            load_model(model)
        data = tmp_path / "data.jsonl"
        save_recordings([SensorRecording(
            "d", 100.0, np.random.default_rng(0).normal(50, 1, (300, 3)))], data)
        assert main(["classify", "--model", str(model), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert "magspy: error:" in err and field in err

    @pytest.mark.parametrize("field, value", [
        ("tolerance_s", "NaN"), ("tolerance_s", "-1.0"), ("window_s", "-1"),
        ("window_s", "0"), ("height_sigma", "Infinity"), ("prominence_sigma", "NaN"),
        ("min_width_s", "NaN"), ("duration_s", "NaN"), ("rate_hz", "0.0"),
        ("stream_s", "Infinity"), ("window_s", "true"), ("start_jitter_s", "NaN"),
        ("start_jitter_s", "true"), ("time_warp", "NaN"), ("level_jitter", "-5"),
        ("background_drift", "NaN"), ("motion_peak_rate", "NaN"), ("snr_db", "true"),
        ("motion_fraction", "true"), ("motion_fraction", "1.5"),
        ("rates", "[100.0, true]"), ("rates", "[100.0, NaN]"), ("rates", "[100.0, -1.0]"),
        ("rates", "[100.0, 0]"), ("gains", "[NaN]"), ("gains", "[-1.0]"),
        ("train_fraction", "1.5"), ("train_fraction", "1.0"), ("train_fraction", "0"),
        ("train_fraction", "true"), ("snr_db", "1e308"), ("noise_std", "1e308"),
        ("noise_std", '"1"'), ("distractor_count", "2"),
    ])
    def test_eval_rejects_bad_stream_float_before_rendering(self, tmp_path, capsys,
                                                             monkeypatch, field, value):
        def render(*args, **kwargs):
            raise AssertionError("rendered before the config was checked")

        monkeypatch.setattr("magspy.experiments.render_recording", render)
        path = tmp_path / "config.json"
        path.write_text('{"scenario": "continuous", "class_count": 2, '
                        f'"traces_per_class": 3, "{field}": {value}}}')
        assert main(["eval", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "magspy: error:" in err and field in err

    @pytest.mark.parametrize("profile", [None, '{"snr_db": 1e308}'],
                             ids=["config", "device-profile"])
    def test_overflowing_gain_names_snr_db_before_rendering(self, tmp_path, capsys,
                                                            monkeypatch, profile):
        # A closed world resolves its device only when it renders.
        def render(*args, **kwargs):
            raise AssertionError("rendered before the gain was checked")

        monkeypatch.setattr("magspy.experiments.render_recording", render)
        config = write_config(tmp_path, **({} if profile else {"snr_db": 1e308}))
        argv = ["eval", "--config", config, "--out", str(tmp_path / "out")]
        if profile:
            (tmp_path / "profile.json").write_text(profile)
            argv += ["--device-profile", str(tmp_path / "profile.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "magspy: error:" in err and "snr_db" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "simulate"])
    def test_unbounded_motion_rate_is_rejected_before_rendering(self, tmp_path, capsys,
                                                                monkeypatch, command):
        # It used to overflow while rendering, then fail in math.sin(inf).
        renders = []

        def render(*args, **kwargs):
            renders.append(args)
            raise AssertionError("rendered before the config was checked")

        monkeypatch.setattr("magspy.experiments.render_recording", render)
        config = write_config(tmp_path, scenario="movement", class_count=3,
                              traces_per_class=4, duration_s=2.0, motion_peak_rate=1e308)
        out_dir = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert "magspy: error:" in err and "motion_peak_rate" in err
        assert not renders
        assert not out_dir.exists()

    @pytest.mark.parametrize("doc", ["[]", '"x"'], ids=["list", "string"])
    @pytest.mark.parametrize("argv", [
        ["eval"], ["eval", "--seed", "3"], ["snr"], ["simulate", "--seed", "3"],
    ], ids=["eval", "eval-seed", "snr-scenario", "simulate-seed"])
    def test_non_object_config_is_validation_error(self, tmp_path, capsys, doc, argv):
        # The --seed and scenario overrides apply only to a config object.
        path = tmp_path / "config.json"
        path.write_text(doc)
        out_dir = tmp_path / "out"
        assert main([*argv, "--config", str(path), "--out", str(out_dir)]) == 1
        assert "magspy: error: config must be a JSON object" in capsys.readouterr().err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("command", [
        ["classify", "--model", "model.json", "--data", "recs.jsonl"],
        ["detect", "--pattern", "pattern.json", "--data", "recs.jsonl",
         "--min-height", "0", "--min-prominence", "0"],
    ], ids=["classify", "detect"])
    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--config", "config.json"]],
                             ids=["seed", "config"])
    def test_classify_and_detect_take_no_config_or_seed(self, capsys, command, flag):
        # Neither command reads a config, so neither flag would do anything.
        with pytest.raises(SystemExit) as exc:
            main(command + flag)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_train_rejects_ragged_label_before_writing(self, tmp_path, capsys):
        # One label's recordings last 6 s and 4 s, so no single activity
        # pattern can be averaged for it.
        recordings = []
        for duration in (6.0, 4.0):
            config = write_config(tmp_path, class_count=2, traces_per_class=3,
                                  duration_s=duration)
            sim = tmp_path / f"sim-{duration}"
            main(["simulate", "--config", config, "--out", str(sim)])
            recordings += load_recordings(sim / "recordings.jsonl")
        data = tmp_path / "ragged.jsonl"
        save_recordings(recordings, data)
        capsys.readouterr()
        out_dir = tmp_path / "model"
        assert main(["train", "--config", write_config(tmp_path), "--data",
                     str(data), "--out", str(out_dir)]) == 1
        assert "'class-000'" in capsys.readouterr().err
        assert not (out_dir / "model.json").exists()

    @pytest.mark.parametrize("label", ["a/b", "x\u0000y"], ids=["slash", "nul"])
    def test_train_rejects_label_unfit_for_a_file_name(self, tmp_path, capsys, label):
        # Each label names a pattern file, so a bad one must stop the run
        # before model.json is written.
        sim = tmp_path / "sim"
        main(["simulate", "--config", write_config(tmp_path, class_count=2,
                                                    traces_per_class=3),
              "--out", str(sim)])
        data = tmp_path / "data.jsonl"
        save_recordings([replace(rec, label=label) if rec.label == "class-001" else rec
                         for rec in load_recordings(sim / "recordings.jsonl")], data)
        capsys.readouterr()
        out_dir = tmp_path / "model"
        assert main(["train", "--config", write_config(tmp_path), "--data",
                     str(data), "--out", str(out_dir)]) == 1
        assert "magspy: error:" in capsys.readouterr().err
        assert not (out_dir / "model.json").exists()

    def test_unlabeled_training_data_rejected(self, tmp_path, capsys):
        from magspy.traces import SensorRecording, save_recordings
        recs = [SensorRecording("d", 100.0, np.random.default_rng(i).normal(50, 1, (300, 3)))
                for i in range(4)]
        data = tmp_path / "unlabeled.jsonl"
        save_recordings(recs, data)
        config = write_config(tmp_path)
        assert main(["train", "--config", config, "--data", str(data),
                     "--out", str(tmp_path / "m")]) == 1
