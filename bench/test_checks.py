"""Tests of the benchmark itself: every output check must be able to fail.

    python3 -m pytest -q bench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import magspy as m  # noqa: E402
from magspy.detect import _local_maxima, _prominences  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(scope="module")
def forest():
    """A small trained model, its plain-list trees, and rows to predict."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 5))
    labels = ["a" if row[0] + row[1] > 0 else "b" for row in x]
    data = m.Dataset.from_pairs(
        [(m.FeatureVector(row, label), label) for row, label in zip(x, labels)])
    model = m.train_forest(data, m.ForestConfig(n_estimators=7, seed=3))
    trees = [{"feature": t.feature.tolist(), "threshold": t.threshold.tolist(),
              "left": t.left.tolist(), "right": t.right.tolist(),
              "counts": t.counts.tolist()} for t in model.trees]
    rows = rng.normal(size=(25, 5))
    codes, _ = m.predict_many(model, rows)
    return model, trees, rows.tolist(), codes.tolist(), len(data)


def _report(matrix):
    total = sum(map(sum, matrix))
    return {"class_names": ["a", "b"], "confusion_matrix": matrix,
            "n_items": total, "accuracy": (matrix[0][0] + matrix[1][1]) / total}


class TestClosedWorldChecks:
    def test_held_out_count_follows_round_half_up(self):
        assert checks.held_out_per_class(40, 0.8) == 8
        assert checks.held_out_per_class(5, 0.5) == 2  # 2.5 rounds up to train

    def test_confusion_rows(self):
        assert checks.check_confusion_rows(_report([[7, 1], [2, 6]]), ["a", "b"], 8) == []
        assert checks.check_confusion_rows(_report([[7, 2], [2, 6]]), ["a", "b"], 8)
        # Right total, wrong rows.
        assert checks.check_confusion_rows(_report([[7, 2], [1, 6]]), ["a", "b"], 8)
        bad = _report([[7, 1], [2, 6]])
        bad["accuracy"] = 0.9
        assert checks.check_confusion_rows(bad, ["a", "b"], 8)

    def test_accuracy_floor(self):
        assert checks.check_at_least("acc", 0.9, 0.9) == []
        assert checks.check_at_least("acc", 0.89, 0.9)
        assert checks.check_at_least("acc", None, 0.9)

    def test_leaf_counts(self, forest):
        _, trees, _, _, n_rows = forest
        assert checks.check_leaf_counts(trees, n_rows) == []
        altered = json.loads(json.dumps(trees))
        leaf = altered[2]["feature"].index(-1)
        altered[2]["counts"][leaf][0] += 1
        assert checks.check_leaf_counts(altered, n_rows)

    def test_walk_matches_predict_many(self, forest):
        _, trees, rows, codes, _ = forest
        assert checks.check_walk_matches(trees, rows, codes) == []
        flipped = [1 - c for c in codes]
        assert len(checks.check_walk_matches(trees, rows, flipped)) == len(codes)
        assert checks.check_walk_matches(trees, rows[1:], codes)

    def test_walk_raises_on_a_self_loop(self):
        tree = {"feature": [0, -1], "threshold": [0.5, None], "left": [0, -1],
                "right": [1, -1], "counts": [None, [1, 0]]}
        with pytest.raises(ValueError):
            checks.walk_tree(tree, [0.0])
        with pytest.raises(ValueError):
            checks.tree_depth(tree)


class TestContinuousChecks:
    GOOD = {"detection_recall": 0.95, "classify_accuracy": 0.9,
            "closed_world_accuracy": 0.85, "tp": 95, "fn": 5}

    def test_result(self):
        assert checks.check_continuous(self.GOOD, 100, 0.7, 0.15) == []
        for change in ({"detection_recall": 0.6}, {"classify_accuracy": 0.69},
                       {"classify_accuracy": None}, {"fn": 4}):
            assert checks.check_continuous({**self.GOOD, **change}, 100, 0.7, 0.15)

    def test_fake_peak_below_height(self):
        values = np.array([0.0, 3.0, 0.0, 1.0, 0.0])
        assert checks.check_peak_heights(values, [1], 2.0) == []
        assert checks.check_peak_heights(values, [1, 3], 2.0)

    def test_prominences_match_scipy(self):
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(1)
        values = np.cumsum(rng.normal(size=400))
        assert checks.tie_free(values)
        peaks = _local_maxima(values)
        prominence = _prominences(values, peaks)
        accepted = [p for p in peaks if prominence[p] >= 2.0]
        assert accepted
        ok = checks.check_prominences(values, accepted, prominence, 2.0,
                                      signal.peak_prominences)
        assert ok == []
        wrong = dict(prominence)
        wrong[accepted[0]] += 1e-3
        assert checks.check_prominences(values, accepted, wrong, 2.0,
                                        signal.peak_prominences)
        low = [p for p in peaks if prominence[p] < 2.0][:1]
        assert checks.check_prominences(values, low, prominence, 2.0,
                                        signal.peak_prominences)

    def test_tie_free(self):
        assert not checks.tie_free(np.array([1.0, 2.0, 1.0]))


class TestClassifyChecks:
    def test_predictions(self, forest):
        _, trees, rows, _, _ = forest
        probs = [checks.walk_forest(trees, row) for row in rows]
        names = ["a", "b"]
        truth = ["a"] * len(rows)
        devices = [f"d{i}" for i in range(len(rows))]
        lines = [json.dumps({"device_id": d, "label": t,
                             "predicted": names[checks.argmax(p)],
                             "probability": max(p)})
                 for d, t, p in zip(devices, truth, probs)]
        assert checks.check_predictions(lines, truth, devices, names, probs) == []
        shifted = lines[1:] + lines[:1]
        assert checks.check_predictions(shifted, truth, devices, names, probs)
        assert checks.check_predictions(lines[:-1], truth, devices, names, probs)
        renamed = json.loads(lines[3])
        renamed["device_id"] = "other"
        assert checks.check_predictions(lines[:3] + [json.dumps(renamed)] + lines[4:],
                                        truth, devices, names, probs)
        wrong = json.loads(lines[0])
        wrong["predicted"] = "b" if wrong["predicted"] == "a" else "a"
        assert checks.check_predictions([json.dumps(wrong)] + lines[1:], truth,
                                        devices, names, probs)
        assert checks.accuracy(lines, truth) == sum(
            names[checks.argmax(p)] == "a" for p in probs) / len(rows)

    def test_same_bytes(self):
        assert checks.check_same_bytes("report.json", b"x", b"x") == []
        assert checks.check_same_bytes("report.json", b"x", b"y")


class TestTracing:
    def test_spans_and_layer_metrics(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "class_count": 3, "traces_per_class": 6, "duration_s": 4.0,
            "forest": {"n_estimators": 3, "seed": 0}}))
        recorder = tracer.Recorder()
        recorder.install()
        try:
            assert m.cli.main(["eval", "--config", str(config),
                               "--out", str(tmp_path / "out")]) == 0
        finally:
            recorder.uninstall()
        assert m.train_forest.__name__ == "train_forest"
        assert not hasattr(m.train_forest, "__wrapped__")
        assert recorder.check_and_summarize() == []
        names = {span[0] for span in recorder.spans}
        assert {"cli.main", "experiments.run_scenario", "forest.train_forest",
                "forest.predict_many", "simulate.render_recording"} <= names
        for name, start, end, parent in recorder.spans:
            assert start <= end
            if parent >= 0:
                p = recorder.spans[parent]
                assert p[1] <= start and end <= p[2]
        metrics = layers.layer_metrics([json.loads(json.dumps(recorder.dump({})))])
        assert set(metrics) == set(layers.PER_LAYER) - {"traced.run_s"}
        assert metrics["forest.trees"] == 3
        assert metrics["simulate.recordings"] == 18
        assert metrics["forest.rows_per_predict_call"] == 3  # one test row per class
        assert metrics["cli.self_s"] >= 0 and metrics["experiments.self_s"] >= 0

    def test_self_time(self):
        spans = [["cli.main", 0.0, 10.0, -1],
                 ["experiments.run_scenario", 1.0, 9.0, 0],
                 ["forest.train_forest", 2.0, 7.0, 1]]
        notes = {"2": {"rows": 4, "trees": 1, "nodes": 3, "max_depth": 1}}
        metrics = layers.layer_metrics([{"spans": spans, "notes": notes}])
        assert metrics["cli.self_s"] == 2.0
        assert metrics["experiments.self_s"] == 3.0
        assert metrics["forest.train_s"] == 5.0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == run.END_TO_END
    assert {p["name"]: (p["unit"], p["better"]) for p in spec["per_layer"]} == \
        layers.PER_LAYER


def test_fails_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "closed-world",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
