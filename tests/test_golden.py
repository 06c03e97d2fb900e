"""Byte-identity gate: pinned sha256 digests of small-scale outputs.

Speed-ups to training, featurizing or detection must leave every output
byte where it was. These digests pin three trained models, also after a
load and a save, ``magspy eval`` reports of every scenario, and the
outputs of one ``simulate -> train -> classify -> detect`` run at small
scale. A change that moves an output on purpose updates the digest here and
says why in the same change.
"""

import hashlib
import json

import pytest

from magspy.cli import main
from magspy.experiments import (ExperimentConfig, _render_class_traces,
                                _training_features)
from magspy.forest import ForestConfig, load_model, save_model, train_forest
from magspy.traces import Dataset


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def closed_world():
    """Training rows of a rendered 5-class x 8-trace closed world (80 rows)."""
    cfg = ExperimentConfig(class_count=5, traces_per_class=8, duration_s=6.0,
                           seed=3)
    class_ids = [f"class-{i:03d}" for i in range(cfg.class_count)]
    traces, labels, _ = _render_class_traces(
        cfg, class_ids, cfg.traces_per_class, cfg.resolved_profiles(), "cw")
    return Dataset.from_pairs(_training_features(traces, labels, 50))


_MODELS = pytest.mark.parametrize("config, digest", [
    (ForestConfig(n_estimators=10, seed=1),
     "aeaf7f1f97803598c6ca22d2ab21a54d4a89b018bf9fe5f42e0abf295c949080"),
    (ForestConfig(n_estimators=10, max_features="sqrt", max_depth=10,
                  min_impurity_decrease=0.0, seed=2),
     "ba164214f6ddb19ceff4d93429d419b7eab6e7eb4fcb947da8f3d9c4e6c8562f"),
    (ForestConfig(n_estimators=2, max_features="all", bootstrap=False, seed=3),
     "fce4d170bfee6374b2c07a1e0686bfff20f348a5eaf6eec7915e465c070232ce"),
], ids=["log2-bootstrap", "sqrt-depth10-no-min-decrease", "all-no-bootstrap"])


@_MODELS
def test_model_bytes(tmp_path, closed_world, config, digest):
    save_model(train_forest(closed_world, config), tmp_path / "model.json")
    assert sha256(tmp_path / "model.json") == digest


@_MODELS
def test_model_round_trip_bytes(tmp_path, closed_world, config, digest):
    # load_model joins the document's trees into one node table and
    # save_model writes them back from the per-tree views.
    save_model(train_forest(closed_world, config), tmp_path / "trained.json")
    save_model(load_model(tmp_path / "trained.json"), tmp_path / "model.json")
    assert sha256(tmp_path / "model.json") == digest


_SMALL_WORLD = {"class_count": 5, "traces_per_class": 12, "duration_s": 6.0,
                "forest": {"n_estimators": 60}}
_GRID = [{"n_estimators": 20, "max_depth": 5},
         {"n_estimators": 30, "max_features": "sqrt"}]


@pytest.mark.parametrize("doc, digest", [
    (_SMALL_WORLD,
     "0d084e602146c121e2ff5f387d5b71601cb9bc8257cc2504ffca9efd3e1ae508"),
    ({**_SMALL_WORLD, "scenario": "continuous", "stream_count": 6,
      "stream_s": 30.0, "window_s": 6.0},
     "553e30edb619aebaa3dc0833b47548478c6facf2675a56c96cd771c460ea8305"),
    ({**_SMALL_WORLD, "scenario": "movement"},
     "86bf27acbd1cf7611d1b903f5a5ca4812bb1b738adc30afcdebe9a7d0d4d4d24"),
    ({**_SMALL_WORLD, "scenario": "movement",
      "device_profiles": [{"snr_db": 12.0}, {"snr_db": 15.0}]},
     "8ea29dff13209ab686abfeda040869f7f94a8c3b45427ce42fe8c46d65066cf4"),
    ({**_SMALL_WORLD, "scenario": "sweep"},
     "f2daf4ea029860970e189c9aab246406bedfac89a9a1533a0c1b990c656ef2e0"),
    ({**_SMALL_WORLD, "scenario": "open-world", "monitored_count": 3,
      "unmonitored_train_count": 4, "background_count": 10},
     "72c426e832fdacaf916cd90133879b72597d6d4de0f3c8436f227c45990c1097"),
    ({**_SMALL_WORLD, "device_profiles": [{"snr_db": 12.0}, {"snr_db": 15.0}]},
     "9e9b2e2719b3ef694b2d1a663ab5774d734919b69427fb7d552cac39ac41ba0f"),
    ({**_SMALL_WORLD, "scenario": "snr"},
     "e075959fb387c0ae4049b7b405ebdba909dec8a2c184218c4108d98c89c101f8"),
    ({**_SMALL_WORLD, "grid": _GRID},
     "ba9a4c105dcdad4b6faf93159c3b1b059f70d3fbf599c64025ca9424348cf717"),
    ({**_SMALL_WORLD, "scenario": "open-world", "monitored_count": 3,
      "unmonitored_train_count": 4, "background_count": 10, "grid": _GRID},
     "a1e5844fb044a53186e876b3f0c9c25b0429949b4d96827628539f770775e955"),
], ids=["closed-world", "continuous", "movement", "movement-two-devices", "sweep",
        "open-world", "closed-world-two-devices", "snr", "closed-world-grid",
        "open-world-grid"])
def test_eval_report_bytes(tmp_path, capsys, doc, digest):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert sha256(tmp_path / "out" / "report.json") == digest


def _cli_config(tmp_path, name, **overrides):
    doc = {"class_count": 3, "traces_per_class": 8, "duration_s": 6.0,
           "forest": {"n_estimators": 40, "max_depth": 20, "seed": 0}, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("script, digest", [
    (None,
     "dbc90dbf25fff49fc08c65b7f0571cd45aec16c9be0dd99a33c820795bbda9a1"),
    ({"rotation_events": [{"start_index": 50, "duration_samples": 100,
                           "peak_rate_rad_s": 2.0, "axis": [0.0, 0.6, 0.8]}]},
     "9bcb57822729c7fddf052d6f80c2a36883f37014a02d3cc8ea5ca670ffe8ab20"),
], ids=["plain", "motion-script"])
def test_simulate_bytes(tmp_path, capsys, script, digest):
    argv = ["simulate", "--config", _cli_config(tmp_path, "config.json"),
            "--out", str(tmp_path / "sim")]
    if script is not None:
        (tmp_path / "motion.json").write_text(json.dumps(script))
        argv += ["--motion-script", str(tmp_path / "motion.json")]
    assert main(argv) == 0
    assert sha256(tmp_path / "sim" / "recordings.jsonl") == digest


def test_classify_and_detect_bytes(tmp_path, capsys):
    # simulate -> train -> classify held-out recordings -> detect --model
    # --truth on 20 s streams: pins the float-sensitive probabilities and
    # detection scores as well as the model.
    config = _cli_config(tmp_path, "config.json")
    streams = _cli_config(tmp_path, "streams.json", class_count=2,
                          traces_per_class=2, duration_s=20.0)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "sim")]) == 0
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "held"),
                 "--seed", "5"]) == 0
    assert main(["simulate", "--config", streams, "--out",
                 str(tmp_path / "streams"), "--seed", "7"]) == 0
    model = tmp_path / "model"
    assert main(["train", "--config", config, "--data",
                 str(tmp_path / "sim" / "recordings.jsonl"), "--out", str(model)]) == 0
    assert main(["classify", "--model", str(model / "model.json"), "--data",
                 str(tmp_path / "held" / "recordings.jsonl"),
                 "--out", str(tmp_path / "pred")]) == 0
    truth = tmp_path / "truth.jsonl"
    truth.write_text("".join(json.dumps(row) + "\n" for row in (
        {"stream": 0, "time_s": 0.0, "label": "class-000"},
        {"stream": 2, "time_s": 0.5, "label": "class-001"})))
    assert main(["detect", "--pattern", str(model / "pattern_class-000.json"),
                 "--data", str(tmp_path / "streams" / "recordings.jsonl"),
                 "--model", str(model / "model.json"), "--min-height", "0",
                 "--min-prominence", "0.5", "--window-s", "6", "--truth", str(truth),
                 "--out", str(tmp_path / "det")]) == 0
    digests = {name: sha256(tmp_path / name) for name in (
        "model/model.json", "pred/predictions.jsonl", "pred/report.json",
        "det/detections.jsonl", "det/scores.json")}
    assert digests == {
        "model/model.json":
            "d439be622bad1e4afeacd3693ca248438d9dac883bd9a25276a541cfb8aad32e",
        "pred/predictions.jsonl":
            "d338e49803a6e3ad017c1195631016f8b4ffd893e1106f881af8453c67682a2c",
        "pred/report.json":
            "d9bf746abb2e8fa8c1b1b0c10c1606af5cd77029dbfb8ea35a99198fef8123d6",
        "det/detections.jsonl":
            "c2a66024566219154d40fd32471a7561689af51d12b245b5acfa09b2e4277b8c",
        "det/scores.json":
            "c7d28aadcd16e4c9aba834b1e4d291d0077b538b1cfce541659f871d11f15854",
    }
