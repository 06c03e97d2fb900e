"""Byte-identity gate: pinned sha256 digests of small-scale outputs.

Speed-ups to training, featurizing or detection must leave every output
byte where it was. These digests pin three trained models and two
``magspy eval`` reports at small scale. A change that moves an output on
purpose updates the digest here and says why in the same change.
"""

import hashlib
import json

import pytest

from magspy.cli import main
from magspy.experiments import (ExperimentConfig, _render_class_traces,
                                _training_features)
from magspy.forest import ForestConfig, save_model, train_forest
from magspy.traces import Dataset


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def closed_world():
    """Training rows of a rendered 5-class x 8-trace closed world (80 rows)."""
    cfg = ExperimentConfig(class_count=5, traces_per_class=8, duration_s=6.0,
                           seed=3)
    class_ids = [f"class-{i:03d}" for i in range(cfg.class_count)]
    _, traces, _, labels, _ = _render_class_traces(
        cfg, class_ids, cfg.traces_per_class, cfg.resolved_profiles(), "cw")
    return Dataset.from_pairs(_training_features(traces, labels, 50))


@pytest.mark.parametrize("config, digest", [
    (ForestConfig(n_estimators=10, seed=1),
     "aeaf7f1f97803598c6ca22d2ab21a54d4a89b018bf9fe5f42e0abf295c949080"),
    (ForestConfig(n_estimators=10, max_features="sqrt", max_depth=10,
                  min_impurity_decrease=0.0, seed=2),
     "ba164214f6ddb19ceff4d93429d419b7eab6e7eb4fcb947da8f3d9c4e6c8562f"),
    (ForestConfig(n_estimators=2, max_features="all", bootstrap=False, seed=3),
     "fce4d170bfee6374b2c07a1e0686bfff20f348a5eaf6eec7915e465c070232ce"),
], ids=["log2-bootstrap", "sqrt-depth10-no-min-decrease", "all-no-bootstrap"])
def test_model_bytes(tmp_path, closed_world, config, digest):
    save_model(train_forest(closed_world, config), tmp_path / "model.json")
    assert sha256(tmp_path / "model.json") == digest


_SMALL_WORLD = {"class_count": 5, "traces_per_class": 12, "duration_s": 6.0,
                "forest": {"n_estimators": 60}}


@pytest.mark.parametrize("doc, digest", [
    (_SMALL_WORLD,
     "0d084e602146c121e2ff5f387d5b71601cb9bc8257cc2504ffca9efd3e1ae508"),
    ({**_SMALL_WORLD, "scenario": "continuous", "stream_count": 6,
      "stream_s": 30.0, "window_s": 6.0},
     "553e30edb619aebaa3dc0833b47548478c6facf2675a56c96cd771c460ea8305"),
], ids=["closed-world", "continuous"])
def test_eval_report_bytes(tmp_path, capsys, doc, digest):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert sha256(tmp_path / "out" / "report.json") == digest
