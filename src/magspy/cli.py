"""Command-line entry point.

Subcommands: simulate, train, classify, detect, eval, snr, sweep.
Exit codes: 0 success, 1 validation error (bad arguments, configs, or input
files), 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import detect as _detect
from .experiments import (ExperimentConfig, _child_seed, _class_ids, _fit,
                          _render_items, run_scenario, write_report)
from .forest import _predict_labels, load_model, save_model
from .metrics import evaluate, format_report_text
from .preprocess import preprocess_recording
from .simulate import load_device_profile, load_motion_script, render_recording
from .traces import (_check_count, _check_real, _from_dict, _json_lines,
                     _json_object, _read_recordings, save_recordings)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1 for
    # every validation failure.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(path: str, seed: int | None, profile_path: str | None,
                 scenario: str | None = None) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8") if path else "{}"
    obj = _json_object(json.loads(text), "config")
    obj.update((k, v) for k, v in (("scenario", scenario), ("seed", seed))
               if v is not None)
    cfg = ExperimentConfig.from_dict(obj)
    if profile_path:
        cfg = replace(cfg, device_profiles=(load_device_profile(profile_path),))
    return cfg


def _cmd_simulate(args) -> int:
    if not args.out:
        raise ValueError("simulate requires --out")
    cfg = _load_config(args.config, args.seed, args.device_profile)
    script = load_motion_script(args.motion_script) if args.motion_script else None
    profiles = cfg.resolved_profiles()
    class_ids = _class_ids("class", cfg.class_count)
    recordings = []
    for i, (label, p_idx, pattern, rec) in enumerate(_render_items(
            cfg, class_ids, cfg.traces_per_class, profiles, "cw")):
        if script is not None:
            rec = render_recording(pattern, profiles[p_idx], motion=script,
                                   seed=_child_seed(cfg.seed, "motion-script", i),
                                   device_id=f"device-{p_idx}", label=label)
        recordings.append(rec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_recordings(recordings, out / "recordings.jsonl")
    print(f"wrote {len(recordings)} recordings to {out / 'recordings.jsonl'}")
    return 0


def _read_traces(path, rate) -> tuple[list, list, list]:
    """(traces, device ids, labels) of the recordings in ``path``. Each
    recording is reduced as soon as it is read, then dropped."""
    traces, device_ids, labels = [], [], []
    for rec in _read_recordings(path):
        traces.append(preprocess_recording(rec, rate))
        device_ids.append(rec.device_id)
        labels.append(rec.label)
    return traces, device_ids, labels


def _cmd_train(args) -> int:
    if not args.out:
        raise ValueError("train requires --out")
    traces, _, labels = _read_traces(args.data, args.rate)
    if None in labels:
        raise ValueError("training recordings must all carry labels")
    class_names = tuple(dict.fromkeys(labels))
    for label in class_names:  # each label names a pattern file
        if any(sep and sep in label for sep in ("/", os.sep, os.altsep, "\0")):
            raise ValueError(f"label {label!r} cannot be part of a file name")
    cfg = _load_config(args.config, args.seed, None)
    patterns = [_detect.average_pattern(
        [t for t, t_label in zip(traces, labels) if t_label == label], label)
        for label in sorted(class_names)]
    model, _ = _fit(cfg, traces, labels, class_names)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.json")
    for pattern in patterns:
        _detect.save_pattern(pattern, out / f"pattern_{pattern.class_label}.json")
    print(f"wrote model and {len(class_names)} patterns to {out}")
    return 0


def _cmd_classify(args) -> int:
    model = load_model(args.model)
    traces, device_ids, labels = _read_traces(args.data, args.rate)
    predicted, probability = _predict_labels(model, traces)
    lines = []
    pairs = []
    for device_id, truth, label, prob in zip(device_ids, labels, predicted, probability):
        lines.append(json.dumps({
            "device_id": device_id,
            "label": truth,
            "predicted": label,
            "probability": prob,
        }, separators=(",", ":")))
        if truth is not None:
            pairs.append((truth, label))
    output = "".join(line + "\n" for line in lines)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "predictions.jsonl").write_text(output, encoding="utf-8")
        if pairs and all(t in model.class_names for t, _ in pairs):
            report = evaluate(pairs, model.class_names)
            write_report(out, {"report": report.to_dict()},
                         format_report_text(report))
    else:
        sys.stdout.write(output)
    return 0


@dataclass(frozen=True)
class _TruthLine:
    """One truth event: its time, label and 0-based recording (stream) index."""

    time_s: float
    label: str = ""
    stream: int = 0

    def __post_init__(self):
        _check_real("time_s", self.time_s)
        _check_count("stream", self.stream)
        if type(self.label) is not str:
            raise ValueError(f"label must be a string, not {self.label!r}")


def _read_truth(path, rates) -> list[list[tuple[int, str]]]:
    """Truth events per stream as (sample index, label) lists, one per recording."""
    def event(obj):
        line = _from_dict(_TruthLine, obj, "truth line")
        if not 0 <= line.stream < len(rates):
            raise ValueError(f"stream must be an integer index below the "
                             f"{len(rates)} recordings")
        return line.stream, (int(round(line.time_s * rates[line.stream])), line.label)

    truth = [[] for _ in rates]
    for stream, item in _json_lines(path, event):
        truth[stream].append(item)
    return truth


def _cmd_detect(args) -> int:
    pattern = _detect.load_pattern(args.pattern)
    model = load_model(args.model) if args.model else None
    thresholds = _detect.PeakThresholds(args.min_height, args.min_prominence,
                                        args.min_width)
    streams, _, _ = _read_traces(args.data, None)
    truth = (_read_truth(args.truth, [stream.rate_hz for stream in streams])
             if args.truth else None)
    lines = []
    per_stream = []
    for index, stream in enumerate(streams):
        series = _detect.cross_correlate(stream, pattern)
        detections = _detect.detect_and_classify(stream, series, thresholds, model,
                                                 args.window_s)
        per_stream.append(detections)
        for det in detections:
            lines.append(json.dumps({
                "time_s": det.time_index / stream.rate_hz,
                "score": det.score,
                "label": det.predicted_label,
                "stream": index,
            }, separators=(",", ":")))
    output = "".join(line + "\n" for line in lines)
    scores = None
    if truth is not None:
        counts = [_detect.score_detections(dets, events, args.tolerance_s,
                                           stream.rate_hz)
                  for dets, events, stream in zip(per_stream, truth, streams)]
        scores = {name: sum(getattr(c, name) for c in counts)
                  for name in ("tp", "fp", "fn")}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "detections.jsonl").write_text(output, encoding="utf-8")
        if scores is not None:
            (out / "scores.json").write_text(
                json.dumps(scores, sort_keys=True) + "\n", encoding="utf-8")
    else:
        sys.stdout.write(output)
        if scores is not None:
            print(f"tp={scores['tp']} fp={scores['fp']} fn={scores['fn']}",
                  file=sys.stderr)
    return 0


def _cmd_eval(args, scenario: str | None = None) -> int:
    cfg = _load_config(args.config, args.seed, args.device_profile, scenario)
    overrides = {name: value for name in ("mean_threshold", "max_threshold")
                 if (value := getattr(args, f"motion_{name}", None)) is not None}
    if overrides:
        cfg = replace(cfg, motion_thresholds=replace(cfg.motion_thresholds, **overrides))
    payload, text = run_scenario(cfg)
    if args.out:
        write_report(args.out, payload, text)
        print(f"wrote report to {Path(args.out) / 'report.json'}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="magspy",
                     description="Magnetometer side-channel fingerprinting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=False):
        p.add_argument("--config", required=config_required,
                       help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="ignored; kept so existing command lines still parse")

    p = sub.add_parser("simulate", help="render a labeled synthetic dataset")
    common(p)
    p.add_argument("--device-profile", default=None, help="device profile JSON")
    p.add_argument("--motion-script", default=None,
                   help="apply this motion script JSON to every recording")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train a forest on labeled recordings")
    common(p)
    p.add_argument("--data", required=True, help="recordings JSONL")
    p.add_argument("--rate", type=float, default=None,
                   help="resample traces to this rate before features")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="classify recordings with a trained model")
    common(p)
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, help="recordings JSONL")
    p.add_argument("--rate", type=float, default=None,
                   help="resample traces to this rate before features")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("detect", help="scan streams for an activity pattern")
    common(p)
    p.add_argument("--pattern", required=True, help="activity pattern JSON")
    p.add_argument("--data", required=True, help="stream recordings JSONL")
    p.add_argument("--model", default=None, help="classify at peaks with this model")
    p.add_argument("--min-height", type=float, required=True)
    p.add_argument("--min-prominence", type=float, required=True)
    p.add_argument("--min-width", type=int, default=1)
    p.add_argument("--window-s", type=float, default=12.0)
    p.add_argument("--tolerance-s", type=float, default=1.0)
    p.add_argument("--truth", default=None,
                   help="truth events JSONL (time_s, label, stream) to score "
                        "against; stream is the 0-based recording index, default 0")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="run the scenario configured in --config")
    common(p, config_required=True)
    p.add_argument("--device-profile", default=None, help="device profile JSON")
    p.add_argument("--motion-mean-threshold", type=float, default=None)
    p.add_argument("--motion-max-threshold", type=float, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("snr", help="device SNR calibration table")
    common(p)
    p.add_argument("--device-profile", default=None, help="device profile JSON")
    p.set_defaults(func=lambda a: _cmd_eval(a, scenario="snr"))

    p = sub.add_parser("sweep", help="sampling-rate sweep")
    common(p)
    p.add_argument("--device-profile", default=None, help="device profile JSON")
    p.set_defaults(func=lambda a: _cmd_eval(a, scenario="sweep"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"magspy: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - contract: runtime errors exit 2
        print(f"magspy: runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
