"""Per-layer metrics computed from recorded spans.

A trace is the JSON a traced command writes (see ``tracer.py``): a list of
spans ``[name, start, end, parent]`` plus per-span notes. Several traces
(set-up commands, in-process set-up, the timed command) add up to one set
of per-layer numbers.
"""

from __future__ import annotations

from collections import defaultdict

# Busy time: summed duration of the spans with these names.
_BUSY = {
    "forest.train_s": ("forest.train_forest",),
    "forest.predict_s": ("forest.predict_many",),
    "forest.featurize_s": ("forest.extract_features",),
    "forest.load_model_s": ("forest.load_model",),
    "forest.save_model_s": ("forest.save_model",),
    "traces.load_s": ("traces.load_recordings",),
    "traces.save_s": ("traces.save_recordings",),
    "detect.correlate_s": ("detect.cross_correlate",),
    "detect.find_peaks_s": ("detect.find_peaks",),
    "simulate.render_s": ("simulate.render_recording",),
    "simulate.pattern_s": ("simulate.make_class_signature",
                           "simulate.perturb_pattern"),
    "preprocess.reduce_s": ("preprocess.preprocess_recording",),
    "metrics.evaluate_s": ("metrics.evaluate",),
}
# Work done: number of spans with this name.
_CALLS = {
    "forest.vectors": "forest.extract_features",
    "forest.predict_calls": "forest.predict_many",
    "simulate.recordings": "simulate.render_recording",
    "preprocess.traces": "preprocess.preprocess_recording",
}
# Self time: span duration minus the time its child spans cover.
_SELF = {"experiments.self_s": "experiments.", "cli.self_s": "cli."}

#: name -> (unit, better), in output order.
PER_LAYER = {
    "forest.train_s": ("s", "lower"),
    "forest.trees": ("count", "lower"),
    "forest.nodes": ("count", "lower"),
    "forest.max_depth": ("count", "lower"),
    "forest.predict_s": ("s", "lower"),
    "forest.predict_calls": ("count", "lower"),
    "forest.rows_per_predict_call": ("rows/call", "higher"),
    "forest.featurize_s": ("s", "lower"),
    "forest.vectors": ("count", "lower"),
    "forest.load_model_s": ("s", "lower"),
    "forest.save_model_s": ("s", "lower"),
    "traces.load_s": ("s", "lower"),
    "traces.save_s": ("s", "lower"),
    "traces.bytes": ("bytes", "lower"),
    "detect.correlate_s": ("s", "lower"),
    "detect.correlations_per_stream": ("calls/stream", "lower"),
    "detect.find_peaks_s": ("s", "lower"),
    "detect.peaks_accepted": ("count", "lower"),
    "detect.windows_classified": ("count", "lower"),
    "detect.classify_at_peaks_s": ("s", "lower"),
    "simulate.render_s": ("s", "lower"),
    "simulate.pattern_s": ("s", "lower"),
    "simulate.recordings": ("count", "lower"),
    "preprocess.reduce_s": ("s", "lower"),
    "preprocess.traces": ("count", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "traced.run_s": ("s", "lower"),
}


_BUSY_OF = {n: metric for metric, names in _BUSY.items() for n in names}
_CALLS_OF = {n: metric for metric, n in _CALLS.items()}


def layer_metrics(traces) -> dict[str, float]:
    """Every per-layer metric except ``traced.run_s``, summed over the traces."""
    total: dict[str, float] = defaultdict(float)
    rows = streams = correlations = 0
    max_depth = 0
    for trace in traces:
        spans = trace["spans"]
        notes = {int(k): v for k, v in trace["notes"].items()}
        child_time = defaultdict(float)
        scan_time = defaultdict(float)
        for name, start, end, parent in spans:
            child_time[parent] += end - start
            if name in ("detect.cross_correlate", "detect.find_peaks"):
                scan_time[parent] += end - start
        for sid, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            if name in _BUSY_OF:
                total[_BUSY_OF[name]] += duration
            if name in _CALLS_OF:
                total[_CALLS_OF[name]] += 1
            for metric, prefix in _SELF.items():
                if name.startswith(prefix):
                    total[metric] += duration - child_time[sid]
            note = notes.get(sid, {})
            if name == "forest.train_forest":
                total["forest.trees"] += note["trees"]
                total["forest.nodes"] += note["nodes"]
                max_depth = max(max_depth, note["max_depth"])
            elif name == "forest.predict_many":
                rows += note["rows"]
                if _has_ancestor(spans, sid, "detect.detect_and_classify"):
                    total["detect.windows_classified"] += note["rows"]
            elif name == "detect.detect_and_classify":
                streams += 1
                total["detect.classify_at_peaks_s"] += duration - scan_time[sid]
            elif name == "detect.find_peaks":
                total["detect.peaks_accepted"] += note["accepted"]
            elif name == "detect.cross_correlate":
                correlations += 1
            elif name.startswith("traces."):
                total["traces.bytes"] += note["bytes"]
    total["forest.max_depth"] = max_depth
    calls = total["forest.predict_calls"]
    total["forest.rows_per_predict_call"] = rows / calls if calls else 0.0
    total["detect.correlations_per_stream"] = (correlations / streams
                                               if streams else 0.0)
    return {name: float(total[name]) for name in PER_LAYER if name != "traced.run_s"}


def _has_ancestor(spans, sid: int, name: str) -> bool:
    parent = spans[sid][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
