"""Span recorder around magspy's public functions, installed from outside the package.

Each wrapped call records a span ``[name, start, end, parent]`` with
``time.perf_counter`` (CLOCK_MONOTONIC, shared by every process on the
host) plus a few counts taken at the same boundary. Nothing in ``src/`` is
changed: the recorder replaces the function objects in every loaded
``magspy`` module namespace, so calls through ``from .forest import ...``
bindings are caught too.

Run as a script it executes one magspy command under the recorder::

    python3 bench/tracer.py OUT.json eval --config c.json --out d

and writes the spans, their counts and the result of the trace-only output
checks (leaf counts, tree walks, peak heights and prominences) to OUT.json.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import checks

# Layer (module) -> public functions timed as spans. ``detect._prominences``
# is wrapped only so the prominence check can read the program's values.
WRAPPED = {
    "simulate": ("make_class_signature", "perturb_pattern", "render_recording"),
    "preprocess": ("preprocess_recording",),
    "forest": ("extract_features", "train_forest", "predict_many", "load_model",
               "save_model"),
    "traces": ("load_recordings", "save_recordings"),
    "detect": ("cross_correlate", "find_peaks", "_prominences",
               "detect_and_classify"),
    "metrics": ("evaluate",),
    "experiments": ("run_scenario", "run_closed_world", "run_continuous",
                    "write_report"),
    "cli": ("main",),
}


class Recorder:
    """Keeps spans in memory; ``notes`` holds per-span counts and captures."""

    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = getattr(self, "_note_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                self.notes[sid] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import magspy
        import magspy.cli  # noqa: F401  (not imported by the package)
        replacements = {}
        for layer, names in WRAPPED.items():
            module = sys.modules[f"magspy.{layer}"]
            for name in names:
                fn = getattr(module, name)
                replacements[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        modules = [magspy] + [m for key, m in sys.modules.items()
                              if key.startswith("magspy.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- counts and captures, taken after the span has closed ---------------

    def _note_forest_train_forest(self, args, kwargs, model):
        return {"rows": len(args[0]), "model": model}

    def _note_forest_predict_many(self, args, kwargs, result):
        return {"rows": result[0].size, "model": args[0], "x": args[1],
                "codes": result[0]}

    def _note_traces_load_recordings(self, args, kwargs, result):
        return {"bytes": os.path.getsize(args[0])}

    def _note_traces_save_recordings(self, args, kwargs, result):
        return {"bytes": os.path.getsize(args[1])}

    def _note_detect_find_peaks(self, args, kwargs, accepted):
        return {"accepted": len(accepted), "series": args[0].values,
                "thresholds": args[1], "peaks": list(accepted)}

    def _note_detect__prominences(self, args, kwargs, prominences):
        return {"prominences": prominences}

    # -- after the command --------------------------------------------------

    def check_and_summarize(self) -> list[str]:
        """Run the trace-only checks; replace captures by JSON-able counts."""
        problems: list[str] = []
        plain = {}

        def plain_trees(model):
            if id(model) not in plain:
                plain[id(model)] = [
                    {"feature": t.feature.tolist(), "threshold": t.threshold.tolist(),
                     "left": t.left.tolist(), "right": t.right.tolist(),
                     "counts": t.counts.tolist()}
                    for t in model.trees]
            return plain[id(model)]

        try:
            from scipy.signal import peak_prominences
        except ImportError:
            peak_prominences = None
        prominence_of = {self.spans[sid][3]: note["prominences"]
                         for sid, note in self.notes.items()
                         if "prominences" in note}
        for sid, note in self.notes.items():
            name = self.spans[sid][0]
            if name == "forest.train_forest":
                trees = plain_trees(note.pop("model"))
                problems += checks.check_leaf_counts(trees, note["rows"])
                note["trees"] = len(trees)
                note["nodes"] = sum(len(t["feature"]) for t in trees)
                note["max_depth"] = max(checks.tree_depth(t) for t in trees)
            elif name == "forest.predict_many":
                trees = plain_trees(note.pop("model"))
                rows = np.atleast_2d(note.pop("x")).tolist()
                problems += checks.check_walk_matches(
                    trees, rows, note.pop("codes").tolist())
            elif name == "detect.find_peaks":
                values, th = note.pop("series"), note.pop("thresholds")
                peaks = note.pop("peaks")
                problems += checks.check_peak_heights(values, peaks, th.min_height)
                if peak_prominences is not None and checks.tie_free(values):
                    problems += checks.check_prominences(
                        values, peaks, prominence_of.get(sid, {}),
                        th.min_prominence, peak_prominences)
            elif name == "detect._prominences":
                note.pop("prominences")
        if peak_prominences is None and any(
                s[0] == "detect.find_peaks" for s in self.spans):
            print("tracer: scipy missing, prominence check skipped", file=sys.stderr)
        return problems

    def dump(self, extra: dict) -> dict:
        return {"spans": self.spans,
                "notes": {str(k): v for k, v in self.notes.items()}, **extra}


def main(argv) -> int:
    out, command = Path(argv[0]), argv[1:]
    import magspy.cli
    recorder = Recorder()
    recorder.install()
    rc = magspy.cli.main(command)
    main_end = time.perf_counter()
    problems = recorder.check_and_summarize()
    out.write_text(json.dumps(recorder.dump(
        {"exit": rc, "main_end": main_end, "problems": problems})),
        encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
